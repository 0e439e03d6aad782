import sys
from collections import Counter

import mpmath
from mpmath.libmp import repr_dps
import pytest
from hypothesis import given, settings, strategies as st

import recurseries.classify
import recurseries.expr
import recurseries.grids
from recurseries.classify import (
    CANCELLATION_HEADROOM,
    PrecisionGuardError,
    analyze,
    probe_limit,
)
from recurseries.cli import main
from recurseries.expr import (
    EvalDomainError,
    context,
    evaluator,
    parse,
    parse_constant,
    taylor_polynomial,
)
from recurseries.grids import (
    GridSpec,
    LATTICE_DEPTH,
    LOG_GUARD_BITS,
    MAX_GRID_POINTS,
    PROBE_GRID,
    Samples,
    seed_grid,
)
from recurseries.orbit import iterate

from corpus import ALL

CTX = context(64)
POSITIVE = [e for e in ALL if e.mode == "positive"]
BY_NAME = {e.name: e for e in ALL}


def corpus_function(entry):
    if entry.taylor is None:
        return parse(entry.function)
    coeffs = tuple(parse_constant(p, CTX) for p in entry.taylor.split(","))
    return taylor_polynomial(coeffs, CTX)


def test_table_points_are_the_grid_points():
    table = Samples(parse("sin(x)"))
    for grid in (PROBE_GRID, seed_grid("1", CTX), seed_grid("0.3", CTX)):
        assert table.points(grid) == grid.points(table.ctx)
        assert table.points(grid) is table.points(grid)


@pytest.mark.parametrize("spec", [
    GridSpec(floor="1e-400000000000"),  # about 1.6e12 points
    GridSpec(start="1e100000000000", floor="1e-30"),
    GridSpec(start="inf"),
], ids=["deep_floor", "huge_start", "infinite_start"])
def test_oversized_grid_is_refused_before_generation(spec):
    with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
        spec.points(CTX)


def test_default_grids_fit_the_point_limit():
    assert len(PROBE_GRID.points(CTX)) == 93
    assert len(seed_grid("1", CTX).points(CTX)) == 121
    # x_9999 = 10^-2499.75 is the last point above 1.5e-2500
    edge = GridSpec(start="1", floor="1.5e-2500")
    assert len(edge.points(CTX)) == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="more than"):
        GridSpec(start="1", floor="1e-2500").points(CTX)


def lattice(j, ctx=CTX):
    """The lattice point x_j = 10^(-j/4) every grid is cut from."""
    return ctx.power(10, ctx.mpf(-j) / 4)


def exact_text(x):
    """Decimal digits of x that read back as x bit for bit."""
    return mpmath.nstr(x, repr_dps(x.context.prec))


def same_bits(points, ctx, expected):
    """points are ctx's own mpf numbers, bit for bit the expected ones."""
    assert all(type(p) is ctx.mpf for p in points)
    assert [p._mpf_ for p in points] == [e._mpf_ for e in expected]


def lattice_size():
    return sum(len(raws) for raws in recurseries.grids._lattice.values())


CONTEXTS = {p: context(p) for p in (16, 64, 200)}


# the precision changes from one example to the next, so the one lattice a
# process keeps is read, refilled and replaced in every order
@settings(max_examples=80, deadline=None)
@given(i=st.integers(-40, 200), span=st.integers(1, 200),
       precision=st.sampled_from(sorted(CONTEXTS)))
def test_grids_are_slices_of_one_lattice(i, span, precision):
    ctx = CONTEXTS[precision]
    k = i + span
    spec = GridSpec(start=exact_text(lattice(i, ctx)), floor=exact_text(lattice(k, ctx)))
    same_bits(spec.points(ctx), ctx, [lattice(j, ctx) for j in range(i, k + 1)])
    # a start between two lattice points comes first, then the lattice below
    between = mpmath.nstr(lattice(i, ctx) * ctx.mpf("0.9"), 20)
    same_bits(GridSpec(start=between, floor=spec.floor).points(ctx), ctx,
              [ctx.mpf(between)] + [lattice(j, ctx) for j in range(i + 1, k + 1)])
    assert lattice_size() <= LATTICE_DEPTH + 1 == 121


def test_a_grid_never_returns_another_precisions_points():
    ctx30 = context(30)
    for ctx in (CTX, ctx30, CTX, ctx30):
        same_bits(seed_grid("1", ctx).points(ctx), ctx,
                  [lattice(j, ctx) for j in range(LATTICE_DEPTH + 1)])
    assert list(recurseries.grids._lattice) == [ctx30.prec]
    assert lattice_size() == LATTICE_DEPTH + 1


def test_second_analysis_computes_no_lattice_power(monkeypatch):
    monkeypatch.setattr(recurseries.grids, "_lattice", {})
    mpc = type(CTX)
    original = mpc.power
    powers = []

    def counted(ctx, x, y):
        if x == 10 and hasattr(y, "_mpf_"):  # the lattice's 10^(-j/4)
            powers.append(y)
        return original(ctx, x, y)

    monkeypatch.setattr(mpc, "power", counted)
    analyze(Samples(parse("sin(x)"), x0="1"), max_n=2000)
    assert len(powers) == LATTICE_DEPTH + 1
    del powers[:]
    analyze(Samples(parse("x/(1+x)"), x0="0.5"), max_n=2000)
    assert powers == []


def test_probe_grid_is_a_slice_of_the_validation_grid():
    validation = seed_grid("1", CTX).points(CTX)
    assert PROBE_GRID.points(CTX) == validation[8:101]
    for start, below in (("3", 0), ("0.3", 3)):
        points = seed_grid(start, CTX).points(CTX)
        assert points[0] == CTX.mpf(start)  # never above the start
        assert set(points) >= set(validation[below:])


def test_seed_grid_reaches_below_a_seed_at_the_floor():
    assert seed_grid("-0.3", CTX) == seed_grid("0.3", CTX) == GridSpec("0.3", "1e-30")
    # (0, x0] holds no point of the validation grid: the decade below it
    for x0 in ("1e-30", "-1e-35"):
        points = seed_grid(x0, CTX).points(CTX)
        assert points[0] == abs(CTX.mpf(x0)) and len(points) == 5
        assert abs(points[-1] * 10 / points[0] - 1) < CTX.mpf("1e-60")


def test_table_reads_match_the_evaluator():
    f = parse("x / ln(x^2)")  # ln(1) = 0: a domain error at x = 1 and -1
    table = Samples(f)
    fn = evaluator(f, table.ctx)
    points = table.points(table.seed)
    for x in (points[0], -points[0], points[0]):
        with pytest.raises(EvalDomainError, match="division by zero"):
            table.f(x)
    for x in points[1:]:
        assert table.f(x)._mpf_ == fn(x._mpf_)
        assert table.f(-x)._mpf_ == fn((-x)._mpf_)


def test_logs_evaluate_f_before_the_guard_bits():
    table = Samples(parse("x/(1+x)"))
    working = table.ctx.prec
    seen = []
    compiled = table.compiled

    def spy(x):
        seen.append(table.ctx.prec)
        return compiled(x)

    table.compiled = spy
    rows = table.logs(PROBE_GRID)
    assert len(seen) == len(rows) and set(seen) == {working}
    fn = evaluator(parse("x/(1+x)"), CTX)
    values = [CTX.make_mpf(fn(x._mpf_)) for x, _, _ in rows]
    with CTX.extraprec(LOG_GUARD_BITS):
        assert all(ln_fx == CTX.ln(fx) for (_, _, ln_fx), fx in zip(rows, values))


@pytest.mark.parametrize("text,error", [
    ("x - 1e-10", ValueError),  # f <= 0 below the grid's middle
    ("sqrt(x - 2e-12)", EvalDomainError),
])
def test_failed_fill_leaves_no_partial_table(text, error):
    table = Samples(parse(text))
    for _ in range(2):
        with pytest.raises(error):
            table.logs(PROBE_GRID)
        with pytest.raises(error):
            probe_limit(table, 1)


def direct_probe(f, a, grid, ctx):
    """Reference form of the probe: (x^a - f^a) / (x^a * f^a) by ctx.power,
    with the share |x^a - f^a| / x^a the cancellation guard reads."""
    fn = evaluator(f, ctx)
    rows = []
    for x in grid.points(ctx):
        fx = ctx.make_mpf(fn(x._mpf_))
        xa = ctx.power(x, a)
        fa = ctx.power(fx, a)
        rows.append((x, (xa - fa) / (xa * fa), abs(xa - fa) / xa))
    return rows


@settings(max_examples=40, deadline=None)
@given(
    entry=st.sampled_from(POSITIVE),
    a=st.floats(min_value=0.01, max_value=4, exclude_min=True, exclude_max=True),
)
def test_probe_samples_match_direct_power_form(entry, a):
    # the guard promises CANCELLATION_HEADROOM trustworthy digits
    f = corpus_function(entry)
    a = CTX.mpf(repr(a))
    tol = CTX.mpf(10) ** -CANCELLATION_HEADROOM
    direct = direct_probe(f, a, PROBE_GRID, CTX)
    floor = CTX.mpf(10) ** -(CTX.dps - CANCELLATION_HEADROOM)
    guarded = any(share < floor for _, _, share in direct)
    try:
        probe = probe_limit(Samples(f), a)
    except PrecisionGuardError:
        assert guarded
        return
    assert not guarded
    assert len(probe.samples) == len(direct)
    for (x, value), (x_ref, ref, _) in zip(probe.samples, direct):
        assert x == x_ref
        assert abs(value - ref) <= tol * abs(ref)


def count_evaluations(monkeypatch):
    """Replace `evaluator` in every module bound to it, as the benchmark's
    tracer does; returns the argument list of each compiled f, by source."""
    original = recurseries.expr.evaluator
    calls = []  # (source text, arguments of that compiled callable)

    def counting(f, ctx):
        fn = original(f, ctx)
        args = []
        calls.append((f.source_text, args))

        def counted(x):
            args.append(x)
            return fn(x)

        return counted

    for name, module in list(sys.modules.items()):
        if name.startswith("recurseries") and getattr(module, "evaluator", None) is original:
            monkeypatch.setattr(module, "evaluator", counting)
    return calls


@pytest.mark.parametrize("name", ["sine", "wide_band"])
def test_analyze_evaluates_f_once_per_grid_point(monkeypatch, name):
    entry = BY_NAME[name]
    calls = count_evaluations(monkeypatch)
    report = analyze(Samples(parse(entry.function), x0=entry.x0), max_n=entry.max_n)
    assert report.verdict.conclusion == entry.verdict
    f_calls = [args for source, args in calls if source == entry.function]
    assert len(f_calls) == 1  # the table's compile, which the orbit runs too
    # the probe grid is a slice of the validation grid from the seed, which
    # the table reads before the orbit starts
    grid = seed_grid(entry.x0, CTX).points(CTX)
    assert set(f_calls[0][:len(grid)]) == {x._mpf_ for x in grid}
    seen = Counter(x for args in f_calls for x in args)
    orbit = report.orbit_result
    # the orbit loop evaluates f at x_0 .. x_{step-1}
    seen.subtract(orbit.terms[:orbit.status.step])
    assert min(seen.values()) >= 0
    assert max(seen.values()) == 1


def test_compare_evaluates_a_user_majorant_once_per_point(monkeypatch, capsys):
    # the majorant's own analysis (its table, whose compiled f its orbit
    # runs) is all: the monotonicity and the domination scans read that
    # table, on the same grid from the seed, and the printed orbit of m is
    # the one its analysis iterated
    calls = count_evaluations(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--f=x*(1/2 + 1/3*sin(1/x))", "--x0=0.3",
              "--majorant=fn:5/6 * x"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "monotone on grid: yes  delta = 0.3\n" in out
    lengths = [len(args) for source, args in calls if source == "5/6 * x"]
    grid = seed_grid("0.3", CTX).points(CTX)
    assert lengths == [len(grid) + 499]  # one compile: the grid, then the orbit
    m_orbit = iterate(Samples(parse("5/6 * x")), "0.3")
    rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
    assert rows and all(m == mpmath.nstr(CTX.make_mpf(m_orbit.terms[int(n)]), 64)
                        for n, _, m in rows)


def count_calls(monkeypatch, module, name):
    """Wrap module.name wherever the package binds it; returns the argument
    tuples of its calls."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("recurseries") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


# (limit probes, evaluator compiles, f evaluations, majorant_rule calls) per
# analysis; a later change that does more work has to update these
WORK = {
    "harmonic": (0, 1, 2121, 0),
    "sine": (0, 1, 2121, 0),
    "oscillatory": (0, 1, 239, 0),
    "wide_band": (0, 1, 242, 0),
}


@pytest.mark.parametrize("name", sorted(WORK))
def test_analyze_work_counters(monkeypatch, capsys, name):
    compiled = count_evaluations(monkeypatch)
    probes = count_calls(monkeypatch, recurseries.classify, "probe_limit")
    majorants = count_calls(monkeypatch, recurseries.classify, "majorant_rule")
    with pytest.raises(SystemExit) as exc:
        main(BY_NAME[name].cli_args())
    assert exc.value.code == 0
    evaluations = sum(len(args) for _, args in compiled)
    assert (len(probes), len(compiled), evaluations, len(majorants)) == WORK[name]



@pytest.mark.parametrize("entry", [e for e in ALL if e.taylor is None], ids=lambda e: e.name)
def test_analyze_makes_one_context(monkeypatch, entry):
    # the table's: every stage, the orbit, the fit and the sum run on it
    contexts = count_calls(monkeypatch, recurseries.expr, "context")
    analyze(Samples(parse(entry.function), x0=entry.x0), max_n=entry.max_n)
    assert len(contexts) == 1


def test_analyze_command_makes_one_context(monkeypatch, capsys):
    # the command reads --f without a context; analyze's table makes the one
    contexts = count_calls(monkeypatch, recurseries.expr, "context")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--f=x/2", "--x0=1"])
    assert exc.value.code == 0
    assert len(contexts) == 1


def test_taylor_analysis_makes_two_contexts(monkeypatch, capsys):
    # the one --taylor's coefficients are read on, and the table's
    contexts = count_calls(monkeypatch, recurseries.expr, "context")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--taylor=1,0,-1/6", "--x0=0.5", "--max-n=2000"])
    assert exc.value.code == 0
    assert "verdict: divergent (LimitExponentRule)" in capsys.readouterr().out
    assert len(contexts) == 2


def test_compare_compiles_a_user_majorant_at_most_twice(monkeypatch, capsys):
    # m's table, which its analysis and its printed orbit read, and the one
    # majorant_rule builds when m's analysis gives it no certificate
    compiled = count_evaluations(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--f=x/3", "--x0=0.3", "--majorant=fn:2*x"])
    assert exc.value.code == 2
    assert "majorant series: analysis failed" in capsys.readouterr().out
    assert len([source for source, _ in compiled if source == "2*x"]) <= 2


@pytest.mark.parametrize("mode", ["auto", "positive"])
def test_iterate_compiles_f_once(monkeypatch, capsys, mode):
    # mode detection reads the table on the grid from the seed; the orbit
    # runs the same compiled f
    compiled = count_evaluations(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["iterate", "--f=x/(1+x)", "--x0=0.5", "--max-n=50", f"--mode={mode}"])
    assert exc.value.code == 0
    detected = len(seed_grid("0.5", CTX).points(CTX)) if mode == "auto" else 0
    assert [(source, len(args)) for source, args in compiled] == [("x/(1+x)", detected + 50)]


# x0 on the lattice (to 60 digits at every precision here), off it, at or
# below the validation floor, and each of them negated
SEEDS = st.one_of(
    st.integers(-8, 130).map(lambda j: mpmath.nstr(lattice(j, CONTEXTS[200]), 60)),
    st.builds(lambda m, e: f"{m}e{e}", st.integers(1, 10**30), st.integers(-70, -20)),
    st.sampled_from(["1e-30", "1.000000000001e-30", "9.99e-31", "3e-35", "1e-40"]),
).flatmap(lambda x0: st.sampled_from([x0, "-" + x0]))


@settings(max_examples=150, deadline=None)
@given(x0=SEEDS, precision=st.sampled_from(sorted(CONTEXTS)))
def test_table_seed_grid_is_the_seed_grid_of_its_x0(x0, precision):
    table = Samples(parse("x/2"), precision, x0)
    ctx = CONTEXTS[precision]
    same_bits(table.points(table.seed), table.ctx, seed_grid(x0, ctx).points(ctx))


def near_lattice(j, sign, e):
    """x_j * (1 + sign * 10^-e) in 30 digits."""
    ctx = CONTEXTS[200]
    return mpmath.nstr(lattice(j, ctx) * (1 + sign * ctx.power(10, -e)), 30)


# seeds just above and just below a lattice point, and decimal lattice points
NEAR_LATTICE = st.one_of(
    st.builds(near_lattice, st.integers(-8, 130), st.sampled_from([1, -1]),
              st.integers(4, 25)),
    st.integers(-2, 32).map(lambda k: f"1e{-k}"),
)


@settings(max_examples=150, deadline=None)
@given(x0=NEAR_LATTICE, precision=st.sampled_from(sorted(CONTEXTS)))
def test_a_seed_next_to_a_lattice_point_is_its_own_grid_start(x0, precision):
    table = Samples(parse("x/2"), precision, x0)
    points = table.points(table.seed)
    assert points[0] == table.x0
    assert len(points) >= 2 and all(a > b for a, b in zip(points, points[1:]))


def spy_grids(monkeypatch):
    """Record, for every grid a stage asks a table for, whether it is the
    table's seed or probe grid."""
    asked = []
    for name in ("points", "logs"):
        original = getattr(Samples, name)

        def spy(table, grid, original=original):
            asked.append(grid is table.seed or grid is table.probe)
            return original(table, grid)

        monkeypatch.setattr(Samples, name, spy)
    return asked


@pytest.mark.parametrize("argv", [e.cli_args() for e in ALL] + [
    ["limit", "--f=x/(1+x)", "--a=1", "--grid-start=0.05", "--grid-floor=1e-20"],
    ["limit", "--f=sin(x)", "--a=search"],
    ["compare", "--f=x*(1/2 + 1/3*sin(1/x))", "--x0=0.3", "--majorant=linear:5/6"],
    ["compare", "--f=x - x^(3/2)*(1+abs(sin(1/x)))/2", "--x0=0.3",
     "--majorant=powerlaw:a=0.9,c=1.25"],
    ["compare", "--f=x*(1/2 + 1/3*sin(1/x))", "--x0=0.3", "--majorant=fn:5/6 * x"],
    ["iterate", "--f=-x/2", "--x0=0.5", "--max-n=50"],
], ids=lambda argv: " ".join(argv[:2]))
def test_stages_read_only_the_tables_two_grids(monkeypatch, capsys, argv):
    asked = spy_grids(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code in (0, 2), capsys.readouterr().out
    assert asked and all(asked)
