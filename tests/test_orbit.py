import io
import tracemalloc
from itertools import accumulate
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_lt,
    mpf_neg,
    round_nearest,
    to_str,
)

from recurseries.estimate import fit_power_law, sum_estimate
from recurseries.expr import EvalDomainError, context, parse
from recurseries.grids import GridSpec, Samples, seed_grid
from recurseries.orbit import (
    CsvRows,
    HYPOTHESIS_VIOLATION,
    HypothesisReport,
    MAX_ITERATIONS,
    Mode,
    REACHED_FLOOR,
    UNDERFLOW,
    _Decimal,
    _decays,
    iterate,
    validate_hypotheses,
    validated_region,
    write_csv,
)

from test_grids import RAW_VALUES

CTX = context(64)


def test_geometric_orbit_exact():
    orbit = iterate(Samples(parse("x/2")), 1)
    # 2^-n drops below 1e-40 at n = 133
    assert orbit.status.kind == REACHED_FLOOR
    assert orbit.status.step == 133
    assert orbit.last_index == 133
    for n in (0, 1, 7, 133):
        assert orbit.terms[n] == CTX.power(2, -n)._mpf_
    # S_N = 2 - 2^-N exactly for dyadic arithmetic
    assert orbit.s_n == 2 - CTX.power(2, -133)


def test_harmonic_orbit_closed_form():
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=1000)
    assert orbit.status.kind == MAX_ITERATIONS
    worst = max(
        abs(term - CTX.mpf(1) / (n + 1))
        for n, term in enumerate(map(CTX.make_mpf, orbit.terms))
    )
    assert worst < CTX.mpf("1e-70")
    # S_N is the harmonic number H_{N+1}
    assert abs(orbit.s_n - CTX.harmonic(1001)) < CTX.mpf("1e-68")


@settings(max_examples=25, deadline=None)
@given(
    c=st.floats(min_value=0.05, max_value=0.95),
    x0=st.floats(min_value=0.01, max_value=1.0),
)
def test_linear_orbit_matches_closed_form(c, x0):
    ctx = context(64)
    cm, x0m = ctx.mpf(repr(c)), ctx.mpf(repr(x0))
    orbit = iterate(Samples(parse(f"({c!r}) * x")), x0m, max_n=200, floor="1e-35")
    for n, term in enumerate(map(ctx.make_mpf, orbit.terms)):
        want = x0m * ctx.power(cm, n)
        assert abs(term - want) <= abs(want) * ctx.mpf("1e-69")


def test_alternating_orbit():
    orbit = iterate(Samples(parse("-x/2")), 1, mode=Mode.SIGNED)
    assert orbit.status.kind == REACHED_FLOOR
    signs = [mpmath.sign(CTX.make_mpf(t)) for t in orbit.terms]
    assert all(a * b < 0 for a, b in zip(signs, signs[1:]))
    assert abs(orbit.s_n - CTX.mpf(2) / 3) < CTX.mpf("1e-40")


def test_violation_stops_orbit():
    orbit = iterate(Samples(parse("2*x")), 1)
    assert orbit.status.kind == HYPOTHESIS_VIOLATION
    assert orbit.status.step == 1
    assert orbit.terms == [CTX.mpf(1)._mpf_]  # offending value never recorded

    # the identity breaks the strict decrease requirement
    orbit = iterate(Samples(parse("x")), 1)
    assert orbit.status.kind == HYPOTHESIS_VIOLATION

    # negative values violate positive mode
    orbit = iterate(Samples(parse("-x/2")), 1, mode=Mode.POSITIVE)
    assert orbit.status.kind == HYPOTHESIS_VIOLATION


def test_underflow_and_domain_error():
    orbit = iterate(Samples(parse("x - 1")), 1)
    assert orbit.status.kind == UNDERFLOW

    # a domain error mid-orbit is reported as a violation with the cause
    orbit = iterate(Samples(parse("ln(x - 1)")), "0.5")
    assert orbit.status.kind == HYPOTHESIS_VIOLATION
    assert "ln" in orbit.status.detail


def test_immediate_floor():
    orbit = iterate(Samples(parse("x/2")), "1e-50")
    assert orbit.status.kind == REACHED_FLOOR
    assert orbit.status.step == 0
    assert orbit.terms == [CTX.mpf("1e-50")._mpf_]


def test_iterate_argument_validation():
    with pytest.raises(ValueError):
        iterate(Samples(parse("x/2")), 0)
    with pytest.raises(ValueError):
        iterate(Samples(parse("x/2")), 1, max_n=0)
    with pytest.raises(ValueError):
        iterate(Samples(parse("x/2")), 1, floor="0")


def test_validate_hypotheses_clean():
    report = validate_hypotheses(Samples(parse("x/(1+x)")))
    assert report.passed
    assert report.violations == []
    assert validated_region(report) == CTX.mpf(1)
    assert "not a proof" in report.caveat


def test_validate_hypotheses_partial():
    report = validate_hypotheses(Samples(parse("x - x^2")))
    assert not report.passed
    assert [x for x, _ in report.violations] == [CTX.mpf(1)]
    region = validated_region(report)
    assert abs(region - CTX.power(10, CTX.mpf("-0.25"))) < CTX.mpf("1e-70")


def test_validate_hypotheses_total_failure():
    report = validate_hypotheses(Samples(parse("2*x")))
    assert validated_region(report) is None


def test_validate_hypotheses_signed_interleaves():
    report = validate_hypotheses(Samples(parse("-x/2")), mode=Mode.SIGNED)
    assert report.passed
    grid_len = len(seed_grid("1", CTX).points(CTX))
    assert len(report.checked_grid) == 2 * grid_len
    assert any(p < 0 for p in report.checked_grid)


def validate_by_mpf(table, mode):
    """validate_hypotheses on the mpf values table.f makes: the reference
    for the raw route."""
    points = table.points(table.seed)
    if mode is Mode.SIGNED:
        points = [q for p in points for q in (p, -p)]
    prec, rnd = table.ctx._prec_rounding
    violations = []
    flat = 0
    for p in points:
        try:
            y = table.f(p)
        except EvalDomainError as err:
            violations.append((p, err))
            flat = 0
            continue
        size, bound = y._mpf_, p._mpf_
        if mode is Mode.SIGNED:
            size, bound = mpf_abs(size, prec, rnd), mpf_abs(bound, prec, rnd)
        if not _decays(size, bound):
            violations.append((p, y))
        flat = flat + 1 if size == bound else 0
    if mode is Mode.SIGNED:
        flat -= flat % 2
    cut = points[-flat] if flat and len(points) - flat >= 2 else None
    return HypothesisReport(mode, points, violations, passed=not violations, cut=cut)


def _report_bits(report):
    def raw(y):
        return y if isinstance(y, EvalDomainError) else (type(y), y._mpf_)

    return (report.mode, [p._mpf_ for p in report.checked_grid],
            [(p._mpf_, raw(y)) for p, y in report.violations], report.passed,
            None if report.cut is None else report.cut._mpf_)


# an entry at x: f(x) = x/2, x, -x, -x/2, or any of test_grids.RAW_VALUES
_RELATIVE = {"half": lambda p: p / 2, "same": lambda p: p, "negated": lambda p: -p,
             "negated_half": lambda p: -p / 2}


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(list(Mode)),
       entries=st.lists(st.one_of(st.sampled_from(sorted(_RELATIVE)), RAW_VALUES),
                        min_size=18, max_size=18),
       flat=st.integers(0, 18), error_at=st.none() | st.integers(0, 17))
def test_validation_on_raw_values_is_the_mpf_route(mode, entries, flat, error_at):
    # the same points, violations (f(x) as an mpf, or the error), passed and
    # cut, on the nine points from 1e-28 and their negatives, with a run of
    # |f(x)| == |x| of any length at the bottom, which a domain error may break
    entries[18 - flat:] = [("same", "negated")[k % 2] for k in range(flat)]
    if error_at is not None:
        entries[error_at] = EvalDomainError("ln(x)", CTX.mpf(-1), "log of a negative number")
    table = Samples(parse("x"), x0="1e-28")
    points = [q for p in table.points(table.seed) for q in (p, -p)]
    for p, entry in zip(points, entries):
        value = _RELATIVE[entry](p)._mpf_ if isinstance(entry, str) else entry
        table._values[p._mpf_] = value
    assert (_report_bits(validate_hypotheses(table, mode))
            == _report_bits(validate_by_mpf(table, mode)))


def sorted_region(report):
    """validated_region by its definition: the largest sampled magnitude
    below which every sampled magnitude passes."""
    bad = {abs(x) for x, _ in report.violations}
    top = None
    for m in sorted({abs(p) for p in report.checked_grid}):
        if m in bad:
            break
        top = m
    return top


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(list(Mode)), start=st.sampled_from(["1", "0.3", "1e-3"]),
       data=st.data())
def test_validated_region_reads_the_grid_order(mode, start, data):
    points = seed_grid(start, CTX).points(CTX)
    if mode is Mode.SIGNED:
        points = [q for p in points for q in (p, -p)]
    # violations in grid order, as validate_hypotheses records them
    failed = data.draw(st.sets(st.integers(0, len(points) - 1)))
    violations = [(p, CTX.zero) for i, p in enumerate(points) if i in failed]
    report = HypothesisReport(mode, points, violations, passed=not violations)
    assert validated_region(report) == sorted_region(report)


def test_write_csv_thin_keeps_last_row():
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=100)
    buffer = io.StringIO()
    rows = write_csv(orbit, buffer, thin=30)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "n,x_n,S_n"
    assert rows == len(lines) - 1
    assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 30, 60, 90, 100]
    # last row holds x_100 = 1/101
    x_last = mpmath.mpf(lines[-1].split(",")[1])
    assert abs(x_last - mpmath.mpf(1) / 101) < mpmath.mpf("1e-12")


# each input with f by CTX's mpf operators and functions, and the last index
_RECURRENCES = [
    ("x/(1+x)", "0.5", Mode.POSITIVE, lambda x: x / (1 + x), 2000),
    ("sin(x)", "1", Mode.POSITIVE, CTX.sin, 2000),
    ("-sin(x)", "1", Mode.SIGNED, lambda x: -CTX.sin(x), 2000),
    # the corpus's alternating entry, to the floor
    ("-x/2", "1", Mode.SIGNED, lambda x: -x / 2, 133),
    ("x - x^2", "0.5", Mode.POSITIVE, lambda x: x - x ** 2, 2000),
    ("x/(1+x^(1/2))^2", "1", Mode.POSITIVE, lambda x: x / (1 + CTX.sqrt(x)) ** 2, 2000),
    ("0.9*(x/(1+x))", "1", Mode.POSITIVE, lambda x: CTX.mpf("0.9") * (x / (1 + x)), 852),
]


@pytest.mark.parametrize("text,x0,mode,by_mpf,last", _RECURRENCES,
                         ids=[case[0] for case in _RECURRENCES])
def test_iterate_is_the_plain_mpf_recurrence(text, x0, mode, by_mpf, last):
    # the stored orbit keeps x_n and S_N, the streamed one hands out every
    # (x_n, S_n): each is the recurrence in mpf arithmetic, bit for bit
    orbit = iterate(Samples(parse(text)), x0, max_n=2000, mode=mode)
    rows = []
    streamed = iterate(Samples(parse(text)), x0, max_n=2000, mode=mode,
                       rows=lambda n, x, s: rows.append((x, s)))
    x = s = CTX.convert(x0)
    terms, sums = [x], [s]
    for _ in range(orbit.last_index):
        x = by_mpf(x)
        s = s + x
        terms.append(x)
        sums.append(s)
    assert orbit.last_index == last
    assert orbit.terms == [t._mpf_ for t in terms]
    assert (orbit.x_n._mpf_, orbit.s_n._mpf_) == (terms[-1]._mpf_, sums[-1]._mpf_)
    assert [(x._mpf_, s._mpf_) for x, s in rows] == [
        (x._mpf_, s._mpf_) for x, s in zip(terms, sums)]
    assert type(orbit.x_n) is type(orbit.s_n) is type(orbit.x0)
    assert all(type(v) is type(streamed.x0) for row in rows for v in row)


_ROUNDS_TO_X = "at the working precision (a fixed point or a precision limit)"


@pytest.mark.parametrize("text,x0,mode,kind,step,detail", [
    ("2*x", "1", Mode.POSITIVE, HYPOTHESIS_VIOLATION, 1,
     "f(x) = 2.0 breaks the decay bound at x = 1.0"),
    ("x - 0.3", "1", Mode.POSITIVE, HYPOTHESIS_VIOLATION, 4,
     "f(x) = -0.2 breaks the decay bound at x = 0.1"),
    ("x - 0.3", "1", Mode.SIGNED, HYPOTHESIS_VIOLATION, 4,
     "f(x) = -0.2 breaks the decay bound at x = 0.1"),
    ("sqrt(x - 0.2)", "1", Mode.POSITIVE, HYPOTHESIS_VIOLATION, 461,
     f"f(x) rounds to x = 0.72360679775 {_ROUNDS_TO_X}"),
    ("sin(x)", "1e-50", Mode.POSITIVE, HYPOTHESIS_VIOLATION, 1,
     f"f(x) rounds to x = 1.0e-50 {_ROUNDS_TO_X}"),
    ("-sin(x)", "1e-50", Mode.SIGNED, HYPOTHESIS_VIOLATION, 1,
     f"|f(x)| rounds to |x| = 1.0e-50 {_ROUNDS_TO_X}"),
    ("x - 0.25", "1", Mode.POSITIVE, UNDERFLOW, 4, "f returned exactly 0"),
    ("sqrt(x - 0.3)", "1", Mode.POSITIVE, HYPOTHESIS_VIOLATION, 10,
     "square root of a negative value in 'sqrt(x - 0.3)' at x = 0.27876411061"),
])
def test_iterate_status_details(text, x0, mode, kind, step, detail):
    orbit = iterate(Samples(parse(text)), x0, floor="1e-60", mode=mode)
    assert (orbit.status.kind, orbit.status.step, orbit.status.detail) == (kind, step, detail)
    assert orbit.last_index == step - 1


def _csv_by_definition(orbit, thin):
    """Rows n with n % thin == 0, and the last row, from every index, with
    S_n = S_{n-1} + x_n in mpf arithmetic."""
    lines = ["n,x_n,S_n"]
    for n, x in enumerate(map(CTX.make_mpf, orbit.terms)):
        s = s + x if n else x
        if n % thin == 0 or n == orbit.last_index:
            lines.append(f"{n},{mpmath.nstr(x, 64)},{mpmath.nstr(s, 64)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("max_n,thin", [
    (100, 1), (100, 7), (100, 10), (70, 7), (3, 10), (1, 1),
])
def test_write_csv_rows_match_the_definition(max_n, thin):
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=max_n)
    buffer = io.StringIO()
    rows = write_csv(orbit, buffer, thin=thin)
    assert buffer.getvalue() == _csv_by_definition(orbit, thin)
    assert rows == buffer.getvalue().count("\n") - 1


# every stop status: floor, step limit, violations at steps 1, 4 and 461,
# underflow, and a signed orbit to the floor
_STOPS = [
    ("x/2", 1000, Mode.POSITIVE, REACHED_FLOOR, 133),
    ("x/(1+x)", 500, Mode.POSITIVE, MAX_ITERATIONS, 500),
    ("2*x", 1000, Mode.POSITIVE, HYPOTHESIS_VIOLATION, 1),
    ("x - 0.3", 1000, Mode.POSITIVE, HYPOTHESIS_VIOLATION, 4),
    ("sqrt(x - 0.2)", 1000, Mode.POSITIVE, HYPOTHESIS_VIOLATION, 461),
    ("x - 0.25", 1000, Mode.POSITIVE, UNDERFLOW, 4),
    ("-x/2", 1000, Mode.SIGNED, REACHED_FLOOR, 133),
]


@pytest.mark.parametrize("thin", [1, 3, 7, 10])
@pytest.mark.parametrize("text,max_n,mode,kind,step", _STOPS)
def test_thinned_orbit_is_the_full_orbit_at_the_kept_rows(text, max_n, mode, kind, step, thin):
    full = iterate(Samples(parse(text)), 1, max_n=max_n, mode=mode)
    kept_rows = []
    orbit = iterate(Samples(parse(text)), 1, max_n=max_n, mode=mode, thin=thin,
                    rows=lambda n, x, s: kept_rows.append((n, x._mpf_, s._mpf_)))
    last = step if kind in (REACHED_FLOOR, MAX_ITERATIONS) else step - 1
    assert (orbit.status, orbit.last_index) == (full.status, last)
    assert orbit.status.kind == kind and orbit.status.step == step
    kept = sorted(set(range(0, last + 1, thin)) | {last})
    # S_n of the stored orbit is the left fold of mpf_add over its raw x_n
    # (see test_orbit_sum_is_the_mpf_add_fold), which write_csv writes
    sums = list(accumulate(full.terms, lambda s, x: mpf_add(s, x, CTX.prec, round_nearest)))
    assert kept_rows == [(n, full.terms[n], sums[n]) for n in kept]
    assert orbit.terms == [full.terms[-1]]
    assert (orbit.x_n._mpf_, orbit.s_n._mpf_) == kept_rows[-1][1:]
    assert (full.x_n._mpf_, full.s_n._mpf_) == (full.terms[-1], sums[-1])
    want, got = io.StringIO(), io.StringIO()
    rows = CsvRows(got, 64)
    iterate(Samples(parse(text)), 1, max_n=max_n, mode=mode, thin=thin, rows=rows)
    assert rows.count == write_csv(full, want, thin=thin)
    assert got.getvalue() == want.getvalue()


@st.composite
def _decimal_cases(draw):
    """(raw, dps) for CsvRows' text: digit counts 16 to 100, both signs,
    mantissas up to the working precision of dps digits, values whose
    digits are 9 far past dps (round-up carries, to a power of 10), and
    magnitudes |exp + bc| at 3500, where to_digits_exp changes its method;
    now and then a zero, inf or nan."""
    dps = draw(st.integers(16, 100))
    prec = context(dps).prec
    kind = draw(st.sampled_from(["random", "nines", "cut", "special"]))
    if kind == "special":
        return draw(st.sampled_from([fzero, finf, fninf, fnan])), dps
    if kind == "nines":  # 10^j * (1 - 2^-m)
        m = draw(st.integers(4 * dps, 4 * dps + 60))
        raw = from_man_exp(10 ** draw(st.integers(0, 40)) * ((1 << m) - 1),
                           -m - draw(st.integers(-200, 200)))
    else:
        man = draw(st.integers(1, (1 << prec) - 1))
        if kind == "cut":
            top = draw(st.sampled_from([3499, 3500, 3501]))
            top = top if draw(st.booleans()) else -top
            raw = from_man_exp(man, top - man.bit_length())
        else:
            raw = from_man_exp(man, draw(st.integers(-1200, 1200)))
    return (mpf_neg(raw) if draw(st.booleans()) else raw), dps


@settings(max_examples=2000, deadline=None)
@given(_decimal_cases())
def test_csv_text_is_libmp_to_str(case):
    raw, dps = case
    assert _Decimal(dps)(raw) == to_str(raw, dps)


def test_thinned_orbit_needs_a_row_consumer():
    table = Samples(parse("x/(1+x^(1/2))^2"))
    with pytest.raises(ValueError, match="thinned orbit must be streamed"):
        iterate(table, 1, max_n=2000, thin=10)
    with pytest.raises(ValueError):
        iterate(Samples(parse("x/2")), 1, thin=0)


@pytest.mark.parametrize("thin", [1, 7])
def test_streamed_orbit_keeps_its_last_row_and_is_refused_by_readers(thin):
    f = parse("x/(1+x^(1/2))^2")
    stored = iterate(Samples(f), 1, max_n=2000)
    out = io.StringIO()
    rows = CsvRows(out, 64)
    orbit = iterate(Samples(f), 1, max_n=2000, thin=thin, rows=rows)
    assert orbit.streamed and orbit.last_index == 2000
    assert orbit.terms == [stored.terms[-1]]
    assert (orbit.x_n._mpf_, orbit.s_n._mpf_) == (stored.x_n._mpf_, stored.s_n._mpf_)
    assert rows.count == len(range(0, 2000, thin)) + 1
    for reader in (fit_power_law, sum_estimate):
        with pytest.raises(ValueError, match="the orbit keeps only its last row"):
            reader(orbit)
    with pytest.raises(ValueError, match="streamed orbit keeps only its last row"):
        write_csv(orbit, io.StringIO(), thin=thin)


def _iterate_peak(max_n):
    f = parse("x/(1+x)")
    tracemalloc.start()
    try:
        iterate(Samples(f), 1, max_n=max_n, thin=10000, rows=lambda n, x, s: None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_thinned_iterate_memory_is_flat_in_max_n():
    iterate(Samples(parse("x/(1+x)")), 1, max_n=10)  # imports and caches outside the count
    assert _iterate_peak(40000) <= 1.5 * _iterate_peak(10000)


def _iterate_mpfs(monkeypatch, max_n):
    """The calls to the table context's make_mpf during a stored orbit of
    max_n steps, the compiled f's included: the class method is counted
    before the table binds it."""
    made = []
    make_mpf = type(CTX).make_mpf
    monkeypatch.setattr(type(CTX), "make_mpf", lambda ctx, v: made.append(v) or make_mpf(ctx, v))
    table = Samples(parse("x/(1+x)"))
    made.clear()
    orbit = iterate(table, 1, max_n=max_n)
    monkeypatch.undo()
    assert orbit.last_index == max_n
    return len(made)


def test_stored_orbit_makes_no_mpf_per_step(monkeypatch):
    # the loop runs on raw values; mpf numbers are made for the last row only
    assert _iterate_mpfs(monkeypatch, 10**3) == _iterate_mpfs(monkeypatch, 10**4) <= 4


_MANTISSAS = st.integers(min_value=1, max_value=2**130)
_EXPONENTS = st.integers(min_value=-300, max_value=300)


@st.composite
def _positive_raw_pairs(draw):
    """Two positive normalized raw values: unrelated, with the same top
    exponent exp + bc but mantissas of other lengths, or equal."""
    a = from_man_exp(draw(_MANTISSAS), draw(_EXPONENTS))
    kind = draw(st.sampled_from(["any", "same_top", "equal"]))
    if kind == "equal":
        shift = draw(st.integers(min_value=0, max_value=64))
        return a, from_man_exp(a[1] << shift, a[2] - shift)
    man = draw(_MANTISSAS)
    exp = a[2] + a[3] - man.bit_length() if kind == "same_top" else draw(_EXPONENTS)
    return a, from_man_exp(man, exp)


@settings(max_examples=500, deadline=None)
@given(_positive_raw_pairs())
def test_raw_comparison_is_mpf_lt(pair):
    a, b = pair
    assert _decays(a, b) == mpf_lt(a, b)
    assert _decays(b, a) == mpf_lt(b, a)


_NOT_POSITIVE = [fzero, finf, fnan, fninf, from_man_exp(-1, 0), from_man_exp(-3, -70)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_NOT_POSITIVE), _MANTISSAS, _EXPONENTS)
def test_decay_test_stops_where_mpf_lt_stops(value, man, exp):
    bound = from_man_exp(man, exp)
    assert _decays(value, bound) == (mpf_lt(fzero, value) and mpf_lt(value, bound))
    assert not _decays(value, bound)
    # a negative bound, the seed of a negative orbit in positive mode
    assert not _decays(bound, from_man_exp(-man, exp))


_SUM_STEPS = ["tie", "carry", "at_ulp", "below_ulp", "far_below"]


@st.composite
def _orbit_terms(draw):
    """(precision in bits, mode, thin, raw terms x_0..x_N), where each
    |x_{k+1}| < |x_k| is drawn against the running mpf_add sum S_k: an exact
    half-ulp tie, a step to or past the next binade, a multiple of the ulp,
    a value below the ulp, or one more than 100 binades below S_k (the
    perturbation branch of mpf_add). In signed mode any term may be
    negative, which sends the sum through mpf_add."""
    prec = draw(st.sampled_from([16, 64, 200]))
    mode = draw(st.sampled_from(list(Mode)))
    signed = mode is Mode.SIGNED
    mantissa = st.integers(min_value=1, max_value=2**prec - 1)
    x = from_man_exp(draw(mantissa), draw(st.integers(min_value=-40, max_value=40)))
    if signed and draw(st.booleans()):
        x = mpf_neg(x)
    terms, s = [x], x
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        prev = mpf_abs(terms[-1])
        # the exponent of the ulp of S_k (or of x_k, when S_k is 0)
        e = s[2] + s[3] - prec if s[1] else prev[2] + prev[3] - prec
        kind = draw(st.sampled_from(_SUM_STEPS))
        if kind == "tie":
            man, exp = 2 * draw(st.integers(min_value=0, max_value=7)) + 1, e - 1
        elif kind == "carry" and s[1] and not s[0]:
            # S_k + x reaches 2^(e + prec), give or take three quarter ulps
            man = (1 << prec + 2) - (s[1] << prec - s[3] + 2)
            man, exp = man + draw(st.integers(min_value=-3, max_value=3)), e - 2
        elif kind == "at_ulp":
            man = draw(st.integers(min_value=1, max_value=255))
            exp = e + draw(st.integers(min_value=0, max_value=prec))
        else:
            man = draw(mantissa)
            below = 101 if kind == "far_below" else 0
            exp = e - below - man.bit_length() - draw(st.integers(min_value=0, max_value=prec))
        y = from_man_exp(man, exp, prec, round_nearest)
        if not mpf_lt(y, prev):  # below x_k instead, one to four binades down
            man = draw(mantissa)
            top = prev[2] + prev[3] - draw(st.integers(min_value=1, max_value=4))
            y = from_man_exp(man, top - man.bit_length())
        if signed and draw(st.booleans()):
            y = mpf_neg(y)
        terms.append(y)
        s = mpf_add(s, y, prec, round_nearest)
    return prec, mode, draw(st.sampled_from([1, 2, 3])), terms


@settings(max_examples=400, deadline=None)
@given(_orbit_terms())
def test_orbit_sum_is_the_mpf_add_fold(drawn):
    # S_n is the left fold of mpf_add over x_0..x_n at the working
    # precision, bit for bit, at every row the orbit emits and at its end
    prec, mode, thin, terms = drawn
    ctx = mpmath.mp.clone()
    ctx.prec = prec
    given_terms = iter(terms[1:])
    table = SimpleNamespace(ctx=ctx, precision=prec, compiled=lambda x: next(given_terms))
    rows = {}
    orbit = iterate(table, ctx.make_mpf(terms[0]), max_n=len(terms) - 1,
                    floor=ctx.make_mpf(from_man_exp(1, -10**6)), mode=mode,
                    thin=thin, rows=lambda n, x, s: rows.setdefault(n, s._mpf_))
    assert orbit.status.kind == MAX_ITERATIONS
    last = len(terms) - 1
    assert sorted(rows) == sorted({*range(0, last + 1, thin), last})
    s = terms[0]
    for n, x in enumerate(terms):
        if n:
            s = mpf_add(s, x, prec, round_nearest)
        assert rows.get(n, s) == s
    assert orbit.s_n._mpf_ == s
    # the stored orbit keeps the raw x_n and the same S_N
    given_terms = iter(terms[1:])
    stored = iterate(table, ctx.make_mpf(terms[0]), max_n=len(terms) - 1,
                     floor=ctx.make_mpf(from_man_exp(1, -10**6)), mode=mode)
    assert (stored.terms, stored.s_n._mpf_) == (terms, s)


def test_grid_spec_points():
    ctx = context(64)
    points = GridSpec(start="1e-2", floor="1e-25").points(ctx)
    assert len(points) == 93
    assert points[0] == ctx.mpf("1e-2")
    assert all(a > b for a, b in zip(points, points[1:]))
    ratios = {mpmath.nstr(b / a, 8) for a, b in zip(points, points[1:])}
    assert len(ratios) == 1  # geometric
    assert points[-1] >= ctx.mpf("1e-25")
    with pytest.raises(ValueError):
        GridSpec(start="1e-30", floor="1e-2").points(ctx)
    with pytest.raises(ValueError):
        GridSpec(start="1", floor="0").points(ctx)
