import io
import tracemalloc

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import finf, fnan, fninf, from_man_exp, fzero, mpf_lt

from recurseries.estimate import fit_power_law, sum_estimate
from recurseries.expr import context, evaluator, parse
from recurseries.grids import GridSpec, Samples, seed_grid
from recurseries.orbit import (
    CsvRows,
    HYPOTHESIS_VIOLATION,
    HypothesisReport,
    MAX_ITERATIONS,
    Mode,
    REACHED_FLOOR,
    UNDERFLOW,
    _below,
    _decays,
    iterate,
    validate_hypotheses,
    validated_region,
    write_csv,
)

CTX = context(64)


def test_geometric_orbit_exact():
    orbit = iterate(Samples(parse("x/2")), 1)
    # 2^-n drops below 1e-40 at n = 133
    assert orbit.status.kind == REACHED_FLOOR
    assert orbit.status.step == 133
    assert orbit.last_index == 133
    for n in (0, 1, 7, 133):
        assert orbit.terms[n] == CTX.power(2, -n)
    # S_N = 2 - 2^-N exactly for dyadic arithmetic
    assert orbit.partial_sums[-1] == 2 - CTX.power(2, -133)


def test_harmonic_orbit_closed_form():
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=1000)
    assert orbit.status.kind == MAX_ITERATIONS
    worst = max(
        abs(term - CTX.mpf(1) / (n + 1))
        for n, term in enumerate(orbit.terms)
    )
    assert worst < CTX.mpf("1e-70")
    # S_N is the harmonic number H_{N+1}
    assert abs(orbit.partial_sums[-1] - CTX.harmonic(1001)) < CTX.mpf("1e-68")


@settings(max_examples=25, deadline=None)
@given(
    c=st.floats(min_value=0.05, max_value=0.95),
    x0=st.floats(min_value=0.01, max_value=1.0),
)
def test_linear_orbit_matches_closed_form(c, x0):
    ctx = context(64)
    cm, x0m = ctx.mpf(repr(c)), ctx.mpf(repr(x0))
    orbit = iterate(Samples(parse(f"({c!r}) * x")), x0m, max_n=200, floor="1e-35")
    for n, term in enumerate(orbit.terms):
        want = x0m * ctx.power(cm, n)
        assert abs(term - want) <= abs(want) * ctx.mpf("1e-69")


def test_alternating_orbit():
    orbit = iterate(Samples(parse("-x/2")), 1, mode=Mode.SIGNED)
    assert orbit.status.kind == REACHED_FLOOR
    signs = [mpmath.sign(t) for t in orbit.terms]
    assert all(a * b < 0 for a, b in zip(signs, signs[1:]))
    assert abs(orbit.partial_sums[-1] - CTX.mpf(2) / 3) < CTX.mpf("1e-40")


def test_violation_stops_orbit():
    orbit = iterate(Samples(parse("2*x")), 1)
    assert orbit.status.kind == HYPOTHESIS_VIOLATION
    assert orbit.status.step == 1
    assert orbit.terms == [CTX.mpf(1)]  # offending value never recorded

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
    assert orbit.terms == [CTX.mpf("1e-50")]


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


@pytest.mark.parametrize("text,x0,mode", [
    ("x/(1+x)", "0.5", Mode.POSITIVE),
    ("sin(x)", "1", Mode.POSITIVE),
    ("-sin(x)", "1", Mode.SIGNED),
    ("-x/2", "1", Mode.SIGNED),  # the corpus's alternating entry, to the floor
])
def test_iterate_is_the_plain_mpf_recurrence(text, x0, mode):
    orbit = iterate(Samples(parse(text)), x0, max_n=2000, mode=mode)
    fn = evaluator(parse(text), CTX)
    x = s = CTX.convert(x0)
    terms, sums = [x], [s]
    for _ in range(orbit.last_index):
        x = fn(x)
        s = s + x
        terms.append(x)
        sums.append(s)
    assert orbit.last_index == (133 if text == "-x/2" else 2000)
    assert [t._mpf_ for t in orbit.terms] == [t._mpf_ for t in terms]
    assert [t._mpf_ for t in orbit.partial_sums] == [t._mpf_ for t in sums]
    assert all(type(t) is type(orbit.x0) for t in orbit.terms + orbit.partial_sums)


@pytest.mark.parametrize("text,mode,kind,step,detail", [
    ("2*x", Mode.POSITIVE, HYPOTHESIS_VIOLATION, 1,
     "f(x) = 2.0 breaks the decay bound at x = 1.0"),
    ("x - 0.3", Mode.POSITIVE, HYPOTHESIS_VIOLATION, 4,
     "f(x) = -0.2 breaks the decay bound at x = 0.1"),
    ("x - 0.3", Mode.SIGNED, HYPOTHESIS_VIOLATION, 4,
     "f(x) = -0.2 breaks the decay bound at x = 0.1"),
    ("sqrt(x - 0.2)", Mode.POSITIVE, HYPOTHESIS_VIOLATION, 461,
     "f(x) = 0.72360679775 breaks the decay bound at x = 0.72360679775"),
    ("x - 0.25", Mode.POSITIVE, UNDERFLOW, 4, "f returned exactly 0"),
    ("sqrt(x - 0.3)", Mode.POSITIVE, HYPOTHESIS_VIOLATION, 10,
     "square root of a negative value in 'sqrt(x - 0.3)' at x = 0.27876411061"),
])
def test_iterate_status_details(text, mode, kind, step, detail):
    orbit = iterate(Samples(parse(text)), 1, mode=mode)
    assert (orbit.status.kind, orbit.status.step, orbit.status.detail) == (kind, step, detail)
    assert orbit.last_index == step - 1


def _csv_by_definition(orbit, thin):
    """Rows n with n % thin == 0, and the last row, from every index."""
    lines = ["n,x_n,S_n"]
    for n, (x, s) in enumerate(zip(orbit.terms, orbit.partial_sums)):
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
    assert kept_rows == [(n, full.terms[n]._mpf_, full.partial_sums[n]._mpf_) for n in kept]
    assert (orbit.terms[-1]._mpf_, orbit.partial_sums[-1]._mpf_) == kept_rows[-1][1:]
    want, got = io.StringIO(), io.StringIO()
    rows = CsvRows(got, 64)
    iterate(Samples(parse(text)), 1, max_n=max_n, mode=mode, thin=thin, rows=rows)
    assert rows.count == write_csv(full, want, thin=thin)
    assert got.getvalue() == want.getvalue()


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
    assert [t._mpf_ for t in orbit.terms] == [stored.terms[-1]._mpf_]
    assert [s._mpf_ for s in orbit.partial_sums] == [stored.partial_sums[-1]._mpf_]
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
    assert _below(a, b) == mpf_lt(a, b)
    assert _below(b, a) == mpf_lt(b, a)
    assert _decays(a, b) == (mpf_lt(fzero, a) and mpf_lt(a, b))


_NOT_POSITIVE = [fzero, finf, fnan, fninf, from_man_exp(-1, 0), from_man_exp(-3, -70)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_NOT_POSITIVE), _MANTISSAS, _EXPONENTS)
def test_decay_test_stops_where_mpf_lt_stops(value, man, exp):
    bound = from_man_exp(man, exp)
    assert _decays(value, bound) == (mpf_lt(fzero, value) and mpf_lt(value, bound))
    assert not _decays(value, bound)
    # a negative bound, the seed of a negative orbit in positive mode
    assert not _decays(bound, from_man_exp(-man, exp))


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
