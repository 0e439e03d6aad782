"""The exact germ of f at 0 and the verdicts it decides without samples."""

import io
import json
import os
import re
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import recurseries.classify
from recurseries.classify import (
    DERIVATIVE_MARGIN,
    DIVERGENT,
    CONVERGENT,
    DERIVATIVE_RULE,
    LIMIT_EXPONENT_RULE,
    VALUE,
    PrecisionGuardError,
    SNAP_TOLERANCE,
    analyze,
    estimate_derivative_at_zero,
    search_exponent,
)
from recurseries.cli import _build_parser, cmd_analyze, config_from_args
from recurseries.expr import (
    BinOp, Call, Const, EvalDomainError, FunctionDef, Neg, Number, Var, context, evaluator, parse,
    parse_constant, taylor_polynomial,
)
from recurseries.germ import Interval, expand
from recurseries.grids import Samples
from recurseries.orbit import validate_hypotheses, validated_region

from corpus import ALL
from test_classify import advised_precision

CTX = context(64)
HERE = os.path.dirname(__file__)


def run(argv):
    args = _build_parser().parse_args(argv)
    out = io.StringIO()
    code = cmd_analyze(config_from_args(args), out)
    return code, out.getvalue()


def target(entry):
    if entry.taylor is None:
        return parse(entry.function)
    return taylor_polynomial([parse_constant(c, CTX) for c in entry.taylor.split(",")], CTX)


def deviation(germ):
    """(a, c) of a germ x - c*x^(1+a) + ..."""
    assert germ.terms[0] == (1, 1)
    e, d = germ.terms[1]
    return e - 1, -d


# f = x - c*x^(1+a) + ..., read by hand
DEVIATIONS = [
    ("x/(1+x)", 1, 1),
    ("sin(x)", 2, Fraction(1, 6)),
    ("x/(1+x^(1/2))^2", Fraction(1, 2), 2),
    ("x - x^2", 1, 1),
    ("x*exp(-x)", 1, 1),
    ("x-x^5", 4, 1),
    ("ln(1+x)", 1, Fraction(1, 2)),
    # the x^3 terms cancel exactly
    ("x-(sin(x)-x+x^3/6)", 4, Fraction(1, 120)),
    ("sqrt(x^2+x^4)-x^3", 2, Fraction(1, 2)),
    ("abs(x*cos(x))", 2, Fraction(1, 2)),
    ("x/(1+1.5e-1*x)", 1, Fraction(3, 20)),
    ("8^(1/3)*x/(2+x)", 1, Fraction(1, 2)),
]


@pytest.mark.parametrize("text,a,c", DEVIATIONS)
def test_germ_reads_the_deviation_and_the_term_after_it(text, a, c):
    germ = expand(parse(text))
    assert deviation(germ) == (a, c)
    assert germ.order > 1 + 2 * a  # every term up to x^(1+2a) is known


@pytest.mark.parametrize("text", [
    "x/(2 + sin(1/x))", "x - x^2*exp(sin(1/x))", "x - x^2*exp(-1/x)",
    "x^x", "x - x^2*ln(x)", "x*ln(2+x)", "pi*x", "e*x", "x*sin(1)", "x*exp(1)",
    "x - 2^(1/2)*x^2", "x - (-x)^(1/2)", "x - x^(x/x)", "0*x",
    "2^(10^9)*x", "(1+x)^(10^9)", "x - x^(10^9)", "x - x^2*(1+x^(1/1000))^1000", "x*1e-2000",
    "x/2 + 0*sin(2^65536)",
])
def test_germ_refuses_what_it_cannot_read_at_once(text):
    start = time.perf_counter()
    assert expand(parse(text)) is None
    assert time.perf_counter() - start < 1


LEAVES = st.one_of(
    st.just(Var()), st.sampled_from(["0", "1", "2", "0.5", "3", "1e-3", "10"]).map(Number),
    st.sampled_from(["pi", "e"]).map(Const),
)
TREES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.builds(Neg, kids),
    st.builds(Call, st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "abs"]), kids),
    st.builds(BinOp, st.sampled_from(list("+-*/^")), kids, kids),
), max_leaves=8)
DEEP = context(300)


@settings(max_examples=300, deadline=None)
@given(root=TREES)
def test_germ_of_any_expression_is_none_or_its_leading_term(root):
    # the pass never raises and ends at once; where a gap of at least 1/2
    # follows the leading term, that term is f's own at x = 1e-60
    start = time.perf_counter()
    germ = expand(FunctionDef(root, "tree"))
    assert time.perf_counter() - start < 2
    if germ is None:
        return
    (e0, c0), rest = germ.terms[0], germ.terms[1:]
    if (rest[0][0] if rest else germ.order) - e0 < Fraction(1, 2):
        return
    try:  # f at 1e-60, where 300 and 600 digits agree
        fx, ref = (ctx.make_mpf(evaluator(FunctionDef(root, "tree"), ctx)(ctx.mpf("1e-60")._mpf_))
                   for ctx in (context(300), context(600)))
    except EvalDomainError:
        return
    if not ref or abs(fx / ref - 1) > DEEP.mpf("1e-20"):
        return
    x = DEEP.mpf("1e-60")
    power = DEEP.power(x, DEEP.mpf(e0.numerator) / e0.denominator)
    if isinstance(c0, Interval):  # f/x^e0 lies in the interval, up to the next term
        lo, hi = (DEEP.mpf(c.numerator) / c.denominator for c in (c0.lo, c0.hi))
        assert lo - DEEP.mpf("1e-10") <= fx / power <= hi + DEEP.mpf("1e-10")
        return
    lead = DEEP.mpf(c0.numerator) / c0.denominator * power
    assert abs(fx / lead - 1) < DEEP.mpf("1e-10")


def test_germ_of_the_identity_has_no_deviation():
    germ = expand(parse("x*(1+x-x)"))
    assert germ.terms == ((1, 1),) and germ.order == 32


def test_germ_of_a_derivative_below_1_needs_only_its_leading_term():
    assert expand(parse("x/2")).terms[0] == (1, Fraction(1, 2))
    assert expand(parse("0.9*(x/(1+x))")).terms[:2] == ((1, Fraction(9, 10)), (2, Fraction(-9, 10)))


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=60, deadline=None)
@given(coefficients=st.lists(RATIONALS, min_size=1, max_size=8).filter(any))
def test_germ_of_a_rational_polynomial_is_its_coefficients(coefficients):
    want = tuple((Fraction(k), c) for k, c in enumerate(coefficients, 1) if c)
    text = " + ".join(f"({c})*x^{k}" for k, c in enumerate(coefficients, 1))
    germ = expand(parse(text))
    assert germ.terms == tuple(t for t in want if t[0] < germ.order)
    # --taylor reads each coefficient on the working context and carries it
    carried = expand(taylor_polynomial([parse_constant(str(c), CTX) for c in coefficients], CTX))
    assert [e for e, _ in carried.terms] == [e for e, _ in want]
    for (_, got), (_, exact) in zip(carried.terms, want):
        assert abs(got / exact - 1) < Fraction(1, 2 ** CTX.prec)


# lambda = r^2 for rational r, so that lambda^-a = r^-2a is rational for the a here
@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(1, 3), 5])
@pytest.mark.parametrize("text", [t for t, _, _ in DEVIATIONS] + ["x/2", "0.9*(x/(1+x))"])
def test_conjugate_keeps_a_and_scales_c_by_lambda_to_the_minus_a(text, r):
    # g(x) = lam*f(x/lam) has the orbit lam*x_n from lam*x0
    lam = r ** 2
    scaled = f"({lam})*(" + re.sub(r"\bx\b", f"(x/({lam}))", text) + ")"
    germ, conj = expand(parse(text)), expand(parse(scaled))
    if germ.terms[0] != (1, 1):
        assert conj.terms[0] == germ.terms[0]
        return
    a, c = deviation(germ)
    assert (2 * a).denominator == 1
    assert deviation(conj) == (a, c * r ** (-2 * a))


EXPONENTS = st.integers(1, 6).flatmap(lambda q: st.tuples(st.integers(1, 6 * q), st.just(q)))


@settings(max_examples=30, deadline=None)
@given(pq=EXPONENTS, c=st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
def test_analyze_reads_power_law_members_exactly_at_precision_64(pq, c):
    # x/(1+C*x^(p/q))^(q/p) = x - (C*q/p)*x^(1+p/q) + ..., so k = C^(-q/p);
    # where f(x) rounds to x, deep in the grid, validation stops above it
    p, q = pq
    a = Fraction(p, q)
    f = parse(f"x/(1+({c})*x^({a}))^({1 / a})")
    report = analyze(Samples(f, 64, x0=1), max_n=50)
    assert deviation(report.germ) == (a, c / a)
    v = report.verdict
    assert (v.conclusion, v.rule) == (DIVERGENT if a >= 1 else CONVERGENT, LIMIT_EXPONENT_RULE)
    assert v.witnesses["a"] == CTX.mpf(p) / q
    k = CTX.power(CTX.mpf(c.numerator) / c.denominator, -CTX.mpf(q) / p)
    assert abs(v.witnesses["k"] / k - 1) < CTX.mpf("1e-70")


@settings(max_examples=40, deadline=None)
@given(pq=st.integers(1, 8).flatmap(lambda q: st.tuples(st.integers(1, 6 * q), st.just(q))))
def test_validation_never_rejects_x_minus_x_to_the_1_plus_a(pq):
    p, q = pq
    table = Samples(parse(f"x - x^(1+{p}/{q})"), 64, x0="0.5")
    report = analyze(table, max_n=20).hypothesis
    assert report.passed and validated_region(report) == table.x0
    if report.cut is not None:  # the run below it has f(x) == x, nothing above it does
        points = report.checked_grid
        i = points.index(report.cut)
        assert all(table.f(x) == x for x in points[i:])
        assert all(table.f(x) < x for x in points[:i])


@pytest.mark.parametrize("argv,k", [
    (["--f=x-x^5"], "4^(-1/4)"),
    (["--taylor=1,0,0,0,-1"], "4^(-1/4)"),
    (["--f=x-(sin(x)-x+x^3/6)"], "30^(1/4)"),
])
def test_precision_limited_inputs_are_decided_by_their_germ(argv, k):
    code, out = run(["analyze", *argv, "--x0=0.5", "--max-n=2000", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["verdict"], doc["rule"]) == ("divergent", "LimitExponentRule")
    assert doc["witnesses"] == {"a": "4.0", "k": mpmath.nstr(parse_constant(k, CTX), 64)}
    cut = [w for w in doc["warnings"] if w.startswith("f(x) rounds to x")]
    assert cut and "precision limit" in cut[0]


def test_precision_limit_leaves_the_table_as_it_was():
    # the cut is on the report; the table, which a later analysis or a
    # majorant's certificate reads, keeps its whole seed grid
    table = Samples(parse("x-x^5"), 64, x0="0.5")
    seed = table.points(table.seed)
    first, second = analyze(table, max_n=20), analyze(table, max_n=20)
    assert table.points(table.seed) == seed
    cut = first.hypothesis.cut
    assert mpmath.nstr(cut, 12) == "1.0e-19" and second.hypothesis.cut == cut
    assert first.hypothesis.violations == second.hypothesis.violations == []
    assert first.warnings == second.warnings and first.verdict == second.verdict
    assert all(table.f(x) < x for x in seed if x > cut)
    assert all(table.f(x) == x for x in seed if x <= cut)
    # validation alone keeps the flat points as violations: only the germ
    # shows that f < x holds below the cut
    assert [x for x, _ in validate_hypotheses(table).violations] == [x for x in seed if x <= cut]


@pytest.mark.parametrize("text", [
    "x - x^2*exp(-1/x)", "x - x*exp(-1/x)",
    # x - x^(3/2) above 3e-29 and x itself below, where the series diverges:
    # the germ reads x exactly, so the flat points are not a precision limit
    "x - x^(3/2)*(1 + (x-3e-29)/abs(x-3e-29))/2",
])
def test_a_flat_input_without_a_germ_gets_no_verdict_from_the_cut_rows(text):
    code, out = run(["analyze", f"--f={text}", "--x0=0.3", "--max-n=200"])
    assert code == 1 and out.startswith("error: the decay hypothesis fails"), out
    assert "f(x) rounds to x at the working precision" in out and "higher precision" in out


def test_exact_witnesses_from_the_cli():
    def witnesses(text, x0="1"):
        code, out = run(["analyze", f"--f={text}", f"--x0={x0}", "--max-n=200", "--json"])
        assert code == 0
        doc = json.loads(out)
        return doc["witnesses"], doc["derivative"]

    assert witnesses("x/(1+x)") == ({"a": "1.0", "k": "1.0"}, {"kind": "value", "c": "1.0"})
    assert witnesses("sin(x)")[0] == {"a": "2.0", "k": mpmath.nstr(CTX.sqrt(3), 64)}
    assert witnesses("x/(1+x^(1/2))^2")[0] == {"a": "0.5", "k": "1.0"}
    assert witnesses("ln(1+x)", "0.5")[0] == {"a": "1.0", "k": "2.0"}
    assert witnesses("sqrt(x^2+x^4)-x^3", "0.5")[0] == {"a": "2.0", "k": "1.0"}
    assert witnesses("0.9*(x/(1+x))") == ({"c": "0.9"}, {"kind": "value", "c": "0.9"})
    assert witnesses("x^2", "0.5") == ({"c": "0.0"}, {"kind": "value", "c": "0.0"})


# e in (1, 4] with denominator up to 6, and c in (0, 1], so that 0 < f(x) < x
# on (0, 1/2]
ABOVE_X = st.integers(1, 6).flatmap(
    lambda q: st.integers(q + 1, 4 * q).map(lambda p: Fraction(p, q)))


@settings(max_examples=30, deadline=None)
@given(e=ABOVE_X, c=st.integers(1, 9).flatmap(
           lambda q: st.integers(1, q).map(lambda p: Fraction(p, q))),
       cosine=st.booleans())
def test_a_germ_above_x_decides_a_zero_derivative(e, c, cosine):
    # x^e/(1+x) = x^e + ... and c*x^e*cos(x) = c*x^e + ...: f'(0) = 0
    # exactly, which neither the derivative estimate nor the band samples
    text = f"({c})*x^({e})*cos(x)" if cosine else f"x^({e})/(1+x)"
    lead = c if cosine else 1
    power = f"x^{e}" if e.denominator == 1 else f"x^({e})"
    probed = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("estimate_derivative_at_zero", "search_exponent", "probe_limit",
                     "comparison_band"):
            patch.setattr(recurseries.classify, name,
                          lambda *args, name=name: probed.append(name))
        report = analyze(Samples(parse(text), 64, x0="0.5"), max_n=50)
    assert probed == []
    assert report.germ.terms[0] == (e, lead)
    v = report.verdict
    assert (v.conclusion, v.rule, v.witnesses) == (CONVERGENT, DERIVATIVE_RULE, {"c": 0})
    assert (report.derivative.kind, report.derivative.c) == (VALUE, 0)
    assert v.notes == [
        f"exact germ at 0: f(x) = {'' if lead == 1 else f'{lead}*'}{power} + ...",
        "f'(0) = 0 < 1 gives eventual geometric decay",
    ]


# the entries whose point germ decides; the envelopes decide others
DECIDED = [e for e in ALL if e.mode == "positive" and expand(target(e)) is not None
           and expand(target(e)).exact]


def test_the_germ_decides_the_analytic_corpus_entries():
    assert sorted(e.name for e in DECIDED) == sorted([
        "geometric", "harmonic", "sine", "half_exponent", "damped_harmonic",
        "logistic_edge", "taylor_sine", "precision_limited"])


@pytest.mark.parametrize("entry", DECIDED, ids=lambda e: e.name)
def test_a_decided_entry_reads_no_probe(monkeypatch, entry):
    probed = []
    for name in ("estimate_derivative_at_zero", "search_exponent", "probe_limit"):
        monkeypatch.setattr(recurseries.classify, name, lambda *args, name=name: probed.append(name))
    report = analyze(Samples(target(entry), x0=entry.x0), max_n=entry.max_n)
    assert (report.verdict.conclusion, report.verdict.rule) == (entry.verdict, entry.rule)
    assert probed == [] and report.table.probe not in report.table._points


@pytest.mark.parametrize("entry", DECIDED, ids=lambda e: e.name)
def test_sampled_route_agrees_with_the_germ(entry):
    # the search (still callable) reads the exact a within SNAP_TOLERANCE,
    # at the precision its cancellation guard asks for
    germ = expand(target(entry))
    if germ.terms[0] != (1, 1):
        est = estimate_derivative_at_zero(Samples(target(entry)))
        c1 = germ.terms[0][1]
        assert abs(est.c - CTX.mpf(c1.numerator) / c1.denominator) <= CTX.mpf(DERIVATIVE_MARGIN)
        return
    a, _ = deviation(germ)
    try:
        result = search_exponent(Samples(target(entry)))
    except PrecisionGuardError as err:
        result = search_exponent(Samples(target(entry), advised_precision(str(err))))
    assert result.found
    assert abs(result.fit.a / CTX.mpf(a.numerator) * a.denominator - 1) <= CTX.mpf(SNAP_TOLERANCE)


with open(os.path.join(HERE, "refused_reference.json")) as _f:
    REFUSED = json.load(_f)


@pytest.mark.parametrize("want", REFUSED, ids=lambda want: want["argv"][1])
def test_an_entry_the_germ_refuses_prints_what_it_printed_before(want):
    # recorded before the germ existed: the sampled route runs unchanged on
    # -x/2 and on x-x^(3/2)*ln(1/x), which the germ refuses. The entries with
    # a bounded oscillating factor were re-recorded when their envelopes came
    # to decide them: only the witnesses, the derivative and the verdicts of
    # the two the band left open changed
    assert run(want["argv"]) == (want["code"], want["stdout"])
