"""Interval coefficients on the germ of f at 0: the envelopes of a bounded
oscillating factor, and the verdicts they decide without samples."""

import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import recurseries.classify
from recurseries.classify import (
    ABSOLUTE_BOUND_RULE,
    ALTERNATING_RULE,
    CONVERGENT,
    DERIVATIVE_RULE,
    DIVERGENT,
    INCONCLUSIVE,
    MAJORANT_RULE,
    MINORANT_RULE,
    analyze,
    signed_rule,
)
from recurseries.cli import _build_parser, cmd_analyze, config_from_args
from recurseries.expr import context, evaluator, parse
from recurseries.germ import Interval, expand, high, low, reflect
from recurseries.grids import Samples
from recurseries.orbit import Mode, validate_hypotheses

from corpus import ALL

CTX = context(64)
SAMPLED = ("estimate_derivative_at_zero", "comparison_band", "signed_rule", "probe_limit",
           "search_exponent")


def run(argv):
    args = _build_parser().parse_args(argv)
    out = io.StringIO()
    code = cmd_analyze(config_from_args(args), out)
    return code, out.getvalue()


def mpf(q):
    return CTX.mpf(q.numerator) / q.denominator


def analyze_unsampled(text, x0, max_n=50, **kwargs):
    """analyze's report, after checking that no sampled rule ran."""
    probed = []
    with pytest.MonkeyPatch.context() as patch:
        for name in SAMPLED:
            patch.setattr(recurseries.classify, name, lambda *a, name=name: probed.append(name))
        report = analyze(Samples(parse(text), 64, x0=x0), max_n=max_n, **kwargs)
    assert probed == []
    return report


@pytest.mark.parametrize("text,terms", [
    ("x*(1/2 + 1/3*sin(1/x))", [(1, Interval(Fraction(1, 6), Fraction(5, 6)))]),
    ("x*(0.55 + 0.44*sin(1/x))", [(1, Interval(Fraction(11, 100), Fraction(99, 100)))]),
    ("x - x^2*abs(sin(1/x))", [(1, 1), (2, Interval(Fraction(-1), Fraction(0)))]),
    ("x*sin(ln(x))", [(1, Interval(Fraction(-1), Fraction(1)))]),
    ("x*cos(1/x^2)^1 + 0", None),  # a power of an interval
    ("(x*sin(1/x))*sin(1/(x*sin(1/x)))", [(1, Interval(Fraction(-1), Fraction(1)))]),
    ("x/2 + x^2*sin(1/x)", [(1, Fraction(1, 2)), (2, Interval(Fraction(-1), Fraction(1)))]),
    ("x/(2 + sin(1/x))", None),  # a division by an interval
    # atoms of one argument are one atom: sin(u)*cos(u) = sin(2u)/2
    ("x*sin(1/x)*cos(1/x)", [(1, Interval(Fraction(-1, 2), Fraction(1, 2)))]),
    ("cos(1/x)*(x*sin(1/x))", [(1, Interval(Fraction(-1, 2), Fraction(1, 2)))]),
    ("x*sin(1/x)*sin(1/x)", [(1, Interval(Fraction(0), Fraction(1)))]),
    ("x*cos(ln(x))^2", [(1, Interval(Fraction(0), Fraction(1)))]),
    ("x*sin(1/x)*cos(1/x)*cos(1/x)", [(1, Interval(Fraction(-1, 2), Fraction(1, 2)))]),
    ("x*abs(sin(1/x)*cos(1/x))", [(1, Interval(Fraction(0), Fraction(1, 2)))]),
    # another argument, or a factor that is not an atom, stays a product of ranges
    ("x*sin(1/x)*sin(2/x)", [(1, Interval(Fraction(-1), Fraction(1)))]),
    ("x*sin(1/x)*(-cos(1/x))", [(1, Interval(Fraction(-1), Fraction(1)))]),
    ("x*sin(1/x)^3", None),  # any other power of an interval
    ("x*exp(x*sin(1/x))", None),  # exp of an interval
    ("x*cos(pi*x)", None),  # a sampled route reads f'(0) = 1 here
    ("x*sin(1)", None),  # a constant the pass cannot read, as before
])
def test_an_oscillating_factor_is_an_interval(text, terms):
    germ = expand(parse(text))
    if terms is None:
        assert germ is None
        return
    assert list(germ.terms) == terms and not germ.exact


def test_intervals_follow_moores_rules():
    a, b = Interval(Fraction(-1), Fraction(2)), Interval(Fraction(1, 2), Fraction(1))
    assert a + b == Interval(Fraction(-1, 2), Fraction(3))
    assert a * b == Interval(Fraction(-1), Fraction(2)) and a * -b == Interval(Fraction(-2), Fraction(1))
    assert Fraction(3) * a == Interval(Fraction(-3), Fraction(6)) and a * 0 == 0
    assert (low(a), high(a), low(Fraction(5)), high(Fraction(5))) == (-1, 2, 5, 5)


def test_reflect_is_minus_f_of_minus_x():
    f = parse("x*(1/2 + 1/3*sin(1/x)) - x^2")
    g = evaluator(reflect(f), CTX)
    for x in ("0.3", "0.001", "-0.02"):
        want = -CTX.make_mpf(evaluator(f, CTX)((-CTX.mpf(x))._mpf_))
        assert CTX.make_mpf(g(CTX.mpf(x)._mpf_)) == want


ATOMS = ["sin(1/x)", "cos(1/x)", "abs(sin(1/x))", "abs(1/2 + sin(1/x))", "sin(ln(x))",
         "cos(1/x^2)", "1"]
EXPONENTS = st.sampled_from([Fraction(p, q) for q in (1, 2, 3, 4) for p in range(q, 4 * q + 1)])
COEFFICIENTS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
TERMS = st.lists(st.tuples(COEFFICIENTS, EXPONENTS, st.sampled_from(ATOMS),
                           st.sampled_from(ATOMS)), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(terms=TERMS, data=st.data())
def test_the_envelopes_hold_f(terms, data):
    # a sum of c*x^e*atom*atom lies between its envelopes near 0, up to the
    # terms the truncation drops, each at most |c|*x^order for x < 1
    text = " + ".join(f"({c})*x^({e})*{u}*{v}" for c, e, u, v in terms)
    germ = expand(parse(text))
    if germ is None:  # every coefficient cancelled
        return
    f = evaluator(parse(text), CTX)
    for _ in range(5):
        x = CTX.mpf(data.draw(st.integers(1, 10**6))) / 10**9  # in (0, 1e-3]
        fx = CTX.make_mpf(f(x._mpf_))
        slack = x ** mpf(germ.order) * sum(abs(mpf(c)) for c, *_ in terms) + CTX.mpf("1e-50")
        lo, hi = (CTX.fsum(mpf(c) * x ** mpf(e) for e, c in germ.envelope(upper))
                  for upper in (False, True))
        assert lo - slack <= fx <= hi + slack, (text, x)


# products of atoms in which one argument u repeats: a pair of sin(u) and
# cos(u), or a square, in either form, and up to two more atoms of the same
# few arguments
ARGUMENTS = st.sampled_from(["1/x", "1/x^2", "ln(x)", "(1/x + x)"])
PAIRS = st.builds(lambda form, u: form.replace("U", u), st.sampled_from(
    ["sin(U)*cos(U)", "cos(U)*sin(U)", "sin(U)*sin(U)", "cos(U)*cos(U)", "sin(U)^2", "cos(U)^2"]),
    ARGUMENTS)
ATOMS_OF = st.builds(lambda form, u: form.replace("U", u), st.sampled_from(
    ["sin(U)", "cos(U)", "sin(U)^2", "abs(sin(U))"]), ARGUMENTS)
PRODUCTS = st.lists(st.tuples(COEFFICIENTS, EXPONENTS, PAIRS, st.lists(ATOMS_OF, max_size=2)),
                    min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(terms=PRODUCTS, data=st.data())
def test_the_envelopes_of_same_argument_products_hold_f(terms, data):
    # products whose atoms share arguments, read as one atom per pair, lie
    # between their envelopes near 0, up to the dropped terms; evaluated with
    # f's compiled function at random x in (0, 1e-3]
    text = " + ".join("*".join([f"({c})*x^({e})", pair, *atoms]) for c, e, pair, atoms in terms)
    germ = expand(parse(text))
    if germ is None:  # every coefficient cancelled
        return
    f = evaluator(parse(text), CTX)
    for _ in range(5):
        x = CTX.mpf(data.draw(st.integers(1, 10**6))) / 10**9
        fx = CTX.make_mpf(f(x._mpf_))
        slack = x ** mpf(germ.order) * sum(abs(mpf(c)) for c, *_ in terms) + CTX.mpf("1e-50")
        lo, hi = (CTX.fsum(mpf(c) * x ** mpf(e) for e, c in germ.envelope(upper))
                  for upper in (False, True))
        assert lo - slack <= fx <= hi + slack, (text, x)


@settings(max_examples=25, deadline=None)
@given(c=st.sampled_from([Fraction(p, 8) for p in range(1, 8)]),
       b=st.sampled_from([Fraction(p, q) for q in (1, 2, 3, 4) for p in range(1, 3 * q + 1)]))
def test_a_derivative_below_1_under_an_oscillation_is_exact(c, b):
    # c*x + x^(1+b)*sin(1/x) has f'(0) = c, though f is not twice
    # differentiable: 0 < f < x while x^b < min(c, 1 - c)
    x0 = mpf(min(c, 1 - c) / 2) ** (1 / mpf(b))
    report = analyze_unsampled(f"({c})*x + x^(1+{b})*sin(1/x)", x0)
    v = report.verdict
    assert (v.conclusion, v.rule, v.witnesses) == (CONVERGENT, DERIVATIVE_RULE, {"c": mpf(c)})
    assert (report.derivative.kind, report.derivative.c) == ("value", mpf(c))


@settings(max_examples=30, deadline=None)
@given(b=st.sampled_from([Fraction(p, q) for q in (1, 2, 4, 10, 20, 100)
                          for p in range(max(1, q // 2), 2 * q + 1)]),
       alpha=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3)]),
       beta=st.sampled_from([Fraction(1, 4), Fraction(1), Fraction(2)]))
def test_an_abs_sine_deviation_decides_by_its_exponent(b, alpha, beta):
    # both envelopes of x - x^(1+b)*(alpha + beta*|sin(1/x)|) have exponent
    # b: convergent below 1, divergent from 1 on, with the band's old blind
    # zone |b - 1| < 0.09 included
    x0 = min(CTX.mpf("0.3"), mpf(2 * (alpha + beta)) ** (-1 / mpf(b)))
    report = analyze_unsampled(f"x - x^(1+{b})*({alpha} + {beta}*abs(sin(1/x)))", x0)
    v = report.verdict
    if b < 1:
        assert (v.conclusion, v.rule) == (CONVERGENT, MAJORANT_RULE)
        assert v.witnesses["majorant"] == f"powerlaw:a={b},c={b * alpha * Fraction(99, 100)}"
    else:
        assert (v.conclusion, v.rule) == (DIVERGENT, MINORANT_RULE)
        assert v.witnesses["minorant"] == (
            f"powerlaw:a={b},c={b * (alpha + beta) * Fraction(101, 100)}")


def sides(text):
    f = parse(text)
    return expand(f), expand(reflect(f))


ENVELOPED = [e for e in ALL if e.function is not None
             and any(g is not None and not g.exact for g in sides(e.function))]


def test_the_envelopes_decide_the_oscillating_corpus_entries():
    assert sorted(e.name for e in ENVELOPED) == sorted([
        "oscillatory", "wide_band", "signed_oscillatory", "abs_sine_minorant",
        "abs_sine_majorant", "abs_sine_blind", "abs_sine_boundary", "same_argument",
        "unit_bound", "unit_bound_twice"])


@pytest.mark.parametrize("entry", ENVELOPED, ids=lambda e: e.name)
def test_an_enveloped_entry_reads_no_sampled_rule(entry):
    report = analyze_unsampled(entry.function, entry.x0)
    assert (report.verdict.conclusion, report.verdict.rule) == (entry.verdict, entry.rule)
    assert report.verdict.notes[0].startswith("exact envelopes at 0")
    assert report.derivative.samples == []


@pytest.mark.parametrize("entry", ENVELOPED, ids=lambda e: e.name)
def test_the_envelope_verdict_survives_conjugate_scaling(entry):
    # g(x) = lam*f(x/lam) from lam*x0 has the orbit lam*x_n; its envelopes
    # are f's with the deviation's c scaled by lam^(-a), which is rational
    # for every a with a denominator that divides 20 at lam = 2^-20
    lam = "(1/2^20)"
    scaled = f"{lam}*(" + re.sub(r"\bx\b", f"(x/{lam})", entry.function) + ")"
    report = analyze_unsampled(scaled, CTX.mpf(entry.x0) / 2**20)
    assert (report.verdict.conclusion, report.verdict.rule) == (entry.verdict, entry.rule)
    assert report.mode.value == entry.mode


@pytest.mark.parametrize("text,want", [
    ("x*(1/2 + 1/3*sin(1/x))", ["0.1666666666666666666666666666666666666666666666666666666666666667",
                                "0.8333333333333333333333333333333333333333333333333333333333333333"]),
    ("x*sin(1/x)*(1/2)", ["-0.5", "0.5"]),
])
def test_the_derivative_band_is_exact(text, want):
    code, out = run(["analyze", f"--f={text}", "--x0=0.3", "--max-n=50", "--json"])
    assert json.loads(out)["derivative"] == {"kind": "dne", "band": want}
    code, out = run(["analyze", f"--f={text}", "--x0=0.3", "--max-n=50"])
    assert f"f(x)/x lies in the exact band [{want[0]}, {want[1]}] near 0" in out


def test_the_signed_envelope_replaces_a_false_sampled_bound():
    # unit_bound applied twice: the grid's sup of |f(x)|/|x| is 0.987, yet
    # |f(x)/x| reaches 0.99999999999 at x = 0.0155273; its envelope is [-1, 1]*x
    text = "(x*sin(1/x))*sin(1/(x*sin(1/x)))"
    sampled = signed_rule(Samples(parse(text), x0="0.3"))
    assert sampled.rule == ABSOLUTE_BOUND_RULE and sampled.witnesses["c"] < CTX.mpf("0.99")
    g = CTX.mpf("0.0155273")
    assert abs(CTX.make_mpf(evaluator(parse(text), CTX)(g._mpf_)) / g) > CTX.mpf("0.99999")
    report = analyze_unsampled(text, "0.3")
    assert report.verdict.conclusion == INCONCLUSIVE
    assert "the envelopes bound |f(x)|/|x| near 0 by 1, not below 1" in report.verdict.notes[2]


def test_an_undecided_positive_envelope_leaves_the_sampled_route():
    # sin(1/x)*sin(2/x) >= -0.77, so f <= x - 0.23*x^(3/2), but the product
    # of two atoms of different arguments reads [-1, 1], so the envelope
    # x - [0, 2]*x^(3/2) decides nothing; the band reads f itself
    report = analyze(Samples(parse("x - x^(3/2)*(1+sin(1/x)*sin(2/x))"), x0="0.3"),
                     max_n=200)
    assert (report.verdict.rule, report.verdict.witnesses["majorant"]) == (
        MAJORANT_RULE, "powerlaw:a=0.9,c=1.33")
    assert not report.germ.exact and report.derivative.samples


def test_a_same_argument_product_decides_by_its_envelope():
    # sin(1/x)*sin(1/x) is one atom, [0, 1], so the envelope is
    # x - [1/2, 3/2]*x^(3/2) and f <= x - x^(3/2)/2 decides without samples
    report = analyze_unsampled("x - x^(3/2)/2 - x^(3/2)*sin(1/x)*sin(1/x)", "0.3", max_n=200)
    assert (report.verdict.rule, report.verdict.witnesses["majorant"]) == (
        MAJORANT_RULE, "powerlaw:a=1/2,c=99/400")


@pytest.mark.parametrize("text", ["x*sin(1/x)*(1/2)", "x*sin(1/x)*cos(1/x)"])
def test_a_signed_envelope_bound_is_exact(text):
    report = analyze_unsampled(text, "0.3")
    assert (report.verdict.rule, report.verdict.witnesses) == (ABSOLUTE_BOUND_RULE, {"c": CTX.mpf("0.5")})


def test_signed_validation_reports_the_flat_run_on_both_signs():
    table = Samples(parse("-x+x^5"), 64, x0="0.5")
    report = validate_hypotheses(table, Mode.SIGNED)
    points = report.checked_grid
    i = points.index(report.cut)
    assert report.cut > 0 and points[i + 1] == -report.cut
    assert all(abs(table.f(x)) == abs(x) for x in points[i:])
    assert all(abs(table.f(x)) < abs(x) for x in points[:i])


def test_a_signed_precision_limit_is_read_from_both_expansions():
    # |f(x)| rounds to |x| below about 1e-19; both germs show |f| < |x|
    code, out = run(["analyze", "--f=-x+x^5", "--x0=0.5", "--max-n=200", "--json"])
    doc = json.loads(out)
    assert code == 0 and (doc["verdict"], doc["rule"]) == ("convergent", "AlternatingRule")
    assert doc["warnings"] == [
        "|f(x)| rounds to |x| at the working precision from |x| = 1.0e-19 down: a precision"
        " limit, not a failed hypothesis, as f's germ at 0 shows |f(x)| < |x| there"]
    # no germ (exp(-1/x)): the flat points stay violations, and the error
    # asks for a higher precision
    code, out = run(["analyze", "--f=-x + x*abs(x)*exp(-1/abs(x))", "--x0=0.3"])
    assert code == 1 and out.startswith("error: the decay hypothesis fails")
    assert "|f(x)| rounds to |x| at the working precision" in out and "higher precision" in out


@settings(max_examples=40, deadline=None)
@given(c=st.sampled_from(sorted({Fraction(p, q) for q in range(2, 25) for p in range(1, q)})),
       d=COEFFICIENTS, negative=st.booleans())
def test_a_point_slope_in_minus_1_to_0_alternates_by_the_germs(c, d, negative):
    # f = -c*x + d*x^2 has |f(x)|/|x| = |c - d*x| in (c/2, (1 + c)/2) and
    # x*f(x) < 0 on |x| <= min(c, 1 - c)/(2|d| + 2); f'(0) = -c exactly
    x0 = mpf(min(c, 1 - c) / (2 * abs(d) + 2)) * (-1 if negative else 1)
    report = analyze_unsampled(f"-({c})*x + ({d})*x^2", x0, mode="signed")
    v = report.verdict
    assert (v.conclusion, v.rule) == (CONVERGENT, ALTERNATING_RULE)
    assert (report.derivative.kind, report.derivative.c) == ("value", mpf(-c))
    assert v.notes[:2] == [f"exact germ at 0+: f(x) = -{c}*x + ...",
                           f"exact germ at 0+: -f(-x) = -{c}*x + ..."]


def test_abs_over_2_is_bounded_by_a_half_and_has_no_derivative():
    # the sampled route read f'(0) = 0.5, though f(x)/x is -1/2 left of 0
    report = analyze_unsampled("abs(x)/2", "0.3", mode="signed")
    assert (report.verdict.rule, report.verdict.witnesses) == (ABSOLUTE_BOUND_RULE, {"c": CTX.mpf("0.5")})
    d = report.derivative
    assert (d.kind, d.c, d.band) == ("dne", None, (CTX.mpf("-0.5"), CTX.mpf("0.5")))


@pytest.mark.parametrize("text,warnings", [
    ("-x+x^3", []),
    ("-x+x^5", ["|f(x)| rounds to |x| at the working precision from |x| = 1.0e-19 down: a"
                " precision limit, not a failed hypothesis, as f's germ at 0 shows |f(x)| < |x|"
                " there"]),
])
def test_a_slope_of_minus_1_keeps_the_sampled_signed_rule(text, warnings):
    # c = 1: the germs decide nothing, and the sampled signed rule reads the seed grid
    ran = []
    with pytest.MonkeyPatch.context() as patch:
        for name in SAMPLED:
            rule = getattr(recurseries.classify, name)
            patch.setattr(recurseries.classify, name,
                          lambda *a, name=name, rule=rule: ran.append(name) or rule(*a))
        report = analyze(Samples(parse(text), 64, x0="0.5"), max_n=200)
    assert ran == ["estimate_derivative_at_zero", "signed_rule"]
    v = report.verdict
    assert (v.conclusion, v.rule, v.notes, report.warnings) == (
        CONVERGENT, ALTERNATING_RULE, ["terms alternate in sign with decreasing magnitudes"],
        warnings)
    assert report.derivative.samples
