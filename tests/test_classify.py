import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from recurseries.classify import (
    ABSOLUTE_BOUND_RULE,
    ALTERNATING_RULE,
    AnalysisError,
    CONVERGENT,
    DERIVATIVE_MARGIN,
    DERIVATIVE_RULE,
    DIVERGENT,
    DNE,
    DerivativeEstimate,
    INCONCLUSIVE,
    LIMIT_EXPONENT_RULE,
    MAJORANT_RULE,
    MINORANT_RULE,
    MajorantSpec,
    OUT_OF_RANGE,
    PrecisionGuardError,
    REL_TOL,
    VALUE,
    Verdict,
    _classify_tail,
    _germ_rule,
    _snap_rational,
    analyze,
    check_monotone,
    comparison_band,
    derivative_rule,
    detect_mode,
    estimate_derivative_at_zero,
    limit_exponent_rule,
    majorant_rule,
    probe_limit,
    search_exponent,
    signed_rule,
)
from recurseries.estimate import AsymptoticFit
from recurseries.expr import context, parse, parse_constant, taylor_polynomial
from recurseries.germ import expand
from recurseries.grids import GridSpec, Samples
from recurseries.orbit import Mode

from corpus import ALL, DECISIVE

CTX = context(64)
MARGIN = CTX.mpf(DERIVATIVE_MARGIN)

OSCILLATORY = "x*(1/2 + 1/3*sin(1/x))"
# f = x - x^2 + O(x^3), which the germ refuses for the e in its sin(e/x)
REFUSED = "x - x^2 - x^3*sin(e/x)"


def test_verdict_shape_is_enforced():
    with pytest.raises(ValueError):
        Verdict(INCONCLUSIVE, DERIVATIVE_RULE, {}, [])
    with pytest.raises(ValueError):
        Verdict(CONVERGENT, None, {}, [])
    Verdict(INCONCLUSIVE, None, {}, [])  # fine
    Verdict(DIVERGENT, LIMIT_EXPONENT_RULE, {}, [])  # fine


def test_classify_tail_extrapolates_exact_model():
    # v(x) = 1 + 3 * x^2 on a quarter-decade grid: one Richardson step
    # eliminates the x^2 term exactly
    values = [1 + 3 * CTX.power(10, -CTX.mpf(i) / 4) ** 2 for i in range(16)]
    kind, limit = _classify_tail(values, CTX, CTX.mpf(REL_TOL))
    assert kind == "finite"
    assert abs(limit - 1) < CTX.mpf("1e-60")


def test_derivative_estimate_stable_values():
    est = estimate_derivative_at_zero(Samples(parse("x/2")))
    assert est.kind == VALUE
    assert est.c == CTX.mpf("0.5")

    est = estimate_derivative_at_zero(Samples(parse("x/(1+x)")))
    assert est.kind == VALUE
    assert abs(est.c - 1) < CTX.mpf("1e-8")

    est = estimate_derivative_at_zero(Samples(parse("0.9*(x/(1+x))")))
    assert est.kind == VALUE
    assert abs(est.c - CTX.mpf("0.9")) < CTX.mpf("1e-8")


def test_derivative_estimate_band():
    est = estimate_derivative_at_zero(Samples(parse(OSCILLATORY)))
    assert est.kind == DNE
    lo, hi = est.band
    assert abs(lo - CTX.mpf(1) / 6) < CTX.mpf("0.02")
    assert abs(hi - CTX.mpf(5) / 6) < CTX.mpf("0.02")


def test_derivative_estimate_out_of_range():
    est = estimate_derivative_at_zero(Samples(parse("2*x")))
    assert est.kind == OUT_OF_RANGE
    assert est.c == 2

    # a stable negative quotient is out of range in positive mode only
    est = estimate_derivative_at_zero(Samples(parse("-x/2")))
    assert est.kind == OUT_OF_RANGE
    est = estimate_derivative_at_zero(Samples(parse("-x/2")), mode=Mode.SIGNED)
    assert est.kind == VALUE
    assert est.c == CTX.mpf("-0.5")


def synth_estimate(kind, c=None, band=None):
    return DerivativeEstimate(kind, c, band, [])


def test_derivative_rule_branches():
    v = derivative_rule(synth_estimate(VALUE, CTX.mpf("0.5")))
    assert (v.conclusion, v.rule) == (CONVERGENT, DERIVATIVE_RULE)
    assert v.witnesses == {"c": CTX.mpf("0.5")}

    v = derivative_rule(synth_estimate(VALUE, CTX.mpf("1.00005")))
    assert v.conclusion == INCONCLUSIVE
    assert any("route: limit-exponent rule" in n for n in v.notes)

    v = derivative_rule(synth_estimate(DNE, band=(CTX.mpf("0.2"), CTX.mpf("0.8"))))
    assert v.conclusion == INCONCLUSIVE
    assert any("route: majorant comparison" in n for n in v.notes)

    v = derivative_rule(synth_estimate(OUT_OF_RANGE, CTX.mpf(2)))
    assert v.conclusion == INCONCLUSIVE
    assert any("contradicts" in n for n in v.notes)

    v = derivative_rule(synth_estimate(VALUE, CTX.mpf("-0.5")))
    assert v.conclusion == INCONCLUSIVE
    assert any("signed-mode" in n for n in v.notes)


@settings(max_examples=200, deadline=None)
@given(c=st.floats(min_value=-2, max_value=3, allow_nan=False))
def test_derivative_rule_never_divergent(c):
    # this rule can only certify convergence; c >= 1 - margin never decides
    cm = CTX.mpf(repr(c))
    v = derivative_rule(synth_estimate(VALUE, cm))
    assert v.conclusion != DIVERGENT
    if v.conclusion == CONVERGENT:
        assert cm < 1 - MARGIN
        assert cm >= -MARGIN
    else:
        assert v.rule is None


IDENTITY_PAIRS = [(a, c) for a in ("0.25", "0.5", "0.75") for c in ("0.5", "1", "2")]


@pytest.mark.parametrize("a_text,c_text", IDENTITY_PAIRS)
def test_probe_limit_exact_on_family_members(a_text, c_text):
    # f = x/(1+c*x^a)^(1/a) makes the probed quotient identically c
    spec = MajorantSpec.powerlaw(a_text, c_text, CTX) if CTX.mpf(c_text) > 0 else None
    probe = probe_limit(Samples(spec.fn), a_text)
    c = CTX.mpf(c_text)
    assert probe.verdict == "finite_nonzero"
    assert probe.stabilized
    assert abs(probe.L / c - 1) < CTX.mpf("1e-20")
    for _, v in probe.samples:
        assert abs(v / c - 1) < CTX.mpf("1e-30")


def test_probe_limit_verdicts():
    # x/(1+x) probes exactly 1 at the true exponent, up to rounding
    probe = probe_limit(Samples(parse("x/(1+x)")), 1)
    assert probe.verdict == "finite_nonzero"
    assert probe.stabilized
    # the subtraction loses up to 30 digits at the grid bottom (x = 1e-30)
    assert all(abs(v - 1) < CTX.mpf("1e-40") for _, v in probe.samples)
    assert probe_limit(Samples(parse("x/(1+x)")), "0.5").verdict == "tends_to_zero"
    assert probe_limit(Samples(parse("x/(1+x)")), 2).verdict == "tends_to_infinity"
    assert probe_limit(Samples(parse("x/2")), 1).verdict == "tends_to_infinity"


def test_probe_limit_validation():
    with pytest.raises(ValueError):
        probe_limit(Samples(parse("x/(1+x)")), 0)
    with pytest.raises(ValueError):
        probe_limit(Samples(parse("-x/2")), 1)  # not positive on the grid


def advised_precision(message):
    """The precision a cancellation guard's message advises a rerun at."""
    return int(re.search(r"rerun with precision (\d+) or more", message).group(1))


def test_probe_limit_cancellation_guard():
    # x - x^9 leaves x^a and f^a agreeing in far more digits than 64 can spare
    with pytest.raises(PrecisionGuardError, match="rerun with precision") as refused:
        probe_limit(Samples(parse("x - x^9")), 1)
    probe_limit(Samples(parse("x - x^9"), advised_precision(str(refused.value))), 1)


def test_search_exponent_sine():
    result = search_exponent(Samples(parse("sin(x)")))
    assert result.found
    assert abs(result.fit.a - 2) <= CTX.mpf("0.01")
    root3 = CTX.sqrt(3)
    assert abs(result.fit.k / root3 - 1) < CTX.mpf("0.02")


def test_search_exponent_harmonic_boundary():
    result = search_exponent(Samples(parse("x/(1+x)")))
    assert result.found
    assert abs(result.fit.a - 1) < CTX.mpf("1e-6")
    assert abs(result.fit.k - 1) < CTX.mpf("1e-4")
    verdict = limit_exponent_rule(result.fit)
    assert (verdict.conclusion, verdict.rule) == (DIVERGENT, LIMIT_EXPONENT_RULE)
    assert any("boundary" in n for n in verdict.notes)


def test_search_exponent_below_one():
    result = search_exponent(Samples(parse("x/(1+x^(1/2))^2")))
    assert result.found
    assert abs(result.fit.a - CTX.mpf("0.5")) < CTX.mpf("1e-6")
    verdict = limit_exponent_rule(result.fit)
    assert verdict.conclusion == CONVERGENT


def test_search_exponent_not_found():
    # geometric decay beats every power law: quotient blows up everywhere
    result = search_exponent(Samples(parse("x/2")))
    assert not result.found
    assert "blows up at every exponent" in result.note

    result = search_exponent(Samples(parse("0.9*(x/(1+x))")))
    assert not result.found
    assert "blows up at every exponent" in result.note

    # true exponent 5 sits above the scanned range
    shallow = GridSpec(start="1e-1", floor="1e-8")
    result = search_exponent(Samples(parse("x/(1+x^5)^(1/5)"), probe=shallow))
    assert not result.found
    assert "no transition in range" in result.note

    # ln(x/f) wobbles with sin(1/x), so its tail slopes never settle
    result = search_exponent(Samples(parse("x - x^2*abs(sin(1/x))")))
    assert not result.found
    assert result.note == "tail slopes of ln ln(x/f) do not settle"

    result = search_exponent(Samples(parse("2*x")))
    assert not result.found
    assert result.note.startswith("f(x) exceeds x at x = ")


# a = p/q in [1/8, 3] with q <= 8
EXPONENTS = st.integers(1, 8).flatmap(lambda q: st.tuples(st.integers(1, 3 * q), st.just(q)))


@settings(max_examples=40, deadline=None)
@given(pq=EXPONENTS, c_text=st.sampled_from(["1/4", "1", "4"]))
def test_search_reads_power_law_members_exactly(pq, c_text):
    # x/(1+c*x^a)^(1/a) has ln(x/f) = ln(1 + c*x^a)/a, whose log-log slopes
    # tend to a, and L_a identically c, so k = c^(-1/a)
    p, q = pq
    a_text = f"{p}/{q}"
    # ln(x/f) is about c*x^a/a, 25*a digits below 1 at the probe floor 1e-25
    precision = 64 + int(25 * p / q)
    ctx = context(precision)
    f = parse(f"x/(1+({c_text})*x^({a_text}))^(1/({a_text}))")
    result = search_exponent(Samples(f, precision))
    assert result.found
    a = ctx.mpf(p) / q
    assert result.fit.a == a
    k = ctx.power(parse_constant(c_text, ctx), -1 / a)
    assert abs(result.fit.k / k - 1) < ctx.mpf("1e-6")


@pytest.mark.parametrize(
    "a_text, verdict",
    [("1", DIVERGENT), ("0.9998", CONVERGENT), ("1.0008", DIVERGENT)],
)
def test_search_keeps_an_exponent_next_to_a_fraction(a_text, verdict):
    # over the probe tail L_1 spreads by about 4*|a - 1|, so a probe at 1
    # would pass the relaxed tolerance for a = 0.9998; the read must not
    # snap such an a to 1, which would turn a convergent series divergent
    ctx = CTX
    f = parse(f"x/(1+x^({a_text}))^(1/({a_text}))")
    result = search_exponent(Samples(f))
    assert result.found
    a = parse_constant(a_text, ctx)
    assert abs(result.fit.a / a - 1) < ctx.mpf("1e-12")
    assert abs(result.fit.k - 1) < ctx.mpf("1e-12")  # L_a is identically 1
    assert limit_exponent_rule(result.fit).conclusion == verdict


def test_search_reads_only_the_tail():
    # f exceeds x at 0.01 and 0.0056, above the validated region, but the
    # tail where the slopes are read has f'(0) = 1 and a = 1
    table = Samples(parse("x - x^2 + 200*x^3"), x0="0.001")
    assert search_exponent(table).fit.a == 1
    # analyze reads the same a from the germ, and no probe runs above the seed
    result = analyze(table)
    assert (result.verdict.conclusion, result.verdict.rule) == (DIVERGENT, LIMIT_EXPONENT_RULE)
    assert result.verdict.witnesses["a"] == 1 and result.search is None
    assert result.warnings == []


def test_search_refuses_a_tail_without_digits():
    # x/(1+x^3)^(1/3) keeps ln(x/f) near x^3/3, 75 digits down at 1e-25;
    # the advice is a precision that keeps CANCELLATION_HEADROOM of them
    f = parse("x/(1+x^3)^(1/3)")
    with pytest.raises(PrecisionGuardError, match="rerun with precision") as refused:
        search_exponent(Samples(f))
    assert search_exponent(Samples(f, advised_precision(str(refused.value)))).found


CONJUGATES = ["x/(1+x)", "sin(x)", "x/(1+x^(1/2))^2", "x - x^2"]


@pytest.mark.parametrize("lam", ["1/10", "10"])
@pytest.mark.parametrize("fn_text", CONJUGATES)
def test_conjugate_scaling_keeps_the_exponent(fn_text, lam):
    # g(x) = lam*f(x/lam) has the orbit lam*x_n from lam*x0: the same
    # exponent and verdict, and k scaled by lam
    scaled = "(" + lam + ")*(" + re.sub(r"\bx\b", f"(x/({lam}))", fn_text) + ")"
    entry = next(e for e in DECISIVE if e.function == fn_text)
    lam_value = parse_constant(lam, CTX)
    base = analyze(Samples(parse(fn_text), x0=entry.x0), mode="positive", max_n=200)
    conj = analyze(Samples(parse(scaled), x0=lam_value * CTX.mpf(entry.x0)),
                   mode="positive", max_n=200)
    assert conj.verdict.conclusion == base.verdict.conclusion == entry.verdict
    assert conj.verdict.rule == base.verdict.rule == LIMIT_EXPONENT_RULE
    base_w, conj_w = base.verdict.witnesses, conj.verdict.witnesses
    assert conj_w["a"] == base_w["a"]
    assert abs(conj_w["k"] / (lam_value * base_w["k"]) - 1) < CTX.mpf("1e-6")


def synth_fit(a_text):
    return AsymptoticFit(CTX.mpf(a_text), CTX.mpf(1), CTX.mpf("1e-9"), (0, 10))


def test_limit_exponent_rule_branches():
    v = limit_exponent_rule(synth_fit("1.5"))
    assert (v.conclusion, v.rule) == (DIVERGENT, LIMIT_EXPONENT_RULE)
    assert set(v.witnesses) == {"a", "k"}

    v = limit_exponent_rule(synth_fit("0.5"))
    assert v.conclusion == CONVERGENT

    v = limit_exponent_rule(synth_fit("1.00005"))
    assert v.conclusion == DIVERGENT
    assert any("boundary" in n for n in v.notes)


def taylor(*coefficients, precision=64):
    """The coefficients as the polynomial f read at the precision carries them."""
    return taylor_polynomial(coefficients, context(precision)).coefficients


def test_taylor_germ_is_its_coefficients():
    # x - x^2 and x - x^3/6, as the polynomial carries them
    germ = expand(taylor_polynomial(taylor(1, -1), CTX))
    assert germ.terms == ((1, 1), (2, -1))
    v = analyze(Samples(taylor_polynomial(taylor(1, -1), CTX), x0="0.5"), max_n=200).verdict
    assert (v.conclusion, v.rule) == (DIVERGENT, LIMIT_EXPONENT_RULE)
    assert (v.witnesses["a"], v.witnesses["k"]) == (1, 1)

    coeffs = tuple(parse_constant(t, CTX) for t in ("1", "0", "-1/6"))
    (e1, c1), (e3, c3) = expand(taylor_polynomial(coeffs, CTX)).terms
    assert (e1, c1, e3) == (1, 1, 3)
    assert abs(c3 + Fraction(1, 6)) < Fraction(1, 10**70)

    # a1 = 1/2 is the derivative rule; f > x near 0 and the identity decide nothing
    _, v = _germ_rule(expand(taylor_polynomial(taylor("0.5", "-1"), CTX)), CTX)
    assert (v.rule, v.witnesses["c"]) == (DERIVATIVE_RULE, CTX.mpf("0.5"))
    for coefficients in ((1, 1), (1,), (1, 0, 0)):
        assert _germ_rule(expand(taylor_polynomial(taylor(*coefficients), CTX)), CTX) is None


def test_taylor_germ_reads_the_coefficients_at_the_working_precision():
    # a1 = 1 + 1e-80 is 1 at the default precision, so a3 = -0.1 gives
    # the exponent 2, and above 1 at precision 100, where no rule of the
    # germ applies and the sampled route runs
    near_one = ("1." + "0" * 79 + "1", "0", "-0.1")
    v = analyze(Samples(taylor_polynomial(taylor(*near_one), CTX), x0="0.5"), max_n=200).verdict
    assert (v.rule, v.witnesses["a"]) == (LIMIT_EXPONENT_RULE, 2)
    f = taylor_polynomial(taylor(*near_one, precision=100), context(100))
    (_, c1), *_ = expand(f).terms
    assert c1 > 1
    report = analyze(Samples(f, 100, x0="0.5"), max_n=200)
    assert report.derivative.samples and report.derivative.c != c1


def test_check_monotone():
    monotone, delta = check_monotone(Samples(parse("x/2")))
    assert monotone
    assert delta == 1

    monotone, delta = check_monotone(Samples(parse(OSCILLATORY)))
    assert not monotone
    assert delta < CTX.mpf("1e-6")  # no useful certified region

    # x - x^2 increases only below 1/2: the grid from the seed 0.3 lies
    # below it, the one from 1 does not
    monotone, _ = check_monotone(Samples(parse("x - x^2"), x0="0.3"))
    assert monotone
    monotone, _ = check_monotone(Samples(parse("x - x^2")))
    assert not monotone

    # a table whose seed grid holds one point: no lattice point lies in
    # [0.29, 0.3]
    table = Samples(parse("x/2"), x0="0.3")
    table.seed = GridSpec("0.3", "0.29")
    with pytest.raises(ValueError, match="fewer than two points"):
        check_monotone(table)


def test_majorant_rule_oscillatory():
    g = parse(OSCILLATORY)
    m = MajorantSpec.linear("5/6", CTX)
    v = majorant_rule(Samples(g), m)
    assert (v.conclusion, v.rule) == (CONVERGENT, MAJORANT_RULE)
    assert v.witnesses["majorant"] == "linear:5/6"
    assert v.witnesses["delta"] == 1  # the grid's top without a seed
    # the sampled sup of g(x)/x sits just below 5/6
    assert 0 < CTX.mpf(5) / 6 - v.witnesses["bound"] < CTX.mpf("1e-3")

    # 0.8 < 5/6 cannot dominate; the witness point is reported
    v = majorant_rule(Samples(g), MajorantSpec.linear("0.8", CTX))
    assert v.conclusion == INCONCLUSIVE
    assert "domination fails at x = 0.56234132519" in v.notes[0]


def test_majorant_rule_equality_is_allowed():
    v = majorant_rule(Samples(parse("x/2")), MajorantSpec.linear("0.5", CTX))
    assert v.conclusion == CONVERGENT
    assert v.witnesses["bound"] == CTX.mpf("0.5")


def test_majorant_rule_positive_margin():
    v = majorant_rule(Samples(parse("x/3")), MajorantSpec.linear("0.5", CTX))
    assert v.conclusion == CONVERGENT
    assert v.witnesses["bound"] < CTX.mpf("0.5")


def test_majorant_rule_powerlaw_cannot_cover_slower_decay():
    # near zero f/x -> 1, so every strict linear contraction fails
    g = parse("x/(1+x^(1/2))^2")
    v = majorant_rule(Samples(g), MajorantSpec.linear("0.9", CTX))
    assert v.conclusion == INCONCLUSIVE
    assert "domination fails" in v.notes[0]

    # a powerlaw family member dominates it (itself, slightly lifted)
    m = MajorantSpec.powerlaw("0.5", "0.5", CTX)
    v = majorant_rule(Samples(g), m)
    assert v.conclusion == CONVERGENT
    assert v.witnesses["majorant"] == "powerlaw:a=0.5,c=0.5"


def test_majorant_rule_rejects_faster_decay_claim():
    # m = powerlaw decays like a power, g = x/2 geometrically: m < g near 1
    v = majorant_rule(Samples(parse("x/2")), MajorantSpec.powerlaw("0.5", "1", CTX))
    assert v.conclusion == INCONCLUSIVE
    assert "domination fails at x = 1.0" in v.notes[0]


def test_majorant_rule_user_certification():
    g = parse(OSCILLATORY)
    m = MajorantSpec.user(parse("5/6 * x"))
    v = majorant_rule(Samples(g, x0="0.3"), m)
    assert v.conclusion == INCONCLUSIVE
    assert any("certificate" in n for n in v.notes)
    # the monotonicity scan rides along in the witnesses of every verdict;
    # the grid runs down from the seed
    assert v.witnesses == {"monotone": True, "delta": CTX.mpf("0.3")}

    v = majorant_rule(Samples(g, x0="0.3"), m, certificate=analyze(Samples(m.fn, x0="0.3")))
    assert v.conclusion == CONVERGENT
    assert any("user majorant monotone" in n for n in v.notes)

    # an analysis that does not converge certifies nothing
    m = MajorantSpec.user(parse("x/(1+x)"))
    v = majorant_rule(Samples(g, x0="0.3"), m, certificate=analyze(Samples(m.fn, x0="0.3")))
    assert v.conclusion == INCONCLUSIVE
    assert any("certificate" in n for n in v.notes)


def test_majorant_rule_evaluation_failure():
    # ln(1) = 0 turns the first comparison point into a division by zero
    v = majorant_rule(Samples(parse("x / ln(x)")), MajorantSpec.linear("0.5", CTX))
    assert v.conclusion == INCONCLUSIVE
    assert any("evaluation failed" in n for n in v.notes)


def test_snap_rational():
    assert _snap_rational(CTX.mpf("0.83164396"), CTX) == (5, 6)
    assert _snap_rational(CTX.mpf("0.45"), CTX) == (1, 2)
    assert _snap_rational(CTX.mpf("0.99"), CTX) is None


def test_signed_rule_outcomes():
    v = signed_rule(Samples(parse("-x/2")))
    assert (v.conclusion, v.rule) == (CONVERGENT, ALTERNATING_RULE)
    assert "sign_pattern" in v.witnesses

    v = signed_rule(Samples(parse("x*sin(1/x)*(1/2)")))
    assert (v.conclusion, v.rule) == (CONVERGENT, ABSOLUTE_BOUND_RULE)
    assert abs(v.witnesses["c"] - CTX.mpf("0.5")) < CTX.mpf("0.01")

    v = signed_rule(Samples(parse("x*sin(1/x)")))
    assert v.conclusion == INCONCLUSIVE
    assert any("sup" in n for n in v.notes)


def test_detect_mode():
    assert detect_mode(Samples(parse("sin(x)"))) is Mode.POSITIVE
    assert detect_mode(Samples(parse("-x/2"))) is Mode.SIGNED
    # a negative seed: f stays positive on the positive magnitudes sampled
    assert detect_mode(Samples(parse("x/2"), x0=-1)) is Mode.SIGNED
    # evaluation errors at some points do not flip the mode
    assert detect_mode(Samples(parse("ln(x - 1)"))) is Mode.POSITIVE


def corpus_target(entry):
    if entry.taylor is not None:
        parts = entry.taylor.split(",")
        return taylor_polynomial([parse_constant(p, CTX) for p in parts], CTX)
    return parse(entry.function)


@pytest.mark.parametrize("entry", ALL, ids=lambda e: e.name)
def test_analyze_corpus(entry):
    report = analyze(Samples(corpus_target(entry), x0=entry.x0), max_n=entry.max_n)
    assert report.verdict.conclusion == entry.verdict
    assert report.verdict.rule == entry.rule
    assert report.mode.value == entry.mode


def test_analyze_geometric_report_details():
    report = analyze(Samples(parse("x/2"), x0=1))
    assert report.verdict.witnesses["c"] == CTX.mpf("0.5")
    assert report.orbit_result.status.kind == "reached_floor"
    assert report.sum is not None
    assert abs(report.sum.total - 2) < CTX.mpf("1e-12")
    assert report.fit is None  # orbit too short for a power-law window


def test_analyze_oscillatory_uses_snapped_majorant():
    # the envelope 5/6*x is the majorant that the sampled route snaps to: the
    # derivative rule routes to the band, whose sup f(x)/x snaps to 5/6
    report = analyze(Samples(parse(OSCILLATORY), x0="0.3"))
    assert report.verdict.rule == MAJORANT_RULE
    assert report.verdict.witnesses["majorant"] == "linear:5/6"
    table = Samples(parse(OSCILLATORY), x0="0.3")
    routed = derivative_rule(estimate_derivative_at_zero(table))
    assert any("route: majorant comparison" in n for n in routed.notes)
    assert comparison_band(table).witnesses["majorant"] == "linear:5/6"


def test_analyze_routing_notes_are_preserved():
    # sin(1/x) has no germ at 0: the sampled route reads a = 1
    report = analyze(Samples(parse(REFUSED), x0="0.5"), max_n=2000)
    assert report.germ is None
    assert report.verdict.conclusion == DIVERGENT
    assert any("route: limit-exponent rule" in n for n in report.verdict.notes)
    assert report.search is not None and report.search.found
    # the germ of x/(1+x) decides with no probe
    report = analyze(Samples(parse("x/(1+x)"), x0=1), max_n=2000)
    assert report.verdict.notes == ["exact germ at 0: f(x) = x - x^2 + ...",
                                    "terms decay like k*n^(-1/a) with a = 1 >= 1"]
    assert report.search is None and report.derivative.samples == []


def test_analyze_error_paths():
    with pytest.raises(AnalysisError, match="nonzero"):
        analyze(Samples(parse("x/2"), x0=0))
    # f(2) < 0 would auto-detect signed mode, where every scale fails;
    # in positive mode the seed simply lies outside the validated region
    with pytest.raises(AnalysisError, match="outside the validated region"):
        analyze(Samples(parse("x - x^2"), x0=2), mode="positive")
    with pytest.raises(AnalysisError, match="every sampled scale"):
        analyze(Samples(parse("x - x^2"), x0=2))
    with pytest.raises(AnalysisError, match="every sampled scale"):
        analyze(Samples(parse("2*x"), x0=1))
    # positive mode needs a positive seed; auto mode reads a negative seed
    # as signed, where x/(1+x) breaks |f(x)| < |x|
    with pytest.raises(AnalysisError, match="must be positive"):
        analyze(Samples(parse("x/(1+x)"), x0=-1), mode="positive")
    with pytest.raises(AnalysisError, match="every sampled scale"):
        analyze(Samples(parse("x/(1+x)"), x0=-1))
    with pytest.raises(AnalysisError, match="must be positive"):
        analyze(Samples(parse("-x/2"), x0="-0.5"), mode="positive")


@pytest.mark.parametrize("mode", ["auto", "positive"])
def test_analyze_never_samples_above_the_seed(mode):
    # f < 0 only above x = 4 (x = 1/2): a grid reaching past the seed would
    # detect signed mode, or shrink the validated region below the seed
    for fn_text, x0 in (("x - x^2/4", "3.9"), ("x - 2*x^2", "0.3")):
        report = analyze(Samples(parse(fn_text), x0=x0), mode=mode, max_n=2000)
        assert report.mode is Mode.POSITIVE
        assert max(report.hypothesis.checked_grid) == report.table.x0
        assert report.hypothesis.passed
        assert (report.verdict.conclusion, report.verdict.rule) == (
            DIVERGENT, LIMIT_EXPONENT_RULE,
        )


def test_analyze_warnings():
    # f(1) = 0 breaks the hypothesis above the seed, where nothing is sampled
    report = analyze(Samples(parse("x - x^2"), x0="0.5"), max_n=2000)
    assert report.warnings == []
    # a seed below the probe grid's start leaves the probes outside (0, x0];
    # the germ of x/(1+x) reads no probe
    report = analyze(Samples(parse(REFUSED), x0="0.005"), max_n=200)
    assert any("smaller than the probe grid start" in w for w in report.warnings)
    report = analyze(Samples(parse("x/(1+x)"), x0="0.005"), max_n=200)
    assert not any("probe grid" in w for w in report.warnings)

    # geometric decay never fits a power law; the pipeline says so
    report = analyze(Samples(parse("0.9*(x/(1+x))"), x0=1), max_n=2000)
    assert report.verdict.conclusion == CONVERGENT
    assert any(w.startswith("empirical fit: no power law") for w in report.warnings)


def test_analyze_inconclusive_has_reasons():
    # the germ refuses the e in sin(e/x), so the band runs, as it did on
    # abs_sine_blind before its envelopes decided it
    report = analyze(Samples(parse("x - x^(1.95)*(1+abs(sin(e/x)))/2"), x0="0.3"),
                     max_n=2000)
    assert report.verdict.conclusion == INCONCLUSIVE
    assert report.verdict.rule is None
    notes = report.verdict.notes
    assert any("comparison band on (0, 0.3]: no side counts" in n for n in notes)
    # each side of the band says why it does not count
    assert any("minima of L_0.9 trend toward 0" in n for n in notes)
    assert any("maxima of L_1.1 trend toward infinity" in n for n in notes)


@pytest.mark.parametrize("fn_text", ["sin(x)", "x/(1+x)", "x/(1+x^(1/2))^2"])
def test_search_success_implies_unit_derivative(fn_text):
    # a finite quotient limit at some exponent forces f'(0) = 1
    f = parse(fn_text)
    result = search_exponent(Samples(f))
    assert result.found
    est = estimate_derivative_at_zero(Samples(f))
    assert est.kind == VALUE
    assert abs(est.c - 1) <= MARGIN


def test_majorant_verdict_implies_orbit_domination():
    # the comparison argument must hold on the actual computed orbits
    from recurseries.orbit import iterate

    report = analyze(Samples(parse(OSCILLATORY), x0="0.3"))
    assert report.verdict.rule == MAJORANT_RULE
    g_orbit = iterate(Samples(parse(OSCILLATORY)), "0.3")
    m_orbit = iterate(Samples(parse("5/6 * x")), "0.3")
    common = min(g_orbit.last_index, m_orbit.last_index)
    assert common > 100
    for n in range(common + 1):
        assert CTX.make_mpf(m_orbit.terms[n]) >= CTX.make_mpf(g_orbit.terms[n])


def test_alternating_verdict_implies_alternating_orbit():
    report = analyze(Samples(parse("-x/2"), x0=1))
    assert report.verdict.rule == ALTERNATING_RULE
    terms = [CTX.make_mpf(t) for t in report.orbit_result.terms]
    assert all(a * b < 0 for a, b in zip(terms, terms[1:]))


def band_verdict(fn_text, x0):
    v = comparison_band(Samples(parse(fn_text), x0=x0))
    return v.conclusion, v.rule


# the band's own verdicts, which analyze reads from the envelopes instead:
# abs_sine_blind's exponent 0.95 is too close to 1 for its trend guard
BAND_ENTRIES = {
    "oscillatory": (CONVERGENT, MAJORANT_RULE),
    "wide_band": (CONVERGENT, MAJORANT_RULE),
    "abs_sine_minorant": (DIVERGENT, MINORANT_RULE),
    "abs_sine_majorant": (CONVERGENT, MAJORANT_RULE),
    "abs_sine_blind": (INCONCLUSIVE, None),
}


@pytest.mark.parametrize("name", BAND_ENTRIES)
def test_band_verdict_survives_conjugate_scaling(name):
    # g(x) = f(x/lam)*lam from lam*x0 has the orbit lam*x_n: f(x)/x and the
    # trends of L_a are the same on a grid one decade shorter
    entry = next(e for e in ALL if e.name == name)
    scaled = "(1/10)*(" + re.sub(r"\bx\b", "(x/(1/10))", entry.function) + ")"
    x0 = CTX.mpf(entry.x0) / 10
    assert band_verdict(scaled, x0) == band_verdict(entry.function, entry.x0) == BAND_ENTRIES[name]


@settings(max_examples=40, deadline=None)
@given(
    b=st.floats(min_value=0.5, max_value=2),
    c=st.sampled_from(["1/4", "1", "4"]),
    eps=st.sampled_from([None, "0", "1/4", "1/2"]),
)
def test_band_never_contradicts_the_decay_exponent(b, c, eps):
    # both families decay with exponent b: L_b tends to c (times the
    # oscillating factor), so their series converge exactly when b < 1
    if eps is None:
        fn_text, x0 = f"x/(1+({c})*x^({b!r}))^(1/({b!r}))", CTX.mpf("0.3")
    else:
        fn_text = f"x - ({c})*x^(1+{b!r})*(1+({eps})*sin(1/x))"
        # c*x^b*(1 + eps) <= 1/2 keeps 0 < f(x) < x on (0, x0]
        x0 = min(CTX.mpf("0.3"), (3 * parse_constant(c, CTX)) ** (-1 / CTX.mpf(b)))
    conclusion, rule = band_verdict(fn_text, x0)
    if conclusion == CONVERGENT:
        assert b < 1 and rule == MAJORANT_RULE
    if conclusion == DIVERGENT:
        assert b >= 1 and rule == MINORANT_RULE


def test_band_reads_sampled_witnesses():
    # the linear ratio snaps to p/q; a majorant C is the three-digit rounding
    # of 0.99*inf L_0.9 and a minorant C that of 1.01*sup L_1.1, so the label
    # itself passes the same test
    v = comparison_band(Samples(parse(OSCILLATORY), x0="0.3"))
    assert v.witnesses["majorant"] == "linear:5/6"
    assert v.witnesses["delta"] == CTX.mpf("0.3")
    v = comparison_band(Samples(parse("x - x^(3/2)*(1+abs(sin(1/x)))/2"), x0="0.3"))
    assert v.witnesses["majorant"] == "powerlaw:a=0.9,c=1.25"
    assert CTX.mpf("1.26") <= v.witnesses["bound"] < CTX.mpf("1.27")
    v = comparison_band(Samples(parse("x - x^(5/2)*(1+abs(sin(1/x)))/2"), x0="0.3"))
    assert (v.conclusion, v.rule) == (DIVERGENT, MINORANT_RULE)
    assert v.witnesses["minorant"] == "powerlaw:a=1.1,c=0.479"
    assert CTX.mpf("0.474") <= v.witnesses["bound"] < CTX.mpf("0.475")
    assert any(n.startswith("sampled on (0, 0.3]") for n in v.notes)


def test_band_leaves_the_exponents_next_to_1_open():
    # x - x^2*abs(sin(1/x)) diverges, but its L_0.9 has a positive inf on
    # any grid, and its bounded L_1 reads like x^(b-1) for b just below 1
    v = comparison_band(Samples(parse("x - x^2*abs(sin(1/x))"), x0="0.3"))
    assert v.conclusion == INCONCLUSIVE
    assert any("minima of L_0.9 trend toward 0" in n for n in v.notes)
    assert any("maxima of L_1.1 trend toward infinity" in n for n in v.notes)


def test_band_side_without_digits_does_not_count():
    # ln(x/f) ~ x^(9/4) keeps its digits down to the probe floor 1e-25, so
    # the exponent search runs, but not down to 1e-30: both L_a sides are
    # refused and analyze stays inconclusive instead of stopping
    # (sin(e/x), which the germ refuses, keeps the envelopes out)
    report = analyze(Samples(parse("x - x^(13/4)*(1+sin(e/x)/2)"), x0="0.3"), max_n=200)
    assert report.verdict.conclusion == INCONCLUSIVE
    refused = [n for n in report.verdict.notes if "does not count" in n]
    assert [n.split(" does not count")[0] for n in refused] == ["L_0.9", "L_1.1"]
    # at the precision the notes advise, both sides are read (the minorant
    # side then decides: the decay exponent is 9/4)
    precision = max(advised_precision(n) for n in refused)
    report = analyze(Samples(parse("x - x^(13/4)*(1+sin(e/x)/2)"), precision, x0="0.3"),
                     max_n=200)
    assert not any("does not count" in n for n in report.verdict.notes)
    assert (report.verdict.conclusion, report.verdict.rule) == (DIVERGENT, MINORANT_RULE)


def test_band_needs_enough_decades():
    # two decades above the floor leave no trend to read (the germ refuses
    # sin(e/x), which keeps the envelopes out)
    report = analyze(Samples(parse("x - x^2*abs(sin(e/x))"), x0="3e-29"), max_n=200)
    assert report.verdict.conclusion == INCONCLUSIVE
    assert "the per-decade maxima of L_1.1 span 2 decades, fewer than 8" in report.verdict.notes
