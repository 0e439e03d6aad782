import functools
import io
import json
import math
import os
import re
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from recurseries import analyze, estimate
from recurseries.cli import _build_parser, cmd_analyze, config_from_args
from recurseries.estimate import (
    FIT_SAMPLES,
    AsymptoticFit,
    _line_fit,
    _sample_indices,
    fit_power_law,
    sum_estimate,
)
from recurseries.expr import context, parse, parse_constant, taylor_polynomial
from recurseries.grids import Samples
from recurseries.orbit import Mode, Orbit, OrbitStatus, iterate

from corpus import ALL

CTX = context(64)
BY_NAME = {e.name: e for e in ALL}


def synthetic_orbit(terms, precision=64):
    total = context(precision).mpf(0)
    for t in terms:
        total += t
    status = OrbitStatus("max_iterations", len(terms) - 1)
    return Orbit(terms[0], [t._mpf_ for t in terms], terms[-1], total, status,
                 Mode.POSITIVE, precision, len(terms) - 1)


def test_fit_exact_power_law():
    # x_n = n^-2 is the law k * n^(-1/a) with a = 1/2, k = 1
    terms = [CTX.mpf(2)] + [CTX.power(n, -2) for n in range(1, 401)]
    fit = fit_power_law(synthetic_orbit(terms))
    assert not fit.rejected
    # the line is fitted in binary64
    assert abs(fit.a - CTX.mpf("0.5")) < CTX.mpf("1e-12")
    assert abs(fit.k - 1) < CTX.mpf("1e-12")
    assert fit.residual < CTX.mpf("1e-12")
    assert fit.window == (200, 400)


def test_fit_on_computed_orbit():
    # x_{n+1} = x_n/(1+x_n) from 1 is exactly 1/(n+1): a = 1, k ~ 1
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=2000)
    fit = fit_power_law(orbit)
    assert not fit.rejected
    assert abs(fit.a - 1) < CTX.mpf("1e-3")
    assert abs(fit.k - 1) < CTX.mpf("1e-2")


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(min_value=0.001, max_value=1000))
def test_fit_scale_covariance(scale):
    # scaling every term by L scales k by L and leaves a unchanged
    lam = CTX.mpf(repr(scale))
    base = [CTX.mpf(2)] + [CTX.power(n, -2) for n in range(1, 301)]
    plain = fit_power_law(synthetic_orbit(base))
    scaled = fit_power_law(synthetic_orbit([lam * t for t in base]))
    assert abs(scaled.a / plain.a - 1) < CTX.mpf("1e-12")
    assert abs(scaled.k / (lam * plain.k) - 1) < CTX.mpf("1e-12")


def test_fit_rejects_geometric_decay():
    orbit = iterate(Samples(parse("x/2")), 1, floor="1e-80")
    assert orbit.last_index == 266
    fit = fit_power_law(orbit)
    assert fit.rejected
    assert fit.reason.startswith("no power law")


def test_fit_window_validation():
    # the window is the last half, here 75..150
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=150)
    with pytest.raises(ValueError, match="window holds 76 terms, need 100"):
        fit_power_law(orbit)
    signed = iterate(Samples(parse("-x/2")), 1, mode=Mode.SIGNED)
    with pytest.raises(ValueError):
        fit_power_law(signed)


def last_decade_mismatch(orbit, a, k):
    """The worst |n^(1/a) * x_n / k - 1| over the last decade of indices."""
    last = orbit.last_index
    return max(abs(CTX.power(n, 1 / CTX.convert(a)) * CTX.make_mpf(orbit.terms[n]) / k - 1)
               for n in range(max(1, last // 10), last + 1))


def test_verify_accepted_fit_exact_data():
    # on exact power-law data 3 * residual + a tiny floor is enough
    terms = [CTX.mpf(2)] + [CTX.power(n, -2) for n in range(1, 401)]
    orbit = synthetic_orbit(terms)
    fit = fit_power_law(orbit)
    assert not fit.rejected
    assert last_decade_mismatch(orbit, fit.a, fit.k) <= 3 * fit.residual + CTX.mpf("1e-30")


def test_verify_accepted_fit_computed_orbit():
    # real orbits carry 1/n corrections below the fit window, so the
    # floor absorbs them over the last decade, indices 2000 to 20000
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=20000)
    fit = fit_power_law(orbit)
    assert not fit.rejected
    assert last_decade_mismatch(orbit, fit.a, fit.k) <= 3 * fit.residual + CTX.mpf("1e-3")


def test_verify_rejects_wrong_exponent():
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=1000)
    assert last_decade_mismatch(orbit, 2, 1) > CTX.mpf("1e-3")


def test_sum_estimate_geometric():
    orbit = iterate(Samples(parse("x/2")), 1)
    est = sum_estimate(orbit)
    assert est.method == "geometric tail"
    # every ratio is c = 1/2, so the tail x_N * c/(1-c) is x_N exactly
    assert est.tail == orbit.x_n
    assert abs(est.total - 2) < CTX.mpf("1e-38")
    assert "not rigorous" in est.note


def test_sum_estimate_power_law_tail():
    # x_{n+1} = x_n/(1+sqrt(x_n))^2 from 1 is exactly 1/(n+1)^2, total pi^2/6
    orbit = iterate(Samples(parse("x/(1+x^(1/2))^2")), 1, max_n=2000)
    fit = fit_power_law(orbit)
    assert not fit.rejected
    est = sum_estimate(orbit, fit)
    assert est.method == "power-law tail"
    assert abs(est.total - CTX.pi ** 2 / 6) < CTX.mpf("1e-5")


def test_sum_estimate_divergent_tail_raises():
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=1000)
    fit = fit_power_law(orbit)
    with pytest.raises(ValueError, match="tail divergent"):
        sum_estimate(orbit, fit)


def test_sum_estimate_signed_orbit_raises():
    orbit = iterate(Samples(parse("-x/2")), 1, mode=Mode.SIGNED)
    with pytest.raises(ValueError):
        sum_estimate(orbit)


def test_sum_estimate_rejected_fit_falls_back():
    orbit = iterate(Samples(parse("x/2")), 1, floor="1e-80")
    fit = fit_power_law(orbit)
    assert fit.rejected
    est = sum_estimate(orbit, fit)
    assert est.method == "geometric tail"


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=5),
    k=st.floats(min_value=1e-3, max_value=1e3),
    n=st.integers(min_value=200, max_value=10000),
)
def test_fit_recovers_exact_power_law(a, k, n):
    a, k = CTX.mpf(repr(a)), CTX.mpf(repr(k))
    inv_a = 1 / a
    terms = [2 * k] + [k * CTX.power(i, -inv_a) for i in range(1, n + 1)]
    fit = fit_power_law(synthetic_orbit(terms))
    assert not fit.rejected
    assert abs(fit.a / a - 1) < CTX.mpf("1e-12")
    assert abs(fit.k / k - 1) < CTX.mpf("1e-12")
    assert fit.residual < CTX.mpf("1e-12")


# x/(1+c*x^b)^(1/b), a power-law decay of exponent b
_POWER_LAW = st.tuples(
    st.sampled_from(["1/4", "1", "4"]),
    st.sampled_from(["0.5", "0.75", "1", "1.5", "2"]),
).map(lambda cb: f"x/(1+{cb[0]}*x^{cb[1]})^(1/{cb[1]})")


@settings(max_examples=30, deadline=None)
@given(
    text=st.one_of(st.sampled_from(["sin(x)", "x/(1+x)"]), _POWER_LAW),
    x0=st.sampled_from(["1", "0.5", "0.25", "1e-20"]),
)
def test_positive_orbits_decrease_strictly(text, x0):
    # fit_power_law relies on this and does not check it again
    orbit = iterate(Samples(parse(text)), x0, max_n=500)
    assert orbit.mode is Mode.POSITIVE and orbit.last_index > 0
    terms = [CTX.make_mpf(t) for t in orbit.terms]
    assert all(0 < b < a for a, b in zip(terms, terms[1:]))


@given(start=st.integers(min_value=1, max_value=10**6),
       length=st.integers(min_value=1, max_value=10**5))
def test_sample_indices(start, length):
    end = start + length - 1
    picked = _sample_indices(start, end)
    assert picked[0] == start and picked[-1] == end
    assert all(p < q for p, q in zip(picked, picked[1:]))
    assert len(picked) <= FIT_SAMPLES
    if length <= FIT_SAMPLES:
        assert picked == list(range(start, end + 1))


@functools.lru_cache(maxsize=None)
def corpus_orbit(name):
    entry = BY_NAME[name]
    return iterate(Samples(parse(entry.function)), entry.x0, max_n=entry.max_n)


@pytest.mark.parametrize("name", [
    "harmonic", "sine", "half_exponent", "logistic_edge", "damped_harmonic",
])
def test_residual_reads_every_window_index(name):
    # the fit reads samples, but the residual is the maximum over every
    # index of the window, at working precision
    orbit = corpus_orbit(name)
    fit = fit_power_law(orbit)
    lo, hi = fit.window
    assert (lo, hi) == (orbit.last_index // 2, orbit.last_index)
    ctx = context(orbit.precision)
    worst = max(
        abs(ctx.power(n, 1 / fit.a) * ctx.make_mpf(orbit.terms[n]) - fit.k)
        for n in range(lo, hi + 1)
    )
    assert fit.residual == worst / fit.k


@st.composite
def _noisy_power_law(draw):
    """A positive orbit k * n^(-1/a) * (1 + noise_n), the noise uniform up to
    an amplitude from 0 to 1e-2, now and then with one spike up to 0.5 above
    or below, or with its largest deviations repeated at other indices."""
    a = draw(st.floats(min_value=0.2, max_value=5))
    k = draw(st.floats(min_value=1e-3, max_value=1e3))
    last = draw(st.integers(min_value=200, max_value=3000))
    amplitude = draw(st.sampled_from([0, 1e-15, 1e-9, 1e-4, 1e-2]))
    rng = draw(st.randoms(use_true_random=False))
    noise = [rng.uniform(-amplitude, amplitude) for _ in range(last + 1)]
    if draw(st.booleans()):
        noise[rng.randrange(last // 2, last + 1)] = draw(st.floats(min_value=-0.5, max_value=0.5))
    if draw(st.booleans()):
        for n in rng.sample(range(last // 2, last + 1), 3):
            noise[n] = draw(st.sampled_from([max(noise), min(noise)]))
    a, k = CTX.mpf(a), CTX.mpf(k)
    terms = [2 * k] + [k * CTX.power(n, -1 / a) * (1 + CTX.mpf(noise[n]))
                       for n in range(1, last + 1)]
    return synthetic_orbit(terms)


@settings(max_examples=40, deadline=None)
@given(_noisy_power_law())
def test_residual_is_the_worst_window_index_on_noisy_power_laws(orbit):
    # the binary64 scan keeps only the indices near the largest and the
    # smallest deviation, yet the residual is the maximum over every index
    fit = fit_power_law(orbit)
    lo, hi = fit.window
    worst = max(abs(CTX.power(n, 1 / fit.a) * CTX.make_mpf(orbit.terms[n]) - fit.k)
                for n in range(lo, hi + 1))
    assert fit.residual == worst / fit.k


def test_fit_work_is_bounded_by_the_samples(monkeypatch):
    # the line is fitted in binary64, so the fit takes no working-precision
    # log; what it computes at working precision is e^intercept and n^(1/a)
    # at the few indices where the residual may peak. An mpf_log the fit
    # called itself shows as a call from estimate's own code
    calls = []
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=10000)
    ctx = orbit.x0.context  # the table's context, which the fit computes on

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == "mpf_log"
                and frame.f_back.f_code.co_filename == estimate.__file__):
            calls.append("mpf_log")

    # on the instance's own dict, which the undo empties again: the context
    # is shared, and a method left bound on it would hide a later patch of
    # its class
    for name in ("ln", "log", "exp", "power"):
        monkeypatch.setitem(vars(ctx), name, counting(name, getattr(ctx, name)))
    sys.setprofile(profile)
    try:
        fit = fit_power_law(orbit)
    finally:
        sys.setprofile(None)
    assert not fit.rejected
    assert not {"ln", "log", "mpf_log"} & set(calls)
    assert 1 <= len(calls) <= 16


def _line_fit_on_mpf(ctx, us, vs, ws):
    """The fit's line on mpf numbers: ctx.fsum, ctx.fdot and mpf operators."""
    total = ctx.fsum(ws)
    ubar, vbar = ctx.fdot(ws, us) / total, ctx.fdot(ws, vs) / total
    wdu = [w * (u - ubar) for w, u in zip(ws, us)]
    slope = ctx.fdot(wdu, [v - vbar for v in vs]) / ctx.fdot(wdu, [u - ubar for u in us])
    return slope, vbar - slope * ubar


@st.composite
def _power_law_samples(draw):
    """(us, vs, ws) as floats: ln n at the fit's samples of a window [s, 2s],
    ln of k * n^(-1/a) with relative noise up to 1e-3, and the fit's weights."""
    a = draw(st.floats(min_value=0.2, max_value=5))
    k = draw(st.floats(min_value=1e-3, max_value=1e3))
    start = draw(st.integers(min_value=100, max_value=10**5))
    rng = draw(st.randoms(use_true_random=False))
    samples = _sample_indices(start, 2 * start)
    us = [math.log(n) for n in samples]
    vs = [math.log(k) - u / a + rng.uniform(-1e-3, 1e-3) for u in us]
    padded = [start - 1] + samples + [2 * start + 1]
    return us, vs, [(q - p) / 2 for p, q in zip(padded, padded[2:])]


@settings(max_examples=200, deadline=None)
@given(_power_law_samples())
def test_line_fit_in_binary64_is_the_mpf_fit(drawn):
    # the same float samples, exact on a 249-bit context
    ctx = context(64)
    want = _line_fit_on_mpf(ctx, *([ctx.mpf(v) for v in col] for col in drawn))
    slope, intercept = _line_fit(*drawn)
    assert abs(slope / want[0] - 1) < 1e-12
    assert abs(intercept - want[1]) < 1e-12 * max(1, abs(want[1]))


def reference_fit(orbit, window):
    """a and k of the fit's line at working precision: ctx.ln of n and of
    x_n at the fit's samples, the fit's weights, and _line_fit_on_mpf."""
    ctx = orbit.x0.context
    start, end = window
    samples = _sample_indices(start, end)
    padded = [start - 1] + samples + [end + 1]
    slope, intercept = _line_fit_on_mpf(
        ctx,
        [ctx.ln(n) for n in samples],
        [ctx.ln(ctx.make_mpf(orbit.terms[n])) for n in samples],
        [ctx.mpf(q - p) / 2 for p, q in zip(padded, padded[2:])],
    )
    return -1 / slope, ctx.exp(intercept)


def assert_near_reference(orbit, fit):
    a, k = reference_fit(orbit, fit.window)
    assert abs(fit.a / a - 1) < CTX.mpf("1e-9")
    assert abs(fit.k / k - 1) < CTX.mpf("1e-9")


@settings(max_examples=10, deadline=None)
@given(c=st.sampled_from(["1/4", "1", "3/2", "4"]),
       p=st.integers(min_value=1, max_value=4), q=st.integers(min_value=1, max_value=4))
def test_binary64_fit_is_the_working_precision_fit_on_power_laws(c, p, q):
    # x/(1+C*x^(p/q))^(q/p) decays as k * n^(-q/p)
    orbit = iterate(Samples(parse(f"x/(1+{c}*x^({p}/{q}))^({q}/{p})")), 1, max_n=2000)
    assert_near_reference(orbit, fit_power_law(orbit))


def corpus_target(entry):
    if entry.taylor is None:
        return parse(entry.function)
    return taylor_polynomial([parse_constant(c, CTX) for c in entry.taylor.split(",")], CTX)


@pytest.mark.parametrize("entry", ALL, ids=lambda entry: entry.name)
def test_binary64_fit_is_the_working_precision_fit_on_the_corpus(entry):
    # every orbit whose fit analyze accepts, as analyze computes it
    report = analyze(Samples(corpus_target(entry), x0=entry.x0), max_n=entry.max_n)
    if report.fit is not None and not report.fit.rejected:
        assert_near_reference(report.orbit_result, report.fit)


def test_fit_takes_k_past_the_binary64_range():
    # over the last half of 2000 steps of x - x^1.005 from 0.5 the line's
    # intercept is about 720, and e^720 is past the largest binary64
    orbit = iterate(Samples(parse("x - x^(1.005)")), "0.5", max_n=2000, floor="1e-4000")
    fit = fit_power_law(orbit)
    assert fit.k > CTX.mpf("1e308")
    assert fit.residual == max(abs(CTX.power(n, 1 / fit.a) * CTX.make_mpf(orbit.terms[n]) - fit.k)
                               for n in range(1000, 2001)) / fit.k


def test_fit_refuses_a_drop_binary64_cannot_resolve():
    # from 0.5, x_n falls by about 2.5e-31 a step, so over the last half of
    # 2000 steps ln x_n drops by about 5e-28: in binary64 the line's slope
    # would be rounding noise, so there is no fit and no warning about one
    f = parse("x - 1e-30*x^2")
    with pytest.raises(ValueError, match="binary64"):
        fit_power_law(iterate(Samples(f), "0.5", max_n=2000))
    report = analyze(Samples(f, x0="0.5"), max_n=2000)
    assert report.fit is None
    assert not any(line.startswith("empirical") for line in report.warnings)


REFERENCE = os.path.join(os.path.dirname(__file__), "analyze_reference.json")
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def test_analyze_fit_moves_only_the_fit():
    # reports recorded when the line was fitted through every window index:
    # the 12 corpus entries, then the three long power-law decays at 10^4
    # steps. Only the fit may move; the residual a rejected fit prints in its
    # warning is the fit's own number, held to the same tolerance as a
    with open(REFERENCE) as f:
        reference = json.load(f)
    assert len(reference) == 15
    tol = mpmath.mpf("2e-4")
    for want in reference:
        args = _build_parser().parse_args(want["argv"])
        buf = io.StringIO()
        code = cmd_analyze(config_from_args(args), buf)
        out = buf.getvalue()
        got = json.loads(out)
        assert code == want["code"], want["argv"]
        for key in ("mode", "verdict", "rule", "witnesses", "derivative", "orbit"):
            assert got[key] == want[key], (want["argv"], key)
        assert len(got["warnings"]) == len(want["warnings"])
        for line, ref in zip(got["warnings"], want["warnings"]):
            if not ref.startswith("empirical fit:"):
                assert line == ref
                continue
            assert NUMBER.sub("#", line) == NUMBER.sub("#", ref)
            for x, y in zip(NUMBER.findall(line), NUMBER.findall(ref)):
                assert abs(mpmath.mpf(x) / mpmath.mpf(y) - 1) < tol, (line, ref)
        if want["fit_a"] is None:
            assert "fit" not in got
        else:
            a = mpmath.mpf(got["fit"]["a"])
            assert abs(a / mpmath.mpf(want["fit_a"]) - 1) < tol, want["argv"]
