import functools
import io
import json
import os
import re

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp

from recurseries import estimate
from recurseries.cli import _build_parser, cmd_analyze, config_from_args
from recurseries.estimate import (
    FIT_SAMPLES,
    AsymptoticFit,
    _line_fit,
    _sample_indices,
    fit_power_law,
    sum_estimate,
)
from recurseries.expr import context, parse
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
                 Mode.POSITIVE, precision)


def test_fit_exact_power_law():
    # x_n = n^-2 is the law k * n^(-1/a) with a = 1/2, k = 1
    terms = [CTX.mpf(2)] + [CTX.power(n, -2) for n in range(1, 401)]
    fit = fit_power_law(synthetic_orbit(terms))
    assert not fit.rejected
    assert abs(fit.a - CTX.mpf("0.5")) < CTX.mpf("1e-60")
    assert abs(fit.k - 1) < CTX.mpf("1e-60")
    assert fit.residual < CTX.mpf("1e-60")
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
    assert abs(scaled.a / plain.a - 1) < CTX.mpf("1e-50")
    assert abs(scaled.k / (lam * plain.k) - 1) < CTX.mpf("1e-50")


def test_fit_rejects_geometric_decay():
    orbit = iterate(Samples(parse("x/2")), 1, floor="1e-80")
    assert orbit.last_index == 266
    fit = fit_power_law(orbit)
    assert fit.rejected
    assert fit.reason.startswith("no power law")


def test_fit_window_validation():
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=300)
    with pytest.raises(ValueError):
        fit_power_law(orbit, window=(1, 50))  # too few terms
    with pytest.raises(ValueError):
        fit_power_law(orbit, window=(1, 1000))  # beyond orbit
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
    assert abs(fit.a / a - 1) < CTX.mpf("1e-50")
    assert abs(fit.k / k - 1) < CTX.mpf("1e-50")
    assert fit.residual < CTX.mpf("1e-50")


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
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_residual_reads_every_window_index(name, data):
    # the fit reads samples, but the residual is the maximum over every
    # index of the window, at working precision
    orbit = corpus_orbit(name)
    last = orbit.last_index
    start = data.draw(st.integers(min_value=1, max_value=last // 2), label="start")
    end = data.draw(st.integers(min_value=start + 99, max_value=last), label="end")
    for window in (None, (start, end)):
        fit = fit_power_law(orbit, window)
        lo, hi = fit.window
        ctx = context(orbit.precision)
        worst = max(
            abs(ctx.power(n, 1 / fit.a) * ctx.make_mpf(orbit.terms[n]) - fit.k)
            for n in range(lo, hi + 1)
        )
        assert fit.residual == worst / fit.k


def test_fit_work_is_bounded_by_the_samples(monkeypatch):
    # working-precision ln/exp/power calls: about 15,000 when every window
    # index is fitted, a few per sample when only the samples are. The fit
    # takes ln n and ln x_n with libmp's mpf_log, which ctx.ln wraps, so
    # both are counted
    calls = []
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=10000)
    ctx = orbit.x0.context  # the table's context, which the fit computes on

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for name in ("ln", "exp", "power"):
        monkeypatch.setattr(ctx, name, counting(name, getattr(ctx, name)))
    monkeypatch.setattr(estimate, "mpf_log", counting("ln", estimate.mpf_log))
    fit = fit_power_law(orbit)
    assert not fit.rejected
    assert 2 * FIT_SAMPLES <= len(calls) <= 3 * FIT_SAMPLES + 16


def _line_fit_on_mpf(ctx, us, vs, ws):
    """The fit's line on mpf numbers: ctx.fsum, ctx.fdot and mpf operators."""
    total = ctx.fsum(ws)
    ubar, vbar = ctx.fdot(ws, us) / total, ctx.fdot(ws, vs) / total
    wdu = [w * (u - ubar) for w, u in zip(ws, us)]
    slope = ctx.fdot(wdu, [v - vbar for v in vs]) / ctx.fdot(wdu, [u - ubar for u in us])
    return slope, vbar - slope * ubar


@st.composite
def _line_samples(draw):
    """(precision in bits, us, vs, ws) as raw values: us of more than one
    value, vs of either sign, positive weights; lengths up to 60."""
    prec = draw(st.sampled_from([16, 64, 200, 249]))
    n = draw(st.integers(min_value=2, max_value=60))

    def values(min_man):
        return st.lists(st.builds(from_man_exp,
                                  st.integers(min_value=min_man, max_value=2**prec - 1),
                                  st.integers(min_value=-prec - 20, max_value=20)),
                        min_size=n, max_size=n)

    us = draw(values(-(2**prec) + 1).filter(lambda us: len(set(us)) > 1))
    return prec, us, draw(values(-(2**prec) + 1)), draw(values(1))


@settings(max_examples=300, deadline=None)
@given(_line_samples())
def test_line_fit_on_raw_values_is_the_mpf_fit(drawn):
    prec, us, vs, ws = drawn
    ctx = mpmath.mp.clone()
    ctx.prec = prec
    want = _line_fit_on_mpf(ctx, *([ctx.make_mpf(v) for v in col] for col in (us, vs, ws)))
    got = _line_fit(ctx, us, vs, ws)
    assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


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
