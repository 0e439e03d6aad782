import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from recurseries.estimate import (
    AsymptoticFit,
    fit_power_law,
    sum_estimate,
    verify_asymptotic,
)
from recurseries.expr import context, parse
from recurseries.orbit import Mode, Orbit, OrbitStatus, iterate

CTX = context(64)


def synthetic_orbit(terms, precision=64):
    sums = []
    total = context(precision).mpf(0)
    for t in terms:
        total += t
        sums.append(total)
    status = OrbitStatus("max_iterations", len(terms) - 1)
    return Orbit(terms[0], list(terms), sums, status, Mode.POSITIVE, precision)


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
    orbit = iterate(parse("x/(1+x)"), 1, max_n=2000)
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
    orbit = iterate(parse("x/2"), 1, floor="1e-80")
    assert orbit.last_index == 266
    fit = fit_power_law(orbit)
    assert fit.rejected
    assert fit.reason.startswith("no power law")


def test_fit_window_validation():
    orbit = iterate(parse("x/(1+x)"), 1, max_n=300)
    with pytest.raises(ValueError):
        fit_power_law(orbit, window=(1, 50))  # too few terms
    with pytest.raises(ValueError):
        fit_power_law(orbit, window=(1, 1000))  # beyond orbit
    signed = iterate(parse("-x/2"), 1, mode=Mode.SIGNED)
    with pytest.raises(ValueError):
        fit_power_law(signed)


def test_verify_accepted_fit_exact_data():
    # on exact power-law data 3 * residual + a tiny floor is enough
    terms = [CTX.mpf(2)] + [CTX.power(n, -2) for n in range(1, 401)]
    orbit = synthetic_orbit(terms)
    fit = fit_power_law(orbit)
    assert not fit.rejected
    check = verify_asymptotic(orbit, fit.a, fit.k, 3 * fit.residual + CTX.mpf("1e-30"))
    assert check.passed


def test_verify_accepted_fit_computed_orbit():
    # real orbits carry 1/n corrections below the fit window, so the
    # floor absorbs them at the scale the verification step works at
    orbit = iterate(parse("x/(1+x)"), 1, max_n=20000)
    fit = fit_power_law(orbit)
    assert not fit.rejected
    check = verify_asymptotic(orbit, fit.a, fit.k, 3 * fit.residual + CTX.mpf("1e-3"))
    assert check.passed
    # trace covers the last decade of indices
    assert check.trace[0][0] == 2000
    assert check.trace[-1][0] == 20000


def test_verify_rejects_wrong_exponent():
    orbit = iterate(parse("x/(1+x)"), 1, max_n=1000)
    check = verify_asymptotic(orbit, 2, 1, "1e-3")
    assert not check.passed


def test_sum_estimate_geometric():
    orbit = iterate(parse("x/2"), 1)
    est = sum_estimate(orbit)
    assert est.method == "geometric tail"
    assert abs(est.total - 2) < CTX.mpf("1e-38")
    assert "not rigorous" in est.note


def test_sum_estimate_power_law_tail():
    # x_{n+1} = x_n/(1+sqrt(x_n))^2 from 1 is exactly 1/(n+1)^2, total pi^2/6
    orbit = iterate(parse("x/(1+x^(1/2))^2"), 1, max_n=2000)
    fit = fit_power_law(orbit)
    assert not fit.rejected
    est = sum_estimate(orbit, fit)
    assert est.method == "power-law tail"
    assert abs(est.total - CTX.pi ** 2 / 6) < CTX.mpf("1e-5")


def test_sum_estimate_divergent_tail_raises():
    orbit = iterate(parse("x/(1+x)"), 1, max_n=1000)
    fit = fit_power_law(orbit)
    with pytest.raises(ValueError, match="tail divergent"):
        sum_estimate(orbit, fit)


def test_sum_estimate_signed_orbit_raises():
    orbit = iterate(parse("-x/2"), 1, mode=Mode.SIGNED)
    with pytest.raises(ValueError):
        sum_estimate(orbit)


def test_sum_estimate_rejected_fit_falls_back():
    orbit = iterate(parse("x/2"), 1, floor="1e-80")
    fit = fit_power_law(orbit)
    assert fit.rejected
    est = sum_estimate(orbit, fit)
    assert est.method == "geometric tail"
