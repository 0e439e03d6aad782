"""Empirical asymptotics from computed orbits.

Fits the power law x_n ~ k * n^(-1/a) by least squares in log-log space,
verifies a claimed (a, k) pair against the orbit, and combines partial
sums with model-based tail estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import mpmath

from .expr import context
from .orbit import Mode, Orbit, partial_sum, tail_bound_geometric

RESIDUAL_LIMIT = "0.1"
DRIFT_LIMIT = "0.05"
MIN_WINDOW_TERMS = 100
RATIO_WINDOW = 8


@dataclass
class AsymptoticFit:
    """Fitted decay law x_n ~ k * n^(-1/a) over an index window.

    residual is the worst relative mismatch of n^(1/a) * x_n against k over
    the window. A fit with `rejected` set means the orbit does not follow a
    power law (for example geometric decay); a, k, residual still describe
    the attempted fit.
    """

    a: object
    k: object
    residual: object
    window: Tuple[int, int]
    rejected: bool = False
    reason: Optional[str] = None


def _line_fit(us, vs):
    n = len(us)
    ubar = sum(us) / n
    vbar = sum(vs) / n
    duu = sum((u - ubar) ** 2 for u in us)
    duv = sum((u - ubar) * (v - vbar) for u, v in zip(us, vs))
    slope = duv / duu
    return slope, vbar - slope * ubar


def fit_power_law(orbit: Orbit, window: Optional[Tuple[int, int]] = None) -> AsymptoticFit:
    """Least-squares line through (log n, log x_n); a = -1/slope, k = e^intercept.

    The window defaults to the last half of the orbit and must contain at
    least 100 terms. The fit is rejected ("no power law") when the residual
    exceeds 0.1 or the slope drifts more than 5% between the window halves.
    """
    if orbit.mode is not Mode.POSITIVE:
        raise ValueError("power-law fitting requires a positive-mode orbit")
    ctx = context(orbit.precision)
    last = orbit.last_index
    if window is None:
        window = (max(1, last // 2), last)
    start, end = window
    start = max(1, start)
    if end > last:
        raise ValueError("window end exceeds orbit length")
    count = end - start + 1
    if count < MIN_WINDOW_TERMS:
        raise ValueError(f"window holds {count} terms, need {MIN_WINDOW_TERMS}")
    terms = orbit.terms[start : end + 1]
    for a, b in zip(terms, terms[1:]):
        if not b < a:
            raise ValueError("orbit is not monotone decreasing over the window")

    us = [ctx.ln(n) for n in range(start, end + 1)]
    vs = [ctx.ln(t) for t in terms]
    slope, intercept = _line_fit(us, vs)
    if not slope < 0:
        raise ValueError("orbit does not decay over the window")
    a = -1 / slope
    k = ctx.exp(intercept)

    residual = max(abs(ctx.exp(u / a) * t - k) for u, t in zip(us, terms)) / k
    half = count // 2
    slope1, _ = _line_fit(us[:half], vs[:half])
    slope2, _ = _line_fit(us[half:], vs[half:])
    drift = abs(slope1 - slope2) / abs(slope)

    rejected = False
    reason = None
    if residual > ctx.mpf(RESIDUAL_LIMIT):
        rejected = True
        reason = (
            f"no power law: residual {mpmath.nstr(residual, 6)}"
            f" exceeds {RESIDUAL_LIMIT}"
        )
    elif drift > ctx.mpf(DRIFT_LIMIT):
        rejected = True
        reason = (
            f"no power law: slope drift {mpmath.nstr(drift, 6)}"
            f" between window halves exceeds {DRIFT_LIMIT}"
        )
    return AsymptoticFit(a, k, residual, (start, end), rejected, reason)


@dataclass
class Verification:
    passed: bool
    trace: List[Tuple]  # (n, x_n, r_n)
    a: object
    k: object
    tolerance: object


def verify_asymptotic(orbit: Orbit, a, k, tolerance) -> Verification:
    """Check r_n = n^(1/a) * x_n against k over the last decade of indices.

    Passes when |r_n / k - 1| <= tolerance throughout; the trace holds the
    full r_n sequence for export.
    """
    ctx = context(orbit.precision)
    a = ctx.convert(a)
    k = ctx.convert(k)
    tolerance = ctx.convert(tolerance)
    last = orbit.last_index
    start = max(1, last // 10)
    inv_a = 1 / a
    trace = []
    passed = True
    for n in range(start, last + 1):
        r = ctx.power(n, inv_a) * orbit.terms[n]
        trace.append((n, orbit.terms[n], r))
        if abs(r / k - 1) > tolerance:
            passed = False
    return Verification(passed, trace, a, k, tolerance)


@dataclass
class SumEstimate:
    total: object
    partial: object
    tail: Optional[object]
    method: str
    note: str


def sum_estimate(orbit: Orbit, fit: Optional[AsymptoticFit] = None) -> SumEstimate:
    """S_N plus a tail estimate; the tail is model-based, not rigorous.

    With an accepted power-law fit and a < 1 the tail integrates the fitted
    law beyond N. Without a fit, a sustained contraction ratio over the last
    recorded steps gives a geometric bound. Otherwise only S_N is reported.
    """
    if orbit.mode is not Mode.POSITIVE:
        raise ValueError("sum estimation requires a positive-mode orbit")
    ctx = context(orbit.precision)
    s = partial_sum(orbit)
    if fit is not None and not fit.rejected:
        if fit.a >= 1:
            raise ValueError("tail divergent: fitted exponent a >= 1")
        n = ctx.mpf(orbit.last_index)
        inv_a = 1 / ctx.convert(fit.a)
        tail = ctx.convert(fit.k) * ctx.power(n, 1 - inv_a) / (inv_a - 1)
        return SumEstimate(
            s + tail, s, tail, "power-law tail",
            "tail integrates the fitted decay law; model-based, not rigorous",
        )
    tail_terms = orbit.terms[-(RATIO_WINDOW + 1):]
    if len(tail_terms) >= 2:
        ratios = [abs(b) / abs(a) for a, b in zip(tail_terms, tail_terms[1:])]
        c = max(ratios)
        if c < 1:
            tail = tail_bound_geometric(orbit, c, window=RATIO_WINDOW)
            return SumEstimate(
                s + tail, s, tail, "geometric tail",
                f"tail bounded by a sustained ratio c = {mpmath.nstr(c, 12)};"
                " heuristic, not rigorous",
            )
    return SumEstimate(
        s, s, None, "partial sum only",
        "recent terms do not contract; no tail model applies",
    )
