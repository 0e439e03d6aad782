"""Empirical asymptotics from computed orbits.

Fits the power law x_n ~ k * n^(-1/a) by least squares in log-log space
and combines partial sums with model-based tail estimates. Both compute on
the context of the orbit's own values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import mpmath

from .orbit import Mode, Orbit

RESIDUAL_LIMIT = "0.1"
DRIFT_LIMIT = "0.05"
MIN_WINDOW_TERMS = 100
FIT_SAMPLES = 200
RATIO_WINDOW = 8


@dataclass
class AsymptoticFit:
    """Fitted decay law x_n ~ k * n^(-1/a) over an index window.

    a and k come from log-spaced samples of the window; residual is the worst
    relative mismatch of n^(1/a) * x_n against k over every window index.
    A fit with `rejected` set means the orbit does not follow a power law
    (for example geometric decay); a, k, residual still describe the attempt.
    """

    a: object
    k: object
    residual: object
    window: Tuple[int, int]
    rejected: bool = False
    reason: Optional[str] = None


def _line_fit(ctx, us, vs, ws):
    total = ctx.fsum(ws)
    ubar, vbar = ctx.fdot(ws, us) / total, ctx.fdot(ws, vs) / total
    wdu = [w * (u - ubar) for w, u in zip(ws, us)]
    slope = ctx.fdot(wdu, [v - vbar for v in vs]) / ctx.fdot(wdu, [u - ubar for u in us])
    return slope, vbar - slope * ubar


def _sample_indices(start: int, end: int) -> List[int]:
    """At most FIT_SAMPLES log-spaced indices of [start, end], ends included."""
    if end - start < FIT_SAMPLES:
        return list(range(start, end + 1))
    step = math.log(end / start) / (FIT_SAMPLES - 1)
    inner = (round(start * math.exp(i * step)) for i in range(1, FIT_SAMPLES - 1))
    return sorted({start, end, *inner})


def fit_power_law(orbit: Orbit, window: Optional[Tuple[int, int]] = None) -> AsymptoticFit:
    """Least-squares line through (log n, log x_n); a = -1/slope, k = e^intercept.

    The window defaults to the last half of the orbit and must contain at
    least 100 terms. The terms must be positive and strictly decreasing,
    which the fit does not check again: `iterate` in positive mode checks
    0 < x_{n+1} < x_n at every step. The line is fitted on at most
    FIT_SAMPLES log-spaced indices, each weighted by the window indices
    nearer to it than to its neighbours; the residual reads every index. The
    fit is rejected ("no power law") when the residual exceeds 0.1 or the
    slope drifts more than 5% between the halves of the samples (in log n).
    """
    if orbit.mode is not Mode.POSITIVE:
        raise ValueError("power-law fitting requires a positive-mode orbit")
    orbit.require_every_index("power-law fitting")
    ctx = orbit.x0.context
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

    samples = _sample_indices(start, end)
    us = [ctx.ln(n) for n in samples]
    vs = [ctx.ln(orbit.terms[n]) for n in samples]
    padded = [start - 1] + samples + [end + 1]
    ws = [ctx.mpf(q - p) / 2 for p, q in zip(padded, padded[2:])]
    slope, intercept = _line_fit(ctx, us, vs, ws)
    if not slope < 0:
        raise ValueError("orbit does not decay over the window")
    a = -1 / slope
    k = ctx.exp(intercept)

    # Find the worst index in double precision from d_n = ln(n^(1/a) x_n / k),
    # ln x_n read from the binary mantissa and exponent so it cannot underflow,
    # then evaluate at working precision each index whose |e^d - 1| (capped
    # at e^700, far past the limit) comes within 1e-12 of the worst, relative
    # to the magnitudes added: about 10^4 times the rounding error.
    slope_d, intercept_d = float(slope), float(intercept)
    lns = [math.log(man) + exp * math.log(2) for _, man, exp, _ in (t._mpf_ for t in terms)]
    est = [abs(math.expm1(min(lx - slope_d * math.log(n) - intercept_d, 700.0)))
           for n, lx in enumerate(lns, start)]
    worst = max(est)
    scale = 1 + abs(lns[0]) + abs(lns[-1]) + abs(slope_d) * math.log(end) + abs(intercept_d)
    near = [n for n, e in enumerate(est, start) if e >= worst - 1e-12 * scale * (1 + worst)]
    residual = max(abs(ctx.power(n, 1 / a) * orbit.terms[n] - k) for n in near) / k
    half = len(samples) // 2
    slope1, _ = _line_fit(ctx, us[:half], vs[:half], ws[:half])
    slope2, _ = _line_fit(ctx, us[half:], vs[half:], ws[half:])
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
class SumEstimate:
    total: object
    partial: object
    tail: Optional[object]
    method: str
    note: str


def sum_estimate(orbit: Orbit, fit: Optional[AsymptoticFit] = None) -> SumEstimate:
    """S_N plus a tail estimate; the tail is model-based, not rigorous.

    With an accepted power-law fit and a < 1 the tail integrates the fitted
    law beyond N. Without a fit, the largest ratio c < 1 over the last
    RATIO_WINDOW steps gives the geometric tail x_N * c / (1 - c), which
    assumes the ratio stays below c. Otherwise only S_N is reported.
    """
    if orbit.mode is not Mode.POSITIVE:
        raise ValueError("sum estimation requires a positive-mode orbit")
    orbit.require_every_index("sum estimation")
    ctx = orbit.x0.context
    s = orbit.partial_sums[-1]
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
        c = max(b / a for a, b in zip(tail_terms, tail_terms[1:]))
        if c < 1:
            tail = tail_terms[-1] * c / (1 - c)
            return SumEstimate(
                s + tail, s, tail, "geometric tail",
                f"tail bounded by a sustained ratio c = {mpmath.nstr(c, 12)};"
                " heuristic, not rigorous",
            )
    return SumEstimate(
        s, s, None, "partial sum only",
        "recent terms do not contract; no tail model applies",
    )
