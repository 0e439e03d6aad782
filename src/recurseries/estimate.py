"""Empirical asymptotics from computed orbits.

Fits the power law x_n ~ k * n^(-1/a) by least squares in log-log space,
in binary64, and combines partial sums with model-based tail estimates.
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
LN2 = math.log(2)


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


def _line_fit(us, vs, ws):
    """Slope and intercept of the weighted least-squares line through the
    floats (u, v), centred on the weighted means, with math.fsum sums."""
    total = math.fsum(ws)
    ubar = math.fsum(w * u for w, u in zip(ws, us)) / total
    vbar = math.fsum(w * v for w, v in zip(ws, vs)) / total
    wdu = [w * (u - ubar) for w, u in zip(ws, us)]
    slope = (math.fsum(a * (v - vbar) for a, v in zip(wdu, vs))
             / math.fsum(a * (u - ubar) for a, u in zip(wdu, us)))
    return slope, vbar - slope * ubar


def _deviation(d: float) -> float:
    """|e^d - 1|, with d capped at 700 so that it cannot overflow."""
    return abs(math.expm1(min(d, 700.0)))


def _sample_indices(start: int, end: int) -> List[int]:
    """At most FIT_SAMPLES log-spaced indices of [start, end], ends included."""
    if end - start < FIT_SAMPLES:
        return list(range(start, end + 1))
    step = math.log(end / start) / (FIT_SAMPLES - 1)
    inner = (round(start * math.exp(i * step)) for i in range(1, FIT_SAMPLES - 1))
    return sorted({start, end, *inner})


def fit_power_law(orbit: Orbit) -> AsymptoticFit:
    """Least-squares line through (log n, log x_n); a = -1/slope, k = e^intercept.

    The window is the last half of the orbit and must contain at least 100
    terms. The terms must be positive and strictly decreasing,
    which the fit does not check again: `iterate` in positive mode checks
    0 < x_{n+1} < x_n at every step. The line is fitted in binary64 on at
    most FIT_SAMPLES log-spaced indices, each weighted by the window indices
    nearer to it than to its neighbours; a window whose drop binary64 cannot
    resolve raises ValueError. The residual reads every index, at working
    precision. The fit is rejected ("no power law") when the residual exceeds
    0.1 or the slope drifts more than 5% between the halves of the samples
    (in log n).
    """
    if orbit.mode is not Mode.POSITIVE:
        raise ValueError("power-law fitting requires a positive-mode orbit")
    orbit.require_every_index("power-law fitting")
    ctx = orbit.x0.context
    end = orbit.last_index
    start = max(1, end // 2)
    count = end - start + 1
    if count < MIN_WINDOW_TERMS:
        raise ValueError(f"window holds {count} terms, need {MIN_WINDOW_TERMS}")

    # ln x_n in binary64 from the raw mantissa and exponent, so it cannot
    # underflow, to about 2^-52 of the magnitudes added (ln man, exp ln 2):
    # a drop within 2^-30 of those gives a slope of rounding noise
    lns = [math.log(man) + exp * LN2 for _, man, exp, _ in orbit.terms[start : end + 1]]
    if not lns[0] - lns[-1] > 2**-30 * (abs(lns[0]) + abs(lns[-1]) + 2 * ctx.prec * LN2):
        raise ValueError("orbit does not decay over the window at binary64 resolution")
    samples = _sample_indices(start, end)
    us = [math.log(n) for n in samples]
    vs = [lns[n - start] for n in samples]
    padded = [start - 1] + samples + [end + 1]
    ws = [(q - p) / 2 for p, q in zip(padded, padded[2:])]
    slope, intercept = _line_fit(us, vs, ws)
    if not slope < 0:
        raise ValueError("orbit does not decay over the window")
    # taken at working precision, where neither can overflow
    a = -1 / ctx.mpf(slope)
    k = ctx.exp(intercept)

    # Find the worst index in binary64 from d_n = ln(n^(1/a) x_n / k), then
    # evaluate at working precision each index whose |e^d - 1| (capped at
    # e^700, far past the limit) comes within margin of the worst: 1e-12 of
    # it, relative to the magnitudes added, about 10^4 times the rounding
    # error. |e^d - 1| grows with |d| on each side of 0, at a rate of at
    # least 1 above 0 and e^lo above the smallest d, lo, so only a d within
    # margin of the largest or margin / e^lo of lo can come that near; twice
    # those bounds cover their rounding.
    ds = [lx - slope * math.log(n) - intercept for n, lx in enumerate(lns, start)]
    hi, lo = max(ds), min(ds)
    worst = max(_deviation(hi), _deviation(lo))
    scale = 1 + abs(lns[0]) + abs(lns[-1]) + abs(slope) * math.log(end) + abs(intercept)
    margin = 1e-12 * scale * (1 + worst)
    above, below = hi - 2 * margin, lo + 2 * margin * math.exp(min(-lo, 700.0))
    near = [n for n, d in enumerate(ds, start)
            if (d >= above or d <= below) and _deviation(d) >= worst - margin]
    residual = max(abs(ctx.power(n, 1 / a) * ctx.make_mpf(orbit.terms[n]) - k)
                   for n in near) / k
    half = len(samples) // 2
    slope1, _ = _line_fit(us[:half], vs[:half], ws[:half])
    slope2, _ = _line_fit(us[half:], vs[half:], ws[half:])
    drift = ctx.mpf(abs(slope1 - slope2) / -slope)

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
    s = orbit.s_n
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
    tail_terms = [ctx.make_mpf(t) for t in orbit.terms[-(RATIO_WINDOW + 1):]]
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
