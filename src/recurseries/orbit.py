"""Orbit iteration x_{n+1} = f(x_n) with runtime hypothesis checks.

The decay hypotheses (0 < f(x) < x in positive mode, 0 < |f(x)| < |x| in
signed mode) are checked per step during iteration and can also be sampled
on a grid beforehand. Sampling is evidence, not proof; reports say so.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, TextIO, Tuple

import mpmath
from mpmath.libmp import fzero, mpf_abs, mpf_add, mpf_lt

from .expr import DEFAULT_PRECISION, EvalDomainError, FunctionDef, context, evaluator
from .grids import GridSpec, Samples, validation_grid

SAMPLING_CAVEAT = "grid sampling is evidence, not a proof"


class Mode(enum.Enum):
    POSITIVE = "positive"
    SIGNED = "signed"


REACHED_FLOOR = "reached_floor"
MAX_ITERATIONS = "max_iterations"
HYPOTHESIS_VIOLATION = "hypothesis_violation"
UNDERFLOW = "underflow"


@dataclass(frozen=True)
class OrbitStatus:
    kind: str
    step: Optional[int] = None
    detail: Optional[str] = None

    def describe(self) -> str:
        if self.detail:
            return f"{self.kind} at step {self.step}: {self.detail}"
        if self.step is not None:
            return f"{self.kind} at step {self.step}"
        return self.kind


@dataclass
class Orbit:
    """Trajectory x0, x1, ..., x_N with running partial sums.

    A term that violates the hypotheses (or is exactly zero) is never
    recorded; the status carries the offending step instead.
    """

    x0: object
    terms: List
    partial_sums: List
    status: OrbitStatus
    mode: Mode
    precision: int

    @property
    def last_index(self) -> int:
        return len(self.terms) - 1


@dataclass
class HypothesisReport:
    mode: Mode
    checked_grid: List
    violations: List[Tuple]  # (x, f(x) or None on evaluation error)
    passed: bool
    caveat: str = SAMPLING_CAVEAT


def _check(mode: Mode, x, y) -> bool:
    if mode is Mode.POSITIVE:
        return 0 < y < x
    return 0 < abs(y) < abs(x)


def validate_hypotheses(
    f: FunctionDef | Samples,
    mode: Mode = Mode.POSITIVE,
    grid: Optional[GridSpec] = None,
    precision: int = DEFAULT_PRECISION,
) -> HypothesisReport:
    """Sample the decay hypothesis on a geometric grid.

    f is a FunctionDef or an analysis's sample table, which carries its own
    precision. In signed mode every magnitude is checked at both signs.
    Evaluation domain errors count as violations (recorded with value None).
    """
    table = Samples.of(f, precision)
    fn = table.f
    points = table.points(grid or validation_grid())
    if mode is Mode.SIGNED:
        signed_points = []
        for p in points:
            signed_points.extend((p, -p))
        points = signed_points
    violations = []
    for p in points:
        try:
            y = fn(p)
        except EvalDomainError:
            violations.append((p, None))
            continue
        if not _check(mode, p, y):
            violations.append((p, y))
    return HypothesisReport(mode, points, violations, passed=not violations)


def validated_region(report: HypothesisReport):
    """Largest magnitude M such that all sampled points with |x| <= M pass.

    Returns None when even the smallest sampled magnitude fails.
    """
    bad = {abs(x) for x, _ in report.violations}
    top = None
    for m in sorted({abs(p) for p in report.checked_grid}):
        if m in bad:
            break
        top = m
    return top


def iterate(
    f: FunctionDef,
    x0,
    max_n: int = 10**6,
    floor="1e-40",
    mode: Mode = Mode.POSITIVE,
    precision: int = DEFAULT_PRECISION,
) -> Orbit:
    """Iterate x_{n+1} = f(x_n) until the floor, the step limit, a zero
    value (underflow), or a per-step hypothesis violation."""
    ctx = context(precision)
    fn = evaluator(f, ctx)
    x0 = ctx.convert(x0)
    floor = ctx.convert(floor)
    if x0 == 0:
        raise ValueError("x0 must be nonzero")
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if not floor > 0:
        raise ValueError("floor must be positive")

    terms = [x0]
    sums = [x0]
    if abs(x0) < floor:
        return Orbit(x0, terms, sums, OrbitStatus(REACHED_FLOOR, 0), mode, precision)

    # The loop compares and sums the values inside the mpf numbers (their
    # _mpf_ tuples) with the libmp calls the mpf operators make, so each
    # decision and partial sum is the one mpf arithmetic gives. In positive
    # mode 0 < y is checked and y is rounded to the working precision, so
    # y is its own abs(y).
    prec, rnd = ctx._prec_rounding
    make_mpf = ctx.make_mpf
    positive = mode is Mode.POSITIVE
    floor = floor._mpf_
    x = x0
    bound = x0._mpf_ if positive else mpf_abs(x0._mpf_, prec, rnd)
    s = x0._mpf_
    status = None
    for step in range(1, max_n + 1):
        try:
            y = fn(x)
        except EvalDomainError as err:
            status = OrbitStatus(HYPOTHESIS_VIOLATION, step, str(err))
            break
        v = y._mpf_
        if v == fzero:
            status = OrbitStatus(UNDERFLOW, step, "f returned exactly 0")
            break
        size = v if positive else mpf_abs(v, prec, rnd)
        if not (mpf_lt(fzero, size) and mpf_lt(size, bound)):
            detail = (
                f"f(x) = {mpmath.nstr(y, 12)} breaks the decay bound"
                f" at x = {mpmath.nstr(x, 12)}"
            )
            status = OrbitStatus(HYPOTHESIS_VIOLATION, step, detail)
            break
        terms.append(y)
        s = mpf_add(s, v, prec, rnd)
        sums.append(make_mpf(s))
        x, bound = y, size
        if mpf_lt(size, floor):
            status = OrbitStatus(REACHED_FLOOR, step)
            break
    if status is None:
        status = OrbitStatus(MAX_ITERATIONS, max_n)
    return Orbit(x0, terms, sums, status, mode, precision)


def partial_sum(orbit: Orbit):
    """S_N, the last partial sum; summation order is index-ascending."""
    if not orbit.partial_sums:
        raise ValueError("orbit is empty")
    return orbit.partial_sums[-1]


def tail_bound_geometric(orbit: Orbit, c, window: int = 8):
    """Upper bound x_N * c / (1 - c) for the tail beyond the last term.

    Requires every ratio |x_{n+1}| / |x_n| over the last `window` recorded
    steps to be at most c. The bound assumes the ratio stays below c, so it
    is a heuristic, not a certificate.
    """
    ctx = context(orbit.precision)
    c = ctx.convert(c)
    if not 0 < c < 1:
        raise ValueError("ratio c must lie in (0, 1)")
    if len(orbit.terms) < 2:
        raise ValueError("need at least two terms to check ratios")
    tail = orbit.terms[-(window + 1):]
    for a, b in zip(tail, tail[1:]):
        ratio = abs(b) / abs(a)
        if ratio > c:
            raise ValueError(
                f"recent ratio {mpmath.nstr(ratio, 12)} exceeds c = {mpmath.nstr(c, 12)}"
            )
    return abs(orbit.terms[-1]) * c / (1 - c)


CSV_HEADER = "n,x_n,S_n"


def write_csv(orbit: Orbit, out: TextIO, thin: int = 1) -> int:
    """Write `n,x_n,S_n` rows at full working precision.

    With thin = m only every m-th row is written; the final row is always
    kept so the summary line can be checked against the file. Returns the
    number of data rows written.
    """
    if thin < 1:
        raise ValueError("thin must be at least 1")
    digits = orbit.precision
    last = orbit.last_index
    rows = range(0, last, thin)
    out.write(CSV_HEADER + "\n")
    for n in chain(rows, [last]):
        x, s = orbit.terms[n], orbit.partial_sums[n]
        out.write(f"{n},{mpmath.nstr(x, digits)},{mpmath.nstr(s, digits)}\n")
    return len(rows) + 1
