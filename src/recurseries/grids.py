"""Geometric sample grids descending toward zero, and the table of f values
an analysis reads from them.

Grids are described by decimal strings so that two runs with the same
configuration regenerate bit-identical points at any working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import mpmath

from .expr import DEFAULT_PRECISION, EvalDomainError, FunctionDef, context, evaluator


# the most points a grid may hold; the default grids hold 93 and 121
MAX_GRID_POINTS = 10_000
PER_DECADE = 4  # lattice points per decade


@dataclass(frozen=True)
class GridSpec:
    """The lattice points x_j = 10^(-j/PER_DECADE) in [floor, start], descending.

    A start between two lattice points is the grid's first point, followed
    by the lattice points below it: the grid never samples above its start,
    and two grids share every lattice point they overlap in. Quarter-decade
    steps give log-uniform coverage, which matches power-law behavior near
    zero.
    """

    start: str = "1e-2"
    floor: str = "1e-25"

    def points(self, ctx) -> List:
        start = ctx.mpf(self.start)
        floor = ctx.mpf(self.floor)
        if not (start > floor > 0):
            raise ValueError(
                f"grid from {self.start} down to {self.floor} needs start > floor > 0")
        # lattice positions of start and floor; the slack absorbs the
        # rounding of log10 at a lattice point
        slack = ctx.mpf("1e-9")
        top = -PER_DECADE * ctx.log10(start)
        first = ctx.ceil(top - slack)
        last = ctx.floor(-PER_DECADE * ctx.log10(floor) + slack)
        off_lattice = first - top > slack
        # an absurd span is refused before any point is generated
        if not last - first + off_lattice < MAX_GRID_POINTS:
            raise ValueError(
                f"grid from {self.start} down to {self.floor}"
                f" needs more than {MAX_GRID_POINTS} points"
            )
        lattice = _lattice_points(ctx, range(int(first), int(last) + 1))
        return [start] + lattice if off_lattice else lattice


PROBE_GRID = GridSpec()

VALIDATION_FLOOR = "1e-30"
LATTICE_DEPTH = 30 * PER_DECADE  # the index of VALIDATION_FLOOR

# {binary precision: {j: raw value (_mpf_) of x_j}} for 0 <= j <= LATTICE_DEPTH,
# filled on first use and at one precision at a time: every grid at that
# precision, in every analysis, is cut from it
_lattice: Dict[int, Dict[int, tuple]] = {}


def _lattice_points(ctx, indices: range) -> List:
    """x_j for j in indices as ctx's own mpf numbers, bit for bit
    ctx.power(10, ctx.mpf(-j) / PER_DECADE)."""
    raws = _lattice.get(ctx.prec)
    if raws is None:
        _lattice.clear()
        raws = _lattice[ctx.prec] = {}
    points = []
    for j in indices:
        raw = raws.get(j) or ctx.power(10, ctx.mpf(-j) / PER_DECADE)._mpf_
        if 0 <= j <= LATTICE_DEPTH:
            raws[j] = raw
        points.append(ctx.make_mpf(raw))
    return points


def seed_grid(x0, ctx) -> GridSpec:
    """The grid from |x0|, the most an orbit that decays can reach, down to
    VALIDATION_FLOOR; a seed at or below it gets the decade below it instead."""
    start = abs(ctx.convert(x0))
    if start > ctx.mpf(VALIDATION_FLOOR):
        return GridSpec(mpmath.nstr(start, ctx.dps), VALIDATION_FLOOR)
    return GridSpec(mpmath.nstr(start, ctx.dps), mpmath.nstr(start / 10, ctx.dps))


# extra bits for ln x and ln f(x): a*ln(x) then stays exact to the working
# precision for |a*ln(x)| below 2^LOG_GUARD_BITS, so exp(-a*ln x) is as
# accurate as ctx.power(x, -a)
LOG_GUARD_BITS = 32


class Samples:
    """The sample table of one analysis: f, the working precision and the two
    grids as every stage reads them. `seed` (seed_grid of x0) is where the
    hypotheses and the comparison rules sample, `probe` where the derivative
    and the limit probes do. f is compiled once, on the table's one context;
    each grid is generated once, and f evaluated once per distinct point.

    A point's entry is f(x) or the EvalDomainError f raised there; reading
    it raises that error again. ln x and ln f(x) are computed on first use
    per grid, for the limit probes. `compiled` is f itself, without the
    table: the orbit calls it, so that its points are not kept. The table
    belongs to one analysis and is not shared between calls.
    """

    def __init__(self, f: FunctionDef, precision: int = DEFAULT_PRECISION,
                 x0="1", probe: GridSpec = PROBE_GRID):
        self.function = f
        self.precision = precision
        self.ctx = context(precision)
        self.compiled = evaluator(f, self.ctx)
        self.x0 = self.ctx.convert(x0)
        self.seed = seed_grid(self.x0, self.ctx)
        self.probe = probe
        # x._mpf_ (which hashes faster than x) -> f(x) or EvalDomainError
        self._values: Dict = {}
        self._points: Dict[GridSpec, List] = {}
        self._logs: Dict[GridSpec, List] = {}

    def points(self, grid: GridSpec) -> List:
        """The grid's points, generated once; callers must not modify them."""
        points = self._points.get(grid)
        if points is None:
            points = self._points[grid] = grid.points(self.ctx)
        return points

    def f(self, x):
        """f(x) from the table for an mpf x, evaluated on first use."""
        key = x._mpf_
        y = self._values.get(key)
        if y is None:
            try:
                y = self.compiled(x)
            except EvalDomainError as err:
                y = err
            self._values[key] = y
        if isinstance(y, EvalDomainError):
            raise y
        return y

    def logs(self, grid: GridSpec) -> List:
        """(x, ln x, ln f(x)) at every grid point, kept at LOG_GUARD_BITS
        extra bits. Raises when f is not evaluable or not positive at some
        point; nothing is kept for the grid then."""
        rows = self._logs.get(grid)
        if rows is not None:
            return rows
        points = self.points(grid)
        values = []
        for x in points:
            fx = self.f(x)
            if not fx > 0:
                raise ValueError(
                    f"f must be positive on the probe grid; f({mpmath.nstr(x, 12)})"
                    f" = {mpmath.nstr(fx, 12)}"
                )
            values.append(fx)
        ctx = self.ctx
        # f itself stays at the working precision: it was evaluated above
        with ctx.extraprec(LOG_GUARD_BITS):
            rows = [(x, ctx.ln(x), ctx.ln(fx)) for x, fx in zip(points, values)]
        self._logs[grid] = rows
        return rows
