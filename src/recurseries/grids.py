"""Geometric sample grids descending toward zero, and the table of f values
an analysis reads from them.

Grids are described by decimal strings so that two runs with the same
configuration regenerate bit-identical points at any working precision.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List

import mpmath

from .expr import (
    DEFAULT_PRECISION, EvalDomainError, FunctionDef, _digits, context, evaluator, parity,
)


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
    zero. The points from x_0 = 1 down to x_LATTICE_DEPTH = VALIDATION_FLOOR
    are cut from one list per precision (see _lattice); the others are
    computed per point.
    """

    start: str = "1e-2"
    floor: str = "1e-25"

    def points(self, ctx) -> List:
        start = ctx.mpf(self.start)
        floor = ctx.mpf(self.floor)
        if not (start > floor > 0):
            raise ValueError(
                f"grid from {self.start} down to {self.floor} needs start > floor > 0")
        lattice = _lattice_values(ctx)
        if lattice[0] >= start and floor >= lattice[-1]:
            # the first point at or below start and the last at or above
            # floor, found on the descending values by bisection
            first = bisect_left(lattice, True, key=lambda x: x <= start)
            last = bisect_left(lattice, True, key=lambda x: x < floor) - 1
        else:
            # lattice positions of start and floor, up to the rounding of
            # log10; an absurd span is refused before any point is generated
            top = -PER_DECADE * ctx.log10(start)
            bottom = -PER_DECADE * ctx.log10(floor)
            if not bottom - top < MAX_GRID_POINTS + 1:
                raise self._too_many()
            # the slack absorbs that rounding at a lattice point; a start
            # (floor) within it below (above) the point is settled by
            # comparing with the point's value
            slack = ctx.mpf("1e-9")
            first, last = int(ctx.ceil(top - slack)), int(ctx.floor(bottom + slack))
            first += _lattice_point(ctx, first) > start
            last -= _lattice_point(ctx, last) < floor
        off_lattice = _lattice_point(ctx, first) != start
        if last - first + off_lattice >= MAX_GRID_POINTS:
            raise self._too_many()
        # points above 1 and below VALIDATION_FLOOR lie outside the lattice's
        # values and are computed
        grid = ([_lattice_point(ctx, j) for j in range(first, min(last + 1, 0))]
                + lattice[max(first, 0):max(last + 1, 0)]
                + [_lattice_point(ctx, j) for j in range(max(first, LATTICE_DEPTH + 1), last + 1)])
        return [start] + grid if off_lattice else grid

    def _too_many(self) -> ValueError:
        return ValueError(f"grid from {self.start} down to {self.floor}"
                          f" needs more than {MAX_GRID_POINTS} points")


PROBE_GRID = GridSpec()

VALIDATION_FLOOR = "1e-30"
LATTICE_DEPTH = 30 * PER_DECADE  # the index of VALIDATION_FLOOR

# {binary precision: [x_0, ..., x_LATTICE_DEPTH] as mpf numbers}, made on
# first use: every grid at that precision, in every analysis, is cut from it.
# The numbers are those of the context that last asked at that precision,
# which is the shared context(precision) unless a caller brings its own
_lattice: Dict[int, List] = {}


def _lattice_point(ctx, j: int):
    """x_j as ctx's own mpf number, bit for bit ctx.power(10, ctx.mpf(-j) / PER_DECADE)."""
    if 0 <= j <= LATTICE_DEPTH:
        return _lattice_values(ctx)[j]
    return ctx.power(10, ctx.mpf(-j) / PER_DECADE)


def _lattice_values(ctx) -> List:
    """x_0, ..., x_LATTICE_DEPTH as ctx's own mpf numbers."""
    values = _lattice.get(ctx.prec)
    if values is None:
        values = [ctx.power(10, ctx.mpf(-j) / PER_DECADE) for j in range(LATTICE_DEPTH + 1)]
    elif type(values[0]) is not ctx.mpf:  # another context's, at the same bits
        values = [ctx.make_mpf(x._mpf_) for x in values]
    else:
        return values
    _lattice[ctx.prec] = values
    return values


def seed_grid(x0, ctx) -> GridSpec:
    """The grid from |x0|, the most an orbit that decays can reach, down to
    VALIDATION_FLOOR; a seed at or below it gets the decade below it instead.
    Its start is |x0| in digits that read back as |x0| bit for bit."""
    start = abs(ctx.convert(x0))
    text = _digits(start, ctx)
    if start > ctx.mpf(VALIDATION_FLOOR):
        return GridSpec(text, VALIDATION_FLOOR)
    return GridSpec(text, mpmath.nstr(start / 10, ctx.dps))


# extra bits for ln x and ln f(x): a*ln(x) then stays exact to the working
# precision for |a*ln(x)| below 2^LOG_GUARD_BITS, so exp(-a*ln x) is as
# accurate as ctx.power(x, -a)
LOG_GUARD_BITS = 32


class Samples:
    """The sample table of one analysis: f, the working precision and the two
    grids as every stage reads them. `seed` (seed_grid of x0) is where the
    hypotheses and the comparison rules sample, `probe` where the derivative
    and the limit probes do. f is compiled once, on the table's context,
    which is the one context(precision) every table at that precision
    shares; each grid is generated once, and f evaluated once per distinct
    point, or once per magnitude for an odd or even f (see raw).

    A point's entry is the raw f(x), as the compiled f returns it, or the
    EvalDomainError f raised there: `raw` returns it as kept, and `f`
    makes the mpf when it is read, or raises that error again. The mode and
    hypothesis checks read raw entries. ln x and ln f(x) are computed on
    first use per grid, for the limit probes. `compiled` is f itself, on raw
    values and without the table (see expr.evaluator); a short orbit calls
    it in a loop of its own, so that its points are not kept, and a long one
    runs f's statements in a loop compiled for it instead (see
    expr.orbit_loop). The table belongs to one analysis and is not shared
    between calls.
    """

    def __init__(self, f: FunctionDef, precision: int = DEFAULT_PRECISION,
                 x0="1", probe: GridSpec = PROBE_GRID):
        self.function = f
        self.precision = precision
        self.ctx = context(precision)
        self.compiled = evaluator(f, self.ctx)
        self.parity = parity(f.root)
        self.x0 = self.ctx.convert(x0)
        self.seed = seed_grid(self.x0, self.ctx)
        self.probe = probe
        # x._mpf_ (which hashes faster than x) -> raw f(x) or EvalDomainError
        self._values: Dict = {}
        self._points: Dict[GridSpec, List] = {}
        self._logs: Dict[GridSpec, List] = {}

    def points(self, grid: GridSpec) -> List:
        """The grid's points, generated once; callers must not modify them."""
        points = self._points.get(grid)
        if points is None:
            points = self._points[grid] = grid.points(self.ctx)
        return points

    def raw(self, x):
        """f(x) as the table keeps it, for an mpf x: the raw value (an mpf's
        _mpf_ tuple), or the EvalDomainError f raised at x, returned, not
        raised; evaluated on first use. For an odd or even f (see
        expr.parity), f(x) at x < 0 is f(-x), or its negation, wherever f(-x)
        is a regular value: f is evaluated once per magnitude there."""
        return self._raw(x._mpf_)

    def _raw(self, key):
        y = self._values.get(key)
        if y is None:
            if key[0] and key[1] and self.parity is not None:  # a regular x < 0
                y = self._raw((0,) + key[1:])
                if isinstance(y, tuple) and y[1]:
                    y = self._values[key] = (y[0] ^ self.parity,) + y[1:]
                    return y
            try:
                y = self.compiled(key)
            except EvalDomainError as err:
                y = err
            self._values[key] = y
        return y

    def f(self, x):
        """f(x) from the table for an mpf x, as an mpf, evaluated on first use."""
        y = self.raw(x)
        if isinstance(y, EvalDomainError):
            raise y
        return self.ctx.make_mpf(y)

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
                    f"f must be positive on the {'probe' if grid == self.probe else 'seed'}"
                    f" grid; f({mpmath.nstr(x, 12)}) = {mpmath.nstr(fx, 12)}"
                )
            values.append(fx)
        ctx = self.ctx
        # f itself stays at the working precision: it was evaluated above
        with ctx.extraprec(LOG_GUARD_BITS):
            rows = [(x, ctx.ln(x), ctx.ln(fx)) for x, fx in zip(points, values)]
        self._logs[grid] = rows
        return rows
