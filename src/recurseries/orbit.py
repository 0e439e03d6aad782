"""Orbit iteration x_{n+1} = f(x_n) with runtime hypothesis checks.

The decay hypotheses (0 < f(x) < x in positive mode, 0 < |f(x)| < |x| in
signed mode) are checked per step during iteration and can also be sampled
on a grid beforehand. Sampling is evidence, not proof; reports say so.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, TextIO, Tuple

import mpmath
from mpmath.libmp import fzero, mpf_abs, mpf_add, to_str

from .expr import EvalDomainError
from .grids import Samples

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
    recorded; the status carries the offending step instead. N is
    `last_index`, and terms[n] is x_n and partial_sums[n] is S_n for every
    n <= N. last_index defaults to len(terms) - 1.

    A streamed orbit handed its rows to a consumer as they were computed
    (see iterate) and keeps only the last one: terms is [x_N] and
    partial_sums is [S_N].
    """

    x0: object
    terms: List
    partial_sums: List
    status: OrbitStatus
    mode: Mode
    precision: int
    last_index: Optional[int] = None
    streamed: bool = False

    def __post_init__(self):
        if self.last_index is None:
            self.last_index = len(self.terms) - 1

    def require_every_index(self, reader: str) -> None:
        """Refuse a streamed orbit in a reader that needs every index."""
        if self.streamed:
            raise ValueError(
                f"{reader} needs every index, but the orbit keeps only its last row"
            )


@dataclass
class HypothesisReport:
    mode: Mode
    checked_grid: List
    violations: List[Tuple]  # (x, f(x) or the EvalDomainError f raised at x)
    passed: bool
    caveat: str = SAMPLING_CAVEAT


def _check(mode: Mode, x, y) -> bool:
    if mode is Mode.POSITIVE:
        return 0 < y < x
    return 0 < abs(y) < abs(x)


def _below(a, b) -> bool:
    """a < b for positive normalized raw values (sign 0, odd mantissa, bc its
    bit count), exactly as mpf_lt decides it: the top binary exponents
    exp + bc differ, or the mantissas aligned to the smaller exp decide.
    mpf_lt subtracts the two whenever their exponents meet, which neighbouring
    orbit terms do most of the time."""
    _, ma, ea, ba = a
    _, mb, eb, bb = b
    if ea + ba != eb + bb:
        return ea + ba < eb + bb
    if ea >= eb:
        return ma << (ea - eb) < mb
    return ma < mb << (eb - ea)


def _decays(size, bound) -> bool:
    """0 < size < bound for raw values, bound normalized and nonzero.

    Zero, inf and nan have mantissa 0 and a negative value has sign 1, so
    each of them fails here, as it fails mpf_lt(fzero, size) and
    mpf_lt(size, bound) (inf is above every finite bound). A negative bound
    (a negative seed in positive mode) fails every size."""
    return not size[0] and size[1] != 0 and not bound[0] and _below(size, bound)


def validate_hypotheses(table: Samples, mode: Mode = Mode.POSITIVE) -> HypothesisReport:
    """Sample the decay hypothesis on the table's seed grid.

    In signed mode every magnitude is checked at both signs. Evaluation
    domain errors count as violations, recorded with the error.
    """
    fn = table.f
    points = table.points(table.seed)
    if mode is Mode.SIGNED:
        signed_points = []
        for p in points:
            signed_points.extend((p, -p))
        points = signed_points
    violations = []
    for p in points:
        try:
            y = fn(p)
        except EvalDomainError as err:
            violations.append((p, err))
            continue
        if not _check(mode, p, y):
            violations.append((p, y))
    return HypothesisReport(mode, points, violations, passed=not violations)


def validated_region(report: HypothesisReport):
    """Largest magnitude M such that all sampled points with |x| <= M pass.

    Returns None when even the smallest sampled magnitude fails. The checked
    grid descends in magnitude (in signed mode as pairs p, -p), and the
    violations follow it, so the last one is the deepest.
    """
    if not report.violations:
        return abs(report.checked_grid[0])
    deepest = abs(report.violations[-1][0])
    for p in report.checked_grid:
        if abs(p) < deepest:
            return abs(p)
    return None


def iterate(
    table: Samples,
    x0,
    max_n: int = 10**6,
    floor="1e-40",
    mode: Mode = Mode.POSITIVE,
    thin: int = 1,
    rows: Optional[Callable] = None,
) -> Orbit:
    """Iterate x_{n+1} = f(x_n), with f as compiled in table, on its context,
    until the floor, the step limit, a zero value (underflow), or a per-step
    hypothesis violation.

    Without rows the orbit stores every row (n, x_n, S_n), so its memory is
    O(max_n). With rows, the rows at n = 0, thin, 2·thin, ... and at the
    last index go instead to rows(n, x_n, S_n), as mpf values, at the step
    that computes them; every step is still computed and checked. The orbit
    is then streamed: it keeps only its last row, so memory stays O(1) for
    any max_n and thin. thin > 1 needs rows."""
    ctx = table.ctx
    fn = table.compiled
    x0 = ctx.convert(x0)
    floor = ctx.convert(floor)
    if x0 == 0:
        raise ValueError("x0 must be nonzero")
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if not floor > 0:
        raise ValueError("floor must be positive")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if thin > 1 and rows is None:
        raise ValueError("a thinned orbit must be streamed: give rows")

    streamed = rows is not None
    if not streamed:
        terms, sums = [], []

        def rows(n, x, s):
            terms.append(x)
            sums.append(s)

    rows(0, x0, x0)
    if abs(x0) < floor:
        status = OrbitStatus(REACHED_FLOOR, 0)
        return Orbit(x0, [x0], [x0], status, mode, table.precision, 0, streamed)

    # The loop compares and sums the values inside the mpf numbers (their
    # _mpf_ tuples): the sum with mpf_add, the call mpf addition makes, and
    # the comparisons with _decays and _below, which decide as mpf_lt does.
    # In positive mode 0 < y is checked and y is rounded to the working
    # precision, so y is its own abs(y).
    prec, rnd = ctx._prec_rounding
    make_mpf = ctx.make_mpf
    positive = mode is Mode.POSITIVE
    floor = floor._mpf_
    x = x0
    bound = x0._mpf_ if positive else mpf_abs(x0._mpf_, prec, rnd)
    s = x0._mpf_
    last = 0
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
        if not _decays(size, bound):
            detail = (
                f"f(x) = {mpmath.nstr(y, 12)} breaks the decay bound"
                f" at x = {mpmath.nstr(x, 12)}"
            )
            status = OrbitStatus(HYPOTHESIS_VIOLATION, step, detail)
            break
        s = mpf_add(s, v, prec, rnd)
        x, bound, last = y, size, step
        if not step % thin:
            rows(step, y, make_mpf(s))
        if _below(size, floor):
            status = OrbitStatus(REACHED_FLOOR, step)
            break
    if status is None:
        status = OrbitStatus(MAX_ITERATIONS, max_n)
    s = make_mpf(s)
    if last % thin:
        rows(last, x, s)
    if streamed:
        terms, sums = [x], [s]
    return Orbit(x0, terms, sums, status, mode, table.precision, last, streamed)


CSV_HEADER = "n,x_n,S_n"


class CsvRows:
    """Writes an orbit's `n,x_n,S_n` CSV to out at full working precision:
    the header when made, then one row per call with mpf values, so an
    instance is a row consumer for iterate. `count` is the number of data
    rows written."""

    def __init__(self, out: TextIO, precision: int):
        out.write(CSV_HEADER + "\n")
        self._write = out.write
        self._digits = precision
        self.count = 0

    def __call__(self, n: int, x, s) -> None:
        # to_str is what mpmath.nstr calls for an mpf
        digits = self._digits
        self._write(f"{n},{to_str(x._mpf_, digits)},{to_str(s._mpf_, digits)}\n")
        self.count += 1


def write_csv(orbit: Orbit, out: TextIO, thin: int = 1) -> int:
    """Write `n,x_n,S_n` rows at full working precision.

    With thin = m only every m-th row is written; the final row is always
    kept so the summary line can be checked against the file. A streamed
    orbit has no rows to write. Returns the number of data rows written.
    """
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if orbit.streamed:
        raise ValueError("a streamed orbit keeps only its last row; its rows went"
                         " to the consumer iterate was given")
    row = CsvRows(out, orbit.precision)
    for n in range(0, orbit.last_index, thin):
        row(n, orbit.terms[n], orbit.partial_sums[n])
    row(orbit.last_index, orbit.terms[-1], orbit.partial_sums[-1])
    return row.count
