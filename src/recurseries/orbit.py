"""Orbit iteration x_{n+1} = f(x_n) with runtime hypothesis checks.

The decay hypotheses (0 < f(x) < x in positive mode, 0 < |f(x)| < |x| in
signed mode) are checked per step during iteration and can also be sampled
on a grid beforehand, both with the raw comparison _decays. Sampling is
evidence, not proof; reports say so. Partial sums add in fixed point, with
the bits of mpf addition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, TextIO, Tuple

import mpmath
from mpmath.libmp import fzero, mpf_abs, mpf_add, normalize, round_nearest, to_str

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
    """Trajectory x0, x1, ..., x_N and its sum S_N = x0 + ... + x_N.

    A term that violates the hypotheses (or is exactly zero) is never
    recorded; the status carries the offending step instead. N is
    `last_index`, and terms[n] is the raw value (an mpf's _mpf_ tuple) of
    x_n for every n <= N. x_n and s_n are the last row, x_N and S_N, as mpf
    numbers. last_index defaults to len(terms) - 1.

    A streamed orbit handed its rows to a consumer as they were computed
    (see iterate) and keeps only the last one: terms is [x_N].
    """

    x0: object
    terms: List
    x_n: object
    s_n: object
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
    cut: Optional[object] = None  # the first point of the run where f(x) rounds to x


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


def _fixed(s, prec):
    """(acc, e) with s = acc * 2^e and 2^(prec-1) <= acc < 2^prec for a
    positive raw value s of at most prec bits; (None, None) for any other."""
    sign, man, exp, bc = s
    if sign or not man or bc > prec:
        return None, None
    return man << (prec - bc), exp - (prec - bc)


def _sum(s, acc, e, prec):
    """The raw partial sum: acc * 2^e while acc holds it, else s."""
    return s if acc is None else normalize(0, acc, e, prec, prec, round_nearest)


def validate_hypotheses(table: Samples, mode: Mode = Mode.POSITIVE) -> HypothesisReport:
    """Sample the decay hypothesis on the table's seed grid, with the raw
    comparison _decays that iterate makes.

    In signed mode every magnitude is checked at both signs. Evaluation
    domain errors count as violations, recorded with the error. The
    report's cut is the first point of the run at the bottom of the grid
    where f(x) == x at the working precision (|f(x)| == |x| at both signs
    of each magnitude, in signed mode), below at least two other points;
    those points are violations, and only the caller, which knows whether
    |f| < |x| holds near 0, can read them as a precision limit.
    """
    fn = table.f
    points = table.points(table.seed)
    if mode is Mode.SIGNED:
        signed_points = []
        for p in points:
            signed_points.extend((p, -p))
        points = signed_points
    prec, rnd = table.ctx._prec_rounding
    violations = []
    flat = 0  # how many of the points so far, counted from the last, have f(x) == x
    for p in points:
        try:
            y = fn(p)
        except EvalDomainError as err:
            violations.append((p, err))
            flat = 0
            continue
        size, bound = y._mpf_, p._mpf_
        if mode is Mode.SIGNED:
            size, bound = mpf_abs(size, prec, rnd), mpf_abs(bound, prec, rnd)
        if not _decays(size, bound):
            violations.append((p, y))
        flat = flat + 1 if size == bound else 0
    if mode is Mode.SIGNED:
        flat -= flat % 2  # whole pairs p, -p
    cut = None
    if flat and len(points) - flat >= 2:
        cut = points[-flat]
    return HypothesisReport(mode, points, violations, passed=not violations, cut=cut)


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

    Without rows the orbit stores every x_n as a raw value, so its memory is
    O(max_n). With rows, the rows at n = 0, thin, 2·thin, ... and at the
    last index go instead to rows(n, x_n, S_n), as mpf values, at the step
    that computes them; every step is still computed and checked. The orbit
    is then streamed: it keeps only its last row, so memory stays O(1) for
    any max_n and thin. thin > 1 needs rows. S_n is summed in fixed point
    while positive, with the bits of mpf addition, and becomes an mpf only
    for a row and at the end."""
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
    if streamed:
        rows(0, x0, x0)
    if abs(x0) < floor:
        status = OrbitStatus(REACHED_FLOOR, 0)
        return Orbit(x0, [x0._mpf_], x0, x0, status, mode, table.precision, 0, streamed)

    # The loop runs on the values inside the mpf numbers (their _mpf_
    # tuples), which f maps to its own, and compares them with _decays and
    # _below, which decide as mpf_lt does. In positive mode 0 < y is checked
    # and y is rounded to the working precision, so y is its own abs(y).
    #
    # A positive S_n is acc * 2^e with 2^(prec-1) <= acc < 2^prec, 2^e its
    # ulp. A positive x_n is added rounded to nearest-even at 2^e; a total
    # below 2^prec keeps that ulp, so it is the correctly rounded sum that
    # mpf_add (mpf addition) returns at round-nearest, every context()'s
    # rounding. A carry, a negative x_n or a sum not positive takes mpf_add.
    # A left shift stays under 2·prec bits: S_n is a nonzero multiple of the
    # ulp of an earlier term, above x_n and of at most prec bits.
    prec, rnd = ctx._prec_rounding
    make_mpf = ctx.make_mpf
    positive = mode is Mode.POSITIVE
    floor = floor._mpf_
    x = s = x0._mpf_
    terms = None if streamed else [x]
    bound = x if positive else mpf_abs(x, prec, rnd)
    acc, e = _fixed(s, prec)
    top = 1 << prec
    last = 0
    status = None
    for step in range(1, max_n + 1):
        try:
            v = fn(x)
        except EvalDomainError as err:
            status = OrbitStatus(HYPOTHESIS_VIOLATION, step, str(err))
            break
        if v == fzero:
            status = OrbitStatus(UNDERFLOW, step, "f returned exactly 0")
            break
        size = v if positive else mpf_abs(v, prec, rnd)
        if not _decays(size, bound):
            detail = (
                f"f(x) = {mpmath.nstr(make_mpf(v), 12)} breaks the decay bound"
                f" at x = {mpmath.nstr(make_mpf(x), 12)}"
            )
            status = OrbitStatus(HYPOTHESIS_VIOLATION, step, detail)
            break
        total = top
        if acc is not None and not v[0]:
            _, man, exp, bc = v
            shift = e - exp
            if shift <= 0:
                total = acc + (man << -shift)
            elif shift <= bc:
                total = acc + (man >> shift)
                rest, half = man & ((1 << shift) - 1), 1 << (shift - 1)
                if rest > half or rest == half and total & 1:
                    total += 1
            else:  # x_n is below half an ulp
                total = acc
        if total < top:
            acc = total
        else:
            s = mpf_add(_sum(s, acc, e, prec), v, prec, rnd)
            acc, e = _fixed(s, prec)
        x, bound, last = v, size, step
        if terms is not None:
            terms.append(v)
        elif not step % thin:
            rows(step, make_mpf(v), make_mpf(_sum(s, acc, e, prec)))
        if _below(size, floor):
            status = OrbitStatus(REACHED_FLOOR, step)
            break
    if status is None:
        status = OrbitStatus(MAX_ITERATIONS, max_n)
    x_n, s_n = make_mpf(x), make_mpf(_sum(s, acc, e, prec))
    if streamed:
        if last % thin:
            rows(last, x_n, s_n)
        terms = [x]
    return Orbit(x0, terms, x_n, s_n, status, mode, table.precision, last, streamed)


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
    kept so the summary line can be checked against the file. S_n is the
    left fold of mpf addition over x_0, ..., x_n, which is the sum iterate
    keeps, bit for bit. A streamed orbit has no rows to write. Returns the
    number of data rows written.
    """
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if orbit.streamed:
        raise ValueError("a streamed orbit keeps only its last row; its rows went"
                         " to the consumer iterate was given")
    ctx = orbit.x0.context
    prec, rnd = ctx._prec_rounding
    row = CsvRows(out, orbit.precision)
    s = orbit.terms[0]
    for n, x in enumerate(orbit.terms):
        if n:
            s = mpf_add(s, x, prec, rnd)
        if not n % thin or n == orbit.last_index:
            row(n, ctx.make_mpf(x), ctx.make_mpf(s))
    return row.count
