"""Orbit iteration x_{n+1} = f(x_n) with runtime hypothesis checks.

The decay hypotheses (0 < f(x) < x in positive mode, 0 < |f(x)| < |x| in
signed mode) are checked per step during iteration and can also be sampled
on a grid beforehand, both with the raw comparison _decays. Sampling is
evidence, not proof; reports say so. Partial sums add in fixed point, with
the bits of mpf addition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TextIO, Tuple

import mpmath
from mpmath.libmp import fzero, mpf_abs, mpf_add, to_str

from .expr import (
    STOP_DOMAIN, STOP_FLOOR, STOP_MAX_N, orbit_loop,
)
from .grids import Samples
from .kernels import _decays, _fixed, _sum

SAMPLING_CAVEAT = "grid sampling is evidence, not a proof"


class Mode(enum.Enum):
    POSITIVE = "positive"
    SIGNED = "signed"


# The step limit from which an orbit runs f's statements inline in its loop
# (see expr.orbit_loop); a shorter one calls the compiled f, in a loop
# compiled once for every f. The inline loop takes 1 to 2 ms to compile and
# saves 0.1 to 2 µs a step, so it pays from 1,000 to 10,000 steps on, 2,600
# in the median: measured on the corpus's f at precision 64 on a 2-vCPU x86
# machine.
INLINE_STEPS = 4096

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
    numbers.

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
    last_index: int
    streamed: bool = False

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


def validate_hypotheses(table: Samples, mode: Mode = Mode.POSITIVE) -> HypothesisReport:
    """Sample the decay hypothesis on the table's seed grid, with the raw
    comparison _decays that iterate makes, on the raw f(x) the table keeps
    (see Samples.raw); only a violation's f(x) is made an mpf.

    In signed mode every magnitude is checked at both signs. Evaluation
    domain errors count as violations, recorded with the error. The
    report's cut is the first point of the run at the bottom of the grid
    where f(x) == x at the working precision (|f(x)| == |x| at both signs
    of each magnitude, in signed mode), below at least two other points;
    those points are violations, and only the caller, which knows whether
    |f| < |x| holds near 0, can read them as a precision limit.
    """
    raw = table.raw
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
        y = raw(p)
        if not isinstance(y, tuple):  # the EvalDomainError f raised at p
            violations.append((p, y))
            flat = 0
            continue
        size, bound = y, p._mpf_
        if mode is Mode.SIGNED:
            size, bound = mpf_abs(size, prec, rnd), mpf_abs(bound, prec, rnd)
        if not _decays(size, bound):
            violations.append((p, table.ctx.make_mpf(y)))
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


def _no_decay(v, x, step: int, positive: bool, ctx) -> OrbitStatus:
    """The status of an orbit stopped at step by v = f(x), raw values, which
    does not decay."""
    if v == fzero:
        return OrbitStatus(UNDERFLOW, step, "f returned exactly 0")
    prec, rnd = ctx._prec_rounding
    size, bound = (v, x) if positive else (mpf_abs(v, prec, rnd), mpf_abs(x, prec, rnd))
    if size == bound:
        what = "f(x) rounds to x" if positive else "|f(x)| rounds to |x|"
        detail = (f"{what} = {mpmath.nstr(ctx.make_mpf(bound), 12)} at the working"
                  " precision (a fixed point or a precision limit)")
    else:
        detail = (f"f(x) = {mpmath.nstr(ctx.make_mpf(v), 12)} breaks the decay bound"
                  f" at x = {mpmath.nstr(ctx.make_mpf(x), 12)}")
    return OrbitStatus(HYPOTHESIS_VIOLATION, step, detail)


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

    The orbit runs as one compiled loop (see expr.orbit_loop): the decay
    test and the partial sum on the fields of the raw values, with the bits
    of calling the table's compiled f, of _decays and of mpf addition at
    every step. From max_n = INLINE_STEPS on, each call compiles a loop
    written for f (table.function), with f's statements inline, which does
    not call table.compiled; below it the loop calls table.compiled once
    per step, and is compiled once per precision, mode and streaming for
    every f.

    Without rows the orbit stores every x_n as a raw value, so its memory is
    O(max_n). With rows, the rows at n = 0, thin, 2·thin, ... and at the
    last index go instead to rows(n, x_n, S_n), as mpf values, at the step
    that computes them; every step is still computed and checked. The orbit
    is then streamed: it keeps only its last row, so memory stays O(1) for
    any max_n and thin. thin > 1 needs rows. S_n is summed in fixed point
    while positive, with the bits of mpf addition, and becomes an mpf only
    for a row and at the end."""
    ctx = table.ctx
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
    # tuples), on their fields (see expr.orbit_loop). A positive S_n is
    # summed in fixed point, as acc * 2^e (see kernels._fixed and
    # kernels.SUM).
    prec = ctx.prec
    make_mpf = ctx.make_mpf
    positive = mode is Mode.POSITIVE
    x = s = x0._mpf_
    terms = None if streamed else [x]
    acc, e = _fixed(s, prec)
    loop = orbit_loop(table.function if max_n >= INLINE_STEPS else None, ctx, positive, streamed)
    stop, step, what, x, s, acc, e = loop(
        table.compiled, make_mpf, x, s, acc, e, max_n + 1, floor._mpf_,
        rows if streamed else terms.append, thin)
    last = step
    if stop == STOP_MAX_N:
        status = OrbitStatus(MAX_ITERATIONS, max_n)
    elif stop == STOP_FLOOR:
        status = OrbitStatus(REACHED_FLOOR, step)
    elif stop == STOP_DOMAIN:
        last, status = step - 1, OrbitStatus(HYPOTHESIS_VIOLATION, step, str(what))
    else:
        last, status = step - 1, _no_decay(what, x, step, positive, ctx)
    x_n, s_n = make_mpf(x), make_mpf(_sum(s, acc, e, prec))
    if streamed:
        if last % thin:
            rows(last, x_n, s_n)
        terms = [x]
    return Orbit(x0, terms, x_n, s_n, status, mode, table.precision, last, streamed)


CSV_HEADER = "n,x_n,S_n"


# log2(10) as libmp's to_digits_exp computes it
_LOG2_10 = math.log(10, 2)


class _Decimal:
    """libmp.to_str(raw, dps), what mpmath.nstr calls for an mpf, bit for
    bit. A regular raw value of magnitude |exp + bc| <= 3500 takes the steps
    of to_digits_exp at dps + 3 digits, with the powers of 10 that it
    multiplies by kept, then to_str's round-up of the digits past dps, its
    fixed or exponent layout and its stripped zeros. Any other value goes to
    to_str."""

    def __init__(self, dps: int):
        self.dps = dps
        self.bits = int((dps + 3) * _LOG2_10) + 10  # to_digits_exp's bitprec
        self.min_fixed = min(-(dps // 3), -5)
        self.powers: Dict[int, int] = {}

    def __call__(self, raw) -> str:
        sign, man, exp, bc = raw
        dps = self.dps
        if not man or abs(exp + bc) > 3500 or dps < 1:
            return to_str(raw, dps)
        # |raw| in fixed point at fixprec bits, times 10^fixdps, floored
        fixprec = max(self.bits - exp - bc, 0)
        fixdps = int(fixprec / _LOG2_10 + 0.5)
        power = self.powers.get(fixdps)
        if power is None:
            power = self.powers[fixdps] = 10 ** fixdps
        shift = exp + fixprec
        digits = str(((man << shift) if shift >= 0 else (man >> -shift)) * power >> fixprec)
        exponent = len(digits) - fixdps - 1
        if len(digits) > dps and digits[dps] in "56789":
            kept = digits[:dps].rstrip("9")
            if kept:
                digits = kept[:-1] + str(int(kept[-1]) + 1) + "0" * (dps - len(kept))
            else:
                digits, exponent = "1" + "0" * (dps - 1), exponent + 1
        else:
            digits = digits[:dps]
        split = 1
        if self.min_fixed < exponent < dps:
            if exponent < 0:
                digits = "0" * -exponent + digits
            else:
                split = exponent + 1
            exponent = 0
        digits = (digits[:split] + "." + digits[split:]).rstrip("0")
        if digits[-1] == ".":
            digits += "0"
        text = "-" + digits if sign else digits
        if not exponent:
            return text
        return f"{text}e+{exponent}" if exponent > 0 else f"{text}e{exponent}"


class CsvRows:
    """Writes an orbit's `n,x_n,S_n` CSV to out at full working precision:
    the header when made, then one row per call with mpf values, so an
    instance is a row consumer for iterate. `count` is the number of data
    rows written. The values are as mpmath.nstr writes them."""

    def __init__(self, out: TextIO, precision: int):
        out.write(CSV_HEADER + "\n")
        self._write = out.write
        self._text = _Decimal(precision)
        self.count = 0

    def __call__(self, n: int, x, s) -> None:
        text = self._text
        self._write(f"{n},{text(x._mpf_)},{text(s._mpf_)}\n")
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
