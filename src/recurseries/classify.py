"""Convergence rules for series with recursively defined terms.

Each criterion is an explicit rule producing a Verdict that names the rule
and its numeric witnesses. `analyze` runs five stages in order: the mode
and the seed; the germs of f at 0, whose exact terms or envelopes decide
when they can; the hypotheses; the sampled rules, only when the germs
decide nothing; and the orbit cross-check.

Every stage reads f from one sample table per analysis (`Samples`), which
also fixes the working precision and its one context: f is compiled once,
each grid generated once as a slice of one lattice, and f evaluated once per
distinct point; the limit probes and the exponent read share its ln-values,
and the orbit runs the table's compiled f. The table only avoids repeated
work: every check is still sampling evidence on the grid, not a proof.

Numeric limits are declared by a fixed-window stabilization rule: the tail
of a sample sequence on the geometric grid counts as a limit when its
spread is below tolerance; a one-directional tail is extrapolated with a
single Richardson-style step; anything else counts as oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, Optional, Tuple

import mpmath
from mpmath.libmp import from_rational

from .estimate import (
    AsymptoticFit,
    MIN_WINDOW_TERMS,
    SumEstimate,
    fit_power_law,
    sum_estimate,
)
from .expr import (
    EvalDomainError,
    FunctionDef,
    context,
    evaluator,  # bench/tracer.py counts compiles through this binding too
    parse,
    parse_constant,
)
from .germ import Germ, Interval, contracts, expand, high, low, reflect
from .grids import PER_DECADE, Samples
from .orbit import (
    HYPOTHESIS_VIOLATION,
    HypothesisReport,
    Mode,
    Orbit,
    iterate,
    validate_hypotheses,
    validated_region,
)

# stabilization rule constants
STABLE_WINDOW = 8
REL_TOL = "1e-6"
ABS_TOL = "1e-30"
ZERO_FRACTION = "0.3"  # extrapolated limit below this share of the tail value counts as zero

# rule margins
DERIVATIVE_MARGIN = "1e-4"
EXPONENT_MARGIN = "1e-4"
ABS_BOUND_MARGIN = "1e-4"

# cap on the empirical cross-check orbit
CROSS_CHECK_N = 10**4

# exponent search
SEARCH_RANGE = ("0.01", "4")
SNAP_TOLERANCE = "1e-5"  # relative; a tenth of EXPONENT_MARGIN, so no snap moves a verdict
CONFIRM_REL_TOL = "1e-3"
CANCELLATION_HEADROOM = 12
SNAP_MAX_DENOMINATOR = 24

# comparison band: by Bernoulli's inequality inf L_a > 0 on (0, x0 <= 1]
# carries over to every larger a < 1, so one majorant exponent is enough;
# the minorant sits as far above 1, leaving decay exponents near 1 open
MAJORANT_A = "0.9"
MINORANT_A = "1.1"
SNAP_SLACK = "0.05"
TREND_SLACK = "0.01"  # largest slope of ln(per-decade extreme) against ln x

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

DERIVATIVE_RULE = "DerivativeRule"
LIMIT_EXPONENT_RULE = "LimitExponentRule"
MAJORANT_RULE = "MajorantRule"
MINORANT_RULE = "MinorantRule"
ALTERNATING_RULE = "AlternatingRule"
ABSOLUTE_BOUND_RULE = "AbsoluteBoundRule"

ALTERNATES = "terms alternate in sign with decreasing magnitudes"

VALUE = "value"
DNE = "dne"
OUT_OF_RANGE = "out_of_range"

FINITE_NONZERO = "finite_nonzero"
TENDS_TO_ZERO = "tends_to_zero"
TENDS_TO_INFINITY = "tends_to_infinity"
OSCILLATES = "oscillates"


class PrecisionGuardError(ArithmeticError):
    """Raised instead of returning noise when cancellation eats the digits."""


class AnalysisError(ValueError):
    """The pipeline cannot proceed (bad seed, failed hypotheses, ...)."""


@dataclass
class Verdict:
    conclusion: str
    rule: Optional[str]
    witnesses: dict
    notes: List[str]

    def __post_init__(self):
        if (self.conclusion == INCONCLUSIVE) != (self.rule is None):
            raise ValueError("inconclusive verdicts carry no rule, decisive ones must")


@dataclass
class DerivativeEstimate:
    """Estimate of f'(0) from samples of f(x)/x on a descending grid, or its
    exact value from f's germ at 0, which reads no samples.

    kind is "value" when the sample tail stabilizes, "dne" with the observed
    band [band_low, band_high] when it does not, or "out_of_range" when a
    stable value contradicts the decay hypotheses. Read from f's envelopes
    at 0, with no samples, "dne" carries the exact band that holds f(x)/x
    near 0 (on both sides, in signed mode).
    """

    kind: str
    c: Optional[object]
    band: Optional[Tuple]
    samples: List[Tuple]


@dataclass
class LimitProbe:
    """Samples of the quotient (x^a - f(x)^a) / (x^a * f(x)^a) and their
    classified tail behavior; L is set for the finite_nonzero verdict and
    `stabilized` records whether it came from a stable window rather than
    extrapolation."""

    a: object
    samples: List[Tuple]
    verdict: str
    L: Optional[object]
    stabilized: bool


@dataclass
class ExponentSearchResult:
    found: bool
    fit: Optional[AsymptoticFit]
    probe: Optional[LimitProbe]
    note: str


@dataclass(frozen=True)
class MajorantSpec:
    """A dominating function m whose series converges.

    family "linear" is c*x with 0 < c < 1; family "powerlaw" is
    x / (1 + c*x^a)^(1/a) with 0 < a < 1, c > 0; family "user" wraps an
    arbitrary expression and needs a monotonicity check plus a separate
    convergence certificate before it can be used.
    """

    family: str
    label: str
    fn: FunctionDef
    c_text: Optional[str] = None
    a_text: Optional[str] = None

    @staticmethod
    def linear(c_text: str, ctx) -> "MajorantSpec":
        c = parse_constant(c_text, ctx)
        if not 0 < c < 1:
            raise ValueError("linear majorant needs c in (0, 1)")
        return MajorantSpec("linear", f"linear:{c_text}", parse(f"({c_text}) * x"), c_text=c_text)

    @staticmethod
    def powerlaw(a_text: str, c_text: str, ctx) -> "MajorantSpec":
        a = parse_constant(a_text, ctx)
        c = parse_constant(c_text, ctx)
        if not 0 < a < 1:
            raise ValueError("powerlaw majorant needs a in (0, 1)")
        if not c > 0:
            raise ValueError("powerlaw majorant needs c > 0")
        fn = parse(f"x / (1 + ({c_text}) * x ^ ({a_text})) ^ (1 / ({a_text}))")
        return MajorantSpec(
            "powerlaw", f"powerlaw:a={a_text},c={c_text}", fn, c_text=c_text, a_text=a_text
        )

    @staticmethod
    def user(fdef: FunctionDef) -> "MajorantSpec":
        return MajorantSpec("user", f"fn:{fdef.source_text}", fdef)


def _classify_tail(values, ctx, rel_tol):
    """Classify the tail of a sample sequence ordered toward the limit, over
    its last STABLE_WINDOW values.

    Returns (kind, value): ("stable", median), ("stable_zero", median)
    when only the absolute tolerance ABS_TOL holds (the window sits at zero
    scale), ("finite", extrapolated), ("to_zero", None), ("to_infinity",
    None), or ("oscillates", None).
    """
    if len(values) < 2 * STABLE_WINDOW:
        raise ValueError(f"need at least {2 * STABLE_WINDOW} samples for the stabilization rule")
    tail = values[-STABLE_WINDOW:]
    median = sorted(tail)[STABLE_WINDOW // 2]
    spread = max(tail) - min(tail)
    if spread < rel_tol * abs(median):
        return "stable", median
    if spread < ctx.mpf(ABS_TOL):
        return "stable_zero", median
    t2 = values[-2 * STABLE_WINDOW:]
    steps = [b - a for a, b in zip(t2, t2[1:])]
    increasing = all(s > 0 for s in steps)
    decreasing = all(s < 0 for s in steps)
    if not (increasing or decreasing):
        return "oscillates", None
    rho = steps[-1] / steps[-2]
    if rho >= 1:
        if increasing:
            return "to_infinity", None
        return "oscillates", None
    limit = t2[-1] + steps[-1] * rho / (1 - rho)
    if decreasing and limit < ctx.mpf(ZERO_FRACTION) * t2[-1]:
        return "to_zero", None
    return "finite", limit


def estimate_derivative_at_zero(table: Samples, mode: Mode = Mode.POSITIVE) -> DerivativeEstimate:
    """Sample f(x)/x on the table's probe grid, descending toward zero.

    A stable tail gives Value(c); anything else gives the observed band
    over all samples, which is always reportable. A stable c outside the
    admissible range (0 <= c < 1 in positive mode, |c| < 1 in signed mode,
    up to margin) is flagged out_of_range.
    """
    ctx = table.ctx
    margin = ctx.mpf(DERIVATIVE_MARGIN)
    samples = [(x, table.f(x) / x) for x in table.points(table.probe)]
    values = [v for _, v in samples]
    kind, value = _classify_tail(values, ctx, ctx.mpf(REL_TOL))
    if kind in ("stable", "stable_zero"):
        c = value
        if mode is Mode.POSITIVE:
            bad = c < -margin or c > 1 + margin
        else:
            bad = abs(c) > 1 + margin
        if bad:
            return DerivativeEstimate(OUT_OF_RANGE, c, None, samples)
        return DerivativeEstimate(VALUE, c, None, samples)
    return DerivativeEstimate(DNE, None, (min(values), max(values)), samples)


def derivative_rule(est: DerivativeEstimate) -> Verdict:
    """Convergent when f'(0) = c is clearly below 1; route onward otherwise.

    This rule never concludes divergence: c = 1 is exactly the regime the
    limit-exponent rule decides, and an unstable derivative leaves the
    majorant comparison as the remaining tool.
    """
    margin = mpmath.mpf(DERIVATIVE_MARGIN)
    if est.kind == OUT_OF_RANGE:
        return Verdict(
            INCONCLUSIVE,
            None,
            {},
            [
                f"estimated derivative c = {mpmath.nstr(est.c, 12)} contradicts the"
                " decay hypotheses (expected 0 <= c < 1); check the function"
            ],
        )
    if est.kind == DNE:
        lo, hi = est.band
        return Verdict(
            INCONCLUSIVE,
            None,
            {},
            [
                "derivative at zero does not stabilize; observed band"
                f" [{mpmath.nstr(lo, 12)}, {mpmath.nstr(hi, 12)}]",
                "route: majorant comparison",
            ],
        )
    c = est.c
    if c < -margin:
        return Verdict(
            INCONCLUSIVE,
            None,
            {},
            ["negative derivative at zero; use the signed-mode analysis"],
        )
    if abs(c - 1) <= margin:
        return Verdict(
            INCONCLUSIVE,
            None,
            {},
            [
                f"derivative at zero is 1 within margin {mpmath.nstr(margin, 6)}",
                "route: limit-exponent rule",
            ],
        )
    if c > 1:
        return Verdict(
            INCONCLUSIVE,
            None,
            {},
            [
                f"estimated derivative c = {mpmath.nstr(c, 12)} exceeds 1;"
                " the terms cannot decay, check the function"
            ],
        )
    return Verdict(
        CONVERGENT,
        DERIVATIVE_RULE,
        {"c": c},
        [f"f'(0) = {mpmath.nstr(c, 12)} < 1 gives eventual geometric decay"],
    )


def probe_limit(table: Samples, a, rel_tol: Optional[str] = None) -> LimitProbe:
    """Sample L_a(x) = (x^a - f(x)^a) / (x^a * f(x)^a) on the table's probe grid.

    Each sample is computed as f(x)^-a - x^-a from the table's ln-values,
    two exponentials per point. Guards against catastrophic cancellation:
    when x^a and f(x)^a agree in more digits than the working precision can
    spare, the probe raises rather than classifying noise.
    """
    ctx = table.ctx
    a = ctx.convert(a)
    if not a > 0:
        raise ValueError("exponent a must be positive")
    samples = _quotients(table, a, table.logs(table.probe))
    values = [v for _, v in samples]
    tol = ctx.mpf(REL_TOL if rel_tol is None else rel_tol)
    kind, value = _classify_tail(values, ctx, tol)
    if kind in ("stable", "finite") and value > 0:
        return LimitProbe(a, samples, FINITE_NONZERO, value, kind == "stable")
    if kind in ("stable_zero", "to_zero"):
        return LimitProbe(a, samples, TENDS_TO_ZERO, None, False)
    if kind == "to_infinity":
        return LimitProbe(a, samples, TENDS_TO_INFINITY, None, False)
    return LimitProbe(a, samples, OSCILLATES, None, False)


def _quotients(table: Samples, a, rows) -> List[Tuple]:
    """(x, L_a(x)) at each of a grid's rows (x, ln x, ln f(x)) from the
    table's logs, as f(x)^-a - x^-a."""
    ctx = table.ctx
    # |x^a - f^a| / x^a, the share of digits left, equals |L| / f^-a
    tiny = _headroom(ctx)
    neg_a = -a
    samples = []
    for x, ln_x, ln_f in rows:
        fa = ctx.exp(ctx.fmul(neg_a, ln_f, exact=True))  # f(x)^-a
        value = fa - ctx.exp(ctx.fmul(neg_a, ln_x, exact=True))
        if abs(value) < fa * tiny:
            raise _cancellation(table, x, rows[-1][0], a)
        samples.append((x, value))
    return samples


def _headroom(ctx):
    """The least relative gap between two values at ctx's precision whose
    difference keeps CANCELLATION_HEADROOM trustworthy digits."""
    return ctx.power(10, CANCELLATION_HEADROOM - ctx.dps)


def _cancellation(table: Samples, x, deepest, a=None) -> PrecisionGuardError:
    """The error for x^a and f(x)^a (x and f(x) without a) agreeing at x in
    more digits than leave CANCELLATION_HEADROOM of the working ones. It
    names the least precision at which they do not at deepest, the last row
    the probe reads, with one digit to spare; that is read from f at deepest
    at twice, four times, ... the working precision, up to 16 times."""
    what = "x and f(x)" if a is None else "x^a and f(x)^a"
    at = f"x = {mpmath.nstr(x, 12)}" + ("" if a is None else f", a = {mpmath.nstr(a, 12)}")
    advice = (f"they still agree at x = {mpmath.nstr(deepest, 12)}"
              f" at precision {table.precision << 4}")
    for doubling in range(1, 5):
        ctx = context(table.precision << doubling)
        x_deep = ctx.convert(deepest)
        f_deep = ctx.make_mpf(evaluator(table.function, ctx)(x_deep._mpf_))
        d = ctx.ln(x_deep) - ctx.ln(f_deep)  # ln(x/f)
        if abs(d) >= _headroom(ctx):
            # the digits (f/x)^a shares with 1 and the headroom, less the
            # context's guard digits, with one to spare
            shared = -ctx.log10(abs(ctx.expm1(-ctx.convert(a or 1) * d)))
            needed = (int(ctx.ceil(shared)) + CANCELLATION_HEADROOM + 1
                      - (table.ctx.dps - table.precision))
            advice = f"rerun with precision {max(needed, table.precision + 1)} or more"
            break
    return PrecisionGuardError(f"{what} agree in more than {table.ctx.dps - CANCELLATION_HEADROOM}"
                               f" digits at {at}; {advice}")


def _fit_from_probe(probe: LimitProbe, ctx) -> AsymptoticFit:
    a = probe.a
    L = probe.L
    k = ctx.power(L, -1 / a)
    tail = [v for _, v in probe.samples][-STABLE_WINDOW:]
    median = sorted(tail)[STABLE_WINDOW // 2]
    residual = (max(tail) - min(tail)) / abs(median)
    window = (len(probe.samples) - STABLE_WINDOW, len(probe.samples) - 1)
    return AsymptoticFit(a, k, residual, window)


def _snap_to_fraction(a, ctx):
    """The smallest-denominator p/q > 0 with q <= SNAP_MAX_DENOMINATOR within
    a relative SNAP_TOLERANCE of a, or a itself when there is none."""
    for q in range(1, SNAP_MAX_DENOMINATOR + 1):
        p = int(ctx.nint(a * q))
        if p > 0 and abs(ctx.mpf(p) / q - a) <= ctx.mpf(SNAP_TOLERANCE) * a:
            return ctx.mpf(p) / q
    return a


def search_exponent(table: Samples) -> ExponentSearchResult:
    """Read off the exponent a where the quotient probe turns finite.

    L_a = f^-a - x^-a is about a*x^-a*ln(x/f), so a is the limiting slope
    of ln ln(x/f) against ln x, taken between consecutive points of the
    tail of the table's probe grid from its ln-values. The slope, snapped to a
    small-denominator fraction when it lies within SNAP_TOLERANCE of one, is
    confirmed by one relaxed-tolerance probe, which gives L. The fit carries
    a and k = L^(-1/a) with the probe attached; its window refers to
    probe-grid indices. NotFound (found=False) means f exceeds x in the
    tail, the slopes do not settle or settle outside SEARCH_RANGE, or the
    probe is unstable.
    """
    ctx = table.ctx
    lo, hi = ctx.mpf(SEARCH_RANGE[0]), ctx.mpf(SEARCH_RANGE[1])

    def not_found(note, probe=None):
        return ExponentSearchResult(False, None, probe, note)

    # f(x) carries ctx.dps digits, so d = ln(x/f) keeps about dps + log10(d)
    # of them; the slopes need CANCELLATION_HEADROOM
    tiny = _headroom(ctx)
    rows = table.logs(table.probe)
    points = []
    # only the rows whose slopes the tail classification reads
    for x, ln_x, ln_f in rows[-(2 * STABLE_WINDOW + 1):]:
        d = ctx.fsub(ln_x, ln_f, exact=True)
        if d <= -tiny:
            return not_found(f"f(x) exceeds x at x = {mpmath.nstr(x, 12)}")
        if d < tiny:
            raise _cancellation(table, x, rows[-1][0])
        points.append((ln_x, ctx.ln(d)))
    slopes = [(v1 - v0) / (u1 - u0) for (u0, v0), (u1, v1) in zip(points, points[1:])]
    kind, slope = _classify_tail(slopes, ctx, ctx.mpf(REL_TOL))
    if kind == "oscillates":
        return not_found("tail slopes of ln ln(x/f) do not settle")
    below, above = kind == "to_zero", kind == "to_infinity"
    if not (below or above):
        a = _snap_to_fraction(slope, ctx)
        below, above = a < lo, a > hi
    if below:
        return not_found(
            "quotient blows up at every exponent in range;"
            " the terms decay faster than any power law here"
        )
    if above:
        return not_found("no transition in range; the decay exponent, if any, lies above it")
    probe = probe_limit(table, a, rel_tol=CONFIRM_REL_TOL)
    if probe.stabilized:
        return ExponentSearchResult(True, _fit_from_probe(probe, ctx), probe, "")
    return not_found(
        f"confirmation probe did not stabilize at a = {mpmath.nstr(a, 12)}", probe
    )


def _rational(q, ctx):
    """The rational q rounded to ctx's precision, once."""
    return ctx.make_mpf(from_rational(q.numerator, q.denominator, *ctx._prec_rounding))


def _short(q) -> str:
    """A rational as p/q, or to 12 digits when that is long (a binary
    coefficient of --taylor), as 1 - d or 1 + d when those digits read 1;
    an Interval as [lo, hi]."""
    if isinstance(q, Interval):
        return f"[{_short(q.lo)}, {_short(q.hi)}]"
    text = str(q)
    if len(text) <= 24:
        return text
    text = mpmath.nstr(mpmath.mpf(q.numerator) / q.denominator, 12)
    if text == "1.0" and q != 1:
        return f"1 {'-' if q < 1 else '+'} {_short(abs(1 - q))}"
    return text


def _monomial(c, e) -> str:
    text = _short(c)
    return ("" if c == 1 else f"({text})*" if " " in text and text[0] != "[" else f"{text}*") + (
        "x" if e == 1 else f"x^{e}" if e.denominator == 1 else f"x^({e})")


def _polynomial(terms) -> str:
    """A sum of rational c*x^e terms, as x - 1/2*x^(3/2)."""
    text = " ".join(f"{'-' if c < 0 else '+'} {_monomial(abs(c), e)}" for e, c in terms)
    return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]


def _envelopes(germ: Germ, of: str = "f(x)", at: str = "0") -> str:
    return (f"exact envelopes at {at}: {_polynomial(germ.envelope(False))} <= {of}"
            f" <= {_polynomial(germ.envelope(True))} + O({_monomial(1, germ.order)})")


def _germ_rule(germ: Germ, ctx) -> Optional[Tuple[DerivativeEstimate, Verdict]]:
    """f'(0) and the verdict f's germ at 0 decides, or None.

    f = c1*x + ... with 0 < c1 < 1 converges (DerivativeRule, c = c1 at
    ctx's precision), and so does f = c1*x^e1 + ... with c1 > 0 and e1 > 1,
    where f'(0) = 0 exactly (DerivativeRule, c = 0). The terms of
    f = x - c*x^(1+a) + ... with c > 0 decay like k*n^(-1/a),
    k = (a*c)^(-1/a): divergent for a >= 1 and convergent below
    (LimitExponentRule). a and c are exact and k is at ctx's
    precision. A c1 that is not 1 but rounds to 1 decides nothing: f is
    evaluated with the rounded value, which the sampled route reads. A germ
    x + ... or c1*x + ... whose first interval coefficient comes before any
    of these reads is decided by its envelopes (see _envelope_rule).
    """
    (e1, c1), rest = germ.terms[0], germ.terms[1:]
    if e1 < 1 or high(c1) <= 0:
        return None
    if e1 == 1 and (isinstance(c1, Interval)
                    or c1 == 1 and rest and isinstance(rest[0][1], Interval)):
        return _envelope_rule(germ, ctx)
    slope = c1 if e1 == 1 else Fraction(0)  # f'(0)
    derivative = DerivativeEstimate(VALUE, _rational(slope, ctx), None, [])
    if derivative.c >= 1 and (slope != 1 or not (rest and rest[0][1] < 0)):
        return None
    if derivative.c < 1:
        return derivative, Verdict(CONVERGENT, DERIVATIVE_RULE, {"c": derivative.c}, [
            f"exact germ at 0: f(x) = {_monomial(c1, e1)} + ...",
            f"f'(0) = {_short(slope)} < 1 gives eventual geometric decay",
        ])
    e, c = rest[0][0], -rest[0][1]
    a = e - 1
    k = ctx.power(_rational(a * c, ctx), _rational(-1 / a, ctx))
    return derivative, Verdict(
        DIVERGENT if a >= 1 else CONVERGENT, LIMIT_EXPONENT_RULE,
        {"a": _rational(a, ctx), "k": k},
        [f"exact germ at 0: f(x) = x - {_monomial(c, e)} + ...",
         f"terms decay like k*n^(-1/a) with a = {a} {'>=' if a >= 1 else '<'} 1"],
    )


def _exact_band(slopes, ctx) -> DerivativeEstimate:
    """f'(0) when every coefficient at x in slopes is the same point, else
    kind dne with the exact band that holds f(x)/x near 0."""
    lo, hi = min(map(low, slopes)), max(map(high, slopes))
    if lo == hi:
        return DerivativeEstimate(VALUE, _rational(lo, ctx), None, [])
    return DerivativeEstimate(DNE, None, (_rational(lo, ctx), _rational(hi, ctx)), [])


def _envelope_rule(germ: Germ, ctx) -> Optional[Tuple[DerivativeEstimate, Verdict]]:
    """The paper's comparison test, read from f's envelopes at 0+: near 0,
    g_lo(x) <= f(x) <= g_hi(x) up to O(x^order), where g_lo and g_hi take
    the low and the high end of each coefficient. Both are increasing near
    0, and an increasing m with f <= m (f >= m) bounds the orbit of f by
    m's from below (above).

    g_hi = c*x with c < 1 gives MajorantRule with linear:c, or linear at
    the midpoint of c and 1 when g_hi has a positive term after c*x.
    g_hi = x - c*x^(1+a) + ... with c > 0 and a < 1 gives MajorantRule with
    m = x/(1 + C*x^a)^(1/a) = x - (C/a)*x^(1+a) + ... at C = 0.99*a*c, and
    g_lo = x - c*x^(1+a) + ... with a >= 1 gives MinorantRule at
    C = 1.01*a*c. f'(0) is the coefficient at x, or its exact band when that
    is an interval. Anything else is None, for the sampled route: envelopes
    can be looser than f (x*sin(1/x)*sin(2/x) reads [-1, 1]*x), and the band
    may still read f."""
    upper, lower = germ.envelope(True), germ.envelope(False)
    derivative = _exact_band([germ.terms[0][1]], ctx)
    shown = _envelopes(germ)
    top = upper[0][1]
    if top < 1:
        c = top if len(upper) == 1 or upper[1][1] < 0 else (top + 1) / 2
        return derivative, _comparison(f"linear:{c}", False, shown)
    for terms, minorant in ((upper, False), (lower, True)):
        if terms[0] == (1, 1) and len(terms) > 1 and terms[1][1] < 0:
            a, c = terms[1][0] - 1, -terms[1][1]
            if (a >= 1) == minorant:
                scale = Fraction(101 if minorant else 99, 100)
                return derivative, _comparison(f"powerlaw:a={a},c={a * c * scale}", minorant, shown)
    return None


def _comparison(label: str, minorant: bool, shown: str) -> Verdict:
    return Verdict(
        DIVERGENT if minorant else CONVERGENT, MINORANT_RULE if minorant else MAJORANT_RULE,
        {"minorant" if minorant else "majorant": label},
        [shown, f"so f(x) {'>=' if minorant else '<='} m(x) near 0 for m = {label},"
                f" whose series {'diverges' if minorant else 'converges'}"],
    )


def _signed_envelope_rule(sides, ctx) -> Optional[Tuple[DerivativeEstimate, Verdict]]:
    """The signed rules read from the germs of f at 0+ and of -f(-x) at 0+
    (f at 0-), when both lead with x or above; None otherwise, for the
    sampled rules.

    A side's slope is its coefficient at x, or 0 for a side that leads above
    x. Slopes below 0 on both sides make x*f(x) < 0 near 0: AlternatingRule.
    Else |f(x)| <= c*|x| near 0 with c < 1, c the largest magnitude in the
    slopes, gives AbsoluteBoundRule with c exact. Point germs decide only
    where c is below 1 at ctx's precision, as in _germ_rule; else they
    leave the sampled rules. Envelopes of an interval coefficient that bound
    c by 1 or more are inconclusive."""
    if None in sides or any(g.terms[0][0] < 1 for g in sides):
        return None
    exact = all(g.exact for g in sides)
    slopes = [g.terms[0][1] if g.terms[0][0] == 1 else Fraction(0) for g in sides]
    c = max(max(-low(s), high(s)) for s in slopes)
    if exact and not _rational(c, ctx) < 1:
        return None
    derivative = _exact_band(slopes, ctx)
    if exact:
        notes = [f"exact germ at 0+: {of} = {_polynomial(g.terms[:1])} + ..."
                 for g, of in zip(sides, ("f(x)", "-f(-x)"))]
    else:
        notes = [_envelopes(sides[0], at="0+"), _envelopes(sides[1], "-f(-x)", "0+")]
    if all(high(s) < 0 for s in slopes):
        return derivative, Verdict(CONVERGENT, ALTERNATING_RULE, {
            "sign_pattern": f"x*f(x) < 0 near 0 by the {'germs' if exact else 'envelopes'}"},
            notes + [ALTERNATES])
    if c < 1:
        bound = (f"|f(x)|/|x| tends to at most {_short(c)} < 1 at 0" if exact
                 else f"|f(x)| <= {_short(c)}*|x| near 0")
        return derivative, Verdict(CONVERGENT, ABSOLUTE_BOUND_RULE, {"c": _rational(c, ctx)}, notes + [
            f"{bound} on both sides: absolutely convergent"])
    return derivative, Verdict(INCONCLUSIVE, None, {}, notes + [
        f"the envelopes bound |f(x)|/|x| near 0 by {_short(c)}, not below 1;"
        " nothing further can be concluded in the signed regime"])


def limit_exponent_rule(fit: AsymptoticFit) -> Verdict:
    """Divergent when the decay exponent a is at least 1, convergent below.

    The boundary case within margin of 1 is reported divergent with a note,
    since a = 1 itself diverges.
    """
    margin = mpmath.mpf(EXPONENT_MARGIN)
    witnesses = {"a": fit.a, "k": fit.k}
    a_text = mpmath.nstr(fit.a, 12)
    if fit.a >= 1 + margin:
        return Verdict(
            DIVERGENT, LIMIT_EXPONENT_RULE, witnesses,
            [f"terms decay like n^(-1/a) with a = {a_text} >= 1"],
        )
    if fit.a <= 1 - margin:
        return Verdict(
            CONVERGENT, LIMIT_EXPONENT_RULE, witnesses,
            [f"terms decay like n^(-1/a) with a = {a_text} < 1"],
        )
    return Verdict(
        DIVERGENT, LIMIT_EXPONENT_RULE, witnesses,
        [
            f"a = {a_text} is within margin {mpmath.nstr(margin, 6)} of the boundary;"
            " the boundary exponent a = 1 diverges"
        ],
    )


def check_monotone(table: Samples) -> Tuple[bool, object]:
    """Sample consecutive pairs of the table's seed grid for monotonicity.

    Returns (monotone, delta) where delta is the largest sampled point
    below every violation, so f is grid-certified nondecreasing on
    (0, delta]. Sampling only; a pass is evidence, not proof.
    """
    points = sorted(table.points(table.seed))
    if len(points) < 2:
        raise ValueError("grid holds fewer than two points")
    values = [table.f(p) for p in points]
    for i in range(len(points) - 1):
        if values[i + 1] < values[i]:
            return False, points[i]
    return True, points[-1]


def _snap_rational(band_hi, ctx):
    """Smallest-denominator fraction p/q in [band_hi, band_hi + slack) with
    p/q < 1; gives a clean linear ratio just above the observed band."""
    slack = ctx.mpf(SNAP_SLACK)
    for q in range(1, SNAP_MAX_DENOMINATOR + 1):
        p = int(ctx.ceil(band_hi * q))
        if p < 1 or p >= q:
            continue
        value = ctx.mpf(p) / q
        if value <= band_hi + slack:
            return p, q
    return None


def _compare(rows, c, upper: bool, name: str, label: str, ctx,
             minorant: bool = False) -> Verdict:
    """The bound 0 < v <= c (upper) or v >= c on every row (x, v) comparing f
    with label's function, a majorant or a minorant. As any finite grid has a
    finite sup and a positive inf, it counts only over at least STABLE_WINDOW
    decades, from the floor up, whose maxima (minima) have a slope of ln v
    against ln x >= -TREND_SLACK (<= TREND_SLACK)."""
    for x, v in rows:
        if not (0 < v <= c if upper else v >= c):
            return Verdict(INCONCLUSIVE, None, {}, [
                f"domination fails at x = {mpmath.nstr(x, 12)}: {name} = {mpmath.nstr(v, 12)}"
                + (f" is not in (0, {mpmath.nstr(c, 12)}]" if upper
                   else f" is below {mpmath.nstr(c, 12)}")
            ])
    pick = max if upper else min
    extremes = [pick(rows[max(0, i - PER_DECADE):i], key=lambda row: row[1])
                for i in range(len(rows), 0, -PER_DECADE)]
    u = [ctx.ln(x) for x, _ in extremes]
    mean = ctx.fsum(u) / len(u)
    du = [v - mean for v in u]
    slope = (ctx.fdot(du, [ctx.ln(v) for _, v in extremes]) / ctx.fdot(du, du)
             if len(u) >= STABLE_WINDOW else None)
    if slope is None or (-slope if upper else slope) > ctx.mpf(TREND_SLACK):
        trend = (f"span {len(u)} decades, fewer than {STABLE_WINDOW}" if slope is None
                 else f"trend toward {'infinity' if upper else '0'}"
                 f" (slope {mpmath.nstr(slope, 3)}, beyond {TREND_SLACK})")
        return Verdict(INCONCLUSIVE, None, {}, [
            f"the per-decade {'maxima' if upper else 'minima'} of {name} {trend}"])
    bound, top = pick(v for _, v in extremes), rows[0][0]
    return Verdict(
        DIVERGENT if minorant else CONVERGENT, MINORANT_RULE if minorant else MAJORANT_RULE,
        {"minorant" if minorant else "majorant": label, "delta": top, "bound": bound},
        [f"sampled on (0, {mpmath.nstr(top, 12)}]: {'sup' if upper else 'inf'} {name} ="
         f" {mpmath.nstr(bound, 12)}, so f(x) {'>=' if minorant else '<='} m(x) for"
         f" m = {label}, whose series {'diverges' if minorant else 'converges'}"],
    )


def comparison_band(table: Samples) -> Verdict:
    """The paper's comparison test both ways, on the table's seed grid, where
    0 < f(x) < x.

    m(x) = x/(1 + C*x^a)^(1/a) is increasing with m^-a - x^-a = C; its orbit
    (x0^-a + n*C)^(-1/a) converges for a < 1 and diverges for a >= 1. f <= m
    on (0, x0] reads L_a >= C, f >= m reads L_a <= C. The first of sup f(x)/x
    snapped to p/q < 1, inf L_a at a = MAJORANT_A and sup L_a at a = MINORANT_A
    (MinorantRule) that counts in _compare decides. Sampled, not proven."""
    ctx = table.ctx
    points = table.points(table.seed)
    notes = [f"comparison band on (0, {mpmath.nstr(points[0], 12)}]: no side counts"]
    for a_text, upper in ((None, True), (MAJORANT_A, False), (MINORANT_A, True)):
        if a_text is None:
            name, rows = "f(x)/x", [(x, table.f(x) / x) for x in points]
            snap = _snap_rational(max(v for _, v in rows), ctx)
            if snap is None:
                notes.append("sup f(x)/x has no ratio p/q < 1 near it")
                continue
            c, label = ctx.mpf(snap[0]) / snap[1], f"linear:{snap[0]}/{snap[1]}"
        else:
            name = f"L_{a_text}"
            try:
                rows = _quotients(table, ctx.mpf(a_text), table.logs(table.seed))
            except PrecisionGuardError as err:
                notes.append(f"{name} does not count: {err}")
                continue
            # a plain decimal that compare reads back exactly; 3-digit rounding
            # moves a value by under 0.5%, so C stays outside the samples
            extreme = max(v for _, v in rows) * 101 if upper else min(v for _, v in rows) * 99
            c_text = mpmath.nstr(extreme / 100, 3)
            c, label = ctx.mpf(c_text), f"powerlaw:a={a_text},c={c_text}"
        verdict = _compare(rows, c, upper, name, label, ctx, minorant=a_text == MINORANT_A)
        if verdict.rule is not None:
            return verdict
        notes += verdict.notes
    return Verdict(INCONCLUSIVE, None, {}, notes)


def majorant_rule(
    table: Samples, m: MajorantSpec, certificate: Optional["AnalysisReport"] = None,
) -> Verdict:
    """Convergence by comparison, 0 < g(x) <= m(x) on the seed grid of g's
    table, by the band's test: g(x)/x <= c for linear:c and L_a >= c for
    powerlaw:a,c, whose m is never evaluated, and g(x)/m(x) <= 1 for a user
    majorant. That needs a monotone scan, carried as witnesses "monotone" and
    "delta" by every verdict, and a certificate: m's own convergent
    positive-mode analysis from the same seed, whose table both read.
    """
    ctx = table.ctx
    points = table.points(table.seed)
    scan = {}
    if m.family == "user":
        m_table = (Samples(m.fn, table.precision, table.x0) if certificate is None
                   else certificate.table)
        monotone, delta = check_monotone(m_table)
        scan = {"monotone": monotone, "delta": delta}
        if not monotone:
            return Verdict(INCONCLUSIVE, None, scan, [
                "majorant is not monotone on the required region;"
                f" certified only on (0, {mpmath.nstr(delta, 12)}]"
            ])
        if (certificate is None or certificate.mode is not Mode.POSITIVE
                or certificate.verdict.conclusion != CONVERGENT):
            return Verdict(INCONCLUSIVE, None, scan, [
                "the majorant's own series has no convergence certificate;"
                " analyze the majorant first"
            ])
    try:
        if m.family == "user":
            rows = [(x, table.f(x) / m_table.f(x)) for x in points]
            c, upper, name = ctx.one, True, "g(x)/m(x)"
        elif m.family == "linear":
            rows = [(x, table.f(x) / x) for x in points]
            c, upper, name = parse_constant(m.c_text, ctx), True, "g(x)/x"
        else:  # the table's ln-values refuse g(x) <= 0
            rows = _quotients(table, parse_constant(m.a_text, ctx), table.logs(table.seed))
            c, upper, name = parse_constant(m.c_text, ctx), False, f"L_{m.a_text}"
    except (EvalDomainError, ValueError) as err:
        return Verdict(INCONCLUSIVE, None, scan,
                       [f"evaluation failed during the comparison scan: {err}"])
    verdict = _compare(rows, c, upper, name, m.label, ctx)
    if scan:
        verdict.witnesses.update(scan)
        verdict.notes.insert(0, f"user majorant monotone on (0, {mpmath.nstr(delta, 12)}]")
    return verdict


def signed_rule(table: Samples) -> Verdict:
    """Signed-mode criteria under 0 < |f(x)| < |x|, on the table's seed grid.

    x * f(x) < 0 at every sampled point (both signs) forces alternating
    terms with decreasing magnitudes: convergent. Otherwise a uniform bound
    sup |f(x)| / |x| <= c < 1 gives absolute convergence. Anything else is
    inconclusive; nothing general holds in the open signed regime.
    """
    ctx = table.ctx
    margin = ctx.mpf(ABS_BOUND_MARGIN)
    points = [s * p for p in table.points(table.seed) for s in (1, -1)]
    values = [table.f(x) for x in points]
    alternating = all(x * y < 0 for x, y in zip(points, values))
    sup = max(abs(y) / abs(x) for x, y in zip(points, values))
    if alternating:
        return Verdict(
            CONVERGENT,
            ALTERNATING_RULE,
            {"sign_pattern": "x*f(x) < 0 at every sampled point"},
            [ALTERNATES],
        )
    if sup <= 1 - margin:
        return Verdict(
            CONVERGENT,
            ABSOLUTE_BOUND_RULE,
            {"c": sup},
            [f"sup |f(x)|/|x| = {mpmath.nstr(sup, 12)} < 1 on the grid:"
             " absolutely convergent"],
        )
    return Verdict(
        INCONCLUSIVE, None, {},
        [
            "mixed signs without a uniform contraction bound"
            f" (grid sup |f(x)|/|x| = {mpmath.nstr(sup, 12)});"
            " nothing further can be concluded in the signed regime"
        ],
    )


def _alternation_in_orbit(verdict: Verdict, orbit: Orbit, warnings: List[str]) -> None:
    """Name in AlternatingRule's note the first step k from which every
    later x_n*x_(n+1) of the orbit is negative, when k > 0, and warn when
    the orbit's last two terms share a sign. The rule reads x*f(x) < 0 near
    0, and Leibniz's test needs only the tail, so the verdict stands."""
    terms = orbit.terms
    k = len(terms) - 1
    while k and terms[k - 1][0] != terms[k][0]:
        k -= 1
    if not k:
        return
    verdict.notes = [f"{note} from step {k} on" if note == ALTERNATES else note
                     for note in verdict.notes]
    if k == orbit.last_index:
        warnings.append(
            f"orbit cross-check: x_{k - 1} and x_{k} have the same sign, so the orbit"
            f" does not alternate by its last step, {k}")


@dataclass
class AnalysisReport:
    mode: Mode
    table: Samples  # f's sample table, which every rule scan read
    verdict: Optional[Verdict] = None
    derivative: Optional[DerivativeEstimate] = None
    germ: Optional[Germ] = None  # f's exact germ at 0, in positive mode when it has one
    search: Optional[ExponentSearchResult] = None
    fit: Optional[AsymptoticFit] = None
    orbit_result: Optional[Orbit] = None
    sum: Optional[SumEstimate] = None
    hypothesis: Optional[HypothesisReport] = None
    warnings: List[str] = field(default_factory=list)


def detect_mode(table: Samples) -> Mode:
    """Signed when the seed x0 is negative or f goes negative anywhere on
    the table's seed grid: where the raw f(x) has its sign bit, which is
    mpf's f(x) < 0 (-inf has it; nan and zero do not)."""
    if table.x0 < 0:
        return Mode.SIGNED
    raw = table.raw
    for p in table.points(table.seed):
        y = raw(p)
        if isinstance(y, tuple) and y[0]:  # not an EvalDomainError, and negative
            return Mode.SIGNED
    return Mode.POSITIVE


def orbit_mode(table: Samples, mode: str = "auto") -> Mode:
    """The mode of the orbit from the table's seed x0: detect_mode's for
    "auto", else mode ("positive" or "signed"). Refuses x0 = 0, and x0 < 0
    in positive mode, where the orbit keeps 0 < f(x) < x, before any orbit
    runs from x0."""
    if table.x0 == 0:
        raise AnalysisError("x0 must be nonzero")
    mode = detect_mode(table) if mode == "auto" else Mode(mode)
    if mode is Mode.POSITIVE and not table.x0 > 0:
        raise AnalysisError(
            f"x0 = {mpmath.nstr(table.x0, 12)} must be positive in positive mode,"
            " where the orbit keeps 0 < f(x) < x"
        )
    return mode


def _germs(report: AnalysisReport) -> bool:
    """Stage 2: f's germ at 0+ and, in signed mode, that of -f(-x) (f's own
    for an odd f, its negation for an even one: see expr.parity), which set
    the verdict and f'(0) when they decide (_germ_rule, or
    _signed_envelope_rule on both sides). Returns whether they show
    |f(x)| < |x| near 0; in positive mode only where the germ decides, as a
    c_1 below 1 that rounds to 1 is evaluated as 1."""
    f, ctx = report.table.function, report.table.ctx
    if report.mode is Mode.POSITIVE:
        report.germ = expand(f)
        sides = [report.germ]
        decided = None if report.germ is None else _germ_rule(report.germ, ctx)
    else:  # f at 0+, and at 0- through -f(-x) at 0+
        sides = [expand(f)]
        if report.table.parity is None:
            sides.append(expand(reflect(f)))
        else:  # -f(-x) is f for an odd f, and -f for an even one
            sides.append(sides[0] if sides[0] is None or report.table.parity else -sides[0])
        decided = _signed_envelope_rule(sides, ctx)
    if decided is not None:
        report.derivative, report.verdict = decided
    return (None not in sides and all(map(contracts, sides))
            and (decided is not None or report.mode is Mode.SIGNED))


def _hypotheses(report: AnalysisReport, shown: bool):
    """Stage 3: the decay hypothesis on the seed grid. Where the germs show
    |f(x)| < |x| near 0, the points at the bottom of the grid where |f(x)|
    rounds to |x| are a precision limit, not violations. Returns the
    validated region; raises AnalysisError when x0 lies outside it."""
    table = report.table
    hypothesis = validate_hypotheses(table, report.mode)
    cut, limit = hypothesis.cut, ""
    if cut is not None:
        of_f, of_x = ("f(x)", "x") if report.mode is Mode.POSITIVE else ("|f(x)|", "|x|")
        rounds = (f"{of_f} rounds to {of_x} at the working precision from {of_x} ="
                  f" {mpmath.nstr(cut, 12)} down")
        if shown:
            # the working precision ran out where f(x) rounds to x
            kept = [v for v in hypothesis.violations if abs(v[0]) > cut]
            hypothesis = replace(hypothesis, violations=kept, passed=not kept)
            report.warnings.append(f"{rounds}: a precision limit, not a failed hypothesis, as"
                                   f" f's germ at 0 shows {of_f} < {of_x} there")
        else:
            limit = (f"; {rounds}, and f's germ at 0 does not show {of_f} < {of_x} there: rerun"
                     " with a higher precision to tell a precision limit from a fixed point")
    report.hypothesis = hypothesis
    region = validated_region(hypothesis)
    if region is None:
        first = "; ".join(
            f"x = {mpmath.nstr(x, 12)}: "
            + (f"{y.reason} in '{y.subexpression}'" if isinstance(y, EvalDomainError)
               else f"f(x) = {mpmath.nstr(y, 12)}")
            for x, y in hypothesis.violations[:3]
        )
        raise AnalysisError(f"the decay hypothesis fails at every sampled scale ({first}){limit}")
    if abs(table.x0) > region:
        raise AnalysisError(
            f"x0 = {mpmath.nstr(table.x0, 12)} lies outside the validated region"
            f" (0, {mpmath.nstr(region, 12)}]"
        )
    return region


def _sampled_rules(report: AnalysisReport, region) -> None:
    """Stage 4, when the germs decide nothing: the derivative estimate on
    the probe grid, then signed_rule in signed mode; in positive mode
    derivative_rule, routing a c within DERIVATIVE_MARGIN of 1 to the
    exponent search and the limit-exponent rule, and what they leave
    inconclusive to the comparison band."""
    table = report.table
    if region < table.points(table.probe)[0]:
        report.warnings.append(
            "validated region is smaller than the probe grid start;"
            " derivative and limit probes may sample outside it"
        )
    report.derivative = derivative = estimate_derivative_at_zero(table, report.mode)
    if report.mode is Mode.SIGNED:
        report.verdict = signed_rule(table)
        return
    verdict = derivative_rule(derivative)
    if verdict.conclusion == INCONCLUSIVE:
        routed = verdict.notes
        # a value the rule leaves inconclusive is 1 within the margin: the
        # estimate flags any other as out of range
        if derivative.kind == VALUE:
            report.search = search_exponent(table)
            if report.search.found:
                verdict = limit_exponent_rule(report.search.fit)
            else:
                routed = routed + [f"exponent search: {report.search.note}"]
        if verdict.conclusion == INCONCLUSIVE:
            verdict = comparison_band(table)
        verdict.notes = routed + verdict.notes
    report.verdict = verdict


def _cross_check(report: AnalysisReport, steps: int, floor: str) -> None:
    """Stage 5: the orbit from x0, with AlternatingRule's step; in positive
    mode, the power-law fit, warned about where its exponent conflicts with
    the verdict, and the sum estimate of a convergent series."""
    table, verdict, warnings = report.table, report.verdict, report.warnings
    orbit = report.orbit_result = iterate(table, table.x0, steps, floor, report.mode)
    if orbit.status.kind == HYPOTHESIS_VIOLATION:
        warnings.append(f"orbit cross-check: {orbit.status.describe()}")
    if verdict.rule == ALTERNATING_RULE:
        _alternation_in_orbit(verdict, orbit, warnings)
    if report.mode is Mode.SIGNED:
        return
    fit = None
    if orbit.last_index >= 2 * MIN_WINDOW_TERMS:
        try:
            report.fit = fit = fit_power_law(orbit)
        except ValueError:
            pass
    if fit is not None and fit.rejected:
        warnings.append(f"empirical fit: {fit.reason}")
        fit = None
    if fit is not None and (verdict.conclusion == CONVERGENT and fit.a >= table.ctx.mpf("1.05")
                            or verdict.conclusion == DIVERGENT and fit.a <= table.ctx.mpf("0.95")):
        warnings.append(f"empirical decay exponent a = {mpmath.nstr(fit.a, 8)} suggests"
                        f" {'divergence' if fit.a > 1 else 'convergence'},"
                        " conflicting with the rule verdict")
    if verdict.conclusion == CONVERGENT:
        try:
            report.sum = sum_estimate(orbit, fit)
        except ValueError:
            pass


def analyze(table: Samples, mode: str = "auto", max_n: int = 10**6,
            floor: str = "1e-40") -> AnalysisReport:
    """Run the decision pipeline on the table's f from its seed x0.

    mode is "auto", "positive" or "signed". The stages run in order: 1. the
    mode and the seed (orbit_mode); 2. the germs at 0 (_germs); 3. the
    hypotheses (_hypotheses), which raise AnalysisError when x0 lies outside
    the region where they hold; 4. the sampled rules, when the germs decide
    nothing (_sampled_rules); 5. the orbit cross-check (_cross_check), to
    min(max_n, CROSS_CHECK_N) steps or until |x_n| < floor.
    """
    report = AnalysisReport(orbit_mode(table, mode), table)
    region = _hypotheses(report, _germs(report))
    if report.verdict is None:
        _sampled_rules(report, region)
    _cross_check(report, min(max_n, CROSS_CHECK_N), floor)
    return report
