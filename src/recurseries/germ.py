"""The exact germ of f at 0+: a truncated Puiseux series read off the tree.

One forward pass over the expression tree computes f(x) = sum of c*x^e over
finitely many terms, + O(x^order) as x -> 0+, with every exponent e and
coefficient c an exact rational (fractions.Fraction). It is truncated
Taylor arithmetic on the tree, in the manner of Griewank & Walther,
*Evaluating Derivatives*, ch. 13, widened to rational exponents.

The pass reads +, -, *, / (by factoring out the leading term), ^ with a
constant rational exponent (c^r only where it is rational), sqrt, exp, sin
and cos of a series that vanishes at 0, ln of 1 plus such a series, abs by
the sign of the leading coefficient, and decimal literals, which are exact
rationals. Anything else is refused: ln x, x^x, pi, e. So is a number past
EXPONENT_CAP bits or a series past MAX_TERMS terms, so that no input such
as 2^(10^9) or (1+x)^(10^9) can make the pass run long.

A bounded oscillating factor gets an interval coefficient, by Moore's
interval arithmetic on the coefficients: sin(u) or cos(u) whose u holds x
but no pi or e and has no germ the pass reads, or one that grows without
bound (sin(1/x), sin(ln x)), is the constant [-1, 1], and abs of a single
term takes the interval's magnitude, so abs(sin(1/x)) is [0, 1]. Intervals
pass through +, - and *; a division by one, a power of one and exp, sin,
cos or ln of one are refused. Near 0+, f then lies between the envelopes
sum of lo*x^e and sum of hi*x^e, up to O(x^order). An f without such a
factor gets the germ of point coefficients it got before intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .expr import EXPONENT_CAP, Call, Const, FunctionDef, Neg, Number, Var, _has_var

# the absolute truncation orders tried in turn, until the germ is read
ORDERS = (4, 8, 16, 32)
MAX_TERMS = 64  # the most terms a series, or a power series in one, may hold

_ZERO, _ONE, _HALF = Fraction(0), Fraction(1), Fraction(1, 2)


@dataclass(frozen=True)
class Interval:
    """The coefficient [lo, hi], lo < hi, of a bounded factor whose value
    at x is not known; + and * follow Moore's rules, with a Fraction read as
    the point [c, c]."""

    lo: Fraction
    hi: Fraction

    def __add__(self, other):
        return _interval(self.lo + low(other), self.hi + high(other))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other):
        ends = [a * b for a in (self.lo, self.hi) for b in (low(other), high(other))]
        return _interval(min(ends), max(ends))

    __rmul__ = __mul__


def _interval(lo: Fraction, hi: Fraction):
    return Interval(lo, hi) if lo != hi else lo


def low(c) -> Fraction:
    """The least value of a coefficient, a point or an Interval."""
    return c.lo if isinstance(c, Interval) else c


def high(c) -> Fraction:
    """The greatest value of a coefficient, a point or an Interval."""
    return c.hi if isinstance(c, Interval) else c


_UNIT = Interval(-_ONE, _ONE)  # sin(u) or cos(u) for a u the pass cannot read

_Terms = Dict[Fraction, object]  # exponent -> Fraction or Interval
_Series = Tuple[_Terms, Fraction]  # (terms, order): known below x^order


class _Refused(Exception):
    """The subtree has no germ the pass reads."""


class _Short(Exception):
    """The truncation order is too low to show a leading term the subtree needs."""


@dataclass(frozen=True)
class Germ:
    """f(x) = sum of c*x^e over terms + O(x^order) as x -> 0+, exactly.

    terms holds (e, c) in ascending e, each c nonzero and each e below order;
    c is a Fraction, or an Interval that holds the coefficient near 0+.
    """

    terms: Tuple[Tuple[Fraction, object], ...]
    order: Fraction

    @property
    def exact(self) -> bool:
        """Whether every coefficient is a point, so that the terms are f's."""
        return not any(isinstance(c, Interval) for _, c in self.terms)

    def envelope(self, upper: bool) -> Tuple[Tuple[Fraction, Fraction], ...]:
        """The nonzero terms of the upper (hi) or lower (lo) envelope, between
        which f lies near 0+ up to O(x^order)."""
        ends = ((e, high(c) if upper else low(c)) for e, c in self.terms)
        return tuple((e, c) for e, c in ends if c)


def expand(f: FunctionDef) -> Optional[Germ]:
    """f's germ at 0+, to the first of ORDERS that shows its leading term and,
    when that is x or -x, the first deviation from it and every term up to twice the deviation's distance from 1 (so
    the term after it, if any), else to the last order; None when f has no germ the pass reads, or no
    term shows by the last order. A polynomial that carries its
    coefficients (see taylor_polynomial) has them as its germ, exactly as
    read."""
    if f.coefficients is not None:
        try:
            terms = tuple((Fraction(k), c) for k, c in
                          enumerate(map(_mpf_rational, f.coefficients), 1) if c)
        except _Refused:
            return None
        return Germ(terms, Fraction(max(ORDERS[-1], len(f.coefficients) + 1))) if terms else None
    germ = None
    for n in ORDERS:
        try:
            terms, order = _expand(f.root, Fraction(n))
        except _Short:
            continue
        except _Refused:
            return None
        germ = Germ(tuple(sorted(terms.items())), order) if terms else None
        if germ and _shown(germ):
            return germ
    return germ


def _shown(germ: Germ) -> bool:
    """Whether the germ shows its leading term and, where that is x or -x,
    the term after it and every term up to twice that term's distance
    from 1."""
    (e1, c1), rest = germ.terms[0], germ.terms[1:]
    if e1 != 1 or c1 not in (1, -1):
        return True
    return bool(rest) and germ.order > 2 * rest[0][0] - 1


def reflect(f: FunctionDef) -> FunctionDef:
    """g(x) = -f(-x), whose germ at 0+ is f's at 0- seen from the right: for
    y = -x < 0, f(y)/y = g(x)/x. g is read from f's tree, also where f
    carries its coefficients."""
    def swap(node):
        if isinstance(node, Var):
            return Neg(node)
        kids = {k: swap(getattr(node, k)) for k in ("arg", "operand", "left", "right")
                if hasattr(node, k)}
        return replace(node, **kids) if kids else node

    return FunctionDef(Neg(swap(f.root)), f"-({f.source_text})(-x)")


def contracts(germ: Germ) -> bool:
    """Whether the germ shows |f(x)| < x near 0+: f = o(x), or |c_1| < 1
    for every c_1 in its leading coefficient at x, or c_1 = 1 or -1 and the
    term after it has the other sign throughout."""
    (e1, c1), rest = germ.terms[0], germ.terms[1:]
    if e1 != 1:
        return e1 > 1
    if -1 < low(c1) and high(c1) < 1:
        return True
    return bool(rest) and (c1 == 1 and high(rest[0][1]) < 0 or c1 == -1 and low(rest[0][1]) > 0)


def _mpf_rational(value) -> Fraction:
    """The exact value of a finite mpf."""
    sign, man, exp, _ = value._mpf_
    if abs(exp) > EXPONENT_CAP or not man and exp:  # past the cap, or inf or nan
        raise _Refused(f"a rational past {EXPONENT_CAP} bits")
    return _check((-man if sign else man) * Fraction(2) ** exp)


def _check(q):
    for end in (q.lo, q.hi) if isinstance(q, Interval) else (q,):
        if end.numerator.bit_length() > EXPONENT_CAP or end.denominator.bit_length() > EXPONENT_CAP:
            raise _Refused(f"a rational past {EXPONENT_CAP} bits")
    return q


def _trunc(terms: _Terms, order: Fraction) -> _Series:
    """The nonzero terms below x^order, each number within the bit cap."""
    kept = {_check(e): _check(c) for e, c in terms.items() if c and e < order}
    if len(kept) > MAX_TERMS:
        raise _Refused(f"a series past {MAX_TERMS} terms")
    return kept, order


def _valuation(series: _Series) -> Fraction:
    """The least exponent, or the order for a series with no term known."""
    terms, order = series
    return min(terms) if terms else order


def _add(a: _Series, b: _Series) -> _Series:
    terms = dict(a[0])
    for e, c in b[0].items():
        terms[e] = terms.get(e, _ZERO) + c
    return _trunc(terms, min(a[1], b[1]))


def _neg(a: _Series) -> _Series:
    return {e: -c for e, c in a[0].items()}, a[1]


def _product(a: _Terms, b: _Terms, order: Fraction) -> _Terms:
    terms: _Terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb < order:
                terms[ea + eb] = terms.get(ea + eb, _ZERO) + ca * cb
    return _trunc(terms, order)[0]


def _mul(a: _Series, b: _Series, n: Fraction) -> _Series:
    # (A + O(x^oa))(B + O(x^ob)) = AB + O(x^min(oa + vb, ob + va))
    order = min(a[1] + _valuation(b), b[1] + _valuation(a), n)
    return _product(a[0], b[0], order), order


def _compose(coefficients: Iterator[Fraction], u: _Terms, order: Fraction) -> _Series:
    """sum of a_k*u^k below x^order, for u of positive exponents only."""
    total = {_ZERO: next(coefficients)}
    if u:
        step, power = min(u), {_ZERO: _ONE}
        for k, a in enumerate(coefficients, 1):
            if k * step >= order:
                break
            if k > MAX_TERMS:
                raise _Refused(f"a power series past {MAX_TERMS} terms")
            power = _product(power, u, order)
            for e, c in power.items():
                total[e] = total.get(e, _ZERO) + a * c
    return _trunc(total, order)


def _binomials(r: Fraction) -> Iterator[Fraction]:
    a, k = _ONE, 0
    while True:
        yield a
        a = a * (r - k) / (k + 1)
        k += 1


def _taylor(func: str) -> Iterator[Fraction]:
    """The Taylor coefficients at 0 of exp, sin and cos, and of ln(1 + u)."""
    factorial, k = _ONE, 0
    while True:
        if func == "ln":
            yield Fraction((-1) ** (k + 1), k) if k else _ZERO
        elif func == "exp":
            yield 1 / factorial
        else:  # sin keeps the odd k, cos the even ones, with signs + - + ...
            odd = func == "sin"
            yield (-1) ** (k // 2) / factorial if k % 2 == odd else _ZERO
        k += 1
        factorial *= k


def _root(m: int, q: int) -> int:
    """The exact q-th root of m >= 1, refused when it is not an integer."""
    if q == 1 or m == 1:
        return m
    if q > m.bit_length():
        raise _Refused("an irrational power")
    s = 1 << -(-m.bit_length() // q)  # at least the root; Newton steps down to it
    while True:
        t = ((q - 1) * s + m // s ** (q - 1)) // q
        if t >= s:
            break
        s = t
    if s ** q != m:
        raise _Refused("an irrational power")
    return s


def _rational_power(b: Fraction, r: Fraction) -> Fraction:
    """b^r when it is rational; b < 0 only for an integer r."""
    bits = max(b.numerator.bit_length(), b.denominator.bit_length())
    if abs(r.numerator) * bits > r.denominator * EXPONENT_CAP:
        raise _Refused(f"a power past {EXPONENT_CAP} bits")
    root = Fraction(_root(abs(b.numerator), r.denominator), _root(b.denominator, r.denominator))
    return (root if b > 0 else -root) ** r.numerator


def _power(base: _Series, r: Fraction, n: Fraction) -> _Series:
    """base^r = b^r * x^(r*v) * (1 + u)^r for base = b*x^v*(1 + u)."""
    if not r:
        return {_ZERO: _ONE}, n
    terms, order = base
    if not terms:
        raise _Short
    _require_points(terms, "a power")
    v = min(terms)
    b = terms[v]
    if b < 0 and r.denominator != 1:
        raise _Refused("a negative base with a non-integer exponent")
    scale, shift = _rational_power(b, r), _check(r * v)
    u = {e - v: c / b for e, c in terms.items() if e != v}
    series, rel = _compose(_binomials(r), u, order - v)
    return _trunc({e + shift: c * scale for e, c in series.items()}, min(rel + shift, n))


def _require_points(terms: _Terms, what: str) -> None:
    if any(isinstance(c, Interval) for c in terms.values()):
        raise _Refused(f"{what} of an interval")


def _nodes(node) -> Iterator:
    yield node
    for kid in ("arg", "operand", "left", "right"):
        if hasattr(node, kid):
            yield from _nodes(getattr(node, kid))


def _atom(u, n: Fraction) -> _Series:
    """sin(u) or cos(u) as the constant [-1, 1], for a u that holds x but no
    pi or e: with a constant, a sampled route may read the factor better
    (x*cos(pi*x) has f'(0) = 1), so that is refused as before."""
    kinds = {type(node) for node in _nodes(u)}
    if Var not in kinds or Const in kinds:
        raise _Refused("sin or cos of an argument with no germ")
    return {_ZERO: _UNIT}, n


def _constant(node, n: Fraction) -> Fraction:
    """The exact value of a subtree without x."""
    if _has_var(node):
        raise _Refused("a power with x in its exponent")
    return _expand(node, n)[0].get(_ZERO, _ZERO)


def _number(text: str) -> Fraction:
    mantissa, _, exponent = text.lower().partition("e")
    # the cap in decimal digits, before any big integer is made
    if len(mantissa) > EXPONENT_CAP // 4 or len(exponent.lstrip("+-")) > 4:
        raise _Refused("a literal past the cap")
    return _check(Fraction(text))


def _expand(node, n: Fraction) -> _Series:
    """node's series below x^n, or below a lower order where truncation cost terms."""
    if isinstance(node, Number):
        return _trunc({_ZERO: _number(node.text)}, n)
    if isinstance(node, Var):
        return {_ONE: _ONE}, n
    if isinstance(node, Const):
        raise _Refused(f"the constant {node.name}")
    if isinstance(node, Neg):
        return _neg(_expand(node.operand, n))
    if isinstance(node, Call):
        oscillates = node.func in ("sin", "cos")
        try:
            arg = _expand(node.arg, n)
        except _Refused:
            if oscillates:
                return _atom(node.arg, n)
            raise
        if node.func == "sqrt":
            return _power(arg, _HALF, n)
        terms, order = arg
        if node.func == "abs":
            if not terms:
                raise _Short
            lead = terms[min(terms)]
            if low(lead) > 0 or high(lead) < 0:
                return arg if low(lead) > 0 else _neg(arg)
            if len(terms) > 1:
                raise _Refused("abs of a series whose sign is not known")
            return {min(terms): Interval(_ZERO, max(-lead.lo, lead.hi))}, order
        if oscillates and terms and min(terms) < 0:  # u grows without bound
            return _atom(node.arg, n)
        _require_points(terms, node.func)
        if node.func == "ln":
            if not terms:
                raise _Short
            if min(terms) != 0 or terms[_ZERO] != 1:
                raise _Refused("ln of a series that is not 1 at 0")
            terms = {e: c for e, c in terms.items() if e}
        elif any(e <= 0 for e in terms):
            raise _Refused(f"{node.func} of a series that does not vanish at 0")
        elif order <= 0:
            raise _Short
        return _compose(_taylor(node.func), terms, min(order, n))
    if node.op == "^":
        return _power(_expand(node.left, n), _constant(node.right, n), n)
    left, right = _expand(node.left, n), _expand(node.right, n)
    if node.op == "+":
        return _add(left, right)
    if node.op == "-":
        return _add(left, _neg(right))
    if node.op == "*":
        return _mul(left, right, n)
    return _mul(left, _power(right, -_ONE, n), n)
