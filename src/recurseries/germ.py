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
rationals. Anything else is refused: sin(1/x), ln x, x^x, pi, e. So is a
number past EXPONENT_CAP bits or a series past MAX_TERMS terms, so that no
input such as 2^(10^9) or (1+x)^(10^9) can make the pass run long.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .expr import EXPONENT_CAP, Call, Const, FunctionDef, Neg, Number, Var, _has_var

# the absolute truncation orders tried in turn, until the germ is read
ORDERS = (4, 8, 16, 32)
MAX_TERMS = 64  # the most terms a series, or a power series in one, may hold

_ZERO, _ONE, _HALF = Fraction(0), Fraction(1), Fraction(1, 2)

_Terms = Dict[Fraction, Fraction]
_Series = Tuple[_Terms, Fraction]  # (terms, order): known below x^order


class _Refused(Exception):
    """The subtree has no germ the pass reads."""


class _Short(Exception):
    """The truncation order is too low to show a leading term the subtree needs."""


@dataclass(frozen=True)
class Germ:
    """f(x) = sum of c*x^e over terms + O(x^order) as x -> 0+, exactly.

    terms holds (e, c) in ascending e, each c nonzero and each e below order.
    """

    terms: Tuple[Tuple[Fraction, Fraction], ...]
    order: Fraction


def expand(f: FunctionDef) -> Optional[Germ]:
    """f's germ at 0+, to the first of ORDERS that shows its leading term and,
    when that is x itself, the first deviation from x and every term up to
    twice the deviation's distance from 1 (so the term after it, if any),
    else to the last order; None when f has no germ the pass reads, or no
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
        if germ and (germ.terms[0] != (_ONE, _ONE)
                     or len(terms) > 1 and order > 2 * germ.terms[1][0] - 1):
            return germ
    return germ


def _mpf_rational(value) -> Fraction:
    """The exact value of a finite mpf."""
    sign, man, exp, _ = value._mpf_
    if abs(exp) > EXPONENT_CAP or not man and exp:  # past the cap, or inf or nan
        raise _Refused(f"a rational past {EXPONENT_CAP} bits")
    return _check((-man if sign else man) * Fraction(2) ** exp)


def _check(q: Fraction) -> Fraction:
    if q.numerator.bit_length() > EXPONENT_CAP or q.denominator.bit_length() > EXPONENT_CAP:
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
    v = min(terms)
    b = terms[v]
    if b < 0 and r.denominator != 1:
        raise _Refused("a negative base with a non-integer exponent")
    scale, shift = _rational_power(b, r), _check(r * v)
    u = {e - v: c / b for e, c in terms.items() if e != v}
    series, rel = _compose(_binomials(r), u, order - v)
    return _trunc({e + shift: c * scale for e, c in series.items()}, min(rel + shift, n))


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
        arg = _expand(node.arg, n)
        if node.func == "sqrt":
            return _power(arg, _HALF, n)
        terms, order = arg
        if node.func == "abs":
            if not terms:
                raise _Short
            return arg if terms[min(terms)] > 0 else _neg(arg)
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
