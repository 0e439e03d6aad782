"""Fast paths for the libmp kernels that compiled f calls on every
evaluation, with the bits of the libmp functions they stand for.

For regular operands (a nonzero mantissa) at round-nearest and a
precision prec >= 1, add, mul, div, sin and cos do the integer arithmetic
of mpf_add, mpf_mul, mpf_div and mpf_cos_sin and round it once with
_normalize. Every other case calls the libmp function itself: zeros, inf
and nan, any other rounding, mpf_add's perturbation of an operand far
below the other, and mpf_cos_sin's shortcut for an argument below
2^-(prec+10). _mpf_sqrt is mpf_sqrt step for step.
"""

from __future__ import annotations

from math import isqrt

from mpmath.libmp import (
    from_man_exp, fzero, mpf_add, mpf_cos, mpf_div, mpf_mul, mpf_sin, normalize1,
    round_nearest,
)
from mpmath.libmp.libelefun import cos_sin_basecase, mod_pi2


def _normalize(sign, man, exp, prec):
    """The raw value (-1)^sign * man * 2^exp, for an integer man >= 0,
    rounded to prec bits at round-nearest: what libmp's normalize and
    normalize1 return at round_nearest given man's exact bit count."""
    if not man:
        return fzero
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)
        # the bit below the last kept one is set: up, unless it is an exact
        # tie and the kept bits are even
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
    if not man & 1:
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
    return sign, man, exp, man.bit_length()


def add(s, t, prec, rnd, _sub=0):
    """mpf_add(s, t, prec, rnd, _sub): s + t, or s - t when _sub is 1."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    offset = sexp - texp
    if (not (sman and tman) or rnd != round_nearest
            # mpf_add perturbs the larger operand instead of shifting by offset
            or offset > 100 and sbc + offset - tbc > prec + 4
            or offset < -100 and tbc - offset - sbc > prec + 4):
        return mpf_add(s, t, prec, rnd, _sub)
    if offset >= 0:
        sman <<= offset
        exp = texp
    else:
        tman <<= -offset
        exp = sexp
    if ssign == tsign ^ _sub:
        return _normalize(ssign, sman + tman, exp, prec)
    man = sman - tman
    if man < 0:
        return _normalize(ssign ^ 1, -man, exp, prec)
    return _normalize(ssign, man, exp, prec)


def sub(s, t, prec, rnd):
    """mpf_sub(s, t, prec, rnd)."""
    return add(s, t, prec, rnd, 1)


def mul(s, t, prec, rnd):
    """mpf_mul(s, t, prec, rnd); mul(s, s, prec, rnd) is also
    mpf_pow_int(s, 2, prec, rnd)."""
    man = s[1] * t[1]
    if not man or rnd != round_nearest:
        return mpf_mul(s, t, prec, rnd)
    return _normalize(s[0] ^ t[0], man, s[2] + t[2], prec)


def div(s, t, prec, rnd):
    """mpf_div(s, t, prec, rnd)."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not (sman and tman) or rnd != round_nearest:
        return mpf_div(s, t, prec, rnd)
    if tman == 1:
        return _normalize(ssign ^ tsign, sman, sexp - texp, prec)
    # a nonzero remainder is a set bit below the quotient's last, as in mpf_div
    extra = prec - sbc + tbc + 5
    if extra < 5:
        extra = 5
    quot, rem = divmod(sman << extra, tman)
    if rem:
        quot = (quot << 1) + 1
        extra += 1
    return _normalize(ssign ^ tsign, quot, sexp - texp - extra, prec)


def sin(x, prec, rnd, _cos=0):
    """mpf_sin(x, prec, rnd), or mpf_cos(x, prec, rnd) when _cos is 1: the
    steps of mpf_cos_sin. x is reduced by pi/2 with mod_pi2, cos_sin_basecase
    gives cos and sin of the remainder in fixed point, and the quadrant swaps
    and negates them."""
    sign, man, exp, bc = x
    wp = prec + 10
    if not man or rnd != round_nearest or bc + exp < -wp:
        return (mpf_cos if _cos else mpf_sin)(x, prec, rnd)
    t, n, wp = mod_pi2(man, exp, bc + exp, wp)
    c, s = cos_sin_basecase(t, wp)
    # the value is c or s, negated where neg is 1; sin is odd
    if _cos:
        v, neg = (s if n & 1 else c), (n + 1) >> 1 & 1
    else:
        v, neg = (c if n & 1 else s), n >> 1 & 1 ^ sign
    if v < 0:
        return _normalize(neg ^ 1, -v, -wp, prec)
    return _normalize(neg, v, -wp, prec)


def cos(x, prec, rnd):
    """mpf_cos(x, prec, rnd)."""
    return sin(x, prec, rnd, 1)


def _mpf_sqrt(s, prec, rnd):
    """libmp's mpf_sqrt of a nonnegative raw value s, step for step, with
    math.isqrt for the exact integer floor root (isqrt or sqrtrem) that
    mpf_sqrt takes, so the bits are the same."""
    sign, man, exp, bc = s
    if not man:
        return s
    if exp & 1:
        exp -= 1
        man <<= 1
        bc += 1
    elif man == 1:
        return normalize1(sign, man, exp // 2, bc, prec, rnd)
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    square = man << shift
    man = isqrt(square)
    if rnd not in "fd" and man * man != square:
        # a nonzero remainder perturbs the root up, as in mpf_sqrt
        man = (man << 1) + 1
        shift += 2
    return from_man_exp(man, (exp - shift) // 2, prec, rnd)
