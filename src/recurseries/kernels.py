"""Fast paths for the libmp kernels that compiled f calls on every
evaluation, with the bits of the libmp functions they stand for.

For regular operands (a nonzero mantissa) at round-nearest and a
precision prec >= 1, add, mul, div, sin and cos do the integer arithmetic
of mpf_add, mpf_mul, mpf_div and mpf_cos_sin and round it once with
_normalize. Every other case calls the libmp function itself: zeros, inf
and nan, any other rounding, mpf_add's perturbation of an operand far
below the other, and mpf_cos_sin's shortcut for an argument below
2^-(prec+10). _mpf_sqrt is mpf_sqrt step for step. _decays is the orbit's
decay test, as mpf_lt decides it, and SUM adds a term to its partial sum
with the bits of mpf_add.

Each fast path is written once, as statement text on the unpacked fields
of its operands: ssign, sman, sexp, sbc and tsign, tman, texp, tbc, at
precision prec and rounding rnd, leaving sign, man, exp and bc. The
functions of this module run that text on their arguments, and the
compiled orbit loop (see expr.orbit_loop) runs it inline (see inline), with
the fields of a constant operand as literals.
"""

from __future__ import annotations

import builtins
import keyword
import re
from functools import lru_cache
from math import isqrt
from typing import Dict, Tuple

from mpmath.libmp import (
    from_man_exp, fzero, mpf_add, mpf_cos, mpf_div, mpf_mul, mpf_sin, normalize,
    normalize1, round_nearest,
)
from mpmath.libmp.libelefun import (
    COS_SIN_CACHE_PREC, COS_SIN_CACHE_STEP, cos_sin_basecase, cos_sin_cache, mod_pi2,
)

def indent(text: str, prefix: str) -> str:
    """text with prefix in front of each of its lines (as textwrap.indent,
    which would cost its import)."""
    return "".join(prefix + line for line in text.splitlines(True))


# the raw value sign, man, exp (man > 0 an integer) rounded to prec bits at
# round-nearest, bc set: what libmp's normalize and normalize1 return at
# round_nearest given man's exact bit count
ROUND = """\
n = man.bit_length() - prec
if n > 0:
    rest = man >> (n - 1)
    # the bit below the last kept one is set: up, unless it is an exact tie
    # and the kept bits are even
    if rest & 1 and (rest & 2 or man & ((1 << (n - 1)) - 1)):
        man = (rest >> 1) + 1
    else:
        man = rest >> 1
    exp += n
if not man & 1:
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    exp += zeros
bc = man.bit_length()
"""
# the same for man >= 0
NORMALIZE = """\
if not man:
    sign, man, exp, bc = fzero
else:
""" + indent(ROUND, "    ")

# mpf_add(s, t, prec, rnd, _sub): s + t, or s - t when _sub is 1
ADD = """\
offset = sexp - texp
if (not (sman and tman)
        # mpf_add perturbs the larger operand instead of shifting by offset
        or offset > 100 and sbc + offset - tbc > prec + 4
        or offset < -100 and tbc - offset - sbc > prec + 4):
    sign, man, exp, bc = mpf_add((ssign, sman, sexp, sbc), (tsign, tman, texp, tbc),
                                 prec, rnd, _sub)
else:
    if offset >= 0:
        man, other, exp = sman << offset, tman, texp
    else:
        man, other, exp = sman, tman << -offset, sexp
    sign = ssign
    if ssign == tsign ^ _sub:
        man += other
    else:
        man -= other
        if man < 0:
            sign, man = sign ^ 1, -man
""" + indent(NORMALIZE, "    ")

# mpf_mul(s, t, prec, rnd)
MUL = """\
man = sman * tman
if not man:
    sign, man, exp, bc = mpf_mul((ssign, sman, sexp, sbc), (tsign, tman, texp, tbc), prec, rnd)
else:
    sign, exp = ssign ^ tsign, sexp + texp
""" + indent(ROUND, "    ")

# mpf_div(s, t, prec, rnd); the quotient of the fast path is not 0
DIV = """\
if not (sman and tman):
    sign, man, exp, bc = mpf_div((ssign, sman, sexp, sbc), (tsign, tman, texp, tbc), prec, rnd)
else:
    sign = ssign ^ tsign
    if not (tman - 1):  # tman == 1, as a test that a literal settles
        man, exp = sman, sexp - texp
    else:
        # a nonzero remainder is a set bit below the quotient's last, as in
        # mpf_div
        extra = prec - sbc + tbc + 5
        if extra < 5:
            extra = 5
        man, rem = divmod(sman << extra, tman)
        if rem:
            man, extra = (man << 1) + 1, extra + 1
        exp = sexp - texp - extra
""" + indent(ROUND, "    ")

# mpf_sin(s, prec, rnd), or mpf_cos(s, prec, rnd) when _cos is 1: the steps
# of mpf_cos_sin. s is reduced by pi/2 with mod_pi2 to t, and the quadrant
# picks cos or sin of t (see _rotation) and its sign.
SIN = """\
wp = prec + 10
if not sman or sbc + sexp < -wp:
    sign, man, exp, bc = (mpf_cos if _cos else mpf_sin)((ssign, sman, sexp, sbc), prec, rnd)
else:
    t, n, wp = mod_pi2(sman, sexp, sbc + sexp, wp)
    # the value is cos or sin of t, negated where sign is 1; sin is odd
    if _cos:
        man = _rotation(t, wp, n & 1)
        sign = (n + 1) >> 1 & 1
    else:
        man = _rotation(t, wp, n & 1 ^ 1)
        sign = n >> 1 & 1 ^ ssign
    if man < 0:
        sign, man = sign ^ 1, -man
    exp = -wp
""" + indent(NORMALIZE, "    ")

# ok = 0 < size < bound for raw values s (size) and t (bound), t normalized
# and nonzero, as mpf_lt(fzero, s) and mpf_lt(s, t) decide it. Two positive
# normalized values (sign 0, odd mantissa, bc its bit count) compare by their
# top binary exponents exp + bc or, where those are equal, by their
# mantissas aligned to the smaller exp; mpf_lt subtracts the two whenever
# their exponents meet, which neighbouring orbit terms do most of the time.
# Zero, inf and nan have mantissa 0 and a negative value has sign 1, so each
# of them fails here (inf is above every finite bound). A negative bound (a
# negative seed in positive mode) fails every size.
DECAYS = """\
if ssign or not sman or tsign:
    ok = False
elif sexp + sbc != texp + tbc:
    ok = sexp + sbc < texp + tbc
elif sexp >= texp:
    ok = sman << (sexp - texp) < tman
else:
    ok = sman < tman << (texp - sexp)
"""

# The partial sum S_n of an orbit, the raw value total, plus the term s:
# the correctly rounded sum that mpf_add returns at round-nearest. A
# positive S_n is also acc * 2^e with 2^(prec-1) <= acc < 2^prec (see
# _fixed), 2^e its ulp; limit is 2^prec. A positive term is added rounded
# to nearest-even at 2^e; a sum below 2^prec keeps that ulp, so it is the
# correctly rounded sum. A carry, a negative term or a sum not positive (acc
# None) takes mpf_add. A left shift stays under 2·prec bits: S_n is a
# nonzero multiple of the ulp of an earlier term, above this one and of at
# most prec bits.
SUM = """\
added = limit
if acc is not None and not ssign:
    shift = e - sexp
    if shift <= 0:
        added = acc + (sman << -shift)
    elif shift <= sbc:
        added = acc + (sman >> shift)
        rest, half = sman & ((1 << shift) - 1), 1 << (shift - 1)
        if rest > half or rest == half and added & 1:
            added += 1
    else:  # the term is below half an ulp
        added = acc
if added < limit:
    acc = added
else:
    total = mpf_add(_sum(total, acc, e, prec), (ssign, sman, sexp, sbc), prec, rnd)
    acc, e = _fixed(total, prec)
"""


def _rotation(t, wp, want_sin):
    """The sin (want_sin 1) or the cos (0) of cos_sin_basecase(t, wp), alone:
    its table's value at the top bits of t turned by the series at the rest,
    of which only the half that is returned is formed. Past the table's
    precision, or at a value not yet in the table, cos_sin_basecase itself
    runs, which fills the table."""
    step = wp - COS_SIN_CACHE_STEP
    top = t >> step
    if wp > COS_SIN_CACHE_PREC or top not in cos_sin_cache:
        c, s = cos_sin_basecase(t, wp)
        return s if want_sin else c
    cos_t, sin_t = cos_sin_cache[top]
    cos_t >>= COS_SIN_CACHE_PREC - wp
    sin_t >>= COS_SIN_CACHE_PREC - wp
    r = t - (top << step)
    c = 1 << wp
    s = r
    k = 2
    a = -((r * r) >> wp)
    while a:
        a //= k
        c += a
        k += 1
        a = (a * r) >> wp
        a //= k
        s += a
        k += 1
        a = -((a * r) >> wp)
    if want_sin:
        return (s * cos_t + c * sin_t) >> wp
    return (c * cos_t - s * sin_t) >> wp


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


def _kernel(header: str, operands: str, text: str, result: str, other: str = "") -> None:
    """Define the function header (a def line) in this module: at a rounding
    other than to nearest it returns other, the libmp call; else it unpacks
    its operands, as "s" or "s, t", into their fields, runs text and returns
    result."""
    source = header + "\n"
    if other:
        source += f"    if rnd != round_nearest:\n        return {other}\n"
    for name in operands.split(", ") if operands else ():
        source += f"    {name}sign, {name}man, {name}exp, {name}bc = {name}\n"
    source += indent(text, "    ") + f"    return {result}\n"
    exec(compile(source, f"<kernel {header}>", "exec"), globals())


_RAW = "sign, man, exp, bc"
_kernel("def _normalize(sign, man, exp, prec):", "", NORMALIZE, _RAW)
_kernel("def add(s, t, prec, rnd, _sub=0):", "s, t", ADD, _RAW, "mpf_add(s, t, prec, rnd, _sub)")
_kernel("def mul(s, t, prec, rnd):", "s, t", MUL, _RAW, "mpf_mul(s, t, prec, rnd)")
_kernel("def div(s, t, prec, rnd):", "s, t", DIV, _RAW, "mpf_div(s, t, prec, rnd)")
_kernel("def sin(s, prec, rnd, _cos=0):", "s", SIN, _RAW,
        "(mpf_cos if _cos else mpf_sin)(s, prec, rnd)")
_kernel("def _decays(s, t):", "s, t", DECAYS, "ok")
_normalize.__doc__ = """The raw value (-1)^sign * man * 2^exp, for an integer man >= 0,
    rounded to prec bits at round-nearest: what libmp's normalize and
    normalize1 return at round_nearest given man's exact bit count."""
add.__doc__ = "mpf_add(s, t, prec, rnd, _sub): s + t, or s - t when _sub is 1."
mul.__doc__ = """mpf_mul(s, t, prec, rnd); mul(s, s, prec, rnd) is also
    mpf_pow_int(s, 2, prec, rnd)."""
div.__doc__ = "mpf_div(s, t, prec, rnd)."
sin.__doc__ = "mpf_sin(s, prec, rnd), or mpf_cos(s, prec, rnd) when _cos is 1."
_decays.__doc__ = "0 < s < t for raw values, t normalized and nonzero (see DECAYS)."


def sub(s, t, prec, rnd):
    """mpf_sub(s, t, prec, rnd)."""
    return add(s, t, prec, rnd, 1)


def cos(x, prec, rnd):
    """mpf_cos(x, prec, rnd)."""
    return sin(x, prec, rnd, 1)


# each kernel's statement text and the arguments that pick its operation
INLINE = {
    add: (ADD, {"_sub": "0"}), sub: (ADD, {"_sub": "1"}), mul: (MUL, {}), div: (DIV, {}),
    sin: (SIN, {"_cos": "0"}), cos: (SIN, {"_cos": "1"}),
}
# the names the statement texts read besides their fields, prec and rnd
GLOBALS = {name: globals()[name] for name in (
    "fzero", "mpf_add", "mpf_cos", "mpf_div", "mpf_mul", "mpf_sin", "mod_pi2",
    "_fixed", "_rotation", "_sum",
)}
# a name in a statement text, other than an attribute's, or a comment
_WORD = r"(?<![\w.])[A-Za-z_]\w*|#.*"
_KEPT = set(GLOBALS) | set(keyword.kwlist) | set(vars(builtins))


@lru_cache(maxsize=None)
def _pieces(text: str) -> Tuple[str, ...]:
    """text split at its names: the pieces at odd positions are the names,
    and "" where text has a comment."""
    pieces, at = [], 0
    for word in re.finditer(_WORD, text):
        pieces += [text[at:word.start()], "" if word.group()[0] == "#" else word.group()]
        at = word.end()
    return tuple(pieces + [text[at:]])


def inline(text: str, names: Dict[str, str], suffix: str) -> str:
    """A statement text with each name of names replaced by the source it
    maps to (a local name or a literal), and its own temporaries, every
    other name but a keyword, a builtin or one of GLOBALS, given suffix, so
    that it runs inline among other statements. Where a literal decides a
    test (an operand of not, and or or, or an if on a constant), Python's
    compiler keeps only the branch taken."""
    pieces = _pieces(text)
    out = list(pieces)
    for i in range(1, len(pieces), 2):
        word = pieces[i]
        if word in names:
            out[i] = names[word]
        elif word and word not in _KEPT:
            out[i] = word + suffix
    return "".join(out)


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
