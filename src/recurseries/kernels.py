"""Fast paths for the libmp kernels that compiled f calls on every
evaluation, with the bits of the libmp functions they stand for at
round-nearest, which the libmp calls in the comments below leave out.

For regular operands (a nonzero mantissa) and a precision prec >= 1, add,
mul, div, sin and cos, sqrt and pow_int do the integer arithmetic of
mpf_add, mpf_mul, mpf_div, mpf_cos_sin, mpf_sqrt and mpf_pow_int and round
it once with _normalize; neg flips the sign where mpf_neg keeps the value.
Every other case calls the libmp function itself: zeros, inf and nan,
mpf_add's perturbation of an operand far below the other, mpf_cos_sin's
shortcut for an argument below 2^-(prec+10), a negative square root, and a
negative power or one of bc * n >= 1000 bits. sin and cos call libmp's
mod_pi2 for |x| >= 1, and its cos_sin_basecase past its table. _decays is
the orbit's decay test, as mpf_lt decides it, and SUM adds a term to its
partial sum with the bits of mpf_add.

Each fast path is written once, as statement text on the unpacked fields
of its operands: ssign, sman, sexp, sbc and tsign, tman, texp, tbc, at
precision prec, leaving sign, man, exp and bc. The functions of this module
run that text on their arguments, and the compiled orbit loop (see
expr.orbit_loop) runs it inline (see inline), with the fields of a constant
operand as literals.
"""

from __future__ import annotations

import builtins
import keyword
import re
from functools import lru_cache
from math import isqrt
from typing import Dict, Tuple

from mpmath.libmp import (
    fzero, mpf_add, mpf_cos, mpf_div, mpf_mul, mpf_neg, mpf_pow_int, mpf_sin, mpf_sqrt,
    round_nearest,
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
bc = man.bit_length()
n = bc - prec
if n > 0:
    rest = man >> (n - 1)
    # the bit below the last kept one is set: up, unless it is an exact tie
    # and the kept bits are even
    if rest & 1 and (rest & 2 or man & ((1 << (n - 1)) - 1)):
        man = (rest >> 1) + 1
    else:
        man = rest >> 1
    exp += n
    bc = prec
if not man & 1:
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    exp += zeros
    # a carry to 2^prec leaves man = 1, of 1 bit
    bc = bc - zeros or 1
"""
# the same for man >= 0
NORMALIZE = """\
if not man:
    sign, man, exp, bc = fzero
else:
""" + indent(ROUND, "    ")

# mpf_add(s, t, prec, _sub): s + t, or s - t when _sub is 1
ADD = """\
offset = sexp - texp
if (not (sman and tman)
        # mpf_add perturbs the larger operand instead of shifting by offset
        or offset > 100 and sbc + offset - tbc > prec + 4
        or offset < -100 and tbc - offset - sbc > prec + 4):
    sign, man, exp, bc = mpf_add((ssign, sman, sexp, sbc), (tsign, tman, texp, tbc),
                                 prec, round_nearest, _sub)
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

# mpf_mul(s, t, prec)
MUL = """\
man = sman * tman
if not man:
    sign, man, exp, bc = mpf_mul((ssign, sman, sexp, sbc), (tsign, tman, texp, tbc),
                                 prec, round_nearest)
else:
    sign, exp = ssign ^ tsign, sexp + texp
""" + indent(ROUND, "    ")

# mpf_div(s, t, prec); the quotient of the fast path is not 0
DIV = """\
if not (sman and tman):
    sign, man, exp, bc = mpf_div((ssign, sman, sexp, sbc), (tsign, tman, texp, tbc),
                                 prec, round_nearest)
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

# the series' k in cos_sin_basecase, two at a time: its j-th term is below
# 2^(wp - 8j) plus the floors' -1s, so at wp <= COS_SIN_CACHE_PREC it ends
# long before k = COS_SIN_CACHE_PREC / 4
_TERMS = tuple(range(2, COS_SIN_CACHE_PREC // 4, 2))

# mpf_sin(s, prec), or mpf_cos(s, prec) when _cos is 1: the steps
# of mpf_cos_sin. s is reduced by pi/2 to t = |s| mod pi/2 as a fixed-point
# number of wp bits, and the quadrant n: with mod_pi2 for |s| >= 1, and
# below 1 by mod_pi2's shift, with n = 0. Then cos_sin_basecase(t, wp):
# its table's value at the top bits of t, turned by the series at the rest
# r, of which only the half that is returned is formed. Past the table's
# precision, or at a value not yet in the table, cos_sin_basecase itself
# runs, which fills the table; its pair is then turned by r = 0.
SIN = f"""\
wp = prec + 10
if not sman or sbc + sexp < -wp:
    sign, man, exp, bc = (mpf_cos if _cos else mpf_sin)((ssign, sman, sexp, sbc), prec,
                                                        round_nearest)
else:
    if sbc + sexp > 0:
        t, n, wp = mod_pi2(sman, sexp, sbc + sexp, wp)
    else:  # mod_pi2 below 1: a shift to wp - (sbc + sexp) bits, n = 0
        n = 0
        wp -= sbc + sexp
        if sbc <= prec + 10:
            t = sman << (prec + 10 - sbc)
        else:
            t = sman >> (sbc - prec - 10)
    top = t >> (wp - {COS_SIN_CACHE_STEP})
    pair = cos_sin_cache.get(top) if wp <= {COS_SIN_CACHE_PREC} else None
    if pair is None:
        (cos_t, sin_t), cos_r, sin_r = cos_sin_basecase(t, wp), 1 << wp, 0
    else:
        cos_t, sin_t = pair
        cos_t >>= {COS_SIN_CACHE_PREC} - wp
        sin_t >>= {COS_SIN_CACHE_PREC} - wp
        r = t - (top << (wp - {COS_SIN_CACHE_STEP}))
        cos_r, sin_r = 1 << wp, r
        a = -((r * r) >> wp)
        for k in {_TERMS}:
            if not a:
                break
            a //= k
            cos_r += a
            a = (a * r) >> wp
            a //= k + 1
            sin_r += a
            a = -((a * r) >> wp)
    # the value is cos or sin of t, negated where sign is 1; sin is odd
    if _cos:
        want_sin, sign = n & 1, (n + 1) >> 1 & 1
    else:
        want_sin, sign = n & 1 ^ 1, n >> 1 & 1 ^ ssign
    if want_sin:
        man = (sin_r * cos_t + cos_r * sin_t) >> wp
    else:
        man = (cos_r * cos_t - sin_r * sin_t) >> wp
    if man < 0:
        sign, man = sign ^ 1, -man
    exp = -wp
""" + indent(NORMALIZE, "    ")

# mpf_sqrt(s, prec) step for step, with math.isqrt for the exact
# integer floor root (isqrt or sqrtrem) that mpf_sqrt takes; a negative s
# calls mpf_sqrt, which raises
SQRT = """\
if ssign or not sman:
    sign, man, exp, bc = mpf_sqrt((ssign, sman, sexp, sbc), prec, round_nearest)
else:
    sign, man, exp, bc = 0, sman, sexp, sbc
    if exp & 1:
        man, exp, bc = man << 1, exp - 1, bc + 1
    if man == 1:  # an even power of 2, whose root is exact
        exp >>= 1
    else:
        shift = 2 * prec - bc + 4
        if shift < 4:
            shift = 4
        shift += shift & 1
        man <<= shift
        root = isqrt(man)
        if root * root != man:
            # a nonzero remainder perturbs the root up, as in mpf_sqrt
            root, shift = (root << 1) + 1, shift + 2
        man, exp = root, (exp - shift) // 2
""" + indent(ROUND, "    ")

# mpf_pow_int(s, power, prec) for an integer power: its exact power,
# taken where bc * power < 1000, and for power 0, 1 and 2 the same bits
POW = """\
if not sman or not 0 <= sbc * power < 1000:
    sign, man, exp, bc = mpf_pow_int((ssign, sman, sexp, sbc), power, prec, round_nearest)
else:
    sign, man, exp = ssign & power, sman ** power, sexp * power
""" + indent(ROUND, "    ")

# mpf_neg(s, prec): s with its sign flipped, which normalize1 keeps
# for a regular s of at most prec bits
NEG = """\
if sman and sbc <= prec:
    sign, man, exp, bc = ssign ^ 1, sman, sexp, sbc
else:
    sign, man, exp, bc = mpf_neg((ssign, sman, sexp, sbc), prec, round_nearest)
"""

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
    total = mpf_add(_sum(total, acc, e, prec), (ssign, sman, sexp, sbc), prec, round_nearest)
    acc, e = _fixed(total, prec)
"""


def _fixed(s, prec):
    """(acc, e) with s = acc * 2^e and 2^(prec-1) <= acc < 2^prec for a
    positive raw value s of at most prec bits; (None, None) for any other."""
    sign, man, exp, bc = s
    if sign or not man or bc > prec:
        return None, None
    return man << (prec - bc), exp - (prec - bc)


def _sum(s, acc, e, prec):
    """The raw partial sum: acc * 2^e while acc holds it, else s."""
    return s if acc is None else _normalize(0, acc, e, prec)


def _kernel(header: str, operands: str, text: str, result: str) -> str:
    """The source of the function header (a def line): it unpacks its
    operands, as "s" or "s, t", into their fields, runs text and returns
    result."""
    source = header + "\n"
    for name in operands.split(", ") if operands else ():
        source += f"    {name}sign, {name}man, {name}exp, {name}bc = {name}\n"
    return source + indent(text, "    ") + f"    return {result}\n"


# the kernels of this module, compiled together
_RAW = "sign, man, exp, bc"
exec(compile("".join([
    _kernel("def _normalize(sign, man, exp, prec):", "", NORMALIZE, _RAW),
    _kernel("def add(s, t, prec, _sub=0):", "s, t", ADD, _RAW),
    _kernel("def mul(s, t, prec):", "s, t", MUL, _RAW),
    _kernel("def div(s, t, prec):", "s, t", DIV, _RAW),
    _kernel("def sin(s, prec, _cos=0):", "s", SIN, _RAW),
    _kernel("def sqrt(s, prec):", "s", SQRT, _RAW),
    _kernel("def pow_int(s, power, prec):", "s", POW, _RAW),
    _kernel("def neg(s, prec):", "s", NEG, _RAW),
    _kernel("def _decays(s, t):", "s, t", DECAYS, "ok"),
]), "<kernels>", "exec"))
_normalize.__doc__ = """The raw value (-1)^sign * man * 2^exp, for an integer man >= 0,
    rounded to prec bits at round-nearest: what libmp's normalize and
    normalize1 return at round_nearest given man's exact bit count."""
add.__doc__ = "mpf_add(s, t, prec, round_nearest, _sub): s + t, or s - t when _sub is 1."
mul.__doc__ = """mpf_mul(s, t, prec, round_nearest); mul(s, s, prec) is also
    mpf_pow_int(s, 2, prec, round_nearest)."""
div.__doc__ = "mpf_div(s, t, prec, round_nearest)."
sin.__doc__ = "mpf_sin(s, prec, round_nearest), or mpf_cos when _cos is 1."
sqrt.__doc__ = "mpf_sqrt(s, prec, round_nearest)."
pow_int.__doc__ = "mpf_pow_int(s, power, prec, round_nearest) for an integer power."
neg.__doc__ = "mpf_neg(s, prec, round_nearest)."
_decays.__doc__ = "0 < s < t for raw values, t normalized and nonzero (see DECAYS)."


def sub(s, t, prec):
    """mpf_sub(s, t, prec, round_nearest)."""
    return add(s, t, prec, 1)


def cos(x, prec):
    """mpf_cos(x, prec, round_nearest)."""
    return sin(x, prec, 1)


# each kernel's statement text and the arguments that pick its operation
INLINE = {
    add: (ADD, {"_sub": "0"}), sub: (ADD, {"_sub": "1"}), mul: (MUL, {}), div: (DIV, {}),
    sin: (SIN, {"_cos": "0"}), cos: (SIN, {"_cos": "1"}), sqrt: (SQRT, {}), pow_int: (POW, {}),
    neg: (NEG, {}),
}
# the names the statement texts read besides their fields and prec
GLOBALS = {name: globals()[name] for name in (
    "fzero", "isqrt", "mpf_add", "mpf_cos", "mpf_div", "mpf_mul", "mpf_neg", "mpf_pow_int",
    "mpf_sin", "mpf_sqrt", "round_nearest", "cos_sin_basecase", "cos_sin_cache", "mod_pi2",
    "_fixed", "_sum",
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

