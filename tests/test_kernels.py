"""Each kernel of recurseries.kernels against the libmp function it stands
for, bit for bit, on raw operands drawn to reach its branches: equal
exponents, mpf_add's perturbation bounds, carries to a power of two, exact
ties at both parities, cancellation to 0, divisor mantissa 1, exact
division, both signs, |x| at 1, mpf_cos_sin's tiny-argument cut and its
table's misses, odd exponents and mantissa 1 for square roots, powers on
both sides of mpf_pow_int's 1000-bit cut, and mantissas past the precision
for negation; now and then a zero, inf or nan operand. Every kernel rounds
to nearest, so each libmp function is called with round_nearest."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import (
    finf, fnan, fninf, from_man_exp, fzero, mpf_add, mpf_cos, mpf_div, mpf_mul, mpf_neg,
    mpf_pow_int, mpf_sin, mpf_sqrt, mpf_sub, normalize, round_nearest,
)
from mpmath.libmp.libelefun import COS_SIN_CACHE_PREC, COS_SIN_CACHE_STEP, cos_sin_cache

from recurseries import kernels

# the working precisions of context(64) and of its roots, and any other
PRECS = st.one_of(st.sampled_from([53, 249, 259]), st.integers(1, 300))
SPECIALS = [fzero, finf, fninf, fnan]


@st.composite
def _raw(draw, bc=None, exp=None, sign=None):
    """A regular normalized raw value: an odd mantissa of bc bits, random,
    all ones or 2^(bc-1) + 1."""
    bc = draw(st.integers(1, 320)) if bc is None else bc
    shape = draw(st.sampled_from(["random", "ones", "low"]))
    if bc == 1:
        man = 1
    elif shape == "ones":
        man = (1 << bc) - 1
    elif shape == "low":
        man = (1 << (bc - 1)) + 1
    else:
        man = 1 << (bc - 1) | draw(st.integers(0, (1 << (bc - 1)) - 1)) | 1
    exp = draw(st.integers(-400, 400)) if exp is None else exp
    sign = draw(st.integers(0, 1)) if sign is None else sign
    return sign, man, exp, bc


def _odd_exact(man):
    """The precision at which the odd mantissa man, kept whole, rounds at an
    exact tie: one bit, the last, is dropped."""
    return max(1, man.bit_length() - 1)


@st.composite
def _special(draw, args, operands):
    """args = (*operands, prec), now and then with a special operand."""
    args = list(args)
    if draw(st.integers(0, 9)) == 0:
        args[draw(st.integers(0, operands - 1))] = draw(st.sampled_from(SPECIALS))
    return tuple(args)


@st.composite
def _sums(draw):
    """(s, t, prec) for add and sub."""
    prec = draw(PRECS)
    kind = draw(st.sampled_from(["random", "equal", "near", "far", "carry", "tie", "cancel"]))
    s = draw(_raw())
    if kind == "random":
        t = draw(_raw())
    elif kind == "equal":
        t = draw(_raw(exp=s[2]))
    elif kind == "near":
        t = draw(_raw(exp=s[2] + draw(st.integers(-120, 120))))
    elif kind == "far":
        # exponents 100 or 101 apart and the magnitudes exp + bc prec + 3 to
        # prec + 5 apart: mpf_add perturbs past 100 and prec + 4
        apart = draw(st.sampled_from([100, 101]))
        gap = prec + 4 + draw(st.sampled_from([-1, 0, 1]))
        low = draw(st.integers(1, 40))
        # bit counts of the operand with the higher exponent and the other
        high_bc, low_bc = (low + gap - apart, low) if gap >= apart else (low, low + apart - gap)
        high = draw(_raw(bc=high_bc))
        t = draw(_raw(bc=low_bc, exp=high[2] - apart))
        s, t = (high, t) if draw(st.booleans()) else (t, high)
    elif kind == "carry":
        # all ones plus a unit at or below their last: 2^bc, or 2^(bc+j) - 1
        s = draw(_raw(bc=draw(st.integers(1, 300))))
        s = (s[0], (1 << s[3]) - 1, s[2], s[3])
        t = (s[0], 1, s[2] - draw(st.integers(0, 3)), 1)
        prec = draw(st.sampled_from([s[3] - 1, s[3], s[3] + 1, max(1, s[3] - 5), prec]))
    elif kind == "tie":
        t = draw(_raw(exp=s[2] - draw(st.integers(1, 100))))
        total = (-1) ** s[0] * (s[1] << (s[2] - t[2])) + (-1) ** t[0] * t[1]
        prec = _odd_exact(abs(total))
    else:  # -s, to 0; sub(s, s) is drawn with op
        t = (1 - s[0],) + s[1:]
    return draw(_special((s, t, max(1, prec)), 2))


@st.composite
def _products(draw):
    """(s, t, prec) for mul; half are squares, and a third round a
    product at an exact tie."""
    s = draw(_raw())
    t = s if draw(st.booleans()) else draw(_raw())
    prec = draw(st.one_of(PRECS, st.just(_odd_exact(s[1] * t[1]))))
    return draw(_special((s, t, prec), 2))


@st.composite
def _quotients(draw):
    """(s, t, prec) for div: random, divisor mantissa 1, and exact
    quotients, some at a tie."""
    kind = draw(st.sampled_from(["random", "unit", "exact", "tie"]))
    prec = draw(PRECS)
    t = draw(_raw())
    if kind == "random":
        s = draw(_raw())
    elif kind == "unit":
        t = (t[0], 1, t[2], 1)
        s = draw(_raw())
        prec = draw(st.one_of(st.just(prec), st.just(_odd_exact(s[1]))))
    else:
        q = draw(_raw(bc=draw(st.integers(1, 300))))[1]
        if kind == "tie":
            prec = _odd_exact(q)
        man = q * t[1]
        s = (draw(st.integers(0, 1)), man, draw(st.integers(-400, 400)), man.bit_length())
    return draw(_special((s, t, prec), 2))


@st.composite
def _angles(draw):
    """(x, prec) for sin and cos: |x| from 2^-400 to 2^8, just below and
    above 1, at mpf_cos_sin's cut 2^-(prec+10), and of magnitude exp + bc
    near that cut, 0 and 1 (|x| in [1/2, 1) and [1, 2))."""
    prec = draw(PRECS)
    kind = draw(st.sampled_from(["random", "unit", "tiny", "magnitude"]))
    sign = draw(st.integers(0, 1))
    # prec + 1 bits: just above the cut, sin(x) rounds x itself at a tie
    bc = draw(st.one_of(st.just(prec + 1), st.integers(1, prec + 20)))
    if kind == "random":
        x = draw(_raw(bc=bc, sign=sign))
        x = x[:2] + (draw(st.integers(-400, 8)) - bc, bc)
    elif kind == "unit":
        x = from_man_exp((-1) ** sign * ((1 << bc) + draw(st.integers(-3, 3))), -bc)
    else:
        x = draw(_raw(bc=bc, sign=sign))
        mag = -(prec + 10) + draw(st.integers(-2, 1)) if kind == "tiny" else draw(
            st.sampled_from([-(prec + 10) + 2, -(prec + 9), -1, 0, 1]))
        x = x[:2] + (mag - bc, bc)
    return draw(_special((x, prec), 1))


@st.composite
def _roots(draw):
    """(x, prec) for sqrt: odd and even exponents, mantissa 1, exact
    squares, and now and then a negative x."""
    kind = draw(st.sampled_from(["random", "unit", "square"]))
    if kind == "unit":
        x = (0, 1, draw(st.integers(-400, 400)), 1)
    elif kind == "square":
        man = draw(_raw(bc=draw(st.integers(1, 160))))[1] ** 2
        x = (0, man, 2 * draw(st.integers(-200, 200)), man.bit_length())
    else:
        x = draw(_raw(sign=0))
    if draw(st.integers(0, 19)) == 0:
        x = (1,) + x[1:]
    return draw(_special((x, draw(PRECS)), 1))


@st.composite
def _powers(draw):
    """(x, n, prec) for pow_int: n from 3 to 16 with bc * n on both
    sides of 1000, both signs, now and then n from -3 to 2."""
    n = draw(st.one_of(st.integers(3, 16), st.integers(-3, 2)))
    bc = draw(st.one_of(st.integers(1, 320), st.just(max(1, 1000 // abs(n or 1) + draw(
        st.integers(-1, 1))))))
    x = draw(_raw(bc=bc, exp=draw(st.integers(-200, 200))))
    x, prec = draw(_special((x, draw(PRECS)), 1))
    return x, n, prec


@st.composite
def _negations(draw):
    """(x, prec) for neg: mantissas at, below and above prec bits."""
    x = draw(_raw(bc=draw(st.integers(1, 320))))
    prec = draw(st.one_of(PRECS, st.sampled_from([x[3] - 1, x[3], x[3] + 1]).filter(bool)))
    return draw(_special((x, prec), 1))


def _same(kernel, libmp, args):
    try:
        want = libmp(*args, round_nearest)
    except (ZeroDivisionError, ValueError) as err:
        with pytest.raises(type(err)):
            kernel(*args)
        return
    assert kernel(*args) == want


@st.composite
def _mantissas(draw):
    """(man, prec): man >= 0 random, 2^k or 2^k - 1, or the prec bits of kept
    with one set bit after them, an exact tie."""
    prec = draw(PRECS)
    kind = draw(st.sampled_from(["random", "power", "ones", "tie"]))
    if kind == "random":
        return draw(st.integers(0, 2**400)), prec
    if kind == "power":
        return 1 << draw(st.integers(0, 300)), prec
    if kind == "ones":
        return (1 << draw(st.integers(1, 300))) - 1, prec
    kept = draw(st.integers(1, 2**300))
    dropped = draw(st.integers(1, 60))
    return kept << dropped | 1 << (dropped - 1), kept.bit_length()


@settings(max_examples=500, deadline=None)
@given(drawn=_mantissas(), exp=st.integers(-500, 500), sign=st.integers(0, 1))
def test_normalize_is_libmp_normalize_at_round_nearest(drawn, exp, sign):
    man, prec = drawn
    want = normalize(sign, man, exp, man.bit_length(), prec, "n")
    assert kernels._normalize(sign, man, exp, prec) == want


@settings(max_examples=1500, deadline=None)
@given(_sums(), st.booleans())
def test_add_and_sub_are_mpf_add_and_mpf_sub(args, same):
    s, t, prec = args
    _same(kernels.add, mpf_add, args)
    _same(kernels.sub, mpf_sub, args)
    _same(kernels.sub, mpf_sub, (s, s, prec) if same else (t, s, prec))


@settings(max_examples=600, deadline=None)
@given(_products())
def test_mul_is_mpf_mul_and_a_square_is_mpf_pow_int(args):
    s, t, prec = args
    _same(kernels.mul, mpf_mul, args)
    assert kernels.mul(s, s, prec) == mpf_pow_int(s, 2, prec, round_nearest)


@settings(max_examples=800, deadline=None)
@given(_quotients())
def test_div_is_mpf_div(args):
    _same(kernels.div, mpf_div, args)


@settings(max_examples=800, deadline=None)
@given(_angles(), st.booleans())
def test_sin_and_cos_are_mpf_sin_and_mpf_cos(args, empty_table):
    # with an empty table every value misses it, and cos_sin_basecase runs
    with mock.patch.dict(cos_sin_cache, clear=empty_table):
        got = kernels.sin(*args), kernels.cos(*args)
    assert got == (mpf_sin(*args, round_nearest), mpf_cos(*args, round_nearest))


def test_the_sine_series_ends_within_its_terms():
    # cos_sin_basecase's series at the table's precision and the largest rest
    # r < 2^(wp-8), where it runs longest: its pairs of terms, counted as it
    # runs them, fit kernels._TERMS with room to spare
    wp = COS_SIN_CACHE_PREC
    r = (1 << (wp - COS_SIN_CACHE_STEP)) - 1
    a, k, pairs = -((r * r) >> wp), 2, 0
    while a:
        a //= k
        a = (a * r) >> wp
        a //= k + 1
        a = -((a * r) >> wp)
        k, pairs = k + 2, pairs + 1
    assert 2 * pairs < len(kernels._TERMS)


@settings(max_examples=600, deadline=None)
@given(_roots())
def test_sqrt_is_mpf_sqrt(args):
    _same(kernels.sqrt, mpf_sqrt, args)


@settings(max_examples=600, deadline=None)
@given(_powers())
def test_pow_int_is_mpf_pow_int(args):
    _same(kernels.pow_int, mpf_pow_int, args)


@settings(max_examples=300, deadline=None)
@given(_negations())
def test_neg_is_mpf_neg(args):
    _same(kernels.neg, mpf_neg, args)


@st.composite
def _fixed_sums(draw):
    """(acc, e, prec): a partial sum acc * 2^e of exactly prec bits."""
    prec = draw(PRECS)
    kind = draw(st.sampled_from(["random", "power", "ones"]))
    if kind == "power":
        acc = 1 << (prec - 1)
    elif kind == "ones":
        acc = (1 << prec) - 1
    else:
        acc = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
    return acc, draw(st.integers(-500, 500)), prec


@settings(max_examples=300, deadline=None)
@given(_fixed_sums())
def test_the_partial_sum_is_libmp_normalize(drawn):
    acc, e, prec = drawn
    assert kernels._sum(None, acc, e, prec) == normalize(0, acc, e, prec, prec, "n")


def _libmp_calls(name, args):
    """The libmp functions the kernel must call: its own for a zero or
    special operand, mpf_add's
    perturbation (exponents more than 100 apart and magnitudes more than
    prec + 4), mpf_cos_sin's tiny argument, below 2^-(prec+10), a negative
    square root, a power past mpf_pow_int's 1000 bits or a negative one, and
    a negation past prec bits; and for sin, mod_pi2 at |x| >= 1 and
    cos_sin_basecase past the table's precision or at a value not in it."""
    *operands, prec = args
    x = operands[0]
    own = {"add": "mpf_add", "mul": "mpf_mul", "div": "mpf_div", "sin": "mpf_sin",
           "sqrt": "mpf_sqrt", "pow_int": "mpf_pow_int", "neg": "mpf_neg"}[name]
    if name == "neg":
        return set() if x[1] and x[3] <= prec else {own}
    if not all(x[1] for x in operands if isinstance(x, tuple)):
        return {own}
    if name == "add":
        (_, _, sexp, sbc), (_, _, texp, tbc) = operands
        offset, delta = sexp - texp, sexp + sbc - texp - tbc
        return {own} if (offset > 100 and delta > prec + 4
                         or offset < -100 and -delta > prec + 4) else set()
    if name == "sqrt":
        return {own} if x[0] else set()
    if name == "pow_int":
        return {own} if not 0 <= x[3] * operands[1] < 1000 else set()
    if name == "sin":
        mag = x[2] + x[3]
        if mag < -(prec + 10):
            return {own}
        if mag > 0:  # the table's key is mod_pi2's to find
            return {"mod_pi2"}
        wp = prec + 10 - mag
        t = x[1] << (prec + 10 - x[3]) if x[3] <= prec + 10 else x[1] >> (x[3] - prec - 10)
        miss = wp > COS_SIN_CACHE_PREC or t >> (wp - COS_SIN_CACHE_STEP) not in cos_sin_cache
        return {"cos_sin_basecase"} if miss else set()
    return set()


_LIBMP = ["mpf_add", "mpf_mul", "mpf_div", "mpf_sin", "mpf_sqrt", "mpf_pow_int", "mpf_neg",
          "mod_pi2", "cos_sin_basecase"]


@settings(max_examples=800, deadline=None)
@given(st.one_of(_sums().map(lambda a: ("add", a)), _products().map(lambda a: ("mul", a)),
                 _quotients().map(lambda a: ("div", a)), _angles().map(lambda a: ("sin", a)),
                 _roots().map(lambda a: ("sqrt", a)), _powers().map(lambda a: ("pow_int", a)),
                 _negations().map(lambda a: ("neg", a))))
def test_kernels_call_libmp_exactly_off_their_fast_paths(case):
    name, args = case
    want = _libmp_calls(name, args)
    wrapped = {f: mock.Mock(wraps=getattr(kernels, f)) for f in _LIBMP}
    with mock.patch.multiple(kernels, **wrapped):
        try:
            getattr(kernels, name)(*args)
        except (ZeroDivisionError, ValueError):
            pass
    got = {f for f, called in wrapped.items() if called.called}
    if name == "sin" and "mod_pi2" in want:
        # at |x| >= 1 the table's key comes from mod_pi2's reduction
        assert got - {"cos_sin_basecase"} == {"mod_pi2"}
    else:
        assert got == want
