import functools
from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, reject, settings, strategies as st
from mpmath.libmp import from_man_exp, fzero, mpf_neg, mpf_pow, mpf_sqrt, round_nearest

from recurseries import expr, kernels
from recurseries.expr import (
    ArityError,
    BinOp,
    Call,
    Const,
    EvalDomainError,
    ExprSyntaxError,
    FunctionDef,
    Neg,
    Number,
    Product,
    Sum,
    UnknownIdentifierError,
    Var,
    context,
    evaluator,
    orbit_loop,
    parity,
    parse,
    parse_constant,
    render,
    taylor_polynomial,
)
from recurseries.germ import expand, reflect
from recurseries.grids import seed_grid

CTX = context(64)


def value_at(f, x, ctx=CTX):
    """f(x) as an mpf of ctx: the compiled f maps the raw value of
    ctx.convert(x) to the raw value of f(x)."""
    return ctx.make_mpf(evaluator(f, ctx)(ctx.convert(x)._mpf_))


def test_context_carries_guard_digits():
    assert context(64).dps == 74
    assert context(16).dps == 26
    with pytest.raises(ValueError):
        context(15)


def test_a_changed_context_is_not_returned_again():
    # one context per precision, kept while workprec and extraprec restore
    # it; one whose prec, dps or rounding a caller set is replaced by a new
    # clone. At 37 digits, which no other test uses: a changed context
    # stays changed for whoever holds it
    ctx = context(37)
    prec = ctx.prec
    assert context(37) is ctx and context(38) is not ctx
    with ctx.extraprec(100):
        pass
    with ctx.workprec(20):
        pass
    assert context(37) is ctx
    changes = [lambda c: setattr(c, "prec", c.prec + 1),
               lambda c: setattr(c, "dps", 60),
               lambda c: setattr(c, "dps", 40),
               lambda c: c._prec_rounding.__setitem__(1, "d")]
    for change in changes:
        change(ctx)
        fresh = context(37)
        assert fresh is not ctx
        assert (fresh.dps, fresh._prec_rounding) == (47, [prec, "n"])
        assert context(37) is fresh
        ctx = fresh


TRICKY = [
    "x",
    "1 + 2 * x",
    "(1 + 2) * x",
    "x - (x - x)",
    "x - x - x",
    "2 ^ 3 ^ 2",
    "(2 ^ 3) ^ 2",
    "-x ^ 2",
    "(-x) ^ 2",
    "x / (1 + x)",
    "x / 2 / 3",
    "x / (2 / 3)",
    "sin(1 / x) * x",
    "x * (1/2 + 1/3 * sin(1/x))",
    "x / (1 + 2 * x ^ 0.25) ^ (1 / 0.25)",
    "exp(-x) * cos(x) - sqrt(abs(x - pi)) + e",
]


@pytest.mark.parametrize("text", TRICKY)
def test_parse_render_round_trip(text):
    f = parse(text)
    again = parse(render(f))
    assert again.root == f.root


@pytest.mark.parametrize("text,expected", [
    ("2^3^2", 512),
    ("(2^3)^2", 64),
    ("2-3-4", -5),
    ("24/4/2", 3),
    ("2+3*4", 14),
    ("-2^2", -4),
    ("(-2)^2", 4),
    ("(-2)^3", -8),
])
def test_precedence(text, expected):
    assert value_at(parse(text), 1) == expected


def test_eval_against_direct_mpmath():
    x = CTX.mpf("0.37")
    cases = {
        "sin(x)": CTX.sin(x),
        "cos(x)": CTX.cos(x),
        "exp(x)": CTX.exp(x),
        "ln(x)": CTX.ln(x),
        "sqrt(x)": CTX.sqrt(x),
        "abs(-x)": x,
        "pi * x": CTX.pi * x,
        "e ^ x": CTX.exp(x),
        "x ^ 2.5": CTX.power(x, CTX.mpf("2.5")),
    }
    for text, want in cases.items():
        got = value_at(parse(text), x)
        assert abs(got - want) <= abs(want) * CTX.mpf("1e-70"), text


def test_number_literals_reread_per_precision():
    # "0.1" must be re-interpreted at the working precision, not cached
    # as a binary double
    residue = value_at(parse("0.1 * 3 - 0.3"), 1, context(64))
    assert abs(residue) < mpmath.mpf("1e-70")
    lo = value_at(parse("1/3"), 1, context(16))
    hi = value_at(parse("1/3"), 1, context(64))
    assert lo != hi  # more digits at higher precision


def test_scientific_notation_literals():
    assert abs(value_at(parse("1e-3 + 2.5E2"), 1) - CTX.mpf("250.001")) < CTX.mpf("1e-70")
    assert value_at(parse(".5 + 2."), 1) == CTX.mpf("2.5")


@pytest.mark.parametrize("text,err,offset", [
    ("", ExprSyntaxError, 0),
    ("x +", ExprSyntaxError, 3),
    (")", ExprSyntaxError, 0),
    ("x x", ExprSyntaxError, 2),
    ("foo(x)", UnknownIdentifierError, 0),
    ("x + bar", UnknownIdentifierError, 4),
    ("sin(x, x)", ArityError, 0),
    ("sin()", ExprSyntaxError, 4),
    ("2 @ 3", ExprSyntaxError, 2),
])
def test_parse_errors_carry_offsets(text, err, offset):
    with pytest.raises(err) as info:
        parse(text)
    assert info.value.offset == offset


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2x")
    with pytest.raises(ExprSyntaxError):
        parse("x (1 + x)")


@pytest.mark.parametrize("text,x,fragment", [
    ("ln(x - 1)", "0.5", "ln"),
    ("sqrt(x - 1)", "0.5", "sqrt"),
    ("1 / (x - x)", "3", "division by zero"),
    ("(x - x) ^ (-1)", "3", "zero raised to a negative power"),
    ("(-x) ^ 0.5", "2", "negative base"),
    # both operands fail: a quotient reads its denominator first, a power
    # its base
    ("ln(x - 1) / sqrt(x - 2)", "0.5", "square root"),
    ("sqrt(x - 2) ^ ln(x - 1)", "0.5", "square root"),
])
def test_domain_errors_name_subexpression(text, x, fragment):
    with pytest.raises(EvalDomainError) as info:
        value_at(parse(text), x)
    assert fragment in str(info.value)
    assert info.value.x == CTX.convert(x) and isinstance(info.value.x, CTX.mpf)


def test_parse_constant():
    assert parse_constant("1/3", CTX) == CTX.mpf(1) / 3
    assert parse_constant("2 * pi", CTX) == 2 * CTX.pi
    with pytest.raises(ValueError):
        parse_constant("x + 1", CTX)


def test_taylor_polynomial_matches_hand_sum():
    coeffs = (CTX.mpf(1), CTX.mpf(0), CTX.mpf(-1) / 6)
    f = taylor_polynomial(coeffs, CTX)
    assert f.coefficients == coeffs
    for xt in ("0.5", "0.1", "0.03"):
        x = CTX.mpf(xt)
        want = x - x**3 / 6
        assert abs(value_at(f, x) - want) < mpmath.mpf("1e-70")


@settings(max_examples=200, deadline=None)
@given(coefficients=st.lists(st.fractions(-10, 10, max_denominator=10**6), min_size=1,
                             max_size=6).filter(any),
       precision=st.sampled_from([16, 30, 64, 100]))
def test_taylor_coefficients_read_back_bit_for_bit(coefficients, precision):
    # each coefficient the tree writes reads back on the context as the one
    # the polynomial carries, and its germ reads: -1/6 at precision 64 was
    # written in 74 digits, 3.3e-75 off
    ctx = context(precision)
    f = taylor_polynomial([ctx.mpf(c.numerator) / c.denominator for c in coefficients], ctx)
    terms, ops = (f.root.terms, "+" + f.root.ops) if isinstance(f.root, Sum) else ((f.root,), "+")
    carried = [c for c in f.coefficients if c]
    assert len(terms) == len(carried)
    for term, op, c in zip(terms, ops, carried):
        if isinstance(term, Product):  # a * x^k, or -a * x^k first
            written = parse_constant(render(FunctionDef(term.terms[0], "")), ctx)
        else:  # x^k, or -x^k first
            written = -1 if isinstance(term, Neg) else 1
        assert (written if op == "+" else -written) == c


def test_taylor_polynomial_edge_cases():
    assert render(taylor_polynomial((1,), CTX)) == "x"
    f = taylor_polynomial((1, -1), CTX)
    assert value_at(f, "0.5") == mpmath.mpf("0.25")
    with pytest.raises(ValueError):
        taylor_polynomial((0, 0), CTX)
    with pytest.raises(ValueError):
        taylor_polynomial((), CTX)


# random binary expression trees, the reference for the n-ary trees parse
# builds: each + - * / is a BinOp, as a left-deep chain was before Sum and
# Product. They are read through their text (see _binary_text and _nary)
_numbers = st.sampled_from(["0", "1", "2", "0.5", "1.25", "3e-2"])
_leaf = st.one_of(
    _numbers.map(Number),
    st.just(Var()),
    st.sampled_from(["pi", "e"]).map(Const),
)


def _node_strategy():
    return st.recursive(
        _leaf,
        lambda children: st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(
                st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "abs"]),
                children,
            ).map(lambda t: Call(t[0], t[1])),
        ),
        max_leaves=25,
    )


# the precedence levels of the binary trees' text; higher binds tighter
_LEVELS = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _binary_level(node):
    if isinstance(node, BinOp):
        return _LEVELS[node.op]
    return 3 if isinstance(node, Neg) else 5


def _binary_text(node):
    """The text of a binary tree, parenthesized as the renderer did before
    chains became Sum and Product nodes."""
    if isinstance(node, Call):
        return f"{node.func}({_binary_text(node.arg)})"
    if not isinstance(node, (Neg, BinOp)):  # a number, x, pi or e
        return render(FunctionDef(node, ""))
    if isinstance(node, Neg):
        inner = _binary_text(node.operand)
        return f"-({inner})" if _binary_level(node.operand) < 4 else f"-{inner}"
    left, right = _binary_text(node.left), _binary_text(node.right)
    level = _LEVELS[node.op]
    # the left operand of + - * / in parentheses below its level, of ^ below
    # an atom; the right one of + - * / at or below its level, of ^ below -
    if _binary_level(node.left) < (level if level < 4 else 5):
        left = f"({left})"
    if _binary_level(node.right) < (level + 1 if level < 4 else 3):
        right = f"({right})"
    return f"{left} {node.op} {right}"


def _nary(root):
    """The n-ary tree parse builds from a binary tree's text."""
    return parse(_binary_text(root)).root


def _binary(node):
    """The binary tree of an n-ary one, each chain left-deep."""
    if isinstance(node, (Sum, Product)):
        return functools.reduce(lambda left, t: BinOp(t[0], left, _binary(t[1])),
                                zip(node.ops, node.terms[1:]), _binary(node.terms[0]))
    kids = {k: _binary(getattr(node, k)) for k in ("arg", "operand", "left", "right")
            if hasattr(node, k)}
    return replace(node, **kids) if kids else node


@given(_node_strategy())
def test_render_parse_fixed_point(root):
    # render gives the binary tree's own text, which parse reads back
    text = _binary_text(root)
    f = parse(text)
    assert render(f) == text
    assert parse(render(f)).root == f.root


def test_chains_parse_to_one_node():
    assert parse("x - 2 + x*3*x").root == Sum(
        (Var(), Number("2"), Product((Var(), Number("3"), Var()), "**")), "-+")
    assert parse("-x + 1").root == Sum((Neg(Var()), Number("1")), "+")
    assert parse("x*2/3*x").root == Product((Var(), Number("2"), Number("3"), Var()), "*/*")
    for text in ("(x + 1) + x", "(x * 2) * x", "x - (1 - x)", "x * (2 * x)", "(x * 2) / x",
                 "(x / 2) * x"):
        assert render(parse(text)) == text
        assert len(parse(text).root.terms) == 2


def test_evaluator_maps_raw_values_to_raw_values():
    fn = evaluator(parse("x/2"), CTX)
    assert fn(CTX.mpf(1)._mpf_) == CTX.mpf("0.5")._mpf_
    assert fn(CTX.convert(0.5)._mpf_) == CTX.mpf("0.25")._mpf_
    assert fn(CTX.mpf("0.1")._mpf_) == (CTX.mpf("0.1") / 2)._mpf_
    assert type(fn(CTX.mpf(1)._mpf_)) is tuple


def test_evaluator_precision_is_fixed_when_compiled():
    ctx = context(64)
    fn = evaluator(parse("x/3"), ctx)
    x = ctx.mpf(1)
    want = fn(x._mpf_)
    with ctx.extraprec(100):
        assert fn(x._mpf_) == want
        assert (x / 3)._mpf_ != want


class _TooLarge(Exception):
    """An argument so large that the libmp call would take minutes (for
    example sin of 2^(10^9), which needs pi to 10^9 bits)."""


def _by_mpf_operators(node, x):
    """node at x by CTX's own mpf operators and functions, raising the
    EvalDomainError evaluator documents."""
    if isinstance(node, Number):
        return CTX.mpf(node.text)
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return +CTX.pi if node.name == "pi" else CTX.exp(1)
    where = _binary_text(node)
    if isinstance(node, Neg):
        return -_by_mpf_operators(node.operand, x)
    if isinstance(node, Call):
        v = _by_mpf_operators(node.arg, x)
        if node.func == "abs":
            return abs(v)
        if node.func == "ln" and v <= 0:
            raise EvalDomainError(where, x, "logarithm of a non-positive value")
        if node.func == "sqrt" and v < 0:
            raise EvalDomainError(where, x, "square root of a negative value")
        if CTX.mag(v) > {"sin": 64, "cos": 64, "exp": 20}.get(node.func, CTX.inf):
            raise _TooLarge
        return getattr(CTX, node.func)(v)
    if node.op == "/":
        d = _by_mpf_operators(node.right, x)
        if d == 0:
            raise EvalDomainError(where, x, "division by zero")
        return _by_mpf_operators(node.left, x) / d
    a, b = _by_mpf_operators(node.left, x), _by_mpf_operators(node.right, x)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if a == 0 and b < 0:
        raise EvalDomainError(where, x, "zero raised to a negative power")
    if a < 0 and not CTX.isint(b):
        raise EvalDomainError(where, x, "negative base with non-integer exponent")
    if CTX.mag(b) > 20:
        raise _TooLarge
    return CTX.power(a, b)


# x from the quarter-decade lattice, the corpus seeds, and raw values with
# mantissas up to the working precision and |x| from 2^-400 to 2^8, with
# their negatives: the kernels' carries, ties and cancellations, and sin and
# cos on both sides of |x| = 1
_LATTICE = seed_grid("1", CTX).points(CTX)
_RAW = st.tuples(st.integers(1, 2**CTX.prec - 1), st.integers(-400, 8)).map(
    lambda mt: CTX.make_mpf(from_man_exp(mt[0], mt[1] - mt[0].bit_length())))
_xs = st.one_of(
    st.sampled_from(_LATTICE),
    st.sampled_from(["1", "0.5", "0.25", "0.3", "0.9", "2"]).map(CTX.mpf),
    _RAW,
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=300, deadline=None)
@given(_node_strategy(), _xs)
def test_evaluator_matches_mpf_operators_bit_for_bit(root, x):
    # the compiled n-ary tree gives the binary tree's bits and errors, which
    # name the same subexpression text
    fn = evaluator(FunctionDef(_nary(root), ""), CTX)
    try:
        want = _by_mpf_operators(root, x)
    except _TooLarge:
        reject()
    except EvalDomainError as err:
        with pytest.raises(EvalDomainError) as info:
            fn(x._mpf_)
        assert str(info.value) == str(err)
        assert info.value.x == x
        return
    assert fn(x._mpf_) == want._mpf_


@pytest.mark.parametrize("text,want", [
    ("x", 1), ("-x/2", 1), ("pi*e", 0), ("x^2-x/3", None), ("x*sin(1/x)", 0),
    ("x*sin(1/x)*(1/2)", 0), ("sin(x)^3", 1), ("cos(x)+abs(x)", 0), ("exp(x)", None),
    ("exp(x^2)", 0), ("sqrt(abs(x))*x/2", 1), ("(x^2)^(3/4)", 0), ("x^(3/2)", None),
    ("x^-1", None), ("2^x", None), ("ln(x)", None), ("x^2^x", None),
])
def test_parity(text, want):
    assert parity(parse(text).root) == want


@settings(max_examples=300, deadline=None)
@given(_node_strategy(), _xs)
def test_an_odd_or_even_f_has_the_same_or_negated_bits_at_minus_x(root, x):
    root = _nary(root)
    p = parity(root)
    if p is None:
        reject()
    fn = evaluator(FunctionDef(root, ""), CTX)
    try:
        y = fn(x._mpf_)
    except EvalDomainError:
        with pytest.raises(EvalDomainError):
            fn((-x)._mpf_)
        return
    assert fn((-x)._mpf_) == (mpf_neg(y) if p else y)


@settings(max_examples=300, deadline=None)
@given(_node_strategy())
def test_the_germ_of_minus_f_of_minus_x_is_f_s_own_or_its_negation(root):
    # analyze reads -f(-x)'s germ from f's for an odd or even f, in place of
    # the pass over reflect(f)
    root = _nary(root)
    p = parity(root)
    if p is None:
        reject()
    f = FunctionDef(root, "")
    germ = expand(f)
    assert expand(reflect(f)) == (germ if germ is None or p else -germ)


def test_constant_subtree_runs_its_libmp_calls_once(monkeypatch):
    calls = []

    def counted_sin(*args):
        calls.append(args[0])
        return kernels.sin(*args)

    monkeypatch.setitem(expr._UNARY, "sin", counted_sin)
    fn = evaluator(parse("x + sin(1/3)"), CTX)
    xs = [CTX.mpf(n) / 7 for n in range(50)]
    got = [fn(x._mpf_) for x in xs]
    assert len(calls) == 1
    assert got == [(x + CTX.sin(CTX.mpf(1) / 3))._mpf_ for x in xs]


def test_the_head_of_a_sum_without_x_runs_once(monkeypatch):
    # 1/3 + 1/5 + x adds its head 1/3 + 1/5 once, when compiled, as the
    # binary (1/3 + 1/5) + x did, and x to it at each call
    calls = []

    def counted_add(*args):
        calls.append(args[0])
        return kernels.add(*args)

    monkeypatch.setitem(expr._BINARY, "+", counted_add)
    fn = evaluator(parse("1/3 + 1/5 + x"), CTX)
    xs = [CTX.mpf(n) / 7 for n in range(50)]
    got = [fn(x._mpf_) for x in xs]
    assert len(calls) == 1 + len(xs)
    assert got == [(CTX.mpf(1) / 3 + CTX.mpf(1) / 5 + x)._mpf_ for x in xs]


ONE = CTX.mpf(1)


@pytest.mark.parametrize("text,by_mpf", [
    ("x/(1+x)", lambda x: x / (1 + x)),
    ("x*(1/2 + 1/3*sin(1/x))", lambda x: x * (ONE / 2 + ONE / 3 * CTX.sin(1 / x))),
    ("(1/3)^x + ln(2)*cos(x*2^(1/2)) - exp(-1/7)",
     lambda x: CTX.power(ONE / 3, x) + CTX.ln(2) * CTX.cos(x * CTX.sqrt(2)) - CTX.exp(-ONE / 7)),
    ("x + ln(0) - sin(1)/7", None),
    ("sin(1)/7", lambda x: CTX.sin(1) / 7),
])
def test_an_evaluator_call_compiles_at_most_twice(monkeypatch, text, by_mpf):
    # the subtrees without x are functions of one module, f is the other
    sources = []

    def counting(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(expr, "compile", counting, raising=False)
    fn = evaluator(parse(text), CTX)
    assert 1 <= len(sources) <= 2
    x = CTX.mpf("0.37")
    if by_mpf is None:
        with pytest.raises(EvalDomainError, match="in 'ln\\(0\\)' at x = 0.37"):
            fn(x._mpf_)
    else:
        want = by_mpf(x)
        assert abs(CTX.make_mpf(fn(x._mpf_)) - want) <= abs(want) * CTX.mpf("1e-70")


def test_constant_outside_the_domain_raises_at_each_call():
    fn = evaluator(parse("x + ln(0)"), CTX)
    for x in ("0.5", "0.25"):
        with pytest.raises(EvalDomainError) as info:
            fn(CTX.mpf(x)._mpf_)
        assert info.value.x == CTX.mpf(x)
        assert str(info.value) == (
            f"logarithm of a non-positive value in 'ln(0)' at x = {x}"
        )


def _past_and_at(cap):
    """2^cap, of binary magnitude exp + bc one past the cap, and
    2^cap - 2^(cap - 200), of magnitude cap."""
    past = CTX.ldexp(1, cap)
    return past, past - CTX.ldexp(1, cap - 200)


@pytest.mark.parametrize("text,where,what,by_mpf", [
    ("sin(x)", "sin(x)", "argument", CTX.sin),
    ("cos(x)", "cos(x)", "argument", CTX.cos),
    ("exp(-x)", "exp(-x)", "argument", lambda v: CTX.exp(-v)),
    ("3^x", "3 ^ x", "exponent", lambda v: CTX.power(3, v)),
    ("3^(-x)", "3 ^ -x", "exponent", lambda v: CTX.power(3, -v)),
])
def test_arguments_past_the_magnitude_cap_are_refused(text, where, what, by_mpf):
    cap = expr.ARGUMENT_CAP if what == "argument" else expr.EXPONENT_CAP
    assert (expr.ARGUMENT_CAP, expr.EXPONENT_CAP) == (2**16, 2**10)
    past, at = _past_and_at(cap)
    fn = evaluator(parse(text), CTX)
    assert fn(at._mpf_) == by_mpf(at)._mpf_
    with pytest.raises(EvalDomainError) as info:
        fn(past._mpf_)
    assert info.value.subexpression == where
    assert info.value.reason == f"{what} reaches the magnitude cap 2^{cap}"


def test_constant_past_the_magnitude_cap_raises_at_each_call():
    fn = evaluator(parse("x/2 + 0*sin(10^(2^1024))"), CTX)
    for x in ("0.5", "0.25"):
        with pytest.raises(EvalDomainError) as info:
            fn(CTX.mpf(x)._mpf_)
        assert str(info.value) == (
            f"exponent reaches the magnitude cap 2^1024 in '10 ^ 2 ^ 1024' at x = {x}"
        )


def _positive_nodes():
    """Trees over x, positive constants, +, *, /, sqrt and exp: every value
    is positive, so no operation cancels digits."""
    leaves = st.one_of(
        st.just(Var()),
        st.sampled_from([Const("pi"), Const("e")]),
        st.decimals(min_value="0.01", max_value="10", places=3).map(
            lambda d: Number(str(d))),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(st.sampled_from("+*/"), children, children).map(
                lambda t: BinOp(*t)),
            st.tuples(st.sampled_from(["sqrt", "exp"]), children).map(
                lambda t: Call(*t)),
        ),
        max_leaves=12,
    ).map(_nary)


def _exp_arguments(node):
    if isinstance(node, Call) and node.func == "exp":
        yield node.arg
    for child in expr._children(node):
        yield from _exp_arguments(child)


# exp(u) turns a relative error r of u into the relative error |u|*r, so an
# argument past this bound would lose digits to the function itself, not to
# the evaluator; below it the guard digits absorb the amplification
EXP_ARGUMENT_BOUND = 1000


@settings(max_examples=200, deadline=None)
@given(_positive_nodes(), st.floats(min_value=0, max_value=1, exclude_min=True),
       st.integers(min_value=16, max_value=80))
def test_evaluator_at_p_digits_agrees_with_2p_digits(root, x, p):
    # x is a double, so both contexts read the same number; a literal is
    # read at each working precision
    fine = context(2 * p)
    try:
        if any(value_at(FunctionDef(u, ""), x, fine) > EXP_ARGUMENT_BOUND
               for u in _exp_arguments(root)):
            reject()
    except EvalDomainError:  # an exp argument past the magnitude cap
        reject()
    f = FunctionDef(root, "")
    coarse = value_at(f, x, context(p))
    want = value_at(f, x, fine)
    assert abs(fine.convert(coarse) - want) <= fine.mpf(10) ** -p * want


@settings(max_examples=400, deadline=None)
@given(man=st.one_of(st.just(1), st.integers(1, 2**64), st.integers(1, 2**4000),
                     st.integers(1, 2**1000).map(lambda m: m * m)),
       exp=st.one_of(st.integers(-4000, 4000), st.integers(-2000, 2000).map(lambda k: 2 * k)),
       prec=st.integers(53, 2000))
def test_the_isqrt_square_root_is_mpf_sqrt_bit_for_bit(man, exp, prec):
    # perfect squares, man == 1 and odd exponents take mpf_sqrt's other branches
    s = from_man_exp(man, exp)
    assert kernels.sqrt(s, prec) == mpf_sqrt(s, prec, round_nearest)
    assert kernels.sqrt(fzero, prec) == mpf_sqrt(fzero, prec, round_nearest) == fzero


def test_a_context_that_does_not_round_to_nearest_is_refused():
    # the compiled code rounds to nearest, as every context(precision) does;
    # a copy, since the context that context(64) returns is shared
    ctx = context(64).clone()
    ctx._prec_rounding[1] = "f"
    f = parse("x/(1+x)")
    orbit_loop(None, CTX, True, False)  # the calling loop at this precision, cached
    for call in (lambda: evaluator(f, ctx), lambda: parse_constant("1/3", ctx),
                 lambda: orbit_loop(f, ctx, True, False),
                 lambda: orbit_loop(None, ctx, True, False)):
        with pytest.raises(ValueError, match="a context that rounds to nearest"):
            call()


# constant exponents: the integers -6..6, +-1/2, +-k/2, +-p/q, and past
# EXPONENT_CAP (2^1024 has binary magnitude 1025)
_EXPONENTS = (
    [str(n) for n in range(-6, 7)] + ["1/2", "-1/2", "0.5"]
    + [f"{s}{k}/2" for k in (3, 5, 7, 9) for s in ("", "-")]
    + [f"{s}{p}/{q}" for p, q in ((1, 3), (2, 3), (5, 4), (7, 6), (1, 10)) for s in ("", "-")]
    + ["2^1024", "-2^1024", "2^1024 + 1/2", "-(2^1024 + 1/2)", "1/2^1030"]
)
_BASES = st.one_of(st.sampled_from(_LATTICE).flatmap(lambda x: st.sampled_from([x, -x])),
                   st.sampled_from([CTX.zero, CTX.inf, -CTX.inf, CTX.nan]))


@settings(max_examples=400, deadline=None)
@given(text=st.sampled_from(_EXPONENTS), x=_BASES)
def test_a_constant_exponent_is_mpf_pow_with_its_checks(text, x):
    # the kernel and checks decided at compile time give mpf_pow's bits and
    # the errors of the mpf operators, nan and infinities included
    root = parse(f"x^({text})").root
    fn = evaluator(FunctionDef(root, ""), CTX)
    root = _binary(root)
    try:
        _by_mpf_operators(root, x)
    except _TooLarge:  # past the cap, after the base checks passed
        want = EvalDomainError(_binary_text(root), x,
                               f"exponent reaches the magnitude cap 2^{expr.EXPONENT_CAP}")
    except EvalDomainError as err:
        want = err
    else:
        e = evaluator(parse(text), CTX)(fzero)
        assert fn(x._mpf_) == mpf_pow(x._mpf_, e, *CTX._prec_rounding)
        assert fn(x._mpf_) == _by_mpf_operators(root, x)._mpf_
        return
    with pytest.raises(EvalDomainError) as info:
        fn(x._mpf_)
    assert str(info.value) == str(want)


@pytest.mark.parametrize("text", ["-1/2", "-3/2", "3/2"])
def test_a_half_exponent_takes_its_root_at_10_more_bits(text):
    # mpf_pow takes the root at 10 more bits, then inverts or raises it; a
    # root taken at the working precision shows in about one of 2^10 results
    fn = evaluator(parse(f"x^({text})"), CTX)
    e = evaluator(parse(text), CTX)(fzero)
    for k in range(1, 4000):
        x = from_man_exp(2**60 + 7919 * k, -61)
        assert fn(x) == mpf_pow(x, e, *CTX._prec_rounding)
