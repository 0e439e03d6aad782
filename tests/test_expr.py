import mpmath
import pytest
from hypothesis import given, reject, settings, strategies as st

from recurseries import expr
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
    TaylorDef,
    UnknownIdentifierError,
    Var,
    context,
    evaluator,
    parse,
    parse_constant,
    render,
    taylor_polynomial,
)
from recurseries.grids import seed_grid

CTX = context(64)


def test_context_carries_guard_digits():
    assert context(64).dps == 74
    assert context(16).dps == 26
    with pytest.raises(ValueError):
        context(15)


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
    assert evaluator(parse(text), CTX)(1) == expected


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
        got = evaluator(parse(text), CTX)(x)
        assert abs(got - want) <= abs(want) * CTX.mpf("1e-70"), text


def test_number_literals_reread_per_precision():
    # "0.1" must be re-interpreted at the working precision, not cached
    # as a binary double
    residue = evaluator(parse("0.1 * 3 - 0.3"), context(64))(1)
    assert abs(residue) < mpmath.mpf("1e-70")
    lo = evaluator(parse("1/3"), context(16))(1)
    hi = evaluator(parse("1/3"), context(64))(1)
    assert lo != hi  # more digits at higher precision


def test_scientific_notation_literals():
    assert abs(evaluator(parse("1e-3 + 2.5E2"), CTX)(1) - CTX.mpf("250.001")) < CTX.mpf("1e-70")
    assert evaluator(parse(".5 + 2."), CTX)(1) == CTX.mpf("2.5")


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
        evaluator(parse(text), CTX)(x)
    assert fragment in str(info.value)
    assert info.value.x == CTX.convert(x)


def test_parse_constant():
    assert parse_constant("1/3", CTX) == CTX.mpf(1) / 3
    assert parse_constant("2 * pi", CTX) == 2 * CTX.pi
    with pytest.raises(ValueError):
        parse_constant("x + 1", CTX)


def test_taylor_polynomial_matches_hand_sum():
    t = TaylorDef((CTX.mpf(1), CTX.mpf(0), CTX.mpf(-1) / 6))
    f = taylor_polynomial(t, CTX)
    for xt in ("0.5", "0.1", "0.03"):
        x = CTX.mpf(xt)
        want = x - x**3 / 6
        assert abs(evaluator(f, CTX)(x) - want) < mpmath.mpf("1e-70")


def test_taylor_polynomial_edge_cases():
    assert render(taylor_polynomial(TaylorDef((1,)), CTX)) == "x"
    f = taylor_polynomial(TaylorDef((1, -1)), CTX)
    assert evaluator(f, CTX)("0.5") == mpmath.mpf("0.25")
    with pytest.raises(ValueError):
        taylor_polynomial(TaylorDef((0, 0)), CTX)
    with pytest.raises(ValueError):
        TaylorDef(())


# random expression trees: render then parse must reproduce the tree
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


@given(_node_strategy())
def test_render_parse_fixed_point(root):
    text = render(FunctionDef(root, ""))
    assert parse(text).root == root


def test_evaluator_converts_plain_numbers():
    fn = evaluator(parse("x/2"), CTX)
    assert fn(1) == CTX.mpf("0.5")
    assert fn(0.5) == CTX.mpf("0.25")
    assert fn("0.1")._mpf_ == (CTX.mpf("0.1") / 2)._mpf_
    assert type(fn(1)) is CTX.mpf


def test_evaluator_precision_is_fixed_when_compiled():
    ctx = context(64)
    fn = evaluator(parse("x/3"), ctx)
    x = ctx.mpf(1)
    want = fn(x)
    with ctx.extraprec(100):
        assert fn(x)._mpf_ == want._mpf_
        assert (x / 3)._mpf_ != want._mpf_


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
    where = render(FunctionDef(node, ""))
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


# x from the quarter-decade lattice, the corpus seeds and their negatives
_LATTICE = seed_grid("1", CTX).points(CTX)
_xs = st.one_of(
    st.sampled_from(_LATTICE),
    st.sampled_from(["1", "0.5", "0.25", "0.3", "0.9", "2"]).map(CTX.mpf),
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=300, deadline=None)
@given(_node_strategy(), _xs)
def test_evaluator_matches_mpf_operators_bit_for_bit(root, x):
    fn = evaluator(FunctionDef(root, ""), CTX)
    try:
        want = _by_mpf_operators(root, x)
    except _TooLarge:
        reject()
    except EvalDomainError as err:
        with pytest.raises(EvalDomainError) as info:
            fn(x)
        assert str(info.value) == str(err)
        assert info.value.x == x
        return
    assert fn(x)._mpf_ == want._mpf_


def test_constant_subtree_runs_its_libmp_calls_once(monkeypatch):
    calls = []

    def counted_sin(*args):
        calls.append(args[0])
        return mpmath.libmp.mpf_sin(*args)

    monkeypatch.setitem(expr._UNARY, "sin", counted_sin)
    fn = evaluator(parse("x + sin(1/3)"), CTX)
    xs = [CTX.mpf(n) / 7 for n in range(50)]
    got = [fn(x) for x in xs]
    assert len(calls) == 1
    assert [v._mpf_ for v in got] == [(x + CTX.sin(CTX.mpf(1) / 3))._mpf_ for x in xs]


def test_constant_outside_the_domain_raises_at_each_call():
    fn = evaluator(parse("x + ln(0)"), CTX)
    for x in ("0.5", "0.25"):
        with pytest.raises(EvalDomainError) as info:
            fn(CTX.mpf(x))
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
    assert fn(at)._mpf_ == by_mpf(at)._mpf_
    with pytest.raises(EvalDomainError) as info:
        fn(past)
    assert info.value.subexpression == where
    assert info.value.reason == f"{what} reaches the magnitude cap 2^{cap}"


def test_constant_past_the_magnitude_cap_raises_at_each_call():
    fn = evaluator(parse("x/2 + 0*sin(10^(2^1024))"), CTX)
    for x in ("0.5", "0.25"):
        with pytest.raises(EvalDomainError) as info:
            fn(CTX.mpf(x))
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
    )


def _exp_arguments(node):
    if isinstance(node, Call):
        if node.func == "exp":
            yield node.arg
        yield from _exp_arguments(node.arg)
    elif isinstance(node, BinOp):
        yield from _exp_arguments(node.left)
        yield from _exp_arguments(node.right)


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
        if any(evaluator(FunctionDef(u, ""), fine)(x) > EXP_ARGUMENT_BOUND
               for u in _exp_arguments(root)):
            reject()
    except EvalDomainError:  # an exp argument past the magnitude cap
        reject()
    f = FunctionDef(root, "")
    coarse = evaluator(f, context(p))(x)
    want = evaluator(f, fine)(x)
    assert abs(fine.convert(coarse) - want) <= fine.mpf(10) ** -p * want
