"""Expression language for defining functions of one variable x.

Grammar (no implicit multiplication, ^ binds tightest and is right
associative, unary minus binds between ^ and * /):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" factor)?
    atom   := NUMBER | "x" | "pi" | "e" | IDENT "(" expr ")" | "(" expr ")"
    IDENT  := "sin"|"cos"|"exp"|"ln"|"sqrt"|"abs"

NUMBER is a decimal literal with optional fraction and exponent.
Trees are immutable; evaluation happens on an isolated arbitrary
precision context so concurrent callers never share state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import (
    fzero, mpf_abs, mpf_add, mpf_cos, mpf_div, mpf_exp, mpf_le, mpf_log, mpf_lt,
    mpf_mul, mpf_neg, mpf_pow, mpf_sin, mpf_sqrt, mpf_sub,
)


class ExprError(ValueError):
    """Base class for parse failures; offset is a byte position in text, the
    input being parsed."""

    def __init__(self, message: str, offset: int, text: Optional[str] = None):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.text = text


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifierError(ExprError):
    pass


class ArityError(ExprError):
    pass


class EvalDomainError(ArithmeticError):
    """Raised when evaluation leaves the real domain.

    Carries the rendered offending subexpression and the input x.
    """

    def __init__(self, subexpression: str, x, reason: str):
        self.subexpression = subexpression
        self.x = x
        self.reason = reason
        super().__init__(f"{reason} in '{subexpression}' at x = {mpmath.nstr(x, 12)}")


@dataclass(frozen=True)
class Number:
    """Numeric literal; the source text is kept verbatim so the value can be
    re-read exactly at any working precision."""

    text: str


@dataclass(frozen=True)
class Var:
    """The single free variable x."""


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Number, Var, Const, Call, Neg, BinOp]

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")
CONSTANTS = ("pi", "e")

# precedence levels used by the renderer; higher binds tighter
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class FunctionDef:
    """A parsed defining function f of the single variable x. A polynomial
    built from Taylor data carries its coefficients a1, a2, ..., am (see
    taylor_polynomial); any other f carries None."""

    root: Node
    source_text: str
    coefficients: Optional[Tuple] = None


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if at >= len(text):
                break
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", offset)
        return self.take()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Neg(self.power())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return BinOp("^", node, self.factor())
        return node

    def atom(self) -> Node:
        kind, text, offset = self.take()
        if kind == "num":
            return Number(text)
        if kind == "name":
            if text == "x":
                return Var()
            if text in CONSTANTS:
                return Const(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.take()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) != 1:
                    raise ArityError(
                        f"{text} takes 1 argument, got {len(args)}", offset
                    )
                return Call(text, args[0])
            raise UnknownIdentifierError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = text if text else "end of input"
        raise ExprSyntaxError(f"expected a number, 'x', or '(', got {shown!r}", offset)


def parse(text: str) -> FunctionDef:
    """Parse an expression into a FunctionDef; raises ExprError on bad input."""
    try:
        if not text or not text.strip():
            raise ExprSyntaxError("empty expression", 0)
        return FunctionDef(_Parser(text).parse(), text)
    except ExprError as err:
        err.text = text
        raise


def _level(node: Node) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _ADD
        if node.op in "*/":
            return _MUL
        return _POW
    if isinstance(node, Neg):
        return _NEG
    return _ATOM


def _render(node: Node) -> str:
    if isinstance(node, Number):
        return node.text
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg)})"
    if isinstance(node, Neg):
        inner = _render(node.operand)
        # the grammar allows only an atom or a power after unary minus
        if _level(node.operand) < _POW:
            inner = f"({inner})"
        return f"-{inner}"
    left, right = _render(node.left), _render(node.right)
    if node.op in "+-":
        if _level(node.right) <= _ADD:
            right = f"({right})"
    elif node.op in "*/":
        if _level(node.left) < _MUL:
            left = f"({left})"
        if _level(node.right) <= _MUL:
            right = f"({right})"
    else:  # ^ requires an atom on the left and a factor on the right
        if _level(node.left) < _ATOM:
            left = f"({left})"
        if _level(node.right) < _NEG:
            right = f"({right})"
    return f"{left} {node.op} {right}"


def render(f: FunctionDef) -> str:
    """Render a tree to canonical text; parse(render(f)) rebuilds the same tree."""
    return _render(f.root)


GUARD_DIGITS = 10
DEFAULT_PRECISION = 64
MIN_PRECISION = 16


def context(precision: int = DEFAULT_PRECISION):
    """Return an isolated mpmath context carrying guard digits.

    Results are correct to the requested number of significant digits; the
    extra guard digits absorb rounding inside compositions.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} digits")
    ctx = mp.clone()
    ctx.dps = precision + GUARD_DIGITS
    return ctx


# the libmp kernels behind ctx.sin, ctx.cos, ctx.exp and mpf's +, -, *
_UNARY = {"sin": mpf_sin, "cos": mpf_cos, "exp": mpf_exp}
_BINARY = {"+": mpf_add, "-": mpf_sub, "*": mpf_mul}

# Caps on binary magnitude (exp + bc of a raw value, so a value below 2^cap in
# absolute value passes): ARGUMENT_CAP for the arguments of sin, cos and exp,
# EXPONENT_CAP for a power's exponent. Past them the libmp calls grow without
# bound: sin and cos reduce by pi, and exp by ln 2, computed to about that
# many bits, and an integer power writes its exponent out as an integer and
# squares at a precision that grows with its bits. At precision 64 on a
# 2-vCPU x86 machine, sin and exp took 24 and 58 ms at magnitude 2^16 and
# 0.35 and 0.8 s at 2^18; 3^e took 20 ms at magnitude 2^10 and 0.9 s at 2^12.
# sin(1/x) reaches 2^16 only below x = 2^-65536.
ARGUMENT_CAP = 2**16
EXPONENT_CAP = 2**10


class _DomainFault(Exception):
    """A domain failure inside a compiled f; evaluator adds the input x."""


def _has_var(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Call):
        return _has_var(node.arg)
    if isinstance(node, Neg):
        return _has_var(node.operand)
    if isinstance(node, BinOp):
        return _has_var(node.left) or _has_var(node.right)
    return False


def _fold(raw: Callable) -> Callable:
    """raw for a subtree without x, evaluated once: the first call that
    returns keeps its value for every later call. A call that raises keeps
    nothing, so a constant outside the domain raises at each call, naming
    that call's x."""
    kept = []

    def folded(x):
        if not kept:
            kept.append(raw(x))
        return kept[0]

    return folded


def _compile(node: Node, ctx) -> Callable:
    """A function from the raw value of x (an mpf's _mpf_ tuple) to the raw
    value of node. Each operation is the libmp call that mpf arithmetic and
    the context's functions make, at ctx's precision and rounding; a subtree
    without x runs its calls once (see _fold)."""
    raw = _compile_node(node, ctx)
    if isinstance(node, (Number, Var, Const)) or _has_var(node):
        return raw
    return _fold(raw)


def _compile_node(node: Node, ctx) -> Callable:
    prec, rnd = ctx._prec_rounding
    if isinstance(node, Number):
        value = ctx.mpf(node.text)._mpf_
        return lambda x: value
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Const):
        value = (+ctx.pi if node.name == "pi" else ctx.exp(1))._mpf_
        return lambda x: value
    if isinstance(node, Call):
        arg = _compile(node.arg, ctx)
        where = _render(node)
        if node.func in _UNARY:
            kernel = _UNARY[node.func]

            def _capped(x):
                v = arg(x)
                if v[2] + v[3] > ARGUMENT_CAP:
                    raise _DomainFault(
                        where, f"argument reaches the magnitude cap 2^{ARGUMENT_CAP}"
                    )
                return kernel(v, prec, rnd)

            return _capped
        if node.func == "abs":
            return lambda x: mpf_abs(arg(x), prec, rnd)
        if node.func == "ln":

            def _ln(x):
                v = arg(x)
                if mpf_le(v, fzero):
                    raise _DomainFault(where, "logarithm of a non-positive value")
                return mpf_log(v, prec, rnd)

            return _ln

        def _sqrt(x):
            v = arg(x)
            if mpf_lt(v, fzero):
                raise _DomainFault(where, "square root of a negative value")
            return mpf_sqrt(v, prec, rnd)

        return _sqrt
    if isinstance(node, Neg):
        operand = _compile(node.operand, ctx)
        return lambda x: mpf_neg(operand(x), prec, rnd)

    left = _compile(node.left, ctx)
    right = _compile(node.right, ctx)
    where = _render(node)
    if node.op in _BINARY:
        kernel = _BINARY[node.op]
        return lambda x: kernel(left(x), right(x), prec, rnd)
    if node.op == "/":

        def _div(x):
            d = right(x)
            if d == fzero:
                raise _DomainFault(where, "division by zero")
            return mpf_div(left(x), d, prec, rnd)

        return _div

    def _pow(x):
        b, e = left(x), right(x)
        if b == fzero and mpf_lt(e, fzero):
            raise _DomainFault(where, "zero raised to a negative power")
        # ctx.isint(e) on the raw value: a nonzero mantissa and no negative
        # binary exponent, or e = 0
        if mpf_lt(b, fzero) and not (e[1] and e[2] >= 0 or e == fzero):
            raise _DomainFault(where, "negative base with non-integer exponent")
        if e[2] + e[3] > EXPONENT_CAP:
            raise _DomainFault(
                where, f"exponent reaches the magnitude cap 2^{EXPONENT_CAP}"
            )
        return mpf_pow(b, e, prec, rnd)

    return _pow


def evaluator(f: FunctionDef, ctx) -> Callable:
    """Compile f once against a context; the returned callable is reusable
    and side-effect free, so orbits and probes can call it in a tight loop.

    The callable takes an mpf, or an int, float or string that it converts
    with ctx.convert, and returns an mpf. f is compiled to mpmath's libmp
    kernels at the precision and rounding ctx has at compile time, so the
    values are those of mpf arithmetic at that precision; a later
    ctx.extraprec or ctx.prec does not reach the compiled f.
    """
    raw = _compile(f.root, ctx)
    make_mpf, convert = ctx.make_mpf, ctx.convert

    def fn(x):
        try:
            v = x._mpf_
        except AttributeError:
            x = convert(x)
            v = x._mpf_
        try:
            return make_mpf(raw(v))
        except _DomainFault as fault:
            where, reason = fault.args
            raise EvalDomainError(where, x, reason) from None

    return fn


def parse_constant(text: str, ctx):
    """Evaluate a constant expression (no x allowed), e.g. '-1/6' or 'pi'."""
    f = parse(text)
    if _has_var(f.root):
        raise ExprSyntaxError("expected a constant, found the variable x", 0, text)
    return evaluator(f, ctx)(ctx.mpf(0))


def taylor_polynomial(coefficients, ctx) -> FunctionDef:
    """The polynomial a1*x + a2*x^2 + ... as a FunctionDef that carries the
    coefficients, read on ctx; the leading a1 is kept, never assumed to be 1.

    Zero coefficients are skipped; coefficient values are rendered at the
    context precision, which is exact for the short decimal inputs used here.
    """
    coefficients = tuple(ctx.convert(c) for c in coefficients)
    pieces = []
    for k, c in enumerate(coefficients, start=1):
        if c == 0:
            continue
        mag = abs(c)
        text = mpmath.nstr(mag, ctx.dps, strip_zeros=True)
        if mag == 1:
            body = "x" if k == 1 else f"x ^ {k}"
        elif k == 1:
            body = f"{text} * x"
        else:
            body = f"{text} * x ^ {k}"
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        raise ValueError("all Taylor coefficients are zero")
    sign, body = pieces[0]
    source = f"-{body}" if sign == "-" else body
    for sign, body in pieces[1:]:
        source += f" {sign} {body}"
    return FunctionDef(parse(source).root, source, coefficients)
