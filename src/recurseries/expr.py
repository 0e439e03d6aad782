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
from mpmath.libmp import fone, fzero, mpf_abs, mpf_exp, mpf_log, mpf_neg, mpf_pow, mpf_pow_int
from mpmath.libmp.libmpf import reciprocal_rnd

from .kernels import _mpf_sqrt, add, cos, div, mul, sin, sub


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


# the kernels behind ctx.sin, ctx.cos, ctx.exp and mpf's +, -, *: libmp's
# mpf_exp, and those of kernels.py, with the bits of libmp's
_UNARY = {"sin": sin, "cos": cos, "exp": mpf_exp}
_BINARY = {"+": add, "-": sub, "*": mul}

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


def _has_var(node: Node, constants: Optional[list] = None) -> bool:
    """Whether node has x. A list passed as constants gets the maximal
    subtrees of node without x, other than a number or pi or e, in the
    order of the tree."""
    found = [] if constants is None else constants
    if isinstance(node, Call):
        children = (node.arg,)
    elif isinstance(node, Neg):
        children = (node.operand,)
    elif isinstance(node, BinOp):
        children = (node.left, node.right)
    else:
        return isinstance(node, Var)
    mark = len(found)
    if any([_has_var(child, found) for child in children]):  # every child
        return True
    found[mark:] = [node]
    return False


_ZERO_TO_NEGATIVE = "zero raised to a negative power"
_NEGATIVE_BASE = "negative base with non-integer exponent"
_EXPONENT_PAST_CAP = f"exponent reaches the magnitude cap 2^{EXPONENT_CAP}"


class _Codegen:
    """Writes a subtree as one Python function of x, the raw value of x (an
    mpf's _mpf_ tuple), made of straight-line statements in the order of
    evaluation (the right operand of / first). Each statement is the libmp
    call that mpf arithmetic or the context's function makes, or the kernel
    of kernels.py with its bits, at ctx's precision and rounding, with its
    domain check in front of it; a check that fails raises EvalDomainError.

    Constants, kernels, messages and ctx's precision and rounding are bound
    as values in the function's namespace under generated names; no text of
    f reaches the source. The maximal subtrees without x are written as
    functions of one module, compiled together and run once, before f's own
    statements are written: f reads each one's value, or raises its
    EvalDomainError at its position on every call. A constant exponent is
    therefore known here, and so is what mpf_pow would decide from it (see
    _power).
    """

    def __init__(self, ctx, namespace=None):
        prec, rnd = ctx._prec_rounding
        self.ctx = ctx
        self.namespace = {
            "P": prec, "R": rnd, "P10": prec + 10, "RR": reciprocal_rnd[rnd],
            "E": EvalDomainError, "mk": ctx.make_mpf, "fzero": fzero, "fone": fone,
            "mpf_abs": mpf_abs, "div": div, "mpf_log": mpf_log,
            "mpf_neg": mpf_neg, "mpf_pow": mpf_pow, "mpf_pow_int": mpf_pow_int,
            "mul": mul, "sqrt": _mpf_sqrt,
        } if namespace is None else namespace
        # the raw value or EvalDomainError of each subtree without x that
        # function ran, by the id of its node
        self.folded = {}
        self.lines = []
        self.raises = False  # the statements end in an unconditional raise

    def source(self, name: str, node: Node) -> str:
        result = self.value(node)
        body = self.lines if self.raises else self.lines + [f"return {result}"]
        return f"def {name}(x):\n" + "".join(f"    {line}\n" for line in body)

    def function(self, node: Node) -> Callable:
        constants = []
        _has_var(node, constants)
        if constants:
            module = "".join(_Codegen(self.ctx, self.namespace).source(f"c{i}", c)
                             for i, c in enumerate(constants))
            exec(compile(module, "<compiled constants>", "exec"), self.namespace)
        for i, c in enumerate(constants):
            try:
                self.folded[id(c)] = self.namespace[f"c{i}"](fzero)
            except EvalDomainError as err:
                self.folded[id(c)] = err
        exec(compile(self.source("f", node), "<compiled f>", "exec"), self.namespace)
        return self.namespace["f"]

    def bind(self, value) -> str:
        # the namespace only grows, so each name is new
        name = f"v{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def known(self, name: str):
        """The raw value a bound name holds, or None for x and computed values."""
        return self.namespace[name] if name.startswith("v") else None

    def line(self, text: str) -> None:
        if not self.raises:  # nothing after a raise runs
            self.lines.append(text)

    def assign(self, expression: str) -> str:
        name = f"t{len(self.lines)}"
        self.line(f"{name} = {expression}")
        return name

    def fault(self, node: Node, reason: str, where: Optional[str] = None) -> str:
        """The statement that raises reason in node, at the call's x."""
        where = _render(node) if where is None else where
        return f"raise E({self.bind(where)}, mk(x), {self.bind(reason)})"

    def fail(self, node: Node, reason: str, where: Optional[str] = None) -> None:
        self.line(self.fault(node, reason, where))
        self.raises = True

    def value(self, node: Node) -> str:
        """The name that holds node's raw value after the statements so far."""
        if self.raises:
            return "None"
        if isinstance(node, Var):
            return "x"
        if isinstance(node, Number):
            return self.bind(self.ctx.mpf(node.text)._mpf_)
        if isinstance(node, Const):
            return self.bind((+self.ctx.pi if node.name == "pi" else self.ctx.exp(1))._mpf_)
        folded = self.folded.get(id(node))
        if isinstance(folded, EvalDomainError):
            self.fail(node, folded.reason, folded.subexpression)
            return "None"
        if folded is not None:
            return self.bind(folded)
        if isinstance(node, Call):
            a = self.value(node.arg)
            if node.func in _UNARY:
                cap = f"argument reaches the magnitude cap 2^{ARGUMENT_CAP}"
                self.line(f"if {a}[2] + {a}[3] > {ARGUMENT_CAP}: {self.fault(node, cap)}")
                return self.assign(f"{self.bind(_UNARY[node.func])}({a}, P, R)")
            if node.func == "abs":
                return self.assign(f"mpf_abs({a}, P, R)")
            # the sign bit is set exactly when mpf_lt(a, fzero), nan and -inf
            # included, so these are the tests mpf_le and mpf_lt make
            if node.func == "ln":
                reason = "logarithm of a non-positive value"
                self.line(f"if {a}[0] or {a} == fzero: {self.fault(node, reason)}")
                return self.assign(f"mpf_log({a}, P, R)")
            self.line(f"if {a}[0]: {self.fault(node, 'square root of a negative value')}")
            return self.assign(f"sqrt({a}, P, R)")
        if isinstance(node, Neg):
            return self.assign(f"mpf_neg({self.value(node.operand)}, P, R)")
        if node.op == "/":
            d = self.value(node.right)
            if self.known(d) is None:
                self.line(f"if {d} == fzero: {self.fault(node, 'division by zero')}")
            elif self.known(d) == fzero:
                self.fail(node, "division by zero")
            return self.assign(f"div({self.value(node.left)}, {d}, P, R)")
        a, b = self.value(node.left), self.value(node.right)
        if node.op in _BINARY:
            return self.assign(f"{self.bind(_BINARY[node.op])}({a}, {b}, P, R)")
        if self.known(b) is not None:
            return self._power(node, a, self.known(b))
        self.line(f"if {a} == fzero and {b}[0]: {self.fault(node, _ZERO_TO_NEGATIVE)}")
        # ctx.isint(b) on the raw value: a nonzero mantissa and no negative
        # binary exponent, or b = 0
        self.line(f"if {a}[0] and not ({b}[1] and {b}[2] >= 0 or {b} == fzero): "
                  f"{self.fault(node, _NEGATIVE_BASE)}")
        self.line(f"if {b}[2] + {b}[3] > {EXPONENT_CAP}: {self.fault(node, _EXPONENT_PAST_CAP)}")
        return self.assign(f"mpf_pow({a}, {b}, P, R)")

    def _power(self, node: Node, a: str, e) -> str:
        """a^e for a raw constant e: the checks of a variable exponent, of
        which only those e calls for remain, and the kernel mpf_pow picks
        for e, branch for branch."""
        sign, man, exp, bc = e
        if sign:
            self.line(f"if {a} == fzero: {self.fault(node, _ZERO_TO_NEGATIVE)}")
        if not (man and exp >= 0 or e == fzero):
            self.line(f"if {a}[0]: {self.fault(node, _NEGATIVE_BASE)}")
        if exp + bc > EXPONENT_CAP:
            self.fail(node, _EXPONENT_PAST_CAP)
            return "None"
        if exp >= 0:
            n = (-1) ** sign * (man << exp)
            if n == 2:  # mpf_pow_int's branch for n = 2, bit for bit
                return self.assign(f"mul({a}, {a}, P, R)")
            return self.assign(f"mpf_pow_int({a}, {self.bind(n)}, P, R)")
        if exp != -1:
            return self.assign(f"mpf_pow({a}, {self.bind(e)}, P, R)")
        # a^(k/2) = sqrt(a)^k, the root at 10 more bits unless k = 1
        if man == 1:
            if sign:
                return self.assign(f"div(fone, sqrt({a}, P10, RR), P, R)")
            return self.assign(f"sqrt({a}, P, R)")
        if sign:
            return self.assign(f"mpf_pow_int(sqrt({a}, P10, RR), {self.bind(-man)}, P, R)")
        return self.assign(f"mpf_pow_int(sqrt({a}, P10, R), {self.bind(man)}, P, R)")


def evaluator(f: FunctionDef, ctx) -> Callable:
    """Compile f once against a context; the returned callable is reusable
    and side-effect free, so orbits and probes can call it in a tight loop.

    The callable maps the raw value of x (an mpf's _mpf_ tuple) to the raw
    value of f(x); ctx.make_mpf turns that into an mpf. f is compiled to one
    Python function of mpmath's libmp kernels, and of the kernels of
    kernels.py that return their bits, at the precision and rounding ctx has
    at compile time, so the values are those of mpf arithmetic at that
    precision; a later ctx.extraprec or ctx.prec does not reach the
    compiled f. A subtree without x is evaluated here, once. A domain
    failure raises EvalDomainError, whose x is an mpf.
    """
    return _Codegen(ctx).function(f.root)


def parse_constant(text: str, ctx):
    """Evaluate a constant expression (no x allowed), e.g. '-1/6' or 'pi'."""
    f = parse(text)
    if _has_var(f.root):
        raise ExprSyntaxError("expected a constant, found the variable x", 0, text)
    return ctx.make_mpf(evaluator(f, ctx)(fzero))


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
