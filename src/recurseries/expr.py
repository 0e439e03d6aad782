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
Trees are immutable; evaluation happens on an arbitrary precision
context, one per precision, which every caller in the process shares (see
context): callers may raise its precision only through ctx.workprec or
ctx.extraprec, which restore it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple, Union

import mpmath
from mpmath import mp
from mpmath.libmp import (
    dps_to_prec, fone, fzero, mpf_abs, mpf_exp, mpf_log, mpf_pow, repr_dps, round_nearest,
)

from .kernels import (
    DECAYS, GLOBALS, INLINE, SUM, _decays, add, cos, div, indent, inline, mul, neg, pow_int, sin,
    sqrt, sub,
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
class _Chain:
    """terms[0] ops[0] terms[1] ops[1] terms[2] ..., left to right: a chain
    of + and - (a Sum) or of * and / (a Product) is one node, whose ops
    holds the operator before each term after the first."""

    terms: Tuple["Node", ...]
    ops: str


class Sum(_Chain):
    """A chain of + and -."""


class Product(_Chain):
    """A chain of * and /."""


@dataclass(frozen=True)
class BinOp:
    op: str  # "^", the one binary operator outside the chains
    left: "Node"
    right: "Node"


Node = Union[Number, Var, Const, Call, Neg, Sum, Product, BinOp]

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")
CONSTANTS = ("pi", "e")

# precedence levels used by the renderer; higher binds tighter
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5
_LEVEL = {Sum: _ADD, Product: _MUL, Neg: _NEG, BinOp: _POW}  # any other node is an atom


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
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, ops: str) -> Optional[str]:
        """Take the next token, and return its text, if it is an op in ops."""
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            return self.take()[1]
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept(op):
            raise ExprSyntaxError(f"expected '{op}'", self.peek()[2])

    def parse(self) -> Node:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
        return node

    def expr(self) -> Node:
        terms, ops = [self.term()], ""
        while op := self.accept("+-"):
            ops += op
            terms.append(self.term())
        return _chain(Sum, terms, ops)

    def term(self) -> Node:
        factors, ops = [self.factor()], ""
        while op := self.accept("*/"):
            ops += op
            factors.append(self.factor())
        return _chain(Product, factors, ops)

    def factor(self) -> Node:
        if self.accept("-"):
            return Neg(self.power())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.accept("^"):
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
                while self.accept(","):
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


def _chain(kind, terms: list, ops: str) -> Node:
    """terms joined by ops as one Sum or Product (kind), or the one term."""
    return kind(tuple(terms), ops) if ops else terms[0]


_SUBTREES = ("arg", "operand", "left", "right")  # the fields that hold one subtree


def _children(node: Node) -> tuple:
    """node's subtrees, in order."""
    if isinstance(node, _Chain):
        return node.terms
    return tuple(getattr(node, k) for k in _SUBTREES if hasattr(node, k))


def substitute(node: Node, value: Node) -> Node:
    """node with the tree value in place of every x."""
    if isinstance(node, Var):
        return value
    if isinstance(node, _Chain):
        return replace(node, terms=tuple(substitute(t, value) for t in node.terms))
    return replace(node, **{k: substitute(getattr(node, k), value) for k in _SUBTREES
                            if hasattr(node, k)})


def _wrap(node: Node, level: int) -> str:
    """node's text, in parentheses where it binds looser than level."""
    text = _render(node)
    return text if _LEVEL.get(type(node), _ATOM) >= level else f"({text})"


def _pieces(node: _Chain) -> list:
    """A chain's text in pieces: its head, then each term after its operator."""
    # a sum or product in parentheses at the head of a chain keeps them
    level = _MUL if isinstance(node, Sum) else _NEG
    return [_wrap(node.terms[0], level)] + [f" {op} {_wrap(t, level)}"
                                            for op, t in zip(node.ops, node.terms[1:])]


def _render(node: Node) -> str:
    if isinstance(node, Number):
        return node.text
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg)})"
    # the grammar allows only an atom or a power after unary minus
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, _POW)}"
    if isinstance(node, _Chain):
        return "".join(_pieces(node))
    # ^ requires an atom on the left and a factor on the right
    return f"{_wrap(node.left, _ATOM)} ^ {_wrap(node.right, _NEG)}"


def render(f: FunctionDef) -> str:
    """Render a tree to canonical text; parse(render(f)) rebuilds the same tree."""
    return _render(f.root)


GUARD_DIGITS = 10
DEFAULT_PRECISION = 64
MIN_PRECISION = 16


# the context of each precision (see context), made on first use
_CONTEXTS: Dict[int, object] = {}


def context(precision: int = DEFAULT_PRECISION):
    """Return this process's mpmath context for the precision, carrying
    guard digits.

    Results are correct to the requested number of significant digits; the
    extra guard digits absorb rounding inside compositions. The context is
    cloned from mpmath's once per precision and shared by every caller in
    the process (which makes it unfit for concurrent threads), so do not
    set its prec, dps or rounding: ctx.workprec and ctx.extraprec restore
    it. A context whose prec, dps or rounding a caller did change is not
    returned again; the next call clones a new one.
    """
    ctx = _CONTEXTS.get(precision)
    dps = precision + GUARD_DIGITS
    if ctx is None or ctx._dps != dps or ctx._prec_rounding != [dps_to_prec(dps), round_nearest]:
        if precision < MIN_PRECISION:
            raise ValueError(f"precision must be at least {MIN_PRECISION} digits")
        ctx = _CONTEXTS[precision] = mp.clone()
        ctx.dps = dps
    return ctx


# the kernels of kernels.py behind ctx.sin, ctx.cos and mpf's +, -, *, /
_UNARY = {"sin": sin, "cos": cos}
_BINARY = {"+": add, "-": sub, "*": mul, "/": div}

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

# how a compiled orbit loop (see orbit_loop) stopped: at its step limit, at
# the floor, at a term that does not decay, or at an EvalDomainError of f
STOP_MAX_N, STOP_FLOOR, STOP_DECAY, STOP_DOMAIN = range(4)


def _has_var(node: Node, constants: Optional[list] = None) -> bool:
    """Whether node has x. A list passed as constants gets, in the order of
    the tree, each maximal subtree of node without x other than a number or
    pi or e, as (subtree, None), and each run of two or more terms without
    x at the head of a Sum or Product with x, as (that node, the run's
    length)."""
    found = [] if constants is None else constants
    children = _children(node)
    if not children:
        return isinstance(node, Var)
    marks, has = [], []
    for child in children:  # every child
        marks.append(len(found))
        has.append(_has_var(child, found))
    head = has.index(True) if True in has else None
    if head is None or head > 1:
        found[marks[0]:marks[head] if head else None] = [(node, head)]
    return head is not None


# the parity of sin, cos and abs of an odd argument (exp, ln and sqrt have none)
_ODD_ARGUMENT = {"sin": 1, "cos": 0, "abs": 0}


def parity(node: Node) -> Optional[int]:
    """0 when f has the same bits at -x as at x, 1 when it has the negated
    bits, None when the tree does not show either. Round-to-nearest and the
    kernels are symmetric under negation, so the rules are the algebraic
    ones: x is odd and constants even; a sum keeps a parity all its terms
    share; * and / add parities; a literal integer exponent multiplies its
    base's parity; a node whose operands are all even is even; sin of an
    odd argument is odd, and cos and abs of one even."""
    if isinstance(node, Var):
        return 1
    if isinstance(node, Call):
        return parity(node.arg) and _ODD_ARGUMENT.get(node.func)
    kids = [parity(child) for child in _children(node)]
    if None in kids:
        return None
    if isinstance(node, Sum):
        return kids[0] if len(set(kids)) == 1 else None
    if not isinstance(node, BinOp):  # also -u, and a number, pi or e
        return sum(kids) % 2
    left, right = kids
    if not (left or right):  # ^ of even operands
        return 0
    if isinstance(node.right, Number) and node.right.text.isdigit():
        return left & int(node.right.text[-1])
    return None


_ZERO_TO_NEGATIVE = "zero raised to a negative power"
_NEGATIVE_BASE = "negative base with non-integer exponent"
_EXPONENT_PAST_CAP = f"exponent reaches the magnitude cap 2^{EXPONENT_CAP}"
_FIELDS = ("sign", "man", "exp", "bc")


def _source(field) -> str:
    """The source of a field: a name, or an integer literal."""
    if isinstance(field, str):
        return field
    return f"({int(field)})" if field < 0 else str(int(field))


class _Codegen:
    """Writes a subtree as straight-line Python statements in the order of
    evaluation, on the raw value of x (an mpf's _mpf_ tuple); in a chain of
    * and /, every divisor comes first, the last one first, then the head
    and the other terms left to right. Each statement is the libmp call
    that mpf arithmetic or the context's function makes, or the kernel of
    kernels.py with its bits, at ctx's precision and round-nearest, with its
    domain check in front of it; a check that fails raises EvalDomainError.

    function writes them as a function of x. orbit writes them, with fields
    set, into the loop of a whole orbit (or writes the loop that calls f):
    there a raw value is its four fields (sign, man, exp, bc) as locals, or
    as literals for a constant, and the kernels' fast paths run inline, from
    the statement text of kernels.py, their fallbacks as calls. x's fields
    are xs, xm, xe, xb.

    Constants, kernels, messages and ctx's precision are bound as values in
    the namespace under generated names; no text of f reaches the source.
    The maximal subtrees without x are written as functions of one module,
    compiled together and run once, before f's own statements are written:
    f reads each one's value, or raises its EvalDomainError at its position
    on every call. A constant exponent is therefore known
    here, and so is what mpf_pow would decide from it (see _power).
    """

    def __init__(self, ctx, namespace=None, fields=False):
        self.ctx = ctx
        self.namespace = {
            "P": ctx.prec, "R": round_nearest, "P10": ctx.prec + 10,
            "E": EvalDomainError, "mk": ctx.make_mpf, "fzero": fzero, "fone": fone,
            "mpf_abs": mpf_abs, "mpf_exp": mpf_exp, "mpf_log": mpf_log, "mpf_pow": mpf_pow,
            "_decays": _decays, **GLOBALS,
        } if namespace is None else namespace
        self.fields = fields
        self.x = tuple(f"x{name[0]}" for name in _FIELDS) if fields else "x"
        # the raw value or EvalDomainError of each subtree without x that
        # function ran, by the id of its node
        self.folded = {}
        self.lines = []
        self.count = 0  # values assigned so far
        self.raises = False  # the statements end in an unconditional raise

    def source(self, name: str, node: Node, head: Optional[int] = None) -> str:
        result = self.value(node, head)
        body = self.lines if self.raises else self.lines + [f"return {result}"]
        return f"def {name}(x):\n" + "".join(f"    {line}\n" for line in body)

    def fold(self, node: Node) -> None:
        """Run the maximal subtrees of node without x, once."""
        constants = []
        _has_var(node, constants)
        if constants:
            module = "".join(_Codegen(self.ctx, self.namespace).source(f"c{i}", *c)
                             for i, c in enumerate(constants))
            exec(compile(module, "<compiled constants>", "exec"), self.namespace)
        for i, (c, head) in enumerate(constants):
            try:
                self.folded[id(c)] = head, self.namespace[f"c{i}"](fzero)
            except EvalDomainError as err:
                self.folded[id(c)] = head, err

    def function(self, node: Node) -> Callable:
        self.fold(node)
        exec(compile(self.source("f", node), "<compiled f>", "exec"), self.namespace)
        return self.namespace["f"]

    def orbit(self, f: Optional[Node], positive: bool, streamed: bool) -> Callable:
        """The loop orbit_loop describes, with the statements of a subtree f
        whose constants are folded, or for f None calling its fn."""
        x = self.x
        if f is None:  # f's raw value v, then its fields; x stays raw too
            self.line("v = fn(x)")
            v, raw_v, raw_x = self.assign("v"), "v", "x"
        else:
            v = self.value(f)
            raw_v, raw_x = self.raw(v), self.raw(x)
        state = f"{raw_x}, total, acc, e"
        statements = indent("\n".join(self.lines), "    ")
        body = [f"try:\n{statements}\nexcept E as err:\n"
                f"    return {STOP_DOMAIN}, step, err, {state}"] if self.lines else []
        if not self.raises:
            # |f(x)| < |x| in signed mode; in positive mode the check leaves
            # the term's sign 0
            size, bound = (v, x) if positive else ((0,) + v[1:], (0,) + x[1:])
            body.append(self.text(DECAYS, {"ok": "ok"}, size, bound))
            body += ["if not ok:", f"    return {STOP_DECAY}, step, {raw_v}, {state}"]
            fixed = {"acc": "acc", "e": "e", "total": "total",
                     "limit": str(1 << self.namespace["P"])}
            body.append(self.text(SUM, fixed, (0,) + v[1:] if positive else v))
            body += [f"{', '.join(x)} = {', '.join(map(_source, v))}"]
            if raw_x == "x":
                body += ["x = v"]
            if streamed:
                body += ["if not step % thin:",
                         f"    out(step, mk({raw_x}), mk(_sum(total, acc, e, P)))"]
            else:
                body += [f"out({raw_x})"]
            size = x if positive else (0,) + x[1:]
            body += [f"if xe + xb <= floor_top and _decays({self.raw(size)}, floor):",
                     f"    return {STOP_FLOOR}, step, None, {state}"]
        source = ("def orbit(fn, mk, x, total, acc, e, stop, floor, out, thin):\n"
                  f"    {', '.join(x)} = x\n"
                  "    floor_top = floor[2] + floor[3]\n"
                  "    for step in range(1, stop):\n"
                  + indent("\n".join(body), "        ")
                  + f"\n    return {STOP_MAX_N}, stop - 1, None, {state}\n")
        exec(compile(source, "<compiled orbit>", "exec"), self.namespace)
        return self.namespace.pop("orbit")

    def bind(self, value) -> str:
        # the namespace only grows, so each name is new
        name = f"v{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def constant(self, raw):
        """A raw constant as a value: a bound name, or literal fields."""
        return tuple(raw) if self.fields else self.bind(raw)

    def known(self, value):
        """The raw constant a value holds, or None for x and computed values."""
        if self.fields:
            return value if all(isinstance(field, int) for field in value) else None
        return self.namespace[value] if value.startswith("v") else None

    def raw(self, value) -> str:
        """The source of a value as a raw value."""
        return f"({', '.join(map(_source, value))})" if self.fields else value

    def field(self, value, i: int) -> str:
        """The source of the field i (0 sign, 1 man, 2 exp, 3 bc) of a value."""
        return _source(value[i]) if self.fields else f"{value}[{i}]"

    def is_zero(self, value) -> str:
        """The source of the test value == fzero."""
        if self.fields:
            return f"not ({' or '.join(map(_source, value))})"
        return f"{value} == fzero"

    def line(self, text: str) -> None:
        if not self.raises:  # nothing after a raise runs
            self.lines.append(text)

    def assign(self, expression: str):
        """A new value: the result of expression, a raw value."""
        self.count += 1
        if self.fields:
            names = tuple(f"t{self.count}{name[0]}" for name in _FIELDS)
            self.line(f"{', '.join(names)} = {expression}")
            return names
        self.line(f"t{self.count} = {expression}")
        return f"t{self.count}"

    def text(self, text: str, names: dict, *operands, prec="P") -> str:
        """A statement text of kernels.py on operands, inline (see
        kernels.inline), with names for its other names, at the precision
        the namespace holds under prec."""
        names = {"prec": str(self.namespace[prec]), **names}
        for prefix, value in zip("st", operands):
            names.update(zip((prefix + name for name in _FIELDS), map(_source, value)))
        self.count += 1
        return inline(text, names, f"_{self.count}")

    def kernel(self, fn, *operands, prec="P", **args):
        """fn(*operands, *args, prec) for a kernel fn, with args (by name)
        the sources of its other arguments: in field mode its fast path
        inline where kernels.INLINE has it, else a call."""
        if not (self.fields and fn in INLINE):
            given = ", ".join([*map(self.raw, operands), *args.values()])
            return self.assign(f"{self.bind(fn)}({given}, {prec})")
        text, picks = INLINE[fn]
        self.count += 1
        out = tuple(f"t{self.count}{name[0]}" for name in _FIELDS)
        names = {**picks, **args, **dict(zip(_FIELDS, out))}
        self.line(self.text(text, names, *operands, prec=prec))
        return out

    def fault(self, node: Node, reason: str, where: Optional[str] = None) -> str:
        """The statement that raises reason in node, at the call's x."""
        where = _render(node) if where is None else where
        return f"raise E({self.bind(where)}, mk({self.raw(self.x)}), {self.bind(reason)})"

    def fail(self, node: Node, reason: str, where: Optional[str] = None) -> None:
        self.line(self.fault(node, reason, where))
        self.raises = True

    def value(self, node: Node, head: Optional[int] = None):
        """The value that holds node's raw value, or with head that of the
        first head terms of a Sum or Product, after the statements so far: a
        name, or four field sources in field mode."""
        if self.raises:
            return ("None",) * 4 if self.fields else "None"
        if isinstance(node, Var):
            return self.x
        if isinstance(node, Number):
            return self.constant(self.ctx.mpf(node.text)._mpf_)
        if isinstance(node, Const):
            return self.constant((+self.ctx.pi if node.name == "pi" else self.ctx.exp(1))._mpf_)
        # a folded head of a chain is its first terms (see _has_var)
        start, folded = self.folded.get(id(node), (None, None))
        if isinstance(folded, EvalDomainError):
            self.fail(node, folded.reason, folded.subexpression)
            return self.value(node)
        if folded is not None and start is None:
            return self.constant(folded)
        if isinstance(node, _Chain):
            first, end = start or 1, head or len(node.terms)
            pieces = _pieces(node) if "/" in node.ops else None
            divisors = {k: self.divisor(node.terms[k], pieces[:k + 1])
                        for k in range(end - 1, first - 1, -1) if node.ops[k - 1] == "/"}
            v = self.value(node.terms[0]) if folded is None else self.constant(folded)
            for k in range(first, end):
                term = divisors[k] if k in divisors else self.value(node.terms[k])
                v = self.kernel(_BINARY[node.ops[k - 1]], v, term)
            return v
        if isinstance(node, Call):
            a = self.value(node.arg)
            sign, raw = self.field(a, 0), self.raw(a)
            if node.func in ("sin", "cos", "exp"):
                cap = f"argument reaches the magnitude cap 2^{ARGUMENT_CAP}"
                self.line(f"if {self.field(a, 2)} + {self.field(a, 3)} > {ARGUMENT_CAP}:"
                          f" {self.fault(node, cap)}")
                if node.func == "exp":
                    return self.assign(f"mpf_exp({raw}, P, R)")
                return self.kernel(_UNARY[node.func], a)
            if node.func == "abs":
                return self.assign(f"mpf_abs({raw}, P, R)")
            # the sign bit is set exactly when mpf_lt(a, fzero), nan and -inf
            # included, so these are the tests mpf_le and mpf_lt make
            if node.func == "ln":
                reason = "logarithm of a non-positive value"
                self.line(f"if {sign} or {self.is_zero(a)}: {self.fault(node, reason)}")
                return self.assign(f"mpf_log({raw}, P, R)")
            self.line(f"if {sign}: {self.fault(node, 'square root of a negative value')}")
            return self.kernel(sqrt, a)
        if isinstance(node, Neg):
            return self.kernel(neg, self.value(node.operand))
        a, b = self.value(node.left), self.value(node.right)
        if self.known(b) is not None:
            return self._power(node, a, self.known(b))
        self.line(f"if {self.is_zero(a)} and {self.field(b, 0)}:"
                  f" {self.fault(node, _ZERO_TO_NEGATIVE)}")
        # ctx.isint(b) on the raw value: a nonzero mantissa and no negative
        # binary exponent, or b = 0
        self.line(f"if {self.field(a, 0)} and not ({self.field(b, 1)} and {self.field(b, 2)} >= 0"
                  f" or {self.is_zero(b)}): {self.fault(node, _NEGATIVE_BASE)}")
        self.line(f"if {self.field(b, 2)} + {self.field(b, 3)} > {EXPONENT_CAP}:"
                  f" {self.fault(node, _EXPONENT_PAST_CAP)}")
        return self.assign(f"mpf_pow({self.raw(a)}, {self.raw(b)}, P, R)")

    def divisor(self, node: Node, pieces: list):
        """node, a divisor, after its zero check, which names the chain's pieces up to node."""
        d = self.value(node)
        if self.known(d) is None:
            self.line(f"if {self.is_zero(d)}: {self.fault(node, 'division by zero', ''.join(pieces))}")
        elif self.known(d) == fzero:
            self.fail(node, "division by zero", "".join(pieces))
        return d

    def _power(self, node: Node, a, e):
        """a^e for a raw constant e: the checks of a variable exponent, of
        which only those e calls for remain, and the kernel mpf_pow picks
        for e, branch for branch."""
        sign, man, exp, bc = e
        if sign:
            self.line(f"if {self.is_zero(a)}: {self.fault(node, _ZERO_TO_NEGATIVE)}")
        if not (man and exp >= 0 or e == fzero):
            self.line(f"if {self.field(a, 0)}: {self.fault(node, _NEGATIVE_BASE)}")
        if exp + bc > EXPONENT_CAP:
            self.fail(node, _EXPONENT_PAST_CAP)
            return self.value(node)
        if exp >= 0:
            n = (-1) ** sign * (man << exp)
            if n == 2:  # mpf_pow_int's branch for n = 2, bit for bit
                return self.kernel(mul, a, a)
            return self.kernel(pow_int, a, power=_source(n))
        if exp != -1:
            return self.assign(f"mpf_pow({self.raw(a)}, {self.bind(e)}, P, R)")
        # a^(k/2) = sqrt(a)^k, the root at 10 more bits unless k = 1
        if man == 1 and not sign:
            return self.kernel(sqrt, a)
        root = self.kernel(sqrt, a, prec="P10")
        if man == 1:
            return self.kernel(div, self.constant(fone), root)
        return self.kernel(pow_int, root, power=_source(-man if sign else man))


def _require_nearest(ctx) -> None:
    """Refuse a ctx that does not round to nearest, as every context() does."""
    if ctx._prec_rounding[1] != round_nearest:
        raise ValueError("compiled f needs a context that rounds to nearest")


def evaluator(f: FunctionDef, ctx) -> Callable:
    """Compile f once against a context; the returned callable is reusable
    and side-effect free, so probes can call it in a tight loop.

    The callable maps the raw value of x (an mpf's _mpf_ tuple) to the raw
    value of f(x); ctx.make_mpf turns that into an mpf. f is compiled to one
    Python function of mpmath's libmp kernels, and of the kernels of
    kernels.py that return their bits, at the precision ctx has at compile
    time, so the values are those of mpf arithmetic at that precision; a
    later ctx.extraprec or ctx.prec does not reach the compiled f. ctx must
    round to nearest, as every context(precision) does; any other rounding
    raises ValueError. A subtree without x is evaluated here, once. A domain
    failure raises EvalDomainError, whose x is an mpf. A long orbit runs
    f's statements in a loop of its own instead (see orbit_loop), which
    does not call this callable.
    """
    _require_nearest(ctx)
    return _Codegen(ctx).function(f.root)


# the orbit loops that call f, by precision, mode and streaming: they do not
# depend on f, so each is compiled once and serves every f
_CALLING_LOOPS: Dict[tuple, Callable] = {}


def orbit_loop(f: Optional[FunctionDef], ctx, positive: bool, streamed: bool) -> Callable:
    """The orbit x_{n+1} = f(x_n) on ctx as one compiled Python loop, with
    the bits of calling evaluator(f, ctx) once per step, of the orbit's
    decay test (kernels._decays) and of mpf addition for its partial sum.
    The loop is written for f: f's statements run on the fields of x_n as
    locals, with the fast paths of the kernels inline, followed by the decay
    test, the partial sum (kernels.SUM), the hand-off of the term and the
    floor test. Each call folds f's constants and compiles the loop, which
    takes 1 to 2 ms. For f None the loop calls its fn, a function of raw
    values, once per step instead; that loop does not depend on f and is
    compiled once for every f at ctx's precision, mode and streaming. A ctx
    that does not round to nearest raises ValueError, as in evaluator.

    The loop is loop(fn, mk, x, total, acc, e, stop, floor, out, thin),
    with fn the function it calls (a loop written for f calls none) and mk
    ctx.make_mpf. It starts from the raw x_0 (= x) with the partial sum
    total and its fixed-point form (acc, e) (see kernels._fixed), and runs
    steps 1, 2, ... up to stop - 1. In positive mode a term must decay as
    0 < f(x) < x, in signed mode as 0 < |f(x)| < |x|. Each term that decays
    goes to out: the raw x_n as out(x_n), or with streamed, at every step n
    that thin divides, the row out(n, x_n, S_n) of mpf numbers. It returns
    (stop code, step, the term that did not decay or the EvalDomainError or
    None, the raw last term, total, acc, e), where the stop code is
    STOP_MAX_N, STOP_FLOOR (the term's magnitude below the raw floor),
    STOP_DECAY or STOP_DOMAIN.
    """
    _require_nearest(ctx)
    if f is None:
        key = (ctx.prec, positive, streamed)
        loop = _CALLING_LOOPS.get(key)
        if loop is None:
            loop = _CALLING_LOOPS[key] = _Codegen(ctx, fields=True).orbit(
                None, positive, streamed)
        return loop
    # fold writes f's subtrees without x as functions of the raw x, so it
    # runs without fields; the loop is written in the same namespace
    folding = _Codegen(ctx)
    folding.fold(f.root)
    writer = _Codegen(ctx, folding.namespace, fields=True)
    writer.folded = folding.folded
    return writer.orbit(f.root, positive, streamed)


def parse_constant(text: str, ctx):
    """Evaluate a constant expression (no x allowed), e.g. '-1/6' or 'pi'."""
    f = parse(text)
    if _has_var(f.root):
        raise ExprSyntaxError("expected a constant, found the variable x", 0, text)
    return ctx.make_mpf(evaluator(f, ctx)(fzero))


def _digits(value, ctx) -> str:
    """value, an mpf of ctx, in ctx.dps digits, or in as many more as it
    takes for them to read back on ctx as value bit for bit."""
    text = mpmath.nstr(value, ctx.dps)
    if ctx.mpf(text) != value:  # value has more digits than the working ones
        text = mpmath.nstr(value, repr_dps(ctx.prec))
    return text


def taylor_polynomial(coefficients, ctx) -> FunctionDef:
    """The polynomial a1*x + a2*x^2 + ... as a FunctionDef that carries the
    coefficients, read on ctx; the leading a1 is kept, never assumed to be 1.

    Zero coefficients are skipped. Each other one is written in digits that
    read back on ctx as it, bit for bit, so the tree computes the polynomial
    whose coefficients it carries.
    """
    coefficients = tuple(ctx.convert(c) for c in coefficients)
    terms, ops = [], ""
    for k, c in enumerate(coefficients, start=1):
        if c == 0:
            continue
        power = BinOp("^", Var(), Number(str(k))) if k > 1 else Var()
        factors = [power] if abs(c) == 1 else [Number(_digits(abs(c), ctx)), power]
        if c < 0 and not terms:  # the leading minus of -a*x^k is -a's
            factors[0] = Neg(factors[0])
        ops += "-" if c < 0 else "+"
        terms.append(_chain(Product, factors, "*" * (len(factors) - 1)))
    if not terms:
        raise ValueError("all Taylor coefficients are zero")
    root = _chain(Sum, terms, ops[1:])
    return FunctionDef(root, _render(root), coefficients)
