"""The compiled orbit loop (expr.orbit_loop, run by orbit.iterate) against
the orbit by definition: a per-step loop that evaluates f with the table's
compiled f, tests the decay with mpf_lt and sums with mpf_add. Random
expression trees in both modes, stored and streamed orbits at thin 1, 3
and 7, at three precisions, and each loop: f's statements inline, f
called, and f behind a wrapper (called); the final x_N and S_N, the status
with its detail text, and the terms or rows must be equal, bit for bit."""

from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp, fzero, mpf_abs, mpf_add, mpf_lt

from recurseries import expr, orbit as orbit_module
from recurseries.expr import EvalDomainError, FunctionDef, parse
from recurseries.grids import Samples
from recurseries.orbit import (
    HYPOTHESIS_VIOLATION, MAX_ITERATIONS, REACHED_FLOOR, UNDERFLOW, Mode, iterate,
)
from test_expr import _nary, _node_strategy

PRECISIONS = [16, 30, 64]
# inline: f's statements in the loop; calls: the loop calls the compiled f,
# as below INLINE_STEPS; wrapped: it calls a wrapper of the compiled f
PATHS = ["inline", "calls", "wrapped"]
_ROUNDS_TO_X = "at the working precision (a fixed point or a precision limit)"


def _by_definition(table, x0, max_n, floor, mode, thin):
    """(status kind, step, detail), last index, raw x_N, raw S_N and the rows
    (n, raw x_n, raw S_n) at n = 0, thin, 2·thin, ... and at the last index."""
    ctx = table.ctx
    prec, rnd = ctx._prec_rounding
    x = s = ctx.convert(x0)._mpf_
    floor = ctx.convert(floor)._mpf_
    rows = [(0, x, s)]

    def done(status, last):
        if rows[-1][0] != last:
            rows.append((last, x, s))
        return status, last, x, s, rows

    if mpf_lt(mpf_abs(x), floor):
        return done((REACHED_FLOOR, 0, None), 0)
    for step in range(1, max_n + 1):
        try:
            v = table.compiled(x)
        except EvalDomainError as err:
            return done((HYPOTHESIS_VIOLATION, step, str(err)), step - 1)
        size, bound = (v, x) if mode is Mode.POSITIVE else (mpf_abs(v, prec, rnd),
                                                           mpf_abs(x, prec, rnd))
        if not (mpf_lt(fzero, size) and mpf_lt(size, bound)):
            if v == fzero:
                return done((UNDERFLOW, step, "f returned exactly 0"), step - 1)
            if size == bound:
                what = "f(x) rounds to x" if mode is Mode.POSITIVE else "|f(x)| rounds to |x|"
                detail = f"{what} = {mpmath.nstr(ctx.make_mpf(bound), 12)} {_ROUNDS_TO_X}"
            else:
                detail = (f"f(x) = {mpmath.nstr(ctx.make_mpf(v), 12)} breaks the decay bound"
                          f" at x = {mpmath.nstr(ctx.make_mpf(x), 12)}")
            return done((HYPOTHESIS_VIOLATION, step, detail), step - 1)
        x, s = v, mpf_add(s, v, prec, rnd)
        if not step % thin:
            rows.append((step, x, s))
        if mpf_lt(size, floor):
            return done((REACHED_FLOOR, step, None), step)
    return done((MAX_ITERATIONS, max_n, None), max_n)


def _same_as_by_definition(f, precision, x0, max_n, floor, mode, thin, path):
    table = Samples(f, precision)
    if path == "wrapped":  # a function that is not evaluator's
        compiled = table.compiled
        table.compiled = lambda x: compiled(x)
    status, last, x_n, s_n, want_rows = _by_definition(table, x0, max_n, floor, mode, thin)
    got_rows = []
    with mock.patch.object(orbit_module, "INLINE_STEPS", 1 if path == "inline" else 10**9):
        streamed = iterate(table, x0, max_n, floor, mode, thin,
                           lambda n, x, s: got_rows.append((n, x._mpf_, s._mpf_)))
        stored = iterate(table, x0, max_n, floor, mode) if thin == 1 else None
    for orbit in filter(None, (streamed, stored)):
        got = orbit.status
        assert (got.kind, got.step, got.detail) == status
        assert orbit.last_index == last
        assert (orbit.x_n._mpf_, orbit.s_n._mpf_) == (x_n, s_n)
    assert got_rows == want_rows
    if stored is not None:
        assert stored.terms == [x for _, x, _ in want_rows]


# seeds at 1, below and above it, tiny (where 1 + x perturbs and sin(x) takes
# its tiny-argument cut) and negative
_SEEDS = st.sampled_from(["1", "0.5", "0.3", "2", "1e-50", "1e-90", "-0.5", "-1e-50"])
_FLOORS = st.sampled_from(["1e-40", "1e-120", "0.001"])


@settings(max_examples=300, deadline=None)
@given(root=_node_strategy().map(_nary), precision=st.sampled_from(PRECISIONS), x0=_SEEDS,
       max_n=st.integers(1, 40), floor=_FLOORS, mode=st.sampled_from(list(Mode)),
       thin=st.sampled_from([1, 3, 7]), path=st.sampled_from(PATHS))
def test_loop_is_the_orbit_by_definition(root, precision, x0, max_n, floor, mode, thin, path):
    _same_as_by_definition(FunctionDef(root, ""), precision, x0, max_n, floor, mode,
                           thin, path)


@st.composite
def _ties(draw):
    """(precision, raw x0) with a mantissa m of exactly the working precision
    p whose 3m has p + 1 bits: x/2 + x/4 = 3x/4 then rounds at an exact tie."""
    precision = draw(st.sampled_from(PRECISIONS))
    prec = Samples(parse("x"), precision).ctx.prec
    man = draw(st.integers(1 << (prec - 2), ((1 << (prec + 1)) // 3 - 1) >> 1)) * 2 + 1
    return precision, from_man_exp(man, -prec - draw(st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(drawn=_ties(), text=st.sampled_from(["x/2 + x/4", "0.75*x", "x - x/4"]),
       thin=st.sampled_from([1, 3, 7]), path=st.sampled_from(PATHS))
def test_loop_rounds_ties_to_even(drawn, text, thin, path):
    precision, x0 = drawn
    ctx = Samples(parse("x"), precision).ctx
    _same_as_by_definition(parse(text), precision, ctx.make_mpf(x0), 30, "1e-40",
                           Mode.POSITIVE, thin, path)


# every stop: the floor (also at step 0), the step limit, a term that grows
# at step 1 and later, one that reaches 0, a domain error at step 1 (in a
# constant) and later, and f(x) that rounds to x; and the kernels of a step:
# sin from |x| >= 1 (mod_pi2), below 1 and below 1/256 (the table's first
# value), square roots, integer powers, roots raised to a power, negation
_STOPS = [
    ("x/2", "1", Mode.POSITIVE), ("x/2", "1e-50", Mode.POSITIVE),
    ("x/(1+x)", "1", Mode.POSITIVE), ("2*x", "1", Mode.POSITIVE),
    ("x - 0.3", "1", Mode.POSITIVE), ("x - 0.3", "1", Mode.SIGNED),
    ("x - 0.25", "1", Mode.POSITIVE), ("x/2 + 0*ln(0)", "1", Mode.POSITIVE),
    ("sqrt(x - 0.3)", "1", Mode.POSITIVE), ("sqrt(x - 0.2)", "1", Mode.POSITIVE),
    ("sin(x)", "1e-50", Mode.POSITIVE), ("-sin(x)", "1e-50", Mode.SIGNED),
    ("-x/2", "1", Mode.SIGNED), ("x*sin(1/x)*(1/2)", "0.3", Mode.SIGNED),
    ("0.9*(x/(1+x))", "1", Mode.POSITIVE), ("x/(1+x^(1/2))^2", "1", Mode.POSITIVE),
    ("x - x^2", "0.5", Mode.POSITIVE), ("-x/2", "-1", Mode.POSITIVE),
    ("sin(x)", "1", Mode.POSITIVE), ("sin(x)", "0.5", Mode.POSITIVE),
    ("sin(x)", "0.01", Mode.POSITIVE), ("sin(x)", "0.001", Mode.POSITIVE),
    ("x/(1+x^(1/2))^2", "0.5", Mode.POSITIVE), ("x - x^3/6", "0.5", Mode.POSITIVE),
    ("x - x^(3/2)", "0.5", Mode.POSITIVE), ("-x/2", "0.5", Mode.SIGNED),
]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("thin", [1, 3, 7])
@pytest.mark.parametrize("text,x0,mode", _STOPS, ids=[f"{t}@{x}" for t, x, _ in _STOPS])
def test_every_stop_is_the_orbit_by_definition(text, x0, mode, thin, path):
    _same_as_by_definition(parse(text), 64, x0, 600, "1e-60", mode, thin, path)


def test_the_stops_cover_every_status():
    seen = set()
    for text, x0, mode in _STOPS:
        table = Samples(parse(text))
        status = _by_definition(table, x0, 600, "1e-60", mode, 1)[0]
        seen.add((status[0], status[1] == 1, (status[2] or "")[:9]))
    kinds = {kind for kind, _, _ in seen}
    assert kinds == {REACHED_FLOOR, MAX_ITERATIONS, HYPOTHESIS_VIOLATION, UNDERFLOW}
    details = {detail for kind, _, detail in seen if kind == HYPOTHESIS_VIOLATION}
    assert {"f(x) = 2.", "f(x) = -0", "logarithm", "square ro", "f(x) roun",
            "|f(x)| ro"} <= details
    assert {first for kind, first, _ in seen if kind == HYPOTHESIS_VIOLATION} == {True, False}


def test_a_long_orbit_compiles_its_loop_and_short_ones_share_one(monkeypatch):
    # from INLINE_STEPS on, each iterate compiles a loop with f's statements,
    # which does not call the compiled f; a shorter orbit runs the loop that
    # calls f, compiled once per precision, mode and streaming for every f
    compiled, written = [], []
    table = Samples(parse("x/(1+x)"))
    f = table.compiled
    monkeypatch.setattr(table, "compiled", lambda x: compiled.append(x) or f(x))
    monkeypatch.setattr(expr, "_CALLING_LOOPS", {})
    write = expr._Codegen.orbit
    monkeypatch.setattr(expr._Codegen, "orbit", lambda self, node, *args: written.append(
        (node is table.function.root, *args)) or write(self, node, *args))
    monkeypatch.setattr(orbit_module, "INLINE_STEPS", 20)
    for mode in (Mode.POSITIVE, Mode.POSITIVE, Mode.SIGNED, Mode.POSITIVE):
        for max_n in (20, 19, 20):
            iterate(table, "0.5", max_n, mode=mode)
            iterate(table, "0.5", max_n, mode=mode, thin=3, rows=lambda n, x, s: None)

    def loops(inline, positive):  # a stored and a streamed orbit's
        return [(inline, positive, False), (inline, positive, True)]

    assert written == (loops(True, True) + loops(False, True) + loops(True, True)
                       + 2 * loops(True, True)
                       + loops(True, False) + loops(False, False) + loops(True, False)
                       + 2 * loops(True, True))
    assert len(compiled) == 4 * 2 * 19
    # another f at the same precision runs the loops already compiled
    del written[:]
    other = Samples(parse("sin(x)"))
    for mode in Mode:
        iterate(other, "0.5", 19, mode=mode)
        iterate(other, "0.5", 19, mode=mode, thin=3, rows=lambda n, x, s: None)
    assert written == []
