"""The closed-form oracle of tests/oracle.py against analyze and iterate."""

import io
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from recurseries import CONVERGENT, DIVERGENT, LIMIT_EXPONENT_RULE, Samples, analyze, parse
from recurseries.cli import _SUBCOMMANDS, _build_parser, config_from_args

from oracle import Parabolic, parabolic

PRECISION = 64  # the default; the references are taken at twice it
TOLERANCE = mpmath.mpf("1e-60")


def output(command, member, *extra):
    """The lines a command that exits 0 writes for member."""
    argv = [command, f"--f={member.text}", f"--x0={member.x0}", *extra]
    out = io.StringIO()
    assert _SUBCOMMANDS[command][0](config_from_args(_build_parser().parse_args(argv)), out) == 0
    return out.getvalue().splitlines()


def relative_error(text: str, exact):
    with mpmath.workdps(2 * PRECISION):
        return abs(mpmath.mpf(text) - exact) / exact


@settings(max_examples=30, deadline=None)
@given(parabolic())
def test_the_germ_reads_a_and_k_of_a_parabolic_member(member):
    report = analyze(Samples(parse(member.text), PRECISION, x0=member.x0), max_n=200)
    a, lam = member.a, member.lam
    assert report.germ.terms[:2] == ((1, 1), (1 + a, -1 / (a * member.mu ** a.numerator)))
    v = report.verdict
    assert (v.conclusion, v.rule) == (CONVERGENT if a < 1 else DIVERGENT, LIMIT_EXPONENT_RULE)
    ctx = report.table.ctx
    assert v.witnesses["a"] == ctx.mpf(a.numerator) / a.denominator
    assert abs(v.witnesses["k"] - lam) <= TOLERANCE * lam


@settings(max_examples=10, deadline=None)
@given(parabolic(), st.integers(1, 10**4))
@example(Parabolic(Fraction(2, 3), Fraction(2), "0.5"), 10**4)
def test_iterate_sums_the_exact_orbit(member, n):
    # S_N = lam*(zeta(1/a, q) - zeta(1/a, q + N + 1)), or digamma at a = 1
    last = output("iterate", member, f"--max-n={n}")[-1]
    end = dict(field.split(" = ") for field in last.split("  "))
    assert end["n"] == str(n)
    assert relative_error(end["S_n"], member.partial_sum(n, 2 * PRECISION)) <= TOLERANCE


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the printed sum is the orbit's partial"
                   " sum plus a tail from the free power-law fit, off by 1e-12 to 1e-3")
@pytest.mark.parametrize("member", [
    Parabolic(Fraction(1, 2), Fraction(1), "1"),
    Parabolic(Fraction(1, 3), Fraction(1), "0.5"),
    Parabolic(Fraction(2, 3), Fraction(2), "0.5"),
], ids=lambda m: m.text)
def test_the_printed_sum_is_the_closed_form(member):
    line = next(line for line in output("analyze", member, "--max-n=10000")
                if line.startswith("sum estimate: "))
    value = line.split(" ")[2]
    assert relative_error(value, member.total(2 * PRECISION)) <= TOLERANCE
