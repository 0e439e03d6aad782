"""Metamorphic relations over the corpus: changes of an input that must
keep its verdict and rule, checked on in-process `main` runs."""

import json

import mpmath
import pytest

from recurseries.cli import main
from recurseries.expr import DEFAULT_PRECISION, parse
from recurseries.grids import Samples

from corpus import ALL

EXPRESSIONS = [e for e in ALL if e.function is not None]


def outcome(capsys, argv):
    """(exit code, verdict, rule) of an analyze run."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    return exc.value.code, doc["verdict"], doc["rule"]


def test_every_expression_entry_is_covered():
    assert len(EXPRESSIONS) == 19


@pytest.mark.parametrize("entry", EXPRESSIONS, ids=lambda e: e.name)
def test_a_higher_precision_keeps_verdict_and_rule(capsys, entry):
    source = outcome(capsys, entry.cli_args())
    assert source[1:] == (entry.verdict, entry.rule or "none")
    assert outcome(capsys, entry.cli_args("--precision=100")) == source


@pytest.mark.parametrize("entry", EXPRESSIONS, ids=lambda e: e.name)
def test_the_seed_shift_keeps_verdict_and_rule(capsys, entry):
    # the series from f(x0) is the series from x0 without its first term
    x1 = Samples(parse(entry.function), DEFAULT_PRECISION, x0=entry.x0).f(mpmath.mpf(entry.x0))
    shifted = [arg for arg in entry.cli_args() if not arg.startswith("--x0=")]
    source = outcome(capsys, entry.cli_args())
    assert outcome(capsys, shifted + [f"--x0={mpmath.nstr(x1, DEFAULT_PRECISION)}"]) == source
