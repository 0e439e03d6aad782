import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from recurseries.cli import (
    _SUBCOMMANDS,
    RunConfig,
    _build_parser,
    cmd_analyze,
    cmd_compare,
    cmd_iterate,
    cmd_limit,
    config_from_args,
    main,
    parse_majorant_spec,
)
from recurseries.expr import context, parse
from recurseries.grids import Samples
from recurseries.orbit import iterate, write_csv

from corpus import ALL, DECISIVE
from test_classify import advised_precision
from test_orbit import _STOPS  # every stop status of an orbit

CTX = context(64)
OSCILLATORY = "x*(1/2 + 1/3*sin(1/x))"

COMMANDS = {
    "analyze": cmd_analyze,
    "iterate": cmd_iterate,
    "limit": cmd_limit,
    "compare": cmd_compare,
}


def run(argv):
    """(exit code, output without the newline that ends it) of a command."""
    args = _build_parser().parse_args(argv)
    out = io.StringIO()
    code = COMMANDS[args.command](config_from_args(args), out)
    text = out.getvalue()
    assert text.endswith("\n")
    return code, text[:-1]


@pytest.mark.parametrize("entry", ALL, ids=lambda e: e.name)
def test_corpus_exit_codes(entry):
    code, out = run(entry.cli_args())
    expected = 2 if entry.verdict == "inconclusive" else 0
    assert code == expected
    if entry.rule is not None:
        assert f"verdict: {entry.verdict} ({entry.rule})" in out
    else:
        assert "verdict: inconclusive" in out


def test_json_schema_order_without_fit():
    code, out = run(["analyze", "--f", "x/2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "function", "x0", "mode", "verdict", "rule",
        "witnesses", "derivative", "orbit", "warnings",
    ]
    assert doc["function"] == "x/2"
    assert doc["verdict"] == "convergent"
    assert doc["rule"] == "DerivativeRule"
    assert doc["witnesses"] == {"c": "0.5"}
    assert doc["derivative"] == {"kind": "value", "c": "0.5"}
    assert doc["orbit"]["n"] == 133
    assert doc["orbit"]["status"] == "reached_floor"
    assert isinstance(doc["orbit"]["x_n"], str)


def test_json_schema_with_fit():
    code, out = run(["analyze", "--f", "x/(1+x)", "--max-n", "2000", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "function", "x0", "mode", "verdict", "rule",
        "witnesses", "derivative", "fit", "orbit", "warnings",
    ]
    assert doc["rule"] == "LimitExponentRule"
    assert set(doc["witnesses"]) == {"a", "k"}
    assert set(doc["fit"]) == {"a", "k", "residual"}
    assert abs(mpmath.mpf(doc["fit"]["a"]) - 1) < mpmath.mpf("0.01")


def test_json_rule_none_for_inconclusive():
    code, out = run([
        "analyze", "--f", "x - x^(1.95)*(1+abs(sin(1/x)))/2", "--x0", "0.3",
        "--max-n", "2000", "--json",
    ])
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "inconclusive"
    assert doc["rule"] == "none"
    assert doc["witnesses"] == {}


@pytest.mark.parametrize("entry", ALL, ids=lambda e: e.name)
def test_outcome_does_not_depend_on_precision(entry):
    outcomes = []
    for precision in (64, 128):
        code, out = run(entry.cli_args("--json", f"--precision={precision}"))
        doc = json.loads(out)
        outcomes.append((code, doc["mode"], doc["verdict"], doc["rule"]))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("entry", DECISIVE, ids=lambda e: e.name)
def test_json_output_is_deterministic(entry):
    first = run(entry.cli_args("--json"))
    second = run(entry.cli_args("--json"))
    assert first == second


def extract_text_witnesses(out):
    lines = out.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("verdict:")) + 1
    found = {}
    for line in lines[start:]:
        if not line.startswith("  ") or " = " not in line:
            break
        key, _, value = line.strip().partition(" = ")
        found[key] = value
    return found


@pytest.mark.parametrize("entry", DECISIVE, ids=lambda e: e.name)
def test_text_and_json_agree(entry):
    code_t, text = run(entry.cli_args())
    code_j, blob = run(entry.cli_args("--json"))
    assert code_t == code_j
    doc = json.loads(blob)
    assert f"verdict: {doc['verdict']}" in text
    assert extract_text_witnesses(text) == doc["witnesses"]


# argv, message fragment, the text that failed to parse, caret offset
PARSE_ERRORS = [
    (["analyze", "--f", "x + tan(x)"], "unknown identifier 'tan'", "x + tan(x)", 4),
    (["limit", "--f=x/2", "--a=abc"], "unknown identifier 'abc'", "abc", 0),
    (["compare", "--f=x/3", "--majorant=fn:x^"], "expected a number", "x^", 2),
    (["compare", "--f=x/3", "--majorant=linear:abc"],
     "unknown identifier 'abc'", "abc", 0),
    (["analyze", "--taylor=1,abc"], "unknown identifier 'abc'", "abc", 0),
]


def test_parse_error_diagnostic():
    # the caret sits under the argument that failed, not under --f
    for argv, message, text, offset in PARSE_ERRORS:
        code, out = run(argv)
        assert code == 1
        lines = out.splitlines()
        assert message in lines[0]
        assert lines[1] == "  " + text
        assert lines[2] == "  " + " " * offset + "^"


def test_taylor_label_and_rule():
    code, out = run([
        "analyze", "--taylor", "1,0,-1/6", "--x0", "0.5",
        "--max-n", "2000", "--json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["function"] == "taylor:1,0,-1/6"
    assert doc["rule"] == "AnalyticRule"


def test_analyze_error_exit_codes():
    code, out = run(["analyze", "--f", "2*x"])
    assert code == 1
    assert out.startswith("error:")
    code, out = run(["analyze", "--f", "x/2", "--x0", "0"])
    assert code == 1
    # a negative seed has no orbit under 0 < f(x) < x
    code, out = run(["analyze", "--f=x/(1+x)", "--x0=-1"])
    assert code == 1
    assert "must be positive in positive mode" in out


SUBCOMMAND_ARGS = {
    "analyze": [],
    "iterate": [],
    "limit": ["--a=1"],
    "compare": ["--majorant=linear:0.5"],
}


# the subcommands that take --x0 and --floor
SEEDED = ("analyze", "compare", "iterate")


@pytest.mark.parametrize("command", SEEDED)
def test_non_numeric_seed_is_an_error_message(command):
    code, out = run([command, "--f=x/2", "--x0=abc"] + SUBCOMMAND_ARGS[command])
    assert code == 1
    assert out == "error: x0 must be a number, got 'abc'"


@pytest.mark.parametrize("command", SEEDED)
@pytest.mark.parametrize("flag,message", [
    ("--x0=0", "error: x0 must be nonzero"),
    ("--floor=0", "error: floor must be positive"),
])
def test_zero_seed_or_floor_is_refused_before_any_output(tmp_path, command, flag, message):
    path = tmp_path / "o.csv"
    output = [] if command == "compare" else ["--orbit-csv", str(path)]
    assert run([command, "--f=x/2", flag] + output + SUBCOMMAND_ARGS[command]) == (1, message)
    assert not path.exists()


# the grid flags steer the probe grid of analyze and limit; --orbit-csv is
# written by analyze and iterate
FAILURES = {
    "bad_expression": (SUBCOMMAND_ARGS, lambda tmp: ["--f=x +"]),
    "non_numeric_x0": (SEEDED, lambda tmp: ["--f=x/2", "--x0=abc"]),
    "nan_x0": (SEEDED, lambda tmp: ["--f=x/2", "--x0=nan"]),
    "inf_x0": (SEEDED, lambda tmp: ["--f=x/2", "--x0=inf"]),
    "nan_floor": (SEEDED, lambda tmp: ["--f=x/2", "--floor=nan"]),
    "inf_floor": (SEEDED, lambda tmp: ["--f=x/2", "--floor=-inf"]),
    "bad_grid": (
        ("analyze", "limit"),
        lambda tmp: ["--f=x/2", "--grid-start=1e-30", "--grid-floor=1e-2"],
    ),
    "unbounded_grid": (
        ("analyze", "limit"), lambda tmp: ["--f=x/2", "--grid-floor=1e-400000000000"]
    ),
    "unbounded_seed_grid": (
        ("analyze",), lambda tmp: ["--f=x/2", "--x0=1e100000000000"]
    ),
    "unwritable_orbit_csv": (
        ("analyze", "iterate"),
        lambda tmp: ["--f=x/2", "--orbit-csv", str(tmp / "missing" / "o.csv")],
    ),
}


@pytest.mark.parametrize("command,failure", [
    (command, failure)
    for failure, (commands, _) in FAILURES.items()
    for command in sorted(commands)
])
def test_every_failure_is_an_error_message(tmp_path, command, failure):
    argv = [command] + FAILURES[failure][1](tmp_path) + SUBCOMMAND_ARGS[command]
    code, out = run(argv)
    assert code == 1
    assert out.startswith("error:")


def test_run_config_validation():
    with pytest.raises(ValueError, match="precision"):
        RunConfig(function_text="x/2", precision=8).validate()
    with pytest.raises(ValueError, match="mutually exclusive"):
        RunConfig(function_text="x/2", taylor="1,-1").validate()
    with pytest.raises(ValueError, match="--f or"):
        RunConfig().validate()
    with pytest.raises(ValueError, match="x0 must be a finite number, got 'nan'"):
        RunConfig(function_text="x/2", x0="nan").validate()
    with pytest.raises(ValueError, match="floor must be a finite number, got 'inf'"):
        RunConfig(function_text="x/2", floor="inf").validate()
    code, out = run(["analyze", "--f", "x/2", "--precision", "8"])
    assert code == 1
    assert "precision" in out


def test_iterate_inline_csv():
    code, out = run(["iterate", "--f", "x/(1+x)", "--max-n", "100"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,x_n,S_n"
    assert len(lines) == 103  # header + 101 rows + summary
    last_row = lines[-2].split(",")
    assert last_row[0] == "100"
    assert last_row[1] == mpmath.nstr(CTX.mpf(1) / 101, 64)
    assert lines[-1].startswith("n = 100  x_n = ")


def test_iterate_writes_file(tmp_path):
    path = tmp_path / "orbit.csv"
    code, out = run([
        "iterate", "--f", "x/2", "--max-n", "100",
        "--orbit-csv", str(path), "--thin", "10",
    ])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,x_n,S_n"
    assert out.startswith(f"wrote {len(lines) - 1} rows to {path}")
    assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(0, 101, 10))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_STOPS), st.integers(min_value=1, max_value=12))
def test_streamed_iterate_prints_what_write_csv_prints_of_the_stored_orbit(stop, thin):
    text, max_n, mode = stop[:3]
    stored = iterate(Samples(parse(text)), 1, max_n=max_n, mode=mode)
    csv = io.StringIO()
    rows = write_csv(stored, csv, thin=thin)
    summary = (
        f"n = {stored.last_index}  x_n = {mpmath.nstr(stored.terms[-1], 64)}"
        f"  S_n = {mpmath.nstr(stored.partial_sums[-1], 64)}"
        f"  status = {stored.status.describe()}"
    )
    argv = ["iterate", f"--f={text}", f"--max-n={max_n}", f"--mode={mode.value}", f"--thin={thin}"]
    assert run(argv) == (0, csv.getvalue() + summary)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "orbit.csv")
        wrote = f"wrote {rows} rows to {path}\n"
        assert run(argv + ["--orbit-csv", path]) == (0, wrote + summary)
        with open(path) as written:
            assert written.read() == csv.getvalue()


def _iterate_csv_peak(path, max_n):
    tracemalloc.start()
    try:
        code, _ = run(["iterate", "--f=x/(1+x)", f"--max-n={max_n}",
                       "--orbit-csv", str(path), "--thin", "1"])
        assert code == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_iterate_to_a_csv_file_holds_flat_memory(tmp_path):
    path = tmp_path / "orbit.csv"
    _iterate_csv_peak(path, 10)  # imports and caches outside the count
    assert _iterate_csv_peak(path, 40000) <= 1.5 * _iterate_csv_peak(path, 10000)


def _iterate_stdout_peak(max_n):
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["iterate", "--f=x/(1+x)", f"--max-n={max_n}", "--thin=1"])
            assert exc.value.code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_iterate_to_stdout_holds_flat_memory():
    # through main, as the console script runs it: the rows go to stdout as
    # they are computed
    _iterate_stdout_peak(10)  # imports and caches outside the count
    assert _iterate_stdout_peak(40000) <= 1.5 * _iterate_stdout_peak(10000)


def test_iterate_to_a_reader_that_goes_away_leaves_stderr_empty():
    proc = subprocess.Popen(
        [sys.executable, "-m", "recurseries", "iterate", "--f=x/(1+x)", "--max-n=100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"n,x_n,S_n\n"
    proc.stdout.close()  # like head -1
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1  # the run ended before its last row


@pytest.mark.parametrize("call,where,cap", [
    ("sin(2^65536)", "sin(2 ^ 65536)", "argument reaches the magnitude cap 2^65536"),
    ("exp(2^65536)", "exp(2 ^ 65536)", "argument reaches the magnitude cap 2^65536"),
    ("10^2^1024", "10 ^ 2 ^ 1024", "exponent reaches the magnitude cap 2^1024"),
])
def test_constant_past_the_magnitude_cap_stops_at_once(call, where, cap):
    text = f"x/2 + 0*{call}"
    code, out = run(["analyze", f"--f={text}", "--x0=0.5"])
    assert code == 1 and out.startswith("error: the decay hypothesis fails")
    # the reason is named, as in iterate's status
    assert f"(x = 0.5: {cap} in '{where}'; " in out
    code, out = run(["iterate", f"--f={text}", "--x0=0.5", "--max-n=5"])
    assert code == 0
    assert out.splitlines()[-1] == (
        "n = 0  x_n = 0.5  S_n = 0.5  status = hypothesis_violation at step 1:"
        f" {cap} in '{where}' at x = 0.5"
    )


def test_iterate_signed_autodetect():
    code, out = run(["iterate", "--f=-x/2", "--max-n", "50"])
    assert code == 0
    assert "status = max_iterations" in out


def test_limit_fixed_exponent():
    code, out = run(["limit", "--f", "x/(1+x)", "--a", "1"])
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("probe: a = 1.0  verdict = finite_nonzero")
    assert "L = " in header and "k = " in header

    code, out = run(["limit", "--f", "x/(1+x)", "--a", "0.5"])
    assert code == 2
    assert "verdict = tends_to_zero" in out


def test_limit_grid_overrides():
    code, out = run([
        "limit", "--f", "x/(1+x)", "--a", "1",
        "--grid-start", "1e-1", "--grid-floor", "1e-6",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "x,L"
    assert len(lines) == 2 + 21  # quarter-decade steps from 1e-1 to 1e-6

    # a start between lattice points is sampled itself, never rounded up
    code, out = run(["limit", "--f", "x/(1+x)", "--a", "1", "--grid-start", "0.05"])
    assert code == 0
    assert out.splitlines()[2].startswith("0.05,")
    assert out.splitlines()[3].startswith("0.0316227766")

    # the stabilization rule needs enough samples to see a window
    code, out = run([
        "limit", "--f", "x/(1+x)", "--a", "1",
        "--grid-start", "1e-1", "--grid-floor", "1e-3",
    ])
    assert code == 1
    assert "at least 16 samples" in out


def test_limit_search():
    code, out = run(["limit", "--f", "x/(1+x)", "--a", "search"])
    assert code == 0
    assert out.splitlines()[0].startswith("search: a = 1.0  k = 1.0  residual = ")

    code, out = run(["limit", "--f", "x/2", "--a", "search"])
    assert code == 2
    assert out.startswith("search: NotFound - quotient blows up")

    code, out = run(["limit", "--f", "x/2"])
    assert code == 1
    assert "--a" in out


def test_limit_search_precision_guard():
    # x - x^5 rounds to x below about 1e-16 at 64 digits: ln(x/f) has no
    # digits left there, so the search refuses rather than reading noise
    code, out = run(["limit", "--f=x-x^5", "--a", "search"])
    assert code == 1
    assert out.startswith("error: x and f(x) agree in more than")
    # ln(x/f) is 1e-100 at the probe floor 1e-25
    assert advised_precision(out) == 103

    code, out = run(["limit", "--f=x-x^5", "--a", "search", "--precision", "200"])
    assert code == 0
    assert out.splitlines()[0].startswith("search: a = 4.0  k = ")


def test_limit_exponent_past_the_magnitude_cap_is_refused():
    # 2^1024 lies between the two: the samples L grow like x^-a, and printing
    # the 93 of a = 1e2000 did not end within 100 s
    for a in ("1.8e308", "1e2000", "-1e2000"):
        assert run(["limit", "--f=x/2", f"--a={a}"]) == (
            1, "error: --a reaches the magnitude cap 2^1024")
    # just below the cap the probe runs and prints its samples, in about 3 s
    code, out = run(["limit", "--f=x/2", "--a=1.7e308"])
    assert code == 2
    assert out.startswith("probe: a = 1.7e+308  verdict = tends_to_infinity\nx,L\n")
    assert len(out.splitlines()) == 2 + 93


def test_limit_precision_guard():
    code, out = run(["limit", "--f", "x - x^9", "--a", "1"])
    assert code == 1
    assert "rerun with precision" in out


@pytest.mark.parametrize("argv", [
    ["limit", "--f=x/2", "--a=1e-80"],  # x^a and f^a agree in 80 digits everywhere
    ["limit", "--f=x-x^5", "--a=search"],  # x and f agree in 4·25 digits at the floor
    ["limit", "--f=x - x^9", "--a=1"],
])
def test_cancellation_advice_is_a_precision_that_passes(argv):
    # the advice names the precision the deepest row of the probe needs, not
    # one the next row down refuses again
    code, out = run(argv)
    assert code == 1
    precision = advised_precision(out)
    code, out = run(argv + [f"--precision={precision}"])
    assert code != 1 and "agree in more than" not in out, out


def test_compare_convergent():
    code, out = run([
        "compare", "--f", OSCILLATORY, "--x0", "0.3",
        "--majorant", "linear:5/6",
    ])
    assert code == 0
    assert "monotone: by construction (built-in family)" in out
    assert "verdict: convergent (MajorantRule)" in out
    assert "n,g_n,m_n" in out
    assert "orbit domination m_n >= g_n" in out
    assert out.strip().endswith("yes")


def test_compare_domination_failure():
    code, out = run([
        "compare", "--f", "x/2", "--majorant", "powerlaw:a=0.5,c=1",
    ])
    assert code == 2
    assert "domination fails at x = 1.0" in out


def test_compare_user_majorant_certification():
    code, out = run([
        "compare", "--f", OSCILLATORY, "--x0", "0.3",
        "--majorant", "fn:5/6 * x",
    ])
    assert code == 0
    assert "majorant series: convergent (DerivativeRule)" in out
    assert "user majorant monotone" in out

    # the printed scan is the one the verdict read, also when it fails
    code, out = run([
        "compare", "--f", OSCILLATORY, "--x0", "0.3",
        "--majorant", f"fn:{OSCILLATORY}",
    ])
    assert code == 2
    assert "monotone on grid: no  delta = 1.77827941" in out
    assert "majorant is not monotone on the required region" in out


@pytest.mark.parametrize("name", ["oscillatory", "wide_band", "abs_sine_majorant"])
def test_analyze_majorant_passes_compare(name):
    # analyze and compare run one test: the label analyze prints is a
    # majorant compare accepts on the same f and seed
    entry = next(e for e in ALL if e.name == name)
    code, out = run(entry.cli_args("--json"))
    assert code == 0
    label = json.loads(out)["witnesses"]["majorant"]
    code, out = run(["compare", f"--f={entry.function}", f"--x0={entry.x0}",
                     "--max-n=200", f"--majorant={label}"])
    assert code == 0, out
    assert "verdict: convergent (MajorantRule)" in out


def test_json_minorant_witness():
    code, out = run(["analyze", "--f=x - x^(5/2)*(1+abs(sin(1/x)))/2", "--x0=0.3",
                     "--max-n=200", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["verdict"], doc["rule"]) == ("divergent", "MinorantRule")
    assert doc["witnesses"] == {"minorant": "powerlaw:a=1.1,c=0.479", "delta": "0.3"}


def test_seed_at_the_validation_floor():
    # a seed at or below 1e-30 is checked on the decade below it
    code, out = run(["iterate", "--f=x/2", "--x0=1e-35"])
    assert code == 0
    assert out.splitlines()[-1].startswith("n = 17  ")
    assert "status = reached_floor" in out
    code, out = run(["analyze", "--f=x/2", "--x0=1e-35"])
    assert code == 0
    assert "verdict: convergent (DerivativeRule)" in out


def test_compare_bad_majorant_spec():
    code, out = run(["compare", "--f", "x/2", "--majorant", "quadratic:0.5"])
    assert code == 1
    assert "majorant must be" in out
    with pytest.raises(ValueError, match="exactly"):
        parse_majorant_spec("powerlaw:a=0.5", CTX)


def test_main_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--f", "x/2"])
    assert exc.value.code == 0
    assert "verdict: convergent" in capsys.readouterr().out

    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--f", "x*sin(1/x)", "--x0", "0.3", "--max-n", "2000"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--f", "x +"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--f=x/2", "--bogus"],
    ["analyze", "--f=x/2", "--precision=abc"],
    ["analyze", "--f=x/2", "--grid-step=-0.25"],
    ["iterate", "--f=x/2", "--grid-start=1e-1"],
    ["limit", "--f=x/2", "--a=1", "--x0=1"],
    ["limit", "--f=x/2", "--a=1", "--orbit-csv=o.csv"],
    ["compare", "--f=x/3", "--majorant=linear:0.5", "--mode=signed"],
    ["iterate", "--f=x/2", "--mode=complex"],
    ["integrate", "--f=x/2"],
])
def test_parser_errors_exit_1(capsys, argv):
    # exit code 2 means inconclusive; a bad argument is an error like any other
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


# pools of option values for the argv fuzz, (well-formed, malformed): plain
# and extreme decimals, the empty string, in-grammar and broken expressions.
# --precision and --max-n size the requested work, so their well-formed
# values stay at most 200 and 2000.
NUMBERS = (["1", "0.5", "0.3", "1/2", "-0.3", "3e-29", "1e-2000", "1e2000", "-1e2000",
            "1.7e308"],
           ["nan", "inf", "-inf", "-0", "0", "pi", "", "abc"])
POOLS = {
    "--f": (["x/2", "x/(1+x)", "sin(x)", "x - x^2", OSCILLATORY, "-x/2", "ln(1+x)",
             "x - x^2*abs(sin(1/x))", "x^x", "sqrt(x)", "1/x", "2*x", "x", "0*x",
             "x/2 + 0*sin(2^65536)", "x^1e2000", "x*1e-2000"],
            ["x +", "(x", ")", "", "tan(x)", "x ^^ 2"]),
    "--taylor": (["1,-1", "0.5", "1,0,-1/6", "1e2000,1"], ["0", "", ",", "nan", "abc"]),
    "--precision": (["16", "64", "200"], ["0", "-5", "15", "", "abc"]),
    "--x0": NUMBERS,
    "--max-n": (["1", "10", "2000"], ["0", "-5", "", "abc"]),
    "--floor": NUMBERS,
    "--mode": (["auto", "positive", "signed"], ["complex", ""]),
    "--orbit-csv": (["{dir}/o.csv"], ["{dir}/missing/o.csv", ""]),
    "--thin": (["1", "3"], ["0", "-1", "", "abc"]),
    "--grid-start": NUMBERS,
    "--grid-floor": NUMBERS,
    "--json": ([None], []),
    # 1.7e308, just below the cap, takes seconds to print (see above)
    "--a": (["1", "0.5", "2", "1/2", "pi", "1e-2000", "1e2000", "1.8e308", "search"],
            ["-0.3", "nan", "inf", "-0", "0", "", "abc"]),
    "--majorant": (["linear:0.5", "linear:2", "linear:1e2000", "powerlaw:a=0.5,c=1",
                    "powerlaw:a=1e2000,c=1", "fn:x/2", "fn:2*x", "fn:5/6 * x"],
                   ["linear:nan", "powerlaw:a=0,c=1", "powerlaw:", "fn:x +", "fn:",
                    "quadratic:1", ""]),
    "--bogus": NUMBERS,
    "--grid-step": NUMBERS,
}
# what each subcommand cannot run without
NEEDS = {"limit": "--a", "compare": "--majorant"}


def option(name):
    well_formed, malformed = POOLS[name]
    values = st.sampled_from(well_formed + malformed)
    if well_formed:  # mostly well-formed, so that most commands run
        values = st.one_of(st.sampled_from(well_formed), values)
    return st.tuples(st.just(name), values)


@st.composite
def argvs(draw):
    """A subcommand and options: mostly its own, sometimes another
    subcommand's or an unknown one. Each command that iterates gets --max-n."""
    command = draw(st.one_of(*[st.sampled_from(sorted(_SUBCOMMANDS))] * 4, st.just("integrate")))
    own = _SUBCOMMANDS.get(command, (None, None, ()))[2]
    names = st.sampled_from(sorted(POOLS))
    if own:
        names = st.one_of(*[st.sampled_from(own)] * 5, names)
    wanted = [draw(st.sampled_from(["--f", "--f", "--taylor"]))] if own else []
    wanted += [name for name in ("--max-n", NEEDS.get(command)) if name in own]
    options = [draw(option(name)) for name in wanted]
    options += draw(st.lists(names.flatmap(option), max_size=4))
    return [command] + [name if value is None else f"{name}={value}"
                        for name, value in draw(st.permutations(options))]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_fuzzed_argv_never_ends_in_a_traceback(capsys, argv):
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(SystemExit) as exc:
            main([arg.replace("{dir}", tmp) for arg in argv])
    assert exc.value.code in (0, 1, 2)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", [None] + sorted(SUBCOMMAND_ARGS))
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(([command] if command else []) + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: recurseries")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "recurseries", "analyze", "--f", "x/2", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "convergent"
