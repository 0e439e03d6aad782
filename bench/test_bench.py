"""Tests of the benchmark itself: wrong outputs must count as failures, and
the tracer must reach every module that imported a wrapped function."""

import json
import os
import subprocess
import sys

import mpmath

import workloads

CORPUS = workloads.load_corpus()
N = workloads.LONG_ITERATE_N


def analyze_json(entry, **changes):
    doc = {"function": entry.function, "mode": entry.mode,
           "verdict": entry.verdict, "rule": entry.rule or "none",
           "witnesses": {}}
    doc.update(changes)
    return json.dumps(doc)


def iterate_output(s_n, x_n="0.00001", rows=N // workloads.LONG_ITERATE_THIN + 1):
    return (f"wrote {rows} rows to orbit.csv\n"
            f"n = {N}  x_n = {x_n}  S_n = {s_n}"
            f"  status = max_iterations at step {N}")


def test_corpus_check_accepts_the_expected_report():
    for entry in CORPUS.values():
        code = 2 if entry.verdict == "inconclusive" else 0
        assert workloads.check_analyze(entry)(code, analyze_json(entry)) is None


def test_corpus_check_rejects_wrong_verdict_rule_or_exit_code():
    sine = CORPUS["sine"]
    check = workloads.check_analyze(sine)
    assert check(0, analyze_json(sine, verdict="convergent")) is not None
    assert check(0, analyze_json(sine, rule="DerivativeRule")) is not None
    assert check(2, analyze_json(sine)) is not None
    assert check(0, "verdict: divergent") is not None


def test_long_analyze_check_rejects_witness_out_of_tolerance():
    sine = CORPUS["sine"]
    check = workloads.check_analyze(sine, workloads.LONG_ANALYZE_WITNESS["sine"])
    good = {"a": "2.0000000190", "k": "1.7320498679"}
    assert check(0, analyze_json(sine, witnesses=good)) is None
    assert check(0, analyze_json(sine, witnesses={**good, "a": "2.02"})) is not None
    assert check(0, analyze_json(sine, witnesses={**good, "k": "1.8"})) is not None


def test_iterate_check_rejects_wrong_harmonic_sum():
    exact = mpmath.nstr(workloads._harmonic_sum("0.5", N), 64)
    check = workloads.check_iterate("harmonic", "0.5")
    assert check(0, iterate_output(exact)) is None
    # one digit wrong at the 40th place is far above the 1e-60 tolerance
    digits = list(exact)
    digits[40] = "1" if digits[40] != "1" else "2"
    assert check(0, iterate_output("".join(digits))) is not None
    assert check(0, iterate_output(exact, rows=10000)) is not None
    assert check(0, iterate_output(exact).replace("max_iterations", "reached_floor")) is not None


def test_iterate_check_sine_scaling():
    check = workloads.check_iterate("sine", "1")
    x_n = mpmath.nstr(mpmath.sqrt(mpmath.mpf(3) / N), 20)
    assert check(0, iterate_output("1088.76", x_n=x_n)) is None
    assert check(0, iterate_output("1088.76", x_n="0.006")) is not None


def test_tracer_patches_every_importing_module():
    bench = os.path.dirname(os.path.abspath(__file__))
    probe = (
        "import sys\n"
        f"sys.path[:0] = [{bench!r}, {os.path.join(workloads.ROOT, 'src')!r}]\n"
        "import recurseries.cli as cli, recurseries.classify as classify\n"
        "import recurseries.orbit as orbit, recurseries.expr as expr\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "assert cli.iterate is orbit.iterate is classify.iterate\n"
        "assert cli.write_csv is orbit.write_csv and hasattr(cli.write_csv, '__wrapped__')\n"
        "assert cli.evaluator is expr.evaluator is classify.evaluator\n"
        "t.begin_request()\n"
        "try:\n"
        "    cli.main(['iterate', '--f=x/2', '--x0=1', '--max-n=5', '--mode=positive'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "t.end_request()\n"
        "got = t.take()\n"
        "assert got['orbit.iterate.steps'] == 5 and got['expr.f_evals'] == 5, got\n"
        "assert got['cli.main.calls'] == 1 and got['cli.main.self_ms'] > 0, got\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")
