"""Inputs and output checks for the three benchmark workloads.

A workload is a list of cases. Each case is the argv handed to
``recurseries.cli.main`` and a check that turns the exit code and captured
stdout into ``None`` (correct) or a message saying what is wrong. The
seed picks the inputs; the program only ever sees the generated argv.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import mpmath

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("corpus", "long_analyze", "long_iterate")

# the 12 corpus entries the benchmark runs; entries added to the corpus
# later do not change the workload
CORPUS_NAMES = (
    "geometric", "harmonic", "sine", "oscillatory", "half_exponent",
    "damped_harmonic", "alternating", "signed_oscillatory", "logistic_edge",
    "taylor_sine", "wide_band", "unit_bound",
)
SEEDS_X0 = ("1", "0.5", "0.25")

LONG_ANALYZE_N = 10000
# witness tolerances of the acceptance tests: a in [a_lo, a_hi] and, where
# a target is given, k within K_REL of it
LONG_ANALYZE_WITNESS = {
    "harmonic": ("0.99", "1.01", None),
    "sine": ("1.99", "2.01", mpmath.sqrt(3)),
    "half_exponent": ("0.495", "0.505", None),
}
K_REL = mpmath.mpf("0.02")

LONG_ITERATE_N = 100000
LONG_ITERATE_THIN = 10
HARMONIC_REL_ERR = mpmath.mpf("1e-60")
# the harmonic check reads S_N at more digits than the CLI prints (64)
EXACT = mpmath.mp.clone()
EXACT.dps = 90
SINE_SCALED_TOL = mpmath.mpf("0.05")

Check = Callable[[int, str], Optional[str]]


@dataclass
class Case:
    name: str
    argv: List[str]
    exprs: List[str]  # expression texts in argv, parsed again by the set-up probe
    check: Check


def load_corpus() -> Dict[str, object]:
    tests_dir = os.path.join(ROOT, "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    import corpus

    entries = {e.name: e for e in corpus.ALL}
    missing = [n for n in CORPUS_NAMES if n not in entries]
    if missing:
        raise RuntimeError(f"corpus entries missing: {', '.join(missing)}")
    return entries


def _exprs(entry) -> List[str]:
    if entry.taylor is not None:
        return [part.strip() for part in entry.taylor.split(",")]
    return [entry.function]


def _json_report(code: int, out: str, want_code: int):
    if code != want_code:
        return None, f"exit code {code}, expected {want_code}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, "stdout is not a JSON report"


def check_analyze(entry, witness=None) -> Check:
    """Exit code, mode, verdict and rule as the corpus entry says; with
    `witness`, the witnesses a and k within the acceptance tolerances."""
    want_code = 2 if entry.verdict == "inconclusive" else 0
    want_rule = entry.rule or "none"

    def check(code: int, out: str) -> Optional[str]:
        doc, err = _json_report(code, out, want_code)
        if err:
            return err
        got = (doc.get("mode"), doc.get("verdict"), doc.get("rule"))
        if got != (entry.mode, entry.verdict, want_rule):
            return f"mode/verdict/rule {got}, expected {(entry.mode, entry.verdict, want_rule)}"
        if witness is None:
            return None
        a_lo, a_hi, k_target = witness
        w = doc.get("witnesses", {})
        if "a" not in w:
            return "witness a missing"
        a = mpmath.mpf(w["a"])
        if not mpmath.mpf(a_lo) <= a <= mpmath.mpf(a_hi):
            return f"witness a = {w['a']} outside [{a_lo}, {a_hi}]"
        if k_target is not None:
            if "k" not in w or not abs(mpmath.mpf(w["k"]) / k_target - 1) < K_REL:
                return f"witness k = {w.get('k')} not within 2% of {mpmath.nstr(k_target, 8)}"
        return None

    return check


_SUMMARY = re.compile(
    r"n = (\d+)\s+x_n = (\S+)\s+S_n = (\S+)\s+status = (\S+)"
)
_WROTE = re.compile(r"wrote (\d+) rows")


def _harmonic_sum(x0: str, n: int):
    """S_N of x/(1+x): x_j = 1/(1/x0 + j), so S_N = psi(1/x0+N+1) - psi(1/x0)."""
    q = 1 / EXACT.mpf(x0)
    return EXACT.digamma(q + n + 1) - EXACT.digamma(q)


def check_iterate(kind: str, x0: str) -> Check:
    """Status max_iterations at N, every thinned CSV row written, and the
    orbit against its closed form: the harmonic S_N by digamma, the sine
    x_N by x_N * sqrt(N/3) -> 1."""
    n_want = LONG_ITERATE_N
    rows_want = n_want // LONG_ITERATE_THIN + 1
    expected_sum = _harmonic_sum(x0, n_want) if kind == "harmonic" else None

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}, expected 0"
        wrote = _WROTE.search(out)
        summary = _SUMMARY.search(out)
        if wrote is None or summary is None:
            return "iterate summary not found"
        if int(wrote.group(1)) != rows_want:
            return f"wrote {wrote.group(1)} CSV rows, expected {rows_want}"
        n, x_n, s_n, status = summary.groups()
        if int(n) != n_want or status != "max_iterations":
            return f"stopped at n = {n} with {status}, expected max_iterations at {n_want}"
        if kind == "harmonic":
            rel = abs(EXACT.mpf(s_n) / expected_sum - 1)
            if not rel < HARMONIC_REL_ERR:
                return f"S_N = {s_n} off the digamma closed form by {mpmath.nstr(rel, 3)}"
        else:
            scaled = mpmath.mpf(x_n) * mpmath.sqrt(mpmath.mpf(n_want) / 3)
            if not abs(scaled - 1) <= SINE_SCALED_TOL:
                return f"x_N * sqrt(N/3) = {mpmath.nstr(scaled, 6)} not within 0.05 of 1"
        return None

    return check


def make_cases(workload: str, rng: random.Random, out_dir: str) -> List[Case]:
    corpus = load_corpus()
    if workload == "corpus":
        return [
            Case(name, corpus[name].cli_args("--json"), _exprs(corpus[name]),
                 check_analyze(corpus[name]))
            for name in CORPUS_NAMES
        ]
    if workload == "long_analyze":
        cases = []
        for name, witness in LONG_ANALYZE_WITNESS.items():
            entry = corpus[name]
            x0 = rng.choice(SEEDS_X0)
            argv = ["analyze", f"--f={entry.function}", f"--x0={x0}",
                    f"--max-n={LONG_ANALYZE_N}", "--json"]
            cases.append(Case(f"{name}@{x0}", argv, [entry.function],
                              check_analyze(entry, witness)))
        return cases
    if workload == "long_iterate":
        cases = []
        for name in ("harmonic", "sine"):
            entry = corpus[name]
            x0 = rng.choice(SEEDS_X0)
            argv = ["iterate", f"--f={entry.function}", f"--x0={x0}",
                    f"--max-n={LONG_ITERATE_N}",
                    "--orbit-csv", os.path.join(out_dir, f"orbit-{name}.csv"),
                    "--thin", str(LONG_ITERATE_THIN)]
            cases.append(Case(f"{name}@{x0}", argv, [entry.function],
                              check_iterate(name, x0)))
        return cases
    raise ValueError(f"unknown workload {workload!r}")
