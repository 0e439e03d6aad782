"""End-to-end acceptance checks against closed-form oracles.

Each test prints one [PASS] line; assertion messages carry the [FAIL]
context. Stated runtime budgets are asserted where they exist.
"""

import io
import time

import mpmath

from recurseries.classify import (
    MajorantSpec,
    analyze,
    estimate_derivative_at_zero,
    limit_exponent_rule,
    probe_limit,
    search_exponent,
)
from recurseries.cli import cmd_analyze, cmd_limit, _build_parser, config_from_args
from recurseries.expr import context, parse, taylor_polynomial
from recurseries.grids import Samples
from recurseries.orbit import iterate

from corpus import DECISIVE

CTX = context(64)
OSCILLATORY = "x*(1/2 + 1/3*sin(1/x))"


def run_cli(argv):
    args = _build_parser().parse_args(argv)
    cfg = config_from_args(args)
    out = io.StringIO()
    code = (cmd_analyze if args.command == "analyze" else cmd_limit)(cfg, out)
    return code, out.getvalue()


def test_criterion_1_exact_identity_probe():
    start = time.monotonic()
    worst = CTX.mpf(0)
    for a_text in ("0.25", "0.5", "0.75"):
        for c_text in ("0.5", "1", "2"):
            member = MajorantSpec.powerlaw(a_text, c_text, CTX)
            probe = probe_limit(Samples(member.fn), a_text)
            c = CTX.mpf(c_text)
            err = abs(probe.L / c - 1)
            worst = max(worst, err)
            assert err < CTX.mpf("1e-20"), (
                f"[FAIL] criterion 1: a={a_text} c={c_text} |L/c-1|={mpmath.nstr(err, 6)}"
            )
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"[FAIL] criterion 1: runtime {elapsed:.2f}s exceeds 5s"
    print(f"[PASS] criterion 1: identity probe exact on 9 members"
          f" (worst |L/c-1| = {mpmath.nstr(worst, 3)}, {elapsed:.2f}s)")


def test_criterion_2_harmonic_asymptotics():
    start = time.monotonic()
    orbit = iterate(Samples(parse("x/(1+x)")), 1, max_n=10**5)
    # n*x_n -> 1 (a = 1, k = 1) over the last decade of indices
    worst = max(abs(n * CTX.make_mpf(orbit.terms[n]) - 1) for n in range(10**4, 10**5 + 1))
    elapsed = time.monotonic() - start
    assert worst <= CTX.mpf("1e-3"), "[FAIL] criterion 2: n*x_n strays from 1 beyond 1e-3"
    assert elapsed < 30, f"[FAIL] criterion 2: runtime {elapsed:.2f}s exceeds 30s"
    print(f"[PASS] criterion 2: n*x_n -> 1 at N=1e5 ({elapsed:.2f}s)")


def test_criterion_3_sine_exponent_search():
    start = time.monotonic()
    result = search_exponent(Samples(parse("sin(x)")))
    assert result.found, f"[FAIL] criterion 3: search NotFound ({result.note})"
    a, k = result.fit.a, result.fit.k
    assert CTX.mpf("1.99") <= a <= CTX.mpf("2.01"), (
        f"[FAIL] criterion 3: a = {mpmath.nstr(a, 12)} outside [1.99, 2.01]"
    )
    root3 = CTX.sqrt(3)
    assert abs(k / root3 - 1) < CTX.mpf("0.02"), (
        f"[FAIL] criterion 3: k = {mpmath.nstr(k, 12)} not within 2% of sqrt(3)"
    )
    verdict = limit_exponent_rule(result.fit)
    assert (verdict.conclusion, verdict.rule) == ("divergent", "LimitExponentRule"), (
        f"[FAIL] criterion 3: verdict {verdict.conclusion} via {verdict.rule}"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"[FAIL] criterion 3: runtime {elapsed:.2f}s exceeds 60s"
    print(f"[PASS] criterion 3: sin exponent a = {mpmath.nstr(a, 10)},"
          f" k = {mpmath.nstr(k, 10)}, divergent ({elapsed:.2f}s)")


def test_criterion_4_geometric_regime():
    start = time.monotonic()
    report = analyze(Samples(parse("x/2"), x0=1))
    assert (report.verdict.conclusion, report.verdict.rule) == (
        "convergent", "DerivativeRule",
    ), f"[FAIL] criterion 4: verdict {report.verdict.conclusion}"
    c = report.verdict.witnesses["c"]
    assert abs(c - CTX.mpf("0.5")) < CTX.mpf("1e-20"), (
        f"[FAIL] criterion 4: c = {mpmath.nstr(c, 30)}"
    )
    total = report.sum.total
    assert abs(total - 2) < CTX.mpf("1e-12"), (
        f"[FAIL] criterion 4: sum estimate {mpmath.nstr(total, 20)}"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 1, f"[FAIL] criterion 4: runtime {elapsed:.2f}s exceeds 1s"
    print(f"[PASS] criterion 4: x/2 convergent, c = 0.5, sum = 2 ({elapsed:.2f}s)")


def test_criterion_5_oscillatory_majorant():
    start = time.monotonic()
    est = estimate_derivative_at_zero(Samples(parse(OSCILLATORY)))
    assert est.kind == "dne", f"[FAIL] criterion 5: derivative kind {est.kind}"
    lo, hi = est.band
    assert abs(lo - CTX.mpf(1) / 6) < CTX.mpf("0.02"), (
        f"[FAIL] criterion 5: band low {mpmath.nstr(lo, 12)} not near 1/6"
    )
    assert abs(hi - CTX.mpf(5) / 6) < CTX.mpf("0.02"), (
        f"[FAIL] criterion 5: band high {mpmath.nstr(hi, 12)} not near 5/6"
    )
    report = analyze(Samples(parse(OSCILLATORY), x0="0.3"))
    assert (report.verdict.conclusion, report.verdict.rule) == (
        "convergent", "MajorantRule",
    ), f"[FAIL] criterion 5: verdict {report.verdict.conclusion}"
    assert report.verdict.witnesses["majorant"] == "linear:5/6", (
        f"[FAIL] criterion 5: majorant {report.verdict.witnesses['majorant']}"
    )
    ratio = CTX.mpf(5) / 6
    terms = [CTX.make_mpf(t) for t in report.orbit_result.terms]
    for n in range(len(terms) - 1):
        assert terms[n + 1] <= ratio * terms[n], (
            f"[FAIL] criterion 5: x_{n + 1} > (5/6) x_{n}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"[FAIL] criterion 5: runtime {elapsed:.2f}s exceeds 10s"
    print(f"[PASS] criterion 5: band within 0.02 of [1/6, 5/6], majorant linear:5/6,"
          f" stepwise bound holds ({elapsed:.2f}s)")


def test_criterion_6_comparison_induction():
    # the floor sits far below either orbit, so both run the full 1e4 steps
    n_max = 10**4
    g_orbit = iterate(Samples(parse(OSCILLATORY)), "0.3", max_n=n_max, floor="1e-13000")
    m_orbit = iterate(Samples(parse("5/6 * x")), "0.3", max_n=n_max, floor="1e-13000")
    assert g_orbit.last_index == n_max, (
        f"[FAIL] criterion 6: g orbit stopped at {g_orbit.last_index}"
    )
    assert m_orbit.last_index == n_max, (
        f"[FAIL] criterion 6: m orbit stopped at {m_orbit.last_index}"
    )
    for n in range(n_max + 1):
        assert CTX.make_mpf(m_orbit.terms[n]) >= CTX.make_mpf(g_orbit.terms[n]), (
            f"[FAIL] criterion 6: m_{n} < g_{n}"
        )
    print(f"[PASS] criterion 6: m^n(x0) >= g^n(x0) exactly for all n <= {n_max}")


def test_criterion_7_alternating_mode():
    report = analyze(Samples(parse("-x/2"), x0=1))
    assert (report.verdict.conclusion, report.verdict.rule) == (
        "convergent", "AlternatingRule",
    ), f"[FAIL] criterion 7: verdict {report.verdict.conclusion}"
    s = report.orbit_result.s_n
    target = CTX.mpf(2) / 3
    assert abs(s - target) < CTX.mpf("1e-12"), (
        f"[FAIL] criterion 7: partial sum {mpmath.nstr(s, 20)} vs 2/3"
    )
    print("[PASS] criterion 7: -x/2 convergent via AlternatingRule, sums -> 2/3")


def test_criterion_8_taylor_germ():
    report = analyze(Samples(taylor_polynomial((1, -1), CTX), x0="0.5"), max_n=2000)
    assert (report.verdict.conclusion, report.verdict.rule) == (
        "divergent", "LimitExponentRule",
    ), f"[FAIL] criterion 8: verdict {report.verdict.conclusion}"
    assert (report.verdict.witnesses["a"], report.verdict.witnesses["k"]) == (1, 1), (
        f"[FAIL] criterion 8: witnesses {report.verdict.witnesses}"
    )
    orbit = iterate(Samples(parse("x - x^2")), "0.5", max_n=10**5)
    n = orbit.last_index
    product = n * orbit.x_n
    assert abs(product - 1) < CTX.mpf("0.05"), (
        f"[FAIL] criterion 8: n*x_n = {mpmath.nstr(product, 12)} at n = {n}"
    )
    print(f"[PASS] criterion 8: taylor (1, -1) divergent via LimitExponentRule, a = k = 1;"
          f" n*x_n = {mpmath.nstr(product, 8)} at n = 1e5")


def test_criterion_9_derivative_rule_precedence():
    report = analyze(Samples(parse("0.9*(x/(1+x))"), x0=1), max_n=2000)
    assert (report.verdict.conclusion, report.verdict.rule) == (
        "convergent", "DerivativeRule",
    ), f"[FAIL] criterion 9: verdict {report.verdict.conclusion}"
    c = report.verdict.witnesses["c"]
    assert abs(c - CTX.mpf("0.9")) < CTX.mpf("1e-6"), (
        f"[FAIL] criterion 9: c = {mpmath.nstr(c, 12)}"
    )
    code, out = run_cli(["limit", "--f", "0.9*(x/(1+x))", "--a", "search"])
    assert code == 2 and out.startswith("search: NotFound"), (
        f"[FAIL] criterion 9: limit search gave exit {code}: {out.splitlines()[0]}"
    )
    print("[PASS] criterion 9: c = 0.9 decides; exponent search returns NotFound")


def test_criterion_10_json_determinism():
    for entry in DECISIVE:
        first = run_cli(entry.cli_args("--json"))
        second = run_cli(entry.cli_args("--json"))
        assert first == second, (
            f"[FAIL] criterion 10: JSON differs between runs for {entry.name}"
        )
    print(f"[PASS] criterion 10: byte-identical JSON across two runs"
          f" of {len(DECISIVE)} corpus functions")
