"""End-to-end and per-layer benchmark of the recurseries CLI.

Drives the public entry ``recurseries.cli.main(argv)`` in this process as a
closed loop with one client: each pass calls it once per input of the
workload, in an order the seed shuffles, and the next call starts when the
previous one has returned. Passes repeat while the next one is expected to
end within ``--seconds``. Every output is checked (see workloads.py).

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Times are scaled to a fixed machine speed (see speed.py); an input's time
is the median of its scaled samples. Raw best-of-k times are printed
alongside.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` the first half of the time runs untraced
and the second half runs with tracer.py installed; the last line reports the
per-layer metrics, per pass, with span times scaled by the pass's ratio of
scaled to raw time. ``--workload all`` runs every workload in its
own process and prints each metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import speed
import workloads
from tracer import Tracer

ROOT = workloads.ROOT
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")  # orbit CSVs and span files
SETUP_RUNS = 11

# a fresh interpreter imports the CLI and parses the workload's expressions
SETUP_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import recurseries.cli\n"
    "from recurseries import parse\n"
    "for text in sys.argv[2:]:\n"
    "    parse(text)\n"
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def import_cli():
    """Import recurseries.cli from this checkout's sources, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "recurseries", "cli.py")):
        raise SystemExit(f"bench: no recurseries sources under {SRC}")
    sys.path.insert(0, SRC)
    import recurseries.cli

    found = os.path.realpath(recurseries.cli.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"bench: imported recurseries from {found}, not {SRC}")
    return recurseries.cli


def measure_setup(cases):
    """(scaled, raw) median seconds of SETUP_RUNS fresh interpreters running
    SETUP_PROBE."""
    cmd = [sys.executable, "-c", SETUP_PROBE, SRC]
    cmd += [text for case in cases for text in case.exprs]
    raw, scaled = [], []
    before = speed.bracket()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = speed.bracket()
        raw.append(elapsed)
        scaled.append(speed.scaled_ms(elapsed, before + after) / 1000)
        before = after
    return statistics.median(scaled), statistics.median(raw)


def call_cli(main, argv):
    """Run main(argv) as the console script would; return (exit code, stdout)."""
    buf = io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(buf):
            main(argv)
    except SystemExit as done:
        code = done.code if isinstance(done.code, int) else int(done.code is not None)
    return code, buf.getvalue()


class Loop:
    """Samples of one closed-loop measurement."""

    def __init__(self, cases):
        self.times = {case.name: [] for case in cases}  # raw seconds
        self.scaled = {case.name: [] for case in cases}  # ms, see speed.py
        self.layers = []  # traced runs: per-pass layer totals
        self.attempted = 0
        self.failed = 0

    def typical_ms(self):
        return [statistics.median(ms) for ms in self.scaled.values()]

    def pass_s(self) -> float:
        """Seconds to run every input once."""
        return sum(self.typical_ms()) / 1000

    def latency_ms(self) -> float:
        """Geometric mean over inputs: every input weighs the same."""
        return statistics.geometric_mean(self.typical_ms())

    def raw_best_pass_s(self) -> float:
        return sum(min(ts) for ts in self.times.values())


def run_loop(main, cases, rng, budget: float, tracer=None) -> Loop:
    loop = Loop(cases)
    start = time.perf_counter()
    last_pass = 0.0
    passes = 0
    before = speed.bracket()
    while passes == 0 or time.perf_counter() - start + last_pass <= budget:
        pass_start = time.perf_counter()
        pass_raw = pass_scaled = 0.0
        for case in rng.sample(cases, len(cases)):
            gc.collect()
            if tracer is not None:
                tracer.begin_request()
            with speed.Sampler() as sampler:
                t0 = time.perf_counter()
                try:
                    code, out = call_cli(main, case.argv)
                except Exception as exc:  # a traceback is a failed operation
                    code, out = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_request()
            after = speed.bracket()
            scaled = speed.scaled_ms(elapsed - sampler.busy,
                                     before + sampler.samples + after)
            loop.times[case.name].append(elapsed)
            loop.scaled[case.name].append(scaled)
            pass_raw += elapsed
            pass_scaled += scaled
            before = after
            loop.attempted += 1
            try:
                error = out if code is None else case.check(code, out)
            except Exception as exc:  # an unreadable output is a wrong one
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                loop.failed += 1
                if loop.failed <= 5:
                    print(f"bench: {case.name} failed: {error}", file=sys.stderr)
        if tracer is not None:
            # layer times at the reference speed too, so runs compare
            factor = pass_scaled / (1000 * pass_raw)
            loop.layers.append({k: v * factor if k.endswith("_ms") else v
                                for k, v in tracer.take().items()})
        passes += 1
        last_pass = time.perf_counter() - pass_start
    return loop


def tail(samples):
    """(value, percentile): the highest sample with at least ten samples
    beyond it, or the maximum while that one would lie below the median
    (fewer than 21 samples)."""
    s = sorted(samples)
    if len(s) < 21:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def layer_metrics(names, untraced: Loop, traced: Loop):
    """Per-layer metrics by name, per pass: counts from the first traced
    pass, times as the median over traced passes. Returns (metrics, error)."""
    passes = traced.layers
    counts = [{k: v for k, v in p.items() if not k.endswith("_ms")} for p in passes]
    error = None
    if any(c != counts[0] for c in counts[1:]):
        error = "layer counts differ between passes of one run"
    first = passes[0]
    samples = [ms for per_input in untraced.scaled.values() for ms in per_input]
    derived = {
        "expr.f_evals_distinct_ratio": (
            first.get("expr.f_evals_distinct", 0) / first["expr.f_evals"]
            if first.get("expr.f_evals") else 0.0),
        "classify.majorant_rule.accept_ratio": (
            first.get("classify.majorant_rule.accepted", 0)
            / first["classify.majorant_rule.calls"]
            if first.get("classify.majorant_rule.calls") else 0.0),
        "cli.main.p50_ms": statistics.median(samples),
        "cli.main.tail_ms": tail(samples)[0],
        "cli.main.samples": len(samples),
        "trace.overhead_ratio": traced.pass_s() / untraced.pass_s(),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith("_ms"):
            out[name] = statistics.median(p.get(name, 0.0) for p in passes)
        else:
            out[name] = first.get(name, 0)
    return out, error


def print_layer_table(traced: Loop, untraced: Loop) -> None:
    passes = traced.layers
    spans = sorted({k[: -len(".self_ms")] for p in passes for k in p if k.endswith(".self_ms")})
    self_ms = {s: statistics.median(p.get(s + ".self_ms", 0.0) for p in passes) for s in spans}
    whole = sum(self_ms.values())
    print(f"traced passes {len(passes)}; self time per pass {whole:.1f} ms"
          " (f evaluations count toward their caller)")
    print(f"  {'span':40s} {'calls':>8s} {'self ms':>10s} {'share':>7s}")
    for s in sorted(spans, key=self_ms.get, reverse=True):
        print(f"  {s:40s} {passes[0].get(s + '.calls', 0):8d} {self_ms[s]:10.1f}"
              f" {100 * self_ms[s] / whole:6.1f}%")
    print("untraced cli.main per input: samples, p50 and tail ms (scaled), raw best and p50 ms")
    for name, ms in untraced.scaled.items():
        value, pct = tail(ms)
        raw = untraced.times[name]
        print(f"  {name:40s} {len(ms):3d} {statistics.median(ms):9.1f}"
              f" {value:9.1f} (p{pct:.0f}) {1000 * min(raw):9.1f}"
              f" {1000 * statistics.median(raw):9.1f}")


def run_workload(args) -> int:
    spec = load_spec()
    main = import_cli().main
    os.makedirs(OUT_DIR, exist_ok=True)
    rng = random.Random(args.seed)
    cases = workloads.make_cases(args.workload, rng, OUT_DIR)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}"
          f" trace {args.trace}: {len(cases)} inputs")

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        untraced = run_loop(main, cases, rng, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        main = sys.modules["recurseries.cli"].main
        traced = run_loop(main, cases, rng, args.seconds / 2, tracer)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
        values, error = layer_metrics(list(units), untraced, traced)
        print_layer_table(traced, untraced)
        loops = (untraced, traced)
    else:
        setup_s, raw_setup_s = measure_setup(cases)
        loop = run_loop(main, cases, rng, args.seconds)
        values = {
            "setup_s": setup_s,
            "pass_s": loop.pass_s(),
            "latency_ms": loop.latency_ms(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        error = None
        loops = (loop,)
        print(f"raw: setup {raw_setup_s:.4f} s median, pass {loop.raw_best_pass_s():.4f} s"
              f" best-of-{len(next(iter(loop.times.values())))}")

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    if error:
        print(f"bench: {error}", file=sys.stderr)
    metrics = {n: {"value": values[n], "unit": unit} for n, unit in units.items()}
    for n, unit in units.items():
        print(f"  {n:44s} {values[n]:14.6g} {unit}")
    print(f"  {'error_rate':44s} {failed / attempted:14.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0 and error is None, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a summary of every metric."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              stdin=subprocess.DEVNULL)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    sys.exit(run_all(args) if args.workload == "all" else run_workload(args))
