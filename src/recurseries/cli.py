"""Command-line front end.

Subcommands: analyze (full pipeline), iterate (orbit CSV), limit (quotient
probe or exponent search), compare (majorant domination check). Exit codes:
0 decisive, 2 inconclusive / not found / domination failure, 1 error.

All numeric output goes through mpmath.nstr at the configured precision so
reports carry decimal strings, not binary floats, and two runs with the
same configuration produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import List, Optional, TextIO

import mpmath
from mpmath.libmp import mpf_ge

from .classify import (
    AnalysisError,
    CROSS_CHECK_N,
    FINITE_NONZERO,
    INCONCLUSIVE,
    MajorantSpec,
    PrecisionGuardError,
    _require_positive_seed,
    analyze,
    detect_mode,
    majorant_rule,
    probe_limit,
    search_exponent,
)
from .expr import (
    DEFAULT_PRECISION,
    EXPONENT_CAP,
    EvalDomainError,
    ExprError,
    FunctionDef,
    MIN_PRECISION,
    context,
    evaluator,  # unused here; bench/test_bench.py checks the tracer rebinds it
    parse,
    parse_constant,
    taylor_polynomial,
)
from .grids import GridSpec, PROBE_GRID, Samples
from .orbit import CsvRows, Mode, iterate, write_csv

COMPARE_TABLE_ROWS = 12


@dataclass
class RunConfig:
    function_text: Optional[str] = None
    x0: str = "1"
    mode: str = "auto"
    precision: int = DEFAULT_PRECISION
    max_n: int = 10**6
    floor: str = "1e-40"
    grid_start: Optional[str] = None
    grid_floor: Optional[str] = None
    output: str = "text"  # text | json
    orbit_csv: Optional[str] = None
    taylor: Optional[str] = None
    a: Optional[str] = None
    majorant: Optional[str] = None
    thin: int = 1

    def validate(self) -> None:
        if self.precision < MIN_PRECISION:
            raise ValueError(f"precision must be at least {MIN_PRECISION}")
        if self.max_n < 1:
            raise ValueError("max-n must be at least 1")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.mode not in ("auto", "positive", "signed"):
            raise ValueError("mode must be auto, positive, or signed")
        if self.function_text is None and self.taylor is None:
            raise ValueError("give a function with --f or coefficients with --taylor")
        if self.function_text is not None and self.taylor is not None:
            raise ValueError("--f and --taylor are mutually exclusive")
        for name, text in (("x0", self.x0), ("floor", self.floor)):
            try:
                value = mpmath.mpf(text)
            except ValueError:
                raise ValueError(f"{name} must be a number, got {text!r}") from None
            if not mpmath.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {text!r}")
        # checked before iterate opens its --orbit-csv file
        if mpmath.mpf(self.x0) == 0:
            raise ValueError("x0 must be nonzero")
        if not mpmath.mpf(self.floor) > 0:
            raise ValueError("floor must be positive")


def _num(value, precision: int) -> str:
    return mpmath.nstr(value, precision)


def _table(cfg: RunConfig, f: FunctionDef) -> Samples:
    """f's sample table at the configured precision, seed and probe grid. A
    probe grid the flags give is generated here, so that a bad one is an
    error even where no stage reads it (an analysis that f's germ decides)."""
    probe = GridSpec(cfg.grid_start or PROBE_GRID.start, cfg.grid_floor or PROBE_GRID.floor)
    table = Samples(f, cfg.precision, cfg.x0, probe)
    if probe != PROBE_GRID:
        table.points(probe)
    return table


def _expr_diagnostic(err: ExprError) -> str:
    """The message, then the text that failed to parse with a caret under
    the offending character."""
    lines = [f"error: {err}"]
    if err.text:
        lines.append("  " + err.text)
        lines.append("  " + " " * err.offset + "^")
    return "\n".join(lines)


def _parse_target(cfg: RunConfig):
    """Return (f, display label). --taylor coefficients are read at the
    working precision, on one context, and become the polynomial f, which
    carries them as its germ at 0."""
    if cfg.taylor is not None:
        ctx = context(cfg.precision)
        coeffs = [parse_constant(part.strip(), ctx) for part in cfg.taylor.split(",")]
        return taylor_polynomial(coeffs, ctx), f"taylor:{cfg.taylor}"
    return parse(cfg.function_text), cfg.function_text


def parse_majorant_spec(text: str, ctx) -> MajorantSpec:
    """Parse "linear:<c>", "powerlaw:a=<a>,c=<c>", or "fn:<expression>"."""
    if text.startswith("linear:"):
        return MajorantSpec.linear(text[len("linear:"):], ctx)
    if text.startswith("powerlaw:"):
        params = {}
        for part in text[len("powerlaw:"):].split(","):
            key, _, value = part.partition("=")
            params[key.strip()] = value.strip()
        if set(params) != {"a", "c"}:
            raise ValueError("powerlaw majorant needs exactly a=<a>,c=<c>")
        return MajorantSpec.powerlaw(params["a"], params["c"], ctx)
    if text.startswith("fn:"):
        return MajorantSpec.user(parse(text[len("fn:"):]))
    raise ValueError(
        "majorant must be linear:<c>, powerlaw:a=<a>,c=<c>, or fn:<expression>"
    )


def _witnesses_json(verdict, precision: int) -> dict:
    # schema order: c, a, k, majorant, minorant, delta; other witness
    # payloads are internal and stay out of the machine report
    out = {}
    w = verdict.witnesses
    for key in ("c", "a", "k"):
        if key in w:
            out[key] = _num(w[key], precision)
    for key in ("majorant", "minorant"):
        if key in w:
            out[key] = w[key]
    if "delta" in w and w["delta"] is not None:
        out["delta"] = _num(w["delta"], precision)
    return out


def _report_json(report, cfg: RunConfig, label: str) -> str:
    p = cfg.precision
    doc = {
        "function": label,
        "x0": cfg.x0,
        "mode": report.mode.value,
        "verdict": report.verdict.conclusion,
        "rule": report.verdict.rule if report.verdict.rule is not None else "none",
        "witnesses": _witnesses_json(report.verdict, p),
    }
    der = {"kind": report.derivative.kind}
    if report.derivative.c is not None:
        der["c"] = _num(report.derivative.c, p)
    if report.derivative.band is not None:
        der["band"] = [_num(v, p) for v in report.derivative.band]
    doc["derivative"] = der
    if report.fit is not None and not report.fit.rejected:
        doc["fit"] = {
            "a": _num(report.fit.a, p),
            "k": _num(report.fit.k, p),
            "residual": _num(report.fit.residual, p),
        }
    orbit = report.orbit_result
    doc["orbit"] = {
        "n": orbit.last_index,
        "x_n": _num(orbit.x_n, p),
        "partial_sum": _num(orbit.s_n, p),
        "status": orbit.status.kind,
    }
    doc["warnings"] = list(report.warnings)
    return json.dumps(doc, indent=2)


def _report_text(report, cfg: RunConfig, label: str) -> str:
    p = cfg.precision
    verdict = report.verdict
    lines = [
        f"function: {label}",
        f"x0 = {cfg.x0}  mode = {report.mode.value}  precision = {p}",
        f"verdict: {verdict.conclusion}"
        + (f" ({verdict.rule})" if verdict.rule else ""),
    ]
    # same witness subset as the JSON schema; anything else a rule reports
    # lives in the notes
    for key, value in _witnesses_json(verdict, p).items():
        lines.append(f"  {key} = {value}")
    der = report.derivative
    if der.kind == "dne":
        band = f"[{_num(der.band[0], p)}, {_num(der.band[1], p)}]"
        lines.append(f"derivative at zero: no stable value; band {band}" if der.samples else
                     f"derivative at zero: not read; f(x)/x lies in the exact band {band} near 0")
    else:
        lines.append(f"derivative at zero: {der.kind} c = {_num(der.c, p)}")
    if report.fit is not None and not report.fit.rejected:
        fit = report.fit
        lines.append(
            f"empirical fit: a = {_num(fit.a, p)}  k = {_num(fit.k, p)}"
            f"  residual = {_num(fit.residual, p)}"
        )
    orbit = report.orbit_result
    lines.append(
        f"orbit: n = {orbit.last_index}  x_n = {_num(orbit.x_n, p)}"
        f"  S_n = {_num(orbit.s_n, p)}  status = {orbit.status.describe()}"
    )
    if report.sum is not None:
        lines.append(
            f"sum estimate: {_num(report.sum.total, p)} ({report.sum.method})"
        )
    if verdict.notes:
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in verdict.notes)
    if report.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in report.warnings)
    return "\n".join(lines)


def _command(body):
    """Turn body(cfg, f, label, out) into a (RunConfig, out) -> exit code
    subcommand: the configuration is validated and f read once here, and
    every error leaves by the one exit-1 path below.

    Each body works on the context of the table it builds (see _table). It
    writes to out after its last call that can raise, except for the rows
    iterate streams as it computes them, so an error is all that a failed
    run writes. When out itself fails, so does writing the message to it,
    here or at main's flush: that error reaches main, which reports it on
    stderr.
    """

    @functools.wraps(body)
    def run(cfg: RunConfig, out: TextIO) -> int:
        try:
            cfg.validate()
            f, label = _parse_target(cfg)
            return body(cfg, f, label, out)
        except ExprError as err:
            out.write(_expr_diagnostic(err) + "\n")
        except (ValueError, PrecisionGuardError, EvalDomainError, OSError) as err:
            out.write(f"error: {err}\n")
        except RecursionError:  # reading, expanding or compiling a deep f
            out.write("error: f is nested too deeply\n")
        return 1

    return run


@_command
def cmd_analyze(cfg: RunConfig, f: FunctionDef, label, out: TextIO) -> int:
    if cfg.thin != 1 and not cfg.orbit_csv:
        raise ValueError("--thin selects rows of --orbit-csv; give --orbit-csv")
    report = analyze(_table(cfg, f), cfg.mode, cfg.max_n, cfg.floor)
    if cfg.orbit_csv:
        with open(cfg.orbit_csv, "w") as csv:
            write_csv(report.orbit_result, csv, thin=cfg.thin)
    render = _report_json if cfg.output == "json" else _report_text
    out.write(render(report, cfg, label) + "\n")
    return 2 if report.verdict.conclusion == INCONCLUSIVE else 0


@_command
def cmd_iterate(cfg: RunConfig, f: FunctionDef, label, out: TextIO) -> int:
    p = cfg.precision
    table = _table(cfg, f)
    mode = detect_mode(table) if cfg.mode == "auto" else Mode(cfg.mode)
    _require_positive_seed(table, mode)
    # each row goes to the CSV as the orbit computes it, so the orbit holds
    # only its last row; without --orbit-csv the CSV is the output itself
    with open(cfg.orbit_csv, "w") if cfg.orbit_csv else contextlib.nullcontext(out) as csv:
        rows = CsvRows(csv, p)
        orbit = iterate(table, cfg.x0, cfg.max_n, cfg.floor, mode, cfg.thin, rows)
    if cfg.orbit_csv:
        out.write(f"wrote {rows.count} rows to {cfg.orbit_csv}\n")
    out.write(
        f"n = {orbit.last_index}  x_n = {_num(orbit.x_n, p)}"
        f"  S_n = {_num(orbit.s_n, p)}"
        f"  status = {orbit.status.describe()}\n"
    )
    return 0


@_command
def cmd_limit(cfg: RunConfig, f: FunctionDef, label, out: TextIO) -> int:
    if cfg.a is None:
        raise ValueError('give an exponent with --a <value> or --a search')
    p = cfg.precision
    table = _table(cfg, f)
    if cfg.a == "search":
        result = search_exponent(table)
        if not result.found:
            out.write(f"search: NotFound - {result.note}\n")
            return 2
        fit, probe, code = result.fit, result.probe, 0
        head = (f"search: a = {_num(fit.a, p)}  k = {_num(fit.k, p)}"
                f"  residual = {_num(fit.residual, p)}")
    else:
        a = parse_constant(cfg.a, table.ctx)
        # the samples L grow like x^-a: printing them at a = 1e2000 takes minutes
        if a._mpf_[2] + a._mpf_[3] > EXPONENT_CAP:
            raise ValueError(f"--a reaches the magnitude cap 2^{EXPONENT_CAP}")
        probe = probe_limit(table, a)
        code = 0 if probe.verdict == FINITE_NONZERO else 2
        head = f"probe: a = {_num(probe.a, p)}  verdict = {probe.verdict}"
        if not code:
            k = table.ctx.power(probe.L, -1 / probe.a)
            head += f"  L = {_num(probe.L, p)}  k = {_num(k, p)}"
    rows = "".join(f"{_num(x, p)},{_num(v, p)}\n" for x, v in probe.samples)
    out.write(f"{head}\nx,L\n{rows}")
    return code


@_command
def cmd_compare(cfg: RunConfig, f: FunctionDef, label, out: TextIO) -> int:
    if cfg.majorant is None:
        raise ValueError("give a majorant with --majorant")
    p = cfg.precision
    g_table = _table(cfg, f)
    _require_positive_seed(g_table, Mode.POSITIVE)  # both orbits run in positive mode
    spec = parse_majorant_spec(cfg.majorant, g_table.ctx)
    # m's analysis, when it has one, and its printed orbit read one table
    m_table = _table(cfg, spec.fn)
    lines = [f"function: {label}", f"majorant: {spec.label}"]
    sub = None
    if spec.family == "user":
        # the majorant's own analysis is part of the report, not an error
        try:
            sub = analyze(m_table, cfg.mode, cfg.max_n, cfg.floor)
        except AnalysisError as err:
            lines.append(f"majorant series: analysis failed ({err}); cannot certify")
        else:
            if sub.verdict.conclusion == "convergent":
                lines.append(f"majorant series: convergent ({sub.verdict.rule})")
            else:
                lines.append(
                    f"majorant series: {sub.verdict.conclusion}; cannot certify"
                )
    verdict = majorant_rule(g_table, spec, certificate=sub)
    scan = verdict.witnesses
    lines.append(
        f"monotone on grid: {'yes' if scan['monotone'] else 'no'}"
        f"  delta = {_num(scan['delta'], p)}"
        if spec.family == "user" else "monotone: by construction (built-in family)"
    )
    lines.append(
        f"verdict: {verdict.conclusion}" + (f" ({verdict.rule})" if verdict.rule else "")
    )
    lines.extend(f"  - {note}" for note in verdict.notes)
    steps = min(cfg.max_n, CROSS_CHECK_N)
    g_orbit = iterate(g_table, cfg.x0, steps, cfg.floor, Mode.POSITIVE)
    # a positive-mode analysis of m iterated the same orbit already
    m_orbit = (sub.orbit_result if sub is not None and sub.mode is Mode.POSITIVE
               else iterate(m_table, cfg.x0, steps, cfg.floor, Mode.POSITIVE))
    common = min(g_orbit.last_index, m_orbit.last_index)
    # raw comparisons, as mpf >= makes them, over x_0 .. x_common of both
    dominated = all(map(mpf_ge, m_orbit.terms, g_orbit.terms))
    lines.append("n,g_n,m_n")
    stride = max(1, common // COMPARE_TABLE_ROWS)
    shown = list(range(0, common + 1, stride))
    if shown[-1] != common:
        shown.append(common)
    make_mpf = g_table.ctx.make_mpf
    for n in shown:
        g_n, m_n = make_mpf(g_orbit.terms[n]), make_mpf(m_orbit.terms[n])
        lines.append(f"{n},{_num(g_n, p)},{_num(m_n, p)}")
    lines.append(
        f"orbit domination m_n >= g_n for all n <= {common}:"
        f" {'yes' if dominated else 'no'}"
    )
    out.write("\n".join(lines) + "\n")
    return 0 if verdict.conclusion == "convergent" else 2


class _Parser(argparse.ArgumentParser):
    """Bad arguments exit 1 with a one-line message, like every other error."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


# every option once; each subcommand accepts only the options it reads
_OPTIONS = {
    "--f": dict(dest="function_text", help="defining expression f(x)"),
    "--taylor": dict(help="comma-separated Taylor coefficients a1,a2,..."),
    "--precision": dict(type=int, help="working digits (min 16)"),
    "--x0": dict(help="seed value (decimal string)"),
    "--max-n": dict(type=int, dest="max_n"),
    "--floor": dict(help="stop when |x_n| < floor"),
    "--mode": dict(choices=["auto", "positive", "signed"]),
    "--orbit-csv": dict(dest="orbit_csv", help="write the orbit as CSV"),
    "--thin": dict(type=int, help="keep every k-th CSV row"),
    "--grid-start": dict(dest="grid_start", help="probe grid start"),
    "--grid-floor": dict(dest="grid_floor", help="probe grid floor"),
    "--json": dict(dest="output", action="store_const", const="json",
                   help="emit the JSON report"),
    "--a": dict(help='exponent (decimal) or "search"'),
    "--majorant": dict(help="linear:<c> | powerlaw:a=<a>,c=<c> | fn:<expression>"),
}

_TARGET = ("--f", "--taylor", "--precision")
_ORBIT = ("--x0", "--max-n", "--floor")
_GRID = ("--grid-start", "--grid-floor")
_ITERATE = _TARGET + _ORBIT + ("--mode", "--orbit-csv", "--thin")

_SUBCOMMANDS = {
    "analyze": (cmd_analyze, "run the full convergence pipeline",
                _ITERATE + _GRID + ("--json",)),
    "iterate": (cmd_iterate, "iterate the orbit and emit CSV", _ITERATE),
    "limit": (cmd_limit, "probe the quotient limit at an exponent",
              _TARGET + _GRID + ("--a",)),
    "compare": (cmd_compare, "check domination by a majorant",
                _TARGET + _ORBIT + ("--majorant",)),
}


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command's alone, which parses,
    helps and errs on an argv that starts with command as the full one does."""
    parser = _Parser(
        prog="recurseries",
        description="Convergence analyzer for series with recursively"
        " defined terms x_{n+1} = f(x_n)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        # an absent option stays out of the namespace: RunConfig holds the defaults
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for option in options:
            sp.add_argument(option, **_OPTIONS[option])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig)
                        if f.name in given})


def main(argv: Optional[List[str]] = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
    code = 1  # unless the command is done before a reader goes away
    try:
        code = _SUBCOMMANDS[args.command][0](config_from_args(args), sys.stdout)
        sys.stdout.flush()
    except OSError as err:
        # stdout failed. A reader that went away (e.g. head) ends the run
        # quietly; any other failure, such as a full device, with one line
        # on stderr. Either way the flush at interpreter shutdown must not
        # fail again.
        if not isinstance(err, BrokenPipeError):
            sys.stderr.write(f"error: writing the output failed: {err}\n")
            code = 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
