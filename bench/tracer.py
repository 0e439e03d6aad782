"""Outside-in layer trace of recurseries for the benchmark.

The program has no trace of its own, so this module wraps the public
functions of its modules from outside and records a span around each call:
name, start, end, parent span and the request (``cli.main`` call) it belongs
to. Spans stay in memory and are written out once, at the end.

Two details decide whether the numbers are right:

* ``from .orbit import iterate`` binds the same function object into
  ``classify`` and ``cli``. Every original is therefore collected before any
  module is patched, and each module name that holds an original is replaced
  by its wrapper, not just the one in the defining module.
* f is called tens of thousands of times per pass. The callables that
  ``evaluator`` returns only append their argument to a list, from which
  the evaluation count and the share of distinct arguments are taken after
  the request; a span per f call would double the traced time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from typing import Dict, List

PACKAGE = "recurseries"
LAYER_MODULES = ("expr", "grids", "orbit", "classify", "estimate", "cli")

# counters taken from a wrapped function's result
_RESULT_COUNTERS = {
    "grids.points": ("generated", len),
    "orbit.iterate": ("steps", lambda orbit: orbit.last_index),
    "orbit.write_csv": ("rows", int),
    "classify.majorant_rule": ("accepted", lambda v: v.conclusion == "convergent"),
}


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (id, parent id, request, name, start, end)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: List[list] = []  # [span id, seconds spent in child spans]
        self._f_args: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = _RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [len(self.spans) + len(stack), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                self.spans.append((frame[0], parent and parent[0], self.request,
                                   name, start, end))
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _counting_evaluator(self, compile_fn):
        f_args = self._f_args

        def evaluator(f, ctx):
            fn = compile_fn(f, ctx)
            tag = getattr(f, "source_text", None) or id(f)

            def counted(x):
                f_args.append((tag, x))
                return fn(x)

            return counted

        return evaluator

    def begin_request(self) -> None:
        self.request += 1

    def end_request(self) -> None:
        """Fold the request's f arguments into the evaluation counters."""
        self.counts["expr.f_evals"] += len(self._f_args)
        self.counts["expr.f_evals_distinct"] += len(set(self._f_args))
        self._f_args.clear()

    def take(self) -> Dict[str, float]:
        """Return the per-layer totals gathered since the last take and reset them."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_ms"] = self.self_s[name] * 1000
            out[f"{name}.total_ms"] = self.total_s[name] * 1000
        out.update(self.counts)
        for c in (self.calls, self.self_s, self.total_s, self.counts):
            c.clear()
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for span_id, parent, request, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start": start, "end": end,
                }) + "\n")

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules, plus GridSpec.points."""
        originals = {}  # id(original) -> (original, wrapper)
        for short in LAYER_MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{short}")
            except ModuleNotFoundError:
                continue
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not callable(value)
                        or isinstance(value, type)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, value)
                if name == "expr.evaluator":
                    wrapper = self._counting_evaluator(wrapper)
                originals[id(value)] = (value, wrapper)
            if short == "grids" and hasattr(module, "GridSpec"):
                spec = module.GridSpec
                spec.points = self._wrap("grids.points", spec.points)
        # patch only after every original is known: a name bound by
        # `from .x import f` elsewhere must get the same wrapper
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
