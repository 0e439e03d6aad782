"""Machine-speed reference for the benchmark's timings.

The box the benchmark was written on (2 shared vCPUs) changes speed by up
to 1.6x from one second to the next and stays slow for tens of seconds at a
time. Raw times of a whole run, best-of-k included, then move by up to a
third from run to run. So each call is timed against a small fixed kernel
of the arithmetic the program does: the kernel runs BRACKET_RUNS times
before and after the call and, from a SIGALRM timer, every SAMPLE_S seconds
during it. The call's time, less the time the timer's kernel runs took,
divided by the median kernel time around it and multiplied by REF_MS, is
its time in milliseconds at the speed where the kernel takes REF_MS.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import mpmath

_CTX = mpmath.mp.clone()
_CTX.dps = 74
# powers, logs, sin and division of mpf values at 74 digits, on 8 points
# of a quarter-decade grid
_POINTS = [_CTX.mpf(10) ** (-_CTX.mpf(j) / 4) for j in range(0, 40, 5)]
_A = _CTX.mpf("0.7")

# the kernel's time on that box at the faster of its two speeds
REF_MS = 0.45
BRACKET_RUNS = 5
SAMPLE_S = 0.025


def kernel() -> float:
    """Seconds one run of the reference kernel takes now."""
    ctx, a = _CTX, _A
    start = time.perf_counter()
    for x in _POINTS:
        y = ctx.sin(x) / (1 + x)
        ctx.power(y, a) - ctx.power(x, a)
        ctx.ln(y)
    return time.perf_counter() - start


def bracket() -> List[float]:
    return [kernel() for _ in range(BRACKET_RUNS)]


class Sampler:
    """Runs the kernel every SAMPLE_S seconds of wall time while entered.

    ``busy`` is the time the runs took, to be taken off the measured call.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.busy = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel())
        self.busy += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scaled_ms(seconds: float, samples: List[float]) -> float:
    """`seconds` of work in milliseconds at the reference speed."""
    return seconds / statistics.median(samples) * REF_MS
