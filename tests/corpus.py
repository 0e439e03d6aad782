"""Shared function corpus with expected classifications.

Each entry freezes the pipeline outcome for one defining function. The
orbit cap keeps corpus-wide runs fast; verdicts do not depend on it.
"""

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    function: Optional[str]  # expression text, or None for a Taylor entry
    taylor: Optional[str]  # comma-separated coefficients
    x0: str
    mode: str  # expected detected mode
    verdict: str
    rule: Optional[str]  # None for inconclusive
    max_n: int = 2000

    def cli_args(self, *extra: str):
        # --f=EXPR form keeps leading-minus expressions out of flag parsing
        base = ["analyze"]
        if self.taylor is not None:
            base.append(f"--taylor={self.taylor}")
        else:
            base.append(f"--f={self.function}")
        base += [f"--x0={self.x0}", f"--max-n={self.max_n}"]
        return base + list(extra)


DECISIVE = [
    CorpusEntry("geometric", "x/2", None, "1", "positive",
                "convergent", "DerivativeRule"),
    CorpusEntry("harmonic", "x/(1+x)", None, "1", "positive",
                "divergent", "LimitExponentRule"),
    CorpusEntry("sine", "sin(x)", None, "1", "positive",
                "divergent", "LimitExponentRule"),
    CorpusEntry("oscillatory", "x*(1/2 + 1/3*sin(1/x))", None, "0.3",
                "positive", "convergent", "MajorantRule"),
    CorpusEntry("half_exponent", "x/(1+x^(1/2))^2", None, "1", "positive",
                "convergent", "LimitExponentRule"),
    CorpusEntry("damped_harmonic", "0.9*(x/(1+x))", None, "1", "positive",
                "convergent", "DerivativeRule"),
    CorpusEntry("alternating", "-x/2", None, "1", "signed",
                "convergent", "AlternatingRule"),
    CorpusEntry("signed_oscillatory", "x*sin(1/x)*(1/2)", None, "0.3",
                "signed", "convergent", "AbsoluteBoundRule"),
    CorpusEntry("logistic_edge", "x - x^2", None, "0.5", "positive",
                "divergent", "LimitExponentRule"),
    CorpusEntry("taylor_sine", None, "1,0,-1/6", "0.5", "positive",
                "divergent", "LimitExponentRule"),
    # f <= 0.99*x: convergent, though no linear ratio p/q (q <= 24) lies near
    CorpusEntry("wide_band", "x*(0.55 + 0.44*sin(1/x))", None, "0.3",
                "positive", "convergent", "MajorantRule"),
    # f >= x - x^(5/2): a decay exponent 3/2 that the slopes cannot read
    CorpusEntry("abs_sine_minorant", "x - x^(5/2)*(1+abs(sin(1/x)))/2", None, "0.3",
                "positive", "divergent", "MinorantRule"),
    # f <= x - x^(3/2)/2: a decay exponent 1/2 that the slopes cannot read
    CorpusEntry("abs_sine_majorant", "x - x^(3/2)*(1+abs(sin(1/x)))/2", None, "0.3",
                "positive", "convergent", "MajorantRule"),
    # f(x) rounds to x below about 1e-19 at 64 digits; the germ reads a = 4
    CorpusEntry("precision_limited", "x-x^5", None, "0.5", "positive",
                "divergent", "LimitExponentRule"),
    # f <= x - x^(1.95)/2, a decay exponent 0.95 too close to 1 for the
    # band's trend guard, which the envelopes read exactly
    CorpusEntry("abs_sine_blind", "x - x^(1.95)*(1+abs(sin(1/x)))/2", None, "0.3",
                "positive", "convergent", "MajorantRule"),
    # f >= x - x^2: at exponent 1 no sampled trend tells a bounded L_1 from
    # one growing like x^(b-1) with b just below 1, but the envelopes do
    CorpusEntry("abs_sine_boundary", "x - x^2*abs(sin(1/x))", None, "0.3",
                "positive", "divergent", "MinorantRule"),
    # sin(1/x)*cos(1/x) = sin(2/x)/2 is read as one atom, [-1/2, 1/2], so
    # |f(x)| <= |x|/2 near 0; as a product of ranges it read [-1, 1]
    CorpusEntry("same_argument", "x*sin(1/x)*cos(1/x)", None, "0.3",
                "signed", "convergent", "AbsoluteBoundRule"),
    # no germ (ln x), so the sampled comparison band decides
    CorpusEntry("log_majorant", "x-x^(3/2)*ln(1/x)", None, "0.1",
                "positive", "convergent", "MajorantRule"),
]

INCONCLUSIVE = [
    CorpusEntry("unit_bound", "x*sin(1/x)", None, "0.3", "signed",
                "inconclusive", None),
    # unit_bound applied twice: its envelope is [-1, 1]*x, so no contraction
    # c < 1 holds, though the grid's sup of |f(x)|/|x| is 0.987
    CorpusEntry("unit_bound_twice", "(x*sin(1/x))*sin(1/(x*sin(1/x)))", None, "0.3",
                "signed", "inconclusive", None),
]

ALL = DECISIVE + INCONCLUSIVE
