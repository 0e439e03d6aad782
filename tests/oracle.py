"""Closed-form oracle: maps whose orbits and sums are known exactly.

The parabolic family f(x) = x/(1+(x/lam)^a)^(1/a), for rational a > 0 and
lam > 0, satisfies f(x)^-a = x^-a + lam^-a, so its orbit from x0 is
x_n = lam*(q + n)^(-1/a) with q = (x0/lam)^-a. Hence (DLMF 25.11)

    S_N = x_0 + ... + x_N = lam*(zeta(1/a, q) - zeta(1/a, q + N + 1)),

or lam*(psi(q + N + 1) - psi(q)) at a = 1, and S = lam*zeta(1/a, q) for
a < 1. Its germ is x - x^(1+a)/(a*lam^a) + ..., so the terms decay like
k*n^(-1/a) with k = lam exactly. With a = p/q and lam = mu^q, lam^a = mu^p
is rational and the germ reads the member exactly.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from hypothesis import strategies as st


@dataclass(frozen=True)
class Parabolic:
    a: Fraction
    mu: Fraction  # lam = mu^q for a = p/q in lowest terms, so lam^a = mu^p
    x0: str

    @property
    def lam(self) -> Fraction:
        return self.mu ** self.a.denominator

    @property
    def text(self) -> str:
        return f"x/(1+(x/({self.lam}))^({self.a}))^({1 / self.a})"

    def _q(self):
        return mpmath.power(mpmath.mpf(self.x0) / _mpf(self.lam), -_mpf(self.a))

    def partial_sum(self, n: int, dps: int):
        """S_n = x_0 + ... + x_n, at dps digits."""
        with mpmath.workdps(dps):
            q, s = self._q(), 1 / _mpf(self.a)
            if s == 1:
                return _mpf(self.lam) * (mpmath.digamma(q + n + 1) - mpmath.digamma(q))
            return _mpf(self.lam) * (mpmath.zeta(s, q) - mpmath.zeta(s, q + n + 1))

    def total(self, dps: int):
        """S = lam*zeta(1/a, q), for a < 1, at dps digits."""
        with mpmath.workdps(dps):
            return _mpf(self.lam) * mpmath.zeta(1 / _mpf(self.a), self._q())


def _mpf(r: Fraction):
    return mpmath.mpf(r.numerator) / r.denominator


@st.composite
def parabolic(draw):
    """A member with a = p/q <= 4, q <= 4, mu of numerator and
    denominator up to 3, and x0 in (0, 2] with one decimal."""
    q = draw(st.integers(1, 4))
    a = Fraction(draw(st.integers(1, 4 * q)), q)
    mu = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return Parabolic(a, mu, str(draw(st.integers(1, 20)) / 10))
