"""Planar Brownian area: the closed J-family under the diamond product.

For two independent Brownian motions (X, Y), the area functional
``A = integral(X dY - Y dX)`` generates a remarkably small closed family:
with

    J^k_t(T) = (T-t)^k / k + (X_t^2 + Y_t^2) (T-t)^{k-1} / 2,   k >= 2,

one has ``A <> A = 2 J^2``, ``A <> J^k = 0`` and the product rule
``J^j <> J^k = (2/(j+k-1)) J^{j+k}``.  Running the cumulant recursion in this
family gives K[n] = alpha_n * J^n with exact rational alpha_n satisfying

    alpha_2 = 1,   alpha_n = (alpha_2 alpha_{n-2} + ... ) / (n-1),

odd orders vanishing; the generating function sum alpha_n T^{n-1} is the
Taylor series of tan(T), and the CGF at the origin sums to -log cos T on
|T| < pi/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import pi
from typing import Dict, Mapping

from ..errors import DomainError, require_finite
from ..recursion import cumulant_states

__all__ = [
    "LevyState",
    "levy_alpha",
    "levy_cgf",
    "levy_cumulant_states",
    "levy_state_value",
]


@dataclass(frozen=True)
class LevyState:
    """Exact element of span{A, J^2, J^3, ...}, closed under the diamond.

    ``area``: coefficient of the area functional itself (the order-1 leaf);
    ``coeffs``: map k -> coefficient of J^k (k >= 2).
    """

    area: Fraction = Fraction(0)
    coeffs: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self,
            "coeffs",
            {k: Fraction(c) for k, c in self.coeffs.items() if c != 0},
        )

    def __eq__(self, other):
        return (
            isinstance(other, LevyState)
            and self.area == other.area
            and dict(self.coeffs) == dict(other.coeffs)
        )

    def is_zero(self) -> bool:
        return self.area == 0 and not self.coeffs

    def __add__(self, other: "LevyState") -> "LevyState":
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + c
        return LevyState(area=self.area + other.area, coeffs=coeffs)

    def scale(self, q) -> "LevyState":
        q = Fraction(q)
        return LevyState(
            area=self.area * q, coeffs={k: c * q for k, c in self.coeffs.items()}
        )

    def diamond(self, other: "LevyState") -> "LevyState":
        # A <> A = 2 J^2;  A <> J^k = 0;  J^j <> J^k = 2/(j+k-1) J^{j+k}
        coeffs: Dict[int, Fraction] = {}
        aa = self.area * other.area
        if aa:
            coeffs[2] = 2 * aa
        for j, cj in self.coeffs.items():
            for k, ck in other.coeffs.items():
                c = cj * ck * Fraction(2, j + k - 1)
                coeffs[j + k] = coeffs.get(j + k, Fraction(0)) + c
        return LevyState(coeffs=coeffs)


def levy_cumulant_states(n_max: int) -> Dict[int, LevyState]:
    """States K[1..n_max] of the cumulant recursion started from the area leaf."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return cumulant_states({1: LevyState(area=Fraction(1))}, n_max)


def levy_alpha(n_max: int) -> Dict[int, Fraction]:
    """Exact coefficients alpha_n with K[n] = alpha_n J^n, for 2 <= n <= n_max.

    Odd entries are zero; alpha_2, alpha_4, alpha_6 = 1, 1/3, 2/15, matching
    the tangent Taylor coefficients (alpha_n is the coefficient of T^{n-1}).
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    states = levy_cumulant_states(n_max)
    out: Dict[int, Fraction] = {}
    for n in range(2, n_max + 1):
        st = states[n]
        assert st.area == 0
        extra = {k for k in st.coeffs if k != n}
        assert not extra, f"state K[{n}] left the alpha_n J^n line: {extra}"
        out[n] = st.coeffs.get(n, Fraction(0))
    return out


def levy_state_value(
    s: LevyState, t: float, T: float, x: float = 0.0, y: float = 0.0, area: float = 0.0
) -> float:
    """Numeric value of a state given time-t data (positions x, y, area)."""
    require_finite(t=t, T=T, x=x, y=y, area=area)
    if T < t:
        raise DomainError(f"need T >= t, got t={t}, T={T}")
    dt = T - t
    r2 = 0.5 * (x * x + y * y)
    total = float(s.area) * area
    for k, c in s.coeffs.items():
        total += float(c) * (dt**k / k + r2 * dt ** (k - 1))
    return total


def levy_cgf(T: float, n_max: int) -> float:
    """Partial sum of the area CGF at the origin: sum alpha_n T^n / n.

    Converges to -log cos T on |T| < pi/2; outside that domain the series is
    meaningless and a DomainError is raised.
    """
    require_finite(T=T)
    if abs(T) >= pi / 2:
        raise DomainError(
            f"|T| = {abs(T)} is outside the convergence domain |T| < pi/2"
        )
    alphas = levy_alpha(max(n_max, 2))
    return sum(float(c) * T**n / n for n, c in alphas.items() if n <= n_max)
