"""Squared Bessel processes: backward Gamma functions and Laplace transforms.

For dX = 2 sqrt(X) dB + delta(t) dt and a weight mu >= 0 on [t, T], the
log-Laplace functional

    log E_t exp(-lambda * int_t^T X_r mu(r) dr)
        = (1/2) X_t psi(t) + (1/2) int_t^T delta(r) psi(r) dr

is driven by psi = sum_{even n} (-lambda)^{n/2} Gamma_n, where

    Gamma_2(s) = 2 int_s^T mu(r) dr,
    -Gamma_n'  = sum_{j+k=n, even} Gamma_j Gamma_k,   Gamma_n(T) = 0,

and psi solves the backward Riccati ODE -psi' = -2 lambda mu + psi^2,
psi(T) = 0.  Two weight regimes are supported:

* callable mu: on tau = T - s, X_t + int delta is an affine forward variance
  that moves by 2 sqrt(X) dB, the flat kernel kappa = 2, so Gamma_{2m} is the
  child loading w of the m-th ``AffineState`` of ``cumulant_states`` seeded
  with h = mu(T - tau); its product integration is the trapezoid rule;
* the Dirac weight at T (Laplace transform of X_T itself): here every
  Gamma_n is an exact polynomial in (T-s) — Gamma_{2k+2} = 2^{k+1} (T-s)^k —
  and the series evaluator works with exact coefficients, no quadrature.

At the convergence boundary (2 lambda (T-t) = 1, e.g. lambda = 1/2, T = 1)
the partial sums of the Dirac series oscillate without damping; the order
sequence is therefore Abel-summed by iterated pairwise averaging, which
reproduces the limit of convergent series and converges geometrically at the
boundary.  The constant-dimension closed form is

    E exp(-lambda X_T) = (1 + 2 lambda T)^{-delta/2} exp(-lambda x / (1 + 2 lambda T)).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Sequence, Union

from ..errors import DomainError, require_finite

if TYPE_CHECKING:  # the closed form and the Dirac series run on math alone
    import numpy as np

__all__ = [
    "BesselGamma",
    "bessel_gamma",
    "bessel_laplace",
    "bessel_laplace_series",
    "psi_series",
    "euler_average",
]

MuSpec = Union[Callable[["np.ndarray"], "np.ndarray"], str]


class BesselGamma(NamedTuple):
    """Backward Gamma functions on a time grid.

    ``grid``: increasing times from t to T; ``gammas``: map even order n to
    the sampled Gamma_n; ``dirac``: whether the weight was the unit Dirac mass
    at T (in which case Gamma_2(T) = 2, the exact limit of mollified weights,
    while every other order still vanishes at T).
    """

    grid: np.ndarray
    gammas: Dict[int, np.ndarray]
    dirac: bool


def bessel_gamma(
    n_max: int, mu: MuSpec, t: float, T: float, grid: int = 8192
) -> BesselGamma:
    """Compute Gamma_2, Gamma_4, ..., Gamma_{n_max} on a uniform grid.

    Args:
        n_max: highest (even) order.
        mu: nonnegative weight as a callable of a time array, or the string
            ``"dirac"`` for the unit mass at T.
        t, T: time window, t < T.
        grid: number of grid points (>= 2).

    Returns:
        BesselGamma state; odd orders are identically zero and not stored.
    """
    if n_max < 2 or n_max % 2:
        raise ValueError("n_max must be an even integer >= 2")
    require_finite(t=t, T=T)
    if not T > t:
        raise DomainError(f"need t < T, got t={t}, T={T}")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    import numpy as np

    s = np.linspace(t, T, grid)
    if isinstance(mu, str):
        if mu != "dirac":
            raise ValueError(f"unknown weight spec {mu!r}")
        # exact polynomials: Gamma_{2k+2}(s) = 2^{k+1} (T-s)^k
        gammas = {2 * k + 2: (2.0 ** (k + 1)) * (T - s) ** k for k in range(n_max // 2)}
        return BesselGamma(grid=s, gammas=gammas, dirac=True)

    mu_vals = np.asarray(mu(s), dtype=float)
    if mu_vals.shape != s.shape:
        raise ValueError("mu(s) must return an array matching the grid")
    if not np.all(np.isfinite(mu_vals)):
        raise ValueError("mu must be finite on the grid")
    if np.any(mu_vals < 0):
        raise DomainError("weight mu must be nonnegative")
    from ..affine import AffineState, KernelSpec, _TauGrid
    from ..recursion import cumulant_states

    tau_grid = _TauGrid(KernelSpec.flat(2.0), np.linspace(0.0, T - t, grid))
    states = cumulant_states({1: AffineState(tau_grid, 0.0, 0.0, mu_vals[::-1], None)}, n_max // 2)
    gammas = {2 * m: state.w[::-1] for m, state in states.items()}
    return BesselGamma(grid=s, gammas=gammas, dirac=False)


def psi_series(state: BesselGamma, lam: float) -> np.ndarray:
    """Partial sum psi = sum (-lambda)^{n/2} Gamma_n over the stored orders."""
    import numpy as np

    require_finite(lam=lam)

    out = np.zeros_like(state.grid)
    for n, g in state.gammas.items():
        out += (-lam) ** (n // 2) * g
    return out


def euler_average(partial_sums: Sequence[float]) -> float:
    """Iterated pairwise averaging of a sequence of partial sums.

    Repeatedly replaces s by (s[:-1] + s[1:]) / 2 down to one element.  For a
    convergent sequence this returns (a refined estimate of) its limit; for
    boundary-oscillating alternating series it returns the Abel sum, with
    geometric error decay in the number of terms.
    """
    s = [float(v) for v in partial_sums]
    if not s:
        raise ValueError("no partial sums to average")
    while len(s) > 1:
        s = [0.5 * (u + v) for u, v in zip(s, s[1:])]
    return s[0]


def _check_laplace_inputs(x: float, delta: float, lam: float, T: float) -> None:
    """The refusals that ``bessel_laplace`` and ``bessel_laplace_series`` share."""
    require_finite(x=x, delta=delta, lam=lam, T=T)
    if lam < 0:
        raise DomainError("lambda must be >= 0 (Laplace side only)")
    if x < 0 or delta < 0 or T <= 0:
        raise DomainError("need x >= 0, delta >= 0, T > 0")


def bessel_laplace(x: float, delta: float, lam: float, T: float) -> float:
    """Closed form E exp(-lambda X_T) for constant dimension delta, X_t = x.

    Equals (1 + 2 lambda T)^{-delta/2} * exp(-lambda x / (1 + 2 lambda T)).
    """
    _check_laplace_inputs(x, delta, lam, T)
    z = 1.0 + 2.0 * lam * T
    return z ** (-delta / 2.0) * math.exp(-lam * x / z)


def bessel_laplace_series(
    x: float, delta: float, lam: float, T: float, n_max: int = 80
) -> float:
    """Series evaluation of E exp(-lambda X_T) via the exact Dirac Gammas.

    Uses Gamma_{2k+2}(s) = 2^{k+1} (T-s)^k exactly: the psi value at t=0 and
    the integral int_0^T psi both have closed per-order terms, whose partial
    sums are combined and Abel-summed by :func:`euler_average`.  Converges for
    2 lambda T <= 1 (boundary included); beyond that the underlying series
    diverges and a DomainError is raised.
    """
    _check_laplace_inputs(x, delta, lam, T)
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if lam == 0:
        return 1.0
    if 2.0 * lam * T > 1.0 + 1e-12:
        raise DomainError(
            f"series domain requires 2*lambda*T <= 1, got {2 * lam * T:.6g}"
        )
    orders = n_max // 2
    # log E = (x/2) psi(0) + (delta/2) int_0^T psi(r) dr, per-order terms:
    #   psi(0):   (-lam)^{k+1} 2^{k+1} T^k
    #   integral: (-lam)^{k+1} 2^{k+1} T^{k+1} / (k+1)
    terms = (
        0.5 * x * ((-lam) ** (k + 1) * 2.0 ** (k + 1) * T**k)
        + 0.5 * delta * ((-lam) ** (k + 1) * 2.0 ** (k + 1) * T ** (k + 1) / (k + 1))
        for k in range(orders)
    )
    return math.exp(euler_average(list(accumulate(terms))))
