"""Second Wiener chaos: kernel calculus on a discretized simplex.

A double stochastic integral A = I_2(f) with kernel f supported on the
simplex {0 <= w < v <= T} closes under the diamond product through the
one-variable contraction

    (f ~o~ g)(r, s) = int_{max(r,s)}^T [ f(r,v) g(s,v) + g(r,v) f(s,v) ] dv

(the new martingale kernel) and the full contraction <f, g> over the simplex
(the deterministic part).  States carry both pieces on a uniform grid with
left-point quadrature, so running the cumulant recursion and reading off
n! * scalar gives the cumulants of A.

The third cumulant equals 3 <f, f ~o~ f>: the factor 3 = 3!/2 comes from the
recursion (two equal cross terms at order 3), as the constant-kernel check
kappa_3 = 1 vs <f, f ~o~ f> = 1/3 pins down; dropping it is a known trap.

Cumulants admit an independent spectral route: symmetrizing f to a kernel
operator G, kappa_n = 2^{n-1} (n-1)! tr(G^n).  Both routes are implemented
and deliberately kept separate (the tests play them against each other).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite
from typing import Callable, List

import numpy as np

from ..errors import DomainError
from ..recursion import cumulant_states

__all__ = [
    "Chaos2State",
    "chaos2_cumulants",
    "eigenvalue_cumulants",
    "spectral_cumulants",
    "constant_kernel",
    "kernel_from_function",
]


@dataclass(frozen=True)
class Chaos2State:
    """Kernel-plus-scalar state on the discretized simplex.

    ``kernel[i, j]`` approximates f(w_i, w_j) at left points w_i = i h,
    h = T / M, and is finite and strictly upper triangular (support w < v):
    the state, the one kernel check (the sampler's ``SimConfig`` runs it),
    refuses any nonzero entry on or below the diagonal, however small, and a
    ``T`` that is not finite and positive, with ``DomainError``.  ``scalar``
    is the accumulated deterministic part at the evaluation time.  ``+``,
    ``scale`` and ``diamond`` of valid states build strictly upper triangular
    kernels by construction, so their results skip the check.
    """

    kernel: np.ndarray
    scalar: float
    T: float

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DomainError("kernel must be a square matrix")
        if k.shape[0] < 1:
            raise DomainError("kernel needs at least one grid point (M >= 1)")
        if not np.all(np.isfinite(k)):
            raise DomainError("kernel must be finite")
        if np.any(np.tril(k) != 0.0):
            raise DomainError("kernel must be strictly upper triangular (w < v)")
        if not (isfinite(self.T) and self.T > 0):
            raise DomainError(f"T must be finite and positive, got {self.T}")
        object.__setattr__(self, "kernel", np.triu(k, 1))

    @classmethod
    def _built(cls, kernel: np.ndarray, scalar: float, T: float) -> "Chaos2State":
        """A state around a strictly upper triangular ``kernel``, unchecked and
        not copied (no state writes to its kernel)."""
        state = object.__new__(cls)
        for name, value in (("kernel", kernel), ("scalar", scalar), ("T", T)):
            object.__setattr__(state, name, value)
        return state

    @property
    def M(self) -> int:
        return self.kernel.shape[0]

    @property
    def h(self) -> float:
        return self.T / self.M

    def _check_grid(self, other: "Chaos2State") -> None:
        if self.M != other.M or abs(self.T - other.T) > 1e-12:
            raise ValueError(
                f"grid mismatch: ({self.M}, T={self.T}) vs ({other.M}, T={other.T})"
            )

    def __add__(self, other: "Chaos2State") -> "Chaos2State":
        self._check_grid(other)
        return Chaos2State._built(self.kernel + other.kernel, self.scalar + other.scalar, self.T)

    def scale(self, q) -> "Chaos2State":
        q = float(q)
        if not isfinite(q):  # 0 * q below the diagonal would not stay 0
            raise ValueError(f"scale factor must be finite, got {q}")
        return Chaos2State._built(self.kernel * q, self.scalar * q, self.T)

    def diamond(self, other: "Chaos2State") -> "Chaos2State":
        """Diamond of two chaos states on matching grids.

        Kernel: the symmetrized one-variable contraction restricted to the
        strict upper triangle, h (X + X^T) with the one product X = F G^T
        (G F^T is its transpose); scalar: the full simplex inner product
        <f, g> by left-point quadrature.
        """
        self._check_grid(other)
        F, G = self.kernel, other.kernel
        h = self.h
        X = F @ G.T
        kernel = np.triu(h * (X + X.T), 1)
        scalar = float(h * h * np.sum(F * G))
        return Chaos2State._built(kernel, scalar, self.T)


def constant_kernel(T: float, M: int, value: float = 1.0) -> Chaos2State:
    """State with f == value on the simplex (zero deterministic part)."""
    if M < 1:
        raise ValueError(f"grid size M must be >= 1, got {M}")
    k = np.triu(np.full((M, M), float(value)), 1)
    return Chaos2State(kernel=k, scalar=0.0, T=T)


def kernel_from_function(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray], T: float, M: int
) -> Chaos2State:
    """Sample f(w, v) at left points on the strict upper triangle."""
    w = np.arange(M) * (T / M)
    W, V = np.meshgrid(w, w, indexing="ij")
    k = np.where(W < V, fn(W, V), 0.0)
    k = np.triu(np.asarray(k, dtype=float), 1)
    return Chaos2State(kernel=k, scalar=0.0, T=T)


def chaos2_cumulants(f: Chaos2State, n_max: int) -> List[float]:
    """Cumulants of I_2(f) via the recursion: entry n-1 holds kappa_n = n! * scalar.

    kappa_1 is 0 (the integral is centered); kappa_2 approximates the squared
    simplex norm of f at first order in the grid step.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    first = Chaos2State._built(f.kernel, 0.0, f.T)
    states = cumulant_states({1: first}, n_max)
    return [factorial(n) * states[n].scalar for n in range(1, n_max + 1)]


def eigenvalue_cumulants(f: Chaos2State, n_max: int) -> List[float]:
    """Spectral route: ``spectral_cumulants`` of h G, G(w, v) = f(min, max) / 2 the
    symmetrized kernel on the grid.  Fully independent of the diamond recursion."""
    G = 0.5 * (f.kernel + f.kernel.T)
    return spectral_cumulants(np.linalg.eigvalsh(G * f.h), n_max)


def spectral_cumulants(eigs: np.ndarray, n_max: int) -> List[float]:
    """kappa_1..kappa_n_max of sum_k lambda_k (Z_k^2 - 1), Z_k iid standard normal
    (every second-chaos law): kappa_1 = 0, kappa_n = 2^{n-1} (n-1)! sum lambda^n."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [0.0] + [
        2.0 ** (n - 1) * factorial(n - 1) * float(np.sum(eigs**n)) for n in range(2, n_max + 1)
    ]
