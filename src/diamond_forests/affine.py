"""Affine forward-variance calculus: kernels, tree loadings, Riccati solver.

In the affine forward-variance model

    dX_t   = -(1/2) v_t dt + sqrt(v_t) dZ_t,
    d xi_t(u) = kappa(u - t) sqrt(v_t) dW_t,      d<W,Z>_t = rho dt,

every diamond tree with price leaves X and averaged-variance leaves zeta has
the convolution form  integral xi_t(u) h(T-u) du  for an h assembled from
the kernel: leaf loadings are (z, w) = (1, 0) for X and (0, kappa_bar) for
zeta, an internal subtree with function h loads as (0, kappa * h) (the
convolution), and joining two nodes multiplies out

    h = z1 z2 + rho (z1 w2 + z2 w1) + w1 w2 .

The join is bilinear in the loadings, so a whole order of the forests of
``spx_g_expansion`` collapses to one grid function: ``AffineState`` carries
(z, h, w) for a linear combination of trees, and ``spx_exponent`` runs it
through ``cumulant_states`` from the same seeds as the forests (the linear
state L = aX + c zeta at order 1), which takes order - 2 convolutions and
walks no tree.  ``tree_value`` joins one tree node by node.

The joint exponent  a X_t + c zeta_t(T) + integral xi_t(u) g(T-u) du  closes
with g solving the convolution Riccati integral equation

    g(tau) = b - a/2 + (1 - rho^2) a^2 / 2
             + [rho a + c kappa_bar(tau) + (kappa * g)(tau)]^2 / 2 ,

discretized here by product integration: g is piecewise linear on a uniform
tau-grid and the kernel moments over each subinterval are integrated in
closed form, which keeps first-order accuracy through the power-law
singularity at tau = 0.  The resulting weights W form one Toeplitz
convolution per (kernel, grid): a whole known vector is convolved by FFT
against the spectrum of W.  The Riccati equation is solved by Picard sweeps
over the whole grid, g <- C + (q + kappa * g)^2 / 2, one such convolution
each; the system is lower triangular, so the sweeps settle within a few
(about 8 on moderate weights).  Where they cannot certify their answer, near
blow-up, the march takes over: it solves node by node, each node's history
sum one dot against W, so n steps cost O(n^2), and it refuses at the first
tau where the equation has no real root or the solution outgrows its bound.

``riccati_residual`` re-checks a solution with the same product integration
on a grid ``refine`` times finer, against a PCHIP interpolant of g, so it
stays independent of the solver's quadrature.  It needs that fine-grid sum
only at the solver's nodes, and evaluates it only there: in Hermite form the
fine samples of one cubic piece are linear in g and in the PCHIP slopes at its
two ends, so the fine weights fold into one coarse weight vector on g and one
on the slopes, and the sum becomes two convolutions at the solver's length.
The fine nodes, their kernel moments and the fold are built in blocks of at
most 8192 fine steps, so no array longer than that is formed.

One uniform grid is one ``_TauGrid``: it holds the grid, W, E and the
spectrum of W, and calling it convolves a vector.  It builds, once each and
read-only, what else on the grid does not depend on (rho, a, b, c): the half
grid of the solver's error estimate, itself a ``_TauGrid``, and kappa_bar.
The last one is cached, so the solve, its residual and the exponent of one
request on the same (kernel, horizon, n_steps) build it once.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from .errors import MAX_STEPS, MIN_STEPS, DomainError, require_finite
from .recursion import _spx_seeds, cumulant_states

if TYPE_CHECKING:  # a tree is read through its attributes; only the forest check builds one
    from .algebra import Forest, Tree

__all__ = [
    "KernelSpec",
    "ForwardVarianceCurve",
    "RiccatiSolution",
    "kappa_bar",
    "kernel_convolve",
    "tree_value",
    "solve_riccati",
    "riccati_residual",
    "heston_ode_reference",
    "mgf_value",
    "AffineState",
    "spx_exponent",
    "spx_expansion_value",
]

GROWTH_BOUND = 1.0e3
# A march costs about 40 (512 steps), 95 (4096), 110 (16384) and 220 to 250
# (65536) whole-grid sweeps on a 2-core VM; sweeps that have not certified by
# this many give way to the march.  Another cap would move which inputs fall back.
_SWEEP_CAP = 24
# A sweep certifies once its update is within this multiple of |C| + max u^2/2,
# the size of the terms of g = C + u^2/2: FFT rounding leaves the settled update
# at up to 3.6 eps of it (1.6 eps on the benchmark's requests), where g itself
# can be far smaller than its terms.
_ROUNDING_FLOOR = 8.0 * np.finfo(float).eps
_FOLD_STEPS = 8192  # the residual's fine grid is folded in blocks of at most this many steps


# ---------------------------------------------------------------------------
# Kernels and curves
# ---------------------------------------------------------------------------


# the shape parameter each kernel kind reads; the others must keep their default 0
_KERNEL_READS = {"exp": ("lam",), "power": ("alpha",), "flat": ()}


@dataclass(frozen=True)
class KernelSpec:
    """Volatility kernel: exponential nu e^{-lam tau}, power-law
    nu tau^{alpha-1} / Gamma(alpha) with alpha in (1/2, 1), or flat nu (the
    squared Bessel process, whose forward variance moves by 2 sqrt(X) dB)."""

    kind: str
    nu: float
    lam: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _KERNEL_READS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        require_finite(nu=self.nu, lam=self.lam, alpha=self.alpha)
        reads = _KERNEL_READS[self.kind]
        unread = [p for p in ("lam", "alpha") if p not in reads and getattr(self, p) != 0.0]
        if unread:
            raise ValueError(f"{self.kind} kernel takes no {' or '.join(unread)}")
        if not self.nu > 0:
            raise ValueError("nu must be positive")
        if self.kind == "exp" and not self.lam > 0:
            raise ValueError("exponential kernel needs lam > 0")
        if self.kind == "power" and not 0.5 < self.alpha < 1.0:
            raise ValueError("power-law kernel needs alpha in (1/2, 1)")

    @staticmethod
    def exponential(nu: float, lam: float) -> "KernelSpec":
        return KernelSpec(kind="exp", nu=nu, lam=lam)

    @staticmethod
    def power_law(nu: float, alpha: float) -> "KernelSpec":
        return KernelSpec(kind="power", nu=nu, alpha=alpha)

    @staticmethod
    def flat(nu: float) -> "KernelSpec":
        return KernelSpec(kind="flat", nu=nu)

    def kappa(self, tau):
        """Pointwise kernel value (vectorized); infinite at 0 for power law."""
        tau = np.asarray(tau, dtype=float)
        if self.kind == "exp":
            return self.nu * np.exp(-self.lam * tau)
        if self.kind == "flat":
            return np.full_like(tau, self.nu)
        with np.errstate(divide="ignore"):
            return self.nu * tau ** (self.alpha - 1.0) / math.gamma(self.alpha)

    def integral(self, tau):
        """Exact antiderivative integral_0^tau kappa(u) du (vectorized)."""
        tau = np.asarray(tau, dtype=float)
        if self.kind == "exp":
            return (self.nu / self.lam) * (1.0 - np.exp(-self.lam * tau))
        if self.kind == "flat":
            return self.nu * tau
        return self.nu * tau**self.alpha / math.gamma(self.alpha + 1.0)

    def moments(self, grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Closed-form (m0, m1) per subinterval of an increasing grid.

        m0[i] = integral_{grid[i]}^{grid[i+1]} kappa(s) ds and m1[i] the same
        with an extra factor s; exactness here is what lets the product
        integration keep first order through the power-law singularity.  Each
        antiderivative is evaluated once per node and differenced.
        """
        if self.kind == "exp":
            e = np.exp(-self.lam * grid)
            p1 = grid / self.lam
            p1 += 1.0 / self.lam**2
            p1 *= e
            m0, m1 = e[:-1] - e[1:], p1[:-1] - p1[1:]
            m0 *= self.nu / self.lam
            m1 *= self.nu
            return m0, m1
        if self.kind == "flat":
            p0, p1 = grid, grid**2
        else:
            p0, p1 = grid**self.alpha, grid ** (self.alpha + 1)
        m0, m1 = p0[1:] - p0[:-1], p1[1:] - p1[:-1]
        m0 *= self.nu
        m1 *= self.nu
        if self.kind == "flat":
            m1 /= 2.0
        else:
            m0 /= math.gamma(self.alpha + 1.0)
            m1 /= math.gamma(self.alpha) * (self.alpha + 1)
        return m0, m1


def kappa_bar(kernel: KernelSpec, tau, delta: float):
    """Exact integral of the kernel over [tau, tau + delta] (vectorized)."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    return kernel.integral(tau + delta) - kernel.integral(tau)


@dataclass(frozen=True)
class ForwardVarianceCurve:
    """Nonnegative curve u -> xi_0(u); flat or linearly interpolated samples."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1 or times.size < 1:
            raise ValueError("times and values must be matching 1-d arrays")
        for name, array in (("times", times), ("values", values)):
            if not np.all(np.isfinite(array)):
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("forward variance must be nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @staticmethod
    def flat(xi0: float) -> "ForwardVarianceCurve":
        """The constant curve xi0.  Its one check is here: the arrays it builds
        need none of ``__post_init__``'s, so that does not run again."""
        if not (math.isfinite(xi0) and xi0 >= 0):
            raise ValueError(f"xi0 must be finite and nonnegative, got {xi0}")
        curve = object.__new__(ForwardVarianceCurve)
        object.__setattr__(curve, "times", np.array([0.0]))
        object.__setattr__(curve, "values", np.array([float(xi0)]))
        return curve

    @staticmethod
    def sampled(times, values) -> "ForwardVarianceCurve":
        return ForwardVarianceCurve(np.asarray(times), np.asarray(values))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.times.size == 1:
            return np.full_like(u, self.values[0])
        return np.interp(u, self.times, self.values)


# ---------------------------------------------------------------------------
# Product-integration convolution weights
# ---------------------------------------------------------------------------


@lru_cache
def _fft_length(m: int) -> int:
    """Smallest 5-smooth number 2^i 3^j 5^k that is at least m."""
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _TauGrid:
    """One uniform tau-grid of n steps and the kernel's convolution on it.

    For piecewise-linear v the product integration gives
    (kappa * v)(grid[j]) = sum_{m<=j} W[m] v[j-m] - E[j] v[0].  Subinterval i
    weights its left node by B[i] = integral kappa(s) (tau_{i+1} - s) ds / dtau
    and its right node by A[i] = m0[i] - B[i], so W[m] = A[m-1] + B[m] and
    W[0] = B[0] weights v[j]; E = (B, 0) takes off the B[j] that W[j] puts on
    v[0] past the sum's end.  Calling the grid applies that sum to a whole
    vector: one FFT product against ``spectrum`` = rfft(W) at a 5-smooth
    ``length`` of at least 2n.  W and the vector have n + 1 entries, so their
    circular product wraps only entry 2n of the linear one, onto entry 0,
    which is set to 0 anyway (the convolution vanishes at tau = 0).

    It also builds, once each, the grid ``half`` of the solver's error
    estimate, ``_TauGrid(kernel, grid[::2])``, and the zeta loading
    ``kbar(delta)``.  Its own arrays are read-only, since every solve,
    residual and exponent on the grid shares them.
    """

    def __init__(self, kernel: KernelSpec, grid: np.ndarray):
        self.kernel, self.grid = kernel, grid
        m0, m1 = kernel.moments(grid)
        B = (grid[1:] * m0 - m1) / (grid[1] - grid[0])
        self.E = _read_only(np.append(B, 0.0))
        self.W = _read_only(self.E + np.append(0.0, m0 - B))
        self.length = _fft_length(2 * (grid.size - 1))
        self.spectrum = _read_only(np.fft.rfft(self.W, self.length))
        self._half: Optional[_TauGrid] = None
        self._kbar: Tuple[float, Optional[np.ndarray]] = (math.nan, None)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        product = np.fft.rfft(values, self.length)
        # spectrum first: numpy's complex product rounds by operand order
        np.multiply(self.spectrum, product, out=product)
        out = np.fft.irfft(product, self.length)[: self.W.size]
        out -= self.E * values[0]
        out[0] = 0.0  # the convolution vanishes at tau = 0
        return out

    @property
    def half(self) -> _TauGrid:
        if self._half is None:
            self._half = _TauGrid(self.kernel, self.grid[::2])
        return self._half

    def kbar(self, delta: float) -> np.ndarray:
        """kappa_bar on the grid for window ``delta``; the last one is kept."""
        if self._kbar[0] != delta:
            self._kbar = delta, _read_only(kappa_bar(self.kernel, self.grid, delta))
        return self._kbar[1]


def kernel_convolve(kernel: KernelSpec, values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """(kappa * v)(tau_j) on the grid for piecewise-linear v, exact kernel moments:
    one FFT convolution of the ``_TauGrid`` on ``grid``."""
    return _TauGrid(kernel, grid)(np.asarray(values, dtype=float))


@lru_cache(maxsize=1)
def _tau_grid(kernel: KernelSpec, horizon: float, n_steps: int) -> _TauGrid:
    """The ``_TauGrid`` on n_steps uniform steps of [0, horizon], its grid
    read-only; the last one is kept, so the solve, residual and exponent of
    one request build it once."""
    return _TauGrid(kernel, _read_only(np.linspace(0.0, horizon, n_steps + 1)))


# ---------------------------------------------------------------------------
# Tree loadings and the per-order affine state
# ---------------------------------------------------------------------------


def _plus(u: Optional[np.ndarray], v: Optional[np.ndarray]) -> Optional[np.ndarray]:
    return v if u is None else u if v is None else u + v


def _times(u: Optional[np.ndarray], q: float) -> Optional[np.ndarray]:
    return None if u is None else u * q


class AffineState:
    """A linear combination of affine diamond trees on one tau-grid, closed
    under ``+``, ``scale`` and ``diamond``, so ``cumulant_states`` runs it.

    ``z`` is the price (dZ) loading, ``h`` the weight of the internal trees
    and ``w_leaf`` the dW loading of the leaves (None for none).  The child
    loading w = w_leaf + kappa * h is convolved once, the first time the state
    enters a diamond, and joining two states gives the internal weight

        h = z1 z2 + rho (z1 w2 + z2 w1) + w1 w2 .

    A price leaf is (z, w) = (1, 0) and a zeta leaf (0, kappa_bar).
    """

    __slots__ = ("convolve", "rho", "z", "h", "w_leaf", "_w")

    def __init__(
        self,
        convolve: _TauGrid,
        rho: float,
        z: float,
        h: Optional[np.ndarray],
        w_leaf: Optional[np.ndarray],
    ):
        self.convolve, self.rho = convolve, rho
        self.z, self.h, self.w_leaf = z, h, w_leaf
        self._w: Optional[np.ndarray] = None

    @property
    def w(self) -> np.ndarray:
        if self._w is None:
            self._w = _plus(self.w_leaf, None if self.h is None else self.convolve(self.h))
        return self._w

    def __add__(self, other: "AffineState") -> "AffineState":
        return AffineState(
            self.convolve, self.rho, self.z + other.z, _plus(self.h, other.h),
            _plus(self.w_leaf, other.w_leaf),
        )

    def scale(self, q) -> "AffineState":
        q = float(q)
        return AffineState(
            self.convolve, self.rho, self.z * q, _times(self.h, q), _times(self.w_leaf, q)
        )

    def diamond(self, other: "AffineState") -> "AffineState":
        z1, w1, z2, w2 = self.z, self.w, other.z, other.w
        h = w1 * w2
        if z1 or z2:  # only a price leaf has dZ terms: h += z1 z2 + rho (z1 w2 + z2 w1)
            terms = z1 * w2
            terms += z2 * w1
            terms *= self.rho
            terms += z1 * z2
            h += terms
        return AffineState(self.convolve, self.rho, 0.0, h, None)


def _leaf_states(tau_grid: _TauGrid, rho: float, kbar: np.ndarray) -> Dict[str, AffineState]:
    price = AffineState(tau_grid, rho, 1.0, None, np.zeros_like(kbar))
    zeta = AffineState(tau_grid, rho, 0.0, None, kbar)
    return {"X": price, "Y": price, "zeta": zeta}


def _tree_state(tree: Tree, leaves: Dict[str, AffineState]) -> AffineState:
    if tree.label is None:
        return _tree_state(tree.left, leaves).diamond(_tree_state(tree.right, leaves))
    if tree.label not in leaves:
        raise ValueError(f"unsupported leaf label {tree.label!r}")
    return leaves[tree.label]


def tree_value(
    tree: Tree,
    kernel: KernelSpec,
    rho: float,
    delta: float,
    curve: ForwardVarianceCurve,
    t: float,
    T: float,
    n_steps: int = 1024,
) -> float:
    """Value integral_t^T xi_t(u) h(T-u) du of one diamond tree, trapezoid on
    the tau-grid of h.

    Base pairs: (X <> X) -> 1, (X <> zeta) -> rho kappa_bar, (zeta <> zeta)
    -> kappa_bar^2; an internal subtree enters through kappa * h_subtree.
    The tree is walked node by node.  It refuses what ``spx_exponent`` does,
    and a single leaf; an h that is not finite on the grid raises ``DomainError``.
    """
    _check_inputs(rho, n_steps, {"delta": delta, "t": t, "T": T}, T - t, "need t < T")
    if tree.label is not None:
        raise ValueError("a single leaf is not a diamond tree (needs >= 2 leaves)")
    tau_grid = _tau_grid(kernel, T - t, n_steps)
    h = _tree_state(tree, _leaf_states(tau_grid, rho, tau_grid.kbar(delta))).h
    if not np.all(np.isfinite(h)):
        raise DomainError("h must be finite on the grid")
    return float(np.trapezoid(curve(T - tau_grid.grid) * h, tau_grid.grid))


# ---------------------------------------------------------------------------
# Convolution Riccati solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiccatiSolution:
    """Solution samples of the convolution Riccati equation on a tau-grid."""

    grid: np.ndarray
    g: np.ndarray
    kernel: KernelSpec
    rho: float
    a: float
    b: float
    c: float
    delta: float
    solver_tolerance: float = field(default=float("nan"))

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def interpolator(self) -> Callable[[np.ndarray], np.ndarray]:
        """Monotone cubic (PCHIP, Fritsch-Carlson) interpolant of g on the grid,
        extrapolating the end cubics; bit for bit scipy's ``PchipInterpolator``."""
        return _pchip(self.grid, self.g)


def _pchip_edge(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, clipped to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node slopes d of the PCHIP through (x, y), x strictly increasing
    with at least 3 points, with the steps h and secants m they came from.

    Interior slopes are the weighted harmonic mean of the neighbouring secants
    (0 where they differ in sign or one vanishes), as scipy's
    ``PchipInterpolator`` takes them.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_edge(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_edge(h[-1], h[-2], m[-1], m[-2])
    return d, h, m


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The PCHIP of ``_pchip_slopes`` as the (4, n) coefficients c of its n
    cubics: interval i holds c[0, i] s^3 + c[1, i] s^2 + c[2, i] s + c[3, i]
    in s = x - x[i], those of scipy's ``CubicHermiteSpline``."""
    d, h, m = _pchip_slopes(x, y)
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.array((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _pchip(x: np.ndarray, y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The PCHIP of ``_pchip_coefficients``, evaluated in the order of scipy's
    ``PPoly`` and extrapolating the end cubics."""
    c0, c1, c2, c3 = _pchip_coefficients(x, y)

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        i = np.clip(np.searchsorted(x, points, side="right") - 1, 0, x.size - 2)
        s = points - x[i]
        ss = s * s
        return c3[i] + c2[i] * s + c1[i] * ss + c0[i] * (ss * s)

    return evaluate


def _riccati_terms(rho, a, b, c, kbar):
    """The constant C = b - a/2 + (1 - rho^2) a^2/2 and the forcing
    q = rho a + c kappa_bar of g = C + (q + kappa * g)^2 / 2."""
    return b - 0.5 * a + 0.5 * (1.0 - rho * rho) * a * a, rho * a + c * kbar


def _riccati_march(tau_grid: _TauGrid, C: float, q: np.ndarray) -> np.ndarray:
    """The product-integration march of the convolution Riccati equation,
    node by node in increasing j, so a refusal names the first failing tau.
    The known part of (kappa * g)(tau_j), the terms W[j-i] g[i] for i < j
    less E[j] g[0], is one dot of g[:j] against W[1:] reversed, summed by
    ``np.einsum`` in a fixed order: a BLAS dot is threaded over long vectors
    and rounds by the thread count.
    """
    W, grid = tau_grid.W, tau_grid.grid
    w0 = float(W[0])
    reversed_W = W[:0:-1].copy()  # W[n], ..., W[1]: node j reads its last j entries
    g = np.empty_like(q)
    g[0] = C + 0.5 * q[0] ** 2  # boundary: convolution vanishes at tau = 0
    known = (q + w0 * C - tau_grid.E * g[0]).tolist()
    for j in range(1, W.size):
        # k = q[j] + P + W0 C, P the known part of (kappa * g)(tau_j); then
        # x = C + u^2/2 with u = q[j] + P + W0 x solves (W0/2) u^2 - u + k = 0
        k = known[j] + float(np.einsum("i,i->", reversed_W[-j:], g[:j]))
        D = 1.0 - 2.0 * w0 * k
        if D < 0.0:
            raise DomainError(
                f"per-step equation has no real root at tau = {grid[j]:.6g}: "
                f"the solution blew up; weights (a, b, c) outside the domain"
            )
        # the root continuous in W0 -> 0 (u -> k), free of cancellation
        u = 2.0 * k / (1.0 + math.sqrt(D))
        x = C + 0.5 * u * u
        if abs(x) > GROWTH_BOUND:
            raise DomainError(
                f"solution magnitude exceeded {GROWTH_BOUND:g} at tau = "
                f"{grid[j]:.6g}; weights (a, b, c) outside the small-argument domain"
            )
        g[j] = x
    return g


def _riccati_sweep(
    tau_grid: _TauGrid, C: float, q: np.ndarray, start: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """The march's g by whole-grid Picard sweeps g <- C + (q + kappa * g)^2 / 2,
    each one convolution of the last iterate by ``tau_grid``, or None where
    the sweeps do not certify it.

    The equation is lower triangular, so the sweeps settle node by node.  They
    certify when, within ``_SWEEP_CAP`` sweeps, every iterate stays finite and
    within ``GROWTH_BOUND`` and the update falls to ``_ROUNDING_FLOOR`` of the
    terms of g = C + u^2/2, u = q + kappa * g, and then W0 u < 1 at every node:
    with u a root of the step quadratic (W0/2) u^2 - u + k = 0, that is the
    root the march takes (the other root repels the sweeps).  ``start`` is
    the first iterate, by default the sweep from g = 0.
    """
    g = C + 0.5 * q * q if start is None else start
    work = np.empty_like(q)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SWEEP_CAP):
            u = tau_grid(g)
            u += q
            swept = np.multiply(0.5, u)
            swept *= u  # u^2/2
            top = swept.max()
            swept += C
            if not (-GROWTH_BOUND <= swept.min() and swept.max() <= GROWTH_BOUND):  # refuses nan
                return None
            step = np.abs(np.subtract(swept, g, out=work), out=work).max()
            g = swept
            if step <= _ROUNDING_FLOOR * (abs(C) + top):
                return g if np.all(tau_grid.W[0] * u < 1.0) else None
    return None


def _riccati_g(
    tau_grid: _TauGrid, C: float, q: np.ndarray, start: Optional[np.ndarray] = None
) -> np.ndarray:
    """g on ``tau_grid``: the sweeps' where they certify it, else the march's."""
    g = _riccati_sweep(tau_grid, C, q, start)
    return _riccati_march(tau_grid, C, q) if g is None else g


def _check_inputs(rho: float, n_steps: int, values: Dict[str, float], window: float,
                  empty: str) -> None:
    """Refusals that ``solve_riccati``, ``tree_value`` and ``spx_exponent``
    share; a grid ``window`` that is not positive raises ``ValueError(empty)``."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    require_finite(**values)
    if not MIN_STEPS <= n_steps <= MAX_STEPS:
        raise ValueError(f"n_steps must lie in [{MIN_STEPS}, {MAX_STEPS}], got {n_steps}")
    if not window > 0:
        raise ValueError(empty)


def solve_riccati(
    kernel: KernelSpec,
    rho: float,
    a: float,
    b: float,
    c: float,
    delta: float,
    horizon: float,
    n_steps: int,
) -> RiccatiSolution:
    """Solve the convolution Riccati equation on a uniform tau-grid.

    At each node g(tau_j) solves a scalar quadratic (its own convolution
    weight W0 appears inside the square), on the root that stays continuous
    as that weight goes to 0.  Whole-grid sweeps g <- C + (q + kappa * g)^2/2
    find that solution where they certify it: finite, within
    ``GROWTH_BOUND``, settled to rounding within ``_SWEEP_CAP`` sweeps, and
    W0 u < 1 at every node, which marks the continuous root.  Otherwise the
    march solves node by node in closed form: a quadratic without a real
    root means the solution has blown up, and like growth beyond
    ``GROWTH_BOUND`` it raises ``DomainError`` naming the first failing tau.
    ``solver_tolerance`` records the sup-gap against a half-resolution solve
    (swept from the full solve's even nodes), a practical error estimate at
    first order.
    """
    values = {"a": a, "b": b, "c": c, "delta": delta, "horizon T": horizon}
    _check_inputs(rho, n_steps, values, horizon, "horizon must be positive")
    tau_grid = _tau_grid(kernel, horizon, n_steps)
    C, q = _riccati_terms(rho, a, b, c, tau_grid.kbar(delta))
    g = _riccati_g(tau_grid, C, q)
    half = _riccati_g(tau_grid.half, C, q[::2], g[::2])
    tolerance = float(np.max(np.abs(g[::2] - half)))
    return RiccatiSolution(
        grid=tau_grid.grid,
        g=g,
        kernel=kernel,
        rho=rho,
        a=a,
        b=b,
        c=c,
        delta=delta,
        solver_tolerance=tolerance,
    )


def _refined_convolution(
    kernel: KernelSpec, grid: np.ndarray, g: np.ndarray, refine: int
) -> np.ndarray:
    """(kappa * v)(grid[j]) by product integration on the ``refine``-times
    finer uniform grid, v the PCHIP interpolant of g: the fine-grid sum,
    evaluated only at the nodes of ``grid``.

    With R = refine and Wf, Ef the fine weights (those of ``_TauGrid``), the sum
    at node j splits over m = R p + r.  Phase r = 0 pairs Wf[R p] with
    g[j - p].  A phase r >= 1 reads v at t_r = (R - r)/R of the way along
    cubic piece i = j - p - 1, in Hermite form

        v = g_i H00(t) + g_{i+1} H01(t) + dtau (d_i H10(t) + d_{i+1} H11(t)),

    linear in g and in the PCHIP slopes d.  So the fine weights fold into one
    coarse vector on g and one on d, and the sum is two convolutions of
    length n + 1, summed in frequency space.  Node j - p takes phase 0 and
    the right ends (H01, H11) of piece j - p - 1, its head, and the left
    ends (H00, H10) of piece j - p.  At p = j the head's phases r >= 1 would
    read piece -1 and its phase-0 part is what Ef[R j] g[0] takes off, so the
    whole head comes off as an end term.  Wf and Ef are never formed: the
    fine nodes (those of ``np.linspace``), their moments and the fold run over
    blocks of whole pieces, of at most ``_FOLD_STEPS`` fine steps unless
    ``refine`` is so large that four pieces hold more.
    """
    n = grid.size - 1
    dtau = grid[1] - grid[0]
    step = grid[-1] / (refine * n)  # that of np.linspace(0, grid[-1], refine * n + 1)
    t = np.arange(refine - 1, 0, -1) / refine  # t_r for r = 1 .. R-1
    hermite = np.array(((1 + 2 * t) * (1 - t) ** 2, t * t * (3 - 2 * t),
                        t * (1 - t) ** 2, t * t * (t - 1)))
    head = np.zeros((2, n + 1))  # on g[j - p] and d[j - p]
    weights = np.zeros((2, n + 1))
    # blocks of near-equal size, so none holds a single piece (n >= 2): a
    # one-row matmul takes another BLAS route, whose rounding differs
    blocks = -(-n // max(4, _FOLD_STEPS // refine))
    for i in range(blocks):
        lo, hi = n * i // blocks, n * (i + 1) // blocks
        fine = np.arange(refine * lo, refine * hi + 1, dtype=float)
        fine *= step
        if hi == n:
            fine[-1] = grid[-1]
        m0, m1 = kernel.moments(fine)
        B = fine[1:] * m0  # left-node weights of the fine subintervals, as in _TauGrid
        B -= m1
        B /= step
        A = m0
        A -= B  # right-node weights: Wf[m] = A[m - 1] + B[m] and Ef[m] = B[m]
        A, B = A.reshape(-1, refine), B.reshape(-1, refine)
        folded = (B[:, 1:] + A[:, :-1]) @ hermite.T  # [p, k] = sum_{r>=1} Wf[R p + r] Hk(t_r)
        head[0, lo:hi] = B[:, 0] + folded[:, 1]
        head[1, lo:hi] = dtau * folded[:, 3]
        weights[0, lo + 1 : hi + 1] = A[:, -1] + folded[:, 0]
        weights[1, lo + 1 : hi + 1] = dtau * folded[:, 2]
    weights += head
    d = _pchip_slopes(grid, g)[0]
    size = _fft_length(2 * n)  # entries 1 .. n take no wrap-around; entry 0 is set below
    spectrum = np.fft.rfft(weights[0], size)
    spectrum *= np.fft.rfft(g, size)
    slopes = np.fft.rfft(weights[1], size)
    slopes *= np.fft.rfft(d, size)
    spectrum += slopes
    out = np.fft.irfft(spectrum, size)[: n + 1]
    out -= head[0] * g[0] + head[1] * d[0]
    out[0] = 0.0  # the convolution vanishes at tau = 0
    return out


def riccati_residual(sol: RiccatiSolution, refine: int = 8) -> float:
    """Sup-norm defect of the solved g in the integral equation.

    The convolution is the product integration on a ``refine``-times finer
    grid against a monotone cubic interpolant of g, so the measure is
    independent of the solver's own quadrature; that fine-grid sum is
    evaluated only at the solver's nodes, where the defect is read
    (``_refined_convolution``).  ``refine`` must be an integer >= 1.
    kappa_bar comes from the ``_TauGrid`` of the solve.
    """
    if not isinstance(refine, numbers.Integral) or refine < 1:
        raise ValueError(f"refine must be an integer >= 1, got {refine!r}")
    conv = _refined_convolution(sol.kernel, sol.grid, sol.g, refine)
    kbar = _tau_grid(sol.kernel, sol.horizon, sol.grid.size - 1).kbar(sol.delta)
    C, q = _riccati_terms(sol.rho, sol.a, sol.b, sol.c, kbar)
    conv += q  # the defect C + (q + conv)^2 / 2 - g, in place
    conv *= conv
    conv *= 0.5
    conv += C
    conv -= sol.g
    return float(np.abs(conv, out=conv).max())


def heston_ode_reference(
    kernel: KernelSpec,
    rho: float,
    a: float,
    b: float,
    grid: np.ndarray,
) -> np.ndarray:
    """Exact g for the exponential kernel with c = 0 (classical Heston).

    For kappa = nu e^{-lam tau} the convolution psi = kappa * g satisfies
    psi' = nu g - lam psi with psi(0) = 0, so y = rho a + psi solves the
    constant-coefficient Riccati equation y' = (nu/2)(y - r+)(y - r-), with
    r+- = (lam +- s)/nu and s = sqrt(lam^2 - 2 nu (nu C + lam rho a)) taken
    in complex arithmetic.  Its solution on the "little Heston trap" branch
    (e^{-s tau}, Re s >= 0; Albrecher-Mayer-Schoutens-Tistaert 2007),

        y = (r- - G r+ e^{-s tau}) / (1 - G e^{-s tau}),   G = (y0 - r-)/(y0 - r+),

    is evaluated as y = r- + d e^{-s tau} / (1 - (nu/2) d phi(tau)) with
    d = y0 - r- and phi = (1 - e^{-s tau})/s, which holds the limits
    y0 = r+ and s = 0 (phi = tau) without a branch; g = C + y^2/2.  A pole
    of y in [0, grid[-1]] raises ``DomainError``.
    """
    if kernel.kind != "exp":
        raise ValueError("ODE reference only covers the exponential kernel")
    nu, lam = kernel.nu, kernel.lam
    C, y0 = _riccati_terms(rho, a, b, 0.0, 0.0)  # c = 0: the forcing is y0 = rho a
    k = nu * C + lam * rho * a
    disc = lam * lam - 2.0 * nu * k
    s = cmath.sqrt(disc)
    r_minus = 2.0 * k / (lam + s)  # (lam - s)/nu without the cancellation
    d = y0 - r_minus
    horizon = float(grid[-1])
    if disc < 0.0:  # y = lam/nu + (w/nu) tan(w tau/2 + theta0) has a pole each period
        w = s.imag
        inside = (math.pi - 2.0 * math.atan((nu * rho * a - lam) / w)) / w <= horizon
    else:  # (nu/2) d phi(tau) increases from 0 and reaches 1 at the pole
        phi_end = horizon if s == 0 else -math.expm1(-s.real * horizon) / s.real
        inside = 0.5 * nu * d.real * phi_end >= 1.0
    if inside:
        raise DomainError(
            f"the Heston Riccati solution has a pole inside the window "
            f"[0, {horizon:g}]; weights (a, b) outside the domain"
        )
    tau = np.asarray(grid, dtype=float)
    decay = np.exp(-s * tau)
    phi = tau if s == 0 else -np.expm1(-s * tau) / s
    y = (r_minus + d * decay / (1.0 - 0.5 * nu * d * phi)).real
    return C + 0.5 * y * y


# ---------------------------------------------------------------------------
# Exponent evaluation
# ---------------------------------------------------------------------------


def mgf_value(
    sol: RiccatiSolution,
    x: float,
    curve: ForwardVarianceCurve,
    zeta: float,
    t: float,
    T: float,
) -> float:
    """a X_t + c zeta_t(T) + integral_t^T xi_t(u) g(T-u) du on the solved grid."""
    require_finite(x=x, zeta=zeta, t=t, T=T)
    tau = T - t
    if tau <= 0:
        raise ValueError("need t < T")
    if tau > sol.horizon * (1 + 1e-12):
        raise ValueError(
            f"solution horizon {sol.horizon:g} shorter than requested window {tau:g}"
        )
    grid = sol.grid[sol.grid <= tau * (1 + 1e-12)]
    g = sol.g[: grid.size]
    if grid[-1] < tau * (1 - 1e-12):  # close the window off-grid
        g = np.append(g, sol.interpolator()(tau))
        grid = np.append(grid, tau)
    xi = curve(T - grid)
    integral = float(np.trapezoid(xi * g, grid))
    return sol.a * x + sol.c * zeta + integral


def spx_exponent(
    order: int,
    kernel: KernelSpec,
    rho: float,
    a: float,
    b: float,
    c: float,
    delta: float,
    curve: ForwardVarianceCurve,
    x: float,
    zeta: float,
    t: float,
    T: float,
    n_steps: int = 1024,
) -> float:
    """Truncated exponent: a X_t + c zeta_t(T) + integral_t^T xi_t(u) h(T-u) du
    with h = h_2 + ... + h_order, the weights of the forests of
    ``spx_g_expansion`` at (a, b, c).

    The diamond is bilinear in the loadings, so every order is one
    ``AffineState`` and ``cumulant_states`` runs them from the seeds of the
    forests (``recursion._spx_seeds``): the linear state L = aX + c zeta,
    with (z, w) = (a, c kappa_bar), at order 1 and 1/2 L<>L + (b - a/2)(X<>X)
    at order 2.  Above them the pair (1, k-1) is the linear term

        h_k = 1/2 sum_{j=2}^{k-2} w_j w_{k-j} + (a rho + c kappa_bar) w_{k-1},
        w_k = kappa * h_k .

    The grid, its spectrum and kappa_bar come from the grid's shared
    ``_TauGrid``; the call takes order - 2 convolutions and one trapezoid
    against xi.  The sum h is the expansion of the discrete
    equation that ``solve_riccati`` marches, so on the same grid the exponent
    tends to ``mgf_value`` as the order grows, where the series converges.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    values = {"a": a, "b": b, "c": c, "delta": delta, "x": x, "zeta": zeta, "t": t, "T": T}
    _check_inputs(rho, n_steps, values, T - t, "need t < T")
    tau_grid = _tau_grid(kernel, T - t, n_steps)
    leaves = _leaf_states(tau_grid, rho, tau_grid.kbar(delta))
    states = cumulant_states(_spx_seeds(leaves["Y"], leaves["zeta"], a, b, c), order)
    grid = tau_grid.grid
    h = np.zeros_like(grid)
    for k in range(2, order + 1):
        h += states[k].h
    h *= curve(T - grid)
    value = a * x + c * zeta + float(np.trapezoid(h, grid))
    if not math.isfinite(value):
        raise DomainError(f"the order-{order} exponent overflowed: weights (a, b, c) too large")
    return value


@lru_cache(maxsize=1)
def _spx_forest_seed() -> Forest:
    """Order 2 of ``spx_g_expansion``, built once: forests are immutable."""
    from .expansions import spx_g_expansion

    return spx_g_expansion(2).orders[2]


def spx_expansion_value(
    order: int,
    orders_forests: Dict[int, Forest],
    kernel: KernelSpec,
    rho: float,
    a: float,
    b: float,
    c: float,
    delta: float,
    curve: ForwardVarianceCurve,
    x: float,
    zeta: float,
    t: float,
    T: float,
    n_steps: int = 1024,
) -> float:
    """``spx_exponent`` for a caller that holds the forests of ``spx_g_expansion``.

    The forests are checked, not walked: ``orders_forests`` must have the SPX
    seed at order 2 and reach ``order``, or ``ValueError`` is raised.  The sum
    of coeff * ``tree_value`` over them is the test oracle of the result.
    """
    if orders_forests.get(2) != _spx_forest_seed():
        raise ValueError(
            "orders_forests must be spx_g_expansion forests (order 2 is not the SPX seed)"
        )
    top = max(orders_forests)
    if order > top:
        raise ValueError(f"order {order} exceeds the forests' top order {top}")
    return spx_exponent(order, kernel, rho, a, b, c, delta, curve, x, zeta, t, T, n_steps)
