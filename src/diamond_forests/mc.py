"""Monte Carlo simulators and cumulant estimators for the exact models.

Sampling is organized in fixed-size path blocks, each driven by its own
counter-based generator keyed by ``(seed, block_index)``.  The block layout
depends only on the run configuration, never on how many workers execute the
blocks, so results are bit-identical under any parallel schedule.

Each engine samples the exact law of its discrete scheme, not necessarily by
walking the path.  The n-step left-point Euler Levy area is dx' S dy with S
the antisymmetric +-1 Toeplitz matrix, whose eigenvalues are
+-i cot((2k-1) pi / 2n); so it equals (T/n) sum_k cot((2k-1) pi / 2n) L_k in
law, k = 1..floor(n/2), with L_k iid standard Laplace (the discrete form of
P. Levy's eigen-expansion of the area, Berkeley Symp. 1951).  The Euler
Heston scheme draws only the increments dw of its variance and takes the
log-price from its exact conditional law given the variance path,
N(-QV/2 + rho M, rho_perp^2 QV): n + 1 normals per path instead of 2n (the
mixing argument of Romano and Touzi, Math. Finance 1997, and Willard,
J. Derivatives 1997, applied to the discrete scheme).  The stopped Brownian
motion walks its bridge-corrected Euler path, but draws and tests only the
paths still alive.

``MODEL_PARAMS`` holds each model's parameters and defaults.  A ``SimConfig``
refuses an unknown or missing one when it is built, and checks a ``Chaos2``
kernel there by ``models.chaos2.Chaos2State``, the one second-chaos kernel check.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import MAX_CUMULANT_ORDER, MAX_PATHS, MIN_PATHS, DomainError, require_finite

if TYPE_CHECKING:
    from .models.chaos2 import Chaos2State

__all__ = [
    "BLOCK_PATHS",
    "MIN_PATHS",
    "MAX_PATHS",
    "MAX_CUMULANT_ORDER",
    "THREADS_ENV",
    "MODELS",
    "MODEL_PARAMS",
    "SimConfig",
    "Samples",
    "CumulantEstimate",
    "MgfEstimate",
    "simulate",
    "exact_cumulants",
    "empirical_cumulants",
    "empirical_mgf",
]

BLOCK_PATHS = 1 << 16
# Chaos2 and LevyArea draw in chunks of about this many floats (512 KiB).
# Chunks of 16 MiB left tens of MiB in a worker thread's malloc arena, so the
# peak RSS of a run depended on how the workers' frees interleaved.
DRAW_CHUNK = 1 << 16
# Chaos2 contracts at most this many multiply-adds (rows * M^2) per slab.  A
# larger ``db @ kernel.T`` runs numpy's threaded BLAS inside each of our own
# workers, and the two thread pools fight: on 2 cores, 2 x 65 536 paths at
# M = 64 took 0.26 s in 1 024-row chunks and 0.13 s in 64-row slabs (0.54 ->
# 0.39 s at M = 128; medians of 5), with bit-identical samples.
CHAOS2_SLAB = 1 << 18
THREADS_ENV = "DIAMOND_FORESTS_THREADS"
# each model's parameters and their defaults (None: required); other names are refused
MODEL_PARAMS: Dict[str, Dict[str, Optional[float]]] = {
    "BMdrift": {"mu": 0.0, "sigma": 1.0},
    "LevyArea": {},
    "BESQ": {"x": None, "delta": None},
    "Heston": {"xi0": None, "nu": None, "lam": None, "rho": None, "window": 0.1},
    "StoppedBM": {"start": 0.0},
    "Chaos2": {"kernel": None},
}
MODELS = tuple(MODEL_PARAMS)


@dataclass(frozen=True)
class SimConfig:
    """A fully deterministic simulation request (seed fixes the output).

    ``chaos2`` is the checked ``Chaos2State`` of a Chaos2 kernel (else None),
    built once here for ``exact_cumulants``."""

    model: str
    params: Mapping[str, object]
    n_paths: int
    n_steps: int
    horizon: float
    seed: int
    chaos2: Optional[Chaos2State] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        unknown = sorted(set(self.params) - set(MODEL_PARAMS[self.model]))
        if unknown:
            allowed = ", ".join(MODEL_PARAMS[self.model]) or "no parameters"
            raise ValueError(
                f"model {self.model} takes no parameter {', '.join(map(repr, unknown))}; "
                f"it reads {allowed}"
            )
        if not MIN_PATHS <= self.n_paths <= MAX_PATHS:
            raise ValueError(f"n_paths must lie in [{MIN_PATHS}, {MAX_PATHS}]")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        numbers = {k: v for k, v in self.params.items() if isinstance(v, (int, float))}
        require_finite(horizon=self.horizon, **numbers)
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        for name, default in MODEL_PARAMS[self.model].items():
            if default is None and name not in self.params:
                what = "a kernel (--kernel FILE)" if name == "kernel" else f"parameter {name!r}"
                raise ValueError(f"model {self.model} needs {what}")
        if self.model == "Chaos2":
            from .models.chaos2 import Chaos2State

            state = Chaos2State(self.params["kernel"], 0.0, self.horizon)
            object.__setattr__(self, "chaos2", state)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    def param(self, name: str) -> float:
        """The value of parameter ``name``, else its default in ``MODEL_PARAMS``."""
        return float(self.params.get(name, MODEL_PARAMS[self.model][name]))  # type: ignore


@dataclass(frozen=True)
class Samples:
    """Named columns of terminal functionals, one row per path."""

    columns: Dict[str, np.ndarray]
    config: SimConfig

    @property
    def n(self) -> int:
        return next(iter(self.columns.values())).size

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(
                f"samples of {self.config.model} carry columns "
                f"{sorted(self.columns)}, not {name!r}"
            )
        return self.columns[name]

    def single_column(self) -> np.ndarray:
        if len(self.columns) == 1:
            return next(iter(self.columns.values()))
        raise KeyError(
            f"samples carry several columns {sorted(self.columns)}; pick one"
        )


@dataclass(frozen=True)
class CumulantEstimate:
    order: int
    value: float
    std_error: float
    method: str  # "k-statistic" (orders 1-4) or "plug-in" (orders 5-6)


@dataclass(frozen=True)
class MgfEstimate:
    value: float
    std_error: float
    log_value: float  # log of the sample mean, finite where value under/overflows
    log_std_error: float  # delta-method standard error of log_value
    tail_share: float
    tail_warning: bool


# ---------------------------------------------------------------------------
# block RNG and per-model kernels


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, block]))


def _sim_bm_drift(cfg: SimConfig, rng: np.random.Generator, m: int) -> Dict[str, np.ndarray]:
    mu = cfg.param("mu")
    sigma = cfg.param("sigma")
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    T = cfg.horizon
    z = rng.standard_normal(m)
    return {"X": mu * T + sigma * math.sqrt(T) * z}


def _levy_weights(n: int, T: float) -> np.ndarray:
    """Weights s_k = (T/n) cot((2k-1) pi / 2n), k = 1..floor(n/2): the n-step
    Euler area equals sum_k s_k L_k in law, with L_k iid standard Laplace."""
    k = np.arange(1, n // 2 + 1)
    return (T / n) / np.tan((2 * k - 1) * math.pi / (2 * n))


def _sim_levy_area(cfg: SimConfig, rng: np.random.Generator, m: int) -> Dict[str, np.ndarray]:
    """Left-point Euler area sum_i (x_i dy_i - y_i dx_i) over n steps, sampled
    from its exact law.

    The area is dx' S dy with S_ij = sign(j - i); S is normal with eigenvalues
    +-i cot((2k-1) pi / 2n), and each 2 x 2 block contributes
    dt cot(.) (u1 v2 - u2 v1), whose law is standard Laplace.  So a path takes
    floor(n/2) Laplace draws, each the difference of two standard exponentials,
    and one product with ``_levy_weights``; n = 1 gives the zero area.  Rows
    are drawn in chunks of about ``DRAW_CHUNK`` floats, in path order, so the
    output does not depend on the chunk size.
    """
    s = _levy_weights(cfg.n_steps, cfg.horizon)
    a = np.empty(m)
    chunk = max(1, min(m, DRAW_CHUNK // max(2 * s.size, 1)))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        e = rng.standard_exponential((hi - lo, 2, s.size))
        a[lo:hi] = (e[:, 0] - e[:, 1]) @ s
    return {"A": a}


def _sim_besq(cfg: SimConfig, rng: np.random.Generator, m: int) -> Dict[str, np.ndarray]:
    x0 = cfg.param("x")
    delta = cfg.param("delta")
    if x0 < 0 or delta < 0:
        raise DomainError("squared Bessel needs x >= 0 and delta >= 0")
    T = cfg.horizon
    # terminal law: 2T * Gamma(delta/2 + N) with N ~ Poisson(x / (2T));
    # matches the (1+2*lam*T)^(-delta/2) exp(-lam x/(1+2*lam*T)) transform
    pois = rng.poisson(x0 / (2.0 * T), m)
    shape = 0.5 * delta + pois
    return {"X": 2.0 * T * rng.standard_gamma(shape)}


def _sim_heston(cfg: SimConfig, rng: np.random.Generator, m: int) -> Dict[str, np.ndarray]:
    """Euler Heston: log-price X, quadratic variation QV and the swap value zeta,
    sampled from the exact law of the two-normal Euler scheme.

    The scheme steps v by the increment dw and X by db = rho dw + rho_perp sqrt(dt) z.
    v, QV and zeta depend on dw alone, and given them the z part of X is
    rho_perp sum_k sqrt(v_k+) sqrt(dt) z_k ~ N(0, rho_perp^2 QV).  So the loop
    draws only dw (one normal per path and step), accumulates QV and
    M = sum_k sqrt(v_k+) dw_k, and after the loop sets
    X = -QV/2 + rho M + rho_perp sqrt(QV) Z with one more normal Z per path.
    """
    xi0 = cfg.param("xi0")
    nu = cfg.param("nu")
    lam = cfg.param("lam")
    rho = cfg.param("rho")
    window = cfg.param("window")
    if xi0 < 0 or nu < 0 or lam <= 0 or window <= 0:
        raise DomainError("need xi0 >= 0, nu >= 0, lam > 0, window > 0")
    if not -1.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [-1, 1]")
    n = cfg.n_steps
    dt = cfg.horizon / n
    sdt = math.sqrt(dt)
    rho_perp = math.sqrt(max(0.0, 1.0 - rho * rho))
    v = np.full(m, xi0)
    qv = np.zeros(m)
    mart = np.zeros(m)
    # each step is dw = sdt z, mart += sv dw, qv += vp dt and
    # v += lam (xi0 - vp) dt + nu sv dw, evaluated in place in that order
    dw, vp, sv, work = (np.empty(m) for _ in range(4))
    for _ in range(n):
        rng.standard_normal(out=dw)
        dw *= sdt
        np.maximum(v, 0.0, out=vp)
        np.sqrt(vp, out=sv)
        mart += np.multiply(sv, dw, out=work)
        qv += np.multiply(vp, dt, out=work)
        np.subtract(xi0, vp, out=work)
        work *= lam
        work *= dt
        sv *= nu
        sv *= dw
        work += sv
        v += work
    x = -0.5 * qv + rho * mart + rho_perp * np.sqrt(qv) * rng.standard_normal(m)
    vT = np.maximum(v, 0.0)
    # forward variance after the horizon reverts exponentially toward xi0,
    # so the length-`window` swap value is an affine function of terminal v
    zeta = xi0 * window + (vT - xi0) * (1.0 - math.exp(-lam * window)) / lam
    return {"X": x, "QV": qv, "zeta": zeta}


def _sim_stopped_bm(cfg: SimConfig, rng: np.random.Generator, m: int) -> Dict[str, np.ndarray]:
    """Brownian motion from ``start`` stopped at the barriers +-1: Euler steps
    with a Brownian-bridge crossing test inside each step.

    Only live paths are simulated: each step draws one normal and two uniforms
    per live path, in the order of the live index, and the loop ends once no
    path is alive.  A path started on a barrier is stopped at time 0.
    """
    start = cfg.param("start")
    if not -1.0 <= start <= 1.0:
        raise DomainError("start must lie in [-1, 1]")
    n = cfg.n_steps
    dt = cfg.horizon / n
    sdt = math.sqrt(dt)
    # only paths started on a barrier keep this value
    val = np.full(m, 1.0 if start >= 0.0 else -1.0)
    live = np.arange(m if abs(start) < 1.0 else 0, dtype=np.int32)
    x = np.full(live.size, start)
    for _ in range(n):
        if live.size == 0:
            break
        xn = x + sdt * rng.standard_normal(live.size)
        u = rng.random((2, live.size))
        # a step ending inside may still cross: the bridge crossing probabilities
        inside = np.abs(xn) < 1.0
        hit_up = (xn >= 1.0) | (inside & (u[0] < np.exp(-2.0 * (1.0 - x) * (1.0 - xn) / dt)))
        hit_dn = ~hit_up & (
            (xn <= -1.0) | (inside & (u[1] < np.exp(-2.0 * (1.0 + x) * (1.0 + xn) / dt)))
        )
        val[live[hit_up]] = 1.0
        val[live[hit_dn]] = -1.0
        keep = ~(hit_up | hit_dn)
        live = live[keep]
        x = xn[keep]
    # paths still alive at the horizon are attributed to the nearer barrier;
    # with barriers at +-1 the unstopped mass decays like exp(-pi^2 T / 8)
    val[live] = np.where(x >= 0.0, 1.0, -1.0)
    return {"X": val}


def _sim_chaos2(cfg: SimConfig, rng: np.random.Generator, m: int) -> Dict[str, np.ndarray]:
    kernel = np.asarray(cfg.params["kernel"], dtype=float)  # checked by SimConfig
    M = kernel.shape[0]
    h = cfg.horizon / M
    sh = math.sqrt(h)
    out = np.empty(m)
    chunk = max(1, min(m, DRAW_CHUNK // M, CHAOS2_SLAB // (M * M)))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        db = sh * rng.standard_normal((hi - lo, M))
        out[lo:hi] = np.einsum("ij,ij->i", db @ kernel.T, db)
    return {"X": out}


_SIMULATORS = {
    "BMdrift": _sim_bm_drift,
    "LevyArea": _sim_levy_area,
    "BESQ": _sim_besq,
    "Heston": _sim_heston,
    "StoppedBM": _sim_stopped_bm,
    "Chaos2": _sim_chaos2,
}


def exact_cumulants(cfg: SimConfig, max_order: int) -> List[float]:
    """Cumulants kappa_1..kappa_max_order of the law ``simulate(cfg)`` samples.

    BMdrift is N(mu T, sigma^2 T).  LevyArea and Chaos2 are second-chaos laws:
    a standard Laplace is (Z_1^2 + Z_2^2 - Z_3^2 - Z_4^2) / 2, so the area has
    eigenvalues +-s_k / 2 (``_levy_weights``), each twice; Chaos2 has those of
    h (K + K^T) / 2."""
    from .models.chaos2 import eigenvalue_cumulants, spectral_cumulants

    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if cfg.model == "BMdrift":
        law = [cfg.param("mu") * cfg.horizon, cfg.param("sigma") ** 2 * cfg.horizon]
        return (law + [0.0] * max_order)[:max_order]
    if cfg.model == "LevyArea":
        s = 0.5 * _levy_weights(cfg.n_steps, cfg.horizon)
        return spectral_cumulants(np.concatenate([s, s, -s, -s]), max_order)
    if cfg.model == "Chaos2":
        return eigenvalue_cumulants(cfg.chaos2, max_order)
    raise ValueError(f"model {cfg.model} has no exact cumulant law here")


def _thread_cap() -> int:
    """Worker cap: ``DIAMOND_FORESTS_THREADS`` clamped to [1, cpu count], else
    min(4, cpu count)."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get(THREADS_ENV, "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
        return max(1, min(cap, cpus))
    return max(1, min(4, cpus))


def simulate(cfg: SimConfig) -> Samples:
    """Run the configured model and return terminal samples, column per functional.

    The path space is split into blocks of ``BLOCK_PATHS``; block ``i`` uses the
    generator keyed ``(seed, i)``, so the result is independent of worker count.
    """
    kernel_fn = _SIMULATORS[cfg.model]
    n_blocks = (cfg.n_paths + BLOCK_PATHS - 1) // BLOCK_PATHS

    def run_block(i: int) -> Dict[str, np.ndarray]:
        m = min(BLOCK_PATHS, cfg.n_paths - i * BLOCK_PATHS)
        return kernel_fn(cfg, _block_rng(cfg.seed, i), m)

    with ThreadPoolExecutor(max_workers=min(_thread_cap(), n_blocks)) as pool:
        parts = list(pool.map(run_block, range(n_blocks)))
    names = parts[0].keys()
    columns = {k: np.concatenate([p[k] for p in parts]) for k in names}
    return Samples(columns=columns, config=cfg)


# ---------------------------------------------------------------------------
# estimators


def _as_array(samples, column: Optional[str]) -> np.ndarray:
    if isinstance(samples, Samples):
        data = samples.column(column) if column else samples.single_column()
    else:
        data = np.asarray(samples, dtype=float)
        if data.ndim != 1:
            raise ValueError("samples must be one-dimensional")
    return data


def _central_moments(x: np.ndarray, up_to: int) -> List[float]:
    """Raw moments [1, 0, m_2, ..., m_up_to] of the sample centred at its mean,
    by in-place powers: one pass per order, O(n) extra memory."""
    d = x - x.mean()
    p = d.copy()
    mu = [1.0, 0.0]
    for _ in range(2, up_to + 1):
        p *= d
        mu.append(float(p.mean()))
    return mu


def _cumulants_and_gradients(mu: Sequence[float], r: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulants kappa_0..kappa_r of raw moments mu_0..mu_r (mu_0 = 1) and their
    gradients, row n holding d kappa_n / d mu_j for j = 0..r.

    Runs the moment-cumulant recursion
    kappa_n = mu_n - sum_{m<n} C(n-1, m-1) kappa_m mu_{n-m}
    and differentiates it in the same loop.
    """
    kap = np.zeros(r + 1)
    grad = np.zeros((r + 1, r + 1))
    for n in range(1, r + 1):
        kap[n] = mu[n]
        grad[n, n] = 1.0
        for m in range(1, n):
            c = math.comb(n - 1, m - 1)
            kap[n] -= c * kap[m] * mu[n - m]
            grad[n] -= c * mu[n - m] * grad[m]
            grad[n, n - m] -= c * kap[m]
    return kap, grad


def _k_statistics(mean: float, m: Sequence[float], n: int, up_to: int) -> Dict[int, float]:
    """Unbiased k-statistics k_1..k_up_to (up_to <= 4) from the central moments."""
    k: Dict[int, float] = {1: mean}
    k[2] = n / (n - 1) * m[2]
    if up_to >= 3:
        k[3] = n * n / ((n - 1) * (n - 2)) * m[3]
    if up_to >= 4:
        k[4] = (
            n * n * ((n + 1) * m[4] - 3 * (n - 1) * m[2] ** 2)
            / ((n - 1) * (n - 2) * (n - 3))
        )
    return k


def empirical_cumulants(
    samples, max_order: int, column: Optional[str] = None
) -> List[CumulantEstimate]:
    """Cumulant estimates with standard errors.

    Orders 1-4 are the unbiased k-statistics; orders 5-6 are the plug-in
    sample cumulants.  Every order takes the delta-method standard error of
    the plug-in cumulant through the moment-cumulant recursion (McCullagh,
    *Tensor Methods in Statistics*, ch. 4): SE_r^2 = g_r' S g_r / n, with g_r
    the gradient of kappa_r in the raw moments mu_1..mu_r of the centred
    sample and S_ij = mu_{i+j} - mu_i mu_j, so it needs moments up to 2r.

    That standard error is estimated from the same sample, so on heavy tails
    it is small exactly when the plug-in cumulant is low, and a 5-SE gate on
    order 6 fails on correct samples.  The 128-step Levy area on 131 072
    paths, T in [0.5, 1.5], against its exact kappa_6 = 2 * 5! * sum_k s_k^6
    (``_levy_weights``): over 4 000 seeded samples z fell below -5 in 11
    (worst -7.4) and below -3 in about 4%, never above +3.  The SE of the
    exact law does not mend this, because kappa_6-hat is itself skewed at
    this n: with it, 2 000 of those samples reached z = +5.7 (1.1% above +3).
    Order 4 stayed inside |z| < 5 with either SE (worst -4.8 with this one,
    3.5 with the exact one).
    """
    if not 1 <= max_order <= MAX_CUMULANT_ORDER:
        raise ValueError(f"max_order must be between 1 and {MAX_CUMULANT_ORDER}")
    x = _as_array(samples, column)
    n = x.size
    if n <= 10 * max_order:
        raise DomainError(
            f"need more than {10 * max_order} samples for order {max_order}, got {n}"
        )
    mu = _central_moments(x, 2 * max_order)
    kap, grad = _cumulants_and_gradients(mu, max_order)
    j = np.arange(1, max_order + 1)
    m = np.asarray(mu)
    cov = m[j[:, None] + j] - np.outer(m[j], m[j])
    g = grad[1:, 1:]
    var = np.einsum("ri,ij,rj->r", g, cov, g) / n
    ks = _k_statistics(float(x.mean()), mu, n, min(max_order, 4))
    return [
        CumulantEstimate(
            r,
            ks[r] if r in ks else float(kap[r]),
            math.sqrt(max(float(var[r - 1]), 0.0)),
            "k-statistic" if r in ks else "plug-in",
        )
        for r in range(1, max_order + 1)
    ]


def empirical_mgf(samples, weights: Tuple[float, float, float]) -> MgfEstimate:
    """Sample mean of exp(a*X + b*QV + c*zeta) with its standard error.

    ``log_value`` is the log of that mean taken as a log-mean-exp (shifted by
    the largest exponent), so it stays finite where the mean itself under- or
    overflows; ``log_std_error`` is its delta-method standard error
    sd(w) / (sqrt(n) mean(w)) on the same shifted weights.  Flags tail
    dominance (top 0.1% of paths carrying more than 20% of the mean), which
    signals that the plain average is no longer trustworthy.
    """
    a, b, c = (float(w) for w in weights)
    if isinstance(samples, Samples):
        cols = samples.columns
    else:
        cols = {k: np.asarray(v, dtype=float) for k, v in dict(samples).items()}
    exponent = None

    def accumulate(weight: float, name: str):
        nonlocal exponent
        if weight == 0.0:
            return
        if name not in cols:
            raise DomainError(f"weight on {name!r} but samples lack that column")
        term = weight * cols[name]
        exponent = term if exponent is None else exponent + term

    accumulate(a, "X")
    accumulate(b, "QV")
    accumulate(c, "zeta")
    if exponent is None:
        n = next(iter(cols.values())).size
        return MgfEstimate(1.0, 0.0, 0.0, 0.0, max(1, int(0.001 * n)) / n, False)
    w = np.exp(exponent)
    n = w.size
    value = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(n))
    shift = float(exponent.max())
    shifted = np.exp(exponent - shift)  # largest weight 1: no overflow, mean >= 1/n
    mean = float(shifted.mean())
    log_se = float(shifted.std(ddof=1) / (math.sqrt(n) * mean))
    top = max(1, int(0.001 * n))
    tail = float(np.sort(shifted)[-top:].sum() / (n * mean))
    warning = tail > 0.20
    if warning:
        warnings.warn(
            f"top {top} samples carry {tail:.1%} of the MGF estimate; "
            "weights look too large for a plain average",
            RuntimeWarning,
            stacklevel=2,
        )
    return MgfEstimate(value, se, shift + math.log(mean), log_se, tail, warning)
