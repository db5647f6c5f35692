"""Named cross-checking suites shared by the command line and the test suite.

Each suite compares an exact pipeline against an independent oracle (a Taylor
recursion, a classical ODE, an eigenvalue identity, or Monte Carlo) and
reports measured gaps next to their tolerances.  Exact rational checks carry
tolerance 0; Monte Carlo checks report their worst z-score against 3.

The exact suites (``reorder``, ``cameron-martin``, and ``levy`` without Monte
Carlo) run on rational arithmetic alone, and ``bessel`` without it on
``math``; the numeric suites import numpy, the solver, the simulators and
their models inside their own bodies, so running an exact suite never loads
them.  The exact models and the forest algebra
load the same way: ``reorder`` loads neither ``models.levy`` nor
``models.signature``, and ``chaos2`` loads neither ``algebra`` nor
``expansions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "Check",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "tan_taylor_coefficients",
    "log_cosh_taylor_coefficients",
]


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _z_check(name: str, estimates: Sequence[Tuple[float, float]], exact: Sequence[float]) -> Check:
    """(estimate, SE) pairs against exact values: the worst |estimate - exact| / SE, at most 3."""
    return Check(name, max(abs(v - x) / se for (v, se), x in zip(estimates, exact)), 3.0)


def _cumulant_check(name: str, cfg, first: int, last: int) -> Check:
    """Cumulants ``first``..``last`` of ``simulate(cfg)`` against the law it samples."""
    from .mc import empirical_cumulants, exact_cumulants, simulate

    est = [(e.value, e.std_error) for e in empirical_cumulants(simulate(cfg), last)]
    return _z_check(name, est[first - 1 :], exact_cumulants(cfg, last)[first - 1 :])


# ---------------------------------------------------------------------------
# series oracles (independent of the tree recursions)


def _odd_riccati_series(sign: int, top: int) -> Dict[int, Fraction]:
    """Odd Taylor coefficients up to degree ``top`` of the f with f(0) = 0 and
    f' = 1 + sign f^2, by term-by-term integration."""
    f: Dict[int, Fraction] = {}
    for d in range(1, top + 1, 2):
        square = sum(f[i] * f[d - 1 - i] for i in range(1, d - 1, 2))
        f[d] = (Fraction(d == 1) + sign * square) / d
    return f


def tan_taylor_coefficients(order: int) -> Dict[int, Fraction]:
    """Odd Taylor coefficients of tan via term-by-term integration of f' = f^2 + 1."""
    return _odd_riccati_series(1, order)


def log_cosh_taylor_coefficients(order: int) -> Dict[int, Fraction]:
    """Coefficients of x^{2n} in log cosh x, from tanh' = 1 - tanh^2."""
    tanh = _odd_riccati_series(-1, 2 * order - 1)
    # log cosh = integral of tanh
    return {(d + 1) // 2: c / (d + 1) for d, c in tanh.items()}


# ---------------------------------------------------------------------------
# suites


def suite_reorder(order: int = 8, kill_order: int = 10) -> SuiteReport:
    """Expansion engine: shape counts, coefficient sums, regrading, cancellations."""
    from .algebra import catalan, parse_poly, wedderburn_etherington
    from .expansions import g_expansion, k_expansion, reorder, specialize, spx_g_expansion

    checks: List[Check] = []

    wedderburn = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
    k = k_expansion(max(order, 9))
    bad = 0.0
    for n, want in wedderburn.items():
        if len(k.orders[n]) != want or wedderburn_etherington(n) != want:
            bad += 1
    checks.append(Check("shape counts n=1..8 vs branching numbers", bad, 0.0))

    bad = 0.0
    for n in range(1, 9):
        total = sum(
            (Fraction(2) ** n) * p.constant_value() for _, p in k.orders[n + 1]
        )
        if total != catalan(n):
            bad += 1
    checks.append(Check("scaled coefficient sums vs Catalan n<=8", bad, 0.0))

    two = k_expansion(order, alphabet=("Y", "QV"), symbols=("a", "b"))
    regraded = reorder(two)
    g = g_expansion(order)
    mismatches = float(
        sum(1 for n in range(2, order + 1) if regraded.orders[n] != g.orders[n])
    )
    checks.append(Check(f"regraded two-leaf expansion == joint orders 2..{order}", mismatches, 0.0))

    killed = specialize(g_expansion(kill_order), {"b": parse_poly("-a^2/2")})
    checks.append(
        Check(
            f"b = -a^2/2 cancels joint orders <= {kill_order}",
            0.0 if killed.is_zero() else 1.0,
            0.0,
        )
    )
    spx_killed = specialize(spx_g_expansion(8), {"a": 1, "b": 0, "c": 0})
    checks.append(
        Check(
            "(a,b,c) = (1,0,0) cancels price-exponent orders <= 8",
            0.0 if spx_killed.is_zero() else 1.0,
            0.0,
        )
    )
    return SuiteReport("reorder", checks)


def suite_levy(
    T: float = 0.5,
    order: int = 20,
    paths: int = 0,
    steps: int = 512,
    seed: int = 7,
) -> SuiteReport:
    """Planar area law: series vs tan Taylor oracle, closed form, optional MC."""
    from .models.levy import levy_alpha, levy_cgf

    checks: List[Check] = []
    alphas = levy_alpha(12)
    tan = tan_taylor_coefficients(13)
    # alpha_{2n} equals the tangent coefficient of degree 2n-1
    gap = max(abs(float(alphas[2 * n] - tan[2 * n - 1])) for n in range(1, 7))
    checks.append(Check("area coefficients vs tan series through order 12", gap, 0.0))

    partial = levy_cgf(T, order)
    closed = -math.log(math.cos(T))
    checks.append(Check(f"cgf partial sum at T={T:g} vs -log cos", abs(partial - closed), 1e-8))

    if paths > 0:
        from .mc import SimConfig

        cfg = SimConfig("LevyArea", {}, paths, steps, 1.0, seed=seed)
        name = f"MC variance at T=1 vs exact Euler law ({paths} paths, SE units)"
        checks.append(_cumulant_check(name, cfg, 2, 2))
    return SuiteReport("levy", checks)


def suite_cameron_martin(order: int = 10) -> SuiteReport:
    """Squared-norm exponent coefficients vs the log-cosh Taylor oracle."""
    from .models.signature import cameron_martin_cgf_coeffs

    # the pinned check below reads the first three coefficients at any order
    got = cameron_martin_cgf_coeffs(max(order, 3))
    d = log_cosh_taylor_coefficients(order)
    # -1/2 log cosh sqrt(2 lam): lambda^n coefficient is -d_n 2^n / 2
    want = {n: -d[n] * (2**n) / 2 for n in range(1, order + 1)}
    gap = max(abs(float(got[n] - want[n])) for n in range(1, order + 1))
    checks = [Check(f"cgf coefficients vs log-cosh oracle through {order}", gap, 0.0)]
    first = [got[1], got[2], got[3]]
    pinned = [Fraction(-1, 2), Fraction(1, 6), Fraction(-4, 45)]
    checks.append(
        Check(
            "leading coefficients are -1/2, 1/6, -4/45",
            0.0 if first == pinned else 1.0,
            0.0,
        )
    )
    return SuiteReport("cameron-martin", checks)


def suite_bessel(
    x: float = 1.0,
    T: float = 1.0,
    lams: Sequence[float] = (0.1, 0.5),
    deltas: Sequence[float] = (0.0, 1.0, 2.0),
    paths: int = 0,
    seed: int = 7,
) -> SuiteReport:
    """Squared-radius Laplace transforms: series vs closed form, optional MC."""
    from .models.bessel import bessel_laplace, bessel_laplace_series

    worst = max(
        abs(bessel_laplace_series(x, delta, lam, T) - bessel_laplace(x, delta, lam, T))
        for lam in lams
        for delta in deltas
    )
    name = f"series vs closed form over lam={tuple(lams)}, delta={tuple(deltas)}"
    checks = [Check(name, worst, 1e-8)]
    if paths > 0:
        from .mc import SimConfig, empirical_mgf, simulate

        estimates, exact = [], []
        for delta in deltas:
            cfg = SimConfig("BESQ", {"x": x, "delta": delta}, paths, 1, T, seed=seed)
            samples = simulate(cfg)
            for lam in lams:
                est = empirical_mgf(samples, (-lam, 0.0, 0.0))
                estimates.append((est.value, est.std_error))
                exact.append(bessel_laplace(x, delta, lam, T))
        checks.append(_z_check(f"exact-sampler MC (SE units, {paths} draws)", estimates, exact))
    return SuiteReport("bessel", checks)


def suite_chaos2(
    sizes: Sequence[int] = (128, 256, 512),
    n_kernels: int = 5,
    seed: int = 0,
) -> SuiteReport:
    """Grid recursion vs Richardson limits and the eigenvalue oracle."""
    import numpy as np

    from .models.chaos2 import Chaos2State, chaos2_cumulants, constant_kernel, eigenvalue_cumulants

    checks: List[Check] = []
    sizes = tuple(sizes)
    if len(sizes) != 3 or not all(2 * a == b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be three doubling grid counts")
    targets = {2: 0.5, 3: 1.0, 4: 3.0}
    values = {
        M: chaos2_cumulants(constant_kernel(1.0, M), 4) for M in sizes
    }
    worst_slope = 0.0
    worst_extrap = 0.0
    for order, want in targets.items():
        e = [abs(values[M][order - 1] - want) for M in sizes]
        slope = math.log(e[0] / e[2]) / math.log(4.0)
        worst_slope = max(worst_slope, abs(slope - 1.0))
        rich = values[sizes[2]][order - 1] + (
            values[sizes[2]][order - 1] - values[sizes[1]][order - 1]
        )
        worst_extrap = max(worst_extrap, abs(rich - want))
    checks.append(Check("flat-kernel Richardson slope within [0.7, 1.3]", worst_slope, 0.3))
    checks.append(Check("flat-kernel extrapolated cumulants vs 1/2, 1, 3", worst_extrap, 5e-3))

    def cosine_kernel(coeffs, M):
        # f(w, v) = sum_{p,q} c[p, q] cos(pi p w) cos(pi q v) at the left points
        # w_i = i / M, sampled as the separable product C c C^T
        C = np.cos(np.pi * np.arange(3) * (np.arange(M) * (1.0 / M))[:, None])
        return Chaos2State(kernel=np.triu(C @ coeffs @ C.T, 1), scalar=0.0, T=1.0)

    worst = 0.0
    for i in range(n_kernels):
        rng = np.random.default_rng(seed + i)
        coeffs = rng.uniform(-1.0, 1.0, size=(3, 3))
        coarse = cosine_kernel(coeffs, sizes[0])
        fine = cosine_kernel(coeffs, sizes[1])
        rec_c = chaos2_cumulants(coarse, 3)
        rec_f = chaos2_cumulants(fine, 3)
        eig_c = eigenvalue_cumulants(coarse, 3)
        for order in (2, 3):
            band = max(abs(rec_f[order - 1] - rec_c[order - 1]), 1e-12)
            gap = abs(rec_c[order - 1] - eig_c[order - 1])
            worst = max(worst, gap / band)
    checks.append(
        Check(
            f"recursion vs eigenvalue oracle within refinement band ({n_kernels} kernels)",
            worst,
            1.0,
        )
    )
    return SuiteReport("chaos2", checks)


def suite_heston_riccati(steps: int = 4096) -> SuiteReport:
    """Convolution solver vs the classical ODE, residuals, short-time slopes."""
    import numpy as np

    from .affine import (
        ForwardVarianceCurve,
        KernelSpec,
        _leaf_states,
        _tau_grid,
        heston_ode_reference,
        riccati_residual,
        solve_riccati,
    )

    checks: List[Check] = []
    kern = KernelSpec.exponential(nu=0.3, lam=1.0)
    sol = solve_riccati(kern, -0.7, 0.25, 0.1, 0.0, 0.1, horizon=1.0, n_steps=steps)
    ref = heston_ode_reference(kern, -0.7, 0.25, 0.1, sol.grid)
    checks.append(
        Check(
            f"exponential-kernel solve vs ODE oracle at {steps} steps",
            float(np.max(np.abs(sol.g - ref))),
            1e-6,
        )
    )
    for alpha in (0.6, 0.75):
        pk = KernelSpec.power_law(nu=0.4, alpha=alpha)
        psol = solve_riccati(pk, -0.7, 0.25, 0.1, 0.1, 0.1, horizon=1.0, n_steps=2048)
        res = riccati_residual(psol)
        checks.append(
            Check(
                f"power-law alpha={alpha} residual vs 10x solver tolerance",
                res,
                10.0 * psol.solver_tolerance,
            )
        )
    alpha = 0.6
    pk = KernelSpec.power_law(nu=0.4, alpha=alpha)
    crv = ForwardVarianceCurve.flat(0.04)
    values: Dict[int, List[float]] = {3: [], 4: []}
    for T in (0.05, 0.1, 0.2):
        # the trees Y<>(Y<>Y) and (Y<>Y)<>(Y<>Y) as diamonds of affine states
        tau_grid = _tau_grid(pk, T, 2048)
        y = _leaf_states(tau_grid, -0.7, tau_grid.kbar(0.1))["Y"]
        cherry = y.diamond(y)
        xi = crv(T - tau_grid.grid)
        for k, state in ((3, y.diamond(cherry)), (4, cherry.diamond(cherry))):
            values[k].append(float(np.trapezoid(xi * state.h, tau_grid.grid)))
    worst = 0.0
    for k, vals in values.items():
        target = 1 + (k - 2) * alpha
        for hi, lo in ((1, 0), (2, 1)):
            slope = math.log(vals[hi] / vals[lo]) / math.log(2.0)
            worst = max(worst, abs(slope - target) / target)
    checks.append(Check("short-time tree slopes within 2% of 1+(k-2)a", worst, 0.02))
    return SuiteReport("heston-riccati", checks)


def suite_mc_cross(
    seed: int = 7, paths: int = 200_000, steps: int = 256
) -> SuiteReport:
    """Every simulator against its exact counterpart, in standard-error units."""
    from .affine import ForwardVarianceCurve, KernelSpec, mgf_value, solve_riccati
    from .mc import SimConfig, empirical_mgf, simulate
    from .models.bessel import bessel_laplace
    from .models.brownian import stopped_bm_cgf
    from .models.chaos2 import constant_kernel

    checks: List[Check] = []

    cfg = SimConfig("BMdrift", {"mu": 0.3, "sigma": 1.5}, paths, 1, 2.0, seed=seed)
    checks.append(_cumulant_check("drifted-BM cumulants 1..4 (SE units)", cfg, 1, 4))

    cfg = SimConfig("BESQ", {"x": 0.7, "delta": 2.0}, paths, 1, 1.0, seed=seed)
    est = empirical_mgf(simulate(cfg), (-0.5, 0.0, 0.0))
    exact = bessel_laplace(0.7, 2.0, 0.5, 1.0)
    name = "squared-radius exact sampler vs transform (SE units)"
    checks.append(_z_check(name, [(est.value, est.std_error)], [exact]))

    cfg = SimConfig("LevyArea", {}, paths, steps, 1.0, seed=seed)
    checks.append(_cumulant_check("planar-area variance vs exact Euler law (SE units)", cfg, 2, 2))

    cfg = SimConfig("StoppedBM", {"start": 0.2}, paths, steps, 8.0, seed=seed)
    est = empirical_mgf(simulate(cfg), (0.4, 0.0, 0.0))
    name = "stopped-BM exponent vs closed form (SE units)"
    checks.append(_z_check(name, [(est.log_value, est.log_std_error)], [stopped_bm_cgf(0.2, 0.4)]))

    kern = KernelSpec.exponential(nu=0.3, lam=1.0)
    sol = solve_riccati(kern, -0.7, 0.25, 0.1, 0.0, 0.1, horizon=1.0, n_steps=2048)
    mv = mgf_value(sol, 0.0, ForwardVarianceCurve.flat(0.04), 0.0, 0.0, 1.0)
    heston = {"xi0": 0.04, "nu": 0.3, "lam": 1.0, "rho": -0.7}
    cfg = SimConfig("Heston", heston, paths, steps, 1.0, seed=seed)
    est = empirical_mgf(simulate(cfg), (0.25, 0.1, 0.0))
    name = "stochastic-volatility MGF vs solver (SE units)"
    checks.append(_z_check(name, [(est.log_value, est.log_std_error)], [mv]))

    cfg = SimConfig("Chaos2", {"kernel": constant_kernel(1.0, 64).kernel}, paths, 64, 1.0, seed)
    name = "second-chaos cumulants vs spectral law (SE units)"
    checks.append(_cumulant_check(name, cfg, 2, 3))

    return SuiteReport("mc-cross", checks)


SUITES: Dict[str, Callable[..., SuiteReport]] = {
    "reorder": suite_reorder,
    "levy": suite_levy,
    "cameron-martin": suite_cameron_martin,
    "bessel": suite_bessel,
    "chaos2": suite_chaos2,
    "heston-riccati": suite_heston_riccati,
    "mc-cross": suite_mc_cross,
}


def run_suite(name: str, **kwargs) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
