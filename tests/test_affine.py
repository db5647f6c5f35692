"""Forward-variance kernels, convolution-form tree values, and the Riccati solver."""

import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import PchipInterpolator

from diamond_forests import affine
from diamond_forests.affine import (
    GROWTH_BOUND,
    MAX_STEPS,
    MIN_STEPS,
    ForwardVarianceCurve,
    KernelSpec,
    RiccatiSolution,
    heston_ode_reference,
    kappa_bar,
    kernel_convolve,
    mgf_value,
    riccati_residual,
    solve_riccati,
    spx_expansion_value,
    spx_exponent,
    tree_value,
)
from diamond_forests.algebra import join, leaf
from diamond_forests.errors import DomainError
from diamond_forests.expansions import g_expansion, k_expansion, spx_g_expansion
from diamond_forests.models.signature import cameron_martin_cgf

EXP = KernelSpec.exponential(nu=0.3, lam=1.0)
POW = KernelSpec.power_law(nu=0.4, alpha=0.6)
FLAT = KernelSpec.flat(nu=2.0)

Y = leaf("Y")
Z = leaf("zeta")


# ---------------------------------------------------------------------------
# kernels and kappa_bar


def test_kernel_validation():
    with pytest.raises(ValueError):
        KernelSpec.exponential(nu=-1.0, lam=1.0)
    with pytest.raises(ValueError):
        KernelSpec.exponential(nu=1.0, lam=0.0)
    with pytest.raises(ValueError):
        KernelSpec.power_law(nu=1.0, alpha=0.5)
    with pytest.raises(ValueError):
        KernelSpec.power_law(nu=1.0, alpha=1.0)
    for nu in (0.0, -2.0):
        with pytest.raises(ValueError, match="nu must be positive"):
            KernelSpec.flat(nu=nu)
    with pytest.raises(ValueError, match="unknown kernel kind"):
        KernelSpec(kind="constant", nu=1.0)
    # a parameter the kind never reads is refused, not ignored
    for kind, args, unread in (
        ("flat", dict(lam=5.0), "lam"),
        ("flat", dict(alpha=0.7), "alpha"),
        ("flat", dict(lam=5.0, alpha=0.7), "lam or alpha"),
        ("exp", dict(lam=1.0, alpha=0.6), "alpha"),
        ("power", dict(lam=1.0, alpha=0.6), "lam"),
    ):
        with pytest.raises(ValueError, match=f"{kind} kernel takes no {unread}$"):
            KernelSpec(kind, 1.0, **args)
    with pytest.raises(ValueError):
        KernelSpec("flat", 1.0, lam=5.0, alpha=math.nan)
    for kern in (KernelSpec.exponential(0.3, 1.0), KernelSpec.power_law(0.3, 0.6),
                 KernelSpec.flat(2.0)):
        assert KernelSpec(kern.kind, kern.nu, kern.lam, kern.alpha) == kern


@pytest.mark.parametrize("name", ["nu", "lam", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_kernel_rejects_non_finite_parameters(name, value):
    # on every kind, whether or not the kind reads the parameter
    for kind, args in (("exp", dict(lam=1.0)), ("power", dict(alpha=0.6)), ("flat", {})):
        args = dict(args, nu=0.3)
        args[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            KernelSpec(kind, **args)


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_kappa_bar_matches_quadrature(kern):
    for tau in (0.0, 0.3, 1.7):
        for delta in (0.05, 0.5):
            want, err = quad(kern.kappa, tau, tau + delta, points=[tau])
            got = kappa_bar(kern, tau, delta)
            assert abs(got - want) <= 1e-9 + 10 * err


def test_kappa_bar_closed_forms_at_zero():
    delta = 0.25
    assert kappa_bar(EXP, 0.0, delta) == pytest.approx(
        (0.3 / 1.0) * (1.0 - math.exp(-delta)), abs=1e-15
    )
    assert kappa_bar(POW, 0.0, delta) == pytest.approx(
        0.4 * delta**0.6 / math.gamma(1.6), abs=1e-15
    )


@pytest.mark.parametrize("delta, tau", [(0.0, 0.5), (-0.1, 0.5), (0.1, [0.5, -1e-9])],
                         ids=["delta-zero", "delta-negative", "tau-negative"])
def test_kappa_bar_refuses_an_empty_window_or_a_negative_lag(delta, tau):
    with pytest.raises(ValueError, match="delta must be positive" if delta <= 0 else "tau must"):
        kappa_bar(EXP, tau, delta)


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_kappa_bar_small_window_limit(kern):
    # kappa_bar(tau)/delta -> kappa(tau) as the window shrinks
    tau = 0.4
    for delta in (1e-4, 1e-6):
        assert kappa_bar(kern, tau, delta) / delta == pytest.approx(
            kern.kappa(tau), rel=1e-3
        )


def two_sided_moments(kern, grid):
    """Reference (m0, m1): each antiderivative evaluated at both ends of every
    subinterval, as the closed forms are written."""
    lo, hi = grid[:-1], grid[1:]
    if kern.kind == "exp":
        e_lo, e_hi = np.exp(-kern.lam * lo), np.exp(-kern.lam * hi)
        m0 = (kern.nu / kern.lam) * (e_lo - e_hi)
        m1 = kern.nu * (
            (lo / kern.lam + 1.0 / kern.lam**2) * e_lo
            - (hi / kern.lam + 1.0 / kern.lam**2) * e_hi
        )
        return m0, m1
    if kern.kind == "flat":
        return kern.nu * (hi - lo), kern.nu * (hi**2 - lo**2) / 2.0
    a = kern.alpha
    m0 = kern.nu * (hi**a - lo**a) / math.gamma(a + 1.0)
    m1 = kern.nu * (hi ** (a + 1) - lo ** (a + 1)) / (math.gamma(a) * (a + 1))
    return m0, m1


@pytest.mark.parametrize(
    "kern",
    [EXP, POW, KernelSpec.power_law(nu=0.25, alpha=0.83), FLAT],
    ids=["exp", "power", "power2", "flat"],
)
def test_moments_equal_the_two_sided_formula_bit_for_bit(kern):
    # one antiderivative per node, differenced, gives the same floats, so the
    # march's weights (and every solve pinned below) do not move
    rng = np.random.default_rng(5)
    grids = [
        np.linspace(0.0, 1.3, 4097),  # uniform, from tau = 0
        np.linspace(0.25, 2.0, 33),  # uniform, away from 0
        np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 200))]),  # non-uniform
        np.sort(rng.uniform(0.1, 3.0, 51)),
    ]
    for grid in grids:
        got, want = kern.moments(grid), two_sided_moments(kern, grid)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_curve_validation_and_interpolation():
    with pytest.raises(ValueError):
        ForwardVarianceCurve.flat(-0.1)
    with pytest.raises(ValueError):
        ForwardVarianceCurve.sampled([0.0, 1.0], [0.04, -0.01])
    with pytest.raises(ValueError, match="matching 1-d arrays"):
        ForwardVarianceCurve.sampled([0.0, 1.0, 2.0], [0.04, 0.05])
    for times in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            ForwardVarianceCurve.sampled(times, [0.04, 0.05, 0.06])
    crv = ForwardVarianceCurve.sampled([0.0, 1.0, 2.0], [0.04, 0.06, 0.02])
    assert crv(0.5) == pytest.approx(0.05)
    assert crv(2.0) == pytest.approx(0.02)
    flat = ForwardVarianceCurve.flat(0.04)
    assert flat(123.0) == 0.04


@pytest.mark.parametrize("name", ["times", "values"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_curve_rejects_non_finite_samples(name, value):
    samples = {"times": [0.0, 1.0, 2.0], "values": [0.04, 0.06, 0.02]}
    samples[name][-1] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ForwardVarianceCurve.sampled(samples["times"], samples["values"])


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_flat_curve_rejects_non_finite_level(value):
    with pytest.raises(ValueError, match="xi0 must be finite"):
        ForwardVarianceCurve.flat(value)


def test_flat_curve_is_checked_once(monkeypatch):
    # flat checks xi0 itself and builds the arrays __post_init__ would
    want = ForwardVarianceCurve(np.array([0.0]), np.array([2.0]))

    def second_check(self):
        raise AssertionError("ForwardVarianceCurve.flat checked its level twice")

    monkeypatch.setattr(ForwardVarianceCurve, "__post_init__", second_check)
    flat = ForwardVarianceCurve.flat(2)
    for got, built in ((flat.times, want.times), (flat.values, want.values)):
        assert got.dtype == built.dtype and np.array_equal(got, built)


# ---------------------------------------------------------------------------
# tree loadings


def tree_h(tree, kernel, rho, delta, horizon, n_steps=1024):
    """The tau-grid and the weight h of one tree, joined node by node: the
    single-tree loading that ``tree_value`` integrates."""
    tau_grid = affine._tau_grid(kernel, horizon, n_steps)
    leaves = affine._leaf_states(tau_grid, rho, tau_grid.kbar(delta))
    return tau_grid.grid, affine._tree_state(tree, leaves).h


def test_tree_h_base_cases():
    T = 1.2
    delta = 0.1
    _, hxx = tree_h(join(Y, Y), EXP, rho=-0.7, delta=delta, horizon=T)
    assert np.allclose(hxx, 1.0)

    grid, hxz = tree_h(join(Y, Z), EXP, rho=-0.7, delta=delta, horizon=T)
    want = -0.7 * np.array([kappa_bar(EXP, tau, delta) for tau in grid])
    assert np.allclose(hxz, want, atol=1e-14)

    grid, hzz = tree_h(join(Z, Z), EXP, rho=-0.7, delta=delta, horizon=T)
    want = np.array([kappa_bar(EXP, tau, delta) ** 2 for tau in grid])
    assert np.allclose(hzz, want, atol=1e-14)


def test_tree_h_rejects_unknown_leaf():
    with pytest.raises(ValueError):
        tree_h(join(leaf("QV"), Y), EXP, rho=0.0, delta=0.1, horizon=1.0)


def test_tree_value_refuses_a_single_leaf():
    crv = ForwardVarianceCurve.flat(0.04)
    with pytest.raises(ValueError, match="single leaf is not a diamond tree"):
        tree_value(Y, EXP, -0.7, 0.1, crv, t=0.0, T=1.0)


def test_tree_value_refuses_a_non_finite_weight():
    # kappa_bar ~ 1e199 on the grid, so the zeta cherry's h = kappa_bar^2 overflows
    huge = KernelSpec.exponential(1e200, 1.0)
    crv = ForwardVarianceCurve.flat(0.04)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="h must be finite on the grid"):
            tree_value(join(Z, Z), huge, -0.7, 0.1, crv, t=0.0, T=1.0)


def test_heston_ladder_tree_closed_form():
    # X <> (X <> X) with an exponential kernel: (rho nu / lam)(1 - e^{-lam tau})
    tree = join(Y, join(Y, Y))
    tau, h = tree_h(tree, EXP, rho=-0.7, delta=0.1, horizon=1.0, n_steps=512)
    want = (-0.7 * 0.3 / 1.0) * (1.0 - np.exp(-1.0 * tau))
    assert np.max(np.abs(h - want)) <= 1e-12


def test_rough_double_cherry_closed_form():
    # (X <> X) <> (X <> X) with a power-law kernel: nu^2 tau^{2 alpha} / Gamma(1+alpha)^2
    tree = join(join(Y, Y), join(Y, Y))
    tau, h = tree_h(tree, POW, rho=-0.7, delta=0.1, horizon=1.0, n_steps=512)
    want = (0.4**2) * tau ** (2 * 0.6) / math.gamma(1.6) ** 2
    assert np.max(np.abs(h - want)) <= 1e-12


def test_cherry_value_is_curve_integral():
    # (X <> X)_t(T) = integral of the forward curve
    crv = ForwardVarianceCurve.sampled([0.0, 0.5, 1.0], [0.04, 0.05, 0.03])
    got = tree_value(join(Y, Y), EXP, -0.7, 0.1, crv, t=0.0, T=1.0, n_steps=2048)
    xs = np.linspace(0.0, 1.0, 4097)
    want = np.trapezoid([crv(u) for u in xs], xs)
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_convolution_closure_across_decompositions(kern):
    # Every tree in the joint expansion has a loading; identical canonical trees
    # reached through different join orders give identical values.
    result = spx_g_expansion(6)
    seen = {}
    for forest in result.orders.values():
        for tree, _ in forest:
            if tree.leaves < 2:
                continue
            v = tree_value(tree, kern, -0.5, 0.2, ForwardVarianceCurve.flat(0.04),
                           t=0.0, T=0.8, n_steps=512)
            seen[tree] = v
    assert len(seen) >= 10
    # rebuild selected trees from permuted child orders
    for tree, v in seen.items():
        if tree.left.is_leaf():
            continue
        rejoined = join(tree.right, tree.left)  # same canonical tree
        assert rejoined == tree
        v2 = tree_value(rejoined, kern, -0.5, 0.2, ForwardVarianceCurve.flat(0.04),
                        t=0.0, T=0.8, n_steps=512)
        assert v2 == pytest.approx(v, abs=1e-10)


def test_short_time_scaling_slopes():
    # k-leaf trees scale like T^{1 + (k-2) alpha} for the power-law kernel
    alpha = 0.6
    kern = KernelSpec.power_law(nu=0.4, alpha=alpha)
    crv = ForwardVarianceCurve.flat(0.04)
    cherry = join(Y, Y)
    trees = {3: join(Y, cherry), 4: join(cherry, cherry)}
    for k, tree in trees.items():
        vals = [
            tree_value(tree, kern, -0.7, 0.1, crv, t=0.0, T=T, n_steps=2048)
            for T in (0.05, 0.1, 0.2)
        ]
        slopes = [
            math.log(vals[1] / vals[0]) / math.log(2.0),
            math.log(vals[2] / vals[1]) / math.log(2.0),
        ]
        target = 1 + (k - 2) * alpha
        for s in slopes:
            assert abs(s - target) <= 0.02 * target


# ---------------------------------------------------------------------------
# product-integration convolution


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
@pytest.mark.parametrize("n", [2, 3, 17, 200])
def test_kernel_convolve_matches_the_per_subinterval_sum(kern, n):
    # reference: sum over kernel subintervals i < j of the left-node weight
    # B[i] on v[j-i] and the right-node weight A[i] on v[j-1-i]
    grid = np.linspace(0.0, 1.3, n)
    v = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    m0, m1 = kern.moments(grid)
    B = (grid[1:] * m0 - m1) / (grid[1] - grid[0])
    A = m0 - B
    want = [sum(A[i] * v[j - 1 - i] + B[i] * v[j - i] for i in range(j)) for j in range(n)]
    got = kernel_convolve(kern, v, grid)
    assert got[0] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
@pytest.mark.parametrize("n", [1025, 2049, 4097, 32769])
def test_kernel_convolve_matches_the_direct_sum_at_benchmark_sizes(kern, n):
    # the FFT product against the kernel spectrum equals the direct Toeplitz
    # sum of the same weights W[m] = A[m-1] + B[m], less E = (B, 0) on v[0];
    # on n - 1 steps the FFT is 2 (n - 1) long, wrapping only onto entry 0
    grid = np.linspace(0.0, 1.0, n)
    assert affine._TauGrid(kern, grid).length == 2 * (n - 1)
    v = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    m0, m1 = kern.moments(grid)
    B = (grid[1:] * m0 - m1) / (grid[1] - grid[0])
    E = np.append(B, 0.0)
    W = E + np.append(0.0, m0 - B)
    want = np.convolve(W, v)[:n] - E * v[0]
    got = kernel_convolve(kern, v, grid)
    assert got[0] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_riccati_march_solves_the_discrete_equation_of_kernel_convolve(kern):
    # the march and kernel_convolve share one weight vector, so the solved g
    # satisfies g = C + (q + kappa * g)^2 / 2 on the grid to rounding
    a, b, c, rho, delta = 0.25, 0.1, 0.1, -0.7, 0.1
    for n in (512, 4096):
        sol = solve_riccati(kern, rho, a, b, c, delta, horizon=1.0, n_steps=n)
        C = b - 0.5 * a + 0.5 * (1.0 - rho * rho) * a * a
        q = rho * a + c * kappa_bar(kern, sol.grid, delta)
        defect = C + 0.5 * (q + kernel_convolve(kern, sol.g, sol.grid)) ** 2 - sol.g
        assert np.max(np.abs(defect)) <= 1e-15


def direct_march(kern, rho, a, b, c, delta, grid):
    """Reference march: per step, one direct dot over the whole history gives
    the known part sum_{m>=1} W[m] g[j-m] - E[j] g[0] of (kappa * g)(tau_j)."""
    C = b - 0.5 * a + 0.5 * (1.0 - rho * rho) * a * a
    q = rho * a + c * kappa_bar(kern, grid, delta)
    m0, m1 = kern.moments(grid)
    B = (grid[1:] * m0 - m1) / (grid[1] - grid[0])
    E = np.append(B, 0.0)
    W = E + np.append(0.0, m0 - B)
    g = np.empty(grid.size)
    g[0] = C + 0.5 * q[0] ** 2
    for j in range(1, grid.size):
        P = float(np.dot(W[1 : j + 1], g[j - 1 :: -1])) - E[j] * g[0]
        k = q[j] + P + W[0] * C
        D = 1.0 - 2.0 * W[0] * k
        if D < 0.0:
            raise DomainError(
                f"per-step equation has no real root at tau = {grid[j]:.6g}: "
                f"the solution blew up; weights (a, b, c) outside the domain"
            )
        u = 2.0 * k / (1.0 + math.sqrt(D))
        g[j] = C + 0.5 * u * u
        if abs(g[j]) > GROWTH_BOUND:
            raise DomainError(
                f"solution magnitude exceeded {GROWTH_BOUND:g} at tau = "
                f"{grid[j]:.6g}; weights (a, b, c) outside the small-argument domain"
            )
    return g


def march_inputs(kern, rho, a, b, c, delta, grid):
    """The grid object and (C, q) that the sweeps and the march take on a grid."""
    C, q = affine._riccati_terms(rho, a, b, c, kappa_bar(kern, grid, delta))
    return affine._TauGrid(kern, grid), C, q


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
@pytest.mark.parametrize("n", [8, 9, 17, 1000, 4096])
def test_blocked_march_matches_the_direct_march(kern, n):
    # the solve sweeps here, so the march is run on its own as well; it sums
    # each node's history in the other order from ``direct_march``
    a, b, c, rho, delta = 0.25, 0.1, 0.1, -0.7, 0.1
    sol = solve_riccati(kern, rho, a, b, c, delta, horizon=1.0, n_steps=n)
    want = direct_march(kern, rho, a, b, c, delta, sol.grid)
    assert np.max(np.abs(sol.g - want)) <= 1e-15
    march = affine._riccati_march(*march_inputs(kern, rho, a, b, c, delta, sol.grid))
    assert np.max(np.abs(march - want)) <= 1e-15


# exp nu = lam = 1, rho = 1, (a, b) = (3, -1.5): g grows towards the Heston
# pole at tau = log 3, and by tau = 1.05 the sweeps need about 40 to settle
SLOW_SWEEPS = (KernelSpec.exponential(1.0, 1.0), 1.0, 3.0, -1.5, 0.0, 0.1)


def test_solve_falls_back_to_the_march_where_sweeps_do_not_certify():
    grid = np.linspace(0.0, 1.05, 1025)
    inputs = march_inputs(*SLOW_SWEEPS, grid)
    assert affine._riccati_sweep(*inputs) is None
    sol = solve_riccati(*SLOW_SWEEPS, horizon=1.05, n_steps=1024)
    assert sol.g.tobytes() == affine._riccati_march(*inputs).tobytes()


@pytest.mark.parametrize("n", [1024, 4096])
def test_march_matches_the_direct_march_where_sweeps_do_not_certify(n):
    # g grows to about 900 here, so the gap is bounded relative to max |g|
    sol = solve_riccati(*SLOW_SWEEPS, horizon=1.05, n_steps=n)
    want = direct_march(*SLOW_SWEEPS, sol.grid)
    assert np.max(np.abs(sol.g - want)) <= 2e-14 * np.max(np.abs(want))


def test_march_gives_one_g_under_any_blas_thread_count():
    # OpenBLAS threads a dot over a long history and rounds by the thread
    # count; the march sums in a fixed order, so each fresh interpreter's
    # fallback solve gives the same bits
    grid = np.linspace(0.0, 1.05, 16385)
    assert affine._riccati_sweep(*march_inputs(*SLOW_SWEEPS, grid)) is None
    code = ("import hashlib; from diamond_forests.affine import KernelSpec, solve_riccati; "
            f"g = solve_riccati(*{SLOW_SWEEPS!r}, horizon=1.05, n_steps=16384).g; "
            "print(hashlib.sha256(g.tobytes()).hexdigest())")
    src = os.path.dirname(os.path.dirname(affine.__file__))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_sweeps_refuse_a_settled_repelling_root():
    # node 8 is set to the other root of its step quadratic, u = (1 + sqrt D)/W0,
    # so the sweep from there settles at once and only W0 u < 1 can refuse it
    kern, rho, a, b, c, delta = KernelSpec.power_law(1.0, 0.55), -0.7, 0.25, 0.1, 0.1, 0.1
    grid = np.linspace(0.0, 1.0, 9)
    convolve, C, q = inputs = march_inputs(kern, rho, a, b, c, delta, grid)
    start = affine._riccati_march(*inputs)
    W, E = convolve.W, convolve.E
    k = q[8] + W[8:0:-1] @ start[:8] - E[8] * start[0] + W[0] * C
    u = (1.0 + math.sqrt(1.0 - 2.0 * W[0] * k)) / W[0]
    start[8] = C + 0.5 * u * u
    assert W[0] * u > 2.0
    swept = C + 0.5 * (q + convolve(start)) ** 2
    assert np.max(np.abs(swept - start)) <= affine._ROUNDING_FLOOR * (abs(C) + 0.5 * u * u)
    assert affine._riccati_sweep(*inputs, start) is None


def test_sweeps_certify_where_g_is_its_constant_term():
    # C = -0.5 and u = c kappa_bar + kappa * g is small, so g is about C and the
    # settled update is rounding of |C|: the sweeps must certify on that scale
    kern, rho, a, b, c, delta = KernelSpec.power_law(0.3, 0.7), 0.0, 0.0, -0.5, 0.05, 0.1
    grid = np.linspace(0.0, 1.0, 1025)
    inputs = march_inputs(kern, rho, a, b, c, delta, grid)
    assert inputs[1] == -0.5
    g = affine._riccati_sweep(*inputs)
    assert g is not None
    assert np.max(np.abs(g - affine._riccati_march(*inputs))) <= 1e-15


def test_solve_sweeps_without_the_march(monkeypatch):
    # the bench's parameter ranges, the step cap and the squared Bessel kernel
    # are all solved by certified sweeps, so none of them needs the march
    def no_march(*args):
        raise AssertionError("the solve fell back to the march")

    monkeypatch.setattr(affine, "_riccati_march", no_march)
    rng = np.random.default_rng(34)
    for kind in ("exp", "power"):
        for c_zero in (True, False):
            for n in (1024, 2048, 4096):
                nu, rho = rng.uniform(0.2, 0.4), rng.uniform(-0.9, -0.3)
                a, b = rng.uniform(0.1, 0.3), rng.uniform(0.0, 0.2)
                c = 0.0 if c_zero else rng.uniform(0.05, 0.15)
                kern = (KernelSpec.exponential(nu, rng.uniform(0.5, 1.5)) if kind == "exp"
                        else KernelSpec.power_law(nu, rng.uniform(0.6, 0.8)))
                solve_riccati(kern, rho, a, b, c, 0.1, horizon=1.0, n_steps=n)
    for kern in (EXP, POW):
        solve_riccati(kern, -0.7, 0.25, 0.1, 0.1, 0.1, horizon=1.0, n_steps=MAX_STEPS)
    for lam, T in ((0.5, 1.0), (0.3, 1.5), (1.2, 0.8)):  # the BESQ Laplace test's
        for n in (1024, 4096):
            solve_riccati(FLAT, 0.0, 0.0, -lam, 0.0, 1.0, horizon=T, n_steps=n)


@pytest.mark.parametrize(
    "args, n_steps, reason",
    [
        ((EXP, 0.0, 40.0, 40.0, 0.0, 0.1), 256, "magnitude exceeded"),
        ((EXP, 0.0, 40.0, 40.0, 0.0, 0.1), 8, "no real root"),
        # past the Heston pole at tau = log 3
        ((KernelSpec.exponential(1.0, 1.0), 1.0, 3.0, -1.5, 0.0, 0.1), 4096, "magnitude"),
        ((KernelSpec.power_law(1.0, 0.6), 1.0, 3.0, -1.5, 0.5, 0.1), 4096, "magnitude"),
    ],
    ids=["growth", "no-real-root", "exp-late", "power-late"],
)
def test_blocked_march_refuses_where_the_direct_march_does(args, n_steps, reason):
    with pytest.raises(DomainError, match=reason) as got:
        solve_riccati(*args, horizon=2.0, n_steps=n_steps)
    with pytest.raises(DomainError) as want:
        direct_march(*args, np.linspace(0.0, 2.0, n_steps + 1))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_riccati_march_solves_the_discrete_equation_at_the_step_cap(kern):
    # the solve sweeps here, so the march is called on its own
    a, b, c, rho, delta = 0.25, 0.1, 0.1, -0.7, 0.1
    grid = np.linspace(0.0, 1.0, MAX_STEPS + 1)
    convolve, C, q = inputs = march_inputs(kern, rho, a, b, c, delta, grid)
    g = affine._riccati_march(*inputs)
    defect = C + 0.5 * (q + convolve(g)) ** 2 - g
    assert np.max(np.abs(defect)) <= 1e-15


# ---------------------------------------------------------------------------
# Riccati solver


# sha256 of g's bytes and the hex of solver_tolerance, fixed when the solve
# moved to whole-grid sweeps (g re-pinned when the FFT length became 2n): the
# solve (and with it the Heston oracle of the Monte Carlo checks) must not
# move by a bit
SOLVE_PINS = {
    "exp": (
        (EXP, -0.7, 0.25, 0.1, 0.0, 0.1),
        "b3135223469cd0ffeadfeac14a788e8afd1186709818da6951cdcdfc816542bd",
        "0x1.a7b5800000000p-42",
    ),
    "power": (
        (POW, -0.7, 0.25, 0.1, 0.1, 0.1),
        "1d8639325eb6ccb4be11f4dd17faae9d28d563534a5add9154d0f4fe0f20a383",
        "0x1.25c7f5f600000p-27",
    ),
}


@pytest.mark.parametrize("name", SOLVE_PINS)
def test_solve_is_pinned_bit_for_bit(name):
    args, g_sha, tolerance = SOLVE_PINS[name]
    sol = solve_riccati(*args, horizon=1.0, n_steps=2048)
    assert hashlib.sha256(sol.g.tobytes()).hexdigest() == g_sha
    assert sol.solver_tolerance.hex() == tolerance


def test_riccati_boundary_value_exact():
    a, b, c, rho, delta = 0.3, -0.2, 0.15, -0.6, 0.25
    for kern in (EXP, POW):
        sol = solve_riccati(kern, rho, a, b, c, delta, horizon=1.0, n_steps=64)
        kb0 = kappa_bar(kern, 0.0, delta)
        want = b + 0.5 * a * (a - 1.0) + rho * a * c * kb0 + 0.5 * c**2 * kb0**2
        assert sol.g[0] == pytest.approx(want, abs=1e-14)


def test_riccati_zero_fixed_point():
    sol = solve_riccati(EXP, -0.7, 0.0, 0.0, 0.0, 0.1, horizon=2.0, n_steps=128)
    assert np.max(np.abs(sol.g)) == 0.0


def test_riccati_matches_heston_ode():
    a, b, rho = 0.25, 0.1, -0.7
    sol = solve_riccati(EXP, rho, a, b, 0.0, 0.1, horizon=1.0, n_steps=4096)
    ref = heston_ode_reference(EXP, rho, a, b, sol.grid)
    assert np.max(np.abs(sol.g - ref)) <= 1e-6


def test_riccati_heston_ode_other_parameters():
    kern = KernelSpec.exponential(nu=0.8, lam=2.5)
    a, b, rho = -0.4, 0.05, 0.3
    sol = solve_riccati(kern, rho, a, b, 0.0, 0.1, horizon=1.5, n_steps=4096)
    ref = heston_ode_reference(kern, rho, a, b, sol.grid)
    assert np.max(np.abs(sol.g - ref)) <= 1e-6


@pytest.mark.parametrize(
    "x, delta, lam, T", [(0.0, 1.0, 0.5, 1.0), (1.3, 0.7, 0.3, 1.5), (0.4, 2.0, 1.2, 0.8)]
)
def test_flat_kernel_march_meets_the_besq_laplace_transform(x, delta, lam, T):
    # dX = 2 sqrt(X) dB + delta dt has forward variance xi_0(u) = x + delta u and
    # kernel 2, so log E exp(-lam int_0^T X) is the exponent with a = 0, b = -lam
    r = math.sqrt(2.0 * lam)
    want = -0.5 * x * r * math.tanh(r * T) - 0.5 * delta * math.log(math.cosh(r * T))
    curve = ForwardVarianceCurve.sampled([0.0, T], [x, x + delta * T])
    gaps = []
    for n_steps in (1024, 4096):
        sol = solve_riccati(FLAT, 0.0, 0.0, -lam, 0.0, 1.0, horizon=T, n_steps=n_steps)
        gaps.append(abs(mgf_value(sol, 0.0, curve, 0.0, 0.0, T) - want))
        assert gaps[-1] <= 2.0 * sol.solver_tolerance
        assert riccati_residual(sol) <= sol.solver_tolerance
    assert gaps[1] <= gaps[0] / 10.0  # second order: 16x per 4x steps
    if (x, delta, T) == (0.0, 1.0, 1.0):  # B^2 is BESQ(1) from 0: the Cameron-Martin ladder
        assert cameron_martin_cgf(lam, 30) == pytest.approx(want, abs=1e-13)


def dop853_reference(kern, rho, a, b, grid):
    """g from psi' = nu g - lam psi, psi(0) = 0, integrated by DOP853 at rtol 1e-12."""
    C = b - 0.5 * a + 0.5 * (1.0 - rho * rho) * a * a

    def rhs(_tau, y):
        return [kern.nu * (C + 0.5 * (rho * a + y[0]) ** 2) - kern.lam * y[0]]

    sol = solve_ivp(rhs, [0.0, float(grid[-1])], [0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    return C + 0.5 * (rho * a + sol.sol(grid)[0]) ** 2


def test_heston_closed_form_matches_dop853_on_seeded_draws():
    rng = np.random.default_rng(2024)
    complex_roots = 0
    for _ in range(120):
        nu, lam = rng.uniform(0.1, 1.0), rng.uniform(0.2, 3.0)
        rho, a, b = rng.uniform(-0.95, 0.95), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 1.0)
        kern = KernelSpec.exponential(nu=nu, lam=lam)
        grid = np.linspace(0.0, rng.uniform(0.25, 2.0), 129)
        ref = dop853_reference(kern, rho, a, b, grid)
        got = heston_ode_reference(kern, rho, a, b, grid)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        C = b - 0.5 * a + 0.5 * (1.0 - rho * rho) * a * a
        complex_roots += lam * lam < 2.0 * nu * (nu * C + lam * rho * a)
    assert complex_roots >= 10  # both root branches are drawn


def test_heston_closed_form_limits():
    kern = KernelSpec.exponential(nu=1.0, lam=1.0)
    grid = np.linspace(0.0, 2.0, 65)
    # double root (s = 0): lam^2 = 2 nu (nu C + lam rho a) with C = b = 1/2
    ref = dop853_reference(kern, 0.0, 0.0, 0.5, grid)
    got = heston_ode_reference(kern, 0.0, 0.0, 0.5, grid)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    # y0 = rho a = 2 sits on the root r+ = 2, so y stays there and g = 0
    assert np.max(np.abs(heston_ode_reference(kern, 1.0, 2.0, -1.0, grid))) <= 1e-14


@pytest.mark.parametrize(
    "rho, a, b, pole",
    [(0.0, 0.0, 1.0, 1.5 * math.pi), (1.0, 3.0, -1.5, math.log(3.0))],
    ids=["complex-roots", "real-roots"],
)
def test_heston_closed_form_pole_in_window_raises(rho, a, b, pole):
    kern = KernelSpec.exponential(nu=1.0, lam=1.0)
    heston_ode_reference(kern, rho, a, b, np.linspace(0.0, 0.99 * pole, 33))
    with pytest.raises(DomainError, match="pole"):
        heston_ode_reference(kern, rho, a, b, np.linspace(0.0, 1.01 * pole, 33))


@pytest.mark.parametrize("kern", [POW, FLAT], ids=["power", "flat"])
def test_heston_closed_form_refuses_a_non_exponential_kernel(kern):
    with pytest.raises(ValueError, match="only covers the exponential kernel"):
        heston_ode_reference(kern, -0.7, 0.25, 0.1, np.linspace(0.0, 1.0, 9))


def test_interpolator_is_bitwise_scipy_pchip():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(3, 60))
        x = np.linspace(0.0, 1.0, n) if trial % 2 else np.sort(rng.uniform(-2.0, 2.0, n))
        y = np.round(rng.normal(size=n), 1)  # equal neighbours make flat steps
        y[rng.random(n) < 0.3] = 0.0
        # grid points, off-grid points and points past either end
        points = np.concatenate([x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 200)])
        sol = RiccatiSolution(x, y, EXP, 0.0, 0.0, 0.0, 0.0, 0.1)
        assert np.array_equal(sol.interpolator()(points), PchipInterpolator(x, y)(points))


@pytest.mark.parametrize("alpha", [0.6, 0.75])
def test_riccati_residual_within_tolerance_band(alpha):
    kern = KernelSpec.power_law(nu=0.4, alpha=alpha)
    sol = solve_riccati(kern, -0.7, 0.25, 0.1, 0.1, 0.1, horizon=1.0, n_steps=2048)
    res = riccati_residual(sol)
    assert res <= 10.0 * sol.solver_tolerance


def test_riccati_residual_exponential():
    sol = solve_riccati(EXP, -0.7, 0.25, 0.1, 0.0, 0.1, horizon=1.0, n_steps=2048)
    assert riccati_residual(sol) <= 10.0 * sol.solver_tolerance


def fine_route_convolution(kern, grid, g, refine):
    """Reference for the residual's convolution: sample the PCHIP of g on the
    ``refine``-times finer grid, convolve there, keep every refine-th value."""
    sol = RiccatiSolution(grid, g, kern, 0.0, 0.0, 0.0, 0.0, 0.1)
    fine = np.linspace(0.0, grid[-1], refine * (grid.size - 1) + 1)
    return kernel_convolve(kern, sol.interpolator()(fine), fine)[::refine]


@pytest.mark.parametrize("kern", [EXP, POW, FLAT], ids=["exp", "power", "flat"])
@pytest.mark.parametrize("n", [MIN_STEPS, 9, 64, 1024, 4096])
def test_node_convolution_matches_the_fine_route(kern, n):
    # the fine-grid sum evaluated only at the nodes equals sampling the
    # interpolant on the whole fine grid, for curved, flat and solved g;
    # the solved ones also pass the residual gate at every refinement.  The
    # smallest grid puts the fold's end terms (j = 0, 1) in most of the sum
    grid = np.linspace(0.0, 1.0, n + 1)
    inputs = {
        "curve": 0.3 + np.sin(3.0 * grid) - 0.4 * grid**2,
        "flat": np.full(n + 1, 0.3),
    }
    sols = [solve_riccati(kern, -0.7, 0.25, 0.1, c, 0.1, horizon=1.0, n_steps=n)
            for c in (0.0, 0.1)]
    inputs.update({f"solved c={sol.c}": sol.g for sol in sols})
    for refine in (1, 2, 3, 8):
        for name, g in inputs.items():
            want = fine_route_convolution(kern, grid, g, refine)
            got = affine._refined_convolution(kern, grid, g, refine)
            assert got[0] == 0.0
            err = np.max(np.abs(got - want))
            assert err <= 1e-14 * np.max(np.abs(want)), (name, refine, err)
        for sol in sols:
            assert riccati_residual(sol, refine) <= 10.0 * sol.solver_tolerance


# sha256 of the node sum for the "curve" g above, fixed while the fold still
# formed the whole fine grid: its blocks must not move a bit.  On 1025 steps
# at refine 8 the blocks are 513 and 512 pieces (a block of one piece would
# round differently), and at horizon 0.9 the last fine node, the horizon
# itself, differs from 3n times the fine step
FOLD_PINS = {
    ("exp", 4096, 1.0, 3): "ddc980e47cb7fa8315553ac9c4f55990599296bc0ad404248052a09a08b3751b",
    ("power", 4096, 1.0, 3): "09f7f11126ffe85f7ea50aee6ff6a0e101ae043411068644be2b2b4510224825",
    ("exp", 4096, 1.0, 8): "58cb7571e7e36bda98a4871f765065fdd4aa014ba9c66d78fe8aae291b08ea2c",
    ("power", 4096, 1.0, 8): "2b57c700c3ca635e9fa646b12198a315a52d164e0c8c12e9dc237732f9419410",
    ("exp", 1025, 1.0, 8): "81d5c0089c31d5ce4382e914c28af4ed0ad45bba8c170a1c935463566661980c",
    ("power", 1025, 1.0, 8): "62483297d4292fab1248dd0d37b74cb3db421d5b9e582dca9e4e7dcd2dec2879",
    ("exp", 4096, 0.9, 3): "306b3ef4553068ff72bfd0c19f5e66a9ee2f7381fc04af2b935e799e1ea78b22",
    ("power", 4096, 0.9, 3): "10965eb3b32aaec65740da1b8712bf6f4e139813008023617c485d47b3ec468a",
}


@pytest.mark.parametrize("name, n, horizon, refine", FOLD_PINS)
def test_blocked_fold_is_pinned_bit_for_bit(name, n, horizon, refine):
    grid = np.linspace(0.0, horizon, n + 1)
    g = 0.3 + np.sin(3.0 * grid) - 0.4 * grid**2
    got = affine._refined_convolution({"exp": EXP, "power": POW}[name], grid, g, refine)
    assert hashlib.sha256(got.tobytes()).hexdigest() == FOLD_PINS[name, n, horizon, refine]


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_residual_forms_no_fine_grid_array(kern):
    # the fold runs in blocks, so on 4096 steps the residual's traced peak
    # stays below 1 MiB; one array over the 8 x 4096 fine grid is 256 KiB,
    # and the whole fine-grid fold peaked at 1.66 MiB
    sol = solve_riccati(kern, -0.7, 0.25, 0.1, 0.1, 0.1, horizon=1.0, n_steps=4096)
    riccati_residual(sol)  # the grid's kappa_bar is built and cached
    tracemalloc.start()
    try:
        riccati_residual(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("refine", [0, -1, 2.5])
def test_riccati_residual_refuses_a_bad_refine(refine):
    sol = solve_riccati(EXP, -0.7, 0.25, 0.1, 0.0, 0.1, horizon=1.0, n_steps=64)
    with pytest.raises(ValueError, match="refine must be an integer >= 1"):
        riccati_residual(sol, refine)


def test_riccati_grid_convergence_power_law():
    # at least first-order convergence in the step size for the singular kernel
    kern = KernelSpec.power_law(nu=0.4, alpha=0.6)
    args = (kern, -0.7, 0.25, 0.1, 0.1, 0.1)
    fine = solve_riccati(*args, horizon=1.0, n_steps=8192)

    def gap(n):
        sol = solve_riccati(*args, horizon=1.0, n_steps=n)
        stride = 8192 // n
        return float(np.max(np.abs(sol.g - fine.g[::stride])))

    g256, g512, g1024 = gap(256), gap(512), gap(1024)
    assert g512 < g256
    assert g1024 < g512
    order = math.log(g256 / g1024) / math.log(4.0)
    assert order >= 1.0


def test_riccati_blowup_raises_domain_error():
    with pytest.raises(DomainError):
        solve_riccati(EXP, 0.0, 40.0, 40.0, 0.0, 0.1, horizon=2.0, n_steps=256)


def test_riccati_step_without_real_root_raises_domain_error():
    # on a coarse grid the per-step quadratic loses its real roots (negative
    # discriminant) before the solution crosses the growth bound
    with pytest.raises(DomainError, match="no real root"):
        solve_riccati(EXP, 0.0, 40, 40, 0, 0.1, horizon=2.0, n_steps=8)


@pytest.mark.parametrize("name", ["a", "b", "c", "delta", "horizon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_riccati_rejects_non_finite_inputs(name, value):
    args = dict(rho=-0.7, a=0.25, b=0.1, c=0.1, delta=0.1, horizon=1.0, n_steps=64)
    args[name] = value
    with pytest.raises(ValueError, match="must be finite"):
        solve_riccati(EXP, **args)


def test_riccati_step_cap():
    assert MAX_STEPS == 65536
    with pytest.raises(ValueError, match="65536"):
        solve_riccati(EXP, -0.7, 0.25, 0.1, 0.0, 0.1, horizon=1.0, n_steps=MAX_STEPS + 1)


def test_riccati_rejects_tiny_grids_and_bad_rho():
    with pytest.raises(ValueError):
        solve_riccati(EXP, 0.0, 0.1, 0.0, 0.0, 0.1, horizon=1.0, n_steps=4)
    with pytest.raises(ValueError):
        solve_riccati(EXP, 1.5, 0.1, 0.0, 0.0, 0.1, horizon=1.0, n_steps=64)


# ---------------------------------------------------------------------------
# MGF assembly and the truncated exponent


def heston_params():
    kern = KernelSpec.exponential(nu=0.3, lam=1.0)
    crv = ForwardVarianceCurve.flat(0.04)
    return kern, crv, 0.25, 0.1, 0.0, -0.7, 0.1


def test_mgf_value_trivial_and_horizon_guard():
    kern, crv, *_ = heston_params()
    sol = solve_riccati(kern, -0.7, 0.0, 0.0, 0.0, 0.1, horizon=1.0, n_steps=64)
    assert mgf_value(sol, x=0.7, curve=crv, zeta=0.3, t=0.0, T=1.0) == 0.0
    with pytest.raises(ValueError):
        mgf_value(sol, x=0.0, curve=crv, zeta=0.0, t=0.0, T=2.0)


@pytest.mark.parametrize(
    "curve",
    [ForwardVarianceCurve.flat(0.04),
     ForwardVarianceCurve.sampled([0.0, 0.5, 1.0], [0.04, 0.05, 0.03])],
    ids=["flat", "sampled"],
)
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_mgf_value_closes_a_window_between_nodes(curve, frac):
    # A window T - t between two nodes is closed by the interpolant of g; a
    # solve whose grid ends at the window needs no close.  On the power-law
    # kernel each solve's g is within about its solver_tolerance of the
    # continuous g (the march is first order there), so the two exponents
    # differ by at most (tol_1 + tol_2) times the integral of xi.
    n, t = 256, 0.2
    tau = (179 + frac) / n
    args = (POW, -0.7, 0.25, 0.1, 0.1, 0.1)
    long = solve_riccati(*args, horizon=1.0, n_steps=n)
    fitted = solve_riccati(*args, horizon=tau, n_steps=n)
    assert np.min(np.abs(long.grid - tau)) >= 0.09 / n and fitted.grid[-1] == tau
    got = mgf_value(long, 0.3, curve, 0.2, t, t + tau)
    want = mgf_value(fitted, 0.3, curve, 0.2, t, t + tau)
    u = np.linspace(t, t + tau, 4097)
    bound = (long.solver_tolerance + fitted.solver_tolerance) * np.trapezoid(curve(u), u)
    assert abs(got - want) <= bound


@pytest.mark.parametrize("name", ["x", "zeta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_mgf_value_rejects_non_finite_state(name, value):
    kern, crv, a, b, c, rho, delta = heston_params()
    sol = solve_riccati(kern, rho, a, b, c, delta, horizon=1.0, n_steps=64)
    state = dict(x=0.1, zeta=0.2)
    state[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        mgf_value(sol, curve=crv, t=0.0, T=1.0, **state)


def test_mgf_value_flat_curve_exponential():
    kern, crv, a, b, c, rho, delta = heston_params()
    sol = solve_riccati(kern, rho, a, b, c, delta, horizon=1.0, n_steps=4096)
    got = mgf_value(sol, x=0.0, curve=crv, zeta=0.0, t=0.0, T=1.0)
    # flat curve: the exponent is xi0 * integral of g
    want = 0.04 * np.trapezoid(sol.g, sol.grid)
    assert got == pytest.approx(want, abs=1e-15)
    # and a nonzero state enters linearly
    shifted = mgf_value(sol, x=0.3, curve=crv, zeta=2.0, t=0.0, T=1.0)
    assert shifted == pytest.approx(want + a * 0.3 + c * 2.0, abs=1e-15)


def test_expansion_order_two_flat_curve():
    kern, crv, a, b, c, rho, delta = heston_params()
    orders = spx_g_expansion(4).orders
    got = spx_expansion_value(2, orders, kern, rho, a, b, c, delta, crv,
                              x=0.0, zeta=0.0, t=0.0, T=1.0)
    assert got == pytest.approx((0.5 * a * (a - 1.0) + b) * 0.04 * 1.0, rel=1e-12)


def test_expansion_martingale_binding_kills_every_order():
    kern, crv, *_ = heston_params()
    orders = spx_g_expansion(8).orders
    for K in (2, 3, 4, 5, 6, 7, 8):
        got = spx_expansion_value(K, orders, kern, -0.7, 1.0, 0.0, 0.0, 0.1, crv,
                                  x=0.4, zeta=0.2, t=0.0, T=1.0)
        assert got == pytest.approx(1.0 * 0.4, abs=1e-15)


def test_expansion_rough_order_four_term():
    # order-4 contribution carries the double cherry with weight
    # (1/2)(a(a-1)/2 + b)^2 against the squared-kernel loading
    a, b, rho, delta = 0.2, 0.05, -0.3, 0.1
    crv = ForwardVarianceCurve.flat(0.04)
    orders = spx_g_expansion(4).orders
    v4 = spx_expansion_value(4, orders, POW, rho, a, b, 0.0, delta, crv,
                             x=0.0, zeta=0.0, t=0.0, T=1.0, n_steps=4096)
    v3 = spx_expansion_value(3, orders, POW, rho, a, b, 0.0, delta, crv,
                             x=0.0, zeta=0.0, t=0.0, T=1.0, n_steps=4096)
    term4 = v4 - v3
    base = 0.5 * a * (a - 1.0) + b
    double_cherry = 0.5 * base**2 * tree_value(
        join(join(Y, Y), join(Y, Y)), POW, rho, delta, crv, 0.0, 1.0, n_steps=4096
    )
    ladder = join(Y, join(Y, join(Y, Y)))
    chain4 = a**2 * base * tree_value(ladder, POW, rho, delta, crv, 0.0, 1.0,
                                      n_steps=4096)
    assert term4 == pytest.approx(double_cherry + chain4, rel=1e-10)


def test_expansion_converges_to_solver_value():
    kern, crv, a, b, c, rho, delta = heston_params()
    orders = spx_g_expansion(8).orders
    sol = solve_riccati(kern, rho, a, b, c, delta, horizon=1.0, n_steps=4096)
    mv = mgf_value(sol, x=0.0, curve=crv, zeta=0.0, t=0.0, T=1.0)
    gaps = []
    for K in (2, 4, 6, 8):
        ev = spx_expansion_value(K, orders, kern, rho, a, b, c, delta, crv,
                                 x=0.0, zeta=0.0, t=0.0, T=1.0, n_steps=4096)
        gaps.append(abs(ev - mv))
    assert gaps[1] < 1e-2 * gaps[0]
    assert gaps[2] < 1e-2 * gaps[1]
    assert gaps[3] <= 2e-13


def forest_sum(orders, order, kern, rho, a, b, c, delta, crv, x, zeta, n_steps):
    """a x + c zeta + sum of coeff * tree_value over the forests up to ``order``."""
    total = a * x + c * zeta
    for k in range(2, order + 1):
        for tree, poly in orders[k]:
            coeff = float(poly.evaluate({"a": a, "b": b, "c": c}))
            if coeff != 0.0:
                total += coeff * tree_value(tree, kern, rho, delta, crv, 0.0, 1.0,
                                            n_steps=n_steps)
    return total


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_expansion_value_is_the_sum_of_its_tree_values(kern):
    # one grid, convolution and zeta loading shared by every tree give the same
    # value as the single-tree oracle summed over the forest
    a, b, c, rho, delta = 0.2, 0.1, 0.1, -0.6, 0.1
    crv = ForwardVarianceCurve.sampled([0.0, 0.5, 1.0], [0.04, 0.05, 0.03])
    orders = spx_g_expansion(5).orders
    got = spx_expansion_value(5, orders, kern, rho, a, b, c, delta, crv,
                              x=0.3, zeta=0.2, t=0.0, T=1.0, n_steps=1024)
    want = forest_sum(orders, 5, kern, rho, a, b, c, delta, crv, 0.3, 0.2, 1024)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_univariate_expansion_value_matches_binding():
    # at b = a/2 and c = 0 the quadratic base weight a(a-1)/2 + b collapses to
    # a^2/2, so order k of the joint exponent is a^k times the plain cumulant
    # forest of the same order
    kern, crv, *_ = heston_params()
    a = 0.3
    uni = k_expansion(6).orders
    joint = spx_g_expansion(6).orders
    vu = 0.0
    for K, forest in uni.items():
        if K < 2:
            continue
        for tree, poly in forest:
            coeff = poly.evaluate({})
            vu += a**K * coeff * tree_value(tree, kern, 0.0, 0.1, crv, 0.0, 1.0,
                                            n_steps=1024)
    vj = spx_expansion_value(6, joint, kern, 0.0, a, 0.5 * a, 0.0, 0.1, crv,
                             x=0.0, zeta=0.0, t=0.0, T=1.0, n_steps=1024)
    assert vj == pytest.approx(vu, rel=1e-9)


def test_affine_requests_leave_no_reference_cycles():
    # every object of a solve, a residual, a forest walk and a refused solve
    # is freed by reference counting alone, so none waits for the cyclic GC
    orders = spx_g_expansion(5).orders

    def request():
        sol = solve_riccati(POW, -0.7, 0.25, 0.1, 0.1, 0.1, horizon=1.0, n_steps=4096)
        riccati_residual(sol)
        spx_expansion_value(5, orders, POW, -0.7, 0.25, 0.1, 0.1, 0.1,
                            ForwardVarianceCurve.flat(0.04), x=0.0, zeta=0.0, t=0.0,
                            T=1.0, n_steps=1024)

    def refused():
        try:
            solve_riccati(KernelSpec.exponential(1.0, 1.0), 1.0, 3.0, -1.5, 0.0, 0.1,
                          horizon=2.0, n_steps=4096)
        except DomainError:
            return
        raise AssertionError("the solve past the pole was not refused")

    request()  # first-call imports are not per-request garbage
    refused()
    gc.collect()
    gc.disable()
    try:
        request()
        assert gc.collect() == 0
        refused()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_expansion_takes_order_minus_two_convolutions(kern, monkeypatch):
    # each order is one numeric state, convolved once when a higher order
    # first uses it; the top order never is
    a, b, c, rho, delta = 0.2, 0.1, 0.1, -0.6, 0.1
    crv = ForwardVarianceCurve.sampled([0.0, 0.5, 1.0], [0.04, 0.05, 0.03])
    orders = spx_g_expansion(8).orders
    convolve = affine._TauGrid.__call__
    calls = []

    def counting(self, values):
        calls.append(values.size)
        return convolve(self, values)

    got = {}
    for order in (2, 5, 6, 8):
        monkeypatch.setattr(affine._TauGrid, "__call__", counting)
        got[order] = spx_expansion_value(order, orders, kern, rho, a, b, c, delta, crv,
                                         x=0.3, zeta=0.2, t=0.0, T=1.0, n_steps=512)
        monkeypatch.undo()
        assert calls == [513] * (order - 2)
        calls.clear()

    # the collapsed orders equal the single-tree oracle summed over the forests
    for order in (6, 8):
        want = forest_sum(orders, order, kern, rho, a, b, c, delta, crv, 0.3, 0.2, 512)
        assert abs(got[order] - want) <= 1e-13 * abs(want)


def bench_like_request(kern, c, n, orders, fresh=False):
    """A request shaped like the benchmark's: a solve, its mgf, its residual
    and the order-5 exponent on the same grid; ``fresh`` builds the grid anew
    for each call, as if nothing were shared."""
    crv = ForwardVarianceCurve.flat(0.04)
    args = (kern, -0.6, 0.2, 0.1, c, 0.1)

    def clear():
        if fresh:
            affine._tau_grid.cache_clear()

    clear()
    sol = solve_riccati(*args, horizon=1.0, n_steps=n)
    mgf = mgf_value(sol, 0.0, crv, 0.0, 0.0, 1.0)
    clear()
    residual = riccati_residual(sol)
    clear()
    exponent = spx_expansion_value(5, orders, *args, crv, x=0.0, zeta=0.0, t=0.0, T=1.0,
                                   n_steps=n)
    return sol.g.tobytes(), sol.solver_tolerance, mgf, residual, exponent


@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_one_request_builds_its_grid_once(kern, monkeypatch):
    # the solve, its residual and the exponent share one _TauGrid: the full
    # and the half-grid convolution are built once each and kappa_bar once
    orders = spx_g_expansion(5).orders
    build, evaluate = affine._TauGrid.__init__, affine.kappa_bar
    builds, evaluations = [], []

    def counting_build(self, *args):
        builds.append(args[1].size)
        build(self, *args)

    def counting_kappa_bar(*args):
        evaluations.append(1)
        return evaluate(*args)

    monkeypatch.setattr(affine._TauGrid, "__init__", counting_build)
    monkeypatch.setattr(affine, "kappa_bar", counting_kappa_bar)
    affine._tau_grid.cache_clear()
    bench_like_request(kern, 0.1, 1024, orders)
    assert builds == [1025, 513]
    assert len(evaluations) == 1
    assert affine._tau_grid.cache_info().currsize == 1


@pytest.mark.parametrize("c", [0.0, 0.1], ids=["c0", "c"])
@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_shared_grid_gives_the_bits_of_fresh_ones(kern, c):
    # sharing the grid moves no bit, whichever call builds it: the solve, or
    # the exponent before the solve (the half grid then comes later)
    orders = spx_g_expansion(5).orders
    want = bench_like_request(kern, c, 512, orders, fresh=True)
    affine._tau_grid.cache_clear()
    assert bench_like_request(kern, c, 512, orders) == want
    affine._tau_grid.cache_clear()
    spx_expansion_value(5, orders, kern, -0.6, 0.2, 0.1, c, 0.1, ForwardVarianceCurve.flat(0.04),
                        x=0.0, zeta=0.0, t=0.0, T=1.0, n_steps=512)
    assert affine._tau_grid(kern, 1.0, 512)._half is None
    assert bench_like_request(kern, c, 512, orders) == want


def test_shared_grid_follows_the_window():
    # one grid serves windows delta in turn, each with its own kappa_bar
    tau_grid = affine._tau_grid(POW, 1.0, 64)
    for delta in (0.1, 0.2, 0.1):
        assert np.array_equal(tau_grid.kbar(delta), kappa_bar(POW, tau_grid.grid, delta))


def test_shared_grid_arrays_are_read_only():
    sol = solve_riccati(POW, -0.7, 0.25, 0.1, 0.1, 0.1, horizon=1.0, n_steps=64)
    tau_grid = affine._tau_grid(POW, 1.0, 64)
    assert sol.grid is tau_grid.grid
    arrays = [tau_grid.kbar(0.1)]
    arrays += [array for grid in (tau_grid, tau_grid.half)
               for array in (grid.grid, grid.W, grid.E, grid.spectrum)]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@pytest.mark.parametrize("n", [8, 1000, 4096, MAX_STEPS])
@pytest.mark.parametrize("kern", [EXP, POW, FLAT], ids=["exp", "power", "flat"])
def test_half_grid_is_the_grid_of_the_even_nodes(kern, n):
    # the half grid reads the even nodes of the shared grid, a strided view;
    # built on its own from a compact copy of them it has the same bits
    affine._tau_grid.cache_clear()
    tau_grid = affine._tau_grid(kern, 1.3, n)
    assert tau_grid.half is tau_grid.half
    assert np.shares_memory(tau_grid.half.grid, tau_grid.grid)
    alone = affine._TauGrid(kern, np.linspace(0.0, 1.3, n + 1)[::2].copy())
    for name in ("grid", "W", "E", "spectrum"):
        assert getattr(tau_grid.half, name).tobytes() == getattr(alone, name).tobytes(), name


def bench_like_params(kern, c):
    crv = ForwardVarianceCurve.sampled([0.0, 0.5, 1.0], [0.04, 0.05, 0.03])
    return kern, -0.6, 0.2, 0.1, c, 0.1, crv


@pytest.mark.parametrize("c", [0.0, 0.1], ids=["c0", "c"])
@pytest.mark.parametrize("kern", [EXP, POW], ids=["exp", "power"])
def test_spx_exponent_reaches_the_solver_value_at_order_30(kern, c):
    # both sides solve the same discrete equation on the same grid, so the
    # truncation gap falls with the order until rounding is all that is left
    kern, rho, a, b, c, delta, crv = bench_like_params(kern, c)
    sol = solve_riccati(kern, rho, a, b, c, delta, horizon=1.0, n_steps=2048)
    mv = mgf_value(sol, x=0.3, curve=crv, zeta=0.2, t=0.0, T=1.0)
    gaps = [
        abs(spx_exponent(order, kern, rho, a, b, c, delta, crv, 0.3, 0.2, 0.0, 1.0,
                         n_steps=2048) - mv)
        for order in (2, 4, 8, 30)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[3] <= 1e-17


@pytest.mark.parametrize(
    "name, value, message",
    [(name, value, f"^{name} must be finite")
     for name in ("x", "zeta", "a", "b", "c", "delta", "t", "T")
     for value in (math.nan, math.inf)]
    + [("rho", 2.0, "^rho must lie"), ("rho", math.nan, "^rho must lie"),
       ("n_steps", 10**6, "^n_steps must lie"), ("n_steps", 4, "^n_steps must lie")],
)
def test_expansion_refuses_out_of_domain_inputs(name, value, message):
    kern, rho, a, b, c, delta, crv = bench_like_params(POW, 0.1)
    args = dict(kernel=kern, rho=rho, a=a, b=b, c=c, delta=delta, curve=crv, x=0.3,
                zeta=0.2, t=0.0, T=1.0, n_steps=512)
    args[name] = value
    with pytest.raises(ValueError, match=message):
        spx_expansion_value(4, spx_g_expansion(4).orders, **args)
    # one tree refuses the grid inputs it shares with the exponent
    shared = ("kernel", "rho", "delta", "curve", "t", "T", "n_steps")
    if name in shared:
        with pytest.raises(ValueError, match=message):
            tree_value(join(Y, Z), **{k: args[k] for k in shared})


def test_spx_exponent_refuses_an_overflowed_exponent():
    kern, rho, a, b, c, delta, crv = bench_like_params(EXP, 0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="order-4 exponent overflowed"):
            spx_exponent(4, kern, rho, 1e200, b, c, delta, crv, 0.0, 0.0, 0.0, 1.0,
                         n_steps=64)


def test_expansion_refuses_forests_it_cannot_stand_for():
    kern, rho, a, b, c, delta, crv = bench_like_params(POW, 0.1)
    args = (kern, rho, a, b, c, delta, crv, 0.3, 0.2, 0.0, 1.0)
    with pytest.raises(ValueError, match="exceeds the forests' top order 4"):
        spx_expansion_value(8, spx_g_expansion(4).orders, *args)
    with pytest.raises(ValueError, match="not the SPX seed"):
        spx_expansion_value(6, g_expansion(6).orders, *args)
    with pytest.raises(ValueError, match="not the SPX seed"):
        spx_expansion_value(2, {}, *args)
