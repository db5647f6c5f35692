"""Monte Carlo simulators vs exact laws, and estimator calibration."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from diamond_forests.affine import (
    ForwardVarianceCurve,
    KernelSpec,
    mgf_value,
    solve_riccati,
)
from diamond_forests import mc
from diamond_forests.errors import DomainError
from diamond_forests.mc import (
    BLOCK_PATHS,
    SimConfig,
    _central_moments,
    _cumulants_and_gradients,
    _thread_cap,
    empirical_cumulants,
    empirical_mgf,
    exact_cumulants,
    simulate,
)
from diamond_forests.models.bessel import bessel_laplace
from diamond_forests.models.brownian import stopped_bm_cgf
from diamond_forests.models.chaos2 import (
    Chaos2State,
    chaos2_cumulants,
    eigenvalue_cumulants,
    kernel_from_function,
)
from diamond_forests.models.levy import levy_alpha


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig("Banana", {}, 1000, 1, 1.0, 0)
    with pytest.raises(ValueError):
        SimConfig("BMdrift", {}, 50, 1, 1.0, 0)
    SimConfig("BMdrift", {}, mc.MAX_PATHS, 1, 1.0, 0)
    with pytest.raises(ValueError, match="n_paths"):
        SimConfig("BMdrift", {}, mc.MAX_PATHS + 1, 1, 1.0, 0)
    with pytest.raises(ValueError):
        SimConfig("BMdrift", {}, 1000, 0, 1.0, 0)
    with pytest.raises(ValueError):
        SimConfig("BMdrift", {}, 1000, 1, -1.0, 0)
    with pytest.raises(ValueError):
        SimConfig("BMdrift", {}, 1000, 1, 1.0, -3)
    # a missing required parameter is refused by name when the config is built
    with pytest.raises(ValueError, match="needs parameter 'delta'"):
        SimConfig("BESQ", {"x": 1.0}, 1000, 1, 1.0, 0)
    with pytest.raises(ValueError, match="needs parameter 'nu'"):
        SimConfig("Heston", {"xi0": 0.04}, 1000, 1, 1.0, 0)
    with pytest.raises(ValueError, match="needs a kernel"):
        SimConfig("Chaos2", {}, 1000, 1, 1.0, 0)
    for model, params in (("BMdrift", {"muu": 5.0}), ("LevyArea", {"mu": 1.0})):
        with pytest.raises(ValueError, match="takes no parameter"):
            SimConfig(model, params, 1000, 1, 1.0, 0)


def test_bm_drift_matches_law():
    cfg = SimConfig("BMdrift", {"mu": 0.3, "sigma": 1.5}, 200_000, 1, 2.0, seed=11)
    for e, want in zip(empirical_cumulants(simulate(cfg), 4), exact_cumulants(cfg, 4)):
        assert abs(e.value - want) <= 3 * e.std_error


def test_exact_cumulants_of_the_gaussian_engine():
    cfg = SimConfig("BMdrift", {"mu": 0.3, "sigma": 1.5}, 1000, 1, 2.0, seed=0)
    assert exact_cumulants(cfg, 6) == [0.6, 4.5, 0.0, 0.0, 0.0, 0.0]
    assert exact_cumulants(cfg, 1) == [0.6]
    assert exact_cumulants(SimConfig("BMdrift", {}, 1000, 1, 0.5, seed=0), 3) == [0.0, 0.5, 0.0]
    with pytest.raises(ValueError, match="max_order"):
        exact_cumulants(cfg, 0)


@pytest.mark.parametrize("n", [2, 7, 512])
def test_exact_levy_area_variance_is_the_euler_variance(n):
    # left-point Euler gives Var = T^2 (1 - 1/n) exactly
    T = 1.3
    k2 = exact_cumulants(SimConfig("LevyArea", {}, 1000, n, T, seed=0), 2)[1]
    assert k2 == pytest.approx(T * T * (1.0 - 1.0 / n), rel=1e-12)


def test_exact_chaos2_cumulants_are_the_eigenvalue_cumulants(monkeypatch):
    # SimConfig checks the kernel once, and exact_cumulants reads that state
    F = kernel_from_function(lambda s, u: 1.0 + 0.5 * s * u, 1.5, 32)
    check = Chaos2State.__post_init__
    checks = []
    monkeypatch.setattr(Chaos2State, "__post_init__", lambda self: checks.append(check(self)))
    cfg = SimConfig("Chaos2", {"kernel": F.kernel}, 1000, 32, 1.5, seed=0)
    got = exact_cumulants(cfg, 6)
    monkeypatch.undo()
    assert len(checks) == 1
    assert got == eigenvalue_cumulants(F, 6)


@pytest.mark.parametrize("model", ["BESQ", "Heston", "StoppedBM"])
def test_exact_cumulants_refuse_a_model_without_a_cumulant_law(model):
    params = {"BESQ": {"x": 0.7, "delta": 2.0}, "Heston": HESTON, "StoppedBM": {}}[model]
    cfg = SimConfig(model, params, 1000, 8, 1.0, seed=0)
    with pytest.raises(ValueError, match=f"model {model} has no exact cumulant law"):
        exact_cumulants(cfg, 2)


def test_mc_import_loads_no_model_or_solver():
    code = ("import sys, diamond_forests.mc; "
            "assert 'diamond_forests.models.chaos2' not in sys.modules; "
            "assert 'diamond_forests.affine' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", [128, 256, 512, 1024])
def test_levy_area_scheme_gap_to_the_continuous_law(n):
    # the continuous area has kappa_m = (m-1)! alpha_m T^m; the Euler scheme
    # misses kappa_2 by exactly -T^2 / n, and kappa_4, kappa_6 by about
    # -8 T^4 / n^2 and -80 T^6 / n^2: second order from order 4 on
    T = 1.2
    alphas = levy_alpha(6)
    exact = exact_cumulants(SimConfig("LevyArea", {}, 1000, n, T, seed=0), 6)
    gap = {m: exact[m - 1] - math.factorial(m - 1) * float(alphas[m]) * T**m for m in (2, 4, 6)}
    assert gap[2] == pytest.approx(-T * T / n, rel=0.0, abs=1e-14)
    assert n * n * gap[4] == pytest.approx(-8.0 * T**4, rel=0.01)
    assert n * n * gap[6] == pytest.approx(-80.0 * T**6, rel=0.01)


HESTON = {"xi0": 0.04, "nu": 0.3, "lam": 1.0, "rho": -0.7}


def test_seed_determinism_and_batch_invariance(monkeypatch):
    for model, params, steps, T in (
        ("BMdrift", {}, 1, 1.0),
        ("LevyArea", {}, 64, 1.0),
        ("StoppedBM", {"start": 0.2}, 128, 8.0),
        ("Heston", HESTON, 16, 1.0),
    ):
        cfg = SimConfig(model, params, 2 * BLOCK_PATHS + 123, steps, T, seed=7)
        monkeypatch.setenv("DIAMOND_FORESTS_THREADS", "1")
        serial = simulate(cfg).columns
        monkeypatch.setenv("DIAMOND_FORESTS_THREADS", "3")
        threaded = simulate(cfg).columns
        for name in serial:
            assert np.array_equal(serial[name], threaded[name]), (model, name)
        other = simulate(SimConfig(model, params, cfg.n_paths, steps, T, seed=8)).columns
        for name in serial:
            assert not np.array_equal(serial[name], other[name]), (model, name)


def test_thread_cap_is_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setenv("DIAMOND_FORESTS_THREADS", "100000")
    assert _thread_cap() == (os.cpu_count() or 1)
    monkeypatch.setenv("DIAMOND_FORESTS_THREADS", "0")
    assert _thread_cap() == 1


def test_besq_exact_sampler_against_transform():
    cfg = SimConfig("BESQ", {"x": 0.7, "delta": 2.0}, 400_000, 1, 1.0, seed=5)
    x = simulate(cfg).column("X")
    for lam in (0.1, 0.5):
        w = np.exp(-lam * x)
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - bessel_laplace(0.7, 2.0, lam, 1.0)) <= 3 * se


def test_besq_zero_dimension_absorbs():
    cfg = SimConfig("BESQ", {"x": 0.8, "delta": 0.0}, 400_000, 1, 1.0, seed=6)
    x = simulate(cfg).column("X")
    p0 = float((x == 0.0).mean())
    want = math.exp(-0.8 / 2.0)
    assert abs(p0 - want) <= 3 * math.sqrt(want * (1 - want) / x.size)
    assert np.all(x >= 0.0)


def _euler_levy_area(n, T, rng, m):
    """The n-step left-point Euler path loop: the cross-check for the sampler."""
    sdt = math.sqrt(T / n)
    x = np.zeros(m)
    y = np.zeros(m)
    a = np.zeros(m)
    for _ in range(n):
        z = rng.standard_normal((2, m))
        dx = sdt * z[0]
        dy = sdt * z[1]
        a += x * dy - y * dx
        x += dx
        y += dy
    return a


@pytest.mark.parametrize("n", [4, 7, 256])
def test_euler_area_matrix_eigenvalues_are_cotangents(n):
    # the Euler area is dx' S dy with S_ij = sign(j - i); iS is Hermitian
    i = np.arange(n)
    S = np.sign(i[None, :] - i[:, None]).astype(float)
    k = np.arange(1, n + 1)
    want = np.sort(1.0 / np.tan((2 * k - 1) * math.pi / (2 * n)))
    got = np.linalg.eigvalsh(1j * S)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    np.testing.assert_allclose(mc._levy_weights(n, float(n)), want[::-1][: n // 2], rtol=1e-14)


@pytest.mark.parametrize("n", [7, 16])
def test_levy_area_samplers_meet_the_exact_discrete_cumulants(n):
    # both samplers against the exact discrete law, whose variance is pinned
    cfg =SimConfig("LevyArea", {}, 200_000, n, 1.0, seed=31)
    want = dict(enumerate(exact_cumulants(cfg, 4), start=1))
    assert want[2] == pytest.approx(1.0 - 1.0 / n, rel=1e-12)
    exact = simulate(cfg).column("A")
    euler = _euler_levy_area(n, 1.0, np.random.Generator(np.random.Philox(key=[31, 0])), 200_000)
    for sample in (exact, euler):
        est = empirical_cumulants(sample, 4)
        for order in (2, 4):
            e = est[order - 1]
            assert abs(e.value - want[order]) <= 3 * e.std_error


def test_one_step_levy_area_is_zero():
    cfg = SimConfig("LevyArea", {}, 1000, 1, 1.0, seed=4)
    assert not simulate(cfg).column("A").any()
    assert exact_cumulants(cfg, 6) == [0.0] * 6


def test_levy_area_variance_with_euler_bias():
    # left-point Euler gives Var = T^2 (1 - 1/n) exactly; refinement halves the gap
    k2 = {}
    for n in (128, 256):
        cfg = SimConfig("LevyArea", {}, 200_000, n, 1.0, seed=9)
        est = empirical_cumulants(simulate(cfg), 2)
        k2[n] = est[1]
        assert abs(est[1].value - exact_cumulants(cfg, 2)[1]) <= 3 * est[1].std_error
    band = 3 * math.hypot(k2[128].std_error, k2[256].std_error)
    assert abs(k2[128].value - k2[256].value) <= band


def test_stopped_bm_matches_exact_cgf():
    cfg = SimConfig("StoppedBM", {"start": 0.2}, 150_000, 256, 8.0, seed=3)
    x = simulate(cfg).column("X")
    assert set(np.unique(x)) <= {-1.0, 1.0}
    for u in (0.4, -1.0):
        w = np.exp(u * x)
        se_log = w.std(ddof=1) / math.sqrt(w.size) / w.mean()
        assert abs(math.log(w.mean()) - stopped_bm_cgf(0.2, u)) <= 3 * se_log


@pytest.mark.parametrize("start", [1.0, -1.0])
def test_stopped_bm_started_on_a_barrier_stays_there(start):
    cfg = SimConfig("StoppedBM", {"start": start}, 100_000, 128, 8.0, seed=3)
    assert np.all(simulate(cfg).column("X") == start)


def test_heston_mgf_cross_consistency():
    kern = KernelSpec.exponential(nu=0.3, lam=1.0)
    crv = ForwardVarianceCurve.flat(0.04)
    a, b, rho = 0.25, 0.1, -0.7
    sol = solve_riccati(kern, rho, a, b, 0.0, 0.1, horizon=1.0, n_steps=2048)
    mv = mgf_value(sol, 0.0, crv, 0.0, 0.0, 1.0)
    cfg = SimConfig(
        "Heston",
        {"xi0": 0.04, "nu": 0.3, "lam": 1.0, "rho": -0.7},
        120_000,
        256,
        1.0,
        seed=17,
    )
    s = simulate(cfg)
    est = empirical_mgf(s, (a, b, 0.0))
    se_log = est.std_error / est.value
    assert abs(math.log(est.value) - mv) <= 3 * se_log
    qv = s.column("QV")
    assert abs(qv.mean() - 0.04) <= 3 * qv.std(ddof=1) / math.sqrt(qv.size)


def test_heston_zeta_channel_cross_consistency():
    # weight on the post-horizon variance swap exercises the zeta column
    kern = KernelSpec.exponential(nu=0.3, lam=1.0)
    crv = ForwardVarianceCurve.flat(0.04)
    a, b, c = 0.25, 0.1, 0.8
    sol = solve_riccati(kern, -0.7, a, b, c, 0.1, horizon=1.0, n_steps=2048)
    mv = mgf_value(sol, 0.0, crv, zeta=0.04 * 0.1, t=0.0, T=1.0)
    cfg = SimConfig(
        "Heston",
        {"xi0": 0.04, "nu": 0.3, "lam": 1.0, "rho": -0.7, "window": 0.1},
        120_000,
        256,
        1.0,
        seed=17,
    )
    est = empirical_mgf(simulate(cfg), (a, b, c))
    se_log = est.std_error / est.value
    assert abs(math.log(est.value) - mv) <= 3 * se_log


def _euler_heston(cfg, rng, m):
    """The two-normal Euler loop, db = rho dw + rho_perp sqrt(dt) z drawn at
    every step: the cross-check for the sampler's conditional draw of X."""
    xi0, nu, lam, rho = (cfg.param(k) for k in ("xi0", "nu", "lam", "rho"))
    window = cfg.param("window")
    dt = cfg.horizon / cfg.n_steps
    sdt = math.sqrt(dt)
    rho_perp = math.sqrt(max(0.0, 1.0 - rho * rho))
    v = np.full(m, xi0)
    x = np.zeros(m)
    qv = np.zeros(m)
    for _ in range(cfg.n_steps):
        z = rng.standard_normal((2, m))
        dw = sdt * z[0]
        db = rho * dw + rho_perp * sdt * z[1]
        vp = np.maximum(v, 0.0)
        sv = np.sqrt(vp)
        x += -0.5 * vp * dt + sv * db
        qv += vp * dt
        v += lam * (xi0 - vp) * dt + nu * sv * dw
    vT = np.maximum(v, 0.0)
    zeta = xi0 * window + (vT - xi0) * (1.0 - math.exp(-lam * window)) / lam
    return {"X": x, "QV": qv, "zeta": zeta}


class _SharedIncrements:
    """A generator stub that hands both Heston samplers the same variance
    increments: row k is the first normal of step k, and every other normal (the
    loop's second normal, the sampler's final Z) is zero."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def standard_normal(self, size=None, out=None):
        if isinstance(size, tuple):
            return np.stack([next(self.rows), np.zeros(size[1])])
        row = next(self.rows, np.zeros(size if out is None else out.shape))
        if out is None:
            return row
        out[...] = row
        return out


HESTON_CASES = {
    "base": HESTON,
    "rho=+1": dict(HESTON, rho=1.0),
    "rho=-1": dict(HESTON, rho=-1.0),
    "nu=0": dict(HESTON, nu=0.0),
    "xi0=0": dict(HESTON, xi0=0.0),
}


@pytest.mark.parametrize(
    "params",
    [*HESTON_CASES.values(), dict(HESTON, nu=1.5)],
    ids=[*HESTON_CASES, "v<0 truncated"],
)
def test_heston_sampler_shares_the_euler_variance_path(params):
    # v_T enters the output only through zeta, an affine function of it
    n, m = 128, 1000
    cfg = SimConfig("Heston", params, m, n, 1.0, seed=0)
    rows = np.random.Generator(np.random.Philox(key=[5, 0])).standard_normal((n, m))
    euler = _euler_heston(cfg, _SharedIncrements(rows), m)
    sampled = mc._sim_heston(cfg, _SharedIncrements(rows), m)
    assert np.array_equal(sampled["QV"], euler["QV"])
    assert np.array_equal(sampled["zeta"], euler["zeta"])
    # with the second normal at zero, X is its conditional mean -QV/2 + rho M
    np.testing.assert_allclose(sampled["X"], euler["X"], rtol=0.0, atol=1e-12)


def _joint_cumulants(columns):
    """(value, standard error) of kappa_1..4 of X, then of the cross cumulants
    kappa_11 and kappa_21 of (X, QV), each with the standard error of its
    influence function (the centring enters kappa_21 at first order)."""
    x, q = columns["X"], columns["QV"]
    dx = x - x.mean()
    dq = q - q.mean()
    k11 = float(np.mean(dx * dq))
    k21 = float(np.mean(dx * dx * dq))
    influence = ((k11, dx * dq), (k21, dx * dx * dq - 2.0 * k11 * dx - np.mean(dx * dx) * dq))
    return [(e.value, e.std_error) for e in empirical_cumulants(x, 4)] + [
        (k, float(f.std(ddof=1)) / math.sqrt(x.size)) for k, f in influence
    ]


@pytest.mark.parametrize("n", [8, 128])
@pytest.mark.parametrize("params", HESTON_CASES.values(), ids=HESTON_CASES)
def test_heston_sampler_meets_the_euler_joint_law(params, n):
    # independent streams: the sampler takes block 0 of seed 23, the loop block 1
    m = BLOCK_PATHS // 2
    cfg = SimConfig("Heston", params, m, n, 1.0, seed=23)
    sampled = _joint_cumulants(simulate(cfg).columns)
    euler = _joint_cumulants(
        _euler_heston(cfg, np.random.Generator(np.random.Philox(key=[23, 1])), m)
    )
    for (got, se_got), (want, se_want) in zip(sampled, euler):
        assert abs(got - want) <= 3.0 * math.hypot(se_got, se_want)


def test_chaos2_simulator_matches_recursion():
    F = kernel_from_function(
        lambda s, u: 1.0 + 0.3 * np.cos(np.pi * s) * np.cos(2 * np.pi * u), 1.0, 64
    )
    kappas = chaos2_cumulants(F, 4)
    cfg = SimConfig("Chaos2", {"kernel": F.kernel}, 400_000, 64, 1.0, seed=21)
    est = empirical_cumulants(simulate(cfg), 4)
    for e in est:
        assert abs(e.value - kappas[e.order - 1]) <= 3.5 * max(e.std_error, 1e-12)


def test_samples_do_not_depend_on_the_chunk_size(monkeypatch):
    F = kernel_from_function(lambda s, u: 1.0 + 0.5 * s * u, 1.0, 16)
    default, default_slab = mc.DRAW_CHUNK, mc.CHAOS2_SLAB
    for model, params in (("Chaos2", {"kernel": F.kernel}), ("LevyArea", {}), ("Heston", HESTON)):
        cfg = SimConfig(model, params, 5000, 16, 1.0, seed=3)
        monkeypatch.setattr(mc, "DRAW_CHUNK", default)
        monkeypatch.setattr(mc, "CHAOS2_SLAB", default_slab)
        columns = simulate(cfg).columns
        for chunk in (1, 16 * 7, 1 << 21):
            monkeypatch.setattr(mc, "DRAW_CHUNK", chunk)
            # Chaos2's slab caps its rows too: 1, 7 and all rows at M = 16, as the chunk
            monkeypatch.setattr(mc, "CHAOS2_SLAB", chunk * 16)
            for name, x in simulate(cfg).columns.items():
                # same draws in the same order; a one-row chunk may round differently
                gap = np.max(np.abs(x - columns[name]))
                assert gap <= 1e-15 * np.max(np.abs(x)), (model, chunk, name)


def test_chaos2_kernel_validation():
    # the kernel is checked once, by Chaos2State, when the config is built
    nan = np.triu(np.ones((4, 4)), 1)
    nan[0, 3] = math.nan
    for kernel, message in (
        (np.eye(4), "strictly upper triangular"),
        (np.ones((2, 3)), "square matrix"),
        (np.zeros((0, 0)), "M >= 1"),
        (nan, "kernel must be finite"),
        (np.where(np.isnan(nan), math.inf, nan), "kernel must be finite"),
    ):
        with pytest.raises(DomainError, match=message):
            SimConfig("Chaos2", {"kernel": kernel}, 1000, 4, 1.0, seed=0)


def test_cumulant_estimator_coverage_on_normals():
    hits = total = 0
    truth = {1: 0.0, 2: 1.0, 3: 0.0, 4: 0.0}
    for seed in range(100):
        x = np.random.Generator(np.random.Philox(key=[seed, 0])).standard_normal(4000)
        for e in empirical_cumulants(x, 4):
            total += 1
            hits += abs(e.value - truth[e.order]) <= 3 * e.std_error
    assert hits / total > 0.99


def test_centered_chi_square_cumulants_through_order_six():
    # (chi^2_1 - 1)/2 has kappa_n = (n-1)!/2: the second-chaos constant kernel law
    rng = np.random.Generator(np.random.Philox(key=[42, 0]))
    y = (rng.standard_normal(400_000) ** 2 - 1.0) / 2.0
    want = {1: 0.0, 2: 0.5, 3: 1.0, 4: 3.0, 5: 12.0, 6: 60.0}
    for e in empirical_cumulants(y, 6):
        assert abs(e.value - want[e.order]) <= 3.5 * e.std_error
        assert e.method == ("plug-in" if e.order >= 5 else "k-statistic")


def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_cumulant_recursion_and_gradient_on_poisson_moments():
    # Poisson(lam) has raw moments sum_k S(n, k) lam^k and every cumulant lam
    lam, r = 0.7, 6
    mu = [sum(_stirling2(n, k) * lam**k for k in range(n + 1)) for n in range(r + 1)]
    kap, grad = _cumulants_and_gradients(mu, r)
    assert kap[1:] == pytest.approx([lam] * r, rel=1e-12)
    h = 1e-5
    fd = np.zeros_like(grad)
    for j in range(1, r + 1):
        up, down = list(mu), list(mu)
        up[j] += h
        down[j] -= h
        fd[:, j] = (_cumulants_and_gradients(up, r)[0] - _cumulants_and_gradients(down, r)[0]) / (2 * h)
    np.testing.assert_allclose(grad[:, 1:], fd[:, 1:], rtol=1e-6, atol=1e-6 * np.abs(grad).max())
    assert not grad[:, 0].any()


def _fisher_variances(x):
    """Large-sample variances of k1..k4 (Fisher), cumulants to order 8 plugged in."""
    n = x.size
    m = _central_moments(x, 8)
    k2, k3, k4 = m[2], m[3], m[4] - 3 * m[2] ** 2
    k5 = m[5] - 10 * m[3] * m[2]
    k6 = m[6] - 15 * m[4] * m[2] - 10 * m[3] ** 2 + 30 * m[2] ** 3
    k8 = (
        m[8] - 28 * m[6] * m[2] - 56 * m[5] * m[3] - 35 * m[4] ** 2
        + 420 * m[4] * m[2] ** 2 + 560 * m[3] ** 2 * m[2] - 630 * m[2] ** 4
    )
    return [
        k2 / n,
        k4 / n + 2 * k2**2 / (n - 1),
        k6 / n + 9 * k2 * k4 / (n - 1) + 9 * k3**2 / (n - 1)
        + 6 * n * k2**3 / ((n - 1) * (n - 2)),
        k8 / n + 16 * k2 * k6 / (n - 1) + 48 * k3 * k5 / (n - 1) + 34 * k4**2 / (n - 1)
        + 72 * n * k2**2 * k4 / ((n - 1) * (n - 2))
        + 144 * n * k2 * k3**2 / ((n - 1) * (n - 2))
        + 24 * n * (n + 1) * k2**4 / ((n - 1) * (n - 2) * (n - 3)),
    ]


@pytest.mark.parametrize("law", ["normal", "centred-chi2"])
def test_low_order_standard_errors_match_fisher(law):
    z = np.random.Generator(np.random.Philox(key=[11, 0])).standard_normal(131_072)
    x = z if law == "normal" else (z * z - 1.0) / 2.0
    for e, var in zip(empirical_cumulants(x, 4), _fisher_variances(x)):
        assert e.std_error == pytest.approx(math.sqrt(var), rel=1e-4)


def test_high_order_standard_errors_match_a_bootstrap():
    rng = np.random.Generator(np.random.Philox(key=[12, 0]))
    x = rng.standard_normal(131_072)
    est = empirical_cumulants(x, 6)
    reps = []
    for _ in range(400):
        mu = _central_moments(x[rng.integers(0, x.size, x.size)], 6)
        reps.append(_cumulants_and_gradients(mu, 6)[0][5:])
    boot = np.std(reps, axis=0, ddof=1)
    for e, se in zip(est[4:], boot):
        assert 0.8 <= e.std_error / se <= 1.25


def test_high_order_coverage_on_normals():
    hits = 0
    for seed in range(200):
        x = np.random.Generator(np.random.Philox(key=[seed, 1])).standard_normal(4000)
        hits += sum(abs(e.value) <= 3 * e.std_error for e in empirical_cumulants(x, 6)[4:])
    assert hits / 400 >= 0.98


def test_constant_samples_give_exact_zero_cumulants():
    est = empirical_cumulants(np.full(500, 2.5), 4)
    assert est[0].value == 2.5
    for e in est[1:]:
        assert e.value == 0.0


def test_estimator_input_guards():
    with pytest.raises(DomainError):
        empirical_cumulants(np.zeros(40), 5)
    with pytest.raises(ValueError):
        empirical_cumulants(np.zeros(1000), 7)
    with pytest.raises(ValueError):
        empirical_cumulants(np.zeros((10, 10)), 2)


def test_empirical_mgf_values_and_guards():
    zero = empirical_mgf({"X": np.arange(200.0)}, (0.0, 0.0, 0.0))
    assert zero.value == 1.0 and zero.std_error == 0.0
    cfg = SimConfig("BMdrift", {"mu": 0.1, "sigma": 1.0}, 200_000, 1, 1.0, seed=2)
    s = simulate(cfg)
    a = 0.3
    est = empirical_mgf(s, (a, 0.0, 0.0))
    want = math.exp(a * 0.1 + 0.5 * a * a)
    assert abs(est.value - want) <= 3 * est.std_error
    with pytest.raises(DomainError):
        empirical_mgf(s, (0.0, 1.0, 0.0))  # no QV column for plain BM


def test_empirical_mgf_log_value_survives_under_and_overflow():
    x = np.linspace(0.0, 1.0, 2000)
    w = np.exp(x)
    want = math.log(w.mean())
    want_se = w.std(ddof=1) / (math.sqrt(w.size) * w.mean())
    tail = np.sort(w)[-2:].sum() / w.sum()
    for shift, value in ((-1000.0, 0.0), (0.0, w.mean()), (1000.0, math.inf)):
        with np.errstate(over="ignore", invalid="ignore"):
            est = empirical_mgf({"X": x + shift}, (1.0, 0.0, 0.0))
        assert est.log_value == pytest.approx(shift + want, abs=1e-12)
        assert est.log_std_error == pytest.approx(want_se, rel=1e-12)
        assert est.value == pytest.approx(value)
        assert est.tail_share == pytest.approx(tail) and not est.tail_warning
    none = empirical_mgf({"X": x}, (0.0, 0.0, 0.0))
    assert none.log_value == 0.0 and none.log_std_error == 0.0


def test_empirical_mgf_tail_warning():
    bad = np.concatenate([np.zeros(9_990), np.full(10, 50.0)])
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        est = empirical_mgf({"X": bad}, (1.0, 0.0, 0.0))
    assert est.tail_warning and est.tail_share > 0.2
    assert any("MGF" in str(w.message) for w in rec)
