"""Second-chaos cumulants: grid diamond vs eigenvalue and contraction oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond_forests.errors import DomainError
from diamond_forests.mc import SimConfig, simulate
from diamond_forests.models.chaos2 import (
    Chaos2State,
    chaos2_cumulants,
    constant_kernel,
    eigenvalue_cumulants,
    kernel_from_function,
    spectral_cumulants,
)


def random_cosine_kernel(T, M, seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, size=(3, 3))

    def fn(s, u):
        out = np.zeros_like(s)
        for p in range(3):
            for q in range(3):
                out = out + c[p, q] * np.cos(np.pi * p * s) * np.cos(np.pi * q * u)
        return out

    return kernel_from_function(fn, T, M)


def contraction_oracle_kappa3(state: Chaos2State) -> float:
    """3 * <f, f (x)_1 f> on the grid, via masked loops (independent path)."""
    F = state.kernel
    M = state.M
    h = state.h
    idx = np.arange(M)
    # c(r, s) = 2 h * sum_{u > max(r, s)} f(r, u) f(s, u), both orders folded
    c = np.zeros((M, M))
    for r in range(M):
        for s in range(r + 1, M):
            u = idx[idx > s]
            c[r, s] = 2.0 * h * float(np.dot(F[r, u], F[s, u]))
    inner = h * h * float(np.sum(F * c))
    return 3.0 * inner


def test_state_validation():
    with pytest.raises(ValueError):
        Chaos2State(kernel=np.eye(4), scalar=0.0, T=1.0)
    a = constant_kernel(1.0, 8)
    b = constant_kernel(1.0, 16)
    with pytest.raises(ValueError):
        a.diamond(b)
    c = constant_kernel(2.0, 8)
    with pytest.raises(ValueError):
        a.diamond(c)


@pytest.mark.parametrize("entry", [(2, 1), (3, 3)], ids=["below", "diagonal"])
def test_tiny_entry_on_or_below_the_diagonal_is_refused_by_state_and_sampler(entry):
    # the state and the sampler refuse the same kernels: no tolerance, no silent zeroing
    k = constant_kernel(1.0, 4).kernel.copy()
    k[entry] = 5e-9
    with pytest.raises(ValueError, match="strictly upper triangular"):
        Chaos2State(kernel=k, scalar=0.0, T=1.0)
    with pytest.raises(DomainError, match="strictly upper triangular"):
        simulate(SimConfig("Chaos2", {"kernel": k}, 1000, 4, 1.0, seed=0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_kernel_is_refused(value):
    # unchecked, a NaN kernel gives chaos2_cumulants [0.0, nan, nan]
    with pytest.raises(DomainError, match="kernel must be finite"):
        constant_kernel(1.0, 4, value)
    k = constant_kernel(1.0, 4).kernel.copy()
    k[1, 3] = value
    with pytest.raises(DomainError, match="kernel must be finite"):
        Chaos2State(kernel=k, scalar=0.0, T=1.0)


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_horizon_not_finite_and_positive_is_refused(T):
    # unchecked, T = -1 makes the step h negative and flips the sign of kappa_3
    with pytest.raises(DomainError, match="T must be finite and positive"):
        constant_kernel(T, 4)
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="T must be finite"):
        kernel_from_function(lambda w, v: np.ones_like(w), T, 4)


@pytest.mark.parametrize("M", [0, -3])
def test_grid_below_one_point_is_refused(M):
    with pytest.raises(ValueError, match="M"):
        constant_kernel(1.0, M)
    with pytest.raises(ValueError, match="M >= 1"):
        Chaos2State(kernel=np.zeros((0, 0)), scalar=0.0, T=1.0)


def test_zero_kernel_gives_zero_state():
    z = Chaos2State(kernel=np.zeros((16, 16)), scalar=0.0, T=1.0)
    d = z.diamond(z)
    assert d.scalar == 0.0
    assert not d.kernel.any()


def test_constant_kernel_diamond_closed_form():
    # f = g = 1 on the simplex: scalar is the discrete simplex area and the
    # kernel is 2(1 - max(r, s)) up to the O(h) left-point offset
    T, M = 1.0, 256
    st = constant_kernel(T, M)
    d = st.diamond(st)
    h = T / M
    assert d.scalar == pytest.approx(h * h * M * (M - 1) / 2, rel=1e-14)
    assert d.scalar == pytest.approx(0.5, abs=2 * h)
    grid = h * np.arange(M)
    continuum = 2.0 * (1.0 - np.maximum.outer(grid, grid))
    mask = np.triu(np.ones((M, M), dtype=bool), 1)
    gap = np.max(np.abs(d.kernel[mask] - continuum[mask]))
    assert gap <= 2.5 * h


def test_constant_kernel_cumulants_with_richardson():
    # A = (B_1^2 - 1)/2 has kappa_n = (n-1)!/2; first-order grid convergence
    targets = {2: 0.5, 3: 1.0, 4: 3.0}
    values = {
        M: chaos2_cumulants(constant_kernel(1.0, M), 4) for M in (128, 256, 512)
    }
    for n, target in targets.items():
        errs = [abs(values[M][n - 1] - target) for M in (128, 256, 512)]
        slope = math.log2(errs[1] / errs[2])
        assert 0.7 <= slope <= 1.3, (n, slope)
        extrapolated = 2 * values[512][n - 1] - values[256][n - 1]
        assert abs(extrapolated - target) <= 5e-3, (n, extrapolated)


def test_kappa1_is_zero_and_kappa2_is_kernel_norm():
    st = random_cosine_kernel(1.0, 128, seed=5)
    ks = chaos2_cumulants(st, 3)
    assert ks[0] == 0.0
    norm2 = st.h**2 * float(np.sum(st.kernel**2))
    assert ks[1] == pytest.approx(norm2, rel=1e-13)


def test_kappa3_matches_contraction_oracle():
    for seed in (0, 1):
        st = random_cosine_kernel(1.0, 64, seed=seed)
        ks = chaos2_cumulants(st, 3)
        assert ks[2] == pytest.approx(contraction_oracle_kappa3(st), rel=1e-11)


def test_routes_agree_on_low_cumulants():
    # the symmetrized-trace route and the diamond recursion coincide to
    # rounding for kappa_2 and kappa_3 on any fixed grid; kappa_4 differs at
    # O(h) with a first-order decay of the gap
    for seed in range(5):
        gaps = {}
        for M in (64, 128):
            st = random_cosine_kernel(1.0, M, seed=seed)
            kd = chaos2_cumulants(st, 4)
            ke = eigenvalue_cumulants(st, 4)
            scale = max(1.0, abs(kd[1]))
            assert abs(kd[1] - ke[1]) <= 1e-12 * scale
            assert abs(kd[2] - ke[2]) <= 1e-11 * max(1.0, abs(kd[2]))
            gaps[M] = abs(kd[3] - ke[3])
        if gaps[64] > 1e-8:
            assert gaps[128] <= 0.75 * gaps[64], (seed, gaps)


def test_route_extrapolations_land_in_common_band():
    for seed in range(5):
        per_route = {}
        for route, fn in (("d", chaos2_cumulants), ("e", eigenvalue_cumulants)):
            vals = {
                M: fn(random_cosine_kernel(1.0, M, seed=seed), 3)
                for M in (128, 256)
            }
            per_route[route] = {
                n: 2 * vals[256][n - 1] - vals[128][n - 1] for n in (2, 3)
            }
        for n in (2, 3):
            band = 1e-9 + 0.5 * sum(
                abs(
                    fn(random_cosine_kernel(1.0, 256, seed=seed), 3)[n - 1]
                    - fn(random_cosine_kernel(1.0, 128, seed=seed), 3)[n - 1]
                )
                for fn in (chaos2_cumulants, eigenvalue_cumulants)
            )
            assert abs(per_route["d"][n] - per_route["e"][n]) <= band


def test_eigenvalue_route_constant_kernel_is_rank_one_limit():
    # continuum limit: single eigenvalue 1/2, so kappa_n -> 2^{n-1}(n-1)!/2^n
    st = constant_kernel(1.0, 512)
    ke = eigenvalue_cumulants(st, 4)
    assert ke[1] == pytest.approx(0.5, abs=5e-3)
    assert ke[2] == pytest.approx(1.0, abs=2e-2)
    assert ke[3] == pytest.approx(3.0, abs=8e-2)


# ---------------------------------------------------------------------------
# invariants of the states that +, scale and diamond build without re-checking


def two_product_diamond(f: Chaos2State, g: Chaos2State):
    """Reference diamond with both contraction products, h (F G^T + G F^T)."""
    F, G, h = f.kernel, g.kernel, f.h
    return np.triu(h * (F @ G.T + G @ F.T), 1), float(h * h * np.sum(F * G))


@st.composite
def state_pairs(draw):
    """Two states on one grid: M in 1..12, entries in [-1, 1] above the diagonal."""
    M = draw(st.integers(min_value=1, max_value=12))
    T = draw(st.floats(min_value=0.1, max_value=4.0))
    entries = st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=M * M, max_size=M * M
    )
    f, g = (
        Chaos2State(kernel=np.triu(np.reshape(draw(entries), (M, M)), 1), scalar=0.0, T=T)
        for _ in range(2)
    )
    return f, (f if draw(st.booleans()) else g)


def strictly_upper(state: Chaos2State) -> bool:
    return not np.tril(state.kernel).any()


@given(state_pairs(), st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=200, deadline=None)
def test_built_states_stay_strictly_upper_triangular(pair, q):
    f, g = pair
    for state in (f + g, f.scale(q), f.diamond(g), f.diamond(g).diamond(f) + g.scale(0.5)):
        assert strictly_upper(state)


@given(state_pairs())
@settings(max_examples=200, deadline=None)
def test_diamond_matches_the_two_product_reference(pair):
    f, g = pair
    kernel, scalar = two_product_diamond(f, g)
    got = f.diamond(g)
    F, G = np.abs(f.kernel), np.abs(g.kernel)
    scale = f.h * float(np.max(F @ G.T + G @ F.T))
    assert np.max(np.abs(got.kernel - kernel)) <= 1e-15 * scale
    assert got.scalar == scalar


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
def test_non_finite_scale_is_refused(q):
    with pytest.raises(ValueError, match="finite"):
        constant_kernel(1.0, 4).scale(q)


def test_spectral_cumulants_of_the_laplace_law():
    # a standard Laplace is (Z1^2 + Z2^2 - Z3^2 - Z4^2) / 2: kappa_2j = 2 (2j-1)!
    got = spectral_cumulants(np.array([0.5, 0.5, -0.5, -0.5]), 6)
    assert got == [0.0, 2.0, 0.0, 12.0, 0.0, 240.0]
    with pytest.raises(ValueError, match="n_max"):
        spectral_cumulants(np.ones(3), 0)
