"""Squared-Bessel Laplace transforms via the backward Gamma recursion."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diamond_forests.errors import DomainError
from diamond_forests.models.bessel import (
    bessel_gamma,
    bessel_laplace,
    bessel_laplace_series,
    euler_average,
    psi_series,
)


def test_gamma_terminal_values_vanish():
    st = bessel_gamma(10, lambda s: np.ones_like(s), 0.0, 2.0, grid=512)
    for n, g in st.gammas.items():
        assert g[-1] == 0.0, n


def test_gamma2_exact_for_linear_weight():
    # trapezoid quadrature is exact on linear integrands
    t, T = 0.5, 2.0
    st = bessel_gamma(2, lambda s: 1.0 + 0.5 * s, t, T, grid=256)
    s = st.grid
    expected = 2.0 * ((T - s) + 0.25 * (T**2 - s**2))
    np.testing.assert_allclose(st.gammas[2], expected, rtol=1e-13)


def ladder_gammas(n_max, mu, t, T, grid):
    """Reference Gammas: the backward ladder -Gamma_n' = sum Gamma_j Gamma_k,
    each order integrated from T by the composite trapezoid rule."""
    s = np.linspace(t, T, grid)

    def from_right(values):
        out = np.zeros_like(values)
        out[:-1] = (np.diff(s) * 0.5 * (values[1:] + values[:-1]))[::-1].cumsum()[::-1]
        return out

    gammas = {2: 2.0 * from_right(np.asarray(mu(s), dtype=float))}
    for n in range(4, n_max + 1, 2):
        gammas[n] = from_right(sum(gammas[j] * gammas[n - j] for j in range(2, n - 1, 2)))
    return gammas


@pytest.mark.parametrize(
    "mu",
    [lambda s: np.ones_like(s), lambda s: 1.0 + 0.5 * s, lambda s: 1.0 + 0.5 * np.sin(3.0 * s)],
    ids=["flat", "linear", "sine"],
)
@pytest.mark.parametrize("grid", [2, 3, 5, 256, 4096, 8192])
def test_gammas_match_the_trapezoid_ladder(mu, grid):
    # the flat-kernel product integration is the trapezoid rule, so the affine
    # states reproduce the ladder up to the rounding of the FFT convolution
    for t in (0.0, 0.5):
        got = bessel_gamma(24, mu, t, 2.0, grid=grid)
        want = ladder_gammas(24, mu, t, 2.0, grid)
        assert sorted(got.gammas) == sorted(want)
        for n, g in want.items():
            gap = np.max(np.abs(got.gammas[n] - g))
            assert gap <= 1e-12 * np.max(np.abs(g)), (n, t, gap)


def test_gamma_dirac_polynomials():
    st = bessel_gamma(8, "dirac", 0.0, 1.0, grid=5)
    s = st.grid
    np.testing.assert_allclose(st.gammas[2], 2.0 * np.ones_like(s))
    np.testing.assert_allclose(st.gammas[4], 4.0 * (1.0 - s))
    np.testing.assert_allclose(st.gammas[6], 8.0 * (1.0 - s) ** 2)
    np.testing.assert_allclose(st.gammas[8], 16.0 * (1.0 - s) ** 3)
    assert st.dirac


def test_gamma_rejects_negative_weight():
    with pytest.raises(DomainError):
        bessel_gamma(4, lambda s: np.sin(20 * s), 0.0, 1.0, grid=128)


@pytest.mark.parametrize("name, value", [("t", math.nan), ("T", math.inf), ("T", math.nan)])
def test_gamma_refuses_non_finite_times(name, value):
    args = {"t": 0.0, "T": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        bessel_gamma(4, lambda s: np.ones_like(s), grid=16, **args)


@pytest.mark.parametrize(
    "args, error, message",
    [
        (dict(n_max=5), ValueError, "n_max must be an even integer"),
        (dict(n_max=0), ValueError, "n_max must be an even integer"),
        (dict(t=1.0), DomainError, "need t < T"),
        (dict(t=1.5), DomainError, "need t < T"),
        (dict(grid=1), ValueError, "grid must have at least 2 points"),
        (dict(mu="delta"), ValueError, "unknown weight spec 'delta'"),
        (dict(mu=lambda s: np.ones(3)), ValueError, "mu\\(s\\) must return an array matching"),
        (dict(mu=lambda s: 1.0), ValueError, "mu\\(s\\) must return an array matching"),
    ],
    ids=["n_max-odd", "n_max-zero", "t-equals-T", "t-after-T", "grid-one", "unknown-spec",
         "mu-wrong-length", "mu-scalar"],
)
def test_gamma_refuses_inputs_outside_its_domain(args, error, message):
    full = dict(n_max=4, mu=lambda s: np.ones_like(s), t=0.0, T=1.0, grid=16)
    full.update(args)
    with pytest.raises(error, match=message):
        bessel_gamma(**full)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gamma_refuses_non_finite_weight(bad):
    with pytest.raises(ValueError, match="mu must be finite"):
        bessel_gamma(4, lambda s: np.where(s > 0.5, bad, 1.0), 0.0, 1.0, grid=16)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_psi_series_refuses_non_finite_lam(bad):
    st = bessel_gamma(4, "dirac", 0.0, 1.0, grid=16)
    with pytest.raises(ValueError, match="lam must be finite"):
        psi_series(st, bad)


def test_psi_series_vs_ode_smooth_weight():
    lam, T = 0.3, 1.0

    def mu(s):
        return 1.0 + 0.5 * s

    st = bessel_gamma(24, mu, 0.0, T, grid=4096)
    psi = psi_series(st, lam)
    sol = solve_ivp(
        lambda s, y: 2.0 * lam * mu(s) - y[0] ** 2,
        [T, 0.0],
        [0.0],
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    psi_ode = sol.sol(st.grid)[0]
    assert np.max(np.abs(psi - psi_ode)) < 1e-5


def test_psi_partial_sums_gap_decreases_with_order():
    lam, T = 0.2, 1.0
    st = bessel_gamma(16, lambda s: np.ones_like(s), 0.0, T, grid=4096)
    sol = solve_ivp(
        lambda s, y: 2.0 * lam - y[0] ** 2,
        [T, 0.0],
        [0.0],
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    psi_ode = sol.sol(st.grid)[0]
    gaps = []
    partial = np.zeros_like(st.grid)
    for n in range(2, 17, 2):
        partial = partial + (-lam) ** (n // 2) * st.gammas[n]
        gaps.append(np.max(np.abs(partial - psi_ode)))
    for prev, nxt in zip(gaps, gaps[1:]):
        assert nxt < prev * 0.5, gaps


def test_closed_form_pinned_values():
    assert bessel_laplace(1.7, 3.0, 0.0, 2.0) == 1.0
    assert bessel_laplace(0.0, 2.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    x, d, lam, T = 0.8, 1.5, 0.4, 2.0
    expected = (1 + 2 * lam * T) ** (-d / 2) * math.exp(-lam * x / (1 + 2 * lam * T))
    assert bessel_laplace(x, d, lam, T) == pytest.approx(expected, rel=1e-15)


def test_closed_form_rejects_bad_arguments():
    with pytest.raises(DomainError):
        bessel_laplace(1.0, 2.0, -0.1, 1.0)
    with pytest.raises(DomainError):
        bessel_laplace(-1.0, 2.0, 0.1, 1.0)
    with pytest.raises(DomainError):
        bessel_laplace(1.0, -2.0, 0.1, 1.0)


@pytest.mark.parametrize("fn", [bessel_laplace, bessel_laplace_series])
@pytest.mark.parametrize(
    "name, value, message",
    [
        ("lam", -0.1, r"lambda must be >= 0 \(Laplace side only\)"),
        ("x", -1.0, r"need x >= 0, delta >= 0, T > 0"),
        ("delta", -2.0, r"need x >= 0, delta >= 0, T > 0"),
        ("T", 0.0, r"need x >= 0, delta >= 0, T > 0"),
        ("T", -1.0, r"need x >= 0, delta >= 0, T > 0"),
    ],
)
def test_out_of_domain_arguments_are_refused_alike(fn, name, value, message):
    args = {"x": 1.0, "delta": 2.0, "lam": 0.25, "T": 1.0, name: value}
    with pytest.raises(DomainError, match=f"^{message}$"):
        fn(**args)


@pytest.mark.parametrize("fn", [bessel_laplace, bessel_laplace_series])
@pytest.mark.parametrize("name", ["x", "delta", "lam", "T"])
def test_non_finite_arguments_are_refused(fn, name):
    args = {"x": 1.0, "delta": 2.0, "lam": 0.25, "T": 1.0, name: math.nan}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        fn(**args)


def test_series_matches_closed_form():
    T = 1.0
    for lam in (0.1, 0.5):
        for delta in (0.0, 1.0, 2.0):
            a = bessel_laplace(1.0, delta, lam, T)
            b = bessel_laplace_series(1.0, delta, lam, T)
            assert abs(a - b) <= 1e-8, (lam, delta)


@pytest.mark.parametrize("n_max", [1, 0, -4])
def test_series_refuses_fewer_than_two_orders(n_max):
    with pytest.raises(ValueError, match="n_max must be >= 2"):
        bessel_laplace_series(1.0, 2.0, 0.25, 1.0, n_max=n_max)


def test_series_outside_summability_domain():
    with pytest.raises(DomainError):
        bessel_laplace_series(1.0, 2.0, 0.6, 1.0)  # 2*lam*T = 1.2


def test_euler_average_alternating_series():
    # partial sums of 1 - 1 + 1 - ... ; averaged limit is 1/2
    sums = [1.0, 0.0] * 12
    assert euler_average(sums) == pytest.approx(0.5, abs=1e-12)
    # convergent input: acceleration keeps the limit (binomial weights center
    # on the middle partials, so the tail is only ~2^-(n/2) accurate)
    geo = np.cumsum([0.5**k for k in range(30)])
    assert euler_average(list(geo)) == pytest.approx(2.0, rel=1e-3)
    geo = np.cumsum([0.5**k for k in range(80)])
    assert euler_average(list(geo)) == pytest.approx(2.0, rel=1e-9)
