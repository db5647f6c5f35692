"""Brownian-with-drift cumulants, stopped-BM CGF, and the planar Levy area."""

import math
from fractions import Fraction

import numpy as np
import pytest

from diamond_forests.errors import DomainError
from diamond_forests.models.brownian import (
    brownian_drift_cumulants,
    stopped_bm_cgf,
)
from diamond_forests.models.levy import (
    LevyState,
    levy_alpha,
    levy_cgf,
    levy_cumulant_states,
    levy_state_value,
)


# ---------------------------------------------------------------------------
# oracle: tan series with exact rationals, from f' = f^2 + 1, f(0) = 0
# ---------------------------------------------------------------------------


def tan_series(order: int) -> dict:
    """Coefficients c_k of tan x = sum c_k x^k, exact Fractions."""
    c = {0: Fraction(0), 1: Fraction(1)}
    for n in range(1, order):
        # c_{n+1} = (1/(n+1)) * [x^n] (f^2 + 1)
        conv = sum(
            (c.get(i, Fraction(0)) * c.get(n - i, Fraction(0)) for i in range(n + 1)),
            Fraction(0),
        )
        if n == 0:
            conv += 1
        c[n + 1] = conv / (n + 1)
    return c


def test_tan_series_oracle_self_check():
    c = tan_series(9)
    assert c[1] == 1
    assert c[3] == Fraction(1, 3)
    assert c[5] == Fraction(2, 15)
    assert c[7] == Fraction(17, 315)
    assert c[2] == c[4] == c[6] == 0
    x = 0.37
    approx = sum(float(v) * x**k for k, v in c.items())
    assert abs(approx - math.tan(x)) < 1e-6  # truncation tail ~ c_11 x^11


# ---------------------------------------------------------------------------
# Brownian motion with drift
# ---------------------------------------------------------------------------


def test_brownian_drift_standard_case():
    ks = brownian_drift_cumulants(sigma=1.0, mu=0.0, t=0.0, T=1.0, n=5)
    assert ks == [0.0, 0.5, 0.0, 0.0, 0.0]


def test_brownian_drift_general_case():
    ks = brownian_drift_cumulants(sigma=0.7, mu=-0.3, t=0.25, T=2.0, n=4, state=1.5)
    dt = 1.75
    assert ks[0] == pytest.approx(1.5 - 0.3 * dt, abs=1e-15)
    assert ks[1] == pytest.approx(0.5 * 0.49 * dt, abs=1e-15)
    assert ks[2] == 0.0 and ks[3] == 0.0


def test_brownian_drift_zero_vol():
    ks = brownian_drift_cumulants(sigma=0.0, mu=2.0, t=0.0, T=3.0, n=6)
    assert ks[0] == 6.0
    assert all(k == 0.0 for k in ks[1:])


@pytest.mark.parametrize("name", ["sigma", "mu", "t", "T", "state"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_brownian_drift_refuses_non_finite_arguments(name, value):
    args = {"sigma": 1.0, "mu": 0.0, "t": 0.0, "T": 2.0, "n": 2, "state": 0.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        brownian_drift_cumulants(**args)


def test_stopped_bm_cgf_symmetric_barrier():
    for x in (-2.0, -0.5, 0.0, 0.4, 3.0):
        assert stopped_bm_cgf(0.0, x) == pytest.approx(
            math.log(math.cosh(x)), abs=1e-12
        )


def test_stopped_bm_cgf_log_cosh_cumulants():
    # Taylor of log cosh via the tanh recursion g' = 1 - g^2: the 2nd and 4th
    # cumulants of the stopped endpoint at B=0 are +1 and -2.
    g = {1: Fraction(1)}  # tanh coefficients (odd only)
    for n in range(3, 7, 2):
        conv = sum(
            (g.get(i, Fraction(0)) * g.get(n - 1 - i, Fraction(0)) for i in range(n)),
            Fraction(0),
        )
        g[n] = -conv / n
    logcosh = {k + 1: v / (k + 1) for k, v in g.items()}  # integrate tanh
    assert math.factorial(2) * logcosh[2] == 1
    assert math.factorial(4) * logcosh[4] == -2
    x = 0.3
    series = sum(float(v) * x**k for k, v in logcosh.items())
    assert abs(series - stopped_bm_cgf(0.0, x)) < 1e-6


def test_stopped_bm_cgf_absorbing_barriers():
    for x in (-5.0, 0.0, 1.25):
        assert stopped_bm_cgf(1.0, x) == x
        assert stopped_bm_cgf(-1.0, x) == -x


def test_stopped_bm_cgf_zero_argument():
    for B in (-1.0, -0.25, 0.0, 0.8, 1.0):
        assert abs(stopped_bm_cgf(B, 0.0)) <= 1e-15


def test_stopped_bm_cgf_large_argument_stable():
    v = stopped_bm_cgf(0.0, 800.0)
    assert v == pytest.approx(800.0 - math.log(2.0), rel=1e-14)
    v = stopped_bm_cgf(0.5, -900.0)
    assert v == pytest.approx(900.0 + math.log(0.25), rel=1e-12)


def test_stopped_bm_cgf_rejects_bad_barrier():
    with pytest.raises(DomainError):
        stopped_bm_cgf(1.2, 0.0)
    with pytest.raises(DomainError):
        stopped_bm_cgf(-1.0001, 1.0)


@pytest.mark.parametrize("name", ["B", "x"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_stopped_bm_cgf_refuses_non_finite_arguments(name, value):
    args = {"B": 0.0, "x": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        stopped_bm_cgf(**args)


# ---------------------------------------------------------------------------
# Levy area: J-states and the alpha recursion
# ---------------------------------------------------------------------------


def test_j_product_rule_on_random_samples():
    rng = np.random.default_rng(42)
    for _ in range(50):
        j = int(rng.integers(2, 7))
        k = int(rng.integers(2, 7))
        sj = LevyState(area=Fraction(0), coeffs={j: Fraction(1)})
        sk = LevyState(area=Fraction(0), coeffs={k: Fraction(1)})
        prod = sj.diamond(sk)
        target = LevyState(
            area=Fraction(0), coeffs={j + k: Fraction(2, j + k - 1)}
        )
        t = float(rng.uniform(0.0, 1.0))
        T = t + float(rng.uniform(0.1, 2.0))
        x, y, area = rng.normal(size=3)
        lhs = levy_state_value(prod, t, T, x, y, area)
        rhs = levy_state_value(target, t, T, x, y, area)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_area_diamond_area():
    a = LevyState(area=Fraction(1), coeffs={})
    prod = a.diamond(a)
    assert prod == LevyState(area=Fraction(0), coeffs={2: Fraction(2)})
    # at t: J^2 = (T-t)^2/2 + (x^2+y^2)(T-t)/2, so A<>A = (T-t)^2 + (x^2+y^2)(T-t)
    v = levy_state_value(prod, 0.5, 1.5, 1.0, 2.0, 0.3)
    assert v == pytest.approx(1.0 + 5.0, abs=1e-12)


@pytest.mark.parametrize("name", ["t", "T", "x", "y", "area"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_levy_state_value_refuses_non_finite_arguments(name, value):
    state = LevyState(area=Fraction(1), coeffs={2: Fraction(1)})
    args = {"t": 0.0, "T": 1.0, "x": 0.5, "y": -0.5, "area": 0.3, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        levy_state_value(state, **args)


def test_levy_state_value_refuses_a_horizon_before_t():
    with pytest.raises(DomainError, match="need T >= t"):
        levy_state_value(LevyState(coeffs={2: Fraction(1)}), 1.0, 0.0)
    assert levy_state_value(LevyState(coeffs={2: Fraction(1)}), 1.0, 1.0) == 0.0


def test_area_diamond_j_vanishes():
    a = LevyState(area=Fraction(1), coeffs={})
    jk = LevyState(area=Fraction(0), coeffs={4: Fraction(3, 7)})
    assert a.diamond(jk).is_zero()


def test_levy_alpha_low_orders():
    al = levy_alpha(8)
    assert al[2] == Fraction(1)
    assert al[3] == Fraction(0)
    assert al[4] == Fraction(1, 3)
    assert al[6] == Fraction(2, 15)
    assert al[8] == Fraction(17, 315)
    assert all(al[n] == 0 for n in al if n % 2 == 1)


def test_levy_alpha_matches_tan_series_order_12():
    al = levy_alpha(12)
    tan = tan_series(12)
    # sum_n alpha_n T^{n-1} = tan T  =>  alpha_n = [x^{n-1}] tan
    for n in range(2, 13):
        assert al[n] == tan[n - 1], n


def test_levy_odd_cumulants_vanish():
    states = levy_cumulant_states(9)
    for n in range(3, 10, 2):
        assert states[n].is_zero()


def test_levy_cgf_values():
    assert levy_cgf(0.0, 10) == 0.0
    v = levy_cgf(0.5, 20)
    assert abs(v + math.log(math.cos(0.5))) <= 1e-8
    # tighter at higher order
    v = levy_cgf(0.5, 40)
    assert abs(v + math.log(math.cos(0.5))) <= 1e-14


def test_levy_cgf_negative_horizon_even():
    # only even orders contribute, so the CGF is even in T
    assert levy_cgf(-0.4, 30) == pytest.approx(levy_cgf(0.4, 30), abs=1e-15)


def test_levy_cgf_outside_domain():
    for T in (math.pi / 2, -math.pi / 2, 2.0):
        with pytest.raises(DomainError):
            levy_cgf(T, 10)
