"""Word shuffles, expected-signature weights, and signature diamonds."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from diamond_forests.errors import DomainError
from diamond_forests.models.signature import (
    SigExpr,
    _strat_weights,
    cameron_martin_cgf,
    cameron_martin_cgf_coeffs,
    cameron_martin_q,
    diamond_ito,
    diamond_strat,
    fawcett_sigma,
    shuffle,
)

LETTERS = "12"


def words_up_to(n, letters=LETTERS):
    out = [""]
    for k in range(1, n + 1):
        out += ["".join(p) for p in product(letters, repeat=k)]
    return out


def t0_dt_coefficients(expr: SigExpr) -> dict:
    """Doubled dt-power -> rational coefficient of the word-free part."""
    out = {}
    for (words, p), c in expr.terms:
        if not words:
            out[p] = out.get(p, Fraction(0)) + c
    return {p: c for p, c in out.items() if c}


# ---------------------------------------------------------------------------
# shuffle
# ---------------------------------------------------------------------------


def test_shuffle_worked_example():
    assert shuffle("12", "3") == {"312": 1, "132": 1, "123": 1}


def test_shuffle_empty_word_neutral():
    assert shuffle("121", "") == {"121": 1}
    assert shuffle("", "") == {"": 1}


def test_shuffle_repeated_letter():
    assert shuffle("1", "1") == {"11": 2}


def test_shuffle_term_counts():
    for a, b in [("12", "34"), ("1", "234"), ("11", "22"), ("121", "21")]:
        total = sum(shuffle(a, b).values())
        assert total == math.comb(len(a) + len(b), len(a))


def test_shuffle_commutes():
    for a, b in [("12", "3"), ("11", "2"), ("123", "45")]:
        assert shuffle(a, b) == shuffle(b, a)


# ---------------------------------------------------------------------------
# expected-signature weights
# ---------------------------------------------------------------------------


def test_sigma_pinned_values():
    assert fawcett_sigma("") == Fraction(1)
    assert fawcett_sigma("11") == Fraction(1, 2)
    assert fawcett_sigma("12") == 0
    assert fawcett_sigma("1122") == Fraction(1, 8)
    assert fawcett_sigma("1212") == 0
    assert fawcett_sigma("2233") == Fraction(1, 8)
    assert fawcett_sigma("1") == 0
    assert fawcett_sigma("111") == 0


def test_sigma_single_letter_runs_match_gaussian_moments():
    # the k-fold Stratonovich integral of one coordinate is B^k/k!, so its
    # expectation at horizon 1 is (k-1)!!/k! for even k and 0 for odd k
    for k in range(0, 9):
        w = "1" * k
        if k % 2 == 0:
            m = k // 2
            double_fact = math.factorial(k) // (2**m * math.factorial(m))
            expected = Fraction(double_fact, math.factorial(k))
        else:
            expected = Fraction(0)
        assert fawcett_sigma(w) == expected, w


def test_sigma_factorizes_over_independent_coordinates():
    # for words a over {1} and b over {2}, the underlying functionals are
    # independent, so  sum_{w in a sh b} sigma_w == sigma_a * sigma_b
    for la, lb in product(range(0, 5), repeat=2):
        a, b = "1" * la, "2" * lb
        lhs = sum(
            (mult * fawcett_sigma(w) for w, mult in shuffle(a, b).items()),
            Fraction(0),
        )
        assert lhs == fawcett_sigma(a) * fawcett_sigma(b), (a, b)


# ---------------------------------------------------------------------------
# Ito diamonds
# ---------------------------------------------------------------------------


def test_ito_mismatched_letters_vanish():
    assert diamond_ito("", "1", "", "2").is_zero()
    assert diamond_ito("12", "1", "21", "2").is_zero()


def test_ito_base_case():
    assert diamond_ito("", "1", "", "1") == SigExpr.monomial((), pow2=2)


def test_ito_time_zero_orthogonality():
    # at time 0 the conditional bracket is int_0^T E[B^a B^b] ds with the
    # chaos orthogonality E[B^a_s B^b_s] = [a == b] s^{|a|} / |a|!, so the
    # diamond of the full words A = ai, B = bj reduces to [A == B] T^|A|/|A|!
    for a, b in product(words_up_to(2), repeat=2):
        for i, j in product(LETTERS, repeat=2):
            expr = diamond_ito(a, i, b, j)
            coeffs = t0_dt_coefficients(expr)
            if a + i == b + j:
                n = len(a) + 1
                assert coeffs == {2 * n: Fraction(1, math.factorial(n))}, (a, i)
            else:
                assert coeffs == {}, (a, i, b, j)


def test_ito_levy_area_consistency():
    # 1/2 (B^{12} - B^{21}) <> (B^{12} - B^{21}) = 1/2 dt^2
    #                                + 1/2 (B^1 B^1 + B^2 B^2) dt
    combo = (
        diamond_ito("1", "2", "1", "2")
        + diamond_ito("2", "1", "2", "1")
        + diamond_ito("1", "2", "2", "1").scale(Fraction(-1))
        + diamond_ito("2", "1", "1", "2").scale(Fraction(-1))
    ).scale(Fraction(1, 2))
    expected = (
        SigExpr.monomial((), pow2=4, coeff=Fraction(1, 2))
        + SigExpr.monomial(("1", "1"), pow2=2, coeff=Fraction(1, 2))
        + SigExpr.monomial(("2", "2"), pow2=2, coeff=Fraction(1, 2))
    )
    assert combo == expected
    v = combo.evaluate(0.5, {"1": 1.5, "2": -2.0})
    assert v == pytest.approx(0.5 * 0.25 + 0.5 * (1.5**2 + 2.0**2) * 0.5)


def test_ito_brownian_scaling():
    # every term carries total weight |a| + |b| + 2 (words doubled-counted in
    # half-powers of dt), so scaling dt by c and each word value by
    # c^{|w|/2} multiplies the value by c^{weight/2}
    cases = [("1", "1", "1", "1"), ("12", "1", "21", "1"), ("2", "2", "11", "2")]
    values = {w: 0.1 + 0.05 * k for k, w in enumerate(words_up_to(3))}
    for a, i, b, j in cases:
        expr = diamond_ito(a, i, b, j)
        # doubled weight of a term: its word lengths plus its power of dt
        weights = {sum(len(w) for w in words) + p for (words, p), _ in expr.terms}
        assert weights <= {len(a) + len(b) + 2}
        c = 1.7
        scaled = {w: v * c ** (len(w) / 2) for w, v in values.items()}
        lhs = expr.evaluate(c * 0.8, scaled)
        rhs = c ** ((len(a) + len(b) + 2) / 2) * expr.evaluate(0.8, values)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# Stratonovich diamonds
# ---------------------------------------------------------------------------


def test_strat_mismatched_letters_vanish():
    assert diamond_strat("", "1", "", "2").is_zero()
    assert diamond_strat("11", "1", "2", "2").is_zero()


def test_strat_base_case():
    assert diamond_strat("", "1", "", "1") == SigExpr.monomial((), pow2=2)


def test_strat_length_two_words_closed_form():
    # with single-letter prefixes the bracket integrand E_t[B^a_s B^b_s] is a
    # plain Gaussian moment, giving delta_ij (B^a B^b dt + [a==b] dt^2 / 2)
    for a, b in product(LETTERS, repeat=2):
        for i in LETTERS:
            expr = diamond_strat(a, i, b, i)
            expected = SigExpr.monomial((a, b), pow2=2)
            if a == b:
                expected = expected + SigExpr.monomial(
                    (), pow2=4, coeff=Fraction(1, 2)
                )
            assert expr == expected, (a, i, b)


def test_strat_time_zero_shuffle_oracle():
    # at time 0:  (Bhat^{ai} <> Bhat^{bj})_0(T)
    #               = delta_ij int_0^T E[Bhat^a Bhat^b] ds
    # and the product expands over the shuffle a sh b with Fawcett weights:
    # E[Bhat^a_s Bhat^b_s] = sum mult(w) sigma_w s^{(|a|+|b|)/2}.
    pairs = list(product(words_up_to(3), repeat=2))
    assert len(pairs) == 225
    for a, b in pairs:
        expr = diamond_strat(a, "1", b, "1")
        coeffs = t0_dt_coefficients(expr)
        m2 = len(a) + len(b)  # doubled power of s^{m} under the integral
        weight = sum(
            (mult * fawcett_sigma(w) for w, mult in shuffle(a, b).items()),
            Fraction(0),
        )
        expected_coeff = weight * Fraction(2, m2 + 2)
        expected = {m2 + 2: expected_coeff} if expected_coeff else {}
        assert coeffs == expected, (a, b)


def test_strat_deep_words_match_the_conditional_bracket():
    # at time 0 the conditional brackets integrate to 1/6 and 1/4 here
    assert t0_dt_coefficients(diamond_strat("1", "1", "111", "1")) == {
        6: Fraction(1, 6)
    }
    assert t0_dt_coefficients(diamond_strat("11", "1", "11", "1")) == {
        6: Fraction(1, 4)
    }


def test_hand_checked_general_time_terms():
    # Ito (1, 11): the split a2 = b2 = "1" leaves B^1 (T-t)^2 / 2!
    assert diamond_ito("1", "1", "11", "1") == SigExpr.monomial(
        ("1", "11"), pow2=2
    ) + SigExpr.monomial(("1",), pow2=4, coeff=Fraction(1, 2))
    # Stratonovich ("", 111): b2 = "11" carries sigma_11 (T-t)^2 / 2 = dt^2 / 4
    assert diamond_strat("", "1", "111", "1") == SigExpr.monomial(
        ("111",), pow2=2
    ) + SigExpr.monomial(("1",), pow2=4, coeff=Fraction(1, 4))


def test_strat_weights_count_the_shuffle():
    # the walk over positions equals the expanded shuffle with Fawcett weights
    for u, v in product(words_up_to(4), repeat=2):
        want = sum(
            (mult * fawcett_sigma(w) for w, mult in shuffle(u, v).items()),
            Fraction(0),
        )
        assert _strat_weights(u, v)[0][0] == want, (u, v)


def _one_letter_oracle(k_a, k_b, word_value, x, t, T):
    """int_t^T E[f_a(B_s, s) f_b(B_s, s) | B_t = x] ds by quadrature.

    ``word_value(k, y, s)`` is the iterated integral of the word 1^k at time s
    with B_s = y; it is a polynomial in (y, s), so Gauss-Hermite in the
    increment and Gauss-Legendre in s are exact up to rounding.
    """
    z, wz = np.polynomial.hermite_e.hermegauss(24)
    wz = wz / math.sqrt(2.0 * math.pi)
    r, wr = np.polynomial.legendre.leggauss(24)
    s = t + 0.5 * (T - t) * (r + 1.0)
    total = 0.0
    for s_k, w_k in zip(s, wr):
        y = x + math.sqrt(s_k - t) * z
        inner = word_value(k_a, y, s_k) * word_value(k_b, y, s_k)
        total += 0.5 * (T - t) * w_k * float(np.dot(wz, inner))
    return total


def _ito_one_letter(k, y, s):
    # I^{1^k}_s = s^{k/2} He_k(B_s / sqrt(s)) / k!
    he_k = np.polynomial.hermite_e.hermeval(y / math.sqrt(s), [0.0] * k + [1.0])
    return s ** (k / 2) * he_k / math.factorial(k)


def _strat_one_letter(k, y, s):
    return y**k / math.factorial(k)


@pytest.mark.parametrize(
    "diamond, word_value",
    [(diamond_ito, _ito_one_letter), (diamond_strat, _strat_one_letter)],
    ids=["ito", "strat"],
)
def test_one_letter_words_match_quadrature_at_general_time(diamond, word_value):
    x, t, T = 0.7, 0.4, 1.3
    values = {"1" * k: float(word_value(k, x, t)) for k in range(1, 7)}
    for k_a, k_b in product(range(6), repeat=2):
        expr = diamond("1" * k_a, "1", "1" * k_b, "1")
        got = expr.evaluate(T - t, values)
        want = _one_letter_oracle(k_a, k_b, word_value, x, t, T)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (k_a, k_b)


def test_strat_half_integer_powers_appear():
    expr = diamond_strat("11", "1", "", "1")
    # correction term sigma_{11} dt^2/2 on top of B^{11} dt
    assert expr == SigExpr.monomial(("11",), pow2=2) + SigExpr.monomial(
        (), pow2=4, coeff=Fraction(1, 4)
    )
    expr = diamond_strat("1", "1", "", "1")
    # odd-length prefix: sigma_1 = 0, no half-power survives
    assert expr == SigExpr.monomial(("1",), pow2=2)
    # a genuinely half-integer power needs an odd-length doubled... none with
    # sigma support exists below length 2, so check the power bookkeeping on
    # the JSON form instead
    entry = SigExpr.monomial((), pow2=3).to_json_list()[0]
    assert entry["dt_power"] == "3/2"


def test_strat_vs_ito_same_skeleton():
    # the Ito part of the Stratonovich recursion matches diamond_ito once the
    # sigma corrections are stripped (here: words of odd total length, where
    # every correction vanishes)
    assert diamond_strat("1", "2", "", "2") == diamond_ito("1", "2", "", "2")


# ---------------------------------------------------------------------------
# squared Brownian integral (quadratic CGF)
# ---------------------------------------------------------------------------


def tanh_series(order: int) -> dict:
    """Odd coefficients of tanh x, exact, from g' = 1 - g^2."""
    g = {1: Fraction(1)}
    for n in range(3, 2 * order + 1, 2):
        conv = sum(
            (g.get(i, Fraction(0)) * g.get(n - 1 - i, Fraction(0)) for i in range(n)),
            Fraction(0),
        )
        g[n] = -conv / n
    return g


def test_q_recursion_values():
    q = cameron_martin_q(6)
    assert q[1] == 1
    assert q[2] == Fraction(2, 3)
    assert q[3] == Fraction(8, 15)
    # spot-check the recursion by hand at n = 4
    expected4 = Fraction(2, 7) * (2 * q[1] * q[3] + q[2] * q[2])
    assert q[4] == expected4


def test_q_equals_the_explicit_recursion_to_order_thirty():
    want = {1: Fraction(1)}
    for n in range(2, 31):
        want[n] = Fraction(2, 2 * n - 1) * sum(
            (want[i] * want[n - i] for i in range(1, n)), Fraction(0)
        )
    assert cameron_martin_q(30) == want


def test_cgf_coefficients_first_three():
    c = cameron_martin_cgf_coeffs(3)
    assert c[1] == Fraction(-1, 2)
    assert c[2] == Fraction(1, 6)
    assert c[3] == Fraction(-4, 45)


def test_cgf_matches_log_cosh_sqrt_to_order_ten():
    # oracle: -1/2 log cosh sqrt(2 lam); with log cosh x = sum_k d_k x^{2k}
    # (d_k from integrating tanh), the lambda^n coefficient is -d_n 2^n / 2
    g = tanh_series(10)
    d = {(k + 1) // 2: v / (k + 1) for k, v in g.items()}  # x^{2m} coeffs
    ours = cameron_martin_cgf_coeffs(10)
    for n in range(1, 11):
        assert ours[n] == Fraction(-1, 2) * d[n] * 2**n, n


def test_cgf_numeric_value():
    lam = 0.3
    truth = -0.5 * math.log(math.cosh(math.sqrt(2 * lam)))
    assert cameron_martin_cgf(lam, 40) == pytest.approx(truth, abs=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cgf_refuses_outside_the_radius(sign):
    # radius pi^2/8: the zero of cos sqrt(2 |lambda|) at lambda = -pi^2/8
    radius = math.pi**2 / 8
    assert math.isfinite(cameron_martin_cgf(sign * 0.99 * radius, 20))
    with pytest.raises(DomainError):
        cameron_martin_cgf(sign * 1.01 * radius, 20)


def test_word_validation():
    with pytest.raises(ValueError):
        shuffle("1a", "2")
    with pytest.raises(ValueError):
        diamond_ito("10", "1", "", "1")
    with pytest.raises(ValueError):
        diamond_ito("1", "12", "", "1")
