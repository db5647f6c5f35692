"""Tests for the K / G / SPX-G expansion recursions and reordering."""

import copy
import hashlib
import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest

from diamond_forests import cli
from diamond_forests.algebra import Forest, Poly, catalan, join, leaf, parse_poly
from diamond_forests.expansions import (
    ExpansionResult,
    cumulant_states,
    g_expansion,
    k_expansion,
    reorder,
    specialize,
    spx_g_expansion,
)

Y = leaf("Y")
CHERRY = join(Y, Y)
CHAIN3 = join(CHERRY, Y)
CHAIN4 = join(CHAIN3, Y)
CHAIN5 = join(CHAIN4, Y)
CHERRY2 = join(CHERRY, CHERRY)

A = Poly.symbol("a")
B = Poly.symbol("b")
C = Poly.symbol("c")
H = Fraction(1, 2)


def frac_forest(pairs):
    return Forest({t: Fraction(c) for t, c in pairs})


# --- the recursion engine --------------------------------------------------------


@dataclass(frozen=True)
class Num:
    """A rational number as a diamond-closed state: the diamond multiplies."""

    x: Fraction

    def __add__(self, other):
        return Num(self.x + other.x)

    def scale(self, q):
        return Num(self.x * q)

    def diamond(self, other):
        return Num(self.x * other.x)


def test_engine_scalar_states_give_halved_catalan_numbers():
    states = cumulant_states({1: Num(Fraction(1))}, 10)
    assert sorted(states) == list(range(1, 11))
    for n, s in states.items():
        assert s.x * 2 ** (n - 1) == catalan(n - 1)


def test_engine_branch_and_seed_orders():
    # X[1] = 3 and X[2] = 1 seed X[m] = 1/2 sum_{j=2}^{m-2} X[j] X[m-j] + 3 X[m-1]:
    # the pair (1, m-1) is the linear branch
    states = cumulant_states({1: Num(Fraction(3)), 2: Num(Fraction(1))}, 6)
    assert [states[m].x * 2 for m in range(2, 7)] == [2, 6, 19, 63, 217]


def test_k_expansion_visits_each_unordered_pair_once(monkeypatch):
    calls = []
    original = Forest.diamond

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Forest, "diamond", counting)
    k_expansion(12)
    # sum_{m=2}^{12} floor(m/2) unordered pairs, against 66 ordered ones
    assert len(calls) == 36
    # G and SPX: two diamonds build the order-2 seed, then sum_{m=3}^{n} floor(m/2)
    # pairs; the pair (1, m-1) is the whole linear term, one diamond per order
    for build, order, diamonds in [(g_expansion, 10, 26), (spx_g_expansion, 8, 17)]:
        calls.clear()
        build(order)
        assert len(calls) == diamonds


def test_expansion_result_is_an_immutable_value():
    k = k_expansion(4)
    assert (k.kind, k.alphabet, k.symbols, sorted(k.orders)) == ("K", ("Y",), (), [1, 2, 3, 4])
    assert k.max_order() == 4 and not k.is_zero()
    assert k == k_expansion(4) and k != k_expansion(5) and k != g_expansion(4)
    assert k == ExpansionResult("K", ("Y",), (), dict(k.orders))
    assert ExpansionResult("G", ("Y",), ("a", "b"), {}).max_order() == 0
    for field in ("kind", "orders", "extra"):
        with pytest.raises(AttributeError):
            setattr(k, field, None)
    with pytest.raises(AttributeError):
        del k.kind
    with pytest.raises(TypeError):
        hash(k)
    assert pickle.loads(pickle.dumps(k)) == k == copy.deepcopy(k)
    assert repr(k).startswith("ExpansionResult(kind='K', alphabet=('Y',), symbols=(), orders={")


@pytest.mark.parametrize(
    "kind, order, digest",
    [
        ("K", 12, "2a22074354984b17cd31872f1c97cf349234add00d652877828907c76b90c516"),
        ("G", 10, "5d1697f4f680b2816bb7a230907abd6d62b3317ee8e228c98835ffbfe09a711c"),
        ("SPX", 8, "d3bc1c5418ae81d30220a5b9914805ecdc775f8db37ddecf35596d16940b8549"),
        ("SPX", 9, "6817a100144c1ce010656072ee8d006e05cfd90afb4f107edadeb089fca64e95"),
    ],
)
def test_expand_output_is_pinned(kind, order, digest):
    out, code = cli.run(["expand", "--kind", kind, "--order", str(order)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_two_letter_reorder_text_is_pinned():
    # pinned from the Fraction coefficient ring
    regraded = reorder(k_expansion(9, alphabet=("Y", "QV"), symbols=("a", "b")))
    text = "".join(f"{n}: {f.to_text()}\n" for n, f in regraded.orders.items())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "dd24e12641172da2b3a85b4d90ca830b8551daf63736445207225b488e2bf13f"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--kind", "SPX", "--order", "7", "--bind", "a=1/2", "--bind", "c=a*b-2"],
         "4f0da049e06a1b6618dbeb5d72620602457cfaafdd3f8694f7768f8b4b8bcd95"),
        (["--kind", "G", "--order", "8", "--bind", "b=b-a/2", "--bind", "a=b"],
         "eb52970cb55c2b72ad07f3321ce289c8525a8aba23bec88e4ead9ab4b82237d2"),
    ],
    ids=["constant-and-polynomial", "self-referencing-swap"],
)
def test_expand_bind_output_is_pinned(argv, digest):
    # non-zero substituted forests, pinned from the term-by-term substitution
    out, code = cli.run(["expand", *argv])
    assert code == 0
    assert '"all_zero": false' in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# --- K expansion ---------------------------------------------------------------


def test_k_low_orders_exact():
    k = k_expansion(5)
    assert k.orders[1] == Forest.of(Y)
    assert k.orders[2] == frac_forest([(CHERRY, H)])
    assert k.orders[3] == frac_forest([(CHAIN3, H)])
    assert k.orders[4] == frac_forest([(CHAIN4, H), (CHERRY2, Fraction(1, 8))])
    assert k.orders[5] == frac_forest(
        [
            (CHAIN5, H),
            (join(CHERRY2, Y), Fraction(1, 8)),
            (join(CHAIN3, CHERRY), Fraction(1, 4)),
        ]
    )


def test_k5_symmetry_factors():
    # 2^4 * K5 has integer coefficients 8, 2, 4 summing to C_4 = 14
    k5 = k_expansion(5).orders[5]
    scaled = sorted(int(p.constant_value() * 16) for _, p in k5)
    assert scaled == [2, 4, 8]
    assert sum(scaled) == 14 == catalan(4)


@pytest.mark.parametrize("n", range(1, 9))
def test_k_leaf_homogeneous(n):
    for t, _ in k_expansion(8).orders[n]:
        assert t.leaves == n


@pytest.mark.parametrize("n", range(1, 9))
def test_k_catalan_sums(n):
    kn1 = k_expansion(n + 1).orders[n + 1]
    total = sum((p.constant_value() for _, p in kn1), Fraction(0))
    assert total * 2**n == catalan(n)


def test_k_shape_counts_match_wedderburn_etherington():
    from diamond_forests.algebra import wedderburn_etherington

    k = k_expansion(8)
    assert [len(k.orders[n]) for n in range(1, 9)] == [
        wedderburn_etherington(n) for n in range(1, 9)
    ]


def test_k_multivariate_weights():
    k = k_expansion(2, alphabet=("Y", "Z"), symbols=("z1", "z2"))
    z1, z2 = Poly.symbol("z1"), Poly.symbol("z2")
    assert k.orders[1] == Forest({leaf("Y"): z1, leaf("Z"): z2})
    expected = Forest(
        {
            CHERRY: z1 * z1 * H,
            join(leaf("Y"), leaf("Z")): z1 * z2,
            join(leaf("Z"), leaf("Z")): z2 * z2 * H,
        }
    )
    assert k.orders[2] == expected


def test_k_rejects_bad_order():
    with pytest.raises(ValueError):
        k_expansion(0)


# --- G expansion ---------------------------------------------------------------


def test_g_low_orders_exact():
    g = g_expansion(5)
    g2c = A * A * H + B
    assert g.orders[2] == Forest.of(CHERRY, g2c)
    assert g.orders[3] == Forest.of(CHAIN3, A * g2c)
    assert g.orders[4] == Forest(
        {CHERRY2: g2c * g2c * H, CHAIN4: A * A * g2c}
    )
    assert g.orders[5] == Forest(
        {
            join(CHERRY2, Y): A * g2c * g2c * H,
            join(CHAIN3, CHERRY): A * g2c * g2c,
            CHAIN5: A * A * A * g2c,
        }
    )


@pytest.mark.parametrize("k", range(2, 9))
def test_g_leaf_homogeneous(k):
    for t, _ in g_expansion(8).orders[k]:
        assert t.leaves == k


def test_g_rejects_bad_order():
    with pytest.raises(ValueError):
        g_expansion(1)


# --- specialization --------------------------------------------------------------


def test_exponential_martingale_kill_through_10():
    s = specialize(g_expansion(10), {"b": parse_poly("-a^2/2")})
    assert s.is_zero()
    assert set(s.orders) == set(range(2, 11))


def test_b_zero_recovers_scaled_k():
    g = specialize(g_expansion(8), {"b": 0})
    k = k_expansion(8)
    for n in range(2, 9):
        assert g.orders[n] == k.orders[n].scale(A**n)


def test_a_zero_kills_g3():
    assert specialize(g_expansion(3), {"a": 0}).orders[3].is_zero()


def test_specialize_to_constants():
    s = specialize(g_expansion(4), {"a": 1, "b": Fraction(1, 2)})
    assert s.orders[2] == Forest.of(CHERRY, 1)


def test_specialize_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        specialize(g_expansion(3), {"q": 1})


# --- SPX-G expansion ---------------------------------------------------------------


def test_spx_g2_exact_coefficients():
    g2 = spx_g_expansion(2).orders[2]
    yz = join(leaf("Y"), leaf("zeta"))
    zz = join(leaf("zeta"), leaf("zeta"))
    assert g2.coeff(CHERRY) == A * (A - 1) * H + B
    assert g2.coeff(yz) == A * C
    assert g2.coeff(zz) == C * C * H


def test_spx_c_zero_matches_g_with_shifted_b():
    # with c = 0 the cherry coefficient is a(a-1)/2 + b, i.e. the plain G
    # expansion after b -> b - a/2
    spx = specialize(spx_g_expansion(6), {"c": 0})
    g = specialize(g_expansion(6), {"b": parse_poly("b - a/2")})
    for n in range(2, 7):
        assert spx.orders[n] == g.orders[n]


def test_spx_martingality_kill_through_8():
    s = specialize(spx_g_expansion(8), {"a": 1, "b": 0, "c": 0})
    assert s.is_zero()


# --- reorder ----------------------------------------------------------------------


def test_reorder_equals_g_through_8():
    k2 = k_expansion(8, alphabet=("Y", "QV"), symbols=("a", "b"))
    r = reorder(k2)
    g = g_expansion(8)
    assert set(r.orders) == set(range(2, 9))
    for n in range(2, 9):
        assert r.orders[n] == g.orders[n]


def test_reorder_bucket_2_and_3():
    k2 = k_expansion(3, alphabet=("Y", "QV"), symbols=("a", "b"))
    r = reorder(k2)
    assert r.orders[2] == Forest.of(CHERRY, A * A * H + B)
    assert r.orders[3] == Forest.of(CHAIN3, A * (A * A * H + B))


def test_reorder_rejects_univariate():
    with pytest.raises(ValueError):
        reorder(k_expansion(4))
