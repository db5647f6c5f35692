"""Tests for the tree/forest/polynomial algebra."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamond_forests.algebra import (
    Forest,
    Poly,
    catalan,
    format_fraction,
    join,
    leaf,
    parse_fraction,
    as_poly,
    parse_poly,
    wedderburn_etherington,
)

Y = leaf("Y")
Z = leaf("Z")
CHERRY = join(Y, Y)
CHAIN3 = join(CHERRY, Y)


# --- strategies -------------------------------------------------------------

labels = st.sampled_from(["Y", "Z"])
trees = st.recursive(
    labels.map(leaf),
    lambda kids: st.tuples(kids, kids).map(lambda p: join(p[0], p[1])),
    max_leaves=24,
)
fracs = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=16
)


def small_forest(draw_trees, draw_coeffs):
    return st.dictionaries(draw_trees, draw_coeffs, min_size=0, max_size=4).map(Forest)


forests = small_forest(trees, fracs)


# --- trees ------------------------------------------------------------------


def test_join_examples():
    assert CHERRY.shape == "(Y,Y)"
    assert CHERRY.leaves == 2
    assert join(Y, join(Y, Y)) == join(join(Y, Y), Y)
    assert CHAIN3.shape == "((Y,Y),Y)"


def test_join_non_associative():
    left = join(join(Y, Y), join(Y, Y))
    right = join(Y, join(Y, join(Y, Y)))
    assert left != right
    assert left.leaves == right.leaves == 4


@given(trees, trees)
def test_join_commutes(t1, t2):
    assert join(t1, t2) == join(t2, t1)
    assert join(t1, t2).shape == join(t2, t1).shape


@given(trees, trees)
def test_join_leaf_count_adds(t1, t2):
    assert join(t1, t2).leaves == t1.leaves + t2.leaves


@given(trees)
def test_substitute_identity(t):
    from diamond_forests.algebra import substitute_leaf_tree

    assert substitute_leaf_tree(t, "Y", leaf("Y")) == t


def test_substitute_leaf_into_cherry():
    # (Y, QV) with QV -> (Y,Y) gives the 3-leaf chain
    t = join(Y, leaf("QV"))
    out = Forest.of(t).substitute_leaf("QV", CHERRY)
    assert out == Forest.of(CHAIN3)


@given(trees, st.integers(min_value=0, max_value=3))
def test_substitute_leaf_count_affine(t, _):
    from diamond_forests.algebra import substitute_leaf_tree

    n_z = sum(1 for l in t.leaf_labels() if l == "Z")
    out = substitute_leaf_tree(t, "Z", CHERRY)
    assert out.leaves == t.leaves + n_z * (CHERRY.leaves - 1)


def test_leaf_label_validation():
    with pytest.raises(ValueError):
        leaf("bad,label")
    with pytest.raises(ValueError):
        leaf("")


def diamond_text_by_recursion(tree):
    """The diamond form built node by node: the reference for the shape rewrite."""
    if tree.is_leaf():
        return tree.label
    return f"({diamond_text_by_recursion(tree.left)}⋄{diamond_text_by_recursion(tree.right)})"


def test_diamond_text_is_the_shape_with_diamonds():
    from diamond_forests.expansions import spx_g_expansion

    assert CHAIN3.diamond_text() == "((Y⋄Y)⋄Y)" and Y.diamond_text() == "Y"
    forest_trees = [t for f in spx_g_expansion(9).orders.values() for t, _ in f]
    assert len(forest_trees) == 11826
    for tree in forest_trees:
        assert tree.diamond_text() == diamond_text_by_recursion(tree)


# --- forests ------------------------------------------------------------------


def test_diamond_single_trees():
    assert Forest.of(Y).diamond(Forest.of(Y)) == Forest.of(CHERRY)
    assert Forest.of(Y).diamond(Forest.zero()).is_zero()


def test_diamond_quarter_cherry_squared():
    half_cherry = Forest.of(CHERRY, Fraction(1, 2))
    out = half_cherry.diamond(half_cherry)
    assert out == Forest.of(join(CHERRY, CHERRY), Fraction(1, 4))


@given(forests, forests, forests)
@settings(max_examples=50)
def test_diamond_bilinear(f1, f2, g):
    lhs = (f1 + f2).diamond(g)
    rhs = f1.diamond(g) + f2.diamond(g)
    assert lhs == rhs


@given(forests, forests)
@settings(max_examples=50)
def test_diamond_commutes(f, g):
    assert f.diamond(g) == g.diamond(f)


@given(forests)
def test_grade_by_leaves_partitions(f):
    parts = f.grade_by_leaves()
    total = Forest.zero()
    for n, part in parts.items():
        for t, _ in part:
            assert t.leaves == n
        total = total + part
    assert total == f


def test_grade_empty():
    assert Forest.zero().grade_by_leaves() == {}


def test_zero_coefficients_dropped():
    f = Forest({Y: Fraction(0), CHERRY: Fraction(1)})
    assert len(f) == 1
    assert (f - f).is_zero()


def test_forest_json_and_text():
    f = Forest.of(CHAIN3, Fraction(1, 2))
    assert f.to_text() == "1/2·((Y⋄Y)⋄Y)"


# --- polynomials ----------------------------------------------------------------


def test_poly_basics():
    a, b = Poly.symbol("a"), Poly.symbol("b")
    p = a * a * Fraction(1, 2) + b
    assert str(p) == "b + 1/2*a^2"
    assert p.substitute({"b": parse_poly("-a^2/2")}).is_zero()
    assert p.evaluate({"a": 2.0, "b": 1.0}) == 3.0


def test_poly_eval_unbound_symbol():
    with pytest.raises(KeyError):
        Poly.symbol("a").evaluate({})


@given(fracs, fracs)
def test_poly_const_arith(x, y):
    assert Poly.const(x) + Poly.const(y) == Poly.const(x + y)
    assert Poly.const(x) * Poly.const(y) == Poly.const(x * y)


def test_parse_poly_roundtrips():
    for text in ["-a^2/2", "1/2*a^2 + b", "(a+b)*(a-b)", "3", "-2/3*x*y^2"]:
        p = parse_poly(text)
        assert parse_poly(str(p)) == p


def test_parse_poly_rejects_garbage():
    for bad in ["a +", "(a", "a^b", "1//2", "$"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


A = Poly.symbol("a")
ACCEPTED = [
    ("lambda", Poly.symbol("lambda")),
    ("λ", Poly.symbol("λ")),
    ("True + None", Poly.symbol("True") + Poly.symbol("None")),
    ("01", Poly.const(1)),
    ("(a^2)^3", A**6),
    ("a**2", A**2),
    ("a^(2)", A**2),
    ("-a^2/2", A * A * Fraction(-1, 2)),
    ("a/(2*3)/2", A * Fraction(1, 12)),
    (" a \t+\n 1 ", A + 1),
    ("--a", A),
    ("+".join(["a"] * 500), A * 500),
]
REFUSED = ["1.5", "1e3", "0x10", "1_0", "1//2", "f(a)", "a.b", "a/b", "1/0", "a/(a-a)",
           "a^", "a^-1", "a^b", "a^1.5", "a^2^3", "'a'", "a # b", "a b", "", "a,b", "a@b",
           "ª", "µ", "(" * 1000 + "a" + ")" * 1000, "+".join(["a"] * 5000)]


def _case_id(text):
    return repr(text if len(text) < 24 else f"{text[:8]}...({len(text)} chars)")


@pytest.mark.parametrize("text, want", ACCEPTED, ids=[_case_id(t) for t, _ in ACCEPTED])
def test_parse_poly_accepts(text, want):
    assert parse_poly(text) == want


@pytest.mark.parametrize("text", REFUSED, ids=[_case_id(t) for t in REFUSED])
def test_parse_poly_refuses(text):
    with pytest.raises(ValueError):
        parse_poly(text)


symbols = st.sampled_from(["a", "b", "c", "z1", "lambda", "True", "x_2"])
monomials = st.dictionaries(symbols, st.integers(1, 4), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)


@given(st.dictionaries(monomials, fracs, max_size=6).map(Poly.from_dict))
def test_parse_poly_reads_what_poly_prints(p):
    assert parse_poly(str(p)) == p


# --- substitution ----------------------------------------------------------------


def _substitute_by_terms(p, bindings):
    """Reference substitution: each term is built as its own ``Poly`` and added
    to a running sum, the loop ``Poly.substitute`` ran before its single pass."""
    out = Poly.zero_
    for m, c in p.terms:
        term = Poly.const(c)
        for sym, e in m:
            if sym in bindings:
                term = term * (as_poly(bindings[sym]) ** e)
            else:
                term = term * (Poly.symbol(sym) ** e)
        out = out + term
    return out


abc = st.sampled_from(["a", "b", "c"])


def abc_polys(max_exponent, max_terms):
    monos = st.dictionaries(abc, st.integers(1, max_exponent), max_size=3)
    return st.dictionaries(
        monos.map(lambda d: tuple(sorted(d.items()))), fracs, max_size=max_terms
    ).map(Poly.from_dict)


B = Poly.symbol("b")
C = Poly.symbol("c")
NAMED_BINDINGS = {
    "constant": {"a": Fraction(-3, 2), "c": 2},
    "zero": {"b": 0},
    "constant-poly": {"a": Poly.const(Fraction(1, 3))},
    "polynomial": {"a": B * C - 1, "c": B * B},
    "self-referencing": {"b": B - A * Fraction(1, 2)},
    "swapped": {"a": B, "b": A},
    "partial": {"c": A + 1},
    "cancelling": {"b": A * A * Fraction(-1, 2), "c": -A},
}


@pytest.mark.parametrize("name", NAMED_BINDINGS)
@settings(max_examples=60)
@given(abc_polys(3, 6))
def test_substitute_matches_the_term_by_term_loop(name, p):
    bindings = NAMED_BINDINGS[name]
    assert p.substitute(bindings) == _substitute_by_terms(p, bindings)


binding_values = st.one_of(st.integers(-3, 3), fracs, fracs.map(Poly.const), abc_polys(2, 3))


@settings(max_examples=200)
@given(abc_polys(3, 6), st.dictionaries(abc, binding_values, max_size=3))
def test_substitute_matches_the_term_by_term_loop_on_random_bindings(p, bindings):
    assert p.substitute(bindings) == _substitute_by_terms(p, bindings)


def test_substitute_is_simultaneous():
    p = parse_poly("a^2*b - 3*a + b")
    assert p.substitute({"a": B, "b": A}) == parse_poly("b^2*a - 3*b + a")
    assert p.substitute({"b": B - A * Fraction(1, 2)}) == parse_poly("a^2*b - 1/2*a^3 - 7/2*a + b")
    # b + c + a^2/2 + a cancels term by term under b = -a^2/2, c = -a
    assert parse_poly("b + c + a^2/2 + a").substitute(NAMED_BINDINGS["cancelling"]).is_zero()


# --- the integer-numerator ring against the Fraction reference -------------------


def _load_fraction_poly():
    # by path, so that the reference loads under any pytest import mode; the
    # dataclass machinery looks its module up in sys.modules
    spec = importlib.util.spec_from_file_location(
        "fraction_poly", Path(__file__).with_name("fraction_poly.py")
    )
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module.FractionPoly


FractionPoly = _load_fraction_poly()


def both_rings(draw_monomials, max_terms):
    """The same polynomial as a ``Poly`` and as a ``FractionPoly``."""
    return st.dictionaries(draw_monomials, fracs, max_size=max_terms).map(
        lambda d: (Poly.from_dict(d), FractionPoly.from_dict(d))
    )


def same(p, ref):
    # ``terms`` in the same order and the same text; == and hash see one
    # canonical form however the value was reached
    canonical = Poly(ref.terms)
    return (p.terms == ref.terms and str(p) == str(ref)
            and p == canonical and hash(p) == hash(canonical))


@settings(max_examples=200)
@given(both_rings(monomials, 5), both_rings(monomials, 5), st.integers(0, 3), fracs)
def test_ring_operations_match_the_fraction_reference(pp, qq, n, x):
    (p, ref_p), (q, ref_q) = pp, qq
    assert same(p, ref_p)
    assert same(p + q, ref_p + ref_q)
    assert same(p - q, ref_p - ref_q)
    assert same(p * q, ref_p * ref_q)
    assert same(p * x, ref_p * x) and same(x - p, x - ref_p)
    assert same(p ** n, ref_p ** n)
    assert (p + q == q + p) and (p * q == q * p)
    assert (p == q) == (ref_p == ref_q)
    assert (p - p).is_zero() and (p == q) <= (hash(p) == hash(q))
    assert p.symbols() == ref_p.symbols()
    assert p.is_constant() == ref_p.is_constant()


def reference_bindings(bindings):
    return {s: FractionPoly(v.terms) if isinstance(v, Poly) else v for s, v in bindings.items()}


abc_monomials = st.dictionaries(abc, st.integers(1, 3), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)


@pytest.mark.parametrize("name", NAMED_BINDINGS)
@settings(max_examples=60)
@given(both_rings(abc_monomials, 6))
def test_substitute_matches_the_fraction_reference(name, pp):
    p, ref = pp
    bindings = NAMED_BINDINGS[name]
    assert same(p.substitute(bindings), ref.substitute(reference_bindings(bindings)))


@settings(max_examples=200)
@given(both_rings(abc_monomials, 6), st.dictionaries(abc, binding_values, max_size=3))
def test_substitute_matches_the_fraction_reference_on_random_bindings(pp, bindings):
    p, ref = pp
    assert same(p.substitute(bindings), ref.substitute(reference_bindings(bindings)))


@given(both_rings(monomials, 6), st.lists(st.floats(-2, 2), min_size=7, max_size=7))
def test_evaluate_matches_the_fraction_reference(pp, xs):
    p, ref = pp
    values = dict(zip(["a", "b", "c", "z1", "lambda", "True", "x_2"], xs))
    # the same terms in the same order: the same float, bit for bit
    assert p.evaluate(values) == ref.evaluate(values)


def test_trees_are_interned_and_compare_by_identity():
    import copy
    import pickle

    t = join(join(Y, Z), CHERRY)
    assert join(CHERRY, join(Z, Y)) is t
    assert pickle.loads(pickle.dumps(t)) is t and copy.deepcopy(t) is t
    p = parse_poly("lambda^2/3 - z1")
    assert pickle.loads(pickle.dumps(p)) == p


def test_threads_building_the_same_new_shapes_get_the_same_trees():
    import threading

    from diamond_forests.expansions import k_expansion

    # labels and symbols no other test uses, so every shape and symbol is new here
    results = []
    start = threading.Barrier(6, timeout=60)

    def build():
        start.wait()
        results.append(k_expansion(8, alphabet=("S1", "S2"), symbols=("s1", "s2")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and len(results) == 6
    # one tree object per shape and one position per symbol: identity equality holds
    assert all(r == results[0] for r in results)


def test_fraction_wire_format():
    assert format_fraction(Fraction(-1, 2)) == "-1/2"
    assert format_fraction(Fraction(4, 2)) == "2"
    assert parse_fraction("-1/2") == Fraction(-1, 2)


# --- shape counting ----------------------------------------------------------------


def brute_force_shapes(n, _cache={}):
    """Independent enumeration of canonical shapes with n leaves."""
    if n in _cache:
        return _cache[n]
    if n == 1:
        out = {Y}
    else:
        out = set()
        for i in range(1, n):
            for t1 in brute_force_shapes(i):
                for t2 in brute_force_shapes(n - i):
                    out.add(join(t1, t2))
    _cache[n] = out
    return out


def test_wedderburn_etherington_small():
    assert [wedderburn_etherington(n) for n in range(7)] == [0, 1, 1, 1, 2, 3, 6]


@pytest.mark.parametrize("n", range(1, 11))
def test_wedderburn_etherington_vs_enumeration(n):
    assert wedderburn_etherington(n) == len(brute_force_shapes(n))


def test_catalan():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
