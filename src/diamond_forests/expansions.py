"""Forest expansions of conditional cumulant generating functions.

One quadratic recursion generates everything here: ``cumulant_states`` of
:mod:`.recursion` (re-exported), run over any state family closed under
addition, rational scaling and the commutative diamond product.  Above its
seed orders it forms

    X[m] = sum_{j<k, j+k=m} X[j] <> X[k] + 1/2 X[m/2] <> X[m/2].

Here the states are formal forests with exact polynomial coefficients, and
the expansions are configurations of the recursion, each one seed dict:

* the cumulant recursion ``K[1] = sum of leaves``,
  ``K[n+1] = 1/2 * sum_{k=1..n} K[k] <> K[n+1-k]`` — ``n! * K[n]`` is the
  n-th conditional cumulant of the terminal value (seed ``{1: K[1]}``);
* the joint-CGF recursion for the pair (martingale, its quadratic
  variation), seeded ``{1: aY, 2: 1/2 (aY)<>(aY) + b (Y<>Y)}``: above order 2
  the pair (1, k-1) is the linear term ``a * (Y <> G[k-1])``, and order 1 is
  dropped from the result; plus a three-parameter variant with a second leaf
  ``zeta`` for a forward-curve functional, seeded from ``L = aY + c zeta``.

``reorder`` connects the two: running the two-letter cumulant recursion over
``{Y, QV}``, substituting the QV leaf by the two-leaf cherry ``(Y,Y)`` and
regrouping by leaf count reproduces the G expansion order by order, exactly.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from .algebra import Forest, Poly, PolyLike, Tree, join, leaf
from .errors import DEFAULT_MAX_ORDER_CAP
# the recursion and its seeds live in ``recursion``; re-exported here
from .recursion import HALF, _exponent_seeds, _spx_seeds, cumulant_states  # noqa: F401

__all__ = [
    "ExpansionResult",
    "cumulant_states",
    "k_expansion",
    "g_expansion",
    "spx_g_expansion",
    "specialize",
    "reorder",
    "DEFAULT_MAX_ORDER_CAP",
]


class ExpansionResult(NamedTuple):
    """Orders of a forest expansion plus the request metadata.

    ``orders`` maps order index to :class:`Forest`; K expansions carry orders
    1..max_order, G-type expansions 2..max_order.  Forests may be structurally
    zero (e.g. after a specializing substitution that cancels everything).
    Immutable; ``==`` compares all four fields.
    """

    kind: str  # "K" | "G" | "SPXG"
    alphabet: Tuple[str, ...]
    symbols: Tuple[str, ...]
    orders: Dict[int, Forest]

    def max_order(self) -> int:
        return max(self.orders) if self.orders else 0

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.orders.values())


def _check_order(max_order: int, low: int) -> None:
    if not isinstance(max_order, int):
        raise TypeError("max_order must be an integer")
    if max_order < low:
        raise ValueError(f"max_order must be >= {low}, got {max_order}")
    if max_order > DEFAULT_MAX_ORDER_CAP:
        raise ValueError(f"max_order {max_order} exceeds cap {DEFAULT_MAX_ORDER_CAP}")


def k_expansion(
    max_order: int,
    alphabet: Sequence[str] = ("Y",),
    symbols: Optional[Sequence[str]] = None,
) -> ExpansionResult:
    """Cumulant forests K[1..max_order] over the given leaf alphabet.

    For a single-letter alphabet, K[1] is the bare leaf with coefficient 1.
    For multi-letter alphabets each leaf enters K[1] weighted by its own
    formal symbol (defaults ``z1, z2, ...``), so coefficients of higher
    orders are polynomials recording all mixed contributions.

    Args:
        max_order: highest order to generate (>= 1).
        alphabet: leaf labels, nonempty.
        symbols: one weight symbol per label; optional for univariate.

    Returns:
        ExpansionResult with kind "K" and orders 1..max_order.
    """
    _check_order(max_order, 1)
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    labels = tuple(alphabet)
    if symbols is None:
        syms: Tuple[str, ...] = () if len(labels) == 1 else tuple(
            f"z{i+1}" for i in range(len(labels))
        )
    else:
        if len(symbols) != len(labels):
            raise ValueError("symbols must match alphabet length")
        syms = tuple(symbols)

    if syms:
        k1 = Forest({leaf(l): Poly.symbol(s) for l, s in zip(labels, syms)})
    else:
        k1 = Forest.of(leaf(labels[0]), 1)

    orders = cumulant_states({1: k1}, max_order)
    return ExpansionResult(kind="K", alphabet=labels, symbols=syms, orders=orders)


def g_expansion(max_order: int) -> ExpansionResult:
    """Joint-CGF forests G[2..max_order] for (martingale, quadratic variation).

    Coefficients are exact polynomials in the weights ``a`` (martingale) and
    ``b`` (quadratic variation).  Every tree in G[k] has exactly k leaves.
    """
    _check_order(max_order, 2)
    y = Forest.of(leaf("Y"))
    orders = cumulant_states(
        _exponent_seeds(y.scale(Poly.symbol("a")), y, Poly.symbol("b")), max_order
    )
    del orders[1]
    return ExpansionResult(kind="G", alphabet=("Y",), symbols=("a", "b"), orders=orders)


def spx_g_expansion(max_order: int) -> ExpansionResult:
    """Three-parameter G forests over the two-leaf alphabet {Y, zeta}.

    ``Y`` is the price log-martingale leaf, ``zeta`` a forward-curve leaf;
    weights are (a, b, c) for (price, quadratic variation, curve).  The seeds
    are ``L = aY + c zeta`` at order 1 (dropped from the result) and
    ``1/2 L<>L + (b - a/2)(Y<>Y)`` at order 2 (``_spx_seeds``).

    Specializing (a, b, c) = (1, 0, 0) collapses every order to the zero
    forest — the martingality cancellation.
    """
    _check_order(max_order, 2)
    a, b, c = (Poly.symbol(s) for s in "abc")
    seeds = _spx_seeds(Forest.of(leaf("Y")), Forest.of(leaf("zeta")), a, b, c)
    orders = cumulant_states(seeds, max_order)
    del orders[1]
    return ExpansionResult(
        kind="SPXG", alphabet=("Y", "zeta"), symbols=("a", "b", "c"), orders=orders
    )


def specialize(
    result: ExpansionResult, bindings: Mapping[str, PolyLike]
) -> ExpansionResult:
    """Substitute symbols in every coefficient (rationals or polynomials).

    Substitution is exact; trees whose coefficient cancels to zero disappear
    structurally.  Bindings may be partial (binding only ``b = 0`` leaves the
    ``a``-dependence symbolic; binding only ``a = 0`` can cancel whole orders).
    Symbols still free afterwards surface later, when a numeric evaluation
    demands values for them.

    Args:
        result: any expansion result.
        bindings: symbol -> int | Fraction | Poly (may reference other symbols,
            e.g. ``b -> -a^2/2``).

    Returns:
        A new ExpansionResult with the same order keys.
    """
    unknown = set(bindings) - set(result.symbols)
    if unknown:  # a symbol a caller's substitution brought in may still be bound
        unknown -= {s for f in result.orders.values() for _, p in f for s in p.symbols()}
    if unknown:
        raise ValueError(f"bindings for unknown symbols: {sorted(unknown)}")
    new_orders: Dict[int, Forest] = {}
    for n, f in result.orders.items():
        new_orders[n] = f.map_coeffs(lambda p: p.substitute(bindings))
    return ExpansionResult(
        kind=result.kind,
        alphabet=result.alphabet,
        symbols=result.symbols,
        orders=new_orders,
    )


def _grown_leaves(t: Tree, grown: Dict[Tree, int]) -> int:
    """Leaf count of ``t`` once each tree in ``grown`` is replaced by a tree of
    the mapped leaf count (``grown`` also memoizes subtrees)."""
    n = grown.get(t)
    if n is None:
        n = t.leaves if t.label is not None else (
            _grown_leaves(t.left, grown) + _grown_leaves(t.right, grown)
        )
        grown[t] = n
    return n


def reorder(two_variate_k: ExpansionResult) -> ExpansionResult:
    """Regroup a two-letter K expansion by leaf count into a G expansion.

    The input must be a K expansion over exactly two labels, the second being
    the quadratic-variation leaf.  All orders are summed, that leaf is
    substituted by the cherry ``(Y,Y)`` over the first label, and the result
    is regraded by leaf count.  Leaf-count bucket n is complete once K orders up
    to n are present (a substituted leaf doubles, so K[m] spreads over leaf
    counts m..2m and bucket n draws on orders ceil(n/2)..n); buckets above
    ``max_order`` would be incomplete and are not emitted.

    Returns:
        ExpansionResult of kind "G" with orders 2..max_order, coefficient-exact
        equal to :func:`g_expansion` when the input symbols are (a, b).
    """
    if two_variate_k.kind != "K" or len(two_variate_k.alphabet) != 2:
        raise ValueError(
            "reorder expects a K expansion over exactly two leaf labels, got "
            f"kind={two_variate_k.kind!r} alphabet={two_variate_k.alphabet!r}"
        )
    y_label, qv_label = two_variate_k.alphabet
    cherry = join(leaf(y_label), leaf(y_label))
    max_order = two_variate_k.max_order()
    # only trees that land in a complete bucket are substituted, all orders in
    # one call, so that subtrees the orders share are rebuilt once
    grown: Dict[Tree, int] = {leaf(qv_label): cherry.leaves}
    kept = Forest.zero()
    for f in two_variate_k.orders.values():
        kept = kept + Forest(
            {t: p for t, p in f.terms.items() if _grown_leaves(t, grown) <= max_order}
        )
    buckets = kept.substitute_leaf(qv_label, cherry).grade_by_leaves()
    orders = {n: f for n, f in buckets.items() if 2 <= n <= max_order}
    # ensure order keys are contiguous even if a bucket cancelled to zero
    for n in range(2, max_order + 1):
        orders.setdefault(n, Forest.zero())
    return ExpansionResult(
        kind="G",
        alphabet=(y_label,),
        symbols=two_variate_k.symbols,
        orders=dict(sorted(orders.items())),
    )
