"""The one cumulant recursion, over any state family closed under the diamond.

States need ``+``, ``scale(q)`` and a commutative ``diamond``: formal
forests with exact polynomial coefficients (:mod:`.expansions`), the Levy
J-family, chaos2 kernels and affine loadings (the squared Bessel Gammas
among them, on the flat kernel) all qualify.
:func:`cumulant_states` takes seed states for the lowest orders; above the
seeds it forms

    X[m] = sum_{j<k, j+k=m} X[j] <> X[k] + 1/2 X[m/2] <> X[m/2],

visiting each unordered pair {j, k} once instead of summing every ordered
pair and halving.  The seed builders here are shared by the formal forests
and the numeric affine states, so both run from the same seeds.

This module imports neither numpy nor the exact polynomial algebra, so a
numeric model that runs the recursion loads only what its states need.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Mapping

__all__ = ["HALF", "cumulant_states"]

HALF = Fraction(1, 2)


def cumulant_states(seeds: Mapping[int, Any], n_max: int) -> Dict[int, Any]:
    """Run the cumulant recursion over any diamond-closed state family.

    States need ``+``, ``scale(q)`` and a commutative ``diamond``.  Orders
    1..max(seeds) are the seeds themselves; every higher order m is the sum
    over unordered pairs j <= k with j + k = m, the diagonal pair weighted by
    1/2.

    Args:
        seeds: order -> state for the orders 1..s.
        n_max: highest order to generate.

    Returns:
        dict order -> state for the seed orders and every order up to ``n_max``.
    """
    states: Dict[int, Any] = dict(seeds)
    for m in range(max(seeds) + 1, n_max + 1):
        pairs = [states[j].diamond(states[m - j]) for j in range(1, (m + 1) // 2)]
        if m % 2 == 0:
            pairs.append(states[m // 2].diamond(states[m // 2]).scale(HALF))
        states[m] = sum(pairs[1:], pairs[0])
    return states


def _exponent_seeds(linear: Any, price: Any, beta: Any) -> Dict[int, Any]:
    """Seeds ``{1: L, 2: 1/2 L<>L + beta (P<>P)}`` of a joint exponent with
    linear part L and price leaf P, in any state family: above order 2 the
    pair (1, m-1) of the recursion is the exponent's linear term L <> X[m-1]."""
    return {1: linear, 2: linear.diamond(linear).scale(HALF) + price.diamond(price).scale(beta)}


def _spx_seeds(price: Any, zeta: Any, a: Any, b: Any, c: Any) -> Dict[int, Any]:
    """SPX seeds for weights (a, b, c) on (price, quadratic variation, curve):
    L = a P + c zeta and beta = b - a/2, so order 2 is
    (a(a-1)/2 + b)(P<>P) + ac (P<>zeta) + c^2/2 (zeta<>zeta)."""
    return _exponent_seeds(price.scale(a) + zeta.scale(c), price, b - a * HALF)
