"""Exact symbolic algebra of binary trees and forests under the diamond product.

The objects here are the building blocks of the cumulant expansions:

* ``Poly`` — multivariate polynomials over exact rationals (``fractions.Fraction``)
  in formal symbols such as ``a``, ``b``, ``c``, ``z1``, ``lambda``.
* ``Tree`` — canonical *unordered* binary trees with named leaves.  The diamond
  product of two trees is represented by joining them under a new root, and
  "unordered" is enforced by keeping children sorted under a fixed total order
  on serializations, so structurally equal trees are identical objects.
* ``Forest`` — finite linear combinations of trees with ``Poly`` coefficients;
  the diamond product extends bilinearly.
* ``parse_poly`` — reads a ``Poly`` from text such as ``-a^2/2`` (the CLI's
  ``--bind``).  One regex pass spells ``^`` as ``**``, puts ``_`` before each
  identifier (so keywords such as ``lambda`` stay symbols) and rewrites each
  digit run as its int (so ``01`` reads as 1).  Python's own ``ast`` then
  parses the text, and one walk over the tree accepts only the polynomial
  nodes; anything else, malformed or too deeply nested input included,
  raises ``ValueError``.  So does ``#``, which Python reads as a comment, and
  text that Python would NFKC-normalize, so that ``ª`` never reads as ``a``.

All arithmetic is exact: identities that are supposed to cancel (for instance
the exponential-martingale cancellation in the expansion engine) cancel to the
structural zero forest, never merely to a small float.
"""

from __future__ import annotations

import ast
import operator
import re
import unicodedata
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Dict, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "Poly",
    "Tree",
    "Forest",
    "leaf",
    "join",
    "parse_poly",
    "format_fraction",
    "parse_fraction",
    "wedderburn_etherington",
    "catalan",
]

RationalLike = Union[int, Fraction]

# ---------------------------------------------------------------------------
# Rational helpers ("p/q" wire format)
# ---------------------------------------------------------------------------


def format_fraction(q: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` (q > 0, reduced)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(s: str) -> Fraction:
    """Inverse of :func:`format_fraction`; accepts ``"3"``, ``"-1/2"``."""
    return Fraction(s.strip())


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

# A monomial is a sorted tuple of (symbol, exponent>0) pairs; () is the unit.
Monomial = Tuple[Tuple[str, int], ...]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    powers: Dict[str, int] = dict(m1)
    for sym, e in m2:
        powers[sym] = powers.get(sym, 0) + e
    return tuple(sorted((s, e) for s, e in powers.items() if e != 0))


def _mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(s if e == 1 else f"{s}^{e}" for s, e in m)


@dataclass(frozen=True)
class Poly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` maps monomials to nonzero ``Fraction`` coefficients; zero
    coefficients are never stored, so ``p.is_zero()`` is a structural check
    and ``==`` is exact polynomial equality.
    """

    terms: Tuple[Tuple[Monomial, Fraction], ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_dict(d: Mapping[Monomial, RationalLike]) -> "Poly":
        cleaned = {m: Fraction(c) for m, c in d.items() if c != 0}
        return Poly(tuple(sorted(cleaned.items())))

    @staticmethod
    def const(c: RationalLike) -> "Poly":
        return Poly.from_dict({(): Fraction(c)})

    @staticmethod
    def symbol(name: str) -> "Poly":
        return Poly.from_dict({((name, 1),): Fraction(1)})

    # canonical constants, assigned right after the class body
    zero_: ClassVar["Poly"]
    one_: ClassVar["Poly"]

    # -- ring operations ----------------------------------------------------

    def _as_dict(self) -> Dict[Monomial, Fraction]:
        return dict(self.terms)

    def __add__(self, other: "PolyLike") -> "Poly":
        other = as_poly(other)
        d = self._as_dict()
        for m, c in other.terms:
            d[m] = d.get(m, Fraction(0)) + c
        return Poly.from_dict(d)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "PolyLike") -> "Poly":
        return self + (-as_poly(other))

    def __rsub__(self, other: "PolyLike") -> "Poly":
        return as_poly(other) + (-self)

    def __mul__(self, other: "PolyLike") -> "Poly":
        other = as_poly(other)
        d: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_mul(m1, m2)
                d[m] = d.get(m, Fraction(0)) + c1 * c2
        return Poly.from_dict(d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one_
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m, _ in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (ValueError otherwise)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"polynomial {self} is not constant")
        return self.terms[0][1]

    def symbols(self) -> set:
        return {s for m, _ in self.terms for s, _ in m}

    # -- substitution / evaluation ------------------------------------------

    def substitute(self, bindings: Mapping[str, "PolyLike"]) -> "Poly":
        """Replace symbols by polynomials (or rationals); exact.

        Symbols absent from ``bindings`` are left untouched.  Substitution is
        simultaneous (``{"a": b, "b": a}`` swaps) and runs in one pass:
        constant bindings fold into each term's coefficient, powers of
        polynomial bindings are built once, and every term lands in one dict.
        """
        polys = {sym: as_poly(p) for sym, p in bindings.items()}
        consts = {sym: p.constant_value() for sym, p in polys.items() if p.is_constant()}
        powers: Dict[Tuple[str, int], Poly] = {}
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            kept = []
            factor: Optional[Poly] = None
            for sym, e in m:
                if sym in consts:
                    c *= consts[sym] ** e
                elif sym in polys:
                    p = powers.get((sym, e))
                    if p is None:
                        p = powers[(sym, e)] = polys[sym] ** e
                    factor = p if factor is None else factor * p
                else:
                    kept.append((sym, e))
            if not c:
                continue
            rest = tuple(kept)
            if factor is None:
                out[rest] = out.get(rest, 0) + c
                continue
            for m2, c2 in factor.terms:
                mono = _mono_mul(rest, m2)
                out[mono] = out.get(mono, 0) + c * c2
        return Poly.from_dict(out)

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Evaluate numerically; every symbol must be bound."""
        total = 0.0
        for m, c in self.terms:
            x = float(c)
            for sym, e in m:
                if sym not in values:
                    raise KeyError(f"unbound symbol {sym!r}")
                x *= float(values[sym]) ** e
            total += x
        return total

    # -- presentation -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # sort: total degree, then monomial — stable, readable output
        key = lambda mc: (sum(e for _, e in mc[0]), mc[0])
        parts = []
        for m, c in sorted(self.terms, key=key):
            coeff = format_fraction(c)
            if m == ():
                parts.append(coeff)
            elif c == 1:
                parts.append(_mono_str(m))
            elif c == -1:
                parts.append("-" + _mono_str(m))
            else:
                parts.append(f"{coeff}*{_mono_str(m)}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


PolyLike = Union[Poly, int, Fraction]

Poly.zero_ = Poly(())
Poly.one_ = Poly((((), Fraction(1)),))


def as_poly(x: PolyLike) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly.const(x)


# ---------------------------------------------------------------------------
# Polynomial expressions (the CLI's --bind and the tests), read by Python's ast
# ---------------------------------------------------------------------------

# ``^`` -> ``**``, name -> ``_name``, digit run -> its int (module docstring)
_LEXEME = re.compile(r"\^|[^\W\d]\w*|\d+")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: lambda p, q: p * (1 / q.constant_value())}


def _python_lexeme(match: "re.Match[str]") -> str:
    s = match[0]
    return "**" if s == "^" else str(int(s)) if s[0].isdigit() else "_" + s


def _poly_of(node: ast.AST) -> Poly:
    op = type(getattr(node, "op", node))
    if op is ast.Name:
        return Poly.symbol(node.id[1:])
    if op is ast.Constant and type(node.value) is int:
        return Poly.const(node.value)
    if op in (ast.UAdd, ast.USub):
        return -_poly_of(node.operand) if op is ast.USub else _poly_of(node.operand)
    if op is ast.Pow:
        if not (isinstance(node.right, ast.Constant) and type(node.right.value) is int):
            raise ValueError("exponents must be non-negative integer literals")
        return _poly_of(node.left) ** node.right.value
    if op in _BINARY:
        return _BINARY[op](_poly_of(node.left), _poly_of(node.right))
    what = repr(node.value) if op is ast.Constant else op.__name__
    raise ValueError(f"{what} is not allowed in a polynomial")


def parse_poly(text: str) -> Poly:
    """Parse expressions like ``-a^2/2``, ``1/2*a^2 + b``, ``(a+b)*(a-b)``.

    Grammar: integers, rationals ``p/q``, symbols, ``+ - * / ^`` and
    parentheses; division only by nonzero constants; ``**`` accepted for ``^``.
    """
    if "#" in text or unicodedata.normalize("NFKC", text) != text:
        raise ValueError("'#' (a comment) and text Python would NFKC-normalize are refused")
    source = _LEXEME.sub(_python_lexeme, " ".join(text.split()))
    try:
        return _poly_of(ast.parse(source, mode="eval").body)
    except ZeroDivisionError as exc:
        raise ValueError("division by zero") from exc
    except (SyntaxError, RecursionError) as exc:
        why = getattr(exc, "msg", "nested too deeply")
        raise ValueError(f"malformed expression: {why}") from exc


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    """A canonical unordered binary tree with named leaves.

    Build trees with :func:`leaf` and :func:`join`; the constructor itself is
    not meant to be called with unsorted children.  Canonical form: at every
    internal node ``serialize(left) <= serialize(right)`` under plain string
    comparison, so equal trees always have identical serializations (and the
    serialization doubles as the hash key).
    """

    shape: str  # canonical serialization, e.g. "((Y,Y),Y)"
    label: Optional[str] = None  # set iff the tree is a single leaf
    left: Optional["Tree"] = None
    right: Optional["Tree"] = None
    leaves: int = 1

    def is_leaf(self) -> bool:
        return self.label is not None

    def leaf_labels(self) -> Iterator[str]:
        if self.is_leaf():
            yield self.label  # type: ignore[misc]
        else:
            yield from self.left.leaf_labels()  # type: ignore[union-attr]
            yield from self.right.leaf_labels()  # type: ignore[union-attr]

    def __str__(self) -> str:
        return self.shape

    def __repr__(self) -> str:
        return f"Tree({self.shape!r})"

    def __hash__(self) -> int:
        return hash(self.shape)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tree) and self.shape == other.shape

    def __lt__(self, other: "Tree") -> bool:
        return self.shape < other.shape

    def diamond_text(self) -> str:
        """Human-readable form with an explicit diamond, e.g. ``((Y⋄Y)⋄Y)``."""
        if self.is_leaf():
            return self.label  # type: ignore[return-value]
        return f"({self.left.diamond_text()}⋄{self.right.diamond_text()})"  # type: ignore[union-attr]


_LEAF_CACHE: Dict[str, Tree] = {}


def leaf(label: str) -> Tree:
    """The single-leaf tree with the given label.

    Labels may not contain ``(``, ``)`` or ``,`` (they appear verbatim in the
    serialization).
    """
    t = _LEAF_CACHE.get(label)
    if t is None:
        if any(ch in label for ch in "(),") or not label:
            raise ValueError(f"bad leaf label {label!r}")
        t = Tree(shape=label, label=label)
        _LEAF_CACHE[label] = t
    return t


def join(t1: Tree, t2: Tree) -> Tree:
    """Join two trees under a new root (the diamond product on shapes).

    Commutative by construction: children are stored sorted by serialization,
    so ``join(t1, t2) == join(t2, t1)`` is the *same* canonical tree.
    """
    if t2.shape < t1.shape:
        t1, t2 = t2, t1
    return Tree(
        shape=f"({t1.shape},{t2.shape})",
        left=t1,
        right=t2,
        leaves=t1.leaves + t2.leaves,
    )


def substitute_leaf_tree(t: Tree, label: str, replacement: Tree) -> Tree:
    """Replace every leaf carrying ``label`` by ``replacement`` (re-canonicalized)."""
    if t.is_leaf():
        return replacement if t.label == label else t
    return join(
        substitute_leaf_tree(t.left, label, replacement),  # type: ignore[arg-type]
        substitute_leaf_tree(t.right, label, replacement),  # type: ignore[arg-type]
    )


# ---------------------------------------------------------------------------
# Forests
# ---------------------------------------------------------------------------


class Forest:
    """A finite linear combination of canonical trees with ``Poly`` coefficients.

    Treated as an immutable value; trees with zero coefficient are removed
    eagerly, so the zero forest has no terms and ``is_zero()`` is structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Tree, PolyLike]] = None):
        cleaned: Dict[Tree, Poly] = {}
        if terms:
            for t, c in terms.items():
                p = as_poly(c)
                if not p.is_zero():
                    cleaned[t] = p
        self._terms = cleaned

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> Dict[Tree, Poly]:
        return dict(self._terms)

    def coeff(self, t: Tree) -> Poly:
        return self._terms.get(t, Poly.zero_)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Tuple[Tree, Poly]]:
        # deterministic order: leaf count, then serialization
        return iter(sorted(self._terms.items(), key=lambda tc: (tc[0].leaves, tc[0].shape)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Forest) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset((t, p) for t, p in self._terms.items()))

    # -- linear structure -----------------------------------------------------

    @staticmethod
    def zero() -> "Forest":
        return Forest()

    @staticmethod
    def of(t: Tree, c: PolyLike = 1) -> "Forest":
        return Forest({t: c})

    def __add__(self, other: "Forest") -> "Forest":
        d = dict(self._terms)
        for t, p in other._terms.items():
            q = d.get(t)
            d[t] = p if q is None else q + p
        return Forest(d)

    def __sub__(self, other: "Forest") -> "Forest":
        return self + other.scale(-1)

    def scale(self, c: PolyLike) -> "Forest":
        c = as_poly(c)
        return Forest({t: p * c for t, p in self._terms.items()})

    def map_coeffs(self, fn) -> "Forest":
        """Apply ``fn: Poly -> Poly`` to every coefficient (zeros dropped)."""
        return Forest({t: fn(p) for t, p in self._terms.items()})

    # -- diamond product -------------------------------------------------------

    def diamond(self, other: "Forest") -> "Forest":
        """Bilinear extension of :func:`join`; coefficients multiply."""
        d: Dict[Tree, Poly] = {}
        for t1, p1 in self._terms.items():
            for t2, p2 in other._terms.items():
                t = join(t1, t2)
                p = p1 * p2
                q = d.get(t)
                d[t] = p if q is None else q + p
        return Forest(d)

    # -- structural operations -------------------------------------------------

    def grade_by_leaves(self) -> Dict[int, "Forest"]:
        """Partition by leaf count; the parts sum back to the forest."""
        buckets: Dict[int, Dict[Tree, Poly]] = {}
        for t, p in self._terms.items():
            buckets.setdefault(t.leaves, {})[t] = p
        return {n: Forest(d) for n, d in sorted(buckets.items())}

    def substitute_leaf(self, label: str, replacement: Tree) -> "Forest":
        """Replace every leaf named ``label`` by ``replacement`` in every tree."""
        d: Dict[Tree, Poly] = {}
        for t, p in self._terms.items():
            t2 = substitute_leaf_tree(t, label, replacement)
            q = d.get(t2)
            d[t2] = p if q is None else q + p
        return Forest(d)

    # -- presentation ------------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for t, p in self:
            c = str(p)
            if c == "1":
                parts.append(t.diamond_text())
            elif ("+" in c) or (" - " in c) or c.startswith("-"):
                parts.append(f"({c})·{t.diamond_text()}")
            else:
                parts.append(f"{c}·{t.diamond_text()}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Forest({self.to_text()})"


# ---------------------------------------------------------------------------
# Shape counting
# ---------------------------------------------------------------------------


def wedderburn_etherington(n: int) -> int:
    """Number of distinct unordered binary-tree shapes with ``n`` leaves.

    The sequence starts 0, 1, 1, 1, 2, 3, 6, 11, 23, 46, 98 for n = 0..10.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    w = [0] * (n + 1)
    if n >= 1:
        w[1] = 1
    for m in range(2, n + 1):
        total = 0
        for i in range(1, m // 2 + 1):
            j = m - i
            if i < j:
                total += w[i] * w[j]
            else:  # i == j: unordered pairs with repetition
                total += w[i] * (w[i] + 1) // 2
        w[m] = total
    return w[n]


def catalan(n: int) -> int:
    """The n-th Catalan number C_n (C_0 = 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    import math

    return math.comb(2 * n, n) // (n + 1)
