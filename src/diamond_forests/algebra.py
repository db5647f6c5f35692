"""Exact symbolic algebra of binary trees and forests under the diamond product.

The objects here are the building blocks of the cumulant expansions:

* ``Poly`` — multivariate polynomials with exact rational coefficients in
  formal symbols such as ``a``, ``b``, ``c``, ``z1``, ``lambda``.
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

Representation.  The expansions make tens of thousands of trees whose
coefficients are small polynomials, so the work is per tree and per term.
``fractions.Fraction`` pays a gcd and an object per coefficient operation, and
name-sorted monomials must be merged and re-sorted on every product, so
neither is used inside the arithmetic:

* A symbol gets a position the first time it is seen, fixed for the process.
  A ``Poly`` keys its terms by exponent tuples in that order, all as long as
  one past the last symbol the polynomial uses, so a product of monomials is
  ``tuple(map(add, m1, m2))``.
* A ``Poly`` holds integer numerators over one shared positive denominator,
  reduced by one ``math.gcd`` per operation.  The reduced form is unique, so
  ``==`` and ``hash`` compare it directly.
* ``Poly.terms`` presents name-sorted ``((symbol, exponent), ...)`` monomials
  with ``Fraction`` coefficients, for printing, evaluation and callers.
* Trees are interned: ``leaf`` and ``join`` return the one instance of each
  canonical shape, ``join`` through a table keyed by its two children, so a
  repeated join is one dict lookup and ``==``/``hash`` are identity.
* ``Forest.diamond`` multiplies each pair of coefficient objects once and
  keeps one object per distinct coefficient it makes: an order-10 SPX forest
  has 32 763 trees but 136 distinct coefficients.  ``scale`` and
  ``map_coeffs`` call their function once per coefficient object, and a
  ``Poly`` keeps its hash and its text once computed.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import threading
import unicodedata
from fractions import Fraction
from operator import add
from typing import ClassVar, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

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

# A monomial as ``Poly.terms`` presents it: a name-sorted tuple of
# (symbol, exponent > 0) pairs; () is the unit.
Monomial = Tuple[Tuple[str, int], ...]
# A monomial as a Poly stores it: exponents in the fixed symbol order.
Exponents = Tuple[int, ...]

# The fixed symbol order: a symbol's position is fixed when it is first seen.
_SYMBOLS: List[str] = []
_POSITION: Dict[str, int] = {}
# Guards each first insertion into the symbol order and the tree tables below:
# two threads must never give one symbol two positions or one shape two trees.
_FIRST_SEEN = threading.Lock()


def _position(sym: str) -> int:
    i = _POSITION.get(sym)
    if i is None:
        with _FIRST_SEEN:
            i = _POSITION.get(sym)
            if i is None:
                i = _POSITION[sym] = len(_SYMBOLS)
                _SYMBOLS.append(sym)
    return i


def _new(nums: Dict[Exponents, int], den: int, width: int) -> "Poly":
    p = object.__new__(Poly)
    p._nums, p._den, p._width, p._hash, p._text = nums, den, width, None, None
    return p


def _reduced(nums: Dict[Exponents, int], den: int, width: int) -> "Poly":
    """The Poly of nonzero numerators ``nums`` over ``den``, with their common
    factor divided out."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {m: c // g for m, c in nums.items()}
    return _new(nums, den, width)


def _normal(nums: Dict[Exponents, int], den: int) -> "Poly":
    """Like :func:`_reduced`, for numerators that may be zero and monomials
    that may end in symbols no term uses."""
    if 0 in nums.values():
        nums = {m: c for m, c in nums.items() if c}
    if not nums:
        return Poly.zero_
    full = width = len(next(iter(nums)))
    while width and not any(m[width - 1] for m in nums):
        width -= 1
    if width < full:
        nums = {m[:width]: c for m, c in nums.items()}
    return _reduced(nums, den, width)


def _widened(nums: Dict[Exponents, int], width: int) -> Dict[Exponents, int]:
    pad = (0,) * (width - len(next(iter(nums))))
    return {m + pad: c for m, c in nums.items()}


def _aligned(p: "Poly", q: "Poly") -> Tuple[Dict[Exponents, int], Dict[Exponents, int], int]:
    """The numerators of two nonzero polynomials over monomials of one width."""
    if p._width < q._width:
        return _widened(p._nums, q._width), q._nums, q._width
    if p._width > q._width:
        return p._nums, _widened(q._nums, p._width), p._width
    return p._nums, q._nums, p._width


def _mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(s if e == 1 else f"{s}^{e}" for s, e in m)


class Poly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` lists the nonzero terms as sorted ``(monomial, Fraction)``
    pairs; zero coefficients are never stored, so ``p.is_zero()`` is a
    structural check and ``==`` is exact polynomial equality.  Stored as
    integer numerators over one positive denominator (module docstring);
    treated as an immutable value.
    """

    # ``_hash`` and ``_text`` are filled on first use: forests share
    # coefficient objects, so each is hashed and printed once
    __slots__ = ("_nums", "_den", "_width", "_hash", "_text")

    # canonical constants, assigned right after the class body
    zero_: ClassVar["Poly"]
    one_: ClassVar["Poly"]

    # -- constructors -------------------------------------------------------

    def __init__(self, terms: Iterable[Tuple[Monomial, RationalLike]] = ()):
        rows = []
        for mono, c in terms:
            exps: Dict[int, int] = {}
            for sym, e in mono:
                i = _position(sym)
                exps[i] = exps.get(i, 0) + e
            rows.append((exps, Fraction(c)))
        width = max((i + 1 for exps, _ in rows for i in exps), default=0)
        den = math.lcm(*(c.denominator for _, c in rows))
        nums: Dict[Exponents, int] = {}
        for exps, c in rows:
            m = tuple(exps.get(i, 0) for i in range(width))
            nums[m] = nums.get(m, 0) + c.numerator * (den // c.denominator)
        p = _normal(nums, den)
        self._nums, self._den, self._width = p._nums, p._den, p._width
        self._hash = self._text = None

    @staticmethod
    def from_dict(d: Mapping[Monomial, RationalLike]) -> "Poly":
        return Poly(d.items())

    @staticmethod
    def const(c: RationalLike) -> "Poly":
        if type(c) is not int:
            c = Fraction(c)
            return _new({(): c.numerator} if c else {}, c.denominator, 0)
        return _new({(): c} if c else {}, 1, 0)

    @staticmethod
    def symbol(name: str) -> "Poly":
        i = _position(name)
        return _new({(0,) * i + (1,): 1}, 1, i + 1)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "PolyLike") -> "Poly":
        other = as_poly(other)
        if not other._nums:
            return self
        if not self._nums:
            return other
        a, b, width = _aligned(self, other)
        g = math.gcd(self._den, other._den)
        f1, f2 = other._den // g, self._den // g
        den, out = self._den * f1, {m: c * f1 for m, c in a.items()}
        for m, c in b.items():
            out[m] = out.get(m, 0) + c * f2
        if 0 in out.values():
            return _normal(out, den)
        return _reduced(out, den, width)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _new({m: -c for m, c in self._nums.items()}, self._den, self._width)

    def __sub__(self, other: "PolyLike") -> "Poly":
        return self + (-as_poly(other))

    def __rsub__(self, other: "PolyLike") -> "Poly":
        return as_poly(other) + (-self)

    def __mul__(self, other: "PolyLike") -> "Poly":
        other = as_poly(other)
        if not self._nums or not other._nums:
            return Poly.zero_
        a, b, width = _aligned(self, other)
        den = self._den * other._den
        out: Dict[Exponents, int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        # a product of nonzero polynomials uses every symbol its factors use
        if 0 in out.values():
            return _normal(out, den)
        return _reduced(out, den, width)

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

    def __eq__(self, other: object) -> bool:
        if type(other) is not Poly:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._nums.items())))
        return self._hash

    def __reduce__(self):
        # positions in the symbol order belong to one process: pickle by name
        return (Poly, (self.terms,))

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        return self._width == 0

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (ValueError otherwise)."""
        if self._width:
            raise ValueError(f"polynomial {self} is not constant")
        return Fraction(self._nums.get((), 0), self._den)

    def symbols(self) -> set:
        return {_SYMBOLS[i] for m in self._nums for i, e in enumerate(m) if e}

    @property
    def terms(self) -> Tuple[Tuple[Monomial, Fraction], ...]:
        den = self._den
        return tuple(sorted(
            (tuple(sorted((_SYMBOLS[i], e) for i, e in enumerate(m) if e)), Fraction(c, den))
            for m, c in self._nums.items()
        ))

    # -- substitution / evaluation ------------------------------------------

    def substitute(self, bindings: Mapping[str, "PolyLike"]) -> "Poly":
        """Replace symbols by polynomials (or rationals); exact.

        Symbols absent from ``bindings`` are left untouched.  Substitution is
        simultaneous (``{"a": b, "b": a}`` swaps) and runs in one pass over
        integers: a bound symbol i with denominator q_i and top exponent E_i
        puts the whole result over ``den * prod q_i^E_i``, the powers of each
        binding are built once, and every term lands in one dict.
        """
        polys: Dict[int, Poly] = {}
        for sym, value in bindings.items():
            i = _POSITION.get(sym)
            if i is not None and i < self._width:
                polys[i] = as_poly(value)
        if not polys or not self._nums:
            return self
        width = max([self._width, *(p._width for p in polys.values())])
        nums = self._nums if width == self._width else _widened(self._nums, width)
        common = 1
        for i, p in polys.items():
            common *= p._den ** max(m[i] for m in nums)
        powers: Dict[Tuple[int, int], Poly] = {}
        out: Dict[Exponents, int] = {}
        for m, c in nums.items():
            rest = list(m)
            factor = None
            for i, p in polys.items():
                e = m[i]
                if e:
                    rest[i] = 0
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[(i, e)] = p ** e
                    factor = power if factor is None else factor * power
            if factor is None:
                rest = tuple(rest)
                out[rest] = out.get(rest, 0) + c * common
                continue
            c *= common // factor._den
            for m2, c2 in factor._nums.items():
                mono = tuple(map(add, rest, m2 + (0,) * (width - len(m2))))
                out[mono] = out.get(mono, 0) + c * c2
        return _normal(out, self._den * common)

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
        if self._text is None:
            self._text = self._format()
        return self._text

    def _format(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        # sort: total degree, then monomial — stable, readable output
        key = lambda mc: (sum(e for _, e in mc[0]), mc[0])
        parts = []
        for m, c in sorted(terms, key=key):
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

Poly.zero_ = _new({}, 1, 0)
Poly.one_ = _new({(): 1}, 1, 0)


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


class Tree:
    """A canonical unordered binary tree with named leaves.

    Only :func:`leaf` and :func:`join` make trees, and they make one instance
    per canonical shape, so ``==`` and ``hash`` are identity.  Canonical form:
    at every internal node ``serialize(left) <= serialize(right)`` under plain
    string comparison, so equal trees always have identical serializations.
    """

    __slots__ = ("shape", "label", "left", "right", "leaves")

    def __init__(
        self,
        shape: str,  # canonical serialization, e.g. "((Y,Y),Y)"
        label: Optional[str] = None,  # set iff the tree is a single leaf
        left: Optional["Tree"] = None,
        right: Optional["Tree"] = None,
        leaves: int = 1,
    ):
        self.shape, self.label, self.left, self.right, self.leaves = (
            shape, label, left, right, leaves
        )

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

    def __lt__(self, other: "Tree") -> bool:
        return self.shape < other.shape

    def __reduce__(self):
        # unpickling and copying go back through the intern tables
        if self.label is not None:
            return (leaf, (self.label,))
        return (join, (self.left, self.right))

    def diamond_text(self) -> str:
        """Human-readable form with an explicit diamond, e.g. ``((Y⋄Y)⋄Y)``:
        the shape with its commas, which no leaf label contains, as diamonds."""
        return self.shape.replace(",", "⋄")


# The intern tables: every tree ever made, by label and by (child, child) in
# both orders.  They live as long as the process.
_LEAVES: Dict[str, Tree] = {}
_JOINS: Dict[Tuple[Tree, Tree], Tree] = {}


def leaf(label: str) -> Tree:
    """The single-leaf tree with the given label.

    Labels may not contain ``(``, ``)`` or ``,`` (they appear verbatim in the
    serialization).
    """
    t = _LEAVES.get(label)
    if t is None:
        if any(ch in label for ch in "(),") or not label:
            raise ValueError(f"bad leaf label {label!r}")
        with _FIRST_SEEN:
            t = _LEAVES.setdefault(label, Tree(label, label))
    return t


def join(t1: Tree, t2: Tree) -> Tree:
    """Join two trees under a new root (the diamond product on shapes).

    Commutative by construction: children are stored sorted by serialization,
    so ``join(t1, t2)`` and ``join(t2, t1)`` are the *same* tree object.
    """
    t = _JOINS.get((t1, t2))
    if t is None:
        a, b = (t2, t1) if t2.shape < t1.shape else (t1, t2)
        with _FIRST_SEEN:
            t = _JOINS.get((t1, t2))
            if t is None:
                t = Tree(f"({a.shape},{b.shape})", None, a, b, a.leaves + b.leaves)
                _JOINS[(t1, t2)] = _JOINS[(t2, t1)] = t
    return t


def _substituted(t: Tree, label: str, replacement: Tree, memo: Dict[Tree, Tree]) -> Tree:
    s = memo.get(t)
    if s is None:
        if t.label is not None:
            s = replacement if t.label == label else t
        else:
            s = join(
                _substituted(t.left, label, replacement, memo),  # type: ignore[arg-type]
                _substituted(t.right, label, replacement, memo),  # type: ignore[arg-type]
            )
        memo[t] = s
    return s


def substitute_leaf_tree(t: Tree, label: str, replacement: Tree) -> Tree:
    """Replace every leaf carrying ``label`` by ``replacement`` (re-canonicalized)."""
    return _substituted(t, label, replacement, {})


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
        return Forest(_per_coefficient(self._terms, lambda p: p * c))

    def map_coeffs(self, fn) -> "Forest":
        """Apply ``fn: Poly -> Poly`` to every coefficient (zeros dropped)."""
        return Forest(_per_coefficient(self._terms, fn))

    # -- diamond product -------------------------------------------------------

    def diamond(self, other: "Forest") -> "Forest":
        """Bilinear extension of :func:`join`; coefficients multiply.

        The expansions have far fewer distinct coefficients than trees, so each
        call keeps one object per distinct coefficient it makes, and multiplies
        each pair of coefficient objects once.
        """
        d: Dict[Tree, Poly] = {}
        products: Dict[Tuple[int, int], Poly] = {}
        shared: Dict[Poly, Poly] = {}
        for t1, p1 in self._terms.items():
            for t2, p2 in other._terms.items():
                t = join(t1, t2)
                key = (id(p1), id(p2))
                p = products.get(key)
                if p is None:
                    p = p1 * p2
                    p = products[key] = shared.setdefault(p, p)
                q = d.get(t)
                if q is not None:
                    p = q + p
                    p = shared.setdefault(p, p)
                d[t] = p
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
        memo: Dict[Tree, Tree] = {}  # shared subtrees are substituted once
        for t, p in self._terms.items():
            t2 = _substituted(t, label, replacement, memo)
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


def _per_coefficient(terms: Dict[Tree, Poly], fn) -> Dict[Tree, Poly]:
    """``{t: fn(p)}``, calling ``fn`` once per coefficient object (forests
    share them, see ``Forest.diamond``)."""
    done: Dict[int, Poly] = {}
    for p in terms.values():
        if id(p) not in done:
            done[id(p)] = fn(p)
    return {t: done[id(p)] for t, p in terms.items()}


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
