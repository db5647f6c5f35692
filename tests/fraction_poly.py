"""The polynomial ring as it was before ``Poly`` moved to integer numerators.

``FractionPoly`` keeps one ``Fraction`` per term and name-sorted monomials,
the straightforward representation; ``tests/test_algebra.py`` checks the
integer-numerator ``Poly`` against it operation by operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Dict, Mapping, Optional, Tuple, Union

from diamond_forests.algebra import format_fraction

RationalLike = Union[int, Fraction]

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
class FractionPoly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` maps monomials to nonzero ``Fraction`` coefficients; zero
    coefficients are never stored, so ``p.is_zero()`` is a structural check
    and ``==`` is exact polynomial equality.
    """

    terms: Tuple[Tuple[Monomial, Fraction], ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_dict(d: Mapping[Monomial, RationalLike]) -> "FractionPoly":
        cleaned = {m: Fraction(c) for m, c in d.items() if c != 0}
        return FractionPoly(tuple(sorted(cleaned.items())))

    @staticmethod
    def const(c: RationalLike) -> "FractionPoly":
        return FractionPoly.from_dict({(): Fraction(c)})

    @staticmethod
    def symbol(name: str) -> "FractionPoly":
        return FractionPoly.from_dict({((name, 1),): Fraction(1)})

    # canonical constants, assigned right after the class body
    zero_: ClassVar["FractionPoly"]
    one_: ClassVar["FractionPoly"]

    # -- ring operations ----------------------------------------------------

    def _as_dict(self) -> Dict[Monomial, Fraction]:
        return dict(self.terms)

    def __add__(self, other: "FractionPolyLike") -> "FractionPoly":
        other = as_fraction_poly(other)
        d = self._as_dict()
        for m, c in other.terms:
            d[m] = d.get(m, Fraction(0)) + c
        return FractionPoly.from_dict(d)

    __radd__ = __add__

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "FractionPolyLike") -> "FractionPoly":
        return self + (-as_fraction_poly(other))

    def __rsub__(self, other: "FractionPolyLike") -> "FractionPoly":
        return as_fraction_poly(other) + (-self)

    def __mul__(self, other: "FractionPolyLike") -> "FractionPoly":
        other = as_fraction_poly(other)
        d: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_mul(m1, m2)
                d[m] = d.get(m, Fraction(0)) + c1 * c2
        return FractionPoly.from_dict(d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FractionPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = FractionPoly.one_
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

    def substitute(self, bindings: Mapping[str, "FractionPolyLike"]) -> "FractionPoly":
        """Replace symbols by polynomials (or rationals); exact.

        Symbols absent from ``bindings`` are left untouched.  Substitution is
        simultaneous (``{"a": b, "b": a}`` swaps) and runs in one pass:
        constant bindings fold into each term's coefficient, powers of
        polynomial bindings are built once, and every term lands in one dict.
        """
        polys = {sym: as_fraction_poly(p) for sym, p in bindings.items()}
        consts = {sym: p.constant_value() for sym, p in polys.items() if p.is_constant()}
        powers: Dict[Tuple[str, int], FractionPoly] = {}
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            kept = []
            factor: Optional[FractionPoly] = None
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
        return FractionPoly.from_dict(out)

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
        return f"FractionPoly({self})"


FractionPolyLike = Union[FractionPoly, int, Fraction]

FractionPoly.zero_ = FractionPoly(())
FractionPoly.one_ = FractionPoly((((), Fraction(1)),))


def as_fraction_poly(x: FractionPolyLike) -> FractionPoly:
    if isinstance(x, FractionPoly):
        return x
    return FractionPoly.const(x)
