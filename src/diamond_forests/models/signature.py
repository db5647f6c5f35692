"""Iterated stochastic integrals: signature diamonds, shuffles, expected signature.

Words are strings of digit letters ("12" is the integral of B^1 against dB^2,
iterated left to right).  ``SigExpr`` is an exact linear combination of terms

    coeff * B^{w_1}_t * ... * B^{w_r}_t * (T-t)^p,    p in (1/2) Z,

with rational coefficients and powers stored doubled.

The diamonds take the prefix/last-letter form (a, i, b, j) for the pair of
words ``a+i`` and ``b+j``; i != j annihilates both, and otherwise the bracket
is the integral over [t, T] of E_t[B^a_s B^b_s].  Chen's identity
B^a_s = sum_{a = a1 a2} B^{a1}_t B^{a2}_{t,s} splits each word at time t, and
the integrals over [t, s] are independent of F_t with the law of a fresh path
at horizon s - t.  Both diamonds are therefore closed forms, exact at every
conditioning time; they differ only in the unit-horizon expectation of a
product of two words (chaos orthogonality for Ito, the expected signature
summed over the shuffle for Stratonovich).  That expectation vanishes when
|a2| + |b2| is odd, so only integer powers of (T-t) occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import DomainError, require_finite
from ..recursion import cumulant_states
from .levy import LevyState

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


def _half_power(p: int) -> str:
    """The exponent p/2 of (T-t), written ``"1"`` or ``"3/2"``."""
    return str(p // 2) if p % 2 == 0 else f"{p}/2"


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

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(
        self, dt: float, word_values: Optional[Mapping[str, float]] = None
    ) -> float:
        """Numeric value given (T-t) >= 0 and the time-t iterated-integral values.

        ``word_values`` may be omitted for conditioning at time 0, where every
        iterated integral vanishes (terms carrying any word drop out).
        """
        require_finite(dt=dt)
        if dt < 0:
            raise DomainError(f"time to horizon dt must be >= 0, got {dt}")
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
        return [
            # str of a Fraction is "p" or "p/q", as ``algebra.format_fraction`` writes it
            {"coeff": str(c), "words": list(words), "dt_power": _half_power(p)}
            for (words, p), c in self.terms
        ]

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
                bits.append("dt" if p == 2 else f"dt^{_half_power(p)}")
            parts.append("*".join(bits))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Diamonds from Chen's identity
# ---------------------------------------------------------------------------


def _chen_diamond(
    a: str,
    i: str,
    b: str,
    j: str,
    weights: Callable[[str, str], List[List[Fraction]]],
) -> SigExpr:
    """delta_ij sum over a = a1 a2, b = b1 b2 of
    B^{a1} B^{b1} c(a2, b2) (T-t)^{m/2+1} / (m/2+1),  m = |a2| + |b2|.

    ``weights(a, b)[p][q]`` is c(a[p:], b[q:]), the unit-horizon expectation
    E[B^{a2}_1 B^{b2}_1] of two iterated integrals over a fresh Brownian path;
    Chen's identity splits each word at time t and the increments after t
    are independent of F_t.
    """
    _check_word(a), _check_word(b)
    if len(i) != 1 or len(j) != 1:
        raise ValueError("i and j must be single letters")
    _check_word(i), _check_word(j)
    if i != j:
        return SigExpr.zero()
    c = weights(a, b)
    terms: Dict[Key, Fraction] = {}
    for p in range(len(a) + 1):
        for q in range(len(b) + 1):
            if c[p][q]:
                m = len(a) - p + len(b) - q
                key = (tuple(sorted(w for w in (a[:p], b[:q]) if w)), m + 2)
                terms[key] = terms.get(key, Fraction(0)) + c[p][q] * Fraction(2, m + 2)
    return SigExpr._from_dict(terms)


def _ito_weights(a: str, b: str) -> List[List[Fraction]]:
    # chaos orthogonality: E[I^u_1 I^v_1] = [u == v] / |u|!
    return [
        [
            Fraction(1, math.factorial(len(a) - p)) if a[p:] == b[q:] else Fraction(0)
            for q in range(len(b) + 1)
        ]
        for p in range(len(a) + 1)
    ]


def _strat_weights(a: str, b: str) -> List[List[Fraction]]:
    """Entry [p][q] is the sum of sigma(w) over w in a[p:] shuffle b[q:].

    sigma is 1/(2^m m!) on the doubled words i1 i1 ... im im of length 2m and
    zero elsewhere, so this counts the interleavings (with multiplicity) that
    read as doubled words, walking both words' positions back from their
    ends.  The sentinels keep a letter pair from running past an end.
    """
    la, lb = len(a), len(b)
    pa, pb = a + "xy", b + "uv"
    n = [[0] * (lb + 3) for _ in range(la + 3)]
    for p in range(la, -1, -1):
        for q in range(lb, -1, -1):
            n[p][q] = (
                int((p, q) == (la, lb))
                + (pa[p] == pa[p + 1]) * n[p + 2][q]
                + (pb[q] == pb[q + 1]) * n[p][q + 2]
                + 2 * (pa[p] == pb[q]) * n[p + 1][q + 1]
            )

    def sigma_sum(p: int, q: int) -> Fraction:
        m = (la - p + lb - q) // 2
        return Fraction(n[p][q], 2**m * math.factorial(m))

    return [[sigma_sum(p, q) for q in range(lb + 1)] for p in range(la + 1)]


def diamond_ito(a: str, i: str, b: str, j: str) -> SigExpr:
    """Diamond of the Ito iterated integrals for words a+i and b+j.

    Exact at every conditioning time t:

        delta_ij sum_{a = a1 a2, b = b1 b2, a2 = b2}
            B^{a1} B^{b1} (T-t)^{k+1} / (k+1)!,   k = |a2|,

    from Chen's identity and chaos orthogonality E[I^u_r I^v_r] =
    [u == v] r^{|u|} / |u|! of the integrals over [t, s].
    """
    return _chen_diamond(a, i, b, j, _ito_weights)


def diamond_strat(a: str, i: str, b: str, j: str) -> SigExpr:
    """Diamond of the Stratonovich iterated integrals for words a+i and b+j.

    Exact at every conditioning time t:

        delta_ij sum_{a = a1 a2, b = b1 b2} B^{a1} B^{b1}
            sum_{w in a2 shuffle b2} sigma(w) (T-t)^{m/2+1} / (m/2+1),

    with m = |a2| + |b2| and sigma the expected signature (``fawcett_sigma``).
    The shuffle sum is counted over the two words' positions, not expanded,
    so long words stay cheap.
    """
    return _chen_diamond(a, i, b, j, _strat_weights)


# ---------------------------------------------------------------------------
# Squared-integral CGF (Cameron-Martin)
# ---------------------------------------------------------------------------


def cameron_martin_q(n_max: int) -> Dict[int, Fraction]:
    """The recursion q_1 = 1, q_n = 2/(2n-1) * sum_{i=1}^{n-1} q_i q_{n-i}.

    It is the cumulant recursion in the J-family of the planar area, whose
    product J^j <> J^k = 2/(j+k-1) J^{j+k} it shares: started from 2 J^2,
    the state at order n is 2 q_n J^{2n}.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    states = cumulant_states({1: LevyState(coeffs={2: Fraction(2)})}, n_max)
    return {n: st.coeffs[2 * n] / 2 for n, st in states.items()}


def cameron_martin_cgf_coeffs(n_max: int) -> Dict[int, Fraction]:
    """Coefficients of lambda^n in log E exp(-lambda * int_0^1 B^2).

    Entry n is (-1)^n q_n / (2n): the series starts -1/2, +1/6, -4/45 and
    sums to -(1/2) log cosh sqrt(2 lambda).
    """
    q = cameron_martin_q(n_max)
    return {n: Fraction((-1) ** n, 1) * qn / (2 * n) for n, qn in q.items()}


def cameron_martin_cgf(lam: float, n_max: int) -> float:
    """Numeric partial sum of the CGF at lambda (order n_max).

    The series sums to -(1/2) log cosh sqrt(2 lambda), whose nearest
    singularity is the zero of cos sqrt(2 |lambda|) at lambda = -pi^2/8; for
    |lambda| >= pi^2/8 it diverges and a DomainError is raised.
    """
    require_finite(lam=lam)
    if abs(lam) >= math.pi**2 / 8:
        raise DomainError(
            f"|lambda| = {abs(lam)} is outside the convergence domain |lambda| < pi^2/8"
        )
    coeffs = cameron_martin_cgf_coeffs(n_max)
    return sum(float(c) * lam**n for n, c in coeffs.items())
