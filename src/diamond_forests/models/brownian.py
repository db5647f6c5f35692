"""Brownian motion with drift, and Brownian motion stopped at unit barriers."""

from __future__ import annotations

import math
from typing import List

from ..errors import DomainError, require_finite

__all__ = ["brownian_drift_cumulants", "stopped_bm_cgf"]


def brownian_drift_cumulants(
    sigma: float, mu: float, t: float, T: float, n: int, state: float = 0.0
) -> List[float]:
    """Conditional cumulant states for A = sigma*B + mu*time at horizon T.

    The order-1 state is the conditional mean ``state + mu*(T-t)`` (with
    ``state`` the current value of A), order 2 is ``sigma^2 (T-t) / 2``, and
    all higher orders vanish: the terminal increment is Gaussian.  Note these
    are the recursion states; the n-th cumulant is n! times entry n.

    Returns:
        list [K1, ..., Kn].
    """
    require_finite(sigma=sigma, mu=mu, t=t, T=T, state=state)
    if T < t:
        raise DomainError(f"need T >= t, got t={t}, T={T}")
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [0.0] * n
    out[0] = state + mu * (T - t)
    if n >= 2:
        out[1] = 0.5 * sigma**2 * (T - t)
    return out


def stopped_bm_cgf(B: float, x: float) -> float:
    """CGF of the stopped value of Brownian motion hitting +-1, given B in [-1,1].

    The process stopped at the first hit of +-1 ends at +1 with probability
    (1+B)/2, so the conditional CGF is log((1+B)e^x + (1-B)e^-x) - log 2.
    At B=0 this is log cosh x; at B=+-1 it is +-x exactly.
    """
    require_finite(B=B, x=x)
    if abs(B) > 1:
        raise DomainError(f"current value must lie in [-1, 1], got {B}")
    # stable evaluation for large |x|
    ax = abs(x)
    up = math.log1p(B) if B > -1 else -math.inf
    dn = math.log1p(-B) if B < 1 else -math.inf
    # log( e^{up+x} + e^{dn-x} ) - log 2
    m = max(up + x, dn - x)
    return m + math.log(math.exp(up + x - m) + math.exp(dn - x - m)) - math.log(2.0)
