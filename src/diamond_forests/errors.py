"""Shared exception types and integer input bounds.

``DomainError`` marks numeric-domain violations (outside a convergence
domain, a Riccati solution that blows up, invalid model parameters) as
opposed to usage errors; the CLI maps it to exit code 3.  ``require_finite``
is the shared refusal of non-finite inputs, a usage error (exit code 2).

The bounds on grid steps, path counts, cumulant and expansion orders live
here, free of numpy and of the exact algebra, so the command line can check
its flags without loading either; :mod:`.affine`, :mod:`.mc` and
:mod:`.expansions` re-export them under the same names.
"""

import math

MIN_STEPS = 8  # fewest grid steps ``solve_riccati`` takes
MAX_STEPS = 65536  # most; a solve at the cap takes about 0.06 s, or 1.5 s by the march
MIN_PATHS = 100
# 256 blocks of 2^16 paths: Heston's three float64 columns then take 384 MiB
MAX_PATHS = 1 << 24
MAX_CUMULANT_ORDER = 6
# Highest forest expansion order.  Shape counts grow like Wedderburn-Etherington
# numbers, so even order 12 is trivial; the cap just catches accidentally huge
# requests.
DEFAULT_MAX_ORDER_CAP = 64


class DomainError(ValueError):
    """Parameters are outside the mathematical domain of the operation."""


def require_finite(**values: float) -> None:
    """Refuse a nan or infinite value with ``ValueError`` naming it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
