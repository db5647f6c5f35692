"""Shared exception types.

``DomainError`` marks numeric-domain violations (outside a convergence
domain, a Riccati solution that blows up, invalid model parameters) as
opposed to usage errors; the CLI maps it to exit code 3.  ``require_finite``
is the shared refusal of non-finite inputs, a usage error (exit code 2).
"""

import math


class DomainError(ValueError):
    """Parameters are outside the mathematical domain of the operation."""


def require_finite(**values: float) -> None:
    """Refuse a nan or infinite value with ``ValueError`` naming it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
