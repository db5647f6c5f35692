"""Shared exception types.

``DomainError`` marks numeric-domain violations (outside a convergence
domain, a Riccati solution that blows up, invalid model parameters) as
opposed to usage errors; the CLI maps it to exit code 3.
"""


class DomainError(ValueError):
    """Parameters are outside the mathematical domain of the operation."""
