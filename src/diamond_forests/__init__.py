"""diamond-forests: exact forest expansions of conditional cumulants.

Symbolic binary-tree forests for cumulant/CGF recursions, closed-form model
evaluators (Brownian functionals, Lévy area, iterated-integral signatures,
squared Bessel, second Wiener chaos), a convolution Riccati solver for affine
forward-variance models, and a Monte Carlo oracle for statistical checks.
"""

from .algebra import (
    Forest,
    Poly,
    Tree,
    catalan,
    format_fraction,
    join,
    leaf,
    parse_fraction,
    parse_poly,
    wedderburn_etherington,
)
from .expansions import (
    ExpansionResult,
    cumulant_states,
    g_expansion,
    k_expansion,
    reorder,
    specialize,
    spx_g_expansion,
)

__version__ = "0.1.0"

__all__ = [
    "Forest",
    "Poly",
    "Tree",
    "catalan",
    "format_fraction",
    "join",
    "leaf",
    "parse_fraction",
    "parse_poly",
    "wedderburn_etherington",
    "ExpansionResult",
    "cumulant_states",
    "g_expansion",
    "k_expansion",
    "reorder",
    "specialize",
    "spx_g_expansion",
    "__version__",
]
