"""diamond-forests: exact forest expansions of conditional cumulants.

Symbolic binary-tree forests for cumulant/CGF recursions, closed-form model
evaluators (Brownian functionals, Lévy area, iterated-integral signatures,
squared Bessel, second Wiener chaos), a convolution Riccati solver for affine
forward-variance models, and a Monte Carlo oracle for statistical checks.

The names below are resolved on first access (PEP 562), so ``import
diamond_forests`` loads neither the exact polynomial algebra nor the forest
expansions; a numeric command imports only the submodules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SUBMODULE = {
    "Forest": "algebra",
    "Poly": "algebra",
    "Tree": "algebra",
    "catalan": "algebra",
    "format_fraction": "algebra",
    "join": "algebra",
    "leaf": "algebra",
    "parse_fraction": "algebra",
    "parse_poly": "algebra",
    "wedderburn_etherington": "algebra",
    "ExpansionResult": "expansions",
    "cumulant_states": "recursion",
    "g_expansion": "expansions",
    "k_expansion": "expansions",
    "reorder": "expansions",
    "specialize": "expansions",
    "spx_g_expansion": "expansions",
}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
