"""Model algebras: families of evaluated diamond-tree states.

Each submodule provides a state type closed under the diamond product for a
concrete process, so the cumulant recursion
:func:`diamond_forests.recursion.cumulant_states` can be run with exact or
grid-discretized states instead of formal trees (that module loads neither
numpy nor the forest algebra):

* :mod:`.brownian` — Brownian motion with drift; stopped Brownian motion.
* :mod:`.levy` — planar Brownian area via the closed J-family.
* :mod:`.signature` — iterated Ito/Stratonovich integrals, shuffle algebra,
  expected-signature coefficients, and the squared-integral CGF recursion.
* :mod:`.bessel` — squared Bessel processes via backward Gamma functions.
* :mod:`.chaos2` — second Wiener chaos kernels on a simplex grid.

The names below are resolved on first access (PEP 562), so importing one
submodule loads neither the others nor numpy, which only :mod:`.bessel` and
:mod:`.chaos2` need.
"""

from importlib import import_module

# each public name and the submodule that defines it
_SUBMODULE = {
    "brownian_drift_cumulants": "brownian",
    "stopped_bm_cgf": "brownian",
    "LevyState": "levy",
    "levy_alpha": "levy",
    "levy_cgf": "levy",
    "levy_cumulant_states": "levy",
    "levy_state_value": "levy",
    "SigExpr": "signature",
    "cameron_martin_cgf_coeffs": "signature",
    "cameron_martin_q": "signature",
    "diamond_ito": "signature",
    "diamond_strat": "signature",
    "fawcett_sigma": "signature",
    "shuffle": "signature",
    "BesselGamma": "bessel",
    "bessel_gamma": "bessel",
    "bessel_laplace": "bessel",
    "bessel_laplace_series": "bessel",
    "psi_series": "bessel",
    "Chaos2State": "chaos2",
    "chaos2_cumulants": "chaos2",
    "constant_kernel": "chaos2",
    "eigenvalue_cumulants": "chaos2",
    "kernel_from_function": "chaos2",
    "spectral_cumulants": "chaos2",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
