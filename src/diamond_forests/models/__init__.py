"""Model algebras: families of evaluated diamond-tree states.

Each submodule provides a state type closed under the diamond product for a
concrete process, so the cumulant recursion
:func:`diamond_forests.expansions.cumulant_states` can be run with exact or
grid-discretized states instead of formal trees:

* :mod:`.brownian` — Brownian motion with drift; stopped Brownian motion.
* :mod:`.levy` — planar Brownian area via the closed J-family.
* :mod:`.signature` — iterated Ito/Stratonovich integrals, shuffle algebra,
  expected-signature coefficients, and the squared-integral CGF recursion.
* :mod:`.bessel` — squared Bessel processes via backward Gamma functions.
* :mod:`.chaos2` — second Wiener chaos kernels on a simplex grid.
"""

from .brownian import brownian_drift_cumulants, stopped_bm_cgf
from .levy import LevyState, levy_alpha, levy_cgf, levy_cumulant_states, levy_state_value
from .signature import (
    SigExpr,
    cameron_martin_cgf_coeffs,
    cameron_martin_q,
    diamond_ito,
    diamond_strat,
    fawcett_sigma,
    shuffle,
)
from .bessel import (
    BesselGamma,
    bessel_gamma,
    bessel_laplace,
    bessel_laplace_series,
    psi_series,
)
from .chaos2 import (
    Chaos2State,
    chaos2_cumulants,
    chaos2_diamond,
    constant_kernel,
    eigenvalue_cumulants,
    kernel_from_function,
)

__all__ = [
    "brownian_drift_cumulants",
    "stopped_bm_cgf",
    "LevyState",
    "levy_alpha",
    "levy_cgf",
    "levy_cumulant_states",
    "levy_state_value",
    "SigExpr",
    "cameron_martin_cgf_coeffs",
    "cameron_martin_q",
    "diamond_ito",
    "diamond_strat",
    "fawcett_sigma",
    "shuffle",
    "BesselGamma",
    "bessel_gamma",
    "bessel_laplace",
    "bessel_laplace_series",
    "psi_series",
    "Chaos2State",
    "chaos2_cumulants",
    "chaos2_diamond",
    "constant_kernel",
    "eigenvalue_cumulants",
    "kernel_from_function",
]
