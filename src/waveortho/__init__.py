"""waveortho: approximate-orthogonality solver for scalar diffraction and scattering.

The package has three layers:

* ``specfun`` and ``geometry``: special functions and quadrature surfaces.
* ``method``: the solver itself (basis traces, Gram system, diagonal and
  Galerkin solves, iterative refinement, far fields, diagnostics).
* ``oracles`` and ``born``: independent reference solutions (separation of
  variables, Kirchhoff, a spectral open-arc solver for the strip, dense
  boundary elements, volume integral equations) and Born-type expansions
  used to validate the method.
"""

from .born import BornResult, beta_weight, born_approximation
from .errors import DomainError, SingularSystemError, UsageError
from .geometry import Sphere, Spheroid, Strip, Surface, make_surface
from .method import (
    BoundaryCondition,
    FarFieldPattern,
    GramSystem,
    IncidentField,
    PlaneWaveBasis,
    PointSourceBasis,
    SphericalModeBasis,
    assemble_gram,
    boundary_residual,
    epsilon_diagnostic,
    eval_basis_trace,
    far_field,
    iteration_contraction_margin,
    iteration_spectral_radius,
    kernel_profile,
    kernel_values,
    refine_iterate,
    refine_power,
    solve_diagonal,
    solve_galerkin,
)

__version__ = "0.1.0"

__all__ = [
    "BornResult",
    "BoundaryCondition",
    "DomainError",
    "FarFieldPattern",
    "GramSystem",
    "IncidentField",
    "PlaneWaveBasis",
    "PointSourceBasis",
    "SingularSystemError",
    "Sphere",
    "SphericalModeBasis",
    "Spheroid",
    "Strip",
    "Surface",
    "UsageError",
    "assemble_gram",
    "beta_weight",
    "born_approximation",
    "boundary_residual",
    "epsilon_diagnostic",
    "eval_basis_trace",
    "far_field",
    "iteration_contraction_margin",
    "iteration_spectral_radius",
    "kernel_profile",
    "kernel_values",
    "make_surface",
    "refine_iterate",
    "refine_power",
    "solve_diagonal",
    "solve_galerkin",
    "__version__",
]
