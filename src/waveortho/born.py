"""First- and second-order weak-scattering approximations on volume grids.

One call returns three variants: the weighted first order, the conventional
second order (iterated kernel), and a modified second order whose double
integral depends on the disturbance only through |Xi|^2 and enters with an
overall minus sign. All of them evaluate at points outside the potential
support; the matched reference solution lives in the oracles module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.special as sp

from .errors import DomainError
from .method import IncidentField
# grid_green_matrix is unused here but stays bound in this module, where the
# benchmark tracer wraps it
from .oracles import (  # noqa: F401
    EULER_GAMMA,
    LatticeOperator,
    VolumeGreen,
    VolumePotential,
    _lattice_offsets,
    grid_green_matrix,
)


@dataclass(frozen=True)
class BornResult:
    """Approximate total fields of every order at the evaluation points.

    fields maps "first", "second-standard" and "second-modified" to their
    total fields. The scattering integrals are kept so callers can inspect
    their phases and signs: plain_term is the unit-weight first integral
    -G Xi u0, first_term the beta-weighted one, and second_terms maps the two
    second orders to their double integrals.
    """

    fields: Dict[str, np.ndarray]
    beta: np.ndarray
    plain_term: np.ndarray
    first_term: np.ndarray
    second_terms: Dict[str, np.ndarray]

    def __post_init__(self):
        if not all(np.all(np.isfinite(f)) for f in self.fields.values()):
            raise DomainError("non-finite values in approximation result")


def _self_cell_green_sq(dim: int, k: float, h: float) -> float:
    """Integral of |G|^2 over the equal-measure disk/ball centered at a node.

    2D uses the small-argument form of |H0|^2, which is the consistent
    regularization at the cell scale; 3D is exact since |G| = 1/(4 pi r).
    """
    if dim == 2:
        r0 = h / np.sqrt(np.pi)
        la = np.log(0.5 * k * np.exp(EULER_GAMMA) * r0)
        return (np.pi * r0**2 / 16.0) * (1.0 + (4.0 / np.pi**2) * (la * la - la + 0.5))
    r0 = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    return r0 / (4.0 * np.pi)


def _green_sq_kernel(pot: VolumePotential, k: float) -> np.ndarray:
    """Cell-integrated |G|^2 on the lattice offsets, self-cell value at offset 0."""
    r = _lattice_offsets(pot)
    if pot.dim == 2:
        kr = k * r
        g2 = (sp.j0(kr) ** 2 + sp.y0(kr) ** 2) / 16.0 * pot.h**2
    else:
        g2 = 1.0 / (4.0 * np.pi * r) ** 2 * pot.h**3
    g2[(0,) * pot.dim] = _self_cell_green_sq(pot.dim, k, pot.h)
    return g2


def beta_weight(pot: VolumePotential, k: float) -> np.ndarray:
    """Normalizing weight beta(r') = [1 + integral |Xi(r'')|^2 |G(r'', r')|^2 dr'']^-1.

    Grid quadrature with the singular cell replaced by the analytic
    cell-average of |G|^2; the sum is a convolution of |Xi|^2 with the |G|^2
    offset kernel, taken by FFT. Values lie in (0, 1] and tend to 1 as Xi -> 0.
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    corr = (LatticeOperator(_green_sq_kernel(pot, k)) @ np.abs(pot.flat()) ** 2).real
    return 1.0 / (1.0 + corr)


def born_approximation(
    pot: VolumePotential,
    u0: IncidentField,
    green: VolumeGreen,
    alt_second_reading: bool = False,
) -> BornResult:
    """Weak-scattering fields of all three orders at the points of `green`.

    first:            u0 - sum_j beta_j G(p, r_j) Xi_j u0_j
    second-standard:  iterated-kernel second order with beta = 1,
                      u0 - G Xi u0 + G Xi G Xi u0
    second-modified:  u0 - sum_j beta_j G(p, r_j) Xi_j u0_j
                          - sum_j beta_j G(p, r_j) u0_j sum_m G(r_m, r_j) |Xi_m|^2
    where the inner |Xi|^2 sum weighs u0 at r_j; alt_second_reading instead
    pairs u0 with |Xi|^2 at r_m (a sensitivity study, off by default).

    `green` (built for `pot`'s grid) supplies the exterior Green rows and the
    grid Green operator; beta is evaluated once. All orders share them.
    """
    green.require_grid(pot)
    if u0.dim != pot.dim:
        raise DomainError("incident field dimension does not match the grid")

    xi = pot.flat()
    u0g = u0.values(pot.points())
    gout, gop = green.rows, green.operator
    beta = beta_weight(pot, green.k)

    plain_term = -gout @ (xi * u0g)
    first_term = -gout @ (beta * xi * u0g)
    if alt_second_reading:
        modified = -gout @ (beta * (gop @ (np.abs(xi) ** 2 * u0g)))
    else:
        modified = -gout @ (beta * u0g * (gop @ (np.abs(xi) ** 2)))
    second_terms = {
        "second-standard": gout @ (xi * (gop @ (xi * u0g))),
        "second-modified": modified,
    }

    incident = u0.values(green.points)
    fields = {
        "first": incident + first_term,
        "second-standard": (incident + plain_term) + second_terms["second-standard"],
        "second-modified": (incident + first_term) + second_terms["second-modified"],
    }
    return BornResult(
        fields=fields,
        beta=beta,
        plain_term=plain_term,
        first_term=first_term,
        second_terms=second_terms,
    )
