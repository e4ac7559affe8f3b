"""First- and second-order weak-scattering approximations on 2D volume grids.

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

from .errors import DomainError
from .method import IncidentField
# sp (specfun's lazy scipy.special handle) and grid_green_matrix are unused
# here but stay bound in this module, where the benchmark tracer replaces and
# wraps them
from .oracles import VolumeGreen, VolumePotential, grid_green_matrix, sp  # noqa: F401


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


def beta_weight(pot: VolumePotential, green: VolumeGreen) -> np.ndarray:
    """Normalizing weight beta(r') = [1 + integral |Xi(r'')|^2 |G(r'', r')|^2 dr'']^-1.

    Grid quadrature with the singular cell replaced by the analytic
    cell-average of |G|^2; the sum is a convolution of |Xi|^2 with the |G|^2
    offset kernel (`green.green_sq`, built once for `pot`'s grid), taken by
    FFT. Values lie in (0, 1] and tend to 1 as Xi -> 0.
    """
    green.require_grid(pot)
    corr = (green.green_sq @ np.abs(pot.flat()) ** 2).real
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
    # a disturbance or a ring past the float range overflows here; BornResult
    # refuses the non-finite fields by name, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        beta = beta_weight(pot, green)

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
