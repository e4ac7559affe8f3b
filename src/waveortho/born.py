"""First- and second-order weak-scattering approximations on volume grids.

Three variants are provided: the weighted first order, the conventional
second order (iterated kernel), and a modified second order whose double
integral depends on the disturbance only through |Xi|^2 and enters with an
overall minus sign. All of them evaluate at points outside the potential
support; the matched reference solution lives in the oracles module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np
import scipy.special as sp

from .errors import DomainError, UnsupportedRegionError
from .method import IncidentField
from .oracles import (
    EULER_GAMMA,
    VolumePotential,
    _grid_distances,
    _volume_green,
    grid_green_matrix,
)


class BornOrder(Enum):
    FIRST = "first"
    SECOND_STANDARD = "second-standard"
    SECOND_MODIFIED = "second-modified"

    @classmethod
    def from_string(cls, name: str) -> "BornOrder":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(o.value for o in cls)
            raise DomainError(f"unknown order {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class BornResult:
    """Approximate total field at the evaluation points.

    first_term and second_term hold the individual scattering integrals
    (second_term is None for FIRST) so callers can inspect their phases and
    signs separately; field = u0 + first_term (+ second_term).
    """

    field: np.ndarray
    order: BornOrder
    beta_used: np.ndarray
    first_term: np.ndarray
    second_term: Optional[np.ndarray]

    def __post_init__(self):
        if not np.all(np.isfinite(self.field)):
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


def _green_sq_matrix(pot: VolumePotential, k: float) -> np.ndarray:
    """Cell-integrated |G|^2 kernel matrix (real, symmetric)."""
    r = _grid_distances(pot)
    if pot.dim == 2:
        kr = k * r
        g2 = (sp.j0(kr) ** 2 + sp.y0(kr) ** 2) / 16.0 * pot.h**2
    else:
        g2 = 1.0 / (4.0 * np.pi * r) ** 2 * pot.h**3
    np.fill_diagonal(g2, _self_cell_green_sq(pot.dim, k, pot.h))
    return g2


def beta_weight(pot: VolumePotential, k: float) -> np.ndarray:
    """Normalizing weight beta(r') = [1 + integral |Xi(r'')|^2 |G(r'', r')|^2 dr'']^-1.

    Grid quadrature with the singular cell replaced by the analytic
    cell-average of |G|^2. Values lie in (0, 1] and tend to 1 as Xi -> 0.
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    w = _green_sq_matrix(pot, k)
    corr = w @ np.abs(pot.flat()) ** 2
    return 1.0 / (1.0 + corr)


def _exterior_green(pot: VolumePotential, k: float, points: np.ndarray) -> np.ndarray:
    """Cell-integrated G(p, r_j) rows for evaluation points off the support."""
    return _volume_green(pot, k, _grid_distances(pot, points))


def _check_points(pot: VolumePotential, points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != pot.dim:
        raise DomainError(f"points must be (n, {pot.dim})")
    # support = union of grid cells; half-cell margin around the node lattice
    lo = pot.origin - 0.5 * pot.h
    hi = pot.origin + (np.array(pot.values.shape) - 0.5) * pot.h
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    if np.any(inside):
        bad = points[np.argmax(inside)]
        raise UnsupportedRegionError(
            f"evaluation point {bad.tolist()} lies inside the potential support"
        )
    return points


def born_approximation(
    pot: VolumePotential,
    u0: IncidentField,
    k: float,
    order: Union[BornOrder, str],
    points: np.ndarray,
    beta_override: Optional[Union[float, np.ndarray]] = None,
    alt_second_reading: bool = False,
) -> BornResult:
    """Weak-scattering field of the given order at exterior points.

    FIRST:            u0 - sum_j beta_j G(p, r_j) Xi_j u0_j
    SECOND_STANDARD:  iterated-kernel second order with beta = 1,
                      u0 - G Xi u0 + G Xi G Xi u0
    SECOND_MODIFIED:  u0 - sum_j beta_j G(p, r_j) Xi_j u0_j
                          - sum_j beta_j G(p, r_j) u0_j sum_m G(r_m, r_j) |Xi_m|^2
    where the inner |Xi|^2 sum weighs u0 at r_j; alt_second_reading instead
    pairs u0 with |Xi|^2 at r_m (a sensitivity study, off by default).

    beta_override replaces the computed weight (scalar or per-node array);
    FIRST with beta_override=1.0 is bit-identical to the plain first-order
    term because it runs through the same summation.
    """
    order = BornOrder.from_string(order) if isinstance(order, str) else order
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    if u0.dim != pot.dim:
        raise DomainError("incident field dimension does not match the grid")
    points = _check_points(pot, points)

    xi = pot.flat()
    u0g = u0.values(pot.points())
    gout = _exterior_green(pot, k, points)

    if order is BornOrder.SECOND_STANDARD:
        beta = np.ones(pot.n_cells)
    elif beta_override is not None:
        beta = np.broadcast_to(np.asarray(beta_override, dtype=float), (pot.n_cells,)).copy()
        if np.any(beta <= 0) or np.any(beta > 1):
            raise DomainError("beta weights must lie in (0, 1]")
    else:
        beta = beta_weight(pot, k)

    first_term = -gout @ (beta * xi * u0g)
    second_term = None
    if order is BornOrder.SECOND_STANDARD:
        gmat = grid_green_matrix(pot, k)
        second_term = gout @ (xi * (gmat @ (xi * u0g)))
    elif order is BornOrder.SECOND_MODIFIED:
        gmat = grid_green_matrix(pot, k)
        inner = gmat @ (np.abs(xi) ** 2)
        if alt_second_reading:
            second_term = -gout @ (beta * (gmat @ (np.abs(xi) ** 2 * u0g)))
        else:
            second_term = -gout @ (beta * u0g * inner)

    field = u0.values(points) + first_term
    if second_term is not None:
        field = field + second_term
    return BornResult(
        field=field,
        order=order,
        beta_used=beta,
        first_term=first_term,
        second_term=second_term,
    )
