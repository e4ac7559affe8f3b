"""Approximate-orthogonality solver for scalar scattering problems.

The scattered field is represented as a finite superposition of radiating
basis functions D_i (plane waves, interior point sources, or outgoing
spherical modes). Imposing the boundary condition A u = 0 on the surface and
projecting onto the basis traces A D_i gives the Gram system

    G v = -b,   G_ij = <A D_i, A D_j>,   b_i = <A D_i, A u0>,

where <.,.> is the weighted surface inner product. When the traces are close
to orthogonal on the surface, G is diagonally dominant and the normalized
diagonal solve v_i = -b_i / G_ii already cancels the incident trace well.
The same diagonal serves as a preconditioner for an iterative refinement
that converges to the full Galerkin solution whenever the iteration matrix
is a contraction.

Conventions: incident plane waves have unit amplitude; far fields
in 3D follow u ~ f(theta) exp(ikr)/r with theta the polar angle from +z, and
in 2D follow u ~ f(theta) exp(ikr)/sqrt(r) with theta measured from the +y
axis (the screen normal) toward +x.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from . import specfun
from .errors import DomainError, SingularSystemError
from .geometry import Surface


class BoundaryCondition(enum.Enum):
    """Boundary operator A: field trace (soft) or normal-derivative trace (hard)."""

    SOFT = "soft"
    HARD = "hard"

    @classmethod
    def from_string(cls, text: str) -> "BoundaryCondition":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise DomainError(f"unknown boundary condition {text!r}") from None

    def trace(self, field: Union[IncidentField, BasisFamily], s: Surface) -> np.ndarray:
        """A applied to field at the nodes of s: its values (soft) or its
        normal derivatives along the surface normals (hard)."""
        if self is BoundaryCondition.SOFT:
            return field.values(s.positions)
        return field.normal_derivatives(s.positions, s.normals)


@dataclass(frozen=True, eq=False)
class IncidentField:
    """Unit-amplitude plane wave exp(ik d.r) along the unit vector d."""

    direction: np.ndarray
    k: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "direction", d)
        if d.ndim != 1 or d.shape[0] not in (2, 3):
            raise DomainError("incident direction must be a 2- or 3-vector")
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise DomainError("incident direction must be a unit vector")
        if self.k <= 0:
            raise DomainError("incident wavenumber must be positive")

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    def values(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return np.exp(1j * (self.k * points @ self.direction))

    def normal_derivatives(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        return 1j * self.k * self.values(points) * (normals @ self.direction)


# ---------------------------------------------------------------------------
# Basis families


@dataclass(frozen=True, eq=False)
class PlaneWaveBasis:
    """Propagating plane waves exp(ik d_i.r) over a fixed direction set."""

    directions: np.ndarray
    k: float

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        object.__setattr__(self, "directions", d)
        if d.ndim != 2 or d.shape[1] not in (2, 3) or d.shape[0] < 1:
            raise DomainError("directions must be a (M, 2) or (M, 3) array")
        if self.k <= 0:
            raise DomainError("basis wavenumber must be positive")
        norms = np.linalg.norm(d, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise DomainError("plane-wave directions must be unit vectors")

    @property
    def size(self) -> int:
        return self.directions.shape[0]

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    def values(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return np.exp(1j * (self.k * points @ self.directions.T))

    def normal_derivatives(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        return 1j * self.k * self.values(points) * (normals @ self.directions.T)


@dataclass(frozen=True, eq=False)
class PointSourceBasis:
    """Free-space Green's functions exp(ikr) / (4 pi r) centered at points inside a 3D body."""

    locations: np.ndarray
    k: float

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        object.__setattr__(self, "locations", loc)
        if loc.ndim != 2 or loc.shape[1] != 3 or loc.shape[0] < 1:
            raise DomainError("locations must be a (M, 3) array: point sources are 3D only")
        if self.k <= 0:
            raise DomainError("basis wavenumber must be positive")

    @property
    def size(self) -> int:
        return self.locations.shape[0]

    @property
    def dim(self) -> int:
        return 3

    def _displacements(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        d = points[:, None, :] - self.locations[None, :, :]
        r = np.linalg.norm(d, axis=2)
        if np.any(r < 1e-12):
            raise DomainError("evaluation point coincides with a source location")
        return d, r

    def values(self, points: np.ndarray) -> np.ndarray:
        _, r = self._displacements(points)
        return np.exp(1j * self.k * r) / (4.0 * np.pi * r)

    def normal_derivatives(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        d, r = self._displacements(points)
        radial = (1j * self.k - 1.0 / r) * (np.exp(1j * self.k * r) / (4.0 * np.pi * r))
        return radial * (np.einsum("pmd,pd->pm", d, normals) / r)


@dataclass(frozen=True)
class SphericalModeBasis:
    """Outgoing axisymmetric modes h_n^(1)(kr) P_n(cos theta), n = 0..max_order."""

    max_order: int
    k: float

    def __post_init__(self):
        if self.max_order < 0:
            raise DomainError("max_order must be non-negative")
        if self.max_order > specfun.MAX_ORDER:
            raise DomainError(
                f"max_order {self.max_order} exceeds the supported cap "
                f"{specfun.MAX_ORDER}"
            )
        if self.k <= 0:
            raise DomainError("basis wavenumber must be positive")

    @property
    def size(self) -> int:
        return self.max_order + 1

    @property
    def dim(self) -> int:
        return 3

    def _tables(self, points: np.ndarray, derivative: bool):
        """Every order's h_n on the distinct k r and P_n on the distinct mu.

        With derivative set, h_n' and P_n' too (None otherwise). On a sphere
        grid k r takes one value and mu = cos theta one per polar ring, so
        each special function is evaluated there once, all orders in one
        call; row n of a table gathered with its returned index gives order n
        at every point.
        """
        points = np.asarray(points, dtype=float)
        r = np.linalg.norm(points, axis=1)
        if np.any(r < 1e-12):
            raise DomainError("spherical modes are singular at the origin")
        mu = np.clip(points[:, 2] / r, -1.0, 1.0)
        x, at_r = np.unique(self.k * r, return_inverse=True)
        c, at_mu = np.unique(mu, return_inverse=True)
        h, hp = specfun.sph_hankel1(self.size, x, derivative)
        p = specfun.legendre_p(np.arange(self.size)[:, None], c)
        pp = specfun.legendre_p_deriv(p, c) if derivative else None
        return points, r, mu, (h, hp, at_r), (p, pp, at_mu)

    def values(self, points: np.ndarray) -> np.ndarray:
        _, _, _, (h, _, at_r), (p, _, at_mu) = self._tables(points, derivative=False)
        out = h.T[at_r]
        out *= p.T[at_mu]
        return out

    def normal_derivatives(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        points, r, mu, (h, hp, at_r), (p, pp, at_mu) = self._tables(points, derivative=True)
        # dD/dn = k h' P (rhat.n) + h P'(mu) (n_z - mu rhat.n) / r
        radial = np.einsum("pd,pd->p", points, normals) / r
        tangent = (normals[:, 2] - mu * radial) / r
        out = self.k * hp.T[at_r] * (p.T[at_mu] * radial[:, None])
        out += h.T[at_r] * (pp.T[at_mu] * tangent[:, None])
        return out


BasisFamily = Union[PlaneWaveBasis, PointSourceBasis, SphericalModeBasis]


# ---------------------------------------------------------------------------
# Traces and the Gram system


def _check_point_sources_inside(basis: PointSourceBasis, s: Surface) -> None:
    for m in range(basis.size):
        loc = basis.locations[m]
        d = s.positions - loc[None, :]
        dist = np.linalg.norm(d, axis=1)
        j = int(np.argmin(dist))
        if dist[j] < 1e-9 * s.char_size:
            raise DomainError(f"source {m} lies on the surface")
        # For the convex bodies supported here, the nearest node's outward
        # normal separates inside from outside.
        if float(np.dot(loc - s.positions[j], s.normals[j])) >= 0.0:
            raise DomainError(f"source {m} lies outside the surface")


def eval_basis_trace(basis: BasisFamily, bc: BoundaryCondition, s: Surface) -> np.ndarray:
    """A D_i sampled at the surface quadrature nodes, as an (n_nodes, M) array."""
    if basis.dim != s.dim:
        raise DomainError(
            f"basis dimension {basis.dim} does not match surface dimension {s.dim}"
        )
    if isinstance(basis, PointSourceBasis):
        _check_point_sources_inside(basis, s)
    return bc.trace(basis, s)


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Hermitian Gram matrix, its inverse diagonal, and what it was built from.

    surface and traces (A D_i at the nodes) are set by assemble_gram; au0
    (A u0 at the nodes) and b (b_i = <A D_i, A u0>) only when it was given
    an incident field.
    """

    g: np.ndarray  # (M, M) complex Hermitian
    beta: np.ndarray  # (M,) real, 1 / G_ii
    surface: Optional[Surface] = None
    traces: Optional[np.ndarray] = None  # (n_nodes, M) complex
    au0: Optional[np.ndarray] = None  # (n_nodes,) complex
    b: Optional[np.ndarray] = None  # (M,) complex

    @property
    def size(self) -> int:
        return self.g.shape[0]


def _incident_projection(sys: GramSystem) -> np.ndarray:
    if sys.b is None:
        raise ValueError("GramSystem has no incident field; pass u0 to assemble_gram")
    return sys.b


def assemble_gram(
    basis: BasisFamily, bc: BoundaryCondition, s: Surface, u0: Optional[IncidentField] = None
) -> GramSystem:
    """Gram system of the basis traces on s, projected onto u0 when given.

    G_ij = <A D_i, A D_j> over the surface quadrature is symmetrized to be
    exactly Hermitian. b_i = <A D_i, A u0>. A trace or G that overflows to
    inf or nan, or a diagonal entry that is not positive or whose reciprocal
    beta_i is not finite, raises DomainError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = eval_basis_trace(basis, bc, s)
        t_h = t.conj().T
        g = t_h @ (s.weights[:, None] * t)
        g = 0.5 * (g + g.conj().T)
    if not np.all(np.isfinite(g)):
        raise DomainError("the Gram matrix overflows double precision: "
                          "a basis trace is too large on this surface")
    diag = np.real(np.diag(g))
    with np.errstate(divide="ignore", over="ignore"):
        beta = 1.0 / diag
    if not (diag.size and np.all(diag > 0.0) and np.all(np.isfinite(beta))):
        raise DomainError(
            "a basis function has (numerically) zero trace norm on this surface"
        )
    au0 = b = None
    if u0 is not None:
        if u0.dim != s.dim:
            raise DomainError("incident field dimension does not match surface")
        au0 = bc.trace(u0, s)
        b = t_h @ (s.weights * au0)
    return GramSystem(g=g, beta=beta, surface=s, traces=t, au0=au0, b=b)


# ---------------------------------------------------------------------------
# Solvers


def solve_diagonal(sys: GramSystem) -> np.ndarray:
    """Normalized-diagonal solve v_i = -beta_i b_i (the approximate-orthogonality step)."""
    return sys.beta * (-_incident_projection(sys))


def solve_galerkin(sys: GramSystem) -> np.ndarray:
    """Full Galerkin solve G v = -b.

    It needs a well-conditioned G: a singular system, or a solve whose
    algebraic residual exceeds 1e-8 relative (as an oversampled, frame-like
    basis gives), raises SingularSystemError.
    """
    b = _incident_projection(sys)
    try:
        v = np.linalg.solve(sys.g, -b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"Gram system is singular ({exc})") from None
    scale = float(np.linalg.norm(b))
    if scale > 0.0:
        resid = float(np.linalg.norm(sys.g @ v + b)) / scale
        if resid > 1e-8:
            raise SingularSystemError(
                f"Gram solve is unreliable (relative residual {resid:.3e})"
            )
    return v


def _norm(r: np.ndarray) -> float:
    """np.linalg.norm(r) of a 1-D complex r: numpy's own arithmetic, without its dispatch."""
    re, im = r.real, r.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def refine_iterate(sys: GramSystem, n_steps: int) -> Tuple[np.ndarray, List[float]]:
    """Diagonal-preconditioned Richardson refinement of the Gram system.

    Starts from v = 0 and applies v <- v + beta * r with r = -b - G v for
    n_steps steps, so a single step reproduces solve_diagonal exactly.
    Returns the final coefficients and the algebraic residual ||r|| =
    ||G v + b|| after each step, including the starting residual ||b|| at
    step 0. The r that drives a step is the one recorded after the step
    before, so each step takes one product with G.
    """
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    neg_b = -_incident_projection(sys)
    v = np.zeros(sys.size, dtype=complex)
    r = neg_b
    history = [_norm(r)]
    for _ in range(n_steps):
        v += sys.beta * r
        r = neg_b - sys.g @ v
        history.append(_norm(r))
    return v, history


def refine_power(sys: GramSystem, n_steps: int) -> np.ndarray:
    """The n_steps-th refinement iterate in closed form, without stepping.

    The refinement step is affine, v <- M v + c with M = I - diag(beta) G and
    c = -beta b, so from v = 0 the n-th iterate is the last column of the
    n-th power of the augmented matrix [[M, c], [0, 1]]. numpy's
    matrix_power forms it by repeated squaring: at most 2 log2(n_steps)
    products of order M + 1 (Higham, Functions of Matrices, 2008, section 4).
    It agrees with refine_iterate to rounding, but only n_steps = 1 is
    bitwise equal.
    """
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    b = _incident_projection(sys)
    m = sys.size
    aug = np.zeros((m + 1, m + 1), dtype=complex)
    aug[:m, :m] = np.eye(m) - sys.beta[:, None] * sys.g
    aug[:m, m] = sys.beta * (-b)
    aug[m, m] = 1.0
    return np.linalg.matrix_power(aug, n_steps)[:m, m].copy()


def iteration_contraction_margin(sys: GramSystem) -> float:
    """Distance 1 - rho of the refinement from non-contraction.

    The iteration matrix I - diag(beta) G is similar to the Hermitian
    I - B^1/2 G B^1/2 (B = diag beta), so with mu the real eigenvalues of
    B^1/2 G B^1/2 its spectral radius is rho = max |1 - mu| and
    1 - rho = min(mu_min, 2 - mu_max). Read off mu directly, a small margin
    (3.7e-11 on the kd = 8 pi strip, where rho prints as 1.0000000000) is
    not subtracted from 1 and keeps its leading digits. The refinement
    contracts when the margin is positive.
    """
    root = np.sqrt(sys.beta)
    mu = np.linalg.eigvalsh(root[:, None] * sys.g * root[None, :])
    return float(min(mu[0], 2.0 - mu[-1]))


def iteration_spectral_radius(sys: GramSystem) -> float:
    """Spectral radius of the refinement iteration matrix I - diag(beta) G.

    Taken from the Hermitian form (see iteration_contraction_margin), so it
    is at least 1 whenever the margin is not positive.
    """
    return 1.0 - iteration_contraction_margin(sys)


# ---------------------------------------------------------------------------
# Field reconstruction and diagnostics


@dataclass(frozen=True, eq=False)
class FarFieldPattern:
    """Complex far-field amplitude sampled on a strictly increasing angle grid."""

    angles: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        amp = np.asarray(self.amplitude, dtype=complex)
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "amplitude", amp)
        if a.ndim != 1 or amp.shape != a.shape:
            raise ValueError("angles and amplitude must be matching 1-D arrays")
        if a.size and (np.any(np.diff(a) <= 0)):
            raise ValueError("angles must be strictly increasing")
        if a.size and (a[0] < -np.pi - 1e-12 or a[-1] > np.pi + 1e-12):
            raise ValueError("angles must lie within [-pi, pi]")


def far_field(basis: BasisFamily, v: np.ndarray, angles: np.ndarray) -> FarFieldPattern:
    """Radiated far-field pattern of sum_i v_i D_i.

    Point sources and spherical modes radiate in 3D, u ~ f(theta) exp(ikr)/r
    with theta the polar angle from +z. Plane-wave bases do not radiate from
    a bounded region, so they are rejected.
    """
    if isinstance(basis, PlaneWaveBasis):
        raise DomainError(
            "plane-wave bases do not radiate from a bounded region; they have no far field"
        )
    if v.size != basis.size:
        raise ValueError("coefficient length does not match basis size")
    angles = np.asarray(angles, dtype=float)
    if isinstance(basis, SphericalModeBasis):
        n = np.arange(basis.size)
        # (-i)^(n+1) cycles with period 4; read off the cycle it stays exact
        # at every order, where the power itself drifts from order 100 on
        coef = v * np.resize([(-1j) ** (m + 1) for m in range(4)], basis.size)
        # summed over axis 0, the orders are added in turn as a loop would
        amp = (coef[:, None] * specfun.legendre_p(n[:, None], np.cos(angles))).sum(axis=0)
        return FarFieldPattern(angles=angles, amplitude=amp / basis.k)
    # Point sources: f from the large-distance phase of each source.
    rhat = np.column_stack((np.sin(angles), np.zeros_like(angles), np.cos(angles)))
    phases = np.exp(1j * (-basis.k * rhat @ basis.locations.T))
    amp = phases @ v / (4.0 * np.pi)
    return FarFieldPattern(angles=angles, amplitude=amp)


def boundary_residual(sys: GramSystem, v: np.ndarray) -> float:
    """Normalized boundary defect ||A u0 + sum_i v_i A D_i|| / ||A u0||."""
    _incident_projection(sys)
    if v.size != sys.size:
        raise ValueError("coefficient length does not match trace matrix")
    s, au0 = sys.surface, sys.au0
    denom = np.sum(s.weights * np.abs(au0) ** 2)
    if denom <= 0.0:
        raise DomainError(
            "incident trace vanishes on the surface; residual is undefined"
        )
    r = au0 + sys.traces @ v
    num = np.sum(s.weights * np.abs(r) ** 2)
    return float(np.sqrt(num / denom))


def kernel_values(sys: GramSystem, anchor: int) -> np.ndarray:
    """Kernel column Phi(r_j, r_anchor) = sum_i beta_i conj(A D_i(anchor)) A D_i(r_j)."""
    t = sys.traces
    if not 0 <= anchor < t.shape[0]:
        raise DomainError(f"anchor index {anchor} out of range")
    return t @ (sys.beta * np.conj(t[anchor, :]))


def kernel_profile(sys: GramSystem, anchor: int) -> Tuple[np.ndarray, np.ndarray]:
    """|Phi(r_j, r_anchor)| against chord distance |r_j - r_anchor|, sorted.

    Ties in distance keep node order (stable sort) so output is deterministic.
    """
    phi = kernel_values(sys, anchor)
    p = sys.surface.positions
    d = np.linalg.norm(p - p[anchor][None, :], axis=1)
    order = np.argsort(d, kind="stable")
    return d[order], np.abs(phi)[order]


def epsilon_diagnostic(sys: GramSystem, v: np.ndarray) -> float:
    """Off-diagonal coupling measure.

    max over pairs chi != xi of (|G_chi,xi| / G_xi,xi) * |v_chi - v_xi|,
    normalized by max_i |v_i|. Zero for a single-entry basis, an exactly
    diagonal Gram matrix, or a constant coefficient vector.
    """
    m = sys.size
    if v.size != m:
        raise ValueError("coefficient length does not match Gram size")
    if m < 2:
        return 0.0
    vmax = float(np.max(np.abs(v)))
    if vmax == 0.0:
        return 0.0
    diag = np.real(np.diag(sys.g))
    ratio = np.abs(sys.g) / diag[None, :]  # |G_chi,xi| / G_xi,xi
    dv = np.abs(v[:, None] - v[None, :]) / vmax
    prod = ratio * dv
    np.fill_diagonal(prod, 0.0)
    return float(np.max(prod))
