"""Independent reference solutions used to validate the solver.

Four oracle families, none of which share numerics with the method module:

* Partial-wave series for the sphere (Mie-type) and the circular cylinder,
  with closed-form coefficients.
* Kirchhoff aperture patterns for a flat strip.
* A dense spectral Nystrom boundary-element solver for smooth closed 2D
  curves (combined-field integral equations of Brakhage-Werner and
  Burton-Miller type, with the hypersingular operator handled through
  Maue's identity).
* A Lippmann-Schwinger volume-integral solver for scattering by a compact
  inhomogeneity on a uniform grid.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special as sp
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from . import specfun
from .errors import DomainError, SingularSystemError
from .geometry import Surface
from .method import BoundaryCondition, FarFieldPattern, IncidentField

logger = logging.getLogger("waveortho.oracles")

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# Sphere: partial-wave series


@dataclass(frozen=True, eq=False)
class MieCoefficients:
    """Partial-wave scattering coefficients a_n for a sphere of size ka."""

    bc: BoundaryCondition
    ka: float
    a_n: np.ndarray  # complex, n = 0..N
    sigma_total: float  # total scattering cross-section, units of a^2 absorbed via k


def mie_series(
    bc: BoundaryCondition, ka: float, angles: np.ndarray
) -> Tuple[MieCoefficients, FarFieldPattern, np.ndarray]:
    """Exact sphere scattering for an axially incident unit plane wave.

    Truncates at N = ceil(ka) + 12. Returns the coefficients, the far-field
    pattern f(theta) with u_scat ~ f e^{ikr}/r (k in units of 1/a via ka and
    a = 1), and the surface trace the boundary condition leaves free: the
    total field on r = a for a hard sphere, the radial derivative of the
    total field for a soft one.
    """
    if ka <= 0:
        raise DomainError("ka must be positive")
    if ka > 100:
        raise DomainError("series oracle supports ka <= 100")
    n_max = int(np.ceil(ka)) + 12
    angles = np.asarray(angles, dtype=float)
    mu = np.cos(angles)

    a_n = np.empty(n_max + 1, dtype=complex)
    amp = np.zeros_like(angles, dtype=complex)
    trace = np.zeros_like(angles, dtype=complex)
    k = ka  # a = 1
    for n in range(n_max + 1):
        j, jp = specfun.sph_bessel_j(n, ka)
        h, hp = specfun.sph_hankel1(n, ka)
        a_n[n] = -(j / h) if bc is BoundaryCondition.SOFT else -(jp / hp)
        pn = specfun.legendre_p(n, mu)
        amp += (2 * n + 1) * a_n[n] * pn
        if bc is BoundaryCondition.HARD:
            # j_n + a_n h_n = (j_n h_n' - j_n' h_n)/h_n' = i/((ka)^2 h_n')
            trace += (2 * n + 1) * (1j**n) * (j + a_n[n] * h) * pn
        else:
            trace += (2 * n + 1) * (1j**n) * k * (jp + a_n[n] * hp) * pn
    amp /= 1j * k
    sigma = float(4.0 * np.pi / k**2 * np.sum((2 * np.arange(n_max + 1) + 1) * np.abs(a_n) ** 2))
    coeffs = MieCoefficients(bc=bc, ka=ka, a_n=a_n, sigma_total=sigma)
    return coeffs, FarFieldPattern(angles=angles, amplitude=amp), trace


def cylinder_series(bc: BoundaryCondition, ka: float, angles: np.ndarray) -> FarFieldPattern:
    """Exact circular-cylinder far field, unit plane wave incident along -y.

    2D convention: observation direction (sin theta, cos theta), amplitude
    with u_scat ~ f(theta) e^{ikr}/sqrt(r). Coefficients c_m = -J_m/H_m
    (soft) or -J_m'/H_m' (hard).
    """
    if ka <= 0:
        raise DomainError("ka must be positive")
    angles = np.asarray(angles, dtype=float)
    m_max = int(np.ceil(ka)) + 16
    # polar angles of observation and of the propagation direction (0, -1)
    th_obs = np.arctan2(np.cos(angles), np.sin(angles))  # from +x axis
    th_inc = np.arctan2(-1.0, 0.0)
    rel = th_obs - th_inc
    amp = np.zeros_like(angles, dtype=complex)
    for m in range(-m_max, m_max + 1):
        if bc is BoundaryCondition.SOFT:
            c = -sp.jv(m, ka) / sp.hankel1(m, ka)
        else:
            c = -sp.jvp(m, ka) / sp.h1vp(m, ka)
        amp += c * np.exp(1j * m * rel)
    amp *= np.sqrt(2.0 / (np.pi * ka)) * np.exp(-0.25j * np.pi)
    return FarFieldPattern(angles=angles, amplitude=amp)


# ---------------------------------------------------------------------------
# Kirchhoff strip pattern


def kirchhoff_pattern(kd: float, incidence_angle: float, angles: np.ndarray) -> FarFieldPattern:
    """Kirchhoff aperture pattern of a strip of width d.

    The aperture field is taken equal to the incident plane wave on the
    strip, giving f(theta) = sinc((kd/2)(sin theta - sin alpha)) normalized
    to 1 at the specular direction. Angles are measured from the strip
    normal (+y).
    """
    if kd <= 0:
        raise DomainError("kd must be positive")
    angles = np.asarray(angles, dtype=float)
    arg = 0.5 * kd * (np.sin(angles) - np.sin(incidence_angle))
    amp = np.sinc(arg / np.pi).astype(complex)
    return FarFieldPattern(angles=angles, amplitude=amp)


def kirchhoff_first_null(kd: float) -> float:
    """First null angle of the normal-incidence pattern: sin theta = 2 pi / kd."""
    if kd <= 2.0 * np.pi:
        raise DomainError("strip narrower than a wavelength has no sinc null")
    return float(np.arcsin(2.0 * np.pi / kd))


# ---------------------------------------------------------------------------
# Dense Nystrom boundary elements on smooth closed curves (2D)
#
# Curves are carried as Surface objects whose nodes are ordered samples at
# uniformly spaced parameter values of a smooth closed parametrization; the
# tangent and second derivative are recovered spectrally by FFT. The
# quadrature for the logarithmic singularity is the classical product rule
# with trigonometric weights.


def bem_circle(radius: float, n_nodes: int) -> Surface:
    """Closed circular contour with uniformly spaced nodes (counterclockwise)."""
    return bem_ellipse(radius, radius, n_nodes)


def bem_ellipse(a_semi: float, b_semi: float, n_nodes: int) -> Surface:
    """Closed elliptical contour x(t) = (a cos t, b sin t), counterclockwise."""
    if a_semi <= 0 or b_semi <= 0:
        raise DomainError("ellipse semi-axes must be positive")
    if n_nodes < 8 or n_nodes % 2:
        raise DomainError("n_nodes must be an even integer >= 8")
    t = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    pos = np.column_stack((a_semi * np.cos(t), b_semi * np.sin(t)))
    dx = np.column_stack((-a_semi * np.sin(t), b_semi * np.cos(t)))
    speed = np.linalg.norm(dx, axis=1)
    normals = np.column_stack((dx[:, 1], -dx[:, 0])) / speed[:, None]
    weights = speed * (2.0 * np.pi / n_nodes)
    return Surface(
        positions=pos,
        normals=normals,
        weights=weights,
        closed=True,
        dim=2,
        char_size=2.0 * max(a_semi, b_semi),
    )


def bem_strip_contour(width: float, k: float, n_nodes: int) -> Surface:
    """Thin closed contour standing in for a zero-thickness strip.

    An ellipse with semi-axes (width/2, lambda/200), i.e. total thickness
    lambda/100. The cos-parametrization concentrates nodes at the tips in
    proportion to the curvature there, which is what the tip transition and
    the opposite-face interaction across the thin gap both require; the node
    count for a converged pattern grows like 100 kd (see the convergence
    test), so wide strips are genuinely expensive.
    """
    if width <= 0 or k <= 0:
        raise DomainError("width and k must be positive")
    lam = 2.0 * np.pi / k
    s = bem_ellipse(0.5 * width, lam / 200.0, n_nodes)
    return Surface(
        positions=s.positions,
        normals=s.normals,
        weights=s.weights,
        closed=True,
        dim=2,
        char_size=width,
    )


def _fft_derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative of periodic samples on the uniform 2 pi grid."""
    n = values.shape[0]
    m = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        m = m.copy()
        m[n // 2] = 0.0  # drop the unmatched Nyquist mode
    fac = (1j * m) ** order
    return np.real(np.fft.ifft(fac * np.fft.fft(values)))


def _kress_log_weights(n_nodes: int) -> np.ndarray:
    """Quadrature weights R[i, j] for the ln(4 sin^2((t - tau)/2)) factor.

    The weights depend only on (i - j) mod n, so the matrix is assembled
    from its first row (circulant structure).
    """
    n = n_nodes // 2
    dt = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    m = np.arange(1, n)
    row = -(2.0 * np.pi / n) * (np.cos(np.outer(dt, m)) @ (1.0 / m))
    row -= (np.pi / n**2) * np.cos(n * dt)
    idx = (np.arange(n_nodes)[:, None] - np.arange(n_nodes)[None, :]) % n_nodes
    return row[idx]


def _spectral_diff_matrix(n_nodes: int) -> np.ndarray:
    """Differentiation matrix for periodic samples on the uniform 2 pi grid."""
    i = np.arange(n_nodes)
    diff = i[:, None] - i[None, :]
    d = np.zeros((n_nodes, n_nodes))
    off = diff != 0
    d[off] = 0.5 * (-1.0) ** diff[off] / np.tan(np.pi * diff[off] / n_nodes)
    return d


class _CurveData:
    """Geometry derived from an ordered, uniformly parametrized closed Surface."""

    def __init__(self, s: Surface):
        if s.dim != 2 or not s.closed:
            raise DomainError("boundary-element oracle requires a closed 2D curve")
        n = s.n_nodes
        if n % 2:
            raise DomainError("curve node count must be even")
        self.n = n
        self.x = s.positions
        self.dx = np.column_stack(
            (_fft_derivative(s.positions[:, 0]), _fft_derivative(s.positions[:, 1]))
        )
        self.ddx = np.column_stack(
            (_fft_derivative(s.positions[:, 0], 2), _fft_derivative(s.positions[:, 1], 2))
        )
        self.speed = np.linalg.norm(self.dx, axis=1)
        if np.min(self.speed) <= 0:
            raise DomainError("degenerate curve parametrization")
        self.normals = np.column_stack((self.dx[:, 1], -self.dx[:, 0])) / self.speed[:, None]
        # orientation check: normals must agree with the stored outward ones
        if np.mean(np.sum(self.normals * s.normals, axis=1)) < 0:
            self.normals = -self.normals
        d = self.x[:, None, :] - self.x[None, :, :]
        self.r = np.linalg.norm(d, axis=2)
        np.fill_diagonal(self.r, 1.0)  # placeholder, diagonals handled analytically
        self.dvec = d
        t = 2.0 * np.pi * np.arange(n) / n
        st = np.sin(0.5 * (t[:, None] - t[None, :]))
        self.log4sin2 = np.log(4.0 * st**2 + np.eye(n))  # diagonal -> 0, unused
        self.kress = _kress_log_weights(n)
        self.trap = 2.0 * np.pi / n
        self.curv_dot = np.sum(self.ddx * self.normals, axis=1)  # x'' . n


def _op_single(c: _CurveData, k: float, weight: Optional[np.ndarray] = None) -> np.ndarray:
    """Nystrom matrix of the single-layer operator (values -> values).

    weight multiplies the kernel entrywise; Maue's identity uses n(x) . n(y).
    """
    kr = k * c.r
    m1 = -(1.0 / (4.0 * np.pi)) * sp.j0(kr)
    full = 0.25j * sp.hankel1(0, kr)
    if weight is not None:
        m1 *= weight
        full *= weight
    m1 *= c.speed[None, :]
    full *= c.speed[None, :]
    np.fill_diagonal(m1, -c.speed / (4.0 * np.pi))
    m2 = full - m1 * c.log4sin2
    diag = (
        0.25j - EULER_GAMMA / (2.0 * np.pi) - np.log(0.5 * k * c.speed) / (2.0 * np.pi)
    ) * c.speed
    np.fill_diagonal(m2, diag)
    return c.kress * m1 + c.trap * m2


def _op_double(c: _CurveData, k: float, adjoint: bool) -> np.ndarray:
    """Nystrom matrix of K (double layer) or K' (its normal-derivative adjoint)."""
    kr = k * c.r
    if adjoint:
        dot = np.sum(c.dvec * c.normals[:, None, :], axis=2)  # (x_i - x_j) . n(x_i)
        sgn = -1.0
    else:
        dot = np.sum(c.dvec * c.normals[None, :, :], axis=2)  # (x_i - x_j) . n(x_j)
        sgn = 1.0
    geom = dot / c.r * c.speed[None, :]
    m1 = sgn * (-(k / (4.0 * np.pi))) * sp.j1(kr) * geom
    full = sgn * (0.25j * k) * sp.hankel1(1, kr) * geom
    np.fill_diagonal(m1, 0.0)
    np.fill_diagonal(full, 0.0)
    m2 = full - m1 * c.log4sin2
    # both K and K' share the curvature diagonal (x'' . n) / (4 pi |x'|)
    diag = c.curv_dot / (4.0 * np.pi * c.speed)
    np.fill_diagonal(m2, diag)
    return c.kress * m1 + c.trap * m2


def _solve_dense(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve with an explicit conditioning guard."""
    lu, piv = lu_factor(a)
    gecon = get_lapack_funcs("gecon", (a,))
    anorm = np.linalg.norm(a, 1)
    rcond, _ = gecon(lu, anorm, norm="1")
    if not np.isfinite(rcond) or rcond < 1e-12:
        cond = np.inf if rcond == 0 else 1.0 / rcond
        raise SingularSystemError(
            f"boundary-element system is near-singular (condition number ~ {cond:.3e}); "
            "change the node count or frequency away from the resonance"
        )
    return lu_solve((lu, piv), rhs)


def bem_dense_solve(
    s: Surface,
    bc: BoundaryCondition,
    k: float,
    u0: IncidentField,
    far_angles: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, FarFieldPattern]:
    """Dense Nystrom solve of exterior scattering by a smooth closed 2D curve.

    The scattered field is represented as a combined double/single layer
    u_s = (D - i k S) psi. A soft boundary gives the Brakhage-Werner
    equation (I/2 + K - i k S) psi = -u0; a hard boundary gives the
    Burton-Miller-type equation (T - i k (K' - I/2)) psi = -du0/dn with the
    hypersingular T evaluated through Maue's identity. Both are uniquely
    solvable at all real k. Returns the layer density psi at the nodes and
    the far field on `far_angles` (default: 721 angles spanning [-pi, pi]).
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    if u0.dim != 2:
        raise DomainError("boundary-element oracle is 2D")
    c = _CurveData(s)
    eta = k
    smat = _op_single(c, k)
    if bc is BoundaryCondition.SOFT:
        kmat = _op_double(c, k, adjoint=False)
        a = 0.5 * np.eye(c.n) + kmat - 1j * eta * smat
        rhs = -u0.values(c.x)
    else:
        kpmat = _op_double(c, k, adjoint=True)
        ds = np.diag(1.0 / c.speed) @ _spectral_diff_matrix(c.n)
        tmat = ds @ smat @ ds + k**2 * _op_single(c, k, c.normals @ c.normals.T)
        a = tmat - 1j * eta * (kpmat - 0.5 * np.eye(c.n))
        rhs = -np.einsum("pd,pd->p", u0.gradients(c.x), c.normals)
    psi = _solve_dense(a, rhs)

    if far_angles is None:
        far_angles = np.linspace(-np.pi, np.pi, 721)
    far_angles = np.asarray(far_angles, dtype=float)
    rhat = np.column_stack((np.sin(far_angles), np.cos(far_angles)))
    phase = np.exp(-1j * k * rhat @ c.x.T)  # (n_angles, n_nodes)
    ds_w = c.speed * c.trap
    obliq = -1j * k * (rhat @ c.normals.T)  # far-field kernel of the double layer
    pref = 0.25j * np.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi)
    amp = pref * ((obliq - 1j * eta) * phase) @ (psi * ds_w)
    return psi, FarFieldPattern(angles=far_angles, amplitude=amp)


# ---------------------------------------------------------------------------
# Volume scattering: potentials, Green matrices, Lippmann-Schwinger


@dataclass(frozen=True, eq=False)
class VolumePotential:
    """Compactly supported disturbance Xi sampled on a uniform grid.

    2D: values indexed [ix, iy] with node (origin + h*(ix, iy)). 3D: values
    indexed [ix, iy, iz]. The outermost index layer must vanish so that the
    support is strictly inside the grid.
    """

    origin: np.ndarray
    h: float
    values: np.ndarray

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "values", values)
        if self.h <= 0:
            raise DomainError("grid spacing must be positive")
        if values.ndim not in (2, 3) or origin.shape != (values.ndim,):
            raise DomainError("values must be a 2D or 3D grid with a matching origin")
        if not np.all(np.isfinite(values)):
            raise DomainError("potential samples must be finite")
        vmax = float(np.max(np.abs(values)))
        if vmax > 0:
            edge = np.max(
                [np.max(np.abs(values[tuple(
                    slice(None) if d != ax else idx for d in range(values.ndim)
                )])) for ax in range(values.ndim) for idx in (0, -1)]
            )
            if edge > 1e-10 * vmax:
                raise DomainError("potential must vanish on the grid boundary layer")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def n_cells(self) -> int:
        return self.values.size

    def points(self) -> np.ndarray:
        """Node coordinates, flattened in C (row-major index) order."""
        axes = [self.origin[d] + self.h * np.arange(self.values.shape[d])
                for d in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def flat(self) -> np.ndarray:
        return self.values.ravel()


def gaussian_potential(
    amplitude: complex, width: float, half_extent: float, h: float, dim: int = 2
) -> VolumePotential:
    """Gaussian disturbance A exp(-|r|^2 / width^2) centered on the grid.

    The outermost node layer is zeroed explicitly; choose half_extent of a
    few widths so the truncation there is negligible.
    """
    if width <= 0 or half_extent <= 0 or h <= 0:
        raise DomainError("width, half_extent, and h must be positive")
    if dim not in (2, 3):
        raise DomainError("dim must be 2 or 3")
    n = int(np.floor(2 * half_extent / h)) + 1
    axis = -half_extent + h * np.arange(n)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    r2 = sum(m**2 for m in mesh)
    vals = amplitude * np.exp(-r2 / width**2)
    for ax in range(dim):
        sl = [slice(None)] * dim
        for idx in (0, -1):
            sl[ax] = idx
            vals[tuple(sl)] = 0.0
    return VolumePotential(origin=np.full(dim, -half_extent), h=h, values=vals)


def _self_cell_green(dim: int, k: float, h: float) -> complex:
    """Integral of G over the equal-measure disk/ball centered at the node."""
    if dim == 2:
        r0 = h / np.sqrt(np.pi)
        return 0.5j * np.pi * (r0 / k) * sp.hankel1(1, k * r0) - 1.0 / k**2
    r0 = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    return (1.0 - np.exp(1j * k * r0) * (1.0 - 1j * k * r0)) / k**2


def _grid_distances(pot: VolumePotential, points: np.ndarray) -> np.ndarray:
    """Distances from the given points to the grid nodes, one row per point."""
    return np.linalg.norm(points[:, None, :] - pot.points()[None, :, :], axis=2)


def _lattice_offsets(pot: VolumePotential) -> np.ndarray:
    """Lengths h|m| of the lattice offsets m between grid nodes, with 1 at m = 0.

    The offsets fill a (2n - 1)^d grid in FFT order: along an axis with n
    nodes, index i holds offset i for i < n and i - (2n - 1) above. The 1 at
    m = 0 is a placeholder for the self-cell terms that replace it.
    """
    axes = [np.fft.fftfreq(2 * n - 1, 1.0 / (2 * n - 1)) * pot.h for n in pot.values.shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum(m**2 for m in mesh))
    r[(0,) * pot.dim] = 1.0
    return r


def _volume_green(pot: VolumePotential, k: float, r: np.ndarray) -> np.ndarray:
    """Green's kernel h^d G(r) of one grid cell: (i/4) H0(kr) h^2 or e^(ikr)/(4 pi r) h^3."""
    if pot.dim == 2:
        return 0.25j * sp.hankel1(0, k * r) * pot.h**2
    return np.exp(1j * k * r) / (4.0 * np.pi * r) * pot.h**3


class LatticeOperator:
    """Grid matrix A[p, q] = kernel[offset p - q], applied by FFT.

    On a uniform grid a kernel of the node offset gives a d-level Toeplitz
    matrix. Embedded in the circulant of the (2n - 1)^d offset grid (laid out
    as by `_lattice_offsets`) its product with a grid vector is a cyclic
    convolution: `op @ x` pads x to the offset grid, multiplies the FFTs and
    crops the result back to the n^d nodes. No N x N array is formed.
    """

    def __init__(self, kernel: np.ndarray):
        self.kernel = kernel
        self.shape = tuple((m + 1) // 2 for m in kernel.shape)
        self._kernel_hat = np.fft.fftn(kernel)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        xg = np.asarray(x).reshape(self.shape)
        x_hat = np.fft.fftn(xg, s=self.kernel.shape, axes=range(xg.ndim))
        y = np.fft.ifftn(self._kernel_hat * x_hat)
        return y[tuple(slice(0, n) for n in self.shape)].ravel()

    def toarray(self) -> np.ndarray:
        """The dense matrix, gathered from the kernel (node order as `points()`)."""
        nodes = np.indices(self.shape).reshape(len(self.shape), -1)
        idx = np.zeros((nodes.shape[1],) * 2, dtype=np.intp)
        for axis, m in zip(nodes, self.kernel.shape):
            idx *= m
            idx += np.subtract.outer(axis, axis) % m
        return self.kernel.ravel()[idx]


def volume_green_operator(pot: VolumePotential, k: float) -> LatticeOperator:
    """The cell-integrated Green's operator of the grid, applied by FFT.

    Offset m carries h^d G(h|m|); offset 0 carries the analytic integral of G
    over the equal-measure disk (2D) or ball (3D), which regularizes the
    singular self-interaction.
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    kernel = _volume_green(pot, k, _lattice_offsets(pot))
    kernel[(0,) * pot.dim] = _self_cell_green(pot.dim, k, pot.h)
    return LatticeOperator(kernel)


def grid_green_matrix(pot: VolumePotential, k: float) -> np.ndarray:
    """Dense matrix of cell-integrated Green's kernels: entry (i, j) ~ h^d G(r_i, r_j).

    Gathered from the offset kernel of `volume_green_operator`; the diagonal
    carries the self-cell integral. Only the dense (LU) solve needs it.
    """
    return volume_green_operator(pot, k).toarray()


def lippmann_schwinger(
    pot: VolumePotential,
    u0: IncidentField,
    k: float,
    mode: str = "auto",
    info: Optional[dict] = None,
) -> np.ndarray:
    """Total field on the potential grid: u = u0 - integral of G Xi u.

    Discretized as (I + G diag(Xi)) u = u0 with the singularity-corrected
    Green operator. mode: 'dense' (LU), 'fixed-point' (Neumann iteration
    with G applied by FFT), or 'auto' (fixed-point when the iteration is
    safely contractive, dense otherwise). A diverging fixed-point run logs
    its contraction estimate and falls back to the dense solve.

    If `info` is given it receives the solve path ('fixed-point', 'dense' or
    'fixed-point→dense'), the number of fixed-point iterations, and the
    contraction estimate ||G diag(Xi)||_1.
    """
    if mode not in ("auto", "dense", "fixed-point"):
        raise DomainError(f"unknown solve mode {mode!r}")
    if u0.dim != pot.dim:
        raise DomainError("incident field dimension does not match the grid")
    gop = volume_green_operator(pot, k)
    xi = pot.flat()
    b = u0.values(pot.points())

    # ||G diag(Xi)||_1 = max_j |Xi_j| sum_i |G_ij|; the column sums of the
    # symmetric |G| are its product with ones
    col_abs = (LatticeOperator(np.abs(gop.kernel)) @ np.ones(pot.n_cells)).real
    contraction = float(np.max(np.abs(xi) * col_abs))
    use_fixed = mode == "fixed-point" or (mode == "auto" and contraction < 0.5)
    path, iterations = "dense", 0
    if use_fixed:
        path = "fixed-point→dense"  # unless the iteration converges
        u = b.copy()
        prev = np.inf
        for iterations in range(1, 201):
            u_next = b - gop @ (xi * u)
            delta = float(np.linalg.norm(u_next - u))
            u = u_next
            if delta <= 1e-12 * float(np.linalg.norm(b)):
                path = "fixed-point"
                break
            if delta > prev * 1.02:
                logger.info(
                    "fixed-point iteration diverging (contraction estimate %.3f); "
                    "falling back to dense solve",
                    contraction,
                )
                break
            prev = delta
        if path != "fixed-point" and mode == "fixed-point":
            logger.info(
                "fixed-point did not converge (contraction estimate %.3f); "
                "falling back to dense solve",
                contraction,
            )
    if info is not None:
        info.update(path=path, iterations=iterations, contraction=contraction)
    if path != "fixed-point":
        a = grid_green_matrix(pot, k)
        a *= xi[None, :]
        a.flat[:: pot.n_cells + 1] += 1.0  # I + G diag(Xi), formed in place
        u = _solve_dense(a, b)
    return u.reshape(pot.values.shape)


def scattered_field_at(
    pot: VolumePotential,
    u_grid: np.ndarray,
    u0: IncidentField,
    k: float,
    points: np.ndarray,
) -> np.ndarray:
    """Total field at exterior points from a grid solution of the volume equation.

    u(p) = u0(p) - sum_j G(p, r_j) Xi_j u_j h^d, valid for points off the
    support (no self-cell needed).
    """
    points = np.asarray(points, dtype=float)
    r = _grid_distances(pot, points)
    if np.any(r < 0.5 * pot.h):
        raise DomainError("evaluation points must be clear of the potential grid nodes")
    g = _volume_green(pot, k, r)
    return u0.values(points) - g @ (pot.flat() * np.asarray(u_grid).ravel())
