"""Independent reference solutions used to validate the solver.

Four oracle families, none of which share numerics with the method module:

* Partial-wave series for the sphere (Mie-type) and the circular cylinder,
  with closed-form coefficients.
* Kirchhoff aperture patterns for a flat strip.
* A dense spectral Nystrom boundary-element solver for smooth closed 2D
  curves symmetric about both axes (combined-field integral equations of
  Brakhage-Werner and Burton-Miller type, with the hypersingular operator
  handled through Maue's identity), solved in the symmetry blocks.
* A Lippmann-Schwinger volume-integral solver for scattering by a compact
  inhomogeneity on a uniform grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special as sp
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

try:
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:  # numpy < 2
    from numpy.core.multiarray import _set_madvise_hugepage

from . import specfun
from .errors import DomainError, SingularSystemError, UnsupportedRegionError
from .geometry import Surface
from .method import BoundaryCondition, FarFieldPattern, IncidentField

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# Sphere: partial-wave series


@dataclass(frozen=True, eq=False)
class MieCoefficients:
    """Partial-wave scattering coefficients a_n of the sphere mie_series solved."""

    a_n: np.ndarray  # complex, n = 0..N
    sigma_total: float  # total scattering cross-section, units of a^2 absorbed via k


def mie_series(
    bc: BoundaryCondition, ka: float, angles: np.ndarray
) -> Tuple[MieCoefficients, FarFieldPattern]:
    """Exact sphere scattering for an axially incident unit plane wave.

    Truncates at N = ceil(ka) + 12. Returns the coefficients and the
    far-field pattern f(theta) with u_scat ~ f e^{ikr}/r (k in units of 1/a
    via ka and a = 1). Each special function takes one call for all orders.
    """
    if ka <= 0:
        raise DomainError("ka must be positive")
    if ka > 100:
        raise DomainError("series oracle supports ka <= 100")
    angles = np.asarray(angles, dtype=float)
    k = ka  # a = 1
    orders = np.arange(int(np.ceil(ka)) + 13)
    j, jp = specfun.sph_bessel_j(orders, ka)
    h, hp = specfun.sph_hankel1(orders, ka)
    a_n = -(j / h) if bc is BoundaryCondition.SOFT else -(jp / hp)
    terms = ((2 * orders + 1) * a_n)[:, None] * specfun.legendre_p(orders[:, None], np.cos(angles))
    # summed over axis 0, the orders are added in turn as a loop would
    amp = terms.sum(axis=0) / (1j * k)
    sigma = float(4.0 * np.pi / k**2 * np.sum((2 * orders + 1) * np.abs(a_n) ** 2))
    return MieCoefficients(a_n=a_n, sigma_total=sigma), FarFieldPattern(angles=angles, amplitude=amp)


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
    return bem_ellipse(0.5 * width, lam / 200.0, n_nodes)


def _fft_derivative(values: np.ndarray, order: int = 1, axis: int = 0) -> np.ndarray:
    """Spectral derivative along `axis` of periodic samples on the uniform 2 pi grid."""
    n = values.shape[axis]
    m = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        m[n // 2] = 0.0  # drop the unmatched Nyquist mode
    shape = [1] * values.ndim
    shape[axis] = n
    spec = np.fft.fft(values, axis=axis)
    spec *= ((1j * m) ** order).reshape(shape)
    out = np.fft.ifft(spec, axis=axis)
    return out if np.iscomplexobj(values) else out.real


def _log_split_column(n_nodes: int) -> np.ndarray:
    """Column c of the product-rule weights: W[i, j] = c[(i - j) mod n].

    W[i, j] = R[i, j] - (2 pi / n) ln(4 sin^2((t_i - t_j)/2)): R are Kress's
    quadrature weights for the ln(4 sin^2) factor, and the second term removes
    that factor from the trapezoidal rule applied to the whole kernel. The
    diagonal, where the logarithm is not taken, holds R[i, i] = c[0]. Both
    depend only on (i - j) mod n (circulant structure). R's cosine sum
    sum_m cos(m dt) / m is the real part of an FFT.
    """
    n = n_nodes // 2
    dt = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    inv_m = np.zeros(n_nodes)
    inv_m[1:n] = 1.0 / np.arange(1, n)
    col = -(2.0 * np.pi / n) * np.fft.fft(inv_m).real
    col -= (np.pi / n**2) * np.cos(n * dt)
    col[1:] -= (2.0 * np.pi / n_nodes) * np.log(4.0 * np.sin(0.5 * dt[1:]) ** 2)
    return col


# The Z2 x Z2 group of the two axis reflections, in the order identity,
# t -> -t, t -> pi - t, t -> t + pi: the signs they give to (x, y), the sign
# of dt'/dt, and the four characters (one row each, chi(g) by column).
_COORD_SIGNS = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
_DT_SIGNS = np.array([1, -1, -1, 1])
_CHARACTERS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])


class _CurveData:
    """Geometry derived from an ordered, uniformly parametrized closed Surface.

    The node set must map onto itself under both reflections about the
    curve's axes, t -> -t (node j to -j mod n) and t -> pi - t (node j to
    n/2 - j mod n), as every `bem_ellipse` does. `perms[g]` maps node j to
    g . j; `reps` holds one node per orbit, the quarter arc t in [0, pi/2].
    """

    def __init__(self, s: Surface):
        if s.dim != 2 or not s.closed:
            raise DomainError("boundary-element oracle requires a closed 2D curve")
        n = s.n_nodes
        if n % 2:
            raise DomainError("curve node count must be even")
        self.n = n
        self.x = s.positions
        j = np.arange(n)
        self.perms = np.stack((j, -j % n, (n // 2 - j) % n, (j + n // 2) % n))
        self.reps = np.arange(n // 4 + 1)
        centred = self.x - np.mean(self.x, axis=0)
        if np.max(np.abs(centred[self.perms] - centred * _COORD_SIGNS[:, None, :])) > (
            1e-12 * np.max(np.abs(centred))
        ):
            raise DomainError(
                "boundary-element oracle requires a curve whose nodes map onto nodes "
                "under both axis reflections (t -> -t and t -> pi - t), as bem_ellipse's do"
            )
        dx = _fft_derivative(s.positions)
        self.speed = np.linalg.norm(dx, axis=1)
        if np.min(self.speed) <= 0:
            raise DomainError("degenerate curve parametrization")
        self.normals = np.column_stack((dx[:, 1], -dx[:, 0])) / self.speed[:, None]
        # orientation check: normals must agree with the stored outward ones
        if np.mean(np.sum(self.normals * s.normals, axis=1)) < 0:
            self.normals = -self.normals
        self.trap = 2.0 * np.pi / n
        self.curv_dot = np.sum(_fft_derivative(s.positions, 2) * self.normals, axis=1)  # x'' . n


def _nystrom(
    c: _CurveData, rows: np.ndarray, weights: np.ndarray, jn: np.ndarray, yn: np.ndarray,
    kernel: np.ndarray, diag: np.ndarray, scale: complex,
) -> np.ndarray:
    """Rows `rows` of `scale` times the Nystrom matrix of (i/4) H_n(k r) kernel(x_i, x_j).

    H_n = J_n + i Y_n. Kress's product rule splits off -(1/4 pi) J_n kernel,
    which multiplies ln(4 sin^2((t_i - t_j)/2)), and integrates the rest by
    the trapezoidal rule; with `weights` from `_log_split_column` an entry is
    -(kernel / 4 pi) (J_n (weights - i pi trap) + pi trap Y_n). The diagonal
    is `diag`.
    """
    a = np.empty(jn.shape, dtype=complex)
    np.multiply(jn, weights, out=a.real)
    a.real += (np.pi * c.trap) * yn
    np.multiply(jn, -np.pi * c.trap, out=a.imag)
    a *= kernel
    a *= -scale / (4.0 * np.pi)
    a[np.arange(len(rows)), rows] = scale * diag[rows]
    return a


def _solve_dense(a: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, float]:
    """LU solve with an explicit conditioning guard; returns x and the 1-norm rcond."""
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
    return lu_solve((lu, piv), rhs), float(rcond)


def _left_derivative(c: _CurveData, rows: np.ndarray, a_rows: np.ndarray) -> np.ndarray:
    """Rows `rows` of D_t A, for A that commutes with the reflections, from A[rows].

    `rows` must meet every orbit. A's columns at `rows` are gathered through
    A[g i, j] = A[i, g j] (with a node of `rows` taken as itself),
    differentiated by FFT, and spread to every column through
    (D_t A)[i, g j] = (dt'/dt)(g) (D_t A)[g i, j]. That takes |rows|
    transforms of length n, where differentiating all of A takes n.
    """
    g_of = np.empty(c.n, dtype=np.intp)  # node j = g_of[j] . rows[p_of[j]]
    p_of = np.empty(c.n, dtype=np.intp)
    for g in (3, 2, 1, 0):
        g_of[c.perms[g, rows]] = g
        p_of[c.perms[g, rows]] = np.arange(len(rows))
    cols = a_rows[p_of[:, None], c.perms[g_of[:, None], rows]]  # A[:, rows]
    d_cols = _fft_derivative(cols, axis=0)
    del cols
    out = d_cols[c.perms[g_of, rows[:, None]], p_of]
    out *= _DT_SIGNS[g_of]
    return out


def _bem_rows(c: _CurveData, bc: BoundaryCondition, k: float, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` of I/2 + K - i k S (soft) or T - i k (K' - I/2) (hard).

    T is taken by Maue's identity. J_0, Y_0 and then J_1, Y_1 of
    k|x_i - x_j| are evaluated once each, on these rows only, and shared by
    every operator of that order. T = d/ds S d/ds + k^2 S_nn, where S_nn
    weights the kernel by n(x_i) . n(x_j) and d/ds = (1/|x'|) d/dt is applied
    by FFT: along the columns by `_left_derivative`, which needs `rows` to
    meet every orbit of the reflections, and along the rows directly.
    """
    hard = bc is BoundaryCondition.HARD
    col = _log_split_column(c.n)
    weights = col[(rows[:, None] - np.arange(c.n)) % c.n]
    kr = np.hypot(*(np.subtract.outer(xd[rows], xd) for xd in c.x.T))
    kr[np.arange(len(rows)), rows] = 1.0  # placeholder, diagonals are handled analytically
    kr *= k
    # single layer: kernel |x'_j|; the diagonal takes the limits of both parts
    s_diag = c.speed * (
        -col[0] / (4.0 * np.pi)
        + c.trap * (0.25j - (EULER_GAMMA + np.log(0.5 * k * c.speed)) / (2.0 * np.pi))
    )
    j, y = sp.j0(kr), sp.y0(kr)
    a = _nystrom(c, rows, weights, j, y, c.speed, s_diag, 1.0 if hard else -1j * k)
    if hard:
        ds_s = _left_derivative(c, rows, a)  # D S
        del a
        ds_s /= c.speed[rows, None]
        ds_s /= c.speed[None, :]
        nn = c.normals[rows] @ c.normals.T
        nn *= c.speed
        a = _nystrom(c, rows, weights, j, y, nn, s_diag, k**2)
        del nn
        a -= _fft_derivative(ds_s, axis=1)  # (.) D = -(D (.)^T)^T
        del ds_s
    del j, y
    # double layer, kernel k (x_i - x_j) . n / r |x'_j| with n = n(x_j) for K
    # and -n(x_i) for K'; both share the curvature diagonal (x'' . n) / (4 pi |x'|)
    xn = np.sum(c.x * c.normals, axis=1)
    if hard:  # (x_j - x_i) . n(x_i)
        dot = c.normals[rows] @ c.x.T
        dot -= xn[rows, None]
    else:  # (x_i - x_j) . n(x_j)
        dot = c.x[rows] @ c.normals.T
        dot -= xn
    dot *= k * k * c.speed
    dot /= kr
    j, y = sp.j1(kr), sp.y1(kr)
    k_diag = c.trap * c.curv_dot / (4.0 * np.pi * c.speed)
    a += _nystrom(c, rows, weights, j, y, dot, k_diag, -1j * k if hard else 1.0)
    a[np.arange(len(rows)), rows] += 0.5j * k if hard else 0.5
    return a


def _solve_blocks(c: _CurveData, a_reps: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, float]:
    """Solve A psi = rhs from the rows of A at `c.reps`, one LU per character block.

    A commutes with the reflections, so it maps each character chi's
    subspace {v : v[g j] = chi(g) v[j]} into itself. On the representatives
    q, q' the block is B[q, q'] = sum_g chi(g) A[q, g q'] / |Stab(q')|, over
    the orbits whose stabilizer chi is trivial on; rhs is projected as
    (1/4) sum_g chi(g) rhs[g q], and psi[g q] = sum_chi chi(g) psi_chi[q].
    Returns psi and the least 1-norm rcond of the four blocks.
    """
    orbit = c.perms[:, c.reps]  # (4, r): g . q
    fixed = orbit == c.reps  # g in Stab(q)
    folded = np.einsum("cg,pgq->cpq", _CHARACTERS, a_reps[:, orbit])
    folded /= np.sum(fixed, axis=0)
    rhs_chi = _CHARACTERS @ rhs[orbit] / 4.0
    psi_chi = np.zeros(rhs_chi.shape, dtype=complex)
    rcond = np.inf
    for block, b, x, chi in zip(folded, rhs_chi, psi_chi, _CHARACTERS):
        keep = np.all(~fixed | (chi[:, None] == 1), axis=0)
        x[keep], block_rcond = _solve_dense(block[np.ix_(keep, keep)], b[keep])
        rcond = min(rcond, block_rcond)
    psi = np.empty(c.n, dtype=complex)
    psi[orbit] = _CHARACTERS.T @ psi_chi
    return psi, rcond


def _bem_far_field(c: _CurveData, k: float, psi: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Far-field amplitude of the combined layer (D - i k S) psi at `angles`."""
    rhat = np.column_stack((np.sin(angles), np.cos(angles)))
    arg = (-k * rhat) @ c.x.T  # (n_angles, n_nodes)
    phase = np.empty(arg.shape, dtype=complex)  # e^(i arg), arg real
    phase.real = np.cos(arg)
    phase.imag = np.sin(arg)
    ds_w = c.speed * c.trap
    obliq = -1j * k * (rhat @ c.normals.T)  # far-field kernel of the double layer
    pref = 0.25j * np.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi)
    return pref * ((obliq - 1j * k) * phase) @ (psi * ds_w)


def bem_dense_solve(
    s: Surface,
    bc: BoundaryCondition,
    k: float,
    u0: IncidentField,
    far_angles: Optional[np.ndarray] = None,
    info: Optional[dict] = None,
) -> Tuple[np.ndarray, FarFieldPattern]:
    """Dense Nystrom solve of exterior scattering by a smooth closed 2D curve.

    The scattered field is represented as a combined double/single layer
    u_s = (D - i k S) psi. A soft boundary gives the Brakhage-Werner
    equation (I/2 + K - i k S) psi = -u0; a hard boundary gives the
    Burton-Miller-type equation (T - i k (K' - I/2)) psi = -du0/dn with the
    hypersingular T evaluated through Maue's identity. Both are uniquely
    solvable at all real k. Returns the layer density psi at the nodes and
    the far field on `far_angles` (default: 721 angles spanning [-pi, pi]).

    The curve's nodes must map onto nodes under both axis reflections
    (Allgower, Georg & Miranda, SIAM J. Numer. Anal. 29, 1992): the matrix
    commutes with them, so only the rows of one node per orbit are assembled
    (about n/4 + 1), and the system is solved in its four Z2 x Z2 character
    blocks. If `info` is given it receives `rcond`, the least of the blocks'
    LAPACK estimates of the reciprocal 1-norm condition number.
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    if u0.dim != 2:
        raise DomainError("boundary-element oracle is 2D")
    c = _CurveData(s)
    if bc is BoundaryCondition.SOFT:
        rhs = -u0.values(c.x)
    else:
        rhs = -np.einsum("pd,pd->p", u0.gradients(c.x), c.normals)
    psi, rcond = _solve_blocks(c, _bem_rows(c, bc, k, c.reps), rhs)
    if info is not None:
        info["rcond"] = rcond

    if far_angles is None:
        far_angles = np.linspace(-np.pi, np.pi, 721)
    far_angles = np.asarray(far_angles, dtype=float)
    return psi, FarFieldPattern(angles=far_angles, amplitude=_bem_far_field(c, k, psi, far_angles))


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
        x = k * r0
        return 0.5j * np.pi * (r0 / k) * (sp.j1(x) + 1j * sp.y1(x)) - 1.0 / k**2
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
    """Green's kernel h^d G(r) of one grid cell: (i/4) H0(kr) h^2 or e^(ikr)/(4 pi r) h^3.

    In 2D H0 = J0 + i Y0 from the cephes j0 and y0, written straight into
    the real and imaginary parts of the result: within 5e-15 of |H0| for
    kr <= 60; beyond that the error grows like eps kr, the phase error
    that rounding kr itself already carries.
    """
    if pot.dim == 2:
        kr = k * r
        out = np.empty(r.shape, dtype=complex)
        sp.y0(kr, out=out.real)
        sp.j0(kr, out=out.imag)
        out.real *= -0.25 * pot.h**2
        out.imag *= 0.25 * pot.h**2
        return out
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


@dataclass(frozen=True)
class VolumeGreen:
    """The cell-integrated Green's tables of one grid at one wavenumber.

    `operator` applies the grid's Green matrix (`volume_green_operator`) and
    `rows` holds h^d G(p, r_j) from each evaluation point p (one row per
    point, off the support) to every node r_j. Built once by `volume_green`,
    it serves every volume sum of a run, for any potential on the same grid.
    """

    origin: np.ndarray
    h: float
    shape: Tuple[int, ...]
    k: float
    points: np.ndarray
    operator: LatticeOperator
    rows: np.ndarray

    def require_grid(self, pot: VolumePotential) -> None:
        """Raise DomainError unless `pot` lies on the grid the tables were built for."""
        if not (pot.h == self.h and pot.values.shape == self.shape
                and np.array_equal(pot.origin, self.origin)):
            raise DomainError("potential grid differs from the grid of the Green tables")


def volume_green(pot: VolumePotential, k: float, points: np.ndarray) -> VolumeGreen:
    """The grid Green operator of `pot` and its rows at exterior `points`.

    The support is the union of the grid cells, a half-cell margin around
    the node lattice; a point inside it raises UnsupportedRegionError, which
    covers every point closer than h/2 to a node.
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != pot.dim:
        raise DomainError(f"points must be (n, {pot.dim})")
    lo = pot.origin - 0.5 * pot.h
    hi = pot.origin + (np.array(pot.values.shape) - 0.5) * pot.h
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    if np.any(inside):
        bad = points[np.argmax(inside)]
        raise UnsupportedRegionError(
            f"evaluation point {bad.tolist()} lies inside the potential support"
        )
    return VolumeGreen(
        origin=pot.origin,
        h=pot.h,
        shape=pot.values.shape,
        k=k,
        points=points,
        operator=volume_green_operator(pot, k),
        rows=_volume_green(pot, k, _grid_distances(pot, points)),
    )


def grid_green_matrix(pot: VolumePotential, k: float) -> np.ndarray:
    """Dense matrix of cell-integrated Green's kernels: entry (i, j) ~ h^d G(r_i, r_j).

    Gathered from the offset kernel of `volume_green_operator`; the diagonal
    carries the self-cell integral. No solve uses it: it is the dense
    reference against which the FFT operator and the volume solve are checked.
    """
    return volume_green_operator(pot, k).toarray()


def lippmann_schwinger(
    pot: VolumePotential,
    u0: IncidentField,
    green: VolumeGreen,
    info: Optional[dict] = None,
) -> np.ndarray:
    """Total field on the potential grid: u = u0 - integral of G Xi u.

    Discretized as (I + G diag(Xi)) u = u0 with the singularity-corrected
    Green operator of `green` (built for `pot`'s grid) and solved by GMRES
    (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) with G applied by
    FFT: one cycle of at most 200 Krylov steps, stopped at a relative
    residual of 1e-12. The true residual is recomputed once; a solve that
    leaves it above 1e-12 raises SingularSystemError.

    If `info` is given it receives the GMRES `iterations` and that relative
    `residual`.
    """
    # scipy.sparse adds ~3 MB to every process that imports it; only this solve needs it
    from scipy.sparse.linalg import LinearOperator, gmres

    green.require_grid(pot)
    if u0.dim != pot.dim:
        raise DomainError("incident field dimension does not match the grid")
    gop = green.operator
    xi = pot.flat()
    b = u0.values(pot.points())
    n = pot.n_cells
    a = LinearOperator((n, n), matvec=lambda x: x + gop @ (xi * x), dtype=complex)
    steps = []
    # the Krylov basis, 5.4 MB on a 41 x 41 grid, would get numpy's huge-page
    # advice (arrays of 4 MiB or more); reused from the malloc heap, its pages
    # let khugepaged raise the resident size in 2 MB steps on its own schedule
    advice = _set_madvise_hugepage(False)
    try:
        u, _ = gmres(a, b, rtol=1e-12, atol=0.0, restart=min(n, 200), maxiter=1,
                     callback=steps.append, callback_type="pr_norm")
    finally:
        _set_madvise_hugepage(advice)
    residual = float(np.linalg.norm(b - a @ u) / np.linalg.norm(b))
    if info is not None:
        info.update(iterations=len(steps), residual=residual)
    if not residual <= 1e-12:
        raise SingularSystemError(
            f"Lippmann-Schwinger GMRES left a relative residual of {residual:.3e} "
            f"after {len(steps)} iterations (needs <= 1e-12)"
        )
    return u.reshape(pot.values.shape)


def scattered_field_at(
    pot: VolumePotential,
    u_grid: np.ndarray,
    u0: IncidentField,
    green: VolumeGreen,
) -> np.ndarray:
    """Total field at the evaluation points of `green` from a grid solution.

    u(p) = u0(p) - sum_j G(p, r_j) Xi_j u_j h^d, valid for points off the
    support (no self-cell needed).
    """
    green.require_grid(pot)
    return u0.values(green.points) - green.rows @ (pot.flat() * np.asarray(u_grid).ravel())
