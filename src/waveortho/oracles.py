"""Independent reference solutions used to validate the solver.

Five oracle families, none of which share numerics with the method module:

* Partial-wave series for the sphere (Mie-type) and the circular cylinder,
  with closed-form coefficients.
* Kirchhoff aperture patterns for a flat strip.
* A spectral open-arc solver for the zero-thickness strip.
* A dense spectral Nystrom boundary-element solver for smooth closed 2D
  curves (combined-field integral equations of Brakhage-Werner and
  Burton-Miller type, with the hypersingular operator handled through
  Maue's identity), solved by one LU of the whole matrix.
* A Lippmann-Schwinger volume-integral solver for scattering by a compact
  inhomogeneity on a uniform 2D grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special as sp
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from numpy._core.multiarray import _set_madvise_hugepage

from . import geometry, specfun
from .errors import DomainError, SingularSystemError
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

    Truncates at N = max(ceil(ka) + 12, ceil(ka + 4 ka^(1/3) + 10)) (after
    Wiscombe, Appl. Opt. 19, 1505, 1980). Returns the coefficients and the
    far-field pattern f(theta) with u_scat ~ f e^{ikr}/r (k in units of 1/a
    via ka and a = 1). Each special function takes one call for all orders.
    """
    if ka <= 0:
        raise DomainError("ka must be positive")
    if ka > 100:
        raise DomainError("series oracle supports ka <= 100")
    angles = np.asarray(angles, dtype=float)
    k = ka  # a = 1
    orders = np.arange(int(max(np.ceil(ka) + 12, np.ceil(ka + 4.0 * np.cbrt(ka) + 10))) + 1)
    j, jp = specfun.sph_bessel_j(orders, ka)
    y, yp = specfun.sph_bessel_y(orders, ka)
    h, hp = j + 1j * y, jp + 1j * yp  # as specfun.sph_hankel1 forms them
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


def _fft_derivative(
    values: np.ndarray, order: int = 1, axis: int = 0, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Spectral derivative along `axis` of periodic samples on the uniform 2 pi grid.

    With `out`, a complex array of values' shape (values itself, say), both
    transforms run in its memory and it is returned.
    """
    n = values.shape[axis]
    m = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        m[n // 2] = 0.0  # drop the unmatched Nyquist mode
    shape = [1] * values.ndim
    shape[axis] = n
    spec = np.fft.fft(values, axis=axis, out=out)
    spec *= ((1j * m) ** order).reshape(shape)
    np.fft.ifft(spec, axis=axis, out=spec)
    return spec if np.iscomplexobj(values) else spec.real


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


# a BEM solve at n nodes stays below BEM_ARRAYS complex n x n arrays plus as many complex
# (angles x n) arrays of its far field (traced at 960 nodes: 4.0 of each)
BEM_ARRAYS = 5


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
        dx = _fft_derivative(s.positions)
        self.speed = np.linalg.norm(dx, axis=1)
        if np.min(self.speed) <= 0:
            raise DomainError("degenerate curve parametrization")
        self.normals = np.column_stack((dx[:, 1], -dx[:, 0])) / self.speed[:, None]
        # orientation check: normals must agree with the stored outward ones
        if np.mean(np.sum(self.normals * s.normals, axis=1)) < 0:
            self.normals = -self.normals
        self.trap = 2.0 * np.pi / n
        self.log_col = _log_split_column(n)
        self.curv_dot = np.sum(_fft_derivative(s.positions, 2) * self.normals, axis=1)  # x'' . n


def _nystrom_base(c: _CurveData, weights: np.ndarray, jn: np.ndarray, yn: np.ndarray) -> np.ndarray:
    """J_n (weights - i pi trap) + pi trap Y_n: a `_nystrom` entry before its kernel and scale."""
    a = np.empty(jn.shape, dtype=complex)
    np.multiply(jn, weights, out=a.real)
    np.multiply(yn, np.pi * c.trap, out=a.imag)  # the imaginary part is scratch here
    a.real += a.imag
    np.multiply(jn, -np.pi * c.trap, out=a.imag)
    return a


def _nystrom(base: np.ndarray, kernel: np.ndarray, diag: np.ndarray, scale: complex) -> np.ndarray:
    """`scale` times the Nystrom matrix of (i/4) H_n(k r) kernel(x_i, x_j), in `base`'s memory.

    H_n = J_n + i Y_n. Kress's product rule splits off -(1/4 pi) J_n kernel,
    which multiplies ln(4 sin^2((t_i - t_j)/2)), and integrates the rest by
    the trapezoidal rule; with `base` from `_nystrom_base`, and its weights
    from `_log_split_column`, an entry is -(kernel / 4 pi) base. The
    diagonal is `scale * diag`.
    """
    base *= kernel
    base *= -scale / (4.0 * np.pi)
    np.fill_diagonal(base, scale * diag)
    return base


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


def _bem_matrix(c: _CurveData, bc: BoundaryCondition, k: float) -> np.ndarray:
    """A = I/2 + K - i k S (soft) or T - i k (K' - I/2) (hard), on all node pairs.

    S is the single layer, K the double layer, kernel k (x_i - x_j) . n / r
    |x'_j| with n = n(x_j), and K' its adjoint, with n = -n(x_i); K and K'
    share the curvature diagonal (x'' . n) / (4 pi |x'|). Maue's identity
    gives T = d/ds S d/ds + k^2 S_nn, where S_nn weights S's kernel by
    n(x_i) . n(x_j), and d/ds = (1/|x'|) d/dt with d/dt applied by FFT along
    each axis. S and S_nn share one J_0 Nystrom base (`_nystrom_base`).
    """
    hard = bc is BoundaryCondition.HARD
    n = c.n
    kr = np.hypot(*(np.subtract.outer(xd, xd) for xd in c.x.T))
    np.fill_diagonal(kr, 1.0)  # placeholder, diagonals are handled analytically
    kr *= k
    weights = c.log_col[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    xn = np.sum(c.x * c.normals, axis=1)
    if hard:  # (x_j - x_i) . n(x_i)
        dot = c.normals @ c.x.T
        dot -= xn[:, None]
    else:  # (x_i - x_j) . n(x_j)
        dot = c.x @ c.normals.T
        dot -= xn
    dot *= k * k * c.speed
    dot /= kr
    k_diag = c.trap * c.curv_dot / (4.0 * np.pi * c.speed)
    a = _nystrom(_nystrom_base(c, weights, sp.j1(kr), sp.y1(kr)), dot, k_diag,
                 -1j * k if hard else 1.0)
    del dot
    base = _nystrom_base(c, weights, sp.j0(kr), sp.y0(kr))
    del kr, weights
    s_diag = c.speed * (
        -c.log_col[0] / (4.0 * np.pi)
        + c.trap * (0.25j - (EULER_GAMMA + np.log(0.5 * k * c.speed)) / (2.0 * np.pi))
    )
    if not hard:
        a += _nystrom(base, c.speed, s_diag, -1j * k)
        a[np.diag_indices(n)] += 0.5
        return a
    a[np.diag_indices(n)] += 0.5j * k
    nn = c.normals @ c.normals.T  # n(x_i) . n(x_j) |x'_j|
    nn *= c.speed
    a += _nystrom(base.copy(), nn, s_diag, k**2)
    del nn
    ds = _fft_derivative(_nystrom(base, c.speed, s_diag, 1.0), axis=0, out=base)  # D_t S
    ds /= c.speed[:, None]
    ds /= c.speed
    a -= _fft_derivative(ds, axis=1, out=ds)  # (.) D = -(D (.)^T)^T
    return a


def _bem_far_field(c: _CurveData, k: float, psi: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Far-field amplitude of the combined layer (D - i k S) psi at `angles`."""
    rhat = np.column_stack((np.sin(angles), np.cos(angles)))
    pref = 0.25j * np.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi)
    arg = (-k * rhat) @ c.x.T  # (angles, nodes)
    phase = np.empty(arg.shape, dtype=complex)  # e^(i arg), arg real
    phase.real, phase.imag = np.cos(arg), np.sin(arg)
    del arg
    obliq = -1j * k * (rhat @ c.normals.T)  # far-field kernel of the double layer
    return pref * ((obliq - 1j * k) * phase) @ (psi * (c.speed * c.trap))


def _bem_rhs(c: _CurveData, bc: BoundaryCondition, u0: IncidentField) -> np.ndarray:
    """Right side of the BEM equation at the nodes: -u0 (soft) or -du0/dn (hard)."""
    if bc is BoundaryCondition.SOFT:
        return -u0.values(c.x)
    grad = 1j * u0.k * u0.values(c.x)[:, None] * u0.direction
    return -np.einsum("pd,pd->p", grad, c.normals)


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

    The whole n x n matrix (`_bem_matrix`) is solved by one LU. If `info` is
    given it receives `rcond`, LAPACK's estimate of the reciprocal 1-norm
    condition number. A solve peaks below BEM_ARRAYS complex n x n arrays
    plus as many complex (angles x n) ones; a node count for which those
    exceed physical memory raises MemoryError first.
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    if u0.dim != 2:
        raise DomainError("boundary-element oracle is 2D")
    if far_angles is None:
        far_angles = np.linspace(-np.pi, np.pi, 721)
    far_angles = np.asarray(far_angles, dtype=float)
    c = _CurveData(s)
    need = BEM_ARRAYS * 16 * c.n * (c.n + len(far_angles))
    have = geometry.physical_memory()
    if need > have:
        raise MemoryError(f"the BEM oracle at {c.n} nodes needs about {need} bytes, "
                          f"more than the {have} bytes of physical memory")
    psi, rcond = _solve_dense(_bem_matrix(c, bc, k), _bem_rhs(c, bc, u0))
    if info is not None:
        info["rcond"] = rcond
    return psi, FarFieldPattern(angles=far_angles, amplitude=_bem_far_field(c, k, psi, far_angles))


# ---------------------------------------------------------------------------
# Zero-thickness strip: spectral open-arc solver (2D)

# the arc oracle's half-period nodes beyond kd, the extra nodes of its check
# order, and the complex 2n x 2n arrays a solve with 181 angles stays below
ARC_EXTRA_NODES, ARC_CHECK_NODES, ARC_ARRAYS = 32, 32, 3


def _arc_far_field(bc: BoundaryCondition, kd: float, incidence: float, angles: np.ndarray,
                   n: int) -> Tuple[np.ndarray, float]:
    """`strip_arc_solve`'s far field at n half-period nodes, and its system's rcond.

    On the grid tau_j = pi j / n, node -j lies on node j, so the single layer
    (1/2) int (i/4) H_0 over the period is assembled on the n + 1 nodes of
    [0, pi], its columns counted twice inside. Its logarithms at tau - s and
    tau + s both take Kress's product weights.
    """
    k = 2.0 * np.pi
    big, trap = 2 * n, np.pi / n
    nodes = np.arange(n + 1)
    tau = trap * nodes
    x, speed = 0.25 * kd / np.pi * np.cos(tau), 0.25 * kd / np.pi * np.sin(tau)
    # a circulant c on the period, folded onto [0, pi]: c[i - j] + c[i + j]
    minus, plus = np.subtract.outer(nodes, nodes) % big, np.add.outer(nodes, nodes) % big
    col = _log_split_column(big)
    weights = col[minus] + col[plus]
    kr = k * np.abs(np.subtract.outer(x, x))
    kr[nodes, nodes] = 1.0  # placeholder, the diagonal is set below
    j0 = sp.j0(kr)
    s = (trap / 8.0) * (1j * j0 - sp.y0(kr)) - weights * j0 / (8.0 * np.pi)
    # the limit of the smooth part, with Kress's weights in full where tau = s or tau = -s
    ends = nodes % n == 0
    log_speed = np.log(kd / 8.0 * np.where(ends, 1.0, 2.0 * np.abs(np.sin(tau))))
    s[nodes, nodes] = trap * (0.125j - (EULER_GAMMA + log_speed) / (4.0 * np.pi))
    s[nodes, nodes] -= weights[nodes, nodes] / (8.0 * np.pi)
    mult = np.where(ends, 1.0, 2.0)
    s *= mult
    u0 = np.exp(1j * k * np.sin(incidence) * x)
    pref = 0.125j * trap * np.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi)
    phase = np.exp(-1j * k * np.outer(np.sin(angles), x))
    if bc is BoundaryCondition.SOFT:  # S psi = -u0, psi = (d/2) |sin tau| sigma
        psi, rcond = _solve_dense(s, -u0)
        return pref * (phase @ (mult * psi)), rcond
    # Maue's identity times the speed (d/2) sin tau, as d/dx = -d/dtau / speed:
    # d/dtau S[dmu/dtau] + k^2 speed S[speed mu] = -speed du0/dn, mu odd in tau
    dcol = _fft_derivative(np.eye(1, big)[0])  # d/dtau on the period: the circulant of dcol
    d_odd = (dcol[minus] - dcol[plus])[:, 1:-1]
    d_even = 0.5 * (dcol[minus] + dcol[plus])[1:-1] * mult
    a = d_even @ s @ d_odd
    a += k**2 * speed[1:-1, None] * s[1:-1, 1:-1] * speed[1:-1]
    mu, rcond = _solve_dense(a, 1j * k * np.cos(incidence) * speed[1:-1] * u0[1:-1])
    return pref * (-1j * k * np.cos(angles)) * (phase[:, 1:-1] @ (2.0 * speed[1:-1] * mu)), rcond


def strip_arc_solve(bc: BoundaryCondition, kd: float, incidence: float, angles: np.ndarray,
                    info: Optional[dict] = None) -> Tuple[FarFieldPattern, float]:
    """Exact scattering by the zero-thickness strip |x| <= d/2, y = 0 (unit wavelength).

    kd = 2 pi d; the unit plane wave travels along (sin alpha, -cos alpha),
    alpha = `incidence`, and u_s ~ f(theta) e^{ikr} / sqrt(r) toward (sin
    theta, cos theta). With t = (d/2) cos tau (Kress, Math. Methods Appl. Sci.
    18, 267, 1995): soft, S sigma = -u0 for psi = (d/2) |sin tau| sigma, even;
    hard, Maue's T mu = d/dx S[mu'] + k^2 S[mu] for the jump mu, odd (Moench,
    J. Comput. Appl. Math. 71, 343, 1996). n = ceil(kd) + ARC_EXTRA_NODES:
    Kress's weights integrate kernel times density, kd/2 modes each, exactly
    below n. Returns f and its relative L2 gap to f at ARC_CHECK_NODES more;
    `info` gets `rcond` and `nodes` (n). MemoryError if the check order's
    ARC_ARRAYS arrays exceed physical memory; DomainError if the check
    pattern is zero or not finite, which leaves no relative gap.
    """
    if kd <= 0:
        raise DomainError("kd must be positive")
    n = int(np.ceil(kd)) + ARC_EXTRA_NODES
    need = ARC_ARRAYS * 16 * (2 * (n + ARC_CHECK_NODES)) ** 2
    have = geometry.physical_memory()
    if need > have:
        raise MemoryError(f"the strip oracle at {n} half-period nodes needs about {need} bytes, "
                          f"more than the {have} bytes of physical memory")
    angles = np.asarray(angles, dtype=float)
    amp, rcond = _arc_far_field(bc, kd, incidence, angles, n)
    check, _ = _arc_far_field(bc, kd, incidence, angles, n + ARC_CHECK_NODES)
    scale = float(np.linalg.norm(check))
    if not 0.0 < scale < np.inf:
        raise DomainError(f"kd = {kd!r} gives the strip oracle a far field of norm {scale}, "
                          "so its self-error is undefined")
    if info is not None:
        info.update(rcond=rcond, nodes=n)
    return FarFieldPattern(angles, amp), float(np.linalg.norm(amp - check) / scale)


# ---------------------------------------------------------------------------
# Volume scattering: potentials, Green matrices, Lippmann-Schwinger


@dataclass(frozen=True, eq=False)
class VolumePotential:
    """Compactly supported disturbance Xi sampled on a uniform 2D grid.

    Values are indexed [ix, iy] with node (origin + h*(ix, iy)). The
    outermost index layer must vanish so that the support is strictly inside
    the grid.
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
        if values.ndim != 2 or origin.shape != (2,):
            raise DomainError("values must be a 2D grid with a 2-vector origin: volume "
                              "grids are 2D only")
        if not np.all(np.isfinite(values)):
            raise DomainError("potential samples must be finite")
        vmax = float(np.max(np.abs(values)))
        if vmax > 0:
            edge = max(np.max(np.abs(values[[0, -1]])), np.max(np.abs(values[:, [0, -1]])))
            if edge > 1e-10 * vmax:
                raise DomainError("potential must vanish on the grid boundary layer")

    @property
    def dim(self) -> int:
        return 2

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
    amplitude: complex, width: float, half_extent: float, h: float
) -> VolumePotential:
    """Gaussian disturbance A exp(-|r|^2 / width^2) centered on a square 2D grid.

    The outermost node layer is zeroed explicitly; choose half_extent of a
    few widths so the truncation there is negligible.
    """
    if width <= 0 or half_extent <= 0 or h <= 0:
        raise DomainError("width, half_extent, and h must be positive")
    n = int(np.floor(2 * half_extent / h)) + 1
    axis = -half_extent + h * np.arange(n)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    r2 = sum(m**2 for m in mesh)
    vals = amplitude * np.exp(-r2 / width**2)
    vals[[0, -1], :] = 0.0
    vals[:, [0, -1]] = 0.0
    return VolumePotential(origin=np.full(2, -half_extent), h=h, values=vals)


def _self_cell_green(k: float, h: float) -> complex:
    """Integral of G over the equal-area disk centered at the node."""
    r0 = h / np.sqrt(np.pi)
    x = k * r0
    return 0.5j * np.pi * (r0 / k) * (sp.j1(x) + 1j * sp.y1(x)) - 1.0 / k**2


def _grid_distances(pot: VolumePotential, points: np.ndarray) -> np.ndarray:
    """Distances from the given points to the grid nodes, one row per point.

    The same bits as np.linalg.norm(points[:, None] - nodes[None], axis=2),
    which its length-2 reduction makes 2.5 times slower on a 41 x 41 grid.
    """
    nodes = pot.points()
    dx = points[:, None, 0] - nodes[None, :, 0]
    dy = points[:, None, 1] - nodes[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def _lattice_offsets(pot: VolumePotential) -> np.ndarray:
    """Lengths h|m| of the lattice offsets m between grid nodes, with 1 at m = 0.

    The offsets fill a (2n - 1)^2 grid in FFT order: along an axis with n
    nodes, index i holds offset i for i < n and i - (2n - 1) above. The 1 at
    m = 0 is a placeholder for the self-cell terms that replace it.
    `LatticeOperator` zero-pads this grid to 5-smooth FFT lengths; the
    kernel itself, and every table read from it, keeps the (2n - 1)^2 layout.
    """
    axes = [np.fft.fftfreq(2 * n - 1, 1.0 / (2 * n - 1)) * pot.h for n in pot.values.shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum(m**2 for m in mesh))
    r[0, 0] = 1.0
    return r


def _volume_green(pot: VolumePotential, k: float, r: np.ndarray) -> np.ndarray:
    """Green's kernel h^2 G(r) = (i/4) H0(kr) h^2 of one grid cell.

    H0 = J0 + i Y0 from the cephes j0 and y0, written straight into the real
    and imaginary parts of the result: within 5e-15 of |H0| for kr <= 60;
    beyond that the error grows like eps kr, the phase error that rounding
    kr itself already carries.
    """
    kr = k * r
    out = np.empty(r.shape, dtype=complex)
    sp.y0(kr, out=out.real)
    sp.j0(kr, out=out.imag)
    out.real *= -0.25 * pot.h**2
    out.imag *= 0.25 * pot.h**2
    return out


def _fft_length(m: int) -> int:
    """The least 2^a 3^b 5^c >= m: a length that pocketfft transforms fast.

    At a length with a larger prime factor (61 = 2 * 31 - 1 is prime) it
    falls back to Bluestein's chirp-z algorithm: a 61^2 round trip takes four
    times as long as a 64^2 one.
    """
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


class LatticeOperator:
    """Grid matrix A[p, q] = kernel[offset p - q], applied by FFT.

    On a uniform grid a kernel of the node offset gives a d-level Toeplitz
    matrix. `kernel` holds it on the (2n - 1)^d offset grid (laid out as by
    `_lattice_offsets`). For the transform it is zero-embedded in a circulant
    of L^d, L the least 5-smooth length >= 2n - 1 per axis (61 -> 64):
    offsets 0..n-1 sit at indices 0..n-1 and offsets -(n-1)..-1 at
    L-n+1..L-1. Any L >= 2n - 1 keeps the node offsets apart modulo L, so the
    cyclic convolution is the exact Toeplitz product: `op @ x` pads x to L^d,
    multiplies the FFTs and inverts them back to the n^d nodes. No N x N
    array is formed.
    """

    def __init__(self, kernel: np.ndarray):
        self.kernel = kernel
        self.shape = tuple((m + 1) // 2 for m in kernel.shape)
        lengths = [_fft_length(m) for m in kernel.shape]
        index = [np.r_[0:n, m - n + 1:m] for n, m in zip(self.shape, lengths)]
        padded = np.zeros(lengths, dtype=kernel.dtype)
        padded[np.ix_(*index)] = kernel
        self._kernel_hat = np.fft.fftn(padded)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        xg = np.asarray(x).reshape(self.shape)
        y = self._kernel_hat * np.fft.fftn(xg, s=self._kernel_hat.shape, axes=range(xg.ndim))
        # the inverse one axis at a time, last first as ifftn takes them, each
        # cropped to its n nodes before the next: the bits of ifftn(y)[:n, :n]
        # from L + n line transforms in place of 2L
        crop = [slice(None)] * y.ndim
        for axis in reversed(range(y.ndim)):
            crop[axis] = slice(0, self.shape[axis])
            y = np.fft.ifft(y, axis=axis)[tuple(crop)]
        return y.ravel()

    def toarray(self) -> np.ndarray:
        """The dense matrix, gathered from the kernel (node order as `points()`)."""
        nodes = np.indices(self.shape).reshape(len(self.shape), -1)
        idx = np.zeros((nodes.shape[1],) * 2, dtype=np.intp)
        for axis, m in zip(nodes, self.kernel.shape):
            idx *= m
            idx += np.subtract.outer(axis, axis) % m
        return self.kernel.ravel()[idx]


@dataclass(frozen=True)
class VolumeGreen:
    """The cell-integrated Green's tables of one grid at one wavenumber.

    `operator` applies the grid's Green matrix by FFT, zero-padded to
    5-smooth transform lengths: its kernel's offset m carries h^2 G(h|m|),
    and offset 0 the analytic integral of G over the equal-area disk, which
    regularizes the singular self-interaction.
    `rows` holds h^2 G(p, r_j) from each evaluation point p
    (one row per point, off the support) to every node r_j. Built once by
    `volume_green`, it serves every volume sum of a run, for any potential on
    the same grid.
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
    the node lattice; a point inside it raises DomainError, which
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
        raise DomainError(
            f"evaluation point {bad.tolist()} lies inside the potential support"
        )
    kernel = _volume_green(pot, k, _lattice_offsets(pot))
    kernel[0, 0] = _self_cell_green(k, pot.h)
    return VolumeGreen(
        origin=pot.origin,
        h=pot.h,
        shape=pot.values.shape,
        k=k,
        points=points,
        operator=LatticeOperator(kernel),
        rows=_volume_green(pot, k, _grid_distances(pot, points)),
    )


def grid_green_matrix(pot: VolumePotential, k: float) -> np.ndarray:
    """Dense matrix of cell-integrated Green's kernels: entry (i, j) ~ h^2 G(r_i, r_j).

    Gathered from the offset kernel of `volume_green`'s operator; the diagonal
    carries the self-cell integral. No solve uses it: it is the dense
    reference against which the FFT operator and the volume solve are checked.
    """
    return volume_green(pot, k, np.empty((0, pot.dim))).operator.toarray()


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

    u(p) = u0(p) - sum_j G(p, r_j) Xi_j u_j h^2, valid for points off the
    support (no self-cell needed).
    """
    green.require_grid(pot)
    return u0.values(green.points) - green.rows @ (pot.flat() * np.asarray(u_grid).ravel())
