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
  inhomogeneity on a uniform 2D grid, by a restarted GMRES in numpy.

Importing this module loads no scipy module. scipy.special is loaded by the
first special-function call through `sp`, which is `specfun`'s handle: the
sphere and cylinder series, the strip oracles and the volume kernels make
one, and a spheroid or plane-wave sphere run never does. scipy.linalg is
imported by the first dense solve (`_solve_dense`), which only the open-arc
and closed-curve solvers run: the strip and slit scenarios with their oracle
load it, and born, sphere, spheroid, kernel-profile and riemann-decay runs
never do. That solve calls LAPACK's getrf (through `lu_factor`, the one dense
LU), gecon and getrs directly, without scipy.linalg's Python wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from . import geometry, specfun
from .errors import DomainError, SingularSystemError
from .geometry import Surface
from .method import BoundaryCondition, FarFieldPattern, IncidentField

# scipy.special, loaded at the first call; the benchmark tracer swaps this name
sp = specfun._sp


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
    hard = bc is BoundaryCondition.HARD
    h, hp = specfun.sph_hankel1(orders.size, ka, derivative=hard)
    f = hp if hard else h  # a_n = -j_n'/h_n' (hard) or -j_n/h_n (soft)
    # at a tiny ka y_n' overflows, so h_n' turns nan, and k^2 underflows
    with np.errstate(all="ignore"):
        a_n = -(f.real / f)
    if not np.all(np.isfinite(a_n)):
        raise DomainError(f"the series oracle has no finite coefficients at ka = {ka!r}")
    sigma = float(4.0 * np.pi * np.sum((2 * orders + 1) * np.abs(a_n / k) ** 2))
    terms = ((2 * orders + 1) * a_n)[:, None] * specfun.legendre_p(orders[:, None], np.cos(angles))
    # summed over axis 0, the orders are added in turn as a loop would
    amp = terms.sum(axis=0) / (1j * k)
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


def lu_factor(a: np.ndarray, getrf: Callable) -> Tuple[np.ndarray, np.ndarray]:
    """The LU of `a` by LAPACK's getrf, as scipy.linalg.lu_factor(a) returns it.

    Every dense oracle solve factors here, once, so a tracer that wraps this
    name sees each LU; `getrf` is the LAPACK routine for a's type, and `a`
    is kept. The caller has refused a non-finite `a`, as lu_factor's
    check_finite would; a zero pivot (info > 0) is left to the caller's
    condition estimate, which reads 0.
    """
    lu, piv, _ = getrf(a)  # info < 0 flags an argument, which the wrapper has checked
    return lu, piv


def _solve_dense(a: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, float]:
    """LU solve with an explicit conditioning guard; returns x and the 1-norm rcond.

    The LAPACK routines are called directly, as scipy.linalg's lu_factor and
    lu_solve call them, without those wrappers' checks and batch dispatch;
    scipy.linalg is loaded by the first call. A non-finite `a` raises
    ValueError and a (near-)singular one SingularSystemError.
    """
    from scipy.linalg import get_lapack_funcs

    getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), (a,))
    anorm = np.linalg.norm(a, 1)  # inf or nan if any entry is, or if a column sum overflows
    if not np.isfinite(anorm) and not np.isfinite(a).all():
        raise ValueError("dense oracle matrix must not contain infs or NaNs")
    lu, piv = lu_factor(a, getrf)
    rcond, _ = gecon(lu, anorm, norm="1")
    if not np.isfinite(rcond) or rcond < 1e-12:
        cond = np.inf if rcond == 0 else 1.0 / rcond
        raise SingularSystemError(
            f"dense oracle system is near-singular (condition number ~ {cond:.3e})"
        )
    return getrs(lu, piv, rhs)[0], float(rcond)


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
        + c.trap * (0.25j - (np.euler_gamma + np.log(0.5 * k * c.speed)) / (2.0 * np.pi))
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
    geometry.require_memory(BEM_ARRAYS * 16.0 * c.n * (c.n + len(far_angles)),
                            f"the BEM oracle at {c.n} nodes")
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
    np.fill_diagonal(kr, 1.0)  # placeholder, the diagonal is set below
    j0 = sp.j0(kr)
    # s = (trap/8) (i J0 - Y0) - weights J0 / 8 pi, written part by part in place
    s = np.empty(kr.shape, dtype=complex)
    np.multiply(sp.y0(kr), -trap / 8.0, out=s.real)
    del kr
    # the limit of the smooth part, with Kress's weights in full where tau = s or tau = -s
    ends = nodes % n == 0
    log_speed = np.log(kd / 8.0 * np.where(ends, 1.0, 2.0 * np.abs(np.sin(tau))))
    diag = np.empty(n + 1, dtype=complex)
    diag.real = -(trap * ((np.euler_gamma + log_speed) / (4.0 * np.pi)))
    diag.real -= weights.diagonal() / (8.0 * np.pi)
    diag.imag = trap / 8.0
    weights *= j0
    weights /= 8.0 * np.pi
    s.real -= weights
    np.multiply(j0, trap / 8.0, out=s.imag)
    del weights, j0
    np.fill_diagonal(s, diag)
    mult = np.where(ends, 1.0, 2.0)
    s *= mult
    u0 = np.exp(1j * k * np.sin(incidence) * x)
    pref = 0.125j * trap * np.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi)
    arg = np.multiply.outer(np.sin(angles), x)
    arg *= -k
    phase = np.empty(arg.shape, dtype=complex)  # e^(i arg), arg real
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
    del arg
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
    order = 2.0 * (n + ARC_CHECK_NODES)
    geometry.require_memory(ARC_ARRAYS * 16.0 * order * order,
                            f"the strip oracle at {n:.4g} half-period nodes")
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
    if not (width > 0 and half_extent > 0 and h > 0 and 0 < width * width < np.inf):
        raise DomainError("width, half_extent, and h must be positive and width^2 finite and > 0")
    nodes = float(np.floor(2 * half_extent / h)) + 1  # per axis; inf where the ratio overflows
    geometry.require_memory(16.0 * nodes * nodes,
                            f"a grid of {nodes:.4g} nodes per axis at h = {h:.4g}")
    axis = -half_extent + h * np.arange(int(nodes))
    mesh = np.meshgrid(axis, axis, indexing="ij")
    r2 = sum(m**2 for m in mesh)
    with np.errstate(over="ignore"):  # an exponent below -1.8e308 is -inf, whose exp is 0
        vals = amplitude * np.exp(-r2 / width**2)
    vals[[0, -1], :] = 0.0
    vals[:, [0, -1]] = 0.0
    return VolumePotential(origin=np.full(2, -half_extent), h=h, values=vals)


# below this k r0 the self-cell integral is summed as a series; the closed
# form and the series agree to its rounding (1e-13) here, and every shipped
# born run (k = 1, h >= 0.045, so k r0 >= 0.025) keeps the closed form's bits
SELF_CELL_SERIES_X = 0.02


def _self_cell_green(k: float, h: float) -> complex:
    """Integral of G over the equal-area disk centered at the node.

    In closed form it is (i pi / 2)(r0 / k) H1(x) - 1/k^2 with x = k r0, whose
    real part -((pi x / 2) Y1(x) + 1) / k^2 cancels like x^2 log x. Below
    SELF_CELL_SERIES_X it is instead the small-argument series of Y1 and J1
    (Abramowitz & Stegun 9.1.10-11), with t = x^2 / 4 and
    L = log(x / 2) + Euler's gamma:
    (r0^2 / 4) sum_m (-t)^m / (m! (m + 1)!) (H_m + H_{m+1} - 2 L + i pi),
    H_m the harmonic numbers; four terms reach rounding there.
    """
    r0 = h / np.sqrt(np.pi)
    x = k * r0
    if x >= SELF_CELL_SERIES_X:
        return 0.5j * np.pi * (r0 / k) * (sp.j1(x) + 1j * sp.y1(x)) - 1.0 / k**2
    t = 0.25 * x * x
    two_l = 2.0 * (math.log(0.5 * x) + np.euler_gamma)
    total, c, harmonic, next_harmonic = 0j, 1.0, 0.0, 1.0
    for m in range(4):
        total += c * complex(harmonic + next_harmonic - two_l, np.pi)
        c *= -t / ((m + 1) * (m + 2))
        harmonic, next_harmonic = next_harmonic, next_harmonic + 1.0 / (m + 2)
    return 0.25 * r0 * r0 * total


def _self_cell_green_sq(k: float, h: float) -> float:
    """Integral of |G|^2 over the equal-area disk centered at a node.

    It uses the small-argument form of |H0|^2, which is the consistent
    regularization at the cell scale.
    """
    r0 = h / np.sqrt(np.pi)
    la = np.log(0.5 * k * np.exp(np.euler_gamma) * r0)
    return (np.pi * r0**2 / 16.0) * (1.0 + (4.0 / np.pi**2) * (la * la - la + 0.5))


def _grid_distances(pot: VolumePotential, points: np.ndarray) -> np.ndarray:
    """Distances from the given points to the grid nodes, one row per point.

    The same bits as np.linalg.norm(points[:, None] - nodes[None], axis=2),
    which its length-2 reduction makes 2.5 times slower on a 41 x 41 grid.
    A distance past the float range is inf, without a warning: the Green
    rows are then non-finite, and `born.BornResult` refuses them by name.
    """
    nodes = pot.points()
    dx = points[:, None, 0] - nodes[None, :, 0]
    dy = points[:, None, 1] - nodes[None, :, 1]
    with np.errstate(over="ignore"):
        return np.sqrt(dx * dx + dy * dy)


def _lattice_offsets(pot: VolumePotential) -> np.ndarray:
    """Lengths h|m| of the lattice offsets m >= 0 (one quadrant), with 1 at m = 0.

    The kernel lives on the (2n - 1)^2 offset grid in FFT order: along an
    axis with n nodes, index i holds offset i for i < n and i - (2n - 1)
    above. h|m| is even in each axis, so this n0 x n1 quadrant carries every
    value, and `volume_green` mirrors the kernel evaluated on it. The offsets
    are `np.fft.fftfreq`'s, in which -i and +i are exact negatives but which
    are an ulp off the integers at some n (25, 52, ...): the mirrored kernel
    has the bits of one evaluated on every offset. The 1 at m = 0 is a
    placeholder for the self-cell terms that replace it. `LatticeOperator`
    zero-pads the grid to 5-smooth FFT lengths; the kernel itself, and every
    table read from it, keeps the (2n - 1)^2 layout.
    """
    axes = [np.fft.fftfreq(2 * n - 1, 1.0 / (2 * n - 1))[:n] * pot.h for n in pot.values.shape]
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
    (one row per point, off the support) to every node r_j, and `green_sq`
    applies |G|^2. Built once by `volume_green`, it serves every volume sum
    of a run, for any potential on the same grid.
    """

    origin: np.ndarray
    h: float
    shape: Tuple[int, ...]
    k: float
    points: np.ndarray
    operator: LatticeOperator
    rows: np.ndarray

    @cached_property
    def green_sq(self) -> LatticeOperator:
        """The grid's cell-integrated |G|^2, applied by FFT; built on first use.

        Off the self cell its kernel is |h^2 G|^2 / h^2, read from the Green
        kernel of `operator` (no Bessel function is evaluated again); offset 0
        carries the integral of |G|^2 over the equal-area disk. It depends on
        the grid alone, so every potential's beta weight shares it.
        """
        kernel = self.operator.kernel
        g2 = (kernel.real**2 + kernel.imag**2) / self.h**2
        g2[0, 0] = _self_cell_green_sq(self.k, self.h)
        return LatticeOperator(g2)

    def require_grid(self, pot: VolumePotential) -> None:
        """Raise DomainError unless `pot` lies on the grid the tables were built for."""
        if not (pot.h == self.h and pot.values.shape == self.shape
                and np.array_equal(pot.origin, self.origin)):
            raise DomainError("potential grid differs from the grid of the Green tables")


def volume_green(pot: VolumePotential, k: float, points: np.ndarray) -> VolumeGreen:
    """The grid Green operator of `pot` and its rows at exterior `points`.

    The support is the union of the grid cells, a half-cell margin around
    the node lattice; a point inside it raises DomainError, which
    covers every point closer than h/2 to a node. Rows whose build would peak
    past physical memory (32 bytes per point and node) raise MemoryError.
    """
    # each closed-form term of the self-cell integral is near 1/k^2 at a small k h
    if not (k > 0 and 0 < k * k < np.inf and 1 / (k * k) < np.inf):
        raise DomainError(f"wavenumber k = {k!r} must be positive, with k^2 and 1/k^2 finite")
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
    geometry.require_memory(32.0 * len(points) * pot.n_cells,
                            f"a Green table of {len(points)} rows by {pot.n_cells} nodes")
    quadrant = _volume_green(pot, k, _lattice_offsets(pot))
    kernel = quadrant[np.ix_(*[np.r_[0:n, n - 1:0:-1] for n in quadrant.shape])]
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


# Lippmann-Schwinger GMRES: Krylov steps per cycle, and cycles before the
# solve is refused (one 200-step budget)
LS_RESTART = 100
LS_CYCLES = 2

def _plane_rotation(f: complex, g: complex) -> Tuple[float, complex, complex]:
    """c, s and r of the rotation [c s; -conj(s) c], c real, that takes (f, g) to (r, 0).

    math.hypot forms |f|, |g| and their norm without overflow or underflow.
    """
    norm = math.hypot(abs(f), abs(g))
    if norm == 0:
        return 1.0, 0j, 0j
    phase = f / abs(f) if f else 1.0
    return abs(f) / norm, phase * g.conjugate() / norm, phase * norm


def _gmres(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
           tol: float) -> Tuple[np.ndarray, int, np.ndarray]:
    """Restarted GMRES for apply(x) = b from x0 = 0.

    Returns x, its step count and its true residual b - apply(x). Each cycle
    runs Arnoldi steps by modified Gram-Schmidt, storing each Krylov vector
    when it is made, and reduces the Hessenberg matrix by complex Givens
    rotations (`_plane_rotation`) as it grows. A cycle stops after
    LS_RESTART steps or where the rotated residual estimate reaches `tol`,
    and ends by forming the true residual; the next one restarts from it,
    unless it is within `tol`. At most LS_CYCLES cycles run.
    """
    x, r, steps = np.zeros_like(b), b, 0
    for _ in range(LS_CYCLES):
        beta = np.linalg.norm(r)
        if not beta > tol:
            break
        basis = [r / beta]
        g = np.zeros(LS_RESTART + 1, dtype=b.dtype)  # rotated residual vector
        g[0] = beta
        hess = np.zeros((LS_RESTART + 1, LS_RESTART), dtype=b.dtype)
        rot = np.zeros((LS_RESTART, 2), dtype=b.dtype)
        for j in range(LS_RESTART):
            w = apply(basis[j])
            for i, v in enumerate(basis):
                hess[i, j] = np.vdot(v, w)
                w -= hess[i, j] * v
            hess[j + 1, j] = np.linalg.norm(w)
            for i, (c, s) in enumerate(rot[:j]):
                hess[i, j], hess[i + 1, j] = (c * hess[i, j] + s * hess[i + 1, j],
                                              c * hess[i + 1, j] - np.conj(s) * hess[i, j])
            c, s, hess[j, j] = _plane_rotation(hess[j, j], hess[j + 1, j])
            rot[j] = c, s
            g[j], g[j + 1] = c * g[j], -np.conj(s) * g[j]
            steps += 1
            if abs(g[j + 1]) <= tol:
                break
            basis.append(w / hess[j + 1, j])
        # back substitution on the rotated (upper triangular) Hessenberg matrix;
        # a zero pivot (a singular system) leaves non-finite values, which the
        # caller's residual refuses
        y = g[:j + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in reversed(range(j + 1)):
                y[i] = (y[i] - hess[i, i + 1:j + 1] @ y[i + 1:]) / hess[i, i]
        for yi, v in zip(y, basis):
            x += yi * v
        r = b - apply(x)
    return x, steps, r


def lippmann_schwinger(
    pot: VolumePotential,
    u0: IncidentField,
    green: VolumeGreen,
    info: Optional[dict] = None,
) -> np.ndarray:
    """Total field on the potential grid: u = u0 - integral of G Xi u.

    Discretized as (I + G diag(Xi)) u = u0 with the singularity-corrected
    Green operator of `green` (built for `pot`'s grid) and solved by GMRES
    (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986; `_gmres`) with G
    applied by FFT: at most LS_CYCLES cycles of LS_RESTART Krylov steps,
    stopped at a relative residual of 1e-12. A true residual (`_gmres`'s,
    after the last cycle) above 1e-12 raises SingularSystemError.

    If `info` is given it receives the GMRES `iterations` and that relative
    `residual`.
    """
    green.require_grid(pot)
    if u0.dim != pot.dim:
        raise DomainError("incident field dimension does not match the grid")
    gop = green.operator
    xi = pot.flat()
    b = u0.values(pot.points())

    def apply(x: np.ndarray) -> np.ndarray:
        return x + gop @ (xi * x)

    u, steps, r = _gmres(apply, b, 1e-12 * np.linalg.norm(b))
    residual = float(np.linalg.norm(r) / np.linalg.norm(b))
    if info is not None:
        info.update(iterations=steps, residual=residual)
    if not residual <= 1e-12:
        raise SingularSystemError(
            f"Lippmann-Schwinger GMRES left a relative residual of {residual:.3e} "
            f"after {steps} iterations (needs <= 1e-12)"
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
