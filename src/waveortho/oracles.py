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


# The Z2 x Z2 group of the two axis reflections, in the order identity,
# t -> -t, t -> pi - t, t -> t + pi: the signs they give to (x, y), the sign
# of dt'/dt, and the four characters (one row each, chi(g) by column).
_COORD_SIGNS = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
_DT_SIGNS = np.array([1, -1, -1, 1])
_CHARACTERS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])

# columns of the single layer that `_hard_rows` gathers and differentiates at a time
_GATHER_COLUMNS = 32


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


def _nystrom(
    c: _CurveData, rows: np.ndarray, on_diag: Tuple[np.ndarray, np.ndarray],
    base: np.ndarray, kernel: np.ndarray, diag: np.ndarray, scale: complex,
) -> np.ndarray:
    """`scale` times the Nystrom entries of (i/4) H_n(k r) kernel(x_i, x_j), in `base`'s memory.

    H_n = J_n + i Y_n. Kress's product rule splits off -(1/4 pi) J_n kernel,
    which multiplies ln(4 sin^2((t_i - t_j)/2)), and integrates the rest by
    the trapezoidal rule; with `base` from `_nystrom_base`, and its weights
    from `_log_split_column`, an entry is -(kernel / 4 pi) base. The entries
    at `on_diag`, where the column node is the row node `rows[p]`, are
    `scale * diag[rows[p]]`.
    """
    base *= kernel
    base *= -scale / (4.0 * np.pi)
    base[on_diag] = scale * diag[rows[on_diag[0]]]
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


def _distances(
    c: _CurveData, k: float, rows: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """k |x_i - x_j| on rows x cols, with k where i = j, and the (p, q) where i = j."""
    kr = np.hypot(*(np.subtract.outer(xd[rows], xd[cols]) for xd in c.x.T))
    row_of = np.full(c.n, -1)
    row_of[rows] = np.arange(len(rows))
    q = np.flatnonzero(row_of[cols] >= 0)
    on_diag = (row_of[cols[q]], q)
    kr[on_diag] = 1.0  # placeholder, diagonals are handled analytically
    kr *= k
    return kr, on_diag


def _single_layer_diag(c: _CurveData, k: float) -> np.ndarray:
    """Diagonal of the single layer, kernel |x'_j|: the limits of both parts."""
    return c.speed * (
        -c.log_col[0] / (4.0 * np.pi)
        + c.trap * (0.25j - (EULER_GAMMA + np.log(0.5 * k * c.speed)) / (2.0 * np.pi))
    )


def _double_layer(
    c: _CurveData, hard: bool, k: float, rows: np.ndarray, cols: np.ndarray,
    kr: np.ndarray, on_diag: Tuple[np.ndarray, np.ndarray], weights: np.ndarray,
) -> np.ndarray:
    """K (soft) or -i k K' (hard) on rows x cols, from their `_distances` and product-rule weights.

    The kernel is k (x_i - x_j) . n / r |x'_j|, with n = n(x_j) for K and
    -n(x_i) for K'; both share the curvature diagonal (x'' . n) / (4 pi |x'|).
    The node products x . n are formed on all columns and then cut to
    `cols`: BLAS rounds a column alike only within one product shape.
    """
    xn = np.sum(c.x * c.normals, axis=1)
    if hard:  # (x_j - x_i) . n(x_i)
        dot = (c.normals[rows] @ c.x.T)[:, cols]
        dot -= xn[rows, None]
    else:  # (x_i - x_j) . n(x_j)
        dot = (c.x[rows] @ c.normals.T)[:, cols]
        dot -= xn[cols]
    dot *= k * k * c.speed[cols]
    dot /= kr
    k_diag = c.trap * c.curv_dot / (4.0 * np.pi * c.speed)
    base = _nystrom_base(c, weights, sp.j1(kr), sp.y1(kr))
    return _nystrom(c, rows, on_diag, base, dot, k_diag, -1j * k if hard else 1.0)


def _soft_block(
    c: _CurveData, k: float, rows: np.ndarray, cols: np.ndarray, s_diag: np.ndarray
) -> np.ndarray:
    """Entries [rows, cols] of I/2 + K - i k S, with S's diagonal `s_diag`."""
    kr, on_diag = _distances(c, k, rows, cols)
    weights = c.log_col[(rows[:, None] - cols) % c.n]
    double = _double_layer(c, False, k, rows, cols, kr, on_diag, weights)
    j, y = sp.j0(kr), sp.y0(kr)
    del kr
    a = _nystrom(c, rows, on_diag, _nystrom_base(c, weights, j, y), c.speed[cols], s_diag, -1j * k)
    del j, y
    a += double
    a[on_diag] += 0.5
    return a


def _hard_rows(
    c: _CurveData, k: float, rows: np.ndarray, col_sets: list, s_diag: np.ndarray
) -> np.ndarray:
    """Rows `rows` of T - i k (K' - I/2), with the single layer's diagonal `s_diag`.

    Maue's identity gives T = d/ds S d/ds + k^2 S_nn, where S is the single
    layer, S_nn weights its kernel by n(x_i) . n(x_j), and d/ds = (1/|x'|)
    d/dt with d/dt applied by FFT. S and S_nn share the J_0 Nystrom base B
    (`_nystrom_base`), the one (rows x n) array kept besides the result. The
    right d/dt runs along the rows. The left one needs S's columns at
    `rows`, and `rows` must meet every orbit of the reflections: S commutes
    with them, so `_GATHER_COLUMNS` of those columns at a time are formed
    from B through S[g i, j] = S[i, g j] (with a node of `rows` taken as
    itself), differentiated, and spread back through (D_t S)[i, g j] =
    (dt'/dt)(g) (D_t S)[g i, j]. That takes |rows| transforms of length n,
    where differentiating all of S takes n. `col_sets` must partition the
    nodes; set by set, the other terms are built on a set's columns and the
    finished entries overwrite the Maue term's there.
    """
    base = np.empty((len(rows), c.n), dtype=complex)
    for cols in col_sets:
        kr, _ = _distances(c, k, rows, cols)
        weights = c.log_col[(rows[:, None] - cols) % c.n]
        base[:, cols] = _nystrom_base(c, weights, sp.j0(kr), sp.y0(kr))
        del kr, weights
    g_of = np.empty(c.n, dtype=np.intp)  # node j = g_of[j] . rows[p_of[j]]
    p_of = np.empty(c.n, dtype=np.intp)
    for g in (3, 2, 1, 0):
        g_of[c.perms[g, rows]] = g
        p_of[c.perms[g, rows]] = np.arange(len(rows))
    a = np.empty((len(rows), c.n), dtype=complex)  # (D_t S)[rows], then the rows
    for q in range(0, len(rows), _GATHER_COLUMNS):
        qs = rows[q:q + _GATHER_COLUMNS]
        cols = c.perms[g_of[:, None], qs]  # S[j, qs] = S[rows[p_of[j]], cols[j]]
        d = _nystrom(c, np.arange(c.n), (qs, np.arange(len(qs))), base[p_of[:, None], cols],
                     c.speed[cols], s_diag, 1.0)
        del cols
        _fft_derivative(d, axis=0, out=d)
        for g in range(4):
            nodes = np.flatnonzero((g_of == g) & (p_of >= q) & (p_of < q + len(qs)))
            a[:, nodes] = d[c.perms[g, rows, None], p_of[nodes] - q] * _DT_SIGNS[g]
        del d
    a /= c.speed[rows, None]
    a /= c.speed[None, :]
    _fft_derivative(a, axis=1, out=a)  # (.) D = -(D (.)^T)^T
    for cols in col_sets:
        kr, on_diag = _distances(c, k, rows, cols)
        double = _double_layer(c, True, k, rows, cols, kr, on_diag,
                               c.log_col[(rows[:, None] - cols) % c.n])
        del kr
        nn = (c.normals[rows] @ c.normals.T)[:, cols]  # n(x_i) . n(x_j) |x'_j|
        nn *= c.speed[cols]
        block = _nystrom(c, rows, on_diag, base[:, cols], nn, s_diag, k**2)
        del nn
        block -= a[:, cols]
        block += double
        del double
        block[on_diag] += 0.5j * k
        a[:, cols] = block
        del block
    return a


def _bem_rows(c: _CurveData, bc: BoundaryCondition, k: float, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` of the BEM matrix (see `_folded_blocks`); `rows` must meet every orbit."""
    cols = np.arange(c.n)
    s_diag = _single_layer_diag(c, k)
    if bc is BoundaryCondition.HARD:
        return _hard_rows(c, k, rows, [cols], s_diag)
    return _soft_block(c, k, rows, cols, s_diag)


def _folded_blocks(c: _CurveData, bc: BoundaryCondition, k: float) -> np.ndarray:
    """The four character blocks of A = I/2 + K - i k S (soft) or T - i k (K' - I/2) (hard).

    A commutes with the reflections, so it maps each character chi's
    subspace {v : v[g j] = chi(g) v[j]} into itself. On the representatives
    q, q' the block is B[q, q'] = sum_g chi(g) A[q, g q'] / |Stab(q')|, and
    slab g, A[q, g q'], is added to every block in g order. A column g q'
    that an earlier slab holds (q' fixed by a reflection) is evaluated only
    there, so each entry of A's rows at the representatives is evaluated
    once, and a traced solve counts exactly the (n/4 + 1) n Bessel values
    per order of the whole-row assembly. A soft slab is built by
    `_soft_block` just before it is added. A hard block needs Maue's term on
    whole rows, so `_hard_rows` builds A's rows at the representatives on
    the same column sets, and the slabs are cut from them.
    """
    hard = bc is BoundaryCondition.HARD
    reps = c.reps
    orbit = c.perms[:, reps]  # (4, r): g . q
    first = np.argmax(orbit[:, None, :] == orbit[None, :, :], axis=1)  # least g' with g' q = g q
    fresh = first == np.arange(4)[:, None]
    shared_q = np.flatnonzero(~np.all(fresh, axis=0))
    shared = {}
    col_sets = [orbit[g, fresh[g]] for g in range(4)]
    s_diag = _single_layer_diag(c, k)
    a = _hard_rows(c, k, reps, col_sets, s_diag) if hard else None
    for g, cols in enumerate(col_sets):
        if hard:
            slab = a[:, orbit[g]]
        else:
            block = _soft_block(c, k, reps, cols, s_diag)
            slab = np.empty((len(reps), len(reps)), dtype=complex)
            slab[:, fresh[g]] = block
            del block
            for q in shared_q:
                if fresh[g, q]:
                    shared[orbit[g, q]] = slab[:, q].copy()
                else:
                    slab[:, q] = shared[orbit[g, q]]
        if g == 0:  # every character is 1 on the identity
            folded = np.repeat(slab[None], 4, axis=0)
        else:
            for b, chi in zip(folded, _CHARACTERS[:, g]):
                if chi > 0:
                    b += slab
                else:
                    b -= slab
        del slab
    folded /= np.sum(orbit == reps, axis=0)
    return folded


def _solve_blocks(c: _CurveData, folded: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, float]:
    """Solve A psi = rhs from A's character blocks `folded`, one LU per block.

    See `_folded_blocks`. Orbits whose stabilizer chi is not trivial on
    carry no chi component and are left out of chi's block; rhs is projected
    as (1/4) sum_g chi(g) rhs[g q], and psi[g q] = sum_chi chi(g) psi_chi[q].
    Returns psi and the least 1-norm rcond of the four blocks.
    """
    orbit = c.perms[:, c.reps]  # (4, r): g . q
    fixed = orbit == c.reps  # g in Stab(q)
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
    """Far-field amplitude of the combined layer (D - i k S) psi at `angles`.

    Taken 32 to 63 angles at a time, so that no (angles x nodes) array is
    formed; BLAS would round a part of one angle apart from the others.
    """
    rhat = np.column_stack((np.sin(angles), np.cos(angles)))
    ds_w = c.speed * c.trap
    pref = 0.25j * np.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi)
    out = np.empty(len(angles), dtype=complex)
    for part in np.array_split(np.arange(len(angles)), max(1, len(angles) // 32)):
        arg = (-k * rhat[part]) @ c.x.T  # (angles, nodes)
        phase = np.empty(arg.shape, dtype=complex)  # e^(i arg), arg real
        phase.real = np.cos(arg)
        phase.imag = np.sin(arg)
        del arg
        obliq = -1j * k * (rhat[part] @ c.normals.T)  # far-field kernel of the double layer
        out[part] = pref * ((obliq - 1j * k) * phase) @ (psi * ds_w)
    return out


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

    The curve's nodes must map onto nodes under both axis reflections
    (Allgower, Georg & Miranda, SIAM J. Numer. Anal. 29, 1992): the matrix
    commutes with them, so only the rows of one node per orbit are assembled
    (about n/4 + 1), and the system is solved in its four Z2 x Z2 character
    blocks (`_folded_blocks`). A soft curve's blocks are built one reflection
    slab at a time; a hard curve's are folded from its rows, which keep one
    Nystrom base for both of Maue's single layers and differentiate S's
    columns a block at a time (`_hard_rows`). If `info` is given it receives
    `rcond`, the least of the blocks' LAPACK estimates of the reciprocal
    1-norm condition number.

    Assembly and solve peak at under three complex (n/4 + 1) x n arrays
    (2.92 for a hard curve and 1.95 for a soft one, traced at 960 nodes); a
    node count n for which three such arrays exceed physical memory raises
    MemoryError first.
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    if u0.dim != 2:
        raise DomainError("boundary-element oracle is 2D")
    c = _CurveData(s)
    need = 3 * 16 * len(c.reps) * c.n
    have = geometry.physical_memory()
    if need > have:
        raise MemoryError(f"the BEM oracle at {c.n} nodes needs about {need} bytes, "
                          f"more than the {have} bytes of physical memory")
    psi, rcond = _solve_blocks(c, _folded_blocks(c, bc, k), _bem_rhs(c, bc, u0))
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


@dataclass(frozen=True)
class VolumeGreen:
    """The cell-integrated Green's tables of one grid at one wavenumber.

    `operator` applies the grid's Green matrix by FFT: offset m carries
    h^d G(h|m|), and offset 0 the analytic integral of G over the
    equal-measure disk (2D) or ball (3D), which regularizes the singular
    self-interaction. `rows` holds h^d G(p, r_j) from each evaluation point p
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
    kernel[(0,) * pot.dim] = _self_cell_green(pot.dim, k, pot.h)
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
    """Dense matrix of cell-integrated Green's kernels: entry (i, j) ~ h^d G(r_i, r_j).

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

    u(p) = u0(p) - sum_j G(p, r_j) Xi_j u_j h^d, valid for points off the
    support (no self-cell needed).
    """
    green.require_grid(pot)
    return u0.values(green.points) - green.rows @ (pot.flat() * np.asarray(u_grid).ravel())
