import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from waveortho import method as mth
from waveortho.geometry import Surface
from waveortho import oracles as orc
from waveortho import specfun
from waveortho.errors import DomainError, SingularSystemError

SOFT = mth.BoundaryCondition.SOFT
HARD = mth.BoundaryCondition.HARD


# ---------------------------------------------------------------------------
# Separation-of-variables series


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_mie_unitarity(bc):
    # 1 + 2 a_n must lie on the unit circle for a lossless scatterer
    coeffs, _ = orc.mie_series(bc, 5.0, np.linspace(0, np.pi, 5))
    s_matrix = 1.0 + 2.0 * coeffs.a_n
    assert np.max(np.abs(np.abs(s_matrix) - 1.0)) < 1e-12


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_mie_optical_theorem(bc):
    # sigma_total = (4 pi / k) Im f(0)
    angles = np.array([0.0, 0.5])
    coeffs, ff = orc.mie_series(bc, 5.0, angles)
    k = 5.0
    sigma_from_forward = 4.0 * np.pi / k * ff.amplitude[0].imag
    assert coeffs.sigma_total == pytest.approx(sigma_from_forward, rel=1e-12)


def test_mie_cross_sections_frozen():
    # regression pins from the series itself at ka = 5
    c_soft, _ = orc.mie_series(SOFT, 5.0, np.array([0.0]))
    c_hard, _ = orc.mie_series(HARD, 5.0, np.array([0.0]))
    assert c_soft.sigma_total == pytest.approx(8.175607, rel=1e-5)
    assert c_hard.sigma_total == pytest.approx(4.094637, rel=1e-5)


def test_mie_series_at_a_tiny_ka():
    # k^2 underflows, yet the soft cross-section keeps its limit 4 pi a^2;
    # the hard h_n' overflows to nan, and the oracle refuses
    coeffs, ff = orc.mie_series(SOFT, 1e-200, np.array([0.0, np.pi]))
    assert coeffs.sigma_total == pytest.approx(4.0 * np.pi, rel=1e-12)
    assert np.all(np.isfinite(ff.amplitude))
    with pytest.raises(DomainError, match="no finite coefficients at ka = 1e-200"):
        orc.mie_series(HARD, 1e-200, np.array([0.0]))


def _mie_order(ka):
    """The series' last order: Wiscombe's ka + 4 ka^(1/3) + 10, and at least ceil(ka) + 12."""
    return max(int(np.ceil(ka)) + 12, int(np.ceil(ka + 4.0 * ka ** (1.0 / 3.0) + 10)))


def test_mie_hard_coefficient_wronskian_identity():
    """For the hard sphere, j_n + a_n h_n collapses to i/((ka)^2 h_n') order
    by order, by the Wronskian, fixing each a_n independently."""
    ka = 5.0
    coeffs, _ = orc.mie_series(HARD, ka, np.array([0.0]))
    n = np.arange(_mie_order(ka) + 1)
    assert coeffs.a_n.shape == n.shape
    h, hp = specfun.sph_hankel1(n.size, ka, derivative=True)
    assert np.allclose(h.real + coeffs.a_n * h, 1j / (ka**2 * hp), rtol=1e-12, atol=0.0)


def _mie_per_order(bc, ka, angles):
    """a_n and the far-field amplitude with one scipy call per order and kind."""
    n_max = _mie_order(ka)
    mu = np.cos(angles)
    a_n = np.empty(n_max + 1, dtype=complex)
    amp = np.zeros_like(angles, dtype=complex)
    deriv = bc is HARD
    for n in range(n_max + 1):
        # h_n or h_n', set part by part as the oracle's table is
        j, y = special.spherical_jn(n, ka, deriv), special.spherical_yn(n, ka, deriv)
        a_n[n] = -(j / complex(j, y))
        amp += (2 * n + 1) * a_n[n] * specfun.legendre_p(n, mu)
    amp /= 1j * ka
    return a_n, amp


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_mie_series_equals_per_order_evaluation(bc):
    ka, angles = 12.0, np.linspace(0.0, np.pi, 181)  # 32 orders
    a_n, amp = _mie_per_order(bc, ka, angles)
    coeffs, ff = orc.mie_series(bc, ka, angles)
    assert a_n.size >= 20
    assert np.array_equal(coeffs.a_n, a_n)
    assert np.array_equal(ff.amplitude, amp)


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_mie_series_is_converged_at_its_cap(bc):
    # the 130 orders at ka = 100 against 80 more, summed here from scipy
    ka, angles = 100.0, np.linspace(0.0, np.pi, 181)
    _, ff = orc.mie_series(bc, ka, angles)
    n = np.arange(_mie_order(ka) + 81)
    deriv = bc is HARD
    j = special.spherical_jn(n, ka, derivative=deriv)
    a = -j / (j + 1j * special.spherical_yn(n, ka, derivative=deriv))
    ref = ((2 * n + 1) * a) @ special.eval_legendre(n[:, None], np.cos(angles)) / (1j * ka)
    assert np.linalg.norm(ff.amplitude - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mie_domain():
    with pytest.raises(DomainError):
        orc.mie_series(SOFT, 0.0, np.array([0.0]))
    with pytest.raises(DomainError):
        orc.mie_series(SOFT, 200.0, np.array([0.0]))


# ---------------------------------------------------------------------------
# Dense boundary elements vs the cylinder series


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_matches_cylinder_series(bc):
    ka = 5.0
    angles = np.linspace(-np.pi, np.pi, 181)
    s = orc.bem_ellipse(1.0, 1.0, 48)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=ka)
    _, ff = orc.bem_dense_solve(s, bc, ka, u0, far_angles=angles)
    ref = orc.cylinder_series(bc, ka, angles)
    err = np.linalg.norm(ff.amplitude - ref.amplitude) / np.linalg.norm(ref.amplitude)
    assert err < 1e-6


def test_bem_node_doubling_convergence():
    # spectral quadrature: error should collapse much faster than 4x
    ka = 5.0
    angles = np.linspace(-np.pi, np.pi, 91)
    ref = orc.cylinder_series(SOFT, ka, angles)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=ka)
    errs = []
    for n in (16, 32):
        _, ff = orc.bem_dense_solve(orc.bem_ellipse(1.0, 1.0, n), SOFT, ka, u0, far_angles=angles)
        errs.append(
            np.linalg.norm(ff.amplitude - ref.amplitude) / np.linalg.norm(ref.amplitude)
        )
    assert errs[0] / errs[1] >= 4.0


def test_bem_reciprocity_on_ellipse():
    """f(theta; alpha) = f(alpha - pi; theta + pi) on a centrally symmetric curve.

    f(theta; alpha) is the far field toward theta of the wave incident from
    alpha. Reciprocity, f(theta; alpha) = f(alpha; theta), combined with the
    ellipse's symmetry under the turn by pi, f(theta; alpha) = f(theta + pi;
    alpha + pi), gives this pairing; on a curve without that symmetry it does
    not hold (see the egg below). Two solves compare single far-field
    samples; this checks the solver without a series reference.
    """
    k = 4.0
    s = orc.bem_ellipse(1.0, 0.6, 96)
    th_inc, th_obs = 0.35, -1.1

    def solve(alpha, theta):
        d = np.array([-np.sin(alpha), -np.cos(alpha)])
        u0 = mth.IncidentField(direction=d, k=k)
        _, ff = orc.bem_dense_solve(s, HARD, k, u0, far_angles=np.array([theta]))
        return ff.amplitude[0]

    f_ab = solve(th_inc, th_obs)
    # reversed path: incidence from the old observation direction's antipode
    f_ba = solve(th_obs + np.pi, th_inc + np.pi if th_inc < 0 else th_inc - np.pi)
    assert abs(f_ab - f_ba) < 1e-8 * max(abs(f_ab), 1.0)


def test_bem_ellipse_validation():
    with pytest.raises(DomainError):
        orc.bem_ellipse(1.0, 0.5, 13)  # odd node count
    with pytest.raises(DomainError):
        orc.bem_ellipse(1.0, 0.5, 4)  # too few
    s = orc.bem_ellipse(2.0, 1.0, 64)
    assert s.closed and s.dim == 2
    # perimeter of the ellipse via the quadrature weights
    from scipy.special import ellipe

    e2 = 1.0 - (1.0 / 2.0) ** 2
    assert np.sum(s.weights) == pytest.approx(4.0 * 2.0 * ellipe(e2), rel=1e-10)
    assert np.allclose(np.linalg.norm(s.normals, axis=1), 1.0)


def test_bem_strip_contour_pattern_converges():
    # node refinement changes the far pattern less and less
    k = 2.0 * np.pi
    kd = 4.0 * np.pi
    width = kd / k
    angles = np.linspace(-np.pi / 2 + 0.05, np.pi / 2 - 0.05, 61)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    ffs = []
    for n in (320, 640, 960):
        s = orc.bem_ellipse(width / 2, 1.0 / 200.0, n)  # lambda/100 thick
        _, ff = orc.bem_dense_solve(s, HARD, k, u0, far_angles=angles)
        ffs.append(ff.amplitude)
    d1 = np.linalg.norm(ffs[1] - ffs[0]) / np.linalg.norm(ffs[1])
    d2 = np.linalg.norm(ffs[2] - ffs[1]) / np.linalg.norm(ffs[2])
    assert d2 < d1
    assert d2 < 0.02


def _cot_diff_matrix(n):
    """Spectral differentiation matrix of periodic samples on the uniform 2 pi grid."""
    diff = np.subtract.outer(np.arange(n), np.arange(n))
    d = np.zeros((n, n))
    off = diff != 0
    d[off] = 0.5 * (-1.0) ** diff[off] / np.tan(np.pi * diff[off] / n)
    return d


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("dtype", [float, complex])
def test_fft_derivative_along_either_axis_matches_cot_matrix(n, dtype):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n))
    if dtype is complex:
        x = x + 1j * rng.standard_normal((n, n))
    d = _cot_diff_matrix(n)
    for got, ref in ((orc._fft_derivative(x, axis=0), d @ x),
                     (-orc._fft_derivative(x, axis=1), x @ d)):
        assert got.dtype == x.dtype
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class _CountingSpecial:
    """Stands in for scipy.special, adding the values each function returns to `evaluated`."""

    def __init__(self, evaluated):
        self.evaluated = evaluated

    def __getattr__(self, name):
        fn = getattr(special, name)

        def counted(*args):
            out = fn(*args)
            self.evaluated[name] = self.evaluated.get(name, 0) + np.size(out)
            return out

        return counted


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_evaluates_each_bessel_order_once(bc, monkeypatch):
    evaluated = {}
    monkeypatch.setattr(orc, "sp", _CountingSpecial(evaluated))
    k = 4.0
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    for n in (32, 34):
        evaluated.clear()
        orc.bem_dense_solve(orc.bem_ellipse(1.0, 0.6, n), bc, k, u0)
        # each order once on all n x n node pairs
        assert evaluated == {name: n * n for name in ("j0", "y0", "j1", "y1")}


@pytest.mark.parametrize("n", [64, 66])
@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_rows_commute_with_both_reflections(bc, n):
    # a thin strip contour: its matrix commutes with t -> -t and t -> pi - t
    c = orc._CurveData(orc.bem_ellipse(0.5, 1.0 / 200.0, n))
    a = orc._bem_matrix(c, bc, 2.0 * np.pi)
    j = np.arange(n)
    for perm in (-j % n, (n // 2 - j) % n):
        assert np.linalg.norm(a[np.ix_(perm, perm)] - a) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_peak_memory_within_guard(bc, monkeypatch):
    n, k = 960, 4.0 * np.pi
    s = orc.bem_ellipse(0.5, 0.5 / 200.0, n)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    need = orc.BEM_ARRAYS * 16 * n * (n + 721)
    with monkeypatch.context() as m:  # no memory at all: the refusal names its estimate
        m.setattr(orc.geometry, "physical_memory", lambda: 0)
        with pytest.raises(MemoryError) as refused:
            orc.bem_dense_solve(s, bc, k, u0)
    assert f"needs about {need:.4g} bytes" in str(refused.value)
    tracemalloc.start()
    try:
        orc.bem_dense_solve(s, bc, k, u0)  # with the default 721 far-field angles
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


def _closed_curve(t, pos, dx):
    speed = np.linalg.norm(dx, axis=1)
    return Surface(
        positions=pos,
        normals=np.column_stack((dx[:, 1], -dx[:, 0])) / speed[:, None],
        weights=speed * (2.0 * np.pi / len(t)),
        closed=True,
        char_size=2.0,
    )


def _egg(n):
    """The egg x(t) = (cos t + 0.2 cos 2t, sin t) on n nodes, and its exact x' and x''."""
    t = 2.0 * np.pi * np.arange(n) / n
    dx = np.column_stack((-np.sin(t) - 0.4 * np.sin(2 * t), np.cos(t)))
    ddx = np.column_stack((-np.cos(t) - 0.8 * np.cos(2 * t), -np.sin(t)))
    pos = np.column_stack((np.cos(t) + 0.2 * np.cos(2 * t), np.sin(t)))
    return _closed_curve(t, pos, dx), dx, ddx


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_reciprocity_on_curve_without_reflection_symmetry(bc):
    # an egg, symmetric under t -> -t only: f(theta; alpha) = f(alpha; theta)
    k = 4.0
    egg, _, _ = _egg(96)
    info = {}

    def solve(alpha, theta):
        u0 = mth.IncidentField(direction=np.array([-np.sin(alpha), -np.cos(alpha)]), k=k)
        _, ff = orc.bem_dense_solve(egg, bc, k, u0, far_angles=np.array([theta]), info=info)
        return ff.amplitude[0]

    f_ab, f_ba = solve(0.35, -1.1), solve(-1.1, 0.35)
    assert abs(f_ab - f_ba) <= 1e-12 * abs(f_ab)
    assert 0.0 < info["rcond"] < 1.0


def _kress_layer(s, k, order, weight, diag):
    """Nystrom matrix of (i/4) H_order(k r) weight[i, j] by Kress's product rule, entry by entry.

    Off the diagonal, the entry is R[i, j] M1 + (2 pi / n) (L - M1 ln(4 sin^2((t_i - t_j)/2)))
    with L the whole kernel and M1 = -J_order(k r) weight / (4 pi) its logarithmic part. The
    weights R[i, j] are Kress's cosine sum over n / 2 modes; `diag` is the trapezoidal part of
    the diagonal, which adds R[i, i] M1(t_i, t_i).
    """
    n = s.n_nodes
    h, trap = n // 2, 2.0 * np.pi / n
    dt = trap * np.subtract.outer(np.arange(n), np.arange(n))
    m = np.arange(1, h)
    r_w = -(2.0 * np.pi / h) * np.sum(np.cos(m * dt[..., None]) / m, axis=-1)
    r_w -= (np.pi / h**2) * np.cos(h * dt)
    x = s.positions
    r = np.hypot(*(np.subtract.outer(xd, xd) for xd in x.T))
    off = ~np.eye(n, dtype=bool)
    m1 = -special.jv(order, k * r) * weight / (4.0 * np.pi)
    out = np.empty((n, n), dtype=complex)
    out[off] = r_w[off] * m1[off] + trap * (
        0.25j * special.hankel1(order, k * r[off]) * weight[off]
        - m1[off] * np.log(4.0 * np.sin(0.5 * dt[off]) ** 2)
    )
    out[~off] = np.diag(r_w) * np.diag(m1) + trap * diag
    return out


def _egg_bem_matrix(bc, n, k):
    """The egg's BEM matrix, built from scipy's Hankel functions and the cot differentiation matrix."""
    s, dx, ddx = _egg(n)
    x, nrm = s.positions, s.normals
    speed = np.linalg.norm(dx, axis=1)
    r = np.hypot(*(np.subtract.outer(xd, xd) for xd in x.T))
    np.fill_diagonal(r, 1.0)
    # S: (i/4) H_0 |x'_j|, whose diagonal limit is |x'| (i/4 - (gamma + ln(k |x'| / 2)) / 2 pi)
    s_lim = 0.25j - (np.euler_gamma + np.log(0.5 * k * speed)) / (2.0 * np.pi)
    single = _kress_layer(s, k, 0, np.broadcast_to(speed, (n, n)), speed * s_lim)
    # K, K': (i k / 4) H_1 (x - y) . n_y / r, and (y - x) . n_x; both tend to x''.n / (4 pi |x'|)
    diff = x[:, None, :] - x[None, :, :]  # x_i - x_j
    dl_lim = np.sum(ddx * nrm, axis=1) / (4.0 * np.pi * speed)
    if bc is SOFT:
        g = k * np.einsum("ijd,jd->ij", diff, nrm) / r * speed
        return 0.5 * np.eye(n) + _kress_layer(s, k, 1, g, dl_lim) - 1j * k * single
    g = -k * np.einsum("ijd,id->ij", diff, nrm) / r * speed
    adjoint = _kress_layer(s, k, 1, g, dl_lim)
    s_nn = _kress_layer(s, k, 0, (nrm @ nrm.T) * speed, speed * s_lim)
    d_s = _cot_diff_matrix(n) / speed[:, None]  # d/ds = (1 / |x'|) d/dt
    return d_s @ single @ d_s + k**2 * s_nn - 1j * k * (adjoint - 0.5 * np.eye(n))


@pytest.mark.parametrize("n", [64, 66])
@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_matrix_matches_entrywise_assembly(bc, n):
    # the whole-matrix assembly against the layers built entry by entry on the egg
    k = 4.0
    a = orc._bem_matrix(orc._CurveData(_egg(n)[0]), bc, k)
    ref = _egg_bem_matrix(bc, n, k)
    assert np.linalg.norm(a - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [64, 66])
@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_dense_solve_solves_the_entrywise_system(bc, n):
    # density and far field of one LU against numpy's solve of the entrywise matrix
    k, alpha = 4.0, 0.4
    s, _, _ = _egg(n)
    d = np.array([np.sin(alpha), -np.cos(alpha)])
    u0 = mth.IncidentField(direction=d, k=k)
    inc = np.exp(1j * k * (s.positions @ d))
    rhs = -inc if bc is SOFT else -1j * k * (s.normals @ d) * inc
    psi_ref = np.linalg.solve(_egg_bem_matrix(bc, n, k), rhs)
    angles = np.linspace(-np.pi, np.pi, 91)
    info = {}
    psi, ff = orc.bem_dense_solve(s, bc, k, u0, far_angles=angles, info=info)
    assert np.linalg.norm(psi - psi_ref) <= 1e-11 * np.linalg.norm(psi_ref)
    assert 0.0 < info["rcond"] < 1.0
    # f(theta) = e^(i pi/4) / sqrt(8 pi k) sum_j (-i k rhat . n_j - i k) e^(-i k rhat . x_j) psi_j ds_j
    rhat = np.column_stack((np.sin(angles), np.cos(angles)))
    kern = -1j * k * (rhat @ s.normals.T + 1.0) * np.exp(-1j * k * (rhat @ s.positions.T))
    ff_ref = np.exp(0.25j * np.pi) / np.sqrt(8.0 * np.pi * k) * (kern @ (psi_ref * s.weights))
    assert np.linalg.norm(ff.amplitude - ff_ref) <= 1e-11 * np.linalg.norm(ff_ref)


# ---------------------------------------------------------------------------
# Open-arc strip oracle (unit wavelength, k = 2 pi)

ARC_KDS = [4.0 * np.pi, 16.0 * np.pi]


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("kd", ARC_KDS)
@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_strip_arc_oracle_satisfies_the_optical_theorem(bc, kd, alpha):
    # int |f|^2 dtheta = -sqrt(8 pi / k) Re(e^{i pi/4} f(pi - alpha)); f is periodic
    # and band-limited, so the trapezoidal rule on 512 angles takes the integral
    m, k = 512, 2.0 * np.pi
    ff, _ = orc.strip_arc_solve(bc, kd, alpha, -np.pi + 2.0 * np.pi * np.arange(m) / m)
    fwd, _ = orc.strip_arc_solve(bc, kd, alpha, np.array([np.pi - alpha]))
    width = 2.0 * np.pi / m * np.sum(np.abs(ff.amplitude) ** 2)
    extinction = -np.sqrt(8.0 * np.pi / k) * np.real(np.exp(0.25j * np.pi) * fwd.amplitude[0])
    assert abs(width - extinction) <= 1e-12 * width


@pytest.mark.parametrize("kd", ARC_KDS)
@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_strip_arc_oracle_agrees_with_larger_orders(bc, kd):
    angles = np.linspace(-np.pi, np.pi, 181)
    info = {}
    ff, self_error = orc.strip_arc_solve(bc, kd, 0.3, angles, info=info)
    far, _ = orc._arc_far_field(bc, kd, 0.3, angles, info["nodes"] + 128)
    assert info["nodes"] == int(np.ceil(kd)) + 32
    assert self_error <= 1e-12
    assert np.linalg.norm(ff.amplitude - far) <= 1e-12 * np.linalg.norm(far)
    assert 0.0 < info["rcond"] < 1.0


@pytest.mark.parametrize("kd", ARC_KDS)
@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_strip_arc_pattern_is_mirror_symmetric_at_normal_incidence(bc, kd):
    ff, _ = orc.strip_arc_solve(bc, kd, 0.0, np.linspace(-np.pi, np.pi, 181))
    f = ff.amplitude
    assert np.max(np.abs(f - f[::-1])) <= 1e-12 * np.max(np.abs(f))


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_thin_ellipse_bem_is_off_the_strip_by_a_phase(bc):
    # the lambda/100-thick ellipse that stood in for the strip, against the arc
    k, kd = 2.0 * np.pi, 4.0 * np.pi
    angles = np.linspace(-np.pi, np.pi, 181)
    upper = np.abs(angles) < 0.5 * np.pi - 1e-9
    arc, _ = orc.strip_arc_solve(bc, kd, 0.0, angles)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    _, bem = orc.bem_dense_solve(orc.bem_ellipse(kd / k / 2.0, 1.0 / 200.0, 960), bc, k, u0,
                                 far_angles=angles)
    a, b = arc.amplitude[upper], bem.amplitude[upper]
    assert 0.04 <= np.linalg.norm(a - b) / np.linalg.norm(a) <= 0.06
    ratio = np.vdot(b, a) / np.vdot(b, b)  # least squares: a ~ ratio b
    assert abs(ratio - (0.9986 + 0.048j)) <= 0.005 * abs(0.9986 + 0.048j)


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_strip_arc_oracle_evaluates_bessel_functions_through_sp(bc, monkeypatch):
    evaluated = {}
    monkeypatch.setattr(orc, "sp", _CountingSpecial(evaluated))
    info = {}
    orc.strip_arc_solve(bc, 4.0 * np.pi, 0.0, np.linspace(-np.pi, np.pi, 181), info=info)
    n = info["nodes"]
    per_order = (n + 1) ** 2 + (n + orc.ARC_CHECK_NODES + 1) ** 2  # the half period's node pairs
    assert evaluated == {"j0": per_order, "y0": per_order}


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_strip_arc_oracle_peak_memory_within_guard(bc, monkeypatch):
    angles = np.linspace(-np.pi, np.pi, 181)
    for kd in (4.0 * np.pi, 64.0 * np.pi):
        n = int(np.ceil(kd)) + orc.ARC_EXTRA_NODES
        need = orc.ARC_ARRAYS * 16 * (2 * (n + orc.ARC_CHECK_NODES)) ** 2
        with monkeypatch.context() as m:  # no memory at all: refused before any array
            m.setattr(orc.geometry, "physical_memory", lambda: 0)
            m.setattr(orc, "_arc_far_field", lambda *args: pytest.fail("the oracle ran"))
            with pytest.raises(MemoryError) as refused:
                orc.strip_arc_solve(bc, kd, 0.0, angles)
        assert f"needs about {need:.4g} bytes" in str(refused.value)
        # the first call imports scipy.special and scipy.linalg, whose own
        # allocations are not the oracle's: run it once before tracing
        orc.strip_arc_solve(bc, kd, 0.0, angles)
        tracemalloc.start()
        try:
            orc.strip_arc_solve(bc, kd, 0.0, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need


def test_strip_arc_oracle_domain():
    with pytest.raises(DomainError):
        orc.strip_arc_solve(SOFT, 0.0, 0.0, np.array([0.0]))


# ---------------------------------------------------------------------------
# Kirchhoff aperture model


def test_kirchhoff_pattern_shape():
    kd = 16.0 * np.pi
    angles = np.linspace(-np.pi / 2, np.pi / 2, 721)
    ff = orc.kirchhoff_pattern(kd, 0.0, angles)
    i0 = np.argmin(np.abs(angles))
    assert ff.amplitude[i0] == pytest.approx(1.0)
    assert np.max(np.abs(ff.amplitude)) == pytest.approx(1.0)
    # even in theta at normal incidence
    assert np.allclose(ff.amplitude, ff.amplitude[::-1], atol=1e-12)
    # manual sinc
    arg = 0.5 * kd * np.sin(angles)
    assert np.allclose(ff.amplitude, np.sinc(arg / np.pi), atol=1e-14)


def test_kirchhoff_first_null():
    # normal incidence: the first null is at sin(theta) = 2 pi / kd
    kd = 4.0 * np.pi
    th = np.arcsin(2.0 * np.pi / kd)
    ff = orc.kirchhoff_pattern(kd, 0.0, np.array([th]))
    assert abs(ff.amplitude[0]) < 1e-14


def test_kirchhoff_oblique_peak_moves():
    kd = 8.0 * np.pi
    alpha = 0.3
    angles = np.linspace(-np.pi / 2, np.pi / 2, 2001)
    ff = orc.kirchhoff_pattern(kd, alpha, angles)
    assert angles[np.argmax(np.abs(ff.amplitude))] == pytest.approx(alpha, abs=2e-3)


# ---------------------------------------------------------------------------
# Volume potential and the volume integral equation


def test_gaussian_potential_grid():
    pot = orc.gaussian_potential(0.5, 0.3, 0.9, 0.06)
    assert pot.dim == 2
    n = pot.values.shape[0]
    assert pot.values.shape == (n, n)
    # center value equals the amplitude
    center = pot.points()[np.argmin(np.linalg.norm(pot.points(), axis=1))]
    assert np.linalg.norm(center) < 1e-12
    assert np.max(np.abs(pot.values)) == pytest.approx(0.5, rel=1e-12)
    # boundary layer zeroed
    assert np.all(pot.values[0, :] == 0) and np.all(pot.values[:, -1] == 0)
    with pytest.raises(DomainError):
        orc.gaussian_potential(0.5, -0.3, 0.9, 0.06)


def test_volume_potential_validation():
    vals = np.ones((5, 5), dtype=complex)  # nonzero edge layer
    with pytest.raises(DomainError):
        orc.VolumePotential(origin=np.array([0.0, 0.0]), h=0.1, values=vals)
    vals2 = np.zeros((5, 5), dtype=complex)
    vals2[2, 2] = 1.0
    pot = orc.VolumePotential(origin=np.array([-0.2, -0.2]), h=0.1, values=vals2)
    assert pot.n_cells == 25
    assert pot.points().shape == (25, 2)
    with pytest.raises(DomainError, match="volume grids are 2D only"):
        orc.VolumePotential(origin=np.zeros(3), h=0.1, values=np.zeros((5, 5, 5)))


def test_grid_green_matrix_entries():
    pot = orc.gaussian_potential(0.1, 0.3, 0.6, 0.15)
    k = 1.3
    g = orc.grid_green_matrix(pot, k)
    pts = pot.points()
    # symmetric kernel (reciprocity), not Hermitian
    assert np.allclose(g, g.T)
    i, j = 1, 17
    r = np.linalg.norm(pts[i] - pts[j])
    gval = 0.25j * special.hankel1(0, k * r) * pot.h**2
    assert g[i, j] == pytest.approx(gval, rel=1e-12)
    # the singular diagonal stays finite and cell-scaled
    assert np.all(np.isfinite(np.diag(g)))
    assert abs(g[0, 0]) < 10.0 * pot.h**2


# H0(x) = J0(x) + i Y0(x) from mpmath at 40 digits, on the double x given;
# 2.404825557695773 is the double nearest the first zero of J0
H0_PINNED = [
    (0.06, 0.9991002024797512 - 1.8626264088766658j),
    (1.0, 0.7651976865579666 + 0.08825696421567696j),
    (2.404825557695773, -6.10876525973673e-17 + 0.509924383448479j),
    (8.935769662791675, -0.07434481073705648 + 0.25613964220265056j),
    (60.0, -0.09147180408906187 + 0.0473589522094494j),
]


def _unit_grid_h0(x):
    """H0(x) read back from the 2D volume kernel (i/4) H0(kr) h^2 at h = 1, k = 1."""
    pot = orc.VolumePotential(origin=np.zeros(2), h=1.0, values=np.zeros((3, 3)))
    return orc._volume_green(pot, 1.0, np.asarray(x, dtype=float)) * -4j


def test_volume_green_2d_matches_pinned_hankel():
    """Within 5e-15 of |H0|: a relative bound on the complex value, which
    bounds the real part at the zero of J0 absolutely."""
    x, ref = (np.array(v) for v in zip(*H0_PINNED))
    assert np.all(np.abs(_unit_grid_h0(x) - ref) <= 5e-15 * np.abs(ref))


@settings(max_examples=200, deadline=None)
@given(x=st.floats(1e-6, 60.0))
# cephes y0 is least accurate just below its switch to the asymptotic form
# at x = 5 (4.5e-15 of |H0| against mpmath); with AMOS's own rounding
# the two differ by up to 5.0e-15 there, so the bound is 6e-15
@example(x=4.985847140914534)
def test_volume_green_2d_matches_amos_hankel(x):
    ref = special.hankel1(0, x)
    assert abs(_unit_grid_h0(x) - ref) <= 6e-15 * abs(ref)


# k = 0.59 and 0.6 put k r0 just below and above SELF_CELL_SERIES_X
@pytest.mark.parametrize("k", [1.0, 0.6, 0.59, 1e-2, 1e-4, 1e-8])
def test_self_cell_green_matches_mpmath(k):
    """The self-cell integral (i pi / 2)(r0 / k) H1(k r0) - 1/k^2 against
    mpmath at 60 digits, within 1e-12 relative, where the closed form in
    doubles cancels down to 154 relative at k = 1e-8."""
    mpmath = pytest.importorskip("mpmath")
    h = 0.06
    with mpmath.workdps(60):
        r0 = mpmath.mpf(h) / mpmath.sqrt(mpmath.pi)
        x = k * r0
        h1 = mpmath.besselj(1, x) + 1j * mpmath.bessely(1, x)
        ref = complex(0.5j * mpmath.pi * (r0 / k) * h1 - 1 / mpmath.mpf(k) ** 2)
    assert abs(orc._self_cell_green(k, h) - ref) <= 1e-12 * abs(ref)


def _dense_green(pot, k):
    """Grid Green matrix summed entry by entry from the node distances."""
    pts = pot.points()
    r = orc._grid_distances(pot, pts)
    np.fill_diagonal(r, 1.0)
    g = orc._volume_green(pot, k, r)
    np.fill_diagonal(g, orc._self_cell_green(k, pot.h))
    return g


def test_grid_distances_equal_norm_form_bitwise():
    pot = orc.gaussian_potential(0.5, 0.3, 0.9, 0.06)
    th = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    ring = 5.4 * np.column_stack([np.sin(th), np.cos(th)])  # the default born ring
    scattered = np.random.default_rng(5).normal(scale=2.0, size=(40, 2))
    for points in (ring, scattered):
        ref = np.linalg.norm(points[:, None] - pot.points()[None], axis=2)
        assert np.array_equal(orc._grid_distances(pot, points), ref)


def test_fft_length_is_least_5_smooth_length():
    smooth = [2**a * 3**b * 5**c for a in range(10) for b in range(7) for c in range(5)]
    for m in range(1, 301):
        assert orc._fft_length(m) == min(n for n in smooth if n >= m)


# (31, 31) is the default born grid, transformed at 64 in place of the prime 61
@pytest.mark.parametrize("shape", [(9, 9), (8, 8), (7, 10), (31, 31)])
def test_volume_green_operator_matches_dense_products(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    vals = np.zeros(shape, dtype=complex)
    inner = tuple(slice(1, -1) for _ in shape)
    vals[inner] = rng.normal(size=vals[inner].shape)
    pot = orc.VolumePotential(origin=-0.1 * np.ones(len(shape)), h=0.11, values=vals)
    k = 1.7
    dense = _dense_green(pot, k)
    op = orc.volume_green(pot, k, np.empty((0, pot.dim))).operator
    assert op._kernel_hat.shape == tuple(orc._fft_length(2 * n - 1) for n in shape)
    x = rng.normal(size=pot.n_cells) + 1j * rng.normal(size=pot.n_cells)
    y = dense @ x
    assert np.linalg.norm(op @ x - y) <= 1e-13 * np.linalg.norm(y)
    # the axis-by-axis cropped inverse keeps the bits of the full one
    x_hat = np.fft.fftn(x.reshape(shape), s=op._kernel_hat.shape, axes=(0, 1))
    full = np.fft.ifftn(op._kernel_hat * x_hat)
    assert np.array_equal(op @ x, full[:shape[0], :shape[1]].ravel())
    g = orc.grid_green_matrix(pot, k)
    assert np.max(np.abs(g - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("shape", [(5, 9), (31, 31), (41, 41), (25, 25)])
def test_mirrored_lattice_kernel_equals_the_full_evaluation(shape):
    # (25, 25): fftfreq's offsets are an ulp off the integers there
    pot = orc.VolumePotential(origin=np.zeros(2), h=0.045, values=np.zeros(shape))
    k = 1.3
    axes = [np.fft.fftfreq(2 * n - 1, 1.0 / (2 * n - 1)) * pot.h for n in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum(m**2 for m in mesh))
    r[0, 0] = 1.0
    full = orc._volume_green(pot, k, r)
    full[0, 0] = orc._self_cell_green(k, pot.h)
    kernel = orc.volume_green(pot, k, np.empty((0, 2))).operator.kernel
    assert kernel.shape == full.shape
    assert np.array_equal(kernel, full)


def _solve(pot, u0, k, **kwargs):
    """The volume solve, with Green tables built for no evaluation point."""
    green = orc.volume_green(pot, k, np.empty((0, pot.dim)))
    return orc.lippmann_schwinger(pot, u0, green, **kwargs)


def test_lippmann_schwinger_reports_path():
    k = 1.5
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    for amp in (0.05, 80.0):
        pot = orc.gaussian_potential(amp, 0.3, 0.9, 0.09)
        info = {}
        _solve(pot, u0, k, info=info)
        assert info["iterations"] > 0
        assert info["residual"] <= 1e-12


def test_lippmann_schwinger_zero_potential():
    vals = np.zeros((9, 9), dtype=complex)
    pot = orc.VolumePotential(origin=np.array([-0.4, -0.4]), h=0.1, values=vals)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=2.0)
    u = _solve(pot, u0, 2.0)
    assert u.shape == pot.values.shape
    assert np.allclose(u.ravel(), u0.values(pot.points()), rtol=1e-14)


def test_lippmann_schwinger_dense_residual():
    pot = orc.gaussian_potential(0.8, 0.3, 0.9, 0.09)
    k = 1.5
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    uf = _solve(pot, u0, k).ravel()
    g = orc.grid_green_matrix(pot, k)
    resid = np.linalg.norm(uf + g @ (pot.flat() * uf) - u0.values(pot.points()))
    assert resid < 1e-12 * np.linalg.norm(u0.values(pot.points()))


def _assert_matches_dense_solve(amp, k=1.5, h=0.09):
    """The volume solve against a dense one; returns the solve's info."""
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    pot = orc.gaussian_potential(amp, 0.3, 0.9, h)
    info = {}
    u = _solve(pot, u0, k, info=info)
    a = orc.grid_green_matrix(pot, k) * pot.flat()[None, :]
    a[np.diag_indices_from(a)] += 1.0
    u_dense = np.linalg.solve(a, u0.values(pot.points()))
    assert np.allclose(u.ravel(), u_dense, rtol=1e-10)
    return info


def test_lippmann_schwinger_fixed_point_matches_dense():
    # weak disturbance: the fixed point u = u0 - G·diag(Xi)·u, solved densely in the test
    _assert_matches_dense_solve(0.05)


def test_lippmann_schwinger_divergence_falls_back():
    # strong disturbance where the Neumann series diverges: GMRES needs no fallback
    # and must still match the dense solve
    _assert_matches_dense_solve(80.0)


def test_lippmann_schwinger_rejects_unconverged_solve(monkeypatch):
    def stalled(apply, b, tol):
        return np.zeros_like(b), 0, b

    monkeypatch.setattr(orc, "_gmres", stalled)
    pot = orc.gaussian_potential(0.5, 0.3, 0.6, 0.15)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=1.0)
    with pytest.raises(SingularSystemError, match="relative residual of 1.000e[+]00 after 0"):
        _solve(pot, u0, 1.0)


def test_plane_rotation_takes_the_pair_to_its_norm():
    # zero, and 1e-300 to 1e300 on and off the axes, where squares would leave the float range
    values = [0j]
    for m in 10.0 ** np.arange(-300, 301, 50):
        values += [complex(m, 0.0), complex(0.0, -m), complex(0.6 * m, -0.8 * m)]
    rng = np.random.default_rng(5)
    parts = rng.standard_normal((500, 2, 2)) * 10.0 ** rng.uniform(-300, 300, (500, 2, 1))
    pairs = [(f, g) for f in values for g in values]
    pairs += [(complex(*f), complex(*g)) for f, g in parts]
    for f, g in pairs:
        c, s, r = orc._plane_rotation(np.complex128(f), np.complex128(g))
        assert 0.0 <= c <= 1.0 and np.isfinite(s) and np.isfinite(r), (f, g)
        norm = np.hypot(abs(f), abs(g))
        if norm == 0:
            assert (c, s, r) == (1.0, 0j, 0j)
            continue
        assert abs(abs(r) - norm) <= 4e-16 * norm, (f, g)
        assert abs(c * c + abs(s) ** 2 - 1.0) <= 1e-15, (f, g)
        # [c s; -conj(s) c] (f, g) = (r, 0), each to rounding of the pair's norm
        assert abs(c * f + s * g - r) <= 1e-15 * norm, (f, g)
        assert abs(-np.conj(s) * f + c * g) <= 1e-15 * norm, (f, g)


def test_lippmann_schwinger_restarts_to_a_converged_solve():
    # a disturbance strong enough to need a second GMRES cycle of 100 steps
    info = _assert_matches_dense_solve(1e5, k=1.0, h=0.06)
    assert 100 < info["iterations"] <= 200
    assert info["residual"] <= 1e-12


def test_lippmann_schwinger_peak_memory_on_the_strong_born_grid():
    # the 41 x 41 grid of `born --amplitude 4 --h 0.045`: the solve keeps
    # only the Krylov vectors it makes, at most one 100-step cycle's
    k = 1.0
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    pot = orc.gaussian_potential(4.0, 0.3, 0.9, 0.045)
    assert pot.values.shape == (41, 41)
    green = orc.volume_green(pot, k, np.empty((0, pot.dim)))
    orc.lippmann_schwinger(pot, u0, green)  # a warm-up: FFT plans are made outside the trace
    tracemalloc.start()
    try:
        orc.lippmann_schwinger(pot, u0, green)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(5, 15),
    ny=st.integers(5, 15),
    modulus=st.floats(0.0, 100.0),
    phase=st.floats(-np.pi, np.pi),
    k=st.floats(0.5, 5.0),
)
def test_lippmann_schwinger_residual_against_dense_matrix(nx, ny, modulus, phase, k):
    h = 0.09
    axes = [h * (np.arange(n) - 0.5 * (n - 1)) for n in (nx, ny)]
    x, y = np.meshgrid(*axes, indexing="ij")
    vals = modulus * np.exp(1j * phase) * np.exp(-(x**2 + y**2) / 0.3**2)
    vals[[0, -1], :] = 0.0
    vals[:, [0, -1]] = 0.0
    pot = orc.VolumePotential(origin=np.array([axes[0][0], axes[1][0]]), h=h, values=vals)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    u = _solve(pot, u0, k).ravel()
    b = u0.values(pot.points())
    resid = np.linalg.norm(u + orc.grid_green_matrix(pot, k) @ (pot.flat() * u) - b)
    assert resid <= 1e-12 * np.linalg.norm(b)


def test_scattered_field_scaling_is_linear_for_weak_potential():
    # u_scat = O(alpha): halving the amplitude halves the scattered field
    k = 1.0
    pts = np.array([[0.0, 4.0], [3.0, -2.0]])
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    fields = []
    for amp in (2e-3, 1e-3):
        pot = orc.gaussian_potential(amp, 0.3, 0.9, 0.09)
        green = orc.volume_green(pot, k, pts)
        u = orc.lippmann_schwinger(pot, u0, green)
        fields.append(orc.scattered_field_at(pot, u, u0, green) - u0.values(pts))
    ratio = np.abs(fields[0] / fields[1])
    assert np.allclose(ratio, 2.0, atol=5e-3)


def test_scattered_field_rejects_points_near_grid():
    pot = orc.gaussian_potential(0.1, 0.3, 0.6, 0.15)
    k = 1.0
    # the refusal comes when the Green rows for the point are built
    with pytest.raises(DomainError):
        orc.volume_green(pot, k, np.array([[0.0, 0.61]]))


def test_dense_solve_refuses_a_non_finite_or_exactly_singular_matrix():
    # the LAPACK routines are called directly, with scipy's refusals kept:
    # lu_factor's finiteness check, and rcond 0 for a zero pivot
    rhs = np.ones(2, dtype=complex)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            orc._solve_dense(np.array([[1.0, 2.0], [bad, 1.0]], dtype=complex), rhs)
    for singular in (np.zeros((2, 2)), [[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 1.0]]):
        with pytest.raises(SingularSystemError, match=r"condition number ~ inf\)$"):
            orc._solve_dense(np.array(singular, dtype=complex), rhs)
    # a finite matrix whose 1-norm overflows is not refused as non-finite
    with np.errstate(over="ignore"), pytest.raises(SingularSystemError):
        orc._solve_dense(np.array([[1e308, 0.0], [1e308, 1.0]], dtype=complex), rhs)


def test_dense_solve_refuses_a_near_singular_matrix_with_its_condition_number():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]], dtype=complex)
    with pytest.raises(SingularSystemError) as err:
        orc._solve_dense(a, np.ones(2, dtype=complex))
    m = re.fullmatch(r"dense oracle system is near-singular \(condition number ~ (\S+)\)",
                     str(err.value))
    assert m and 1e12 < float(m.group(1)) < 1e16
