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


def test_mie_hard_coefficient_wronskian_identity():
    """For the hard sphere, j_n + a_n h_n collapses to i/((ka)^2 h_n') order
    by order, by the Wronskian, fixing each a_n independently."""
    ka = 5.0
    coeffs, _ = orc.mie_series(HARD, ka, np.array([0.0]))
    n = np.arange(int(np.ceil(ka)) + 13)
    assert coeffs.a_n.shape == n.shape
    j, _ = specfun.sph_bessel_j(n, ka)
    h, hp = specfun.sph_hankel1(n, ka)
    assert np.allclose(j + coeffs.a_n * h, 1j / (ka**2 * hp), rtol=1e-12, atol=0.0)


def _mie_per_order(bc, ka, angles):
    """a_n and the far-field amplitude with one special-function call per order."""
    n_max = int(np.ceil(ka)) + 12
    mu = np.cos(angles)
    a_n = np.empty(n_max + 1, dtype=complex)
    amp = np.zeros_like(angles, dtype=complex)
    for n in range(n_max + 1):
        j, jp = specfun.sph_bessel_j(n, ka)
        h, hp = specfun.sph_hankel1(n, ka)
        a_n[n] = -(j / h) if bc is SOFT else -(jp / hp)
        amp += (2 * n + 1) * a_n[n] * specfun.legendre_p(n, mu)
    amp /= 1j * ka
    return a_n, amp


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_mie_series_equals_per_order_evaluation(bc):
    ka, angles = 12.0, np.linspace(0.0, np.pi, 181)  # 25 orders
    a_n, amp = _mie_per_order(bc, ka, angles)
    coeffs, ff = orc.mie_series(bc, ka, angles)
    assert a_n.size >= 20
    assert np.array_equal(coeffs.a_n, a_n)
    assert np.array_equal(ff.amplitude, amp)


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
    """f(obs <- inc) = f(-inc <- -obs) for any scatterer.

    Run two solves with swapped, negated directions and compare the single
    far-field samples; this checks the solver without a series reference.
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


def test_bem_strip_contour_geometry():
    k = 2.0 * np.pi
    width = 2.0
    s = orc.bem_strip_contour(width, k, 240)
    assert s.char_size == pytest.approx(width)
    assert np.max(np.abs(s.positions[:, 1])) == pytest.approx(1.0 / 200.0, rel=1e-12)
    assert np.max(s.positions[:, 0]) == pytest.approx(width / 2, rel=1e-6)
    with pytest.raises(DomainError):
        orc.bem_strip_contour(-1.0, k, 240)


def test_bem_strip_contour_pattern_converges():
    # node refinement changes the far pattern less and less
    k = 2.0 * np.pi
    kd = 4.0 * np.pi
    width = kd / k
    angles = np.linspace(-np.pi / 2 + 0.05, np.pi / 2 - 0.05, 61)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    ffs = []
    for n in (320, 640, 960):
        s = orc.bem_strip_contour(width, k, n)
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


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_evaluates_each_bessel_order_once(bc, monkeypatch):
    evaluated = {}

    class Counting:
        def __getattr__(self, name):
            fn = getattr(special, name)

            def counted(*args):
                out = fn(*args)
                evaluated[name] = evaluated.get(name, 0) + np.size(out)
                return out

            return counted

    monkeypatch.setattr(orc, "sp", Counting())
    k = 4.0
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    for n in (32, 34):  # n/2 even and odd: t -> pi - t fixes two nodes, or none
        evaluated.clear()
        orc.bem_dense_solve(orc.bem_ellipse(1.0, 0.6, n), bc, k, u0)
        # each order on the rows of one node per orbit of the two reflections, once
        assert evaluated == {name: (n // 4 + 1) * n for name in ("j0", "y0", "j1", "y1")}


def _bem_case(bc, n):
    """A thin strip contour, its curve data, an oblique incident wave and the BEM right side."""
    k = 2.0 * np.pi
    s = orc.bem_strip_contour(1.0, k, n)
    c = orc._CurveData(s)
    u0 = mth.IncidentField(direction=np.array([np.sin(0.4), -np.cos(0.4)]), k=k)
    if bc is SOFT:
        rhs = -u0.values(c.x)
    else:
        rhs = -1j * u0.k * (c.normals @ u0.direction) * u0.values(c.x)
    return k, s, c, u0, rhs


@pytest.mark.parametrize("n", [64, 66])
@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_rows_commute_with_both_reflections(bc, n):
    k, _, c, _, _ = _bem_case(bc, n)
    a = orc._bem_rows(c, bc, k, np.arange(n))
    j = np.arange(n)
    for perm in (-j % n, (n // 2 - j) % n):  # t -> -t and t -> pi - t
        assert np.linalg.norm(a[np.ix_(perm, perm)] - a) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("n", [64, 66])  # 4 | n, and n/2 odd (no node on t = pi/2)
@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_block_solve_matches_full_matrix_solve(bc, n):
    k, s, c, u0, rhs = _bem_case(bc, n)
    psi_ref = np.linalg.solve(orc._bem_rows(c, bc, k, np.arange(n)), rhs)
    angles = np.linspace(-np.pi, np.pi, 91)
    info = {}
    psi, ff = orc.bem_dense_solve(s, bc, k, u0, far_angles=angles, info=info)
    ff_ref = orc._bem_far_field(c, k, psi_ref, angles)
    assert np.linalg.norm(psi - psi_ref) <= 1e-12 * np.linalg.norm(psi_ref)
    assert np.linalg.norm(ff.amplitude - ff_ref) <= 1e-12 * np.linalg.norm(ff_ref)
    assert 0.0 < info["rcond"] < 1.0


@pytest.mark.parametrize("n", [64, 66])
@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_slab_fold_equals_whole_row_fold_bitwise(bc, n):
    k, s, c, u0, _ = _bem_case(bc, n)
    # the fold of the whole rows at the representatives, as one einsum
    orbit = c.perms[:, c.reps]
    ref = np.einsum("cg,pgq->cpq", orc._CHARACTERS, orc._bem_rows(c, bc, k, c.reps)[:, orbit])
    ref /= np.sum(orbit == c.reps, axis=0)
    assert orc._folded_blocks(c, bc, k).tobytes() == ref.tobytes()
    psi_ref, rcond_ref = orc._solve_blocks(c, ref, orc._bem_rhs(c, bc, u0))
    info = {}
    psi, _ = orc.bem_dense_solve(s, bc, k, u0, info=info)
    assert psi.tobytes() == psi_ref.tobytes()
    assert info["rcond"] == rcond_ref
    # the far field, taken in parts of angles, equals the product over all angles at once
    pref = 0.25j * np.sqrt(2.0 / (np.pi * k)) * np.exp(-0.25j * np.pi)
    for angles in (np.linspace(-np.pi, np.pi, 181), np.linspace(-np.pi, np.pi, 721)):
        rhat = np.column_stack((np.sin(angles), np.cos(angles)))
        arg = (-k * rhat) @ c.x.T
        phase = np.empty(arg.shape, dtype=complex)
        phase.real, phase.imag = np.cos(arg), np.sin(arg)
        obliq = -1j * k * (rhat @ c.normals.T)
        ff_ref = pref * ((obliq - 1j * k) * phase) @ (psi * (c.speed * c.trap))
        assert orc._bem_far_field(c, k, psi, angles).tobytes() == ff_ref.tobytes()


@pytest.mark.parametrize("n", [64, 66])  # n/4 + 1 = 17: 5 does not divide it
def test_bem_gather_in_column_blocks_equals_one_block_bitwise(n, monkeypatch):
    k, s, c, u0, _ = _bem_case(HARD, n)
    results = []
    for width in (5, n):  # blocks of 5 columns of S, and all columns in one block
        monkeypatch.setattr(orc, "_GATHER_COLUMNS", width)
        info = {}
        psi, _ = orc.bem_dense_solve(s, HARD, k, u0, info=info)
        results.append((orc._folded_blocks(c, HARD, k).tobytes(), psi.tobytes(), info["rcond"]))
    assert results[0] == results[1]


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_bem_peak_memory_within_guard(bc, monkeypatch):
    n, k = 960, 4.0 * np.pi
    s = orc.bem_strip_contour(1.0, k, n)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    with monkeypatch.context() as m:  # no memory at all: the refusal names its estimate
        m.setattr(orc.geometry, "physical_memory", lambda: 0)
        with pytest.raises(MemoryError) as refused:
            orc.bem_dense_solve(s, bc, k, u0)
    need = int(re.search(r"needs about (\d+) bytes", str(refused.value)).group(1))
    tracemalloc.start()
    try:
        orc.bem_dense_solve(s, bc, k, u0)  # with the default 721 far-field angles
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = 16 * (n // 4 + 1) * n  # one complex (n/4 + 1) x n array
    assert peak <= need
    assert peak <= (3.0 if bc is HARD else 2.0) * unit


def _closed_curve(t, pos, dx):
    speed = np.linalg.norm(dx, axis=1)
    return Surface(
        positions=pos,
        normals=np.column_stack((dx[:, 1], -dx[:, 0])) / speed[:, None],
        weights=speed * (2.0 * np.pi / len(t)),
        closed=True,
        char_size=2.0,
    )


def test_bem_refuses_curve_without_node_symmetry():
    n = 32
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=3.0)
    t = 2.0 * np.pi * np.arange(n) / n
    # an egg: symmetric under t -> -t only
    egg = _closed_curve(
        t,
        np.column_stack((np.cos(t) + 0.2 * np.cos(2 * t), np.sin(t))),
        np.column_stack((-np.sin(t) - 0.4 * np.sin(2 * t), np.cos(t))),
    )
    # an ellipse sampled half a step off its axes: no node maps onto a node
    th = t + np.pi / n
    shifted = _closed_curve(
        th,
        np.column_stack((np.cos(th), 0.6 * np.sin(th))),
        np.column_stack((-np.sin(th), 0.6 * np.cos(th))),
    )
    for curve in (egg, shifted):
        with pytest.raises(DomainError, match="under both axis reflections"):
            orc.bem_dense_solve(curve, SOFT, 3.0, u0)


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
    pot = orc.gaussian_potential(0.5, 0.3, 0.9, 0.06, dim=2)
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


def test_grid_green_matrix_entries():
    pot = orc.gaussian_potential(0.1, 0.3, 0.6, 0.15, dim=2)
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


def _dense_green(pot, k):
    """Grid Green matrix summed entry by entry from the node distances."""
    pts = pot.points()
    r = orc._grid_distances(pot, pts)
    np.fill_diagonal(r, 1.0)
    g = orc._volume_green(pot, k, r)
    np.fill_diagonal(g, orc._self_cell_green(pot.dim, k, pot.h))
    return g


@pytest.mark.parametrize("shape", [(9, 9), (8, 8), (7, 10), (5, 6, 7)])
def test_volume_green_operator_matches_dense_products(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    vals = np.zeros(shape, dtype=complex)
    inner = tuple(slice(1, -1) for _ in shape)
    vals[inner] = rng.normal(size=vals[inner].shape)
    pot = orc.VolumePotential(origin=-0.1 * np.ones(len(shape)), h=0.11, values=vals)
    k = 1.7
    dense = _dense_green(pot, k)
    op = orc.volume_green(pot, k, np.empty((0, pot.dim))).operator
    x = rng.normal(size=pot.n_cells) + 1j * rng.normal(size=pot.n_cells)
    y = dense @ x
    assert np.linalg.norm(op @ x - y) <= 1e-13 * np.linalg.norm(y)
    g = orc.grid_green_matrix(pot, k)
    assert np.max(np.abs(g - dense)) <= 1e-13 * np.max(np.abs(dense))


def _solve(pot, u0, k, **kwargs):
    """The volume solve, with Green tables built for no evaluation point."""
    green = orc.volume_green(pot, k, np.empty((0, pot.dim)))
    return orc.lippmann_schwinger(pot, u0, green, **kwargs)


def test_lippmann_schwinger_reports_path():
    k = 1.5
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    for amp in (0.05, 80.0):
        pot = orc.gaussian_potential(amp, 0.3, 0.9, 0.09, dim=2)
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
    pot = orc.gaussian_potential(0.8, 0.3, 0.9, 0.09, dim=2)
    k = 1.5
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    uf = _solve(pot, u0, k).ravel()
    g = orc.grid_green_matrix(pot, k)
    resid = np.linalg.norm(uf + g @ (pot.flat() * uf) - u0.values(pot.points()))
    assert resid < 1e-12 * np.linalg.norm(u0.values(pot.points()))


def _assert_matches_dense_solve(amp):
    k = 1.5
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    pot = orc.gaussian_potential(amp, 0.3, 0.9, 0.09, dim=2)
    u = _solve(pot, u0, k)
    a = orc.grid_green_matrix(pot, k) * pot.flat()[None, :]
    a[np.diag_indices_from(a)] += 1.0
    u_dense = np.linalg.solve(a, u0.values(pot.points()))
    assert np.allclose(u.ravel(), u_dense, rtol=1e-10)


def test_lippmann_schwinger_fixed_point_matches_dense():
    # weak disturbance: the fixed point u = u0 - G·diag(Xi)·u, solved densely in the test
    _assert_matches_dense_solve(0.05)


def test_lippmann_schwinger_divergence_falls_back():
    # strong disturbance where the Neumann series diverges: GMRES needs no fallback
    # and must still match the dense solve
    _assert_matches_dense_solve(80.0)


def test_lippmann_schwinger_rejects_unconverged_solve(monkeypatch):
    import scipy.sparse.linalg

    def stalled(a, b, **kwargs):
        return np.zeros_like(b), 1

    monkeypatch.setattr(scipy.sparse.linalg, "gmres", stalled)
    pot = orc.gaussian_potential(0.5, 0.3, 0.6, 0.15, dim=2)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=1.0)
    with pytest.raises(SingularSystemError, match="relative residual of 1.000e[+]00 after 0"):
        _solve(pot, u0, 1.0)


def test_lippmann_schwinger_solves_without_hugepage_advice(monkeypatch):
    # GMRES's Krylov basis passes numpy's 4 MiB huge-page threshold on the
    # benchmark's 41 x 41 grid; the advice must be off during the solve and
    # restored after it
    import scipy.sparse.linalg

    set_advice = orc._set_madvise_hugepage
    gmres = scipy.sparse.linalg.gmres
    seen = []

    def recording(*args, **kwargs):
        seen.append(set_advice(False))
        return gmres(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "gmres", recording)
    pot = orc.gaussian_potential(0.5, 0.3, 0.6, 0.15, dim=2)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=1.0)
    previous = set_advice(True)
    try:
        _solve(pot, u0, 1.0)
        assert seen == [False]
        assert set_advice(True) is True
    finally:
        set_advice(previous)


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
        pot = orc.gaussian_potential(amp, 0.3, 0.9, 0.09, dim=2)
        green = orc.volume_green(pot, k, pts)
        u = orc.lippmann_schwinger(pot, u0, green)
        fields.append(orc.scattered_field_at(pot, u, u0, green) - u0.values(pts))
    ratio = np.abs(fields[0] / fields[1])
    assert np.allclose(ratio, 2.0, atol=5e-3)


def test_scattered_field_rejects_points_near_grid():
    pot = orc.gaussian_potential(0.1, 0.3, 0.6, 0.15, dim=2)
    k = 1.0
    # the refusal comes when the Green rows for the point are built
    with pytest.raises(DomainError):
        orc.volume_green(pot, k, np.array([[0.0, 0.61]]))


def test_lippmann_schwinger_3d_smoke():
    pot = orc.gaussian_potential(0.2, 0.25, 0.6, 0.12, dim=3)
    k = 1.2
    u0 = mth.IncidentField(direction=np.array([0.0, 0.0, -1.0]), k=k)
    uf = _solve(pot, u0, k).ravel()
    g = orc.grid_green_matrix(pot, k)
    rhs = u0.values(pot.points())
    resid = np.linalg.norm(uf + g @ (pot.flat() * uf) - rhs) / np.linalg.norm(rhs)
    assert resid < 1e-12
