import logging

import numpy as np
import pytest

from waveortho import geometry as geo
from waveortho import method as mth
from waveortho import oracles as orc
from waveortho.errors import DomainError, UnsupportedRegionError

SOFT = mth.BoundaryCondition.SOFT
HARD = mth.BoundaryCondition.HARD


# ---------------------------------------------------------------------------
# Separation-of-variables series


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_mie_unitarity(bc):
    # 1 + 2 a_n must lie on the unit circle for a lossless scatterer
    coeffs, _, _ = orc.mie_series(bc, 5.0, np.linspace(0, np.pi, 5))
    s_matrix = 1.0 + 2.0 * coeffs.a_n
    assert np.max(np.abs(np.abs(s_matrix) - 1.0)) < 1e-12


@pytest.mark.parametrize("bc", [SOFT, HARD])
def test_mie_optical_theorem(bc):
    # sigma_total = (4 pi / k) Im f(0)
    angles = np.array([0.0, 0.5])
    coeffs, ff, _ = orc.mie_series(bc, 5.0, angles)
    k = 5.0
    sigma_from_forward = 4.0 * np.pi / k * ff.amplitude[0].imag
    assert coeffs.sigma_total == pytest.approx(sigma_from_forward, rel=1e-12)


def test_mie_cross_sections_frozen():
    # regression pins from the series itself at ka = 5
    c_soft, _, _ = orc.mie_series(SOFT, 5.0, np.array([0.0]))
    c_hard, _, _ = orc.mie_series(HARD, 5.0, np.array([0.0]))
    assert c_soft.sigma_total == pytest.approx(8.175607, rel=1e-5)
    assert c_hard.sigma_total == pytest.approx(4.094637, rel=1e-5)


def test_mie_hard_surface_trace_identity():
    """For the hard sphere, j_n + a_n h_n collapses to i/((ka)^2 h_n')
    by the Wronskian, fixing the surface trace independently."""
    from waveortho import specfun

    ka = 5.0
    angles = np.linspace(0.0, np.pi, 9)
    _, _, trace = orc.mie_series(HARD, ka, angles)
    mu = np.cos(angles)
    ref = np.zeros_like(angles, dtype=complex)
    for n in range(int(np.ceil(ka)) + 13):
        _, hp = specfun.sph_hankel1(n, ka)
        ref += (2 * n + 1) * (1j**n) * (1j / (ka**2 * hp)) * specfun.legendre_p(n, mu)
    assert np.allclose(trace, ref, rtol=1e-12)


def test_mie_soft_trace_is_normal_derivative():
    # soft: total field vanishes, the series reports d(total)/dr instead
    _, _, trace = orc.mie_series(SOFT, 3.0, np.linspace(0, np.pi, 7))
    assert np.all(np.abs(trace) > 0.1)


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
    s = orc.bem_circle(1.0, 48)
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
        _, ff = orc.bem_dense_solve(orc.bem_circle(1.0, n), SOFT, ka, u0, far_angles=angles)
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
    kd = 4.0 * np.pi
    th = orc.kirchhoff_first_null(kd)
    assert th == pytest.approx(np.arcsin(0.5))
    ff = orc.kirchhoff_pattern(kd, 0.0, np.array([th]))
    assert abs(ff.amplitude[0]) < 1e-14
    with pytest.raises(DomainError):
        orc.kirchhoff_first_null(np.pi)


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
    gval = geo.greens_function(2, k, pts[i], pts[j]).value * pot.h**2
    assert g[i, j] == pytest.approx(gval, rel=1e-12)
    # the singular diagonal stays finite and cell-scaled
    assert np.all(np.isfinite(np.diag(g)))
    assert abs(g[0, 0]) < 10.0 * pot.h**2


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
    op = orc.volume_green_operator(pot, k)
    x = rng.normal(size=pot.n_cells) + 1j * rng.normal(size=pot.n_cells)
    y = dense @ x
    assert np.linalg.norm(op @ x - y) <= 1e-13 * np.linalg.norm(y)
    g = orc.grid_green_matrix(pot, k)
    assert np.max(np.abs(g - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_lippmann_schwinger_reports_path():
    k = 1.5
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    for amp, mode, path in ((0.05, "auto", "fixed-point"), (0.05, "dense", "dense"),
                            (80.0, "fixed-point", "fixed-point→dense")):
        pot = orc.gaussian_potential(amp, 0.3, 0.9, 0.09, dim=2)
        info = {}
        orc.lippmann_schwinger(pot, u0, k, mode=mode, info=info)
        assert info["path"] == path
        assert (info["iterations"] > 0) == path.startswith("fixed-point")
        m1 = np.linalg.norm(_dense_green(pot, k) * pot.flat()[None, :], 1)
        assert info["contraction"] == pytest.approx(m1, rel=1e-12)


def test_lippmann_schwinger_zero_potential():
    vals = np.zeros((9, 9), dtype=complex)
    pot = orc.VolumePotential(origin=np.array([-0.4, -0.4]), h=0.1, values=vals)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=2.0)
    u = orc.lippmann_schwinger(pot, u0, 2.0, mode="dense")
    assert u.shape == pot.values.shape
    assert np.allclose(u.ravel(), u0.values(pot.points()), rtol=1e-14)


def test_lippmann_schwinger_dense_residual():
    pot = orc.gaussian_potential(0.8, 0.3, 0.9, 0.09, dim=2)
    k = 1.5
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    uf = orc.lippmann_schwinger(pot, u0, k, mode="dense").ravel()
    g = orc.grid_green_matrix(pot, k)
    resid = np.linalg.norm(uf + g @ (pot.flat() * uf) - u0.values(pot.points()))
    assert resid < 1e-12 * np.linalg.norm(u0.values(pot.points()))


def test_lippmann_schwinger_fixed_point_matches_dense():
    pot = orc.gaussian_potential(0.05, 0.3, 0.9, 0.09, dim=2)
    k = 1.5
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    u_fp = orc.lippmann_schwinger(pot, u0, k, mode="fixed-point")
    u_dn = orc.lippmann_schwinger(pot, u0, k, mode="dense")
    assert np.allclose(u_fp, u_dn, rtol=1e-9)


def test_lippmann_schwinger_divergence_falls_back(caplog):
    # strong disturbance: the Neumann iteration cannot contract
    pot = orc.gaussian_potential(80.0, 0.3, 0.9, 0.09, dim=2)
    k = 1.5
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    with caplog.at_level(logging.INFO, logger="waveortho.oracles"):
        u = orc.lippmann_schwinger(pot, u0, k, mode="fixed-point")
    assert any("fall" in r.message or "diverg" in r.message for r in caplog.records)
    u_dn = orc.lippmann_schwinger(pot, u0, k, mode="dense")
    assert np.allclose(u, u_dn, rtol=1e-10)


def test_lippmann_schwinger_mode_validation():
    pot = orc.gaussian_potential(0.1, 0.3, 0.6, 0.15, dim=2)
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=1.0)
    with pytest.raises(DomainError):
        orc.lippmann_schwinger(pot, u0, 1.0, mode="cheap")


def test_scattered_field_scaling_is_linear_for_weak_potential():
    # u_scat = O(alpha): halving the amplitude halves the scattered field
    k = 1.0
    pts = np.array([[0.0, 4.0], [3.0, -2.0]])
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    fields = []
    for amp in (2e-3, 1e-3):
        pot = orc.gaussian_potential(amp, 0.3, 0.9, 0.09, dim=2)
        u = orc.lippmann_schwinger(pot, u0, k)
        fields.append(orc.scattered_field_at(pot, u, u0, k, pts) - u0.values(pts))
    ratio = np.abs(fields[0] / fields[1])
    assert np.allclose(ratio, 2.0, atol=5e-3)


def test_scattered_field_rejects_points_near_grid():
    pot = orc.gaussian_potential(0.1, 0.3, 0.6, 0.15, dim=2)
    k = 1.0
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    u = orc.lippmann_schwinger(pot, u0, k)
    with pytest.raises(DomainError):
        orc.scattered_field_at(pot, u, u0, k, np.array([[0.0, 0.61]]))


def test_lippmann_schwinger_3d_smoke():
    pot = orc.gaussian_potential(0.2, 0.25, 0.6, 0.12, dim=3)
    k = 1.2
    u0 = mth.IncidentField(direction=np.array([0.0, 0.0, -1.0]), k=k)
    uf = orc.lippmann_schwinger(pot, u0, k, mode="dense").ravel()
    g = orc.grid_green_matrix(pot, k)
    rhs = u0.values(pot.points())
    resid = np.linalg.norm(uf + g @ (pot.flat() * uf) - rhs) / np.linalg.norm(rhs)
    assert resid < 1e-12
