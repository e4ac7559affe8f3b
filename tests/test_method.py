import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from waveortho import geometry as geo
from waveortho import method as mth
from waveortho import specfun
from waveortho.errors import DomainError, SingularSystemError


@pytest.fixture
def strip_system():
    """Small plane-wave system on a strip, hard condition, off-normal incidence."""
    k = 2.0 * np.pi
    s = geo.make_surface(geo.Strip(width=1.5), 48)
    th = np.array([-0.6, -0.2, 0.3, 0.7])
    basis = mth.PlaneWaveBasis(directions=np.column_stack([np.sin(th), np.cos(th)]), k=k)
    bc = mth.BoundaryCondition.HARD
    u0 = mth.IncidentField(direction=np.array([0.3, -np.sqrt(1 - 0.09)]), k=k)
    sys = mth.assemble_gram(basis, bc, s, u0)
    return s, basis, bc, u0, sys


def test_incident_field_plane_wave():
    with pytest.raises(DomainError):
        mth.IncidentField(direction=np.array([0.0, 2.0]), k=3.0)
    with pytest.raises(DomainError):
        mth.IncidentField(direction=np.array([0.0, 1.0]), k=-3.0)
    u0 = mth.IncidentField(direction=np.array([0.0, 1.0]), k=3.0)
    pts = np.array([[0.5, -1.0], [0.0, 0.25]])
    assert np.allclose(u0.values(pts), np.exp(3j * pts[:, 1]))
    along = [u0.normal_derivatives(pts, np.tile(n, (2, 1))) for n in np.eye(2)]
    assert np.allclose(along[1], 3j * np.exp(3j * pts[:, 1]))
    assert np.allclose(along[0], 0.0)


def test_plane_wave_traces(strip_system):
    s, basis, bc, u0, sys = strip_system
    # hard trace on the strip is n . grad = ik cos(theta) e^(ik x sin theta)
    x = s.positions[:, 0]
    for i, (sx, cy) in enumerate(basis.directions):
        expected = 1j * basis.k * cy * np.exp(1j * basis.k * sx * x)
        assert np.allclose(sys.traces[:, i], expected, atol=1e-13)


def test_gram_conjugates_first_argument(strip_system):
    s, basis, bc, u0, sys = strip_system
    i, j = 1, 3
    manual = np.sum(s.weights * np.conj(sys.traces[:, i]) * sys.traces[:, j])
    assert sys.g[i, j] == pytest.approx(manual, rel=1e-12)
    # Hermitian by construction, diagonal real positive
    assert np.allclose(sys.g, sys.g.conj().T)
    assert np.all(np.diag(sys.g).real > 0)
    assert np.allclose(sys.beta, 1.0 / np.diag(sys.g).real)


def test_project_incident_manual(strip_system):
    s, basis, bc, u0, sys = strip_system
    au0 = 1j * u0.k * (s.normals @ u0.direction) * u0.values(s.positions)
    manual = np.array(
        [np.sum(s.weights * np.conj(sys.traces[:, i]) * au0) for i in range(basis.size)]
    )
    assert np.allclose(sys.b, manual, rtol=1e-13)


def test_solve_diagonal_formula(strip_system):
    *_, sys = strip_system
    v = mth.solve_diagonal(sys)
    assert np.array_equal(v, sys.beta * (-sys.b))


def test_solve_requires_incident(strip_system):
    s, basis, bc, u0, _ = strip_system
    bare = mth.assemble_gram(basis, bc, s)
    with pytest.raises(ValueError):
        mth.solve_diagonal(bare)


def test_system_without_incident_refuses_residual_and_diagonal_solve(strip_system):
    s, basis, bc, u0, sys = strip_system
    bare = mth.assemble_gram(basis, bc, s)
    assert bare.au0 is None and bare.b is None
    v = mth.solve_diagonal(sys)
    with pytest.raises(ValueError, match="no incident field"):
        mth.boundary_residual(bare, v)
    with pytest.raises(ValueError, match="no incident field"):
        mth.solve_diagonal(bare)


def test_galerkin_matches_dense_solve(strip_system):
    *_, sys = strip_system
    v = mth.solve_galerkin(sys)
    assert np.allclose(v, np.linalg.solve(sys.g, -sys.b), rtol=1e-12)


def test_galerkin_singular_frame():
    # duplicated direction: rank-deficient Gram, diagonal still fine
    k = 2.0 * np.pi
    s = geo.make_surface(geo.Strip(width=1.0), 32)
    th = np.array([0.2, 0.2, -0.4])
    basis = mth.PlaneWaveBasis(directions=np.column_stack([np.sin(th), np.cos(th)]), k=k)
    bc = mth.BoundaryCondition.SOFT
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    sys = mth.assemble_gram(basis, bc, s, u0)
    with pytest.raises(SingularSystemError):
        mth.solve_galerkin(sys)
    mth.solve_diagonal(sys)


def test_refine_first_step_is_diagonal(strip_system):
    *_, sys = strip_system
    v1, hist = mth.refine_iterate(sys, 1)
    assert np.array_equal(v1, mth.solve_diagonal(sys))
    assert len(hist) == 2
    assert hist[0] == pytest.approx(float(np.linalg.norm(sys.b)))
    with pytest.raises(DomainError):
        mth.refine_iterate(sys, 0)
    p1 = mth.refine_power(sys, 1)
    assert np.allclose(p1, mth.solve_diagonal(sys), rtol=1e-15, atol=0.0)
    with pytest.raises(DomainError):
        mth.refine_power(sys, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_refine_history_records_the_residual_of_the_returned_coefficients(strip_system, k):
    # the residual that drives each step is the one recorded, so the last
    # entry is ||G v + b|| of the coefficients returned, bit for bit; every
    # entry is np.linalg.norm of its step's residual, bit for bit, though the
    # history sums the squares without calling it
    *_, sys = strip_system
    v, hist = mth.refine_iterate(sys, k)
    assert hist[-1] == float(np.linalg.norm(sys.g @ v + sys.b))
    steps = [np.zeros(sys.size, dtype=complex)]
    steps += [mth.refine_iterate(sys, j)[0] for j in range(1, k)] + [v]
    assert hist == [float(np.linalg.norm(-sys.b - sys.g @ u)) for u in steps]


@st.composite
def small_systems(draw):
    """A plane-wave basis of 1-12 random directions on a strip, or 1-12 point
    sources inside a sphere, with its Gram system and a projected incident wave."""
    bc = draw(st.sampled_from(list(mth.BoundaryCondition)))
    k = draw(st.floats(0.5, 12.0))
    size = draw(st.integers(1, 12))
    if draw(st.booleans()):
        s = geo.make_surface(geo.Strip(width=draw(st.floats(0.5, 3.0))), draw(st.integers(8, 64)))
        th = np.array(draw(st.lists(st.floats(-1.3, 1.3), min_size=size, max_size=size)))
        basis = mth.PlaneWaveBasis(directions=np.column_stack([np.sin(th), np.cos(th)]), k=k)
        alpha = draw(st.floats(-1.3, 1.3))
        direction = np.array([np.sin(alpha), -np.cos(alpha)])
    else:
        s = geo.make_surface(geo.Sphere(radius=1.0), draw(st.integers(8, 24)))
        coords = st.floats(-0.35, 0.35)
        locs = np.array(draw(st.lists(st.tuples(coords, coords, coords),
                                      min_size=size, max_size=size)))
        basis = mth.PointSourceBasis(locations=locs, k=k)
        direction = np.array([0.0, 0.0, -1.0])
    u0 = mth.IncidentField(direction=direction, k=k)
    return mth.assemble_gram(basis, bc, s, u0)


@settings(max_examples=60, deadline=None)
@given(sys=small_systems())
def test_gram_is_exactly_hermitian_with_positive_diagonal(sys):
    assert np.array_equal(sys.g, sys.g.conj().T)
    assert np.all(np.diag(sys.g).real > 0.0)


@settings(max_examples=60, deadline=None)
@given(sys=small_systems())
def test_refine_first_step_equals_diagonal_bitwise(sys):
    assert np.array_equal(mth.refine_iterate(sys, 1)[0], mth.solve_diagonal(sys))


def test_refine_converges_to_galerkin(strip_system):
    """Contractive spectral radius drives the iterate to the Galerkin solution.

    The residual norm may rise transiently (the iteration matrix is not
    normal), so only convergence is asserted here, not monotonicity.
    """
    *_, sys = strip_system
    rho = mth.iteration_spectral_radius(sys)
    assert rho < 1.0
    v, hist = mth.refine_iterate(sys, 400)
    ref = mth.solve_galerkin(sys)
    assert np.linalg.norm(v - ref) <= 1e-8 * np.linalg.norm(ref)
    assert len(hist) == 401
    assert hist[-1] <= 1e-10 * hist[0]


@pytest.mark.parametrize("n", [1, 2, 50, 5000])
def test_refine_power_matches_stepped_iterate(strip_system, n):
    *_, sys = strip_system
    stepped = mth.refine_iterate(sys, n)[0]
    closed = mth.refine_power(sys, n)
    assert np.linalg.norm(closed - stepped) <= 1e-10 * np.linalg.norm(stepped)


def test_hermitian_spectral_radius_matches_general_eigensolver(strip_system):
    *_, sys = strip_system
    m = np.eye(sys.size) - sys.beta[:, None] * sys.g
    rho_general = float(np.max(np.abs(np.linalg.eigvals(m))))
    rho = mth.iteration_spectral_radius(sys)
    assert rho == pytest.approx(rho_general, abs=1e-12)
    assert mth.iteration_contraction_margin(sys) == pytest.approx(1.0 - rho, abs=1e-12)


def test_contraction_margin_reports_what_rho_rounds_away():
    # B^1/2 G B^1/2 has eigenvalues 2e-11 and 2 - 2e-11, so rho rounds to
    # 1 at ten decimals while the margin is read off the small eigenvalue
    c = 1.0 - 2e-11
    g = np.array([[1.0, c], [c, 1.0]], dtype=complex)
    sys = mth.GramSystem(g=g, beta=np.ones(2))
    assert f"{mth.iteration_spectral_radius(sys):.10f}" == "1.0000000000"
    assert mth.iteration_contraction_margin(sys) == pytest.approx(2e-11, rel=1e-4)


def test_spectral_radius_diagonal_system():
    # an exactly diagonal Gram makes the iteration matrix vanish
    g = np.diag([2.0, 0.5, 1.0]).astype(complex)
    sys = mth.GramSystem(g=g, beta=1.0 / np.diag(g).real)
    assert mth.iteration_spectral_radius(sys) == pytest.approx(0.0, abs=1e-14)
    assert mth.iteration_contraction_margin(sys) == pytest.approx(1.0, abs=1e-14)


def test_epsilon_diagnostic_manual():
    g = np.array([[2.0, 0.4], [0.4, 1.0]], dtype=complex)
    sys = mth.GramSystem(g=g, beta=1.0 / np.diag(g).real)
    v = np.array([1.0, 0.5 + 0.5j])
    dv = abs(v[0] - v[1]) / 1.0
    expected = max(0.4 / 1.0, 0.4 / 2.0) * dv
    assert mth.epsilon_diagnostic(sys, v) == pytest.approx(expected, rel=1e-13)
    # constant coefficients: no coupling penalty
    vc = np.array([1.0 + 0j, 1.0 + 0j])
    assert mth.epsilon_diagnostic(sys, vc) == 0.0


def test_boundary_residual_exact_representation():
    """If the incident wave's mirror image is in the basis, the soft
    residual can be driven to quadrature precision on a reflecting strip."""
    k = 2.0 * np.pi
    s = geo.make_surface(geo.Strip(width=2.0), 64)
    # incident straight down; its specular reflection travels straight up
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    basis = mth.PlaneWaveBasis(directions=np.array([[0.0, 1.0]]), k=k)
    sys = mth.assemble_gram(basis, mth.BoundaryCondition.SOFT, s, u0)
    v = mth.solve_diagonal(sys)
    # on y = 0 both waves have unit trace, so v = -1 cancels exactly
    assert v[0] == pytest.approx(-1.0, abs=1e-12)
    assert mth.boundary_residual(sys, v) < 1e-12


def test_kernel_values_manual(strip_system):
    s, basis, bc, u0, sys = strip_system
    anchor = 5
    phi = mth.kernel_values(sys, anchor)
    t = sys.traces
    manual = np.zeros(s.n_nodes, dtype=complex)
    for i in range(basis.size):
        manual += sys.beta[i] * np.conj(t[anchor, i]) * t[:, i]
    assert np.allclose(phi, manual, rtol=1e-13)
    d, a = mth.kernel_profile(sys, anchor)
    assert d[0] == 0.0
    assert np.all(np.diff(d) >= 0)
    assert a.shape == d.shape


def test_far_field_point_sources_matches_large_radius():
    """Far pattern against direct evaluation at kr >> 1."""
    k = 2.0
    r_eval = 4.0e3
    locs = np.array([[0.0, 0.0, 0.4], [0.1, 0.0, -0.3]])
    basis = mth.PointSourceBasis(locations=locs, k=k)
    v = np.array([1.0 + 0.5j, -0.7j])
    th = np.linspace(0.0, np.pi, 7)
    ff = mth.far_field(basis, v, th)
    pts = r_eval * np.column_stack([np.sin(th), np.zeros_like(th), np.cos(th)])
    direct = basis.values(pts) @ v
    ref = direct * r_eval * np.exp(-1j * k * r_eval)
    assert np.allclose(ff.amplitude, ref, rtol=2e-3)


def test_far_field_spherical_modes_matches_large_radius():
    k = 3.0
    basis = mth.SphericalModeBasis(max_order=4, k=k)
    assert basis.size == 5
    rng = np.random.default_rng(7)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    th = np.linspace(0.1, np.pi - 0.1, 9)
    r_eval = 5.0e3
    ff = mth.far_field(basis, v, th)
    pts = r_eval * np.column_stack([np.sin(th), np.zeros_like(th), np.cos(th)])
    direct = basis.values(pts) @ v
    ref = direct * r_eval * np.exp(-1j * k * r_eval)
    assert np.allclose(ff.amplitude, ref, rtol=2e-3)


def test_far_field_spherical_modes_equals_per_order_evaluation():
    basis = mth.SphericalModeBasis(max_order=21, k=12.0)
    rng = np.random.default_rng(3)
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    th = np.linspace(0.0, np.pi, 181)
    ref = np.zeros_like(th, dtype=complex)
    for n in range(basis.size):
        ref += v[n] * (-1j) ** (n + 1) * specfun.legendre_p(n, np.cos(th))
    ref /= basis.k
    assert np.array_equal(mth.far_field(basis, v, th).amplitude, ref)


def test_far_field_spherical_mode_phase_is_exact_at_high_order():
    # (-i)^(n+1) has period 4; the float power drifts off it by ~1e-14 from order 100
    basis = mth.SphericalModeBasis(max_order=103, k=1.0)
    amp = []
    for n in range(100, 104):
        v = np.zeros(basis.size, dtype=complex)
        v[n] = 1.0
        amp.append(mth.far_field(basis, v, np.array([0.0])).amplitude[0])
    assert amp == [-1j, -1.0, 1j, 1.0]


def _public_hankel(n, x, derivative=False):
    """scipy's public j_n + i y_n (or their derivatives), set part by part."""
    h = np.empty(np.shape(x), dtype=complex)
    h.real, h.imag = (special.spherical_jn(n, x, derivative),
                      special.spherical_yn(n, x, derivative))
    return h


def _spherical_modes_per_order(basis, points, normals):
    """Values and normal derivatives of the modes at every point, order by order:
    h_n and h_n' from scipy's public functions, P_n' from a table at every mu."""
    r = np.linalg.norm(points, axis=1)
    mu = np.clip(points[:, 2] / r, -1.0, 1.0)
    # dD/dn = k h' P (rhat.n) + h P'(mu) (n_z - mu rhat.n) / r
    radial = np.einsum("pd,pd->p", points, normals) / r
    tangent = (normals[:, 2] - mu * radial) / r
    vals = np.empty((points.shape[0], basis.size), dtype=complex)
    derivs = np.empty((points.shape[0], basis.size), dtype=complex)
    dp = specfun.legendre_p_deriv(specfun.legendre_p(np.arange(basis.size)[:, None], mu), mu)
    for n in range(basis.size):
        h, hp = _public_hankel(n, basis.k * r), _public_hankel(n, basis.k * r, True)
        p = specfun.legendre_p(n, mu)
        pp = dp[n]
        vals[:, n] = h * p
        derivs[:, n] = basis.k * hp * (p * radial) + h * (pp * tangent)
    return vals, derivs


def _unit_vectors(n, seed, dim=3):
    d = np.random.default_rng(seed).normal(size=(n, dim))
    return d / np.linalg.norm(d, axis=1)[:, None]


def _scattered_points(n, seed, dim=3):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, dim))
    return d / np.linalg.norm(d, axis=1)[:, None] * rng.uniform(0.5, 3.0, size=(n, 1))


@pytest.mark.parametrize(
    "points",
    [geo.make_surface(geo.Sphere(1.0), 32).positions, _scattered_points(300, 5)],
    ids=["unit-sphere-grid", "many-radii"],
)
def test_spherical_modes_equal_per_order_evaluation(points):
    basis = mth.SphericalModeBasis(max_order=14, k=7.5)
    normals = _unit_vectors(points.shape[0], 6)
    vals, derivs = _spherical_modes_per_order(basis, points, normals)
    assert np.array_equal(basis.values(points), vals)
    assert np.array_equal(basis.normal_derivatives(points, normals), derivs)


def test_order_zero_modes_take_h0_derivative_from_order_one():
    # a one-mode basis: h_0' = -h_1 and P_0' = +0.0, bit for bit
    basis = mth.SphericalModeBasis(max_order=0, k=2.5)
    points = _scattered_points(50, 9)
    normals = _unit_vectors(50, 10)
    _, r, _, (h, hp, at_r), (p, pp, at_mu) = basis._tables(points, derivative=True)
    assert h.shape == hp.shape == (1, at_r.max() + 1)
    x = np.unique(basis.k * r)
    assert np.array_equal(hp[0], -_public_hankel(1, x))
    assert np.array_equal(hp[0], _public_hankel(0, x, True))
    assert np.array_equal(pp.view(np.uint64), np.zeros_like(p).view(np.uint64))
    vals, derivs = _spherical_modes_per_order(basis, points, normals)
    assert np.array_equal(basis.values(points), vals)
    assert np.array_equal(basis.normal_derivatives(points, normals), derivs)


@pytest.mark.parametrize(
    "field",
    [
        mth.PlaneWaveBasis(directions=_unit_vectors(5, 1, dim=2), k=3.1),
        mth.PlaneWaveBasis(directions=_unit_vectors(5, 2), k=3.1),
        mth.PointSourceBasis(locations=0.3 * _unit_vectors(4, 4), k=2.3),
        mth.SphericalModeBasis(max_order=14, k=7.5),
        mth.IncidentField(direction=_unit_vectors(1, 5)[0], k=3.1),
    ],
    ids=["plane-waves-2d", "plane-waves-3d", "point-sources-3d",
         "spherical-modes", "incident"],
)
def test_normal_derivatives_match_central_differences(field):
    # points at radius 0.5 to 3, clear of the point sources at radius 0.3
    points = _scattered_points(40, 7, dim=field.dim)
    normals = _unit_vectors(40, 8, dim=field.dim)
    eps = 1e-6
    fd = (field.values(points + eps * normals) - field.values(points - eps * normals)) / (2 * eps)
    np.testing.assert_allclose(field.normal_derivatives(points, normals), fd, rtol=1e-6, atol=0)


@pytest.mark.parametrize("bc", [mth.BoundaryCondition.SOFT, mth.BoundaryCondition.HARD])
def test_spherical_mode_trace_bessel_calls_do_not_grow_with_order(bc, monkeypatch):
    calls = []

    class Counting:
        def __init__(self, module):
            self.module = module

        def __getattr__(self, name):
            fn = getattr(self.module, name)
            return lambda *args, **kw: calls.append(name) or fn(*args, **kw)

    # the Bessel kinds come from scipy's ufuncs, the Legendre tables from scipy.special
    monkeypatch.setattr(specfun, "_ufuncs", Counting(special._ufuncs))
    monkeypatch.setattr(specfun, "_sp", Counting(special))
    # the derivative tables asked for: h' by sph_hankel1's flag, P' by legendre_p_deriv
    hankel, legendre_deriv = specfun.sph_hankel1, specfun.legendre_p_deriv
    monkeypatch.setattr(specfun, "sph_hankel1", lambda size, x, derivative=False: (
        calls.append(f"h' {derivative}") or hankel(size, x, derivative)))
    monkeypatch.setattr(specfun, "legendre_p_deriv", lambda p, x: (
        calls.append("P'") or legendre_deriv(p, x)))
    s = geo.make_surface(geo.Sphere(1.0), 32)
    counts = []
    for max_order in (2, 25):
        calls.clear()
        mth.eval_basis_trace(mth.SphericalModeBasis(max_order=max_order, k=6.0), bc, s)
        counts.append((calls.count("_spherical_jn"), calls.count("_spherical_yn"),
                       calls.count("eval_legendre"), calls.count("h' True"), calls.count("P'")))
    # one scipy call per Bessel kind and one for the Legendre table, whatever the
    # order; a soft trace forms no derivative, a hard one each derivative once
    hard = int(bc is mth.BoundaryCondition.HARD)
    assert counts == [(1, 1, 1, hard, hard)] * 2


def test_far_field_rejects_plane_waves(strip_system):
    s, basis, bc, u0, sys = strip_system
    v = mth.solve_diagonal(sys)
    with pytest.raises(DomainError, match="plane-wave bases do not radiate"):
        mth.far_field(basis, v, np.linspace(-1.0, 1.0, 5))


def test_far_field_pattern_validation():
    with pytest.raises(ValueError):
        mth.FarFieldPattern(angles=np.array([0.0, 0.0]), amplitude=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        mth.FarFieldPattern(angles=np.array([0.0, 4.0]), amplitude=np.array([1.0, 1.0]))


def test_degenerate_basis_rejected():
    # direction parallel to the strip has identically zero normal trace
    k = 2.0 * np.pi
    s = geo.make_surface(geo.Strip(width=1.0), 32)
    basis = mth.PlaneWaveBasis(directions=np.array([[1.0, 0.0], [0.0, 1.0]]), k=k)
    with pytest.raises(DomainError, match="zero trace norm on this surface"):
        mth.assemble_gram(basis, mth.BoundaryCondition.HARD, s)


@pytest.mark.parametrize("bc", list(mth.BoundaryCondition))
def test_overflowing_gram_rejected(bc):
    # y_12(1e-15) is about 3e206: finite, but its square is not
    s = geo.meridian_sphere_surface(1.0, 32)
    basis = mth.SphericalModeBasis(max_order=12, k=1e-15)
    with pytest.raises(DomainError, match="Gram matrix overflows double precision"):
        mth.assemble_gram(basis, bc, s)


def test_diagonal_with_infinite_reciprocal_rejected():
    # subnormal weights give a positive diagonal whose reciprocal overflows
    s = geo.make_surface(geo.Strip(width=1.0), 32)
    tiny = geo.Surface(positions=s.positions, normals=s.normals,
                       weights=np.full_like(s.weights, 1e-320), closed=False,
                       char_size=s.char_size)
    basis = mth.PlaneWaveBasis(directions=np.array([[0.0, 1.0], [0.6, 0.8]]), k=6.0)
    with pytest.raises(DomainError, match="zero trace norm on this surface"):
        mth.assemble_gram(basis, mth.BoundaryCondition.SOFT, tiny)


def test_point_sources_must_be_inside():
    k = 2.0
    s = geo.make_surface(geo.Sphere(radius=1.0), 16)
    outside = mth.PointSourceBasis(locations=np.array([[0.0, 0.0, 1.5]]), k=k)
    with pytest.raises(DomainError, match="source 0 lies outside the surface"):
        mth.eval_basis_trace(outside, mth.BoundaryCondition.SOFT, s)
    with pytest.raises(DomainError, match=r"\(M, 3\) array: point sources are 3D only"):
        mth.PointSourceBasis(locations=np.array([[0.0, -0.1]]), k=k)


def test_basis_dimension_mismatch():
    s = geo.make_surface(geo.Sphere(radius=1.0), 8)
    basis2d = mth.PlaneWaveBasis(directions=np.array([[0.0, 1.0]]), k=1.0)
    with pytest.raises(DomainError, match="basis dimension 2 does not match surface dimension 3"):
        mth.eval_basis_trace(basis2d, mth.BoundaryCondition.SOFT, s)


def test_boundary_condition_from_string():
    assert mth.BoundaryCondition.from_string("soft") is mth.BoundaryCondition.SOFT
    assert mth.BoundaryCondition.from_string("hard") is mth.BoundaryCondition.HARD
    with pytest.raises(DomainError):
        mth.BoundaryCondition.from_string("rigid")


@pytest.mark.parametrize("bc", [mth.BoundaryCondition.SOFT, mth.BoundaryCondition.HARD])
@pytest.mark.parametrize("ka, max_order", [(1.0, 9), (5.0, 13), (12.0, 21)])
def test_meridian_sphere_system_equals_the_full_grid(ka, max_order, bc):
    """Axisymmetric modes and an axial plane wave are constant on each ring."""
    res = max(32, max_order + 8)
    basis = mth.SphericalModeBasis(max_order=max_order, k=ka)
    u0 = mth.IncidentField(direction=np.array([0.0, 0.0, 1.0]), k=ka)
    full = mth.assemble_gram(basis, bc, geo.make_surface(geo.Sphere(1.0), res), u0)
    mer = mth.assemble_gram(basis, bc, geo.meridian_sphere_surface(1.0, res), u0)
    assert mer.surface.n_nodes == res and full.surface.n_nodes == 2 * res * res

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert rel(mer.g, full.g) <= 1e-14
    # b_n carries |h_n(ka)|, which at ka = 1 is 1e7 times b_0 while the ring
    # integral it multiplies cancels to rounding, so compare B^(1/2) b
    assert rel(np.sqrt(mer.beta) * mer.b, np.sqrt(full.beta) * full.b) <= 1e-13
    angles = np.linspace(0.0, np.pi, 181)
    solvers = (mth.solve_diagonal, mth.solve_galerkin, lambda s: mth.refine_iterate(s, 50)[0])
    for solve in solvers:
        v_mer, v_full = solve(mer), solve(full)
        assert abs(mth.boundary_residual(mer, v_mer) - mth.boundary_residual(full, v_full)) <= 1e-15
        pattern = mth.far_field(basis, v_mer, angles).amplitude
        assert rel(pattern, mth.far_field(basis, v_full, angles).amplitude) <= 1e-14
