import dataclasses

import numpy as np
import pytest

from waveortho import geometry as geo
from waveortho.errors import DomainError
from waveortho.method import PointSourceBasis


def test_gauss_legendre_exactness():
    # n nodes integrate polynomials up to degree 2n-1 exactly
    x, w = geo.gauss_legendre(6)
    for p in range(12):
        exact = (1.0 - (-1.0) ** (p + 1)) / (p + 1)
        assert np.sum(w * x**p) == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("n", [1, 6, 32, 65])
def test_gauss_legendre_is_leggauss_and_read_only(n):
    x, w = geo.gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert geo.gauss_legendre(n)[0] is x
    for a in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("shape, resolution", [
    (geo.Sphere(radius=1.5), 12),
    (geo.Spheroid(equatorial_radius=1.0, polar_radius=2.0), 10),
    (geo.Strip(width=2.0), 16),
])
def test_each_call_builds_a_new_writable_surface_with_identical_bits(shape, resolution):
    s = geo.make_surface(shape, resolution)
    t = geo.make_surface(dataclasses.replace(shape), resolution)
    assert t is not s
    for a, b in ((s.positions, t.positions), (s.normals, t.normals), (s.weights, t.weights)):
        assert not np.shares_memory(a, b) and a.tobytes() == b.tobytes()
        assert a.flags.writeable and b.flags.writeable


def test_sphere_surface_area_and_normals():
    s = geo.make_surface(geo.Sphere(radius=2.0), 24)
    assert s.dim == 3
    assert s.closed
    assert np.sum(s.weights) == pytest.approx(4.0 * np.pi * 4.0, rel=1e-12)
    r = np.linalg.norm(s.positions, axis=1)
    assert np.allclose(r, 2.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(s.normals, axis=1), 1.0, atol=1e-12)
    # outward
    assert np.all(np.sum(s.normals * s.positions, axis=1) > 0)


def test_sphere_quadrature_integrates_harmonics():
    """The tensor grid must kill low-order moments exactly.

    Gauss in cos(theta) and a uniform azimuth grid integrate any product
    of low-degree Legendre polynomials and azimuthal harmonics exactly,
    which is what the Gram assembly relies on.
    """
    s = geo.make_surface(geo.Sphere(radius=1.0), 12)
    z = s.positions[:, 2]
    # int z^2 over the unit sphere = 4 pi / 3
    assert np.sum(s.weights * z**2) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)
    # odd moments vanish
    assert abs(np.sum(s.weights * z**3)) < 1e-13
    x = s.positions[:, 0]
    assert abs(np.sum(s.weights * x)) < 1e-13
    assert np.sum(s.weights * x**2) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)


def test_spheroid_surface_area():
    # prolate area: 2 pi a^2 (1 + (c/(a e)) asin(e)), e^2 = 1 - a^2/c^2
    a, c = 1.0, 2.0
    e = np.sqrt(1.0 - (a / c) ** 2)
    exact = 2.0 * np.pi * a**2 * (1.0 + c / (a * e) * np.arcsin(e))
    s = geo.make_surface(geo.Spheroid(equatorial_radius=a, polar_radius=c), 48)
    assert np.sum(s.weights) == pytest.approx(exact, rel=1e-10)
    # points satisfy the implicit equation
    q = (s.positions[:, 0] ** 2 + s.positions[:, 1] ** 2) / a**2 + s.positions[:, 2] ** 2 / c**2
    assert np.allclose(q, 1.0, atol=1e-12)


def test_spheroid_normals_match_gradient():
    s = geo.make_surface(geo.Spheroid(equatorial_radius=1.0, polar_radius=2.0), 16)
    grad = np.column_stack(
        [
            2.0 * s.positions[:, 0],
            2.0 * s.positions[:, 1],
            2.0 * s.positions[:, 2] / 4.0,
        ]
    )
    grad /= np.linalg.norm(grad, axis=1)[:, None]
    assert np.allclose(s.normals, grad, atol=1e-12)


def test_strip_surface():
    s = geo.make_surface(geo.Strip(width=3.0), 40)
    assert s.dim == 2
    assert not s.closed
    assert np.sum(s.weights) == pytest.approx(3.0, rel=1e-13)
    assert np.allclose(s.positions[:, 1], 0.0)
    assert np.all(np.abs(s.positions[:, 0]) < 1.5)
    assert np.allclose(s.normals, [0.0, 1.0])
    assert s.char_size == pytest.approx(3.0)


def test_shape_validation():
    with pytest.raises(DomainError):
        geo.Sphere(radius=-1.0)
    with pytest.raises(DomainError):
        geo.Strip(width=0.0)
    with pytest.raises(DomainError, match="spheroid must be prolate"):
        geo.make_surface(geo.Spheroid(equatorial_radius=2.0, polar_radius=1.0), 16)
    with pytest.raises(DomainError, match="resolution 2 is below the minimum 4"):
        geo.make_surface(geo.Sphere(radius=1.0), 2)


def _green_and_gradient(k, src, tgt):
    """Free-space Green's function of a point source at src, and its
    gradient (the normal derivatives along the axes), evaluated at tgt."""
    basis = PointSourceBasis(locations=np.array([src]), k=k)
    axes = np.eye(tgt.size)
    grad = basis.normal_derivatives(np.tile(tgt, (tgt.size, 1)), axes)[:, 0]
    return basis.values(tgt[None, :])[0, 0], grad


def _check_gradient_by_central_differences(k, src, tgt, grad):
    eps = 1e-7
    for axis in range(tgt.size):
        step = np.zeros(tgt.size)
        step[axis] = eps
        gp = _green_and_gradient(k, src, tgt + step)[0]
        gm = _green_and_gradient(k, src, tgt - step)[0]
        assert grad[axis] == pytest.approx((gp - gm) / (2 * eps), rel=1e-6)


def test_greens_function_3d_value_and_gradient():
    k = 2.3
    src = np.array([0.0, 0.0, 0.0])
    tgt = np.array([0.4, -0.2, 0.9])
    r = np.linalg.norm(tgt - src)
    value, grad = _green_and_gradient(k, src, tgt)
    assert value == pytest.approx(np.exp(1j * k * r) / (4 * np.pi * r), rel=1e-13)
    _check_gradient_by_central_differences(k, src, tgt, grad)


def test_greens_function_singularity():
    p = np.array([0.3, 0.3, 0.3])
    with pytest.raises(DomainError, match="coincides with a source location"):
        _green_and_gradient(1.0, p, p)
    with pytest.raises(DomainError, match="basis wavenumber must be positive"):
        _green_and_gradient(-1.0, p, p + 1.0)


def test_surface_immutable():
    s = geo.make_surface(geo.Sphere(radius=1.0), 8)
    with pytest.raises(Exception):
        s.closed = False


def test_odd_azimuth_sphere_grid():
    s = geo.odd_azimuth_sphere_surface(1.0, 8)
    assert s.positions.shape == (8 * 17, 3)
    assert np.sum(s.weights) == pytest.approx(4 * np.pi, rel=1e-12)
    # no antipodal pairs on the odd grid
    d = np.linalg.norm(s.positions[:, None, :] + s.positions[None, :, :], axis=2)
    assert d.min() > 1e-3


def test_pw_direction_grid():
    d = geo.gauss_midpoint_directions(6)
    assert d.shape == (72, 3)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)


def test_midpoint_azimuth_grids_match_reference_loops():
    """Node by node, the vectorized grids reproduce a plain double loop bitwise."""
    res = 8

    def loop(n_phi):
        u, wu = geo.gauss_legendre(res)
        phis = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        pos, w = [], []
        for ui, si, wi in zip(u, np.sqrt(1.0 - u**2), wu):
            for p in phis:
                pos.append((si * np.cos(p), si * np.sin(p), ui))
                w.append(wi * (2.0 * np.pi / n_phi))
        return np.array(pos), np.array(w)

    s = geo.odd_azimuth_sphere_surface(1.0, res)
    pos, w = loop(2 * res + 1)
    assert np.array_equal(s.positions, pos)
    assert np.array_equal(s.normals, pos)
    assert np.array_equal(s.weights, w)
    assert np.array_equal(geo.gauss_midpoint_directions(res), loop(2 * res)[0])


def test_meridian_sphere_surface_is_one_node_per_gauss_ring():
    res, radius = 12, 1.5
    s = geo.meridian_sphere_surface(radius, res)
    u, wu = geo.gauss_legendre(res)
    full = geo.make_surface(geo.Sphere(radius), res)
    assert s.n_nodes == res and s.closed and s.char_size == full.char_size
    assert np.array_equal(s.positions[:, 1], np.zeros(res))  # phi = 0
    assert np.array_equal(s.normals[:, 2], u)
    assert np.allclose(s.positions, radius * s.normals, rtol=0, atol=1e-15)
    assert np.array_equal(s.weights, radius * radius * (wu * (2.0 * np.pi)))
    # each node carries its whole ring of the full grid
    rings = full.weights.reshape(res, 2 * res).sum(axis=1)
    np.testing.assert_allclose(s.weights, rings, rtol=1e-14, atol=0)
