import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveortho import specfun
from waveortho.errors import DomainError


def test_j0_closed_form():
    x = np.linspace(0.1, 40.0, 300)
    j, jp = specfun.sph_bessel_j(0, x)
    assert np.allclose(j, np.sin(x) / x, atol=1e-14)
    assert np.allclose(jp, np.cos(x) / x - np.sin(x) / x**2, atol=1e-14)


def test_j_origin_limits():
    j0, _ = specfun.sph_bessel_j(0, 0.0)
    j3, _ = specfun.sph_bessel_j(3, 0.0)
    _, j1p = specfun.sph_bessel_j(1, 0.0)
    assert j0 == 1.0
    assert j3 == 0.0
    assert j1p == pytest.approx(1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 40])
def test_spherical_wronskian(n):
    # j_n(x) y_n'(x) - j_n'(x) y_n(x) = 1/x^2
    x = np.linspace(0.5, 60.0, 97)
    j, jp = specfun.sph_bessel_j(n, x)
    y, yp = specfun.sph_bessel_y(n, x)
    w = j * yp - jp * y
    assert np.allclose(w, 1.0 / x**2, rtol=1e-10)


def test_hankel_combination():
    x = np.array([0.3, 2.0, 11.5])
    h, hp = specfun.sph_hankel1(4, x)
    j, jp = specfun.sph_bessel_j(4, x)
    y, yp = specfun.sph_bessel_y(4, x)
    assert np.allclose(h, j + 1j * y)
    assert np.allclose(hp, jp + 1j * yp)


def test_hankel_outgoing_asymptotics():
    """h_n(x) ~ (-i)^(n+1) e^(ix) / x with an O(n(n+1)/2x) relative correction."""
    x = 800.0
    for n in (0, 1, 6):
        h, _ = specfun.sph_hankel1(n, x)
        ref = (-1j) ** (n + 1) * np.exp(1j * x) / x
        tol = 1.2 * n * (n + 1) / (2.0 * x) + 1e-3
        assert abs(h - ref) < tol * abs(ref)


@pytest.mark.parametrize("n,m", [(0, 1), (1, 2), (2, 5), (3, 7)])
def test_legendre_orthogonality(n, m):
    # Gauss order high enough to integrate P_n P_m exactly
    x, w = np.polynomial.legendre.leggauss(16)
    pn = specfun.legendre_p(n, x)
    pm = specfun.legendre_p(m, x)
    assert abs(np.sum(w * pn * pm)) < 1e-14
    assert np.sum(w * pn * pn) == pytest.approx(2.0 / (2 * n + 1), rel=1e-13)


def test_legendre_endpoints_and_parity():
    for n in range(8):
        assert specfun.legendre_p(n, 1.0) == pytest.approx(1.0, abs=1e-13)
        assert specfun.legendre_p(n, -1.0) == pytest.approx((-1.0) ** n, abs=1e-13)


def test_legendre_deriv_matches_difference_quotient():
    x = np.linspace(-0.95, 0.95, 41)
    eps = 1e-6
    for n in (1, 4, 9):
        dp = specfun.legendre_p_deriv(n, x)
        fd = (specfun.legendre_p(n, x + eps) - specfun.legendre_p(n, x - eps)) / (2 * eps)
        assert np.allclose(dp, fd, atol=1e-7)


def test_legendre_deriv_pole_limit():
    # P_n'(+-1) = (+-1)^(n+1) n(n+1)/2
    for n in (1, 2, 5):
        assert specfun.legendre_p_deriv(n, 1.0) == pytest.approx(n * (n + 1) / 2)
        assert specfun.legendre_p_deriv(n, -1.0) == pytest.approx(
            (-1.0) ** (n + 1) * n * (n + 1) / 2
        )


def test_cylindrical_wronskian():
    # J_0(x) Y_0'(x) - J_0'(x) Y_0(x) = 2 / (pi x), with J_0' = -J_1 etc.
    x = np.linspace(0.2, 30.0, 73)
    h0, h0p = specfun.cyl_hankel1_0(x)
    # imag(conj(H0) * H0') = J0 Y0' - J0' Y0
    w = (np.conj(h0) * h0p).imag
    assert np.allclose(w, 2.0 / (np.pi * x), rtol=1e-10)


def test_domain_errors():
    with pytest.raises(DomainError):
        specfun.sph_bessel_j(2, -1.0)
    with pytest.raises(DomainError):
        specfun.sph_bessel_y(0, 0.0)
    with pytest.raises(DomainError):
        specfun.legendre_p(3, 1.5)
    with pytest.raises(DomainError):
        specfun.cyl_hankel1_0(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        specfun.sph_bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        specfun.sph_bessel_j(2.5, 1.0)


def test_order_cap():
    too_high = f"order {specfun.MAX_ORDER + 1} exceeds the supported cap"
    with pytest.raises(DomainError, match=too_high):
        specfun.sph_bessel_j(specfun.MAX_ORDER + 1, 1.0)
    for fn in (specfun.sph_bessel_j, specfun.sph_hankel1, specfun.legendre_p_deriv):
        with pytest.raises(DomainError, match=too_high):
            fn(np.array([[2], [specfun.MAX_ORDER + 1]]), 0.5)
    # the cap itself still works
    j, _ = specfun.sph_bessel_j(specfun.MAX_ORDER, 50.0)
    assert np.isfinite(j)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@settings(max_examples=40, deadline=None)
@given(
    orders=st.lists(st.integers(0, specfun.MAX_ORDER), min_size=1, max_size=6),
    xs=st.lists(st.floats(1e-3, 500.0), min_size=1, max_size=5),
)
def test_order_arrays_match_per_order_calls_bitwise(orders, xs):
    orders = [0] + orders
    x = np.array(xs)
    cases = [
        (specfun.sph_bessel_j, np.concatenate([[0.0], x])),
        (specfun.sph_bessel_y, x),
        (specfun.sph_hankel1, x),
        (specfun.legendre_p, np.concatenate([[-1.0, 1.0], np.cos(x)])),
        (specfun.legendre_p_deriv, np.concatenate([[-1.0, 1.0], np.cos(x)])),
    ]
    # y_n overflows to -inf for n >> x, and 1j * -inf has a NaN real part
    with np.errstate(over="ignore", invalid="ignore"):
        for fn, arg in cases:
            got = fn(np.array(orders)[:, None], arg)
            for row, n in enumerate(orders):
                ref = fn(n, arg)
                if isinstance(ref, tuple):
                    for g, r in zip(got, ref):
                        assert np.array_equal(_bits(g[row]), _bits(r)), (fn, n)
                else:
                    assert np.array_equal(_bits(got[row]), _bits(ref)), (fn, n)


def test_legendre_deriv_order_zero_is_positive_zero():
    mu = np.array([-1.0, -0.5, 0.0, 0.3, 1.0])
    rows = specfun.legendre_p_deriv(np.arange(3)[:, None], mu)
    for dp in (specfun.legendre_p_deriv(0, mu), rows[0]):
        assert np.array_equal(_bits(dp), _bits(np.zeros_like(mu)))


@pytest.mark.parametrize(
    "orders,error",
    [
        (np.array([0, 3, -1]), DomainError),
        (np.array([[2], [specfun.MAX_ORDER + 1]]), DomainError),
        (np.array([0.0, 1.0]), DomainError),
        (np.array([True, False]), DomainError),
    ],
)
def test_order_arrays_are_validated_whole(orders, error):
    for fn in (specfun.sph_bessel_j, specfun.sph_hankel1, specfun.legendre_p_deriv):
        with pytest.raises(error):
            fn(orders, 0.5)
