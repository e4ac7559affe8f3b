import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

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
    # scipy's scalars at the origin, bit for bit: j_0'(0) = -j_1(0) is -0.0
    for n in range(4):
        got = specfun.sph_bessel_j(n, 0.0)
        want = special.spherical_jn(n, 0.0), special.spherical_jn(n, 0.0, derivative=True)
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.array_equal(_bits(g), _bits(w)), n
    assert np.signbit(specfun.sph_bessel_j(0, 0.0)[1])


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


def test_hankel_keeps_its_real_part_where_y_overflows():
    n = np.arange(specfun.MAX_ORDER + 1)[:, None]
    x = np.array([0.5, 1.0, 3.0, 50.0, 150.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, hp = specfun.sph_hankel1(n, x)
    (j, jp), (y, yp) = specfun.sph_bessel_j(n, x), specfun.sph_bessel_y(n, x)
    assert np.isinf(y).any()
    np.testing.assert_array_equal(h.real, j)
    np.testing.assert_array_equal(hp.real, jp)
    np.testing.assert_array_equal(h.imag, y)
    np.testing.assert_array_equal(hp.imag, yp)
    # where y_n is finite, bit for bit the values of j + 1j * y
    finite = np.isfinite(y) & np.isfinite(yp)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(h[finite], (j + 1j * y)[finite])
        assert np.array_equal(hp[finite], (jp + 1j * yp)[finite])


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


def test_domain_errors():
    with pytest.raises(DomainError):
        specfun.sph_bessel_j(2, -1.0)
    with pytest.raises(DomainError, match="sph_bessel_j_value requires finite x >= 0"):
        specfun.sph_bessel_j_value(2, -1.0)
    with pytest.raises(DomainError):
        specfun.sph_bessel_y(0, 0.0)
    with pytest.raises(DomainError):
        specfun.legendre_p(3, 1.5)
    with pytest.raises(DomainError):
        specfun.sph_bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        specfun.sph_bessel_j(2.5, 1.0)
    # a bool is an int to Python, but not an order, as a scalar or in an array
    for order in (True, np.array([True])):
        with pytest.raises(DomainError, match="^order must be an integer or integer array"):
            specfun.sph_bessel_j(order, 1.0)


@pytest.mark.parametrize("x", [0.0, -1.0, np.inf, np.array([1.0, np.nan])])
def test_hankel_names_itself_in_its_refusal(x):
    with pytest.raises(DomainError, match="^sph_hankel1 requires finite x > 0$"):
        specfun.sph_hankel1(2, x)


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
        (specfun.sph_bessel_j_value, np.concatenate([[0.0], x])),
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
        (np.array([True]), DomainError),
        (True, DomainError),
    ],
)
def test_order_arrays_are_validated_whole(orders, error):
    for fn in (specfun.sph_bessel_j, specfun.sph_bessel_j_value, specfun.sph_hankel1,
               specfun.legendre_p_deriv):
        with pytest.raises(error):
            fn(orders, 0.5)


# arguments from the origin past the largest order, through the region where
# y_n overflows to -inf (n >> x) and its derivative turns to -inf or nan
_SCIPY_ARGS = np.concatenate([[0.0, 1e-6, 0.5], np.linspace(1.0, 100.0, 397)])


def _public_hankel(n, x, derivative=False):
    """scipy's public j_n + i y_n (or their derivatives), set part by part."""
    j, y = special.spherical_jn(n, x, derivative), special.spherical_yn(n, x, derivative)
    z = np.empty(np.shape(j), dtype=complex)
    z.real, z.imag = j, y
    return z


# specfun calls scipy's private spherical Bessel ufuncs: these tests pin them
# to the public functions, so a scipy upgrade that changes either shows here
@pytest.mark.parametrize("kind", ["j", "y", "h"])
def test_spherical_bessel_equals_scipy_bitwise(kind):
    fn, ref = {"j": (specfun.sph_bessel_j, special.spherical_jn),
               "y": (specfun.sph_bessel_y, special.spherical_yn),
               "h": (specfun.sph_hankel1, _public_hankel)}[kind]
    x = _SCIPY_ARGS if kind == "j" else _SCIPY_ARGS[1:]
    orders = np.arange(specfun.MAX_ORDER + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        want = ref(orders[:, None], x), ref(orders[:, None], x, derivative=True)
        shapes = [
            (orders[:, None], x, lambda a: a),  # a column of orders
            (orders, x[7], lambda a: a[:, 7]),  # a row of orders at one x
            (orders[:, None], x[None, 3:5], lambda a: a[:, 3:5]),  # a row of x
            (orders, x[:, None], lambda a: a.T),  # a row of orders against a column of x
        ]
        for n, arg, pick in shapes:
            for got, ref_a in zip(fn(n, arg), want):
                assert np.array_equal(_bits(got), _bits(pick(ref_a)))
            if kind == "j":
                got = specfun.sph_bessel_j_value(n, arg)
                assert np.array_equal(_bits(got), _bits(pick(want[0])))
        for n in (0, 1, 2, 37, specfun.MAX_ORDER):  # scalar orders
            for got, ref_a in zip(fn(n, x), want):
                assert np.array_equal(_bits(got), _bits(ref_a[n]))
    # y_n, and the imaginary part of h_n, reach -inf and a nan derivative
    y_part = want if kind == "y" else [w.imag for w in want]
    assert kind == "j" or np.isneginf(y_part[0]).any() and np.isnan(y_part[1]).any()


def test_legendre_deriv_equals_two_separate_calls_bitwise():
    mu = np.concatenate([[-1.0, 1.0], np.cos(np.linspace(0.01, 3.1, 301))])
    n = np.arange(specfun.MAX_ORDER + 1)[:, None]
    near_pole = np.abs(np.abs(mu) - 1.0) < 1e-12
    safe = np.where(near_pole, 0.0, mu)
    pn, pnm1 = special.eval_legendre(n, safe), special.eval_legendre(np.maximum(n - 1, 0), safe)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = n * (pnm1 - safe * pn) / (1.0 - safe * safe)
    pole = np.sign(mu) ** (n + 1) * n * (n + 1) / 2.0
    want = np.where(n == 0, 0.0, np.where(near_pole, pole, body))
    assert np.array_equal(_bits(specfun.legendre_p_deriv(n, mu)), _bits(want))
