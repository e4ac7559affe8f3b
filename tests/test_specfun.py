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
    (h,), (hp,) = specfun.sph_hankel1(1, x, derivative=True)
    assert np.allclose(h.real, np.sin(x) / x, atol=1e-14)
    assert np.allclose(h.imag, -np.cos(x) / x, atol=1e-14)
    assert np.allclose(hp.real, np.cos(x) / x - np.sin(x) / x**2, atol=1e-14)
    assert np.array_equal(specfun.sph_bessel_j_value(0, x), h.real)


def test_j_origin_limits():
    assert specfun.sph_bessel_j_value(0, 0.0) == 1.0
    assert specfun.sph_bessel_j_value(3, 0.0) == 0.0
    # scipy's scalars at the origin, bit for bit, and the same from an order array
    rows = specfun.sph_bessel_j_value(np.arange(4), 0.0)
    for n in range(4):
        got, want = specfun.sph_bessel_j_value(n, 0.0), special.spherical_jn(n, 0.0)
        assert type(got) is type(want) and np.array_equal(_bits(got), _bits(want)), n
        assert np.array_equal(_bits(rows[n]), _bits(want)), n


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 40])
def test_spherical_wronskian(n):
    # j_n(x) y_n'(x) - j_n'(x) y_n(x) = 1/x^2, on rows of one table
    x = np.linspace(0.5, 60.0, 97)
    h, hp = specfun.sph_hankel1(41, x, derivative=True)
    w = h[n].real * hp[n].imag - hp[n].real * h[n].imag
    assert np.allclose(w, 1.0 / x**2, rtol=1e-10)


def test_hankel_combination():
    x = np.array([0.3, 2.0, 11.5])
    h, hp = specfun.sph_hankel1(5, x, derivative=True)
    for n in range(5):
        j, jp = special.spherical_jn(n, x), special.spherical_jn(n, x, derivative=True)
        y, yp = special.spherical_yn(n, x), special.spherical_yn(n, x, derivative=True)
        assert np.allclose(h[n], j + 1j * y)
        assert np.allclose(hp[n], jp + 1j * yp)
    # the table alone, without derivatives, holds the same values
    h_only, none = specfun.sph_hankel1(5, x)
    assert none is None and np.array_equal(h_only, h)


def test_hankel_keeps_its_real_part_where_y_overflows():
    n = np.arange(specfun.MAX_ORDER + 1)[:, None]
    x = np.array([0.5, 1.0, 3.0, 50.0, 150.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, hp = specfun.sph_hankel1(n.size, x, derivative=True)
    with np.errstate(over="ignore", invalid="ignore"):
        j, jp = special.spherical_jn(n, x), special.spherical_jn(n, x, derivative=True)
        y, yp = special.spherical_yn(n, x), special.spherical_yn(n, x, derivative=True)
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
    h, _ = specfun.sph_hankel1(7, x)
    for n in (0, 1, 6):
        ref = (-1j) ** (n + 1) * np.exp(1j * x) / x
        tol = 1.2 * n * (n + 1) / (2.0 * x) + 1e-3
        assert abs(h[n] - ref) < tol * abs(ref)


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
    rows = specfun.legendre_p_deriv(specfun.legendre_p(np.arange(10)[:, None], x), x)
    for n in (1, 4, 9):
        dp = rows[n]
        fd = (specfun.legendre_p(n, x + eps) - specfun.legendre_p(n, x - eps)) / (2 * eps)
        assert np.allclose(dp, fd, atol=1e-7)


def test_legendre_deriv_pole_limit():
    # P_n'(+-1) = (+-1)^(n+1) n(n+1)/2
    x = np.array([1.0, -1.0])
    rows = specfun.legendre_p_deriv(specfun.legendre_p(np.arange(6)[:, None], x), x)
    for n in (1, 2, 5):
        assert rows[n, 0] == pytest.approx(n * (n + 1) / 2)
        assert rows[n, 1] == pytest.approx((-1.0) ** (n + 1) * n * (n + 1) / 2)


def test_domain_errors():
    with pytest.raises(DomainError, match="sph_bessel_j_value requires finite x >= 0"):
        specfun.sph_bessel_j_value(2, -1.0)
    with pytest.raises(DomainError, match="sph_hankel1 requires finite x > 0"):
        specfun.sph_hankel1(1, 0.0)
    with pytest.raises(DomainError):
        specfun.legendre_p(3, 1.5)
    with pytest.raises(DomainError, match="legendre_p_deriv requires"):
        specfun.legendre_p_deriv(np.ones(3), 1.5)
    with pytest.raises(DomainError):
        specfun.sph_bessel_j_value(-1, 1.0)
    with pytest.raises(DomainError):
        specfun.sph_bessel_j_value(2.5, 1.0)
    # a bool is an int to Python, but not an order, as a scalar or in an array
    for order in (True, np.array([True])):
        with pytest.raises(DomainError, match="^order must be an integer or integer array"):
            specfun.sph_bessel_j_value(order, 1.0)
    # a Hankel table has 1 to MAX_ORDER + 1 rows, counted by an integer
    refusal = f"^size must be an integer from 1 to {specfun.MAX_ORDER + 1}, got"
    for size in (0, -1, True, 2.5, np.array([3]), specfun.MAX_ORDER + 2):
        with pytest.raises(DomainError, match=refusal):
            specfun.sph_hankel1(size, 1.0)


@pytest.mark.parametrize("x", [0.0, -1.0, np.inf, np.array([1.0, np.nan])])
def test_hankel_names_itself_in_its_refusal(x):
    with pytest.raises(DomainError, match="^sph_hankel1 requires finite x > 0$"):
        specfun.sph_hankel1(2, x)


def test_order_cap():
    too_high = f"order {specfun.MAX_ORDER + 1} exceeds the supported cap"
    with pytest.raises(DomainError, match=too_high):
        specfun.sph_bessel_j_value(specfun.MAX_ORDER + 1, 1.0)
    for fn in (specfun.sph_bessel_j_value, specfun.legendre_p):
        with pytest.raises(DomainError, match=too_high):
            fn(np.array([[2], [specfun.MAX_ORDER + 1]]), 0.5)
    # the cap itself still works, and is the last row of the largest table
    assert np.isfinite(specfun.sph_bessel_j_value(specfun.MAX_ORDER, 50.0))
    h, hp = specfun.sph_hankel1(specfun.MAX_ORDER + 1, 50.0, derivative=True)
    assert h.shape == hp.shape == (specfun.MAX_ORDER + 1,)
    assert np.isfinite(h[-1].real) and np.isfinite(hp[-1].real)


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
    mu = np.concatenate([[-1.0, 1.0], np.cos(x)])
    for fn, arg in ((specfun.sph_bessel_j_value, np.concatenate([[0.0], x])),
                    (specfun.legendre_p, mu)):
        got = fn(np.array(orders)[:, None], arg)
        for row, n in enumerate(orders):
            assert np.array_equal(_bits(got[row]), _bits(fn(n, arg))), (fn, n)
    # row n of a table holds order n, whatever the table's size, bit for bit
    # as scipy's public per-order calls and the per-order Legendre pair formula
    size = max(orders) + 1
    # y_n overflows to -inf for n >> x, and its derivative turns to nan
    with np.errstate(over="ignore", invalid="ignore"):
        h, hp = specfun.sph_hankel1(size, x, derivative=True)
        dp = specfun.legendre_p_deriv(specfun.legendre_p(np.arange(size)[:, None], mu), mu)
        for n in orders:
            h_n, hp_n = specfun.sph_hankel1(n + 1, x, derivative=True)
            for got in (h[n], h_n[n]):
                assert np.array_equal(_bits(got), _bits(_public_hankel(n, x))), n
            for got in (hp[n], hp_n[n]):
                assert np.array_equal(_bits(got), _bits(_public_hankel(n, x, True))), n
            assert np.array_equal(_bits(dp[n]), _bits(_legendre_deriv_pair(n, mu))), n


def test_legendre_deriv_order_zero_is_positive_zero():
    mu = np.array([-1.0, -0.5, 0.0, 0.3, 1.0])
    for size in (1, 3):
        p = specfun.legendre_p(np.arange(size)[:, None], mu)
        dp = specfun.legendre_p_deriv(p, mu)
        assert dp.shape == p.shape
        assert np.array_equal(_bits(dp[0]), _bits(np.zeros_like(mu)))


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
    for fn in (specfun.sph_bessel_j_value, specfun.legendre_p):
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
    orders = np.arange(specfun.MAX_ORDER + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "j":
            want = special.spherical_jn(orders[:, None], _SCIPY_ARGS)
            x = _SCIPY_ARGS
            for n, arg, pick in (
                (orders[:, None], x, lambda a: a),  # a column of orders
                (orders, x[7], lambda a: a[:, 7]),  # a row of orders at one x
                (orders[:, None], x[None, 3:5], lambda a: a[:, 3:5]),  # a row of x
                (orders, x[:, None], lambda a: a.T),  # a row of orders against a column of x
            ):
                assert np.array_equal(_bits(specfun.sph_bessel_j_value(n, arg)), _bits(pick(want)))
            for n in (0, 1, 2, 37, specfun.MAX_ORDER):  # scalar orders
                assert np.array_equal(_bits(specfun.sph_bessel_j_value(n, x)), _bits(want[n]))
            return
        x = _SCIPY_ARGS[1:]
        ref = special.spherical_yn if kind == "y" else _public_hankel
        want = ref(orders[:, None], x), ref(orders[:, None], x, derivative=True)
        part = (lambda z: z.imag) if kind == "y" else (lambda z: z)
        for arg, pick in (
            (x, lambda a: a),  # a row of x
            (x[7], lambda a: a[:, 7]),  # one x
            (x[:, None], lambda a: a[:, :, None]),  # a column of x
            (x[None, 3:5], lambda a: a[:, None, 3:5]),  # a 1 x 2 array of x
        ):
            for got, ref_a in zip(specfun.sph_hankel1(orders.size, arg, derivative=True), want):
                assert np.array_equal(_bits(part(got)), _bits(pick(ref_a)))
        for size in (1, 2, 38):  # smaller tables hold the first rows
            for got, ref_a in zip(specfun.sph_hankel1(size, x, derivative=True), want):
                assert np.array_equal(_bits(part(got)), _bits(ref_a[:size]))
    # y_n, and the imaginary part of h_n, reach -inf and a nan derivative
    y_part = want if kind == "y" else [w.imag for w in want]
    assert np.isneginf(y_part[0]).any() and np.isnan(y_part[1]).any()


def _legendre_deriv_pair(n, mu):
    """P_n'(mu) with P_n and P_{n-1} from two scipy calls, the pole limit and +0.0 at order 0."""
    near_pole = np.abs(np.abs(mu) - 1.0) < 1e-12
    safe = np.where(near_pole, 0.0, mu)
    pn, pnm1 = special.eval_legendre(n, safe), special.eval_legendre(np.maximum(n - 1, 0), safe)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = n * (pnm1 - safe * pn) / (1.0 - safe * safe)
    pole = np.sign(mu) ** (n + 1) * n * (n + 1) / 2.0
    return np.where(n == 0, 0.0, np.where(near_pole, pole, body))


def test_legendre_deriv_equals_two_separate_calls_bitwise():
    mu = np.concatenate([[-1.0, 1.0], np.cos(np.linspace(0.01, 3.1, 301))])
    n = np.arange(specfun.MAX_ORDER + 1)[:, None]
    p = specfun.legendre_p(n, mu)
    assert np.array_equal(_bits(p), _bits(special.eval_legendre(n, mu)))
    want = _legendre_deriv_pair(n, mu)
    assert np.array_equal(_bits(specfun.legendre_p_deriv(p, mu)), _bits(want))
    # at one mu the rows are a vector
    p5 = specfun.legendre_p(n[:, 0], mu[5])
    assert np.array_equal(_bits(specfun.legendre_p_deriv(p5, mu[5])), _bits(want[:, 5]))
