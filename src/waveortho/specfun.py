"""Special functions shared by every solver module.

Spherical Bessel/Hankel functions with derivatives and Legendre polynomials,
evaluated by scipy.special with the domain checks and analytic origin limits
the rest of the package relies on, behind a stable local interface.

`_sp` is the package's one scipy.special handle (`oracles.sp` and `born.sp`
are the same object): scipy.special is imported at its first attribute
lookup, so a process that evaluates no special function (a spheroid, a strip
without its oracle, a plane-wave sphere, a refused config) never loads it.

An order n may be an integer or an integer array that broadcasts against the
argument x, so every order of a mode expansion comes from one call; the
values equal those of per-order calls bit for bit. A spherical Bessel kind with
its derivative, and a Legendre derivative, take orders n and n - 1 from one
scipy call. Orders are capped at MAX_ORDER; accuracy is validated by the test
suite up to arguments of about 1e3, which covers every scenario shipped.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .errors import DomainError

MAX_ORDER = 200

ArrayLike = Union[float, np.ndarray]
Order = Union[int, np.ndarray]


class _SciPySpecial:
    """scipy.special, imported at the first attribute lookup.

    Nothing is cached: every lookup reads scipy.special anew, so a patch of a
    scipy.special function is seen by the next call through this handle.
    """

    def __getattr__(self, name):
        import scipy.special

        return getattr(scipy.special, name)


_sp = _SciPySpecial()


def _check_order(n: Order) -> Order:
    """Validate a scalar or array order; every entry must lie in [0, MAX_ORDER]."""
    order = np.asarray(n)
    if order.dtype.kind not in "iu" and not isinstance(n, int):
        raise DomainError(f"order must be an integer or integer array, got {n!r}")
    if np.any(order < 0):
        raise DomainError(f"order must be non-negative, got {np.min(order)}")
    if np.any(order > MAX_ORDER):
        raise DomainError(
            f"order {np.max(order)} exceeds the supported cap {MAX_ORDER}"
        )
    return int(order) if order.ndim == 0 else order.astype(int)


def _stacked(fn, n: Order, m: Order, x: np.ndarray) -> np.ndarray:
    """fn at orders n and m, each broadcast against x, from one call: rows 0 and 1."""
    return fn(np.reshape([n, m], (2,) + (1,) * (x.ndim - np.ndim(n)) + np.shape(n)), x)


def _with_derivative(fn, n: Order, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """f_n and f_n' = f_{n-1} - (n + 1) f_n / x (f_0' = -f_1) as scipy computes them, x = 0 too."""
    f, g = _stacked(fn, n, np.where(n == 0, 1, n - 1), x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.where(n == 0, -g, g - (n + 1) * f / x)
    return f, np.where((x == 0) & (n > 0), np.where(n == 1, 1.0 / 3.0, 0.0), d)[()]


def sph_bessel_j(n: Order, x: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Spherical Bessel function j_n(x) and its derivative j_n'(x).

    Defined for x >= 0; the origin uses the analytic limits j_0(0) = 1,
    j_n(0) = 0 for n >= 1, and correspondingly j_1'(0) = 1/3 and j_0'(0) = -0.0.
    """
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise DomainError("sph_bessel_j requires finite x >= 0")
    return _with_derivative(_sp.spherical_jn, n, x)


def sph_bessel_y(n: Order, x: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Spherical Neumann function y_n(x) and derivative, for x > 0."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise DomainError("sph_bessel_y requires finite x > 0")
    return _with_derivative(_sp.spherical_yn, n, x)


def sph_hankel1(n: Order, x: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Outgoing spherical Hankel function h_n^(1)(x) = j_n + i y_n, with derivative.

    Requires x > 0 (the Neumann part diverges at the origin). Where y_n
    overflows, the real part is still j_n.
    """
    j, jp = sph_bessel_j(n, x)
    y, yp = sph_bessel_y(n, x)
    return _complex(j, y), _complex(jp, yp)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im set part by part: re + 1j * im gives a NaN real part where im is -inf."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z[()]


def legendre_p(n: Order, x: ArrayLike) -> np.ndarray:
    """Legendre polynomial P_n(x) for |x| <= 1."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise DomainError("legendre_p requires |x| <= 1")
    return _sp.eval_legendre(n, np.clip(x, -1.0, 1.0))


def legendre_p_deriv(n: Order, x: ArrayLike) -> np.ndarray:
    """Derivative P_n'(x) on [-1, 1], finite at the endpoints.

    Away from the poles this uses the standard recurrence
    P_n'(x) = n (P_{n-1}(x) - x P_n(x)) / (1 - x^2); at x = +-1 the limit
    (+-1)^(n+1) n(n+1)/2 applies. Order 0 gives exactly +0.0.
    """
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise DomainError("legendre_p_deriv requires |x| <= 1")
    x = np.clip(x, -1.0, 1.0)
    near_pole = np.abs(np.abs(x) - 1.0) < 1e-12
    safe = np.where(near_pole, 0.0, x)
    pn, pnm1 = _stacked(_sp.eval_legendre, n, np.maximum(n - 1, 0), safe)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = n * (pnm1 - safe * pn) / (1.0 - safe * safe)
    pole_val = np.sign(x) ** (n + 1) * n * (n + 1) / 2.0
    return np.where(n == 0, 0.0, np.where(near_pole, pole_val, body))
