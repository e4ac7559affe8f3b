"""Special functions shared by every solver module.

Spherical Bessel/Hankel functions with derivatives, Legendre polynomials,
and the order-zero cylindrical Hankel function, evaluated by scipy.special with
the domain checks and analytic origin limits the rest of the package relies
on, behind a stable local interface.

An order n may be an integer or an integer array that broadcasts against the
argument x, so every order of a mode expansion comes from one call; the
values equal those of per-order calls bit for bit. Orders are capped at
MAX_ORDER; accuracy is validated by the test suite up to arguments of about
1e3, which covers every scenario shipped with the package.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np
from scipy import special as _sp

from .errors import DomainError

MAX_ORDER = 200

ArrayLike = Union[float, np.ndarray]
Order = Union[int, np.ndarray]


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


def sph_bessel_j(n: Order, x: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Spherical Bessel function j_n(x) and its derivative j_n'(x).

    Defined for x >= 0; the origin uses the analytic limits j_0(0) = 1,
    j_n(0) = 0 for n >= 1, and correspondingly j_1'(0) = 1/3.
    """
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise DomainError("sph_bessel_j requires finite x >= 0")
    return _sp.spherical_jn(n, x), _sp.spherical_jn(n, x, derivative=True)


def sph_bessel_y(n: Order, x: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Spherical Neumann function y_n(x) and derivative, for x > 0."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise DomainError("sph_bessel_y requires finite x > 0")
    return _sp.spherical_yn(n, x), _sp.spherical_yn(n, x, derivative=True)


def sph_hankel1(n: Order, x: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Outgoing spherical Hankel function h_n^(1)(x) = j_n + i y_n, with derivative.

    Requires x > 0 (the Neumann part diverges at the origin).
    """
    j, jp = sph_bessel_j(n, x)
    y, yp = sph_bessel_y(n, x)
    return j + 1j * y, jp + 1j * yp


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
    pn = _sp.eval_legendre(n, safe)
    pnm1 = _sp.eval_legendre(np.maximum(n - 1, 0), safe)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = n * (pnm1 - safe * pn) / (1.0 - safe * safe)
    pole_val = np.sign(x) ** (n + 1) * n * (n + 1) / 2.0
    return np.where(n == 0, 0.0, np.where(near_pole, pole_val, body))


def cyl_hankel1_0(x: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """H_0^(1)(x) and its derivative -H_1^(1)(x), for x > 0.

    This is the radial kernel of the two-dimensional free-space Green's
    function, so the derivative is provided for normal-derivative evaluations.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise DomainError("cyl_hankel1_0 requires finite x > 0")
    h0 = _sp.j0(x) + 1j * _sp.y0(x)
    h1 = _sp.j1(x) + 1j * _sp.y1(x)
    return h0, -h1
