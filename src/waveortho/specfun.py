"""Special functions shared by every solver module.

Spherical Bessel/Hankel functions with derivatives and Legendre polynomials,
evaluated by scipy.special with the domain checks and analytic origin limits
the rest of the package relies on, behind a stable local interface.

`_sp` is the package's one scipy.special handle (`oracles.sp` and `born.sp`
are the same object): scipy.special is imported at its first attribute
lookup, so a process that evaluates no special function (a spheroid, a strip
without its oracle, a plane-wave sphere, a refused config) never loads it.

The spherical Bessel kinds call the elementwise ufuncs `_spherical_jn` and
`_spherical_yn` of scipy.special._ufuncs, reached the same lazy way through
`_ufuncs`. The public `spherical_jn`/`spherical_yn` end in these same ufuncs
for real x >= 0, but since scipy 1.15 they first pass through a reflection
wrapper for negative x that costs several times the evaluation itself; the
domain checks here refuse a negative x, so the wrapper never has work to do.
The ufuncs are private to scipy (present since 0.18), so tests/test_specfun.py
holds j_n, y_n and h_n^(1) bit for bit to the public functions over every
order: a scipy upgrade that renames or changes them fails those tests.
sph_hankel1 validates its order and argument once and forms the derivatives
of both kinds together; sph_bessel_j_value gives j_n alone, for a caller that
needs no derivative.

An order n may be an integer or an integer array that broadcasts against the
argument x, so every order of a mode expansion comes from one call; the
values equal those of per-order calls bit for bit. A spherical Bessel kind with
its derivative, and a Legendre derivative, take orders n and n - 1 from one
scipy call. Orders are capped at MAX_ORDER; accuracy is validated by the test
suite up to arguments of about 1e3, which covers every scenario shipped.
"""

from __future__ import annotations

import importlib
from typing import Tuple, Union

import numpy as np

from .errors import DomainError

MAX_ORDER = 200

ArrayLike = Union[float, np.ndarray]
Order = Union[int, np.ndarray]


class _LazyModule:
    """A module imported at the first attribute lookup.

    Nothing is cached: every lookup reads the module anew, so a patch of one
    of its functions is seen by the next call through this handle.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


_sp = _LazyModule("scipy.special")
_ufuncs = _LazyModule("scipy.special._ufuncs")


def _check_order(n: Order) -> Order:
    """Validate a scalar or array order; every entry must lie in [0, MAX_ORDER]."""
    order = np.asarray(n)
    # a Python int past int64 is an object array; a bool is an int to Python, not an order
    if isinstance(n, bool) or (order.dtype.kind not in "iu" and not isinstance(n, int)):
        raise DomainError(f"order must be an integer or integer array, got {n!r}")
    if (order < 0).any():
        raise DomainError(f"order must be non-negative, got {np.min(order)}")
    if (order > MAX_ORDER).any():
        raise DomainError(
            f"order {np.max(order)} exceeds the supported cap {MAX_ORDER}"
        )
    return int(order) if order.ndim == 0 else order.astype(int)


def _pair(n: Order, m: Order, x: np.ndarray) -> np.ndarray:
    """Orders n and m stacked as rows 0 and 1, each broadcast against x."""
    return np.reshape([n, m], (2,) + (1,) * (x.ndim - np.ndim(n)) + np.shape(n))


def _with_derivative(fns, n: Order, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """f_n and f_n' = f_{n-1} - (n + 1) f_n / x (f_0' = -f_1) as scipy computes them.

    Row i of both results is the kind fns[i]; each kind takes orders n and
    n - 1 from one call, and the derivatives of every kind are formed together.
    At x = 0 the derivative is left to the caller (only j_n is defined there).
    """
    pair = _pair(n, np.where(n == 0, 1, n - 1), x)
    f, g = np.stack([fn(pair, x) for fn in fns], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return f, np.where(n == 0, -g, g - (n + 1) * f / x)


def _argument(x: ArrayLike, fn: str, origin: bool) -> np.ndarray:
    """x as a float array; every entry finite and > 0, or >= 0 where origin is allowed."""
    x = np.asarray(x, dtype=float)
    if not ((x >= 0 if origin else x > 0) & np.isfinite(x)).all():
        raise DomainError(f"{fn} requires finite x {'>=' if origin else '>'} 0")
    return x


def sph_bessel_j(n: Order, x: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Spherical Bessel function j_n(x) and its derivative j_n'(x).

    Defined for x >= 0; the origin uses the analytic limits j_0(0) = 1,
    j_n(0) = 0 for n >= 1, and correspondingly j_1'(0) = 1/3 and j_0'(0) = -0.0.
    """
    n, x = _check_order(n), _argument(x, "sph_bessel_j", origin=True)
    (j,), (jp,) = _with_derivative((_ufuncs._spherical_jn,), n, x)
    return j, np.where((x == 0) & (n > 0), np.where(n == 1, 1.0 / 3.0, 0.0), jp)[()]


def sph_bessel_j_value(n: Order, x: ArrayLike) -> np.ndarray:
    """j_n(x) alone, for x >= 0: the first value of sph_bessel_j, bit for bit."""
    n, x = _check_order(n), _argument(x, "sph_bessel_j_value", origin=True)
    return _ufuncs._spherical_jn(n, x)


def sph_bessel_y(n: Order, x: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Spherical Neumann function y_n(x) and derivative, for x > 0."""
    n, x = _check_order(n), _argument(x, "sph_bessel_y", origin=False)
    (y,), (yp,) = _with_derivative((_ufuncs._spherical_yn,), n, x)
    return y, yp


def sph_hankel1(n: Order, x: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Outgoing spherical Hankel function h_n^(1)(x) = j_n + i y_n, with derivative.

    Requires x > 0 (the Neumann part diverges at the origin). Where y_n
    overflows, the real part is still j_n.
    """
    n, x = _check_order(n), _argument(x, "sph_hankel1", origin=False)
    h, hp = _with_derivative((_ufuncs._spherical_jn, _ufuncs._spherical_yn), n, x)
    return _complex(*h), _complex(*hp)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im set part by part: re + 1j * im gives a NaN real part where im is -inf."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z[()]


def legendre_p(n: Order, x: ArrayLike) -> np.ndarray:
    """Legendre polynomial P_n(x) for |x| <= 1."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if (np.abs(x) > 1.0 + 1e-14).any():
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
    if (np.abs(x) > 1.0 + 1e-14).any():
        raise DomainError("legendre_p_deriv requires |x| <= 1")
    x = np.clip(x, -1.0, 1.0)
    near_pole = np.abs(np.abs(x) - 1.0) < 1e-12
    safe = np.where(near_pole, 0.0, x)
    pn, pnm1 = _sp.eval_legendre(_pair(n, np.maximum(n - 1, 0), safe), safe)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = n * (pnm1 - safe * pn) / (1.0 - safe * safe)
    pole_val = np.sign(x) ** (n + 1) * n * (n + 1) / 2.0
    return np.where(n == 0, 0.0, np.where(near_pole, pole_val, body))
