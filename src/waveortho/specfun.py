"""Special functions shared by every solver module.

Spherical Hankel functions with their derivatives, spherical Bessel values
and Legendre polynomials with their derivatives, evaluated by scipy.special
with the domain checks and analytic origin limits the rest of the package
relies on, behind a stable local interface.

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
holds j_n, h_n^(1) and h_n^(1)' bit for bit to the public functions over
every order: a scipy upgrade that renames or changes them fails those tests.

Every order of a mode expansion comes from one call. sph_hankel1(size, x)
returns the rows h_0 .. h_{size-1} from one call per kind, validated once,
and forms the derivatives from neighbouring rows by scipy's own recurrence
(f_n' = f_{n-1} - (n + 1) f_n / x, f_0' = -f_1); legendre_p_deriv forms P_n'
from the caller's rows of P. sph_bessel_j_value and legendre_p take an
integer order or an integer array that broadcasts against x, and equal
per-order calls bit for bit. Orders are capped at MAX_ORDER; accuracy is
validated by the test suite up to arguments of about 1e3, which covers every
scenario shipped.
"""

from __future__ import annotations

import importlib
from typing import Optional, Tuple, Union

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


def _argument(x: ArrayLike, fn: str, origin: bool) -> np.ndarray:
    """x as a float array; every entry finite and > 0, or >= 0 where origin is allowed."""
    x = np.asarray(x, dtype=float)
    if not ((x >= 0 if origin else x > 0) & np.isfinite(x)).all():
        raise DomainError(f"{fn} requires finite x {'>=' if origin else '>'} 0")
    return x


def sph_bessel_j_value(n: Order, x: ArrayLike) -> np.ndarray:
    """Spherical Bessel function j_n(x) for x >= 0; j_0(0) = 1 and j_n(0) = 0 for n >= 1."""
    n, x = _check_order(n), _argument(x, "sph_bessel_j_value", origin=True)
    return _ufuncs._spherical_jn(n, x)


def _rows_derivative(f: np.ndarray, n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f_n' = f_{n-1} - (n + 1) f_n / x (DLMF 10.51.2) and f_0' = -f_1 from rows f_0, f_1, ..."""
    return np.concatenate([-f[1:2], f[:-1] - (n[1:] + 1) * f[1:] / x])


def sph_hankel1(size: int, x: ArrayLike,
                derivative: bool = False) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Outgoing spherical Hankel functions h_n^(1)(x) = j_n + i y_n for n < size.

    Returns (h, h') with row n of each holding order n at every x, and h'
    None unless derivative is set. Requires x > 0 (the Neumann part diverges
    at the origin). Where y_n overflows, the real part is still j_n.
    """
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)) \
            or not 0 < size <= MAX_ORDER + 1:
        raise DomainError(f"size must be an integer from 1 to {MAX_ORDER + 1}, got {size!r}")
    x = _argument(x, "sph_hankel1", origin=False)
    # h_0' = -h_1 needs order 1 even for a one-row table
    n = np.arange(max(size, 2) if derivative else size).reshape((-1,) + (1,) * x.ndim)
    j, y = _ufuncs._spherical_jn(n, x), _ufuncs._spherical_yn(n, x)
    if not derivative:
        return _complex(j, y), None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        jp, yp = _rows_derivative(j, n, x), _rows_derivative(y, n, x)
    return _complex(j[:size], y[:size]), _complex(jp[:size], yp[:size])


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


def legendre_p_deriv(p: np.ndarray, x: ArrayLike) -> np.ndarray:
    """Derivatives P_n'(x) on [-1, 1], finite at the endpoints, from rows p = P_0(x), P_1(x), ...

    Row n follows from rows n - 1 and n of p by the recurrence
    (1 - x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x)) (DLMF 14.10.5); at x = +-1
    the limit (+-1)^(n+1) n(n+1)/2 applies. Row 0 is exactly +0.0.
    """
    x = np.asarray(x, dtype=float)
    if (np.abs(x) > 1.0 + 1e-14).any():
        raise DomainError("legendre_p_deriv requires |x| <= 1")
    n = np.arange(1, len(p)).reshape((-1,) + (1,) * x.ndim)
    near_pole = np.abs(np.abs(x) - 1.0) < 1e-12
    safe = np.where(near_pole, 0.0, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = n * (p[:-1] - safe * p[1:]) / (1.0 - safe * safe)
    pole_val = np.sign(x) ** (n + 1) * n * (n + 1) / 2.0
    return np.concatenate([np.zeros_like(p[:1]), np.where(near_pole, pole_val, body)])
