"""Output checks made apart from the program.

Every check reads the data table and report that one scenario run wrote and
returns the reasons it rejects them (an empty list accepts). Reference
values come from ``numpy`` and ``scipy.special`` or from properties the
method must have; nothing here calls ``waveortho.oracles``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Tuple

import numpy as np
from scipy import special as sp

# Sphere tables against the partial-wave sum below (better than 1e-8 where
# the scenario passes) and the two sides of the optical theorem (1e-14 here).
SPHERE_TOL = 1e-6
OPTICAL_TOL = 1e-6
# Degree of the Legendre fit used to integrate |f|^2; the program's pattern
# has degree ceil(ka) + 8 <= 20 in this sweep, so the fit is exact.
FIT_DEGREE = 40
SYMMETRY_TOL = 1e-12


def _table(path: str) -> Dict[str, np.ndarray]:
    with open(path) as f:
        names = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {n: data[:, i] for i, n in enumerate(names)}


def _pattern(path: str):
    t = _table(path)
    return t["theta_rad"], t["re_amp"] + 1j * t["im_amp"]


def partial_wave_pattern(bc: str, ka: float, theta: np.ndarray) -> np.ndarray:
    """Sphere far field f(theta) of a unit plane wave, summed to ceil(ka) + 25."""
    n = np.arange(math.ceil(ka) + 26)
    deriv = bc == "hard"
    j = sp.spherical_jn(n, ka, derivative=deriv)
    y = sp.spherical_yn(n, ka, derivative=deriv)
    a = -j / (j + 1j * y)
    legendre = sp.eval_legendre(n[:, None], np.cos(theta)[None, :])
    return ((2 * n + 1) * a) @ legendre / (1j * ka)


def optical_theorem_gap(theta: np.ndarray, f: np.ndarray, k: float) -> float:
    """Relative gap between (4 pi/k) Im f(0) and 2 pi * integral |f|^2 sin(theta).

    The integral is taken exactly from a least-squares Legendre fit of the
    tabulated pattern: integral over mu of |sum c_n P_n|^2 = sum |c_n|^2 2/(2n+1).
    """
    n = np.arange(FIT_DEGREE + 1)
    basis = sp.eval_legendre(n[None, :], np.cos(theta)[:, None])
    c, *_ = np.linalg.lstsq(basis, f, rcond=None)
    scattered = 2.0 * np.pi * float(np.sum(np.abs(c) ** 2 * 2.0 / (2 * n + 1)))
    extinction = 4.0 * np.pi / k * f[0].imag
    return abs(extinction - scattered) / scattered


def check_sphere(cfg, table: str, report: dict, seen: dict) -> List[str]:
    theta, f = _pattern(table)
    ka, bc = float(cfg["ka"]), str(cfg["bc"])
    reasons = []
    ref = partial_wave_pattern(bc, ka, theta)
    rel = float(np.linalg.norm(f - ref) / np.linalg.norm(ref))
    if not rel <= SPHERE_TOL:
        reasons.append(f"pattern differs from partial-wave sum by {rel:.2e}")
    if theta[0] != 0.0:
        reasons.append("pattern table does not start at the forward direction")
    else:
        gap = optical_theorem_gap(theta, f, ka)
        if not gap <= OPTICAL_TOL:
            reasons.append(f"optical theorem sides differ by {gap:.2e}")
    return reasons


def check_strip(cfg, table: str, report: dict, seen: dict) -> List[str]:
    theta, p = _pattern(table)
    alpha = float(cfg["incidence"])
    a = np.abs(p)
    reasons = []
    if alpha == 0.0:
        grid_asym = float(np.max(np.abs(theta + theta[::-1])))
        asym = float(np.max(np.abs(p - p[::-1]))) / float(a.max())
        if grid_asym > SYMMETRY_TOL or not asym <= SYMMETRY_TOL:
            reasons.append(f"pattern not mirror-symmetric at normal incidence ({asym:.2e})")
    j = int(np.argmin(np.abs(theta - alpha)))
    # The sheet radiates the same magnitude at theta and pi - theta, so the
    # specular sample ties with its forward twin; either may be the argmax.
    if abs(theta[j] - alpha) > 1e-9 or not a[j] >= (1.0 - 1e-9) * a.max():
        reasons.append(f"peak at {theta[int(np.argmax(a))]:.4f} rad, specular {alpha:.4f} rad")
    return reasons


def check_born(cfg, table: str, report: dict, seen: dict) -> List[str]:
    m = report["metrics"]
    reasons = []
    first, second = m["err_vs_oracle_first"], m["err_vs_oracle_second-standard"]
    if not second < first:
        reasons.append(f"second order ({second:.3e}) not closer to the oracle than first ({first:.3e})")
    t = _table(table)
    if len(t["abs_amp"]) != int(cfg["ring_points"]) or not np.all(np.isfinite(t["abs_amp"])):
        reasons.append("ring field table has the wrong length or non-finite values")
    return reasons


def check_kernel_profile(cfg, table: str, report: dict, seen: dict) -> List[str]:
    with open(table, "rb") as f:
        data = f.read()
    key = tuple(sorted((k, str(v)) for k, v in cfg.items() if k not in ("out", "report_out")))
    if seen.setdefault(key, data) != data:
        return ["kernel profile written twice is not byte-identical"]
    return []


CHECKS = {
    "sphere": check_sphere,
    "strip": check_strip,
    "born": check_born,
    "kernel_profile": check_kernel_profile,
}


def check_operation(op, cfg, table: str, report_path: str,
                    seen: dict) -> Tuple[List[str], List[str]]:
    """Reasons to count one finished operation as failed: (expected, unexpected).

    Only a failure of the scenario check that ``op.known_fault`` names is
    expected; every other failed scenario check and every failed check of
    this module is unexpected.
    """
    with open(report_path) as f:
        report = json.load(f)
    expected, unexpected = [], []
    for c in report["checks"]:
        if not c["passed"]:
            reason = f"scenario check {c['name']} failed: {c['detail']}"
            (expected if c["name"] == op.known_fault else unexpected).append(reason)
    if op.check:
        unexpected += CHECKS[op.check](cfg, table, report, seen)
    return expected, unexpected
