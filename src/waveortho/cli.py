"""Scenario runner: named experiments, flat config, deterministic artifacts.

Usage: waveortho <scenario> [--key value ...] [--config path]

Scenarios: sphere, strip, slit, spheroid, born, kernel-profile, riemann-decay.
Config values come from shipped defaults, then an optional flat key=value
file, then command-line overrides (which win). Angles are radians in files;
command-line keys may carry a -deg suffix instead. Exit code is 0 exactly
when every check the scenario declares passes its configured threshold.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import born as brn
from . import geometry as geo
from . import method as mth
from . import oracles as orc
from .errors import SingularSystemError, UsageError

# ---------------------------------------------------------------------------
# Report plumbing


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class RunReport:
    scenario: str
    config: Dict[str, object]
    residuals: Dict[str, Optional[float]] = field(default_factory=dict)
    epsilon: Optional[float] = None
    metrics: Dict[str, object] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    wall_clock_s: float = 0.0
    outputs: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "config": {k: _jsonable(v) for k, v in self.config.items()},
            "residuals": self.residuals,
            "epsilon": self.epsilon,
            "metrics": {k: _jsonable(v) for k, v in self.metrics.items()},
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
            "warnings": self.warnings,
            "wall_clock_s": self.wall_clock_s,
            "outputs": self.outputs,
        }

    def render(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for k in sorted(self.config):
            lines.append(f"  config {k} = {self.config[k]}")
        for name, r in self.residuals.items():
            shown = "n/a" if r is None else f"{r:.6e}"
            lines.append(f"  residual[{name}] = {shown}")
        if self.epsilon is not None:
            lines.append(f"  epsilon = {self.epsilon:.6e}")
        for k in sorted(self.metrics):
            v = self.metrics[k]
            shown = f"{v:.6e}" if isinstance(v, float) else str(v)
            lines.append(f"  metric {k} = {shown}")
        for c in self.checks:
            lines.append(f"  check {c.name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        lines.append(f"  wall clock: {self.wall_clock_s:.2f} s")
        for p in self.outputs:
            lines.append(f"  wrote {p}")
        return "\n".join(lines)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


# ---------------------------------------------------------------------------
# Output files: fixed column names, 17 significant digits, atomic writes


def _sig(x: float) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".waveortho-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_columns(path: str, fmt: str, columns: Dict[str, np.ndarray]) -> None:
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    if fmt == "csv":
        rows = [",".join(names)]
        for i in range(arrays[0].shape[0] if arrays else 0):
            rows.append(",".join(_sig(a[i]) for a in arrays))
        _atomic_write(path, "\n".join(rows) + "\n")
    elif fmt == "json":
        payload = {n: [float(x) for x in a] for n, a in zip(names, arrays)}
        _atomic_write(path, json.dumps(payload, indent=1) + "\n")
    else:
        raise UsageError(f"unknown output format {fmt!r}; expected csv or json")


def emit_pattern(path: str, fmt: str, pattern: mth.FarFieldPattern) -> None:
    amp = pattern.amplitude
    _emit_columns(
        path,
        fmt,
        {
            "theta_rad": pattern.angles,
            "re_amp": amp.real,
            "im_amp": amp.imag,
            "abs_amp": np.abs(amp),
        },
    )


def emit_profile(path: str, fmt: str, distance: np.ndarray, abs_phi: np.ndarray) -> None:
    _emit_columns(path, fmt, {"distance": distance, "abs_phi": abs_phi})


def emit_history(path: str, fmt: str, residuals: Sequence[float]) -> None:
    steps = np.arange(len(residuals), dtype=float)
    _emit_columns(path, fmt, {"step": steps, "residual": np.asarray(residuals, dtype=float)})


def emit_report(path: str, report: RunReport) -> None:
    _atomic_write(path, json.dumps(report.to_dict(), indent=1) + "\n")


# ---------------------------------------------------------------------------
# Configuration


_COMMON_DEFAULTS: Dict[str, object] = {"out": "", "format": "csv", "report_out": ""}

DEFAULTS: Dict[str, Dict[str, object]] = {
    "sphere": {
        "ka": 5.0,
        "bc": "soft",
        "basis": "spherical-modes",
        "basis_size": 0,
        "quad_resolution": 0,
        "solver": "diagonal",
        "lambda": 0.0,
        "angles": 181,
        "far_tol": 1e-8,
        "pw_polar_list": "4,6,8",
        "history_out": "",
    },
    "strip": {
        "kd": 16.0 * math.pi,
        "bc": "hard",
        "basis": "plane-waves",
        "basis_size": 0,
        "quad_resolution": 0,
        "solver": "diagonal",
        "lambda": 0.0,
        "angles": 181,
        "incidence": 0.0,
        "with_bem": True,
        "bem_nodes": 0,
        "kirchhoff_corr_min": 0.999,
        "null_step_tol": 1,
        "history_out": "",
    },
    "spheroid": {
        "ka": 5.0,
        "c_over_a": 2.0,
        "bc": "hard",
        "n_sources": 8,
        "quad_resolution": 0,
        "lambda": 0.0,
        "angles": 181,
        "residual_max": 0.2,
        "ratio_max": 3.0,
        "history_out": "",
    },
    "born": {
        "k": 1.0,
        "amplitude": 0.5,
        "width": 0.3,
        "half_extent": 0.9,
        "h": 0.06,
        "ring_radius": 0.0,
        "ring_points": 16,
        "alt_second_reading": False,
        "ls_mode": "auto",
        "first_tol": 1e-12,
    },
    "kernel-profile": {
        "ka": 10.0,
        "bc": "soft",
        "basis_size": 0,
        "quad_resolution": 0,
        "anchor": 0,
    },
    "riemann-decay": {
        "ka_list": "10,20,40",
        "bc": "hard",
        "separation": 0.2,
        "quad_resolution": 0,
        "decay_ratio_min": 2.0,
    },
}
DEFAULTS["slit"] = dict(DEFAULTS["strip"])
for _d in DEFAULTS.values():
    _d.update(_COMMON_DEFAULTS)


# smallest accepted value of integer keys, with the reason
_INT_MINIMA: Dict[str, Tuple[int, str]] = {
    "angles": (2, "a far-field table compares at least two directions"),
    "ring_points": (1, "the ring field table needs at least one point"),
}


def _coerce(scenario: str, key: str, raw: object, default: object) -> object:
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if isinstance(default, bool):
            low = text.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(text)
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(text)
            return value
    except ValueError:
        raise UsageError(
            f"bad value {raw!r} for config key '{key}' of scenario '{scenario}'"
        ) from None
    return text


def parse_config_file(path: str) -> Dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; blank lines skipped."""
    out: Dict[str, str] = {}
    try:
        with open(path) as f:
            for ln, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected 'key = value', got {line!r}")
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}") from None
    return out


def build_config(
    scenario: str,
    file_entries: Optional[Dict[str, str]] = None,
    overrides: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """Merge defaults, config file, and CLI overrides (in that precedence).

    Override keys ending in '_deg' are converted to radians when the base
    key is a float-valued angle slot; files always carry radians.
    """
    if scenario not in DEFAULTS:
        raise UsageError(
            f"unknown scenario {scenario!r}; expected one of: " + ", ".join(sorted(DEFAULTS))
        )
    defaults = DEFAULTS[scenario]
    cfg = dict(defaults)
    for source, allow_deg in ((file_entries, False), (overrides, True)):
        if not source:
            continue
        for key, raw in source.items():
            key = key.replace("-", "_")
            value = raw
            if allow_deg and key.endswith("_deg"):
                base = key[: -len("_deg")]
                if base in defaults and isinstance(defaults[base], float):
                    key, value = base, math.radians(_coerce(scenario, key, raw, 0.0))
            if key not in defaults:
                raise UsageError(f"unknown config key '{key}' for scenario '{scenario}'")
            cfg[key] = _coerce(scenario, key, value, defaults[key])
    for key, (least, reason) in _INT_MINIMA.items():
        if key in cfg and cfg[key] < least:
            raise UsageError(f"{key} must be >= {least}: {reason}")
    if "solver" in cfg:
        _parse_solver(str(cfg["solver"]))
    return cfg


# ---------------------------------------------------------------------------
# Shared solve plumbing


def _relative_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _normalized_corr(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(abs(np.vdot(b, a)) / (na * nb))


def _parse_solver(text: str) -> Tuple[str, int]:
    if text == "diagonal" or text == "galerkin":
        return text, 0
    if text.startswith("iterate:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad solver spec {text!r}") from None
        if n < 1:
            raise UsageError("iterate step count must be >= 1")
        return "iterate", n
    raise UsageError(f"unknown solver {text!r}; expected diagonal, galerkin, or iterate:N")


def _build_system(
    basis: mth.BasisFamily,
    bc: mth.BoundaryCondition,
    s: geo.Surface,
    u0: Optional[mth.IncidentField] = None,
) -> Tuple[mth.BasisTraces, mth.GramSystem]:
    """Basis traces on s and their Gram system, projected onto u0 when given."""
    traces = mth.eval_basis_trace(basis, bc, s)
    sys = mth.assemble_gram(traces, s)
    if u0 is not None:
        sys = sys.with_incident(mth.project_incident(traces, s, u0, bc))
    return traces, sys


def _solve_all(
    s: geo.Surface,
    traces: mth.BasisTraces,
    u0: mth.IncidentField,
    sys: mth.GramSystem,
    lam: float,
    report: RunReport,
    solver: str = "",
    refine: bool = True,
):
    """Diagonal, Galerkin, and iterated solves with per-solver residuals.

    Returns (v, history): v is the spectrum the solver spec selects, recorded
    as the solver_used metric (the diagonal one, unrecorded, when solver is
    empty). A singular Galerkin system downgrades to a warning; when Galerkin
    is the one selected it also fails solver_available and the diagonal
    spectrum takes its place. A Galerkin residual above the diagonal one is
    flagged as a residual-ordering violation. refine=False skips the
    iteration and its checks for configurations where the iteration is known
    non-contractive, and returns the diagonal spectrum.
    """
    name, steps = _parse_solver(solver or "diagonal")
    iterate_steps = steps or 50
    spectra: Dict[str, Optional[mth.DensitySpectrum]] = {}
    v_diag = mth.solve_diagonal(sys)
    spectra["diagonal"] = v_diag
    report.epsilon = mth.epsilon_diagnostic(sys, v_diag)
    report.residuals["diagonal"] = mth.boundary_residual(s, traces, u0, v_diag)
    try:
        v_gal = mth.solve_galerkin(sys, lam=lam)
        spectra["galerkin"] = v_gal
        report.residuals["galerkin"] = mth.boundary_residual(s, traces, u0, v_gal)
    except SingularSystemError as e:
        spectra["galerkin"] = None
        report.residuals["galerkin"] = None
        report.warnings.append(f"galerkin solve unavailable: {e}")
        if name == "galerkin":
            report.checks.append(
                Check("solver_available", False, f"galerkin selected but unavailable: {e}")
            )
            solver, name = "diagonal", "diagonal"

    r_d, r_g = report.residuals["diagonal"], report.residuals["galerkin"]
    if r_g is not None and r_g > r_d * (1.0 + 1e-9) + 1e-12:
        report.warnings.append(
            f"residual ordering violated: galerkin {r_g:.3e} exceeds diagonal {r_d:.3e}"
        )
    # one eigendecomposition: rho = 1 - margin is iteration_spectral_radius
    margin = mth.iteration_contraction_margin(sys)
    rho = 1.0 - margin
    report.metrics["iteration_spectral_radius"] = rho
    report.metrics["iteration_contraction_margin"] = margin
    if not refine:
        if margin <= 0.0:
            report.warnings.append(
                f"refinement not contractive here (spectral radius {rho:.3e}); skipped"
            )
        return v_diag, []

    v_it, history = mth.refine_iterate(sys, iterate_steps)
    spectra["iterate"] = v_it
    report.residuals["iterate"] = mth.boundary_residual(s, traces, u0, v_it)
    step1 = mth.refine_iterate(sys, 1)[0]
    report.checks.append(
        Check(
            "iterate_step1_equals_diagonal",
            bool(np.array_equal(step1.v, v_diag.v)),
            "first refinement step must reproduce the diagonal solve bitwise",
        )
    )
    hist = np.asarray(history)
    # allowance for rounding jitter once the residual hits its floor
    noninc = bool(np.all(hist[1:] <= hist[:-1] * (1.0 + 1e-12) + 1e-14 * hist[0]))
    report.checks.append(
        Check(
            "residual_history_nonincreasing",
            noninc,
            f"{len(history)} entries, first {hist[0]:.3e}, last {hist[-1]:.3e}",
        )
    )
    if margin > 0.0 and spectra["galerkin"] is not None and lam == 0.0:
        # run the contraction out to its limit; 50 steps need not be enough
        # when the spectral radius is close to 1
        n_need = int(math.log(1e-9) / math.log1p(-margin)) + 1 if margin < 1.0 else 0
        n_limit = max(iterate_steps, min(2_000_000, n_need))
        v_lim = mth.refine_power(sys, n_limit)
        gap = float(
            np.linalg.norm(v_lim.v - spectra["galerkin"].v)
            / max(np.linalg.norm(spectra["galerkin"].v), 1e-300)
        )
        detail = (
            f"relative gap {gap:.3e} after {n_limit} steps "
            f"at spectral radius {rho:.10f}"
        )
        if gap > 1e-6 and n_need > n_limit:
            detail += f"; full contraction needs ~{n_need:.0e} steps"
        report.checks.append(
            Check(
                "iterate_limit_matches_galerkin",
                gap <= 1e-6,
                detail,
            )
        )
    if solver:
        report.metrics["solver_used"] = solver
    return spectra[name], history


def _write_table(cfg: Dict[str, object], report: RunReport, key: str, emit, *data) -> None:
    """Write a table to the path under config key `key`, if one is set."""
    if cfg.get(key):
        emit(str(cfg[key]), str(cfg["format"]), *data)
        report.outputs.append(str(cfg[key]))


# ---------------------------------------------------------------------------
# Sphere scenario (series comparison, and the plane-wave Im diagnostic)


def _sphere_modes(
    cfg: Dict[str, object], ka: float
) -> Tuple[mth.SphericalModeBasis, geo.Surface]:
    """Spherical-mode basis on the unit sphere, with the automatic sizes.

    The highest mode order defaults to ceil(ka) + 8 and the quadrature
    resolution to that order plus 8, at least 32.
    """
    n_order = int(cfg["basis_size"]) or (math.ceil(ka) + 8)
    res = int(cfg["quad_resolution"]) or max(32, n_order + 8)
    basis = mth.SphericalModeBasis(max_order=n_order, k=ka)
    return basis, geo.make_surface(geo.Sphere(1.0), res)


def run_sphere(cfg: Dict[str, object], report: RunReport) -> None:
    ka = float(cfg["ka"])
    if ka <= 0:
        raise UsageError("ka must be positive")
    k = ka  # unit radius
    bc = mth.BoundaryCondition.from_string(str(cfg["bc"]))
    # propagation along +z so the polar angle of the pattern is measured
    # from the forward direction, matching the series oracle
    u0 = mth.IncidentField(direction=np.array([0.0, 0.0, 1.0]), k=k)

    basis_kind = str(cfg["basis"])
    if basis_kind == "spherical-modes":
        basis, s = _sphere_modes(cfg, ka)
        traces, sys = _build_system(basis, bc, s, u0)
        v, history = _solve_all(
            s, traces, u0, sys, float(cfg["lambda"]), report, str(cfg["solver"])
        )
        angles = np.linspace(0.0, np.pi, int(cfg["angles"]))
        pattern = mth.far_field(basis, v, angles)
        _, mie_ff, _ = orc.mie_series(bc, ka, angles)
        rel = _relative_l2(pattern.amplitude, mie_ff.amplitude)
        corr = _normalized_corr(pattern.amplitude, mie_ff.amplitude)
        report.metrics["far_rel_l2_vs_mie"] = rel
        report.metrics["far_corr_vs_mie"] = corr
        report.checks.append(
            Check(
                "far_field_matches_mie",
                rel <= float(cfg["far_tol"]),
                f"relative L2 {rel:.3e} <= {float(cfg['far_tol']):.1e}",
            )
        )
        _write_table(cfg, report, "out", emit_pattern, pattern)
        _write_table(cfg, report, "history_out", emit_history, history)
    elif basis_kind == "plane-waves":
        if bc is not mth.BoundaryCondition.HARD:
            report.warnings.append(
                "imaginary-part diagnostic is reported for the hard condition"
            )
        polar_counts = [int(x) for x in str(cfg["pw_polar_list"]).split(",") if x.strip()]
        if len(polar_counts) < 2:
            raise UsageError("pw_polar_list needs at least two grid sizes")
        ratios = []
        for npol in polar_counts:
            basis = mth.PlaneWaveBasis(directions=geo.gauss_midpoint_directions(npol), k=k)
            res = int(cfg["quad_resolution"]) or (npol + 4)
            s = geo.odd_azimuth_sphere_surface(1.0, res)
            traces, sys = _build_system(basis, bc, s, u0)
            v = mth.solve_diagonal(sys)
            ratio = float(np.max(np.abs(v.v.imag)) / np.max(np.abs(v.v)))
            ratios.append(ratio)
            report.metrics[f"im_ratio_npolar_{npol}"] = ratio
        # refinement diagnostics on the finest grid
        _solve_all(s, traces, u0, sys, float(cfg["lambda"]), report, refine=False)
        decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
        report.checks.append(
            Check(
                "im_ratio_decreases_under_refinement",
                decreasing,
                "ratios " + ", ".join(f"{r:.3e}" for r in ratios),
            )
        )
        if cfg["out"] or cfg["history_out"]:
            report.warnings.append(
                "plane-wave diagnostic writes no data table; use report_out"
            )
    else:
        raise UsageError(
            "sphere scenario supports basis = spherical-modes or plane-waves"
        )


# ---------------------------------------------------------------------------
# Strip and slit scenarios


def _strip_direction_angles(kd: float, basis_size: int) -> np.ndarray:
    """Midpoint grid in sin(theta) over the visible band, 4 per wavelength."""
    m = basis_size or int(np.ceil(4.0 * kd / (2.0 * np.pi)))
    sines = -1.0 + (np.arange(m) + 0.5) * (2.0 / m)
    return np.arcsin(np.clip(sines, -1.0, 1.0))


def _strip_pattern(
    th_grid: np.ndarray, th_dirs: np.ndarray, v: np.ndarray, kd: float, bc: mth.BoundaryCondition
) -> np.ndarray:
    """Far pattern of the solved sheet density: band-limited sinc sum.

    The hard condition radiates through a dipole sheet, hence the extra
    obliquity cosine.
    """
    arg = 0.5 * kd * (np.sin(th_grid)[:, None] - np.sin(th_dirs)[None, :])
    p = np.sinc(arg / np.pi) @ v
    if bc is mth.BoundaryCondition.HARD:
        p = p * np.cos(th_grid)
    return p


def _first_null_index(a: np.ndarray, th: np.ndarray, side: int) -> Optional[int]:
    """First local minimum of |pattern| below 20% of peak, walking out from the peak."""
    th_peak = th[int(np.argmax(a))]
    sel = th > th_peak if side > 0 else th < th_peak
    idx = np.where(sel)[0]
    if side < 0:
        idx = idx[::-1]
    peak = a.max()
    for j in range(1, len(idx) - 1):
        i0, i1, i2 = idx[j - 1], idx[j], idx[j + 1]
        if a[i1] < a[i0] and a[i1] <= a[i2] and a[i1] < 0.2 * peak:
            return int(i1)
    return None


def _half_power_steps(a: np.ndarray) -> int:
    """Main-lobe width as a count of grid steps between half-power crossings."""
    ipk = int(np.argmax(a))
    half = a[ipk] / math.sqrt(2.0)
    hi = ipk
    while hi + 1 < len(a) and a[hi] > half:
        hi += 1
    lo = ipk
    while lo - 1 >= 0 and a[lo] > half:
        lo -= 1
    return hi - lo


def _run_strip_pipeline(
    cfg: Dict[str, object], report: RunReport, bc_solve: mth.BoundaryCondition
) -> None:
    kd = float(cfg["kd"])
    if kd <= 0:
        raise UsageError("kd must be positive")
    if str(cfg["basis"]) != "plane-waves":
        raise UsageError(f"{report.scenario} scenario supports basis = plane-waves")
    k = 2.0 * np.pi  # unit wavelength
    d = kd / k

    alpha = float(cfg["incidence"])
    if not abs(alpha) < 0.5 * math.pi:
        raise UsageError("incidence angle must lie strictly inside (-pi/2, pi/2)")
    th_d = _strip_direction_angles(kd, int(cfg["basis_size"]))
    dirs = np.column_stack([np.sin(th_d), np.cos(th_d)])
    basis = mth.PlaneWaveBasis(directions=dirs, k=k)
    res = int(cfg["quad_resolution"]) or max(32, int(np.ceil(8.0 * kd / (2.0 * np.pi))))
    s = geo.make_surface(geo.Strip(width=d), res)
    u0 = mth.IncidentField(direction=np.array([math.sin(alpha), -math.cos(alpha)]), k=k)
    traces, sys = _build_system(basis, bc_solve, s, u0)
    v, history = _solve_all(
        s, traces, u0, sys, float(cfg["lambda"]), report, str(cfg["solver"])
    )

    # Aperture density against the geometric-optics field: correlate the
    # normal-trace spectrum samples with the Kirchhoff sinc of the aperture,
    # copied to unit stride (BLAS sums a strided .real view in another order).
    sinc_ref = orc.kirchhoff_pattern(kd, alpha, th_d).amplitude.real.copy()
    density = np.cos(th_d) * v.v if bc_solve is mth.BoundaryCondition.HARD else -v.v
    corr = _normalized_corr(density, sinc_ref.astype(complex))
    factor = complex(np.vdot(sinc_ref, density) / np.vdot(sinc_ref, sinc_ref))
    report.metrics["kirchhoff_corr"] = corr
    report.metrics["kirchhoff_factor_abs"] = abs(factor)
    report.metrics["kirchhoff_factor_re"] = factor.real
    report.metrics["kirchhoff_factor_im"] = factor.imag
    report.checks.append(
        Check(
            "kirchhoff_correlation",
            corr >= float(cfg["kirchhoff_corr_min"]),
            f"correlation {corr:.6f} >= {float(cfg['kirchhoff_corr_min'])}",
        )
    )

    n_angles = int(cfg["angles"])
    th_grid = np.linspace(-np.pi, np.pi, n_angles)
    pattern_amp = _strip_pattern(th_grid, th_d, v.v, kd, bc_solve)
    pattern = mth.FarFieldPattern(angles=th_grid, amplitude=pattern_amp)

    if bool(cfg["with_bem"]):
        nb = int(cfg["bem_nodes"]) or int(round(240.0 * kd / np.pi))
        nb += nb % 2
        try:
            contour = orc.bem_strip_contour(d, k, nb)
            _, ff = orc.bem_dense_solve(contour, bc_solve, k, u0, far_angles=th_grid)
            upper = np.abs(th_grid) < 0.5 * np.pi - 1e-9
            th_up = th_grid[upper]
            a_m = np.abs(pattern_amp[upper])
            a_b = np.abs(ff.amplitude[upper])
            rel = math.sqrt(max(0.0, 1.0 - _normalized_corr(a_m, a_b) ** 2))
            report.metrics["bem_pattern_rel_l2"] = rel
            report.metrics["bem_nodes_used"] = nb
            tol = int(cfg["null_step_tol"])
            for side, tag in ((1, "pos"), (-1, "neg")):
                im = _first_null_index(a_m, th_up, side)
                ib = _first_null_index(a_b, th_up, side)
                if im is None and ib is None:
                    report.checks.append(
                        Check(
                            f"first_null_{tag}",
                            True,
                            "no null on this side for either solver",
                        )
                    )
                    continue
                if im is None or ib is None:
                    which = "method" if im is None else "oracle"
                    report.checks.append(
                        Check(f"first_null_{tag}", False, f"{which} pattern has no null here")
                    )
                    continue
                report.metrics[f"first_null_{tag}_method_rad"] = float(th_up[im])
                report.metrics[f"first_null_{tag}_bem_rad"] = float(th_up[ib])
                report.checks.append(
                    Check(
                        f"first_null_{tag}",
                        abs(im - ib) <= tol,
                        f"method {th_up[im]:.4f} rad, oracle {th_up[ib]:.4f} rad, "
                        f"{abs(im - ib)} grid steps apart",
                    )
                )
            wm, wb = _half_power_steps(a_m), _half_power_steps(a_b)
            report.metrics["main_lobe_steps_method"] = wm
            report.metrics["main_lobe_steps_bem"] = wb
            report.checks.append(
                Check(
                    "main_lobe_width",
                    abs(wm - wb) <= tol,
                    f"half-power width {wm} vs {wb} grid steps",
                )
            )
        except (SingularSystemError, ValueError) as e:
            report.checks.append(Check("bem_oracle", False, f"oracle failed: {e}"))

    _write_table(cfg, report, "out", emit_pattern, pattern)
    _write_table(cfg, report, "history_out", emit_history, history)


def run_strip(cfg: Dict[str, object], report: RunReport) -> None:
    _run_strip_pipeline(cfg, report, mth.BoundaryCondition.from_string(str(cfg["bc"])))


def run_slit(cfg: Dict[str, object], report: RunReport) -> None:
    """Slit in a screen via the Babinet complement of the strip problem."""
    bc = mth.BoundaryCondition.from_string(str(cfg["bc"]))
    comp = (
        mth.BoundaryCondition.SOFT
        if bc is mth.BoundaryCondition.HARD
        else mth.BoundaryCondition.HARD
    )
    _run_strip_pipeline(cfg, report, comp)
    report.warnings.append(
        f"slit diffraction computed as the Babinet complement: {comp.value} strip"
    )


# ---------------------------------------------------------------------------
# Spheroid scenario


def run_spheroid(cfg: Dict[str, object], report: RunReport) -> None:
    ka = float(cfg["ka"])
    c_over_a = float(cfg["c_over_a"])
    if c_over_a <= 1.0:
        raise UsageError("c_over_a must exceed 1 (prolate)")
    a, c = 1.0, c_over_a
    k = ka
    bc = mth.BoundaryCondition.from_string(str(cfg["bc"]))
    n_src = int(cfg["n_sources"])
    if n_src < 1:
        raise UsageError("n_sources must be >= 1")
    res = int(cfg["quad_resolution"]) or max(32, 8 * math.ceil(ka))
    s = geo.make_surface(geo.Spheroid(equatorial_radius=a, polar_radius=c), res)
    u0 = mth.IncidentField(direction=np.array([0.0, 0.0, -1.0]), k=k)

    # axial sources on the focal chord, placed at Gauss nodes
    focal = math.sqrt(c * c - a * a)
    nodes, _ = geo.gauss_legendre(n_src)
    locs = np.zeros((n_src, 3))
    locs[:, 2] = focal * nodes
    basis = mth.PointSourceBasis(locations=locs, k=k)
    traces, sys = _build_system(basis, bc, s, u0)
    v, history = _solve_all(s, traces, u0, sys, float(cfg["lambda"]), report)

    r_d = report.residuals["diagonal"]
    r_g = report.residuals["galerkin"]
    rmax = float(cfg["residual_max"])
    ratio_max = float(cfg["ratio_max"])
    report.checks.append(
        Check("diagonal_residual_small", r_d <= rmax, f"{r_d:.4f} <= {rmax}")
    )
    if r_g is None:
        report.checks.append(Check("galerkin_residual_small", False, "galerkin unavailable"))
    else:
        report.checks.append(
            Check("galerkin_residual_small", r_g <= rmax, f"{r_g:.4f} <= {rmax}")
        )
        report.checks.append(
            Check(
                "diagonal_within_ratio_of_galerkin",
                r_d <= ratio_max * r_g,
                f"{r_d:.4f} <= {ratio_max} x {r_g:.4f}",
            )
        )
    angles = np.linspace(-np.pi, np.pi, int(cfg["angles"]))
    _write_table(cfg, report, "out", emit_pattern, mth.far_field(basis, v, angles))
    _write_table(cfg, report, "history_out", emit_history, history)


# ---------------------------------------------------------------------------
# Born scenario


def run_born(cfg: Dict[str, object], report: RunReport) -> None:
    k = float(cfg["k"])
    pot = orc.gaussian_potential(
        float(cfg["amplitude"]), float(cfg["width"]), float(cfg["half_extent"]),
        float(cfg["h"]), dim=2,
    )
    if min(pot.values.shape) < 3:
        raise UsageError(
            f"h = {cfg['h']} and half_extent = {cfg['half_extent']} leave "
            f"{pot.values.shape[0]} grid node(s) per axis; the disturbance needs at "
            "least 3 (half_extent >= h), as the outer node layer is zeroed"
        )
    u0 = mth.IncidentField(direction=np.array([0.0, -1.0]), k=k)
    r_ring = float(cfg["ring_radius"]) or 6.0 * float(cfg["half_extent"])
    n_ring = int(cfg["ring_points"])
    ring_th = np.linspace(-np.pi, np.pi, n_ring, endpoint=False)
    pts = np.column_stack([r_ring * np.sin(ring_th), r_ring * np.cos(ring_th)])
    alt = bool(cfg["alt_second_reading"])

    res = {
        order: brn.born_approximation(
            pot, u0, k, order, pts, alt_second_reading=alt
        )
        for order in ("first", "second-standard", "second-modified")
    }
    report.metrics["beta_min"] = float(res["first"].beta_used.min())
    report.metrics["beta_max"] = float(res["first"].beta_used.max())

    # plain first order, with the weight overridden to one, against the
    # directly summed first scattering integral
    plain = brn.born_approximation(pot, u0, k, "first", pts, beta_override=1.0)
    gout = brn._exterior_green(pot, k, pts)
    direct = u0.values(pts) - gout @ (pot.flat() * u0.values(pot.points()))
    dev = float(np.max(np.abs(plain.field - direct)))
    report.metrics["first_unit_beta_dev"] = dev
    report.checks.append(
        Check("first_equals_plain_born", dev <= float(cfg["first_tol"]),
              f"max deviation {dev:.2e} <= {float(cfg['first_tol']):.0e}")
    )

    # global phase rotation of the disturbance
    phi = 0.7
    pot_rot = orc.VolumePotential(
        origin=pot.origin, h=pot.h, values=np.exp(1j * phi) * pot.values
    )
    mod_rot = brn.born_approximation(pot_rot, u0, k, "second-modified", pts,
                                     alt_second_reading=alt)
    std_rot = brn.born_approximation(pot_rot, u0, k, "second-standard", pts,
                                     alt_second_reading=alt)
    scale = float(np.max(np.abs(res["second-modified"].second_term)))
    inv_dev = float(np.max(np.abs(mod_rot.second_term - res["second-modified"].second_term)))
    std_dev = float(np.max(np.abs(std_rot.second_term - res["second-standard"].second_term)))
    report.metrics["modified_phase_invariance_dev"] = inv_dev
    report.metrics["standard_phase_change"] = std_dev
    report.checks.append(
        Check("modified_second_term_phase_invariant",
              inv_dev <= 1e-13 * max(scale, 1e-300),
              f"deviation {inv_dev:.2e} at term scale {scale:.2e}")
    )
    report.checks.append(
        Check("standard_second_term_phase_sensitive",
              std_dev > 1e-6 * scale,
              f"changed by {std_dev:.2e} under the same rotation")
    )

    ip = float(np.vdot(res["second-standard"].second_term,
                       res["second-modified"].second_term).real)
    nrm = float(np.linalg.norm(res["second-standard"].second_term)
                * np.linalg.norm(res["second-modified"].second_term))
    report.metrics["second_terms_cosine"] = ip / nrm if nrm > 0 else 0.0
    report.checks.append(
        Check("second_terms_opposite_sign", ip < 0.0,
              f"Re inner product {ip:.3e} (normalized {ip / nrm if nrm else 0.0:+.3f})")
    )

    # comparative errors against the volume-equation oracle
    records: List[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append  # type: ignore[assignment]
    orc.logger.addHandler(handler)
    ls_info: Dict[str, object] = {}
    try:
        u_grid = orc.lippmann_schwinger(pot, u0, k, mode=str(cfg["ls_mode"]), info=ls_info)
    finally:
        orc.logger.removeHandler(handler)
    for rec in records:
        report.warnings.append(rec.getMessage())
    for key in ("path", "iterations", "contraction"):
        report.metrics[f"ls_{key}"] = ls_info[key]
    ref = orc.scattered_field_at(pot, u_grid, u0, k, pts)
    for order in ("first", "second-standard", "second-modified"):
        err = _relative_l2(res[order].field, ref)
        report.metrics[f"err_vs_oracle_{order}"] = err

    pattern = mth.FarFieldPattern(angles=ring_th, amplitude=res["second-modified"].field)
    _write_table(cfg, report, "out", emit_pattern, pattern)


# ---------------------------------------------------------------------------
# Kernel profile scenario


def run_kernel_profile(cfg: Dict[str, object], report: RunReport) -> None:
    bc = mth.BoundaryCondition.from_string(str(cfg["bc"]))
    basis, s = _sphere_modes(cfg, float(cfg["ka"]))
    traces, sys = _build_system(basis, bc, s)
    dist, absphi = mth.kernel_profile(s, traces, sys.beta, int(cfg["anchor"]))

    report.metrics["profile_points"] = int(dist.shape[0])
    report.metrics["peak_value"] = float(absphi[0])
    report.checks.append(
        Check("peak_at_zero_distance",
              bool(dist[0] == 0.0 and absphi[0] >= absphi.max()),
              f"|Phi| at d=0 is {absphi[0]:.4e}, max elsewhere {absphi[1:].max():.4e}")
    )
    herm = float(np.max(np.abs(sys.g - sys.g.conj().T)))
    report.checks.append(
        Check("gram_hermitian", herm == 0.0, f"max |G - G^H| = {herm:.2e}")
    )
    _write_table(cfg, report, "out", emit_profile, dist, absphi)


# ---------------------------------------------------------------------------
# Riemann decay scenario


def run_riemann_decay(cfg: Dict[str, object], report: RunReport) -> None:
    bc = mth.BoundaryCondition.from_string(str(cfg["bc"]))
    sep = float(cfg["separation"])
    if not 0.0 < sep < 2.0:
        raise UsageError("separation must lie in (0, 2)")
    ka_values = [float(x) for x in str(cfg["ka_list"]).split(",") if x.strip()]
    if len(ka_values) < 2:
        raise UsageError("ka_list needs at least two values")
    sh = 0.5 * sep
    ch = math.sqrt(1.0 - sh * sh)
    dirs = np.array([[sh, 0.0, ch], [-sh, 0.0, ch]])

    offdiag = []
    for ka in ka_values:
        res = int(cfg["quad_resolution"]) or (math.ceil(ka) + 24)
        s = geo.make_surface(geo.Sphere(1.0), res)
        g = _build_system(mth.PlaneWaveBasis(directions=dirs, k=ka), bc, s)[1].g
        val = float(np.abs(g[0, 1]) / math.sqrt(g[0, 0].real * g[1, 1].real))
        offdiag.append(val)
        report.metrics[f"offdiag_ka_{ka:g}"] = val

    rmin = float(cfg["decay_ratio_min"])
    for (ka1, v1), (ka2, v2) in zip(
        zip(ka_values, offdiag), zip(ka_values[1:], offdiag[1:])
    ):
        ratio = v1 / v2 if v2 > 0 else math.inf
        report.metrics[f"decay_ratio_{ka1:g}_to_{ka2:g}"] = ratio
        report.checks.append(
            Check(
                f"decay_ka_{ka1:g}_to_{ka2:g}",
                ratio >= rmin,
                f"|G_12| fell {ratio:.2f}x (needs >= {rmin}x)",
            )
        )
    # the report itself is the data table; its wall clock is still unset here
    _write_table(cfg, report, "out", lambda path, _fmt: emit_report(path, report))


# ---------------------------------------------------------------------------
# Dispatch and entry point


_RUNNERS = {
    "sphere": run_sphere,
    "strip": run_strip,
    "slit": run_slit,
    "spheroid": run_spheroid,
    "born": run_born,
    "kernel-profile": run_kernel_profile,
    "riemann-decay": run_riemann_decay,
}


def run_scenario(name: str, cfg: Dict[str, object]) -> RunReport:
    if name not in _RUNNERS:
        raise UsageError(
            f"unknown scenario {name!r}; expected one of: " + ", ".join(sorted(_RUNNERS))
        )
    report = RunReport(scenario=name, config=dict(cfg))
    t0 = time.perf_counter()
    _RUNNERS[name](cfg, report)
    report.wall_clock_s = time.perf_counter() - t0
    _write_table(cfg, report, "report_out", lambda path, _fmt: emit_report(path, report))
    return report


def _parse_argv(argv: Sequence[str]) -> Tuple[str, Optional[str], Dict[str, str]]:
    if not argv or argv[0] in ("-h", "--help"):
        raise UsageError(__doc__.strip())
    scenario = argv[0]
    config_path = None
    overrides: Dict[str, str] = {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise UsageError(f"expected --key, got {tok!r}")
        if i + 1 >= len(argv):
            raise UsageError(f"missing value for {tok}")
        key, val = tok[2:], argv[i + 1]
        if key == "config":
            config_path = val
        else:
            overrides[key] = val
        i += 2
    return scenario, config_path, overrides


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        scenario, config_path, overrides = _parse_argv(argv)
        file_entries = parse_config_file(config_path) if config_path else None
        cfg = build_config(scenario, file_entries, overrides)
        report = run_scenario(scenario, cfg)
    except ValueError as e:
        # every package error derives from ValueError, and all of them here
        # come from the scenario's configuration
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
