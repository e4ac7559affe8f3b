"""Scenario runner: named experiments, flat config, deterministic artifacts.

Usage: waveortho <scenario> [--key value ...] [--config path]

Scenarios: sphere, strip, slit, spheroid, born, kernel-profile, riemann-decay.
Config values come from shipped defaults, then an optional flat key=value
file, then command-line overrides (which win). Angles are radians in files;
on the command line incidence may be given in degrees as incidence_deg.
Exit code is 0 exactly when every check the scenario declares passes (check
bounds are constants), 1 when a check fails, 2 on bad input (a waveortho
error or an out-of-memory error, with its reason) and 3 on any other
exception, a fault of the program, with its traceback.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import born as brn
from . import geometry as geo
from . import method as mth
from . import oracles as orc
from . import specfun
from .errors import DomainError, SingularSystemError, UsageError

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
    """json's fallback for the numpy scalars and arrays a report may hold."""
    return v.tolist()


# ---------------------------------------------------------------------------
# Output files: fixed column names, 17 significant digits, atomic writes


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    tmp = ""
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".waveortho-")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as e:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
        raise UsageError(f"cannot write {path}: {e}") from None


def _write_table(
    cfg: Dict[str, object],
    report: RunReport,
    key: str,
    columns: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Write the path under config key `key`, if one is set.

    columns (name -> array) go out as CSV or JSON per the format key; without
    columns the report itself is written as JSON.
    """
    if not cfg.get(key):
        return
    if columns is None:
        text = json.dumps(asdict(report), indent=1, default=_jsonable)
    else:
        arrays = {name: np.asarray(a, dtype=float) for name, a in columns.items()}
        if cfg["format"] == "csv":
            rows = zip(*arrays.values())
            text = "\n".join([",".join(arrays)] + [",".join(f"{x:.17g}" for x in r) for r in rows])
        else:  # json, the only other format build_config accepts
            text = json.dumps({name: a.tolist() for name, a in arrays.items()}, indent=1)
    _atomic_write(str(cfg[key]), text + "\n")
    report.outputs.append(str(cfg[key]))


def _pattern_columns(pattern: mth.FarFieldPattern) -> Dict[str, np.ndarray]:
    amp = pattern.amplitude
    return {"theta_rad": pattern.angles, "re_amp": amp.real, "im_amp": amp.imag,
            "abs_amp": np.abs(amp)}


def _history_columns(history: Sequence[float]) -> Dict[str, np.ndarray]:
    return {"step": np.arange(len(history), dtype=float), "residual": history}


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
        "angles": 181,
        "pw_polar_list": "4,6,8",
        "history_out": "",
    },
    "strip": {
        "kd": 16.0 * math.pi,
        "bc": "hard",
        "basis_size": 0,
        "quad_resolution": 0,
        "solver": "diagonal",
        "angles": 181,
        "incidence": 0.0,
        "with_bem": True,
        "bem_nodes": 0,
        "history_out": "",
    },
    "spheroid": {
        "ka": 5.0,
        "c_over_a": 2.0,
        "bc": "hard",
        "n_sources": 8,
        "quad_resolution": 0,
        "angles": 181,
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
    },
}
DEFAULTS["slit"] = dict(DEFAULTS["strip"])
for _d in DEFAULTS.values():
    _d.update(_COMMON_DEFAULTS)


# the angle-valued keys: radians, or degrees when spelled <key>_deg on the
# command line
ANGLE_KEYS = ("incidence",)

# the largest value an integer key (a count or an index) may take
INDEX_MAX = int(np.iinfo(np.intp).max)


def _count(test: Callable[[object], bool], reason: str) -> Tuple[Callable[[object], bool], str]:
    """The rule of a count key: `test`, and room in physical memory for 16 bytes per entry."""
    return (lambda v: test(v) and 16 * v <= geo.physical_memory(),
            reason + "; and an array of that many 16-byte entries must fit in physical memory")


# key -> (test, reason): what a key's value must satisfy in every scenario
# that has the key; build_config refuses a value that fails with
# "<key> <reason>"
RULES: Dict[str, Tuple[Callable[[object], bool], str]] = {
    "ka": (lambda v: v > 0, "must be positive"),
    "kd": (lambda v: v > 0, "must be positive"),
    "k": (lambda v: v > 0, "must be positive"),
    "incidence": (lambda v: abs(v) < 0.5 * math.pi, "must lie strictly inside (-pi/2, pi/2)"),
    "c_over_a": (lambda v: v > 1, "must exceed 1 (prolate)"),
    "separation": (lambda v: 0 < v < 2, "must lie in (0, 2)"),
    "amplitude": (lambda v: v != 0, "must not be 0: a zero disturbance leaves the Born "
                  "checks only zero terms to compare"),
    "ring_radius": (lambda v: v >= 0, "must be >= 0 (0 means 6 x half_extent)"),
    "ring_points": _count(lambda v: v >= 1, "must be >= 1: the ring field table needs at "
                          "least one point"),
    "n_sources": _count(lambda v: v >= 1, "must be >= 1: the spheroid basis needs at least "
                        "one point source"),
    "angles": _count(lambda v: v >= 2, "must be >= 2: a far-field table compares at least two "
                     "directions"),
    "basis_size": _count(lambda v: v >= 0, "must be >= 0 (0 sizes the basis automatically)"),
    "quad_resolution": _count(lambda v: v == 0 or v >= geo.MIN_RESOLUTION,
                              f"must be 0 (automatic) or >= {geo.MIN_RESOLUTION}"),
    "anchor": (lambda v: v >= 0, "must be >= 0: it is a surface node index"),
    "bem_nodes": _count(lambda v: v == 0 or (v >= 8 and v % 2 == 0), "must be 0 (automatic) "
                        "or >= 8 and even: the boundary-element oracle needs at least 8 nodes, "
                        "and nodes that t -> pi - t maps onto nodes"),
    "basis": (lambda v: v in ("spherical-modes", "plane-waves"),
              "must be spherical-modes or plane-waves"),
    "format": (lambda v: v in ("csv", "json"), "must be csv or json"),
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

    An override spelled <key>_deg for a key of ANGLE_KEYS is converted
    from degrees to radians; files always carry radians.
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
            base = key[: -len("_deg")]
            if allow_deg and key.endswith("_deg") and base in ANGLE_KEYS and base in defaults:
                key, value = base, math.radians(_coerce(scenario, key, raw, 0.0))
            if key not in defaults:
                raise UsageError(f"unknown config key '{key}' for scenario '{scenario}'")
            cfg[key] = _coerce(scenario, key, value, defaults[key])
    for key, value in cfg.items():
        if type(defaults[key]) is int and value > INDEX_MAX:
            raise UsageError(f"{key} = {value} is above {INDEX_MAX}, the largest size "
                             "numpy can index")
        if key in RULES and not RULES[key][0](value):
            raise UsageError(f"{key} {RULES[key][1]}")
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


def _list_values(
    cfg: Dict[str, object], key: str, convert: Callable[[str], float], rule: str, noun: str
) -> list:
    """At least two comma-separated entries of cfg[key], each finite and positive."""
    values = []
    for text in filter(str.strip, str(cfg[key]).split(",")):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"bad entry {text.strip()!r} in config key '{key}': {rule}")
        values.append(value)
    if len(values) < 2:
        raise UsageError(f"{key} needs at least two {noun}")
    return values


def _solve_all(
    sys: mth.GramSystem,
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
    spectra: Dict[str, Optional[np.ndarray]] = {}
    v_diag = mth.solve_diagonal(sys)
    spectra["diagonal"] = v_diag
    report.epsilon = mth.epsilon_diagnostic(sys, v_diag)
    report.residuals["diagonal"] = mth.boundary_residual(sys, v_diag)
    try:
        v_gal = mth.solve_galerkin(sys)
        spectra["galerkin"] = v_gal
        report.residuals["galerkin"] = mth.boundary_residual(sys, v_gal)
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
    report.residuals["iterate"] = mth.boundary_residual(sys, v_it)
    step1 = mth.refine_iterate(sys, 1)[0]
    report.checks.append(
        Check(
            "iterate_step1_equals_diagonal",
            bool(np.array_equal(step1, v_diag)),
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
    if margin > 0.0 and spectra["galerkin"] is not None:
        # run the contraction out to its limit; 50 steps need not be enough
        # when the spectral radius is close to 1
        n_need = int(math.log(1e-9) / math.log1p(-margin)) + 1 if margin < 1.0 else 0
        n_limit = max(iterate_steps, min(2_000_000, n_need))
        v_lim = mth.refine_power(sys, n_limit)
        gap = float(
            np.linalg.norm(v_lim - spectra["galerkin"])
            / max(np.linalg.norm(spectra["galerkin"]), 1e-300)
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


# ---------------------------------------------------------------------------
# Sphere scenario (series comparison, and the plane-wave Im diagnostic)


def _sphere_modes(
    cfg: Dict[str, object], ka: float, tol: float = math.inf
) -> Tuple[mth.SphericalModeBasis, geo.Surface]:
    """Spherical-mode basis on the unit sphere, with the automatic sizes.

    The highest mode order n defaults to ceil(ka) + 8, which must not pass
    the supported cap. A scenario that checks its far field against a bound
    tol takes the first n from there whose partial-wave tail estimate
    3 ka j_n(ka)^2 is at most tol, with j_n(ka) for every candidate order
    from one call. The quadrature resolution defaults to n + 8, at least 32.
    """
    n_order = int(cfg["basis_size"])
    if not n_order:
        cap, start = specfun.MAX_ORDER, math.ceil(ka) + 8
        if start > cap:
            raise DomainError(
                f"the automatic mode order ceil(ka) + 8 = {start} at ka = {ka} "
                f"is above the supported cap {cap}"
            )
        orders = np.arange(start, cap + 1)
        met = 3.0 * ka * specfun.sph_bessel_j(orders, ka)[0] ** 2 <= tol
        if not met.any():
            raise DomainError(
                f"no mode order up to the supported cap {cap} "
                f"meets the far-field bound {tol:.1e} at ka = {ka}"
            )
        n_order = int(orders[np.argmax(met)])
    res = int(cfg["quad_resolution"]) or max(32, n_order + 8)
    basis = mth.SphericalModeBasis(max_order=n_order, k=ka)
    return basis, geo.make_surface(geo.Sphere(1.0), res)


# Below this max|Im v|/max|v| the quadrature error of the plane-wave
# diagnostic is lost in rounding, so two such ratios cannot be ordered.
IM_RATIO_FLOOR = 100.0 * np.finfo(float).eps


def _im_ratios_decrease(ratios: Sequence[float]) -> bool:
    """Each refinement lowers the ratio, or both ratios sit at the floor."""
    return all(
        b < a or max(a, b) <= IM_RATIO_FLOOR for a, b in zip(ratios, ratios[1:])
    )


def run_sphere(cfg: Dict[str, object], report: RunReport) -> None:
    ka = float(cfg["ka"])
    k = ka  # unit radius
    bc = mth.BoundaryCondition.from_string(str(cfg["bc"]))
    # propagation along +z so the polar angle of the pattern is measured
    # from the forward direction, matching the series oracle
    u0 = mth.IncidentField(direction=np.array([0.0, 0.0, 1.0]), k=k)
    # parsed whatever the basis, so that a bad value is refused either way
    polar_counts = _list_values(cfg, "pw_polar_list", int,
                                "polar counts are integers >= 1", "grid sizes")

    if cfg["basis"] == "spherical-modes":
        basis, s = _sphere_modes(cfg, ka, FAR_TOL)
        angles = np.linspace(0.0, np.pi, int(cfg["angles"]))
        # the oracle first, so that a ka it refuses exits before the solve
        _, mie_ff = orc.mie_series(bc, ka, angles)
        sys = mth.assemble_gram(basis, bc, s, u0)
        v, history = _solve_all(sys, report, str(cfg["solver"]))
        pattern = mth.far_field(basis, v, angles)
        rel = _relative_l2(pattern.amplitude, mie_ff.amplitude)
        corr = _normalized_corr(pattern.amplitude, mie_ff.amplitude)
        report.metrics["far_rel_l2_vs_mie"] = rel
        report.metrics["far_corr_vs_mie"] = corr
        report.checks.append(
            Check(
                "far_field_matches_mie",
                rel <= FAR_TOL,
                f"relative L2 {rel:.3e} <= {FAR_TOL:.1e}",
            )
        )
        _write_table(cfg, report, "out", _pattern_columns(pattern))
        _write_table(cfg, report, "history_out", _history_columns(history))
    else:  # plane-waves, the only other basis RULES accepts
        if bc is not mth.BoundaryCondition.HARD:
            report.warnings.append(
                "imaginary-part diagnostic is reported for the hard condition"
            )
        ratios = []
        for npol in polar_counts:
            basis = mth.PlaneWaveBasis(directions=geo.gauss_midpoint_directions(npol), k=k)
            res = int(cfg["quad_resolution"]) or (npol + 4)
            s = geo.odd_azimuth_sphere_surface(1.0, res)
            sys = mth.assemble_gram(basis, bc, s, u0)
            v = mth.solve_diagonal(sys)
            ratio = float(np.max(np.abs(v.imag)) / np.max(np.abs(v)))
            ratios.append(ratio)
            report.metrics[f"im_ratio_npolar_{npol}"] = ratio
        # refinement diagnostics on the finest grid
        _solve_all(sys, report, refine=False)
        report.checks.append(
            Check(
                "im_ratio_decreases_under_refinement",
                _im_ratios_decrease(ratios),
                "ratios " + ", ".join(f"{r:.3e}" for r in ratios)
                + f"; a step with both ratios <= 100 eps = {IM_RATIO_FLOOR:.1e} "
                "is at rounding level and passes",
            )
        )
        if cfg["out"] or cfg["history_out"]:
            report.warnings.append(
                "plane-wave diagnostic writes no data table; use report_out"
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


# least aperture-density correlation with the Kirchhoff sinc, and the most
# grid steps a first null or the main-lobe width may sit from the BEM one
KIRCHHOFF_CORR_MIN = 0.999
# largest relative L2 distance of the sphere's far field from the series
FAR_TOL = 1e-8
NULL_STEP_TOL = 1


def _run_strip_pipeline(
    cfg: Dict[str, object], report: RunReport, bc_solve: mth.BoundaryCondition
) -> None:
    kd = float(cfg["kd"])
    k = 2.0 * np.pi  # unit wavelength
    d = kd / k

    alpha = float(cfg["incidence"])
    n_angles = int(cfg["angles"])
    if bool(cfg["with_bem"]):
        if n_angles < 3:
            raise UsageError(
                "angles must be >= 3 when with_bem is on: the BEM comparison needs a "
                "pattern direction with |theta| < pi/2, and 2 angles give only -pi and pi"
            )
        # The null and lobe checks see a lobe only when each Kirchhoff first
        # null sin(theta) = sin(alpha) +- 2 pi / kd in the visible band sits
        # NULL_STEP_TOL + 1 grid steps or more from alpha.
        sines = math.sin(alpha) + np.array([-2.0, 2.0]) * math.pi / kd
        gap = float(np.min(np.abs(np.arcsin(sines[np.abs(sines) < 1.0]) - alpha), initial=np.inf))
        least = math.ceil((NULL_STEP_TOL + 1) * 2.0 * math.pi / max(gap, 1e-300)) + 1
        if n_angles < least:
            raise UsageError(
                f"angles must be >= {least} at kd = {kd:g} when with_bem is on: a "
                f"Kirchhoff first null lies {gap:.4f} rad from the incidence direction, "
                f"and the null and lobe checks need it {NULL_STEP_TOL + 1} grid steps away"
            )
    th_d = _strip_direction_angles(kd, int(cfg["basis_size"]))
    dirs = np.column_stack([np.sin(th_d), np.cos(th_d)])
    basis = mth.PlaneWaveBasis(directions=dirs, k=k)
    res = int(cfg["quad_resolution"]) or max(32, int(np.ceil(8.0 * kd / (2.0 * np.pi))))
    s = geo.make_surface(geo.Strip(width=d), res)
    u0 = mth.IncidentField(direction=np.array([math.sin(alpha), -math.cos(alpha)]), k=k)
    sys = mth.assemble_gram(basis, bc_solve, s, u0)
    v, history = _solve_all(sys, report, str(cfg["solver"]))

    # Aperture density against the geometric-optics field: correlate the
    # normal-trace spectrum samples with the Kirchhoff sinc of the aperture,
    # copied to unit stride (BLAS sums a strided .real view in another order).
    sinc_ref = orc.kirchhoff_pattern(kd, alpha, th_d).amplitude.real.copy()
    density = np.cos(th_d) * v if bc_solve is mth.BoundaryCondition.HARD else -v
    corr = _normalized_corr(density, sinc_ref.astype(complex))
    factor = complex(np.vdot(sinc_ref, density) / np.vdot(sinc_ref, sinc_ref))
    report.metrics["kirchhoff_corr"] = corr
    report.metrics["kirchhoff_factor_abs"] = abs(factor)
    report.metrics["kirchhoff_factor_re"] = factor.real
    report.metrics["kirchhoff_factor_im"] = factor.imag
    report.checks.append(
        Check(
            "kirchhoff_correlation",
            corr >= KIRCHHOFF_CORR_MIN,
            f"correlation {corr:.6f} >= {KIRCHHOFF_CORR_MIN}",
        )
    )

    th_grid = np.linspace(-np.pi, np.pi, n_angles)
    pattern_amp = _strip_pattern(th_grid, th_d, v, kd, bc_solve)
    pattern = mth.FarFieldPattern(angles=th_grid, amplitude=pattern_amp)

    if bool(cfg["with_bem"]):
        nb = int(cfg["bem_nodes"]) or int(round(240.0 * kd / np.pi))
        nb += nb % 2
        try:
            contour = orc.bem_strip_contour(d, k, nb)
            bem_info: Dict[str, float] = {}
            _, ff = orc.bem_dense_solve(contour, bc_solve, k, u0, far_angles=th_grid,
                                        info=bem_info)
            upper = np.abs(th_grid) < 0.5 * np.pi - 1e-9
            th_up = th_grid[upper]
            a_m = np.abs(pattern_amp[upper])
            a_b = np.abs(ff.amplitude[upper])
            rel = math.sqrt(max(0.0, 1.0 - _normalized_corr(a_m, a_b) ** 2))
            report.metrics["bem_pattern_rel_l2"] = rel
            report.metrics["bem_nodes_used"] = nb
            report.metrics["bem_rcond"] = bem_info["rcond"]
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
                        abs(im - ib) <= NULL_STEP_TOL,
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
                    abs(wm - wb) <= NULL_STEP_TOL,
                    f"half-power width {wm} vs {wb} grid steps",
                )
            )
        except SingularSystemError as e:
            report.checks.append(Check("bem_oracle", False, f"oracle failed: {e}"))

    _write_table(cfg, report, "out", _pattern_columns(pattern))
    _write_table(cfg, report, "history_out", _history_columns(history))


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

# bound on each normalized boundary residual, and on diagonal / Galerkin
RESIDUAL_MAX = 0.2
RATIO_MAX = 3.0


def run_spheroid(cfg: Dict[str, object], report: RunReport) -> None:
    ka = float(cfg["ka"])
    a, c = 1.0, float(cfg["c_over_a"])
    k = ka
    bc = mth.BoundaryCondition.from_string(str(cfg["bc"]))
    n_src = int(cfg["n_sources"])
    res = int(cfg["quad_resolution"]) or max(32, 8 * math.ceil(ka))
    s = geo.make_surface(geo.Spheroid(equatorial_radius=a, polar_radius=c), res)
    u0 = mth.IncidentField(direction=np.array([0.0, 0.0, -1.0]), k=k)

    # axial sources on the focal chord, placed at Gauss nodes
    focal = math.sqrt(c * c - a * a)
    nodes, _ = geo.gauss_legendre(n_src)
    locs = np.zeros((n_src, 3))
    locs[:, 2] = focal * nodes
    basis = mth.PointSourceBasis(locations=locs, k=k)
    sys = mth.assemble_gram(basis, bc, s, u0)
    v, history = _solve_all(sys, report)

    r_d = report.residuals["diagonal"]
    r_g = report.residuals["galerkin"]
    report.checks.append(
        Check("diagonal_residual_small", r_d <= RESIDUAL_MAX, f"{r_d:.4f} <= {RESIDUAL_MAX}")
    )
    if r_g is None:
        report.checks.append(Check("galerkin_residual_small", False, "galerkin unavailable"))
    else:
        report.checks.append(
            Check("galerkin_residual_small", r_g <= RESIDUAL_MAX, f"{r_g:.4f} <= {RESIDUAL_MAX}")
        )
        report.checks.append(
            Check(
                "diagonal_within_ratio_of_galerkin",
                r_d <= RATIO_MAX * r_g,
                f"{r_d:.4f} <= {RATIO_MAX} x {r_g:.4f}",
            )
        )
    angles = np.linspace(-np.pi, np.pi, int(cfg["angles"]))
    _write_table(cfg, report, "out", _pattern_columns(mth.far_field(basis, v, angles)))
    _write_table(cfg, report, "history_out", _history_columns(history))


# ---------------------------------------------------------------------------
# Born scenario

# most the unit-weight first order may deviate from the plain Born sum
FIRST_TOL = 1e-12


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
    # one set of Green tables serves both potentials (same grid) and the oracle
    green = orc.volume_green(pot, k, pts)

    res = brn.born_approximation(pot, u0, green, alt_second_reading=alt)
    report.metrics["beta_min"] = float(res.beta.min())
    report.metrics["beta_max"] = float(res.beta.max())

    # plain first order (unit weight) against the oracle's exterior sum
    # with the grid field set to the incident field
    direct = orc.scattered_field_at(pot, u0.values(pot.points()), u0, green)
    dev = float(np.max(np.abs(u0.values(pts) + res.plain_term - direct)))
    report.metrics["first_unit_beta_dev"] = dev
    report.checks.append(
        Check("first_equals_plain_born", dev <= FIRST_TOL,
              f"max deviation {dev:.2e} <= {FIRST_TOL:.0e}")
    )

    # global phase rotation of the disturbance
    phi = 0.7
    pot_rot = orc.VolumePotential(
        origin=pot.origin, h=pot.h, values=np.exp(1j * phi) * pot.values
    )
    rot = brn.born_approximation(pot_rot, u0, green, alt_second_reading=alt)
    std, mod = res.second_terms["second-standard"], res.second_terms["second-modified"]
    scale = float(np.max(np.abs(mod)))
    inv_dev = float(np.max(np.abs(rot.second_terms["second-modified"] - mod)))
    std_dev = float(np.max(np.abs(rot.second_terms["second-standard"] - std)))
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

    ip = float(np.vdot(std, mod).real)
    nrm = float(np.linalg.norm(std) * np.linalg.norm(mod))
    report.metrics["second_terms_cosine"] = ip / nrm if nrm > 0 else 0.0
    report.checks.append(
        Check("second_terms_opposite_sign", ip < 0.0,
              f"Re inner product {ip:.3e} (normalized {ip / nrm if nrm else 0.0:+.3f})")
    )

    # comparative errors against the volume-equation oracle
    ls_info: Dict[str, object] = {}
    u_grid = orc.lippmann_schwinger(pot, u0, green, info=ls_info)
    for key, value in ls_info.items():
        report.metrics[f"ls_{key}"] = value
    ref = orc.scattered_field_at(pot, u_grid, u0, green)
    for order, field in res.fields.items():
        report.metrics[f"err_vs_oracle_{order}"] = _relative_l2(field, ref)

    pattern = mth.FarFieldPattern(angles=ring_th, amplitude=res.fields["second-modified"])
    _write_table(cfg, report, "out", _pattern_columns(pattern))


# ---------------------------------------------------------------------------
# Kernel profile scenario


def run_kernel_profile(cfg: Dict[str, object], report: RunReport) -> None:
    bc = mth.BoundaryCondition.from_string(str(cfg["bc"]))
    basis, s = _sphere_modes(cfg, float(cfg["ka"]))
    sys = mth.assemble_gram(basis, bc, s)
    dist, absphi = mth.kernel_profile(sys, int(cfg["anchor"]))

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
    _write_table(cfg, report, "out", {"distance": dist, "abs_phi": absphi})


# ---------------------------------------------------------------------------
# Riemann decay scenario

# least factor by which |G_12| falls from one ka of ka_list to the next
DECAY_RATIO_MIN = 2.0


def run_riemann_decay(cfg: Dict[str, object], report: RunReport) -> None:
    bc = mth.BoundaryCondition.from_string(str(cfg["bc"]))
    sep = float(cfg["separation"])
    ka_values = _list_values(cfg, "ka_list", float, "ka must be finite and positive",
                             "values")
    sh = 0.5 * sep
    ch = math.sqrt(1.0 - sh * sh)
    dirs = np.array([[sh, 0.0, ch], [-sh, 0.0, ch]])

    offdiag = []
    for ka in ka_values:
        res = int(cfg["quad_resolution"]) or (math.ceil(ka) + 24)
        s = geo.make_surface(geo.Sphere(1.0), res)
        g = mth.assemble_gram(mth.PlaneWaveBasis(directions=dirs, k=ka), bc, s).g
        val = float(np.abs(g[0, 1]) / math.sqrt(g[0, 0].real * g[1, 1].real))
        offdiag.append(val)
        report.metrics[f"offdiag_ka_{ka:g}"] = val

    for (ka1, v1), (ka2, v2) in zip(
        zip(ka_values, offdiag), zip(ka_values[1:], offdiag[1:])
    ):
        ratio = v1 / v2 if v2 > 0 else math.inf
        report.metrics[f"decay_ratio_{ka1:g}_to_{ka2:g}"] = ratio
        report.checks.append(
            Check(
                f"decay_ka_{ka1:g}_to_{ka2:g}",
                ratio >= DECAY_RATIO_MIN,
                f"|G_12| fell {ratio:.2f}x (needs >= {DECAY_RATIO_MIN}x)",
            )
        )
    # the report itself is the data table; its wall clock is still unset here
    _write_table(cfg, report, "out")


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
    _write_table(cfg, report, "report_out")
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
    except (DomainError, SingularSystemError, UsageError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"usage error: not enough memory for this configuration: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    print(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
