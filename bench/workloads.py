"""The benchmark's workloads: each is a fixed list of scenario runs.

One operation is one in-process ``waveortho.cli.run_scenario`` call. The
lists below never change between runs; the seed only shuffles their order
within a pass (see ``run.py``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

KD_4PI = repr(4.0 * math.pi)

# run_sphere sizes its spherical-mode basis as ceil(ka) + 8 modes, which is
# too few for far_tol = 1e-8 from ka = 9 (hard) and ka = 10 (both
# conditions) upwards. These runs fail the scenario's far-field check on
# every seed and are counted as failed operations instead of being left out
# of the sweep; every other check must still pass on them.
SPHERE_SIZING_FAULT = {(9, "hard")} | {(ka, bc) for ka in (10, 11, 12) for bc in ("soft", "hard")}
SPHERE_SIZING_CHECK = "far_field_matches_mie"


@dataclass(frozen=True)
class Op:
    """One scenario run and how its outputs are checked.

    ``table`` is the data-table suffix (``csv``, ``json``), or empty when the
    scenario writes no data table; ``check`` names a function in ``checks``,
    or is empty when the scenario's own checks suffice. ``known_fault`` names
    the one scenario check that a known program fault fails on every run;
    failing that check alone is an expected failure, any other is not.
    """

    label: str
    scenario: str
    overrides: Dict[str, str] = field(default_factory=dict)
    check: str = ""
    table: str = "csv"
    known_fault: str = ""


def _strip_bem() -> List[Op]:
    # The README's headline use: a diffraction pattern checked against dense
    # BEM at its automatic node count (960 nodes at kd = 4 pi).
    return [
        Op("strip-hard-0deg", "strip", {"kd": KD_4PI, "bc": "hard"}, "strip"),
        Op("strip-soft-10deg", "strip",
           {"kd": KD_4PI, "bc": "soft", "incidence_deg": "10"}, "strip"),
    ]


def _volume_born() -> List[Op]:
    # The weak default takes the Lippmann-Schwinger fixed-point path, the
    # strong finer grid the dense LU path.
    return [
        Op("born-default", "born", {}, "born"),
        Op("born-strong", "born", {"amplitude": "4", "h": "0.045"}, "born"),
    ]


def _sphere_sweep() -> List[Op]:
    ops = [
        Op(f"sphere-ka{ka}-{bc}", "sphere", {"ka": f"{ka}.0", "bc": bc}, "sphere",
           known_fault=SPHERE_SIZING_CHECK if (ka, bc) in SPHERE_SIZING_FAULT else "")
        for ka in range(1, 13)
        for bc in ("soft", "hard")
    ]
    ops += [
        Op("sphere-plane-waves", "sphere", {"basis": "plane-waves", "bc": "hard"},
           table=""),
        # written twice per pass so that every pass checks byte-identity
        Op("kernel-profile-a", "kernel-profile", {}, "kernel_profile"),
        Op("kernel-profile-b", "kernel-profile", {}, "kernel_profile"),
        Op("riemann-decay", "riemann-decay", {}, table="json"),
    ]
    return ops


WORKLOADS = {
    "strip-bem": _strip_bem,
    "volume-born": _volume_born,
    "sphere-sweep": _sphere_sweep,
}


def output_paths(out_dir: str, op: Op) -> Tuple[str, str]:
    """Data-table path (empty if none) and report path of one operation."""
    table = os.path.join(out_dir, f"{op.label}.{op.table}") if op.table else ""
    return table, os.path.join(out_dir, f"{op.label}.report.json")


def build_configs(cli, workload: str, out_dir: str) -> List[Tuple[Op, Dict[str, object]]]:
    """Validated configs for every operation of ``workload``, in list order."""
    built = []
    for op in WORKLOADS[workload]():
        table, report = output_paths(out_dir, op)
        overrides = dict(op.overrides, report_out=report)
        if table:
            overrides["out"] = table
        built.append((op, cli.build_config(op.scenario, overrides=overrides)))
    return built
