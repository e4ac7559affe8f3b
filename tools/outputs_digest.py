"""Digest of the data tables, reports and exit codes of a fixed list of runs.

Usage: python3 tools/outputs_digest.py OUTDIR

Runs each scenario below through ``waveortho.cli.main`` with one BLAS
thread (a dense product can round differently under two threads), writes its
tables and report under OUTDIR/<run>/, and writes OUTDIR/digest.json: per
run, the exit code and the sha256 of every table and of the report. Reports
(and the riemann-decay table, which is its report) are hashed without
``config``, ``outputs`` and ``wall_clock_s``, which carry paths and timings.
Run it in two checkouts and compare the two digest.json files: a change that
keeps every output byte-identical leaves them equal.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from waveortho import cli  # noqa: E402

KD_4PI = repr(4.0 * math.pi)
KD_8PI = repr(8.0 * math.pi)
KD_16PI = repr(16.0 * math.pi)

# name -> (scenario, overrides, table keys to set)
RUNS = {
    "sphere-ka5-soft": ("sphere", {"ka": "5"}, ("out", "history_out")),
    "sphere-ka5-hard": ("sphere", {"ka": "5", "bc": "hard"}, ("out", "history_out")),
    "sphere-ka9-soft": ("sphere", {"ka": "9"}, ("out", "history_out")),
    "sphere-ka9-hard": ("sphere", {"ka": "9", "bc": "hard"}, ("out", "history_out")),
    # mode order 21, the largest of the benchmark's sphere sweep
    "sphere-ka12-soft": ("sphere", {"ka": "12"}, ("out", "history_out")),
    "sphere-ka12-hard": ("sphere", {"ka": "12", "bc": "hard"}, ("out", "history_out")),
    "sphere-galerkin": ("sphere", {"solver": "galerkin"}, ("out", "history_out")),
    "sphere-iterate7": ("sphere", {"solver": "iterate:7"}, ("out", "history_out")),
    "sphere-plane-waves": ("sphere", {"basis": "plane-waves", "bc": "hard"}, ()),
    "strip-4pi-hard-10deg": ("strip", {"kd": KD_4PI, "bc": "hard", "incidence_deg": "10"},
                             ("out", "history_out")),
    "strip-4pi-soft-10deg": ("strip", {"kd": KD_4PI, "bc": "soft", "incidence_deg": "10"},
                             ("out", "history_out")),
    "strip-8pi-no-bem": ("strip", {"kd": KD_8PI, "with_bem": "false"}, ("out", "history_out")),
    "slit-4pi": ("slit", {"kd": KD_4PI}, ("out", "history_out")),
    "spheroid": ("spheroid", {}, ("out", "history_out")),
    "born-default": ("born", {}, ("out",)),
    "born-strong": ("born", {"amplitude": "4", "h": "0.045"}, ("out",)),
    "born-alt": ("born", {"alt_second_reading": "true"}, ("out",)),
    "kernel-profile-csv": ("kernel-profile", {}, ("out",)),
    "kernel-profile-json": ("kernel-profile", {"format": "json"}, ("out",)),
    "riemann-decay": ("riemann-decay", {}, ("out",)),
    # runs that a usage rule may refuse: only their exit codes are compared
    "sphere-ka-deg": ("sphere", {"ka_deg": "180"}, ()),
    "strip-4pi-3-angles": ("strip", {"kd": KD_4PI, "angles": "3"}, ()),
    "strip-16pi-31-angles": ("strip", {"kd": KD_16PI, "angles": "31"}, ()),
    # a ring inside the disturbance's support
    "born-ring-inside": ("born", {"ring_radius": "0.3"}, ()),
}

_VOLATILE = ("config", "outputs", "wall_clock_s")


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        data = f.read()
    if path.endswith(".json"):
        payload = json.loads(data)
        if isinstance(payload, dict) and "scenario" in payload:
            for key in _VOLATILE:
                payload.pop(key, None)
            data = json.dumps(payload, indent=1, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(outdir: str) -> dict:
    result = {}
    for name, (scenario, overrides, tables) in RUNS.items():
        rundir = os.path.join(outdir, name)
        os.makedirs(rundir, exist_ok=True)
        ext = "json" if overrides.get("format") == "json" or scenario == "riemann-decay" else "csv"
        argv = [scenario]
        for key, value in overrides.items():
            argv += [f"--{key}", value]
        paths = {key: os.path.join(rundir, f"{key}.{ext}") for key in tables}
        paths["report_out"] = os.path.join(rundir, "report.json")
        for key, path in paths.items():
            argv += [f"--{key}", path]
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        entry = {"exit": code}
        for key, path in paths.items():
            if os.path.exists(path):
                entry[key] = _digest(path)
        result[name] = entry
    with open(os.path.join(outdir, "digest.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    return result


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    for run, entry in main(sys.argv[1]).items():
        hashes = " ".join(f"{k}={v[:12]}" for k, v in entry.items() if k != "exit")
        print(run, entry["exit"], hashes)
