"""Digest of the data tables, reports and exit codes of a fixed list of runs.

Usage: python3 tools/outputs_digest.py OUTDIR
       python3 tools/outputs_digest.py --compare DIR_A DIR_B

Runs each scenario below through ``waveortho.cli.main`` with one BLAS
thread (a dense product can round differently under two threads), writes its
tables and report under OUTDIR/<run>/, and writes OUTDIR/digest.json: per
run, the exit code and the sha256 of every table and of the report, with the
numpy, scipy and OpenBLAS versions that made them. Reports (and the
riemann-decay table, which is its report) are hashed without ``config``,
``outputs`` and ``wall_clock_s``, which carry paths and timings. Run it in
two checkouts and compare the two digest.json files: a change that keeps
every output byte-identical leaves their runs equal.

tests/outputs_digest.json is a committed digest.json, which
tests/test_outputs_digest.py checks run by run. A change that means to move
an output replaces it with the digest.json of a fresh run.

``--compare DIR_A DIR_B`` reads two such output directories and, for each run
whose digest differs, prints the largest difference of each table column
relative to that column's largest |value| in DIR_A, the relative difference
of each report metric that changed, each check's value and signed margin in
both (a report from before checks carried values shows "unrecorded"), the
checks whose verdict changed, and whether the exit codes are equal. It exits
0 when every digest is equal and 1 otherwise.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

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
    # the automatic mode order 97, 9 past ceil(ka) + 8, inside the first search window
    "sphere-ka80": ("sphere", {"ka": "80"}, ("out", "history_out")),
    # an explicit resolution, and a small ka where b's high orders cancel to rounding
    "sphere-ka1-quad40": ("sphere", {"ka": "1", "quad_resolution": "40"}, ("out", "history_out")),
    # a two-row Hankel table, where h_0' needs order 1; the run fails
    # far_field_matches_mie (exit 1), and its tables are digested all the same
    "sphere-order1-hard": ("sphere", {"ka": "1", "bc": "hard", "basis_size": "1"},
                           ("out", "history_out")),
    "sphere-galerkin": ("sphere", {"solver": "galerkin"}, ("out", "history_out")),
    "sphere-iterate7": ("sphere", {"solver": "iterate:7"}, ("out", "history_out")),
    "sphere-plane-waves": ("sphere", {"basis": "plane-waves", "bc": "hard"}, ()),
    # the benchmark's two strip-bem runs, and the hard strip at 10 degrees
    "strip-4pi-hard-0deg": ("strip", {"kd": KD_4PI, "bc": "hard"}, ("out", "history_out")),
    "strip-4pi-hard-10deg": ("strip", {"kd": KD_4PI, "bc": "hard", "incidence_deg": "10"},
                             ("out", "history_out")),
    "strip-4pi-soft-10deg": ("strip", {"kd": KD_4PI, "bc": "soft", "incidence_deg": "10"},
                             ("out", "history_out")),
    "strip-8pi-no-bem": ("strip", {"kd": KD_8PI, "with_bem": "false"}, ("out", "history_out")),
    # the strip oracle at 58 half-period nodes; the run fails its Galerkin-limit
    # probe (exit 1), and its tables and report are digested all the same
    "strip-8pi-bem": ("strip", {"kd": KD_8PI}, ("out", "history_out")),
    # the default strip run: kd = 16 pi, hard, checked against the strip oracle
    "strip-16pi-default": ("strip", {}, ("out", "history_out")),
    "slit-4pi": ("slit", {"kd": KD_4PI}, ("out", "history_out")),
    "spheroid": ("spheroid", {}, ("out", "history_out")),
    "born-default": ("born", {}, ("out",)),
    "born-strong": ("born", {"amplitude": "4", "h": "0.045"}, ("out",)),
    "born-alt": ("born", {"alt_second_reading": "true"}, ("out",)),
    # a Lippmann-Schwinger solve of 129 GMRES steps, into the second 100-step cycle
    "born-restart": ("born", {"amplitude": "1e5"}, ("out",)),
    "kernel-profile-csv": ("kernel-profile", {}, ("out",)),
    "kernel-profile-json": ("kernel-profile", {"format": "json"}, ("out",)),
    # the hard trace: Hankel and Legendre derivatives on the full sphere grid
    "kernel-profile-hard": ("kernel-profile", {"bc": "hard"}, ("out",)),
    "riemann-decay": ("riemann-decay", {}, ("out",)),
    # runs that a usage rule may refuse: only their exit codes are compared
    "sphere-ka-deg": ("sphere", {"ka_deg": "180"}, ()),
    "strip-4pi-3-angles": ("strip", {"kd": KD_4PI, "angles": "3"}, ()),
    "strip-16pi-31-angles": ("strip", {"kd": KD_16PI, "angles": "31"}, ()),
    # a strip 1/125 of a wavelength wide
    "strip-tiny-kd": ("strip", {"kd": "0.05"}, ()),
    # a ring inside the disturbance's support
    "born-ring-inside": ("born", {"ring_radius": "0.3"}, ()),
    # no key may switch off criterion 5's Galerkin-limit probe: lambda is refused
    "strip-8pi-lambda": ("strip", {"kd": KD_8PI, "with_bem": "false", "lambda": "1e-12"}, ()),
    # a spheroid basis without point sources
    "spheroid-no-sources": ("spheroid", {"n_sources": "0"}, ()),
    # no mode order up to the cap meets the far-field bound, after every order is tried
    "sphere-ka180": ("sphere", {"ka": "180"}, ()),
    # no key may relax the sphere's far-field bound: far_tol is refused
    "sphere-far-tol": ("sphere", {"ka": "12", "bc": "hard", "basis_size": "10", "far_tol": "1"},
                       ()),
    # an anchor past the last surface node, which the library refuses
    "kernel-profile-anchor": ("kernel-profile", {"anchor": "999999"}, ()),
    "kernel-profile-negative-ka": ("kernel-profile", {"ka": "-3"}, ()),
    # a zero disturbance, which leaves the Born checks only zero terms
    "born-zero-amplitude": ("born", {"amplitude": "0"}, ()),
    # Gram matrices that overflow: huge mode traces at a tiny ka, and high orders
    "sphere-ka-1e-15": ("sphere", {"ka": "1e-15"}, ()),
    "sphere-basis-124": ("sphere", {"basis_size": "124"}, ()),
    # one step past the refinement step cap
    "sphere-iterate-over-cap": ("sphere", {"solver": "iterate:2000001"}, ()),
    # Python floats out of range: k^2 underflows in the series oracle, and
    # width^2 overflows in the Gaussian disturbance
    "sphere-ka-1e-200": ("sphere", {"ka": "1e-200"}, ()),
    "born-width-1e300": ("born", {"width": "1e300"}, ()),
    # sizes past physical memory, refused in one short line: the strip's
    # plane-wave directions, the spheroid's Gauss-Legendre degree, and an
    # integer count far beyond what numpy can index
    "strip-kd-1e300": ("strip", {"kd": "1e300"}, ()),
    "spheroid-ka-1e300": ("spheroid", {"ka": "1e300"}, ()),
    "sphere-angles-1e20": ("sphere", {"angles": "100000000000000000000"}, ()),
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


def versions() -> dict:
    """numpy, scipy and the OpenBLAS build each of them calls."""
    found = {}
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        found[module.__name__] = module.__version__
        found[f"{module.__name__} OpenBLAS"] = blas.get("openblas configuration",
                                                        blas["version"]).strip()
    return found


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
        json.dump({"versions": versions(), "runs": result}, f, indent=1, sort_keys=True)
        f.write("\n")
    return result


def _columns(path: str) -> dict:
    """Table columns by name: a CSV header and its rows, or a JSON object of lists."""
    with open(path) as f:
        if path.endswith(".json"):
            return {k: [float(x) for x in v] for k, v in json.load(f).items()}
        rows = list(csv.reader(f))
    return {name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}


def _compare_run(run: str, dir_a: str, dir_b: str, entry_a: dict, entry_b: dict) -> None:
    print(f"{run}: exit {entry_a.get('exit')} -> {entry_b.get('exit')}"
          f" ({'equal' if entry_a.get('exit') == entry_b.get('exit') else 'DIFFERS'})")
    for key in sorted((set(entry_a) | set(entry_b)) - {"exit"}):
        if entry_a.get(key) == entry_b.get(key):
            continue
        if key not in entry_a or key not in entry_b:
            print(f"  {key}: written only in {dir_a if key in entry_a else dir_b}")
            continue
        stem = "report" if key == "report_out" else key
        name = next(n for n in os.listdir(os.path.join(dir_a, run)) if n.startswith(stem + "."))
        path_a, path_b = (os.path.join(d, run, name) for d in (dir_a, dir_b))
        with open(path_a) as f:
            is_report = name.endswith(".json") and "scenario" in json.load(f)
        if not is_report:
            cols_a, cols_b = _columns(path_a), _columns(path_b)
            for col in cols_a:
                a, b = cols_a[col], cols_b.get(col, [])
                if len(a) != len(b):
                    print(f"  {key} {col}: {len(a)} -> {len(b)} rows")
                    continue
                scale = max((abs(x) for x in a), default=0.0) or 1.0
                worst = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
                print(f"  {key} {col}: max |diff| / column max {worst / scale:.2e}")
            continue
        with open(path_a) as fa, open(path_b) as fb:
            rep_a, rep_b = json.load(fa), json.load(fb)
        met_a, met_b = rep_a.get("metrics", {}), rep_b.get("metrics", {})
        for metric in sorted(set(met_a) | set(met_b)):
            a, b = met_a.get(metric), met_b.get(metric)
            if a == b:
                continue
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                rel = abs(b - a) / (abs(a) or 1.0)
                print(f"  {key} metric {metric}: {a!r} -> {b!r} (relative {rel:.2e})")
            else:
                print(f"  {key} metric {metric}: {a!r} -> {b!r}")
        checks_a = {c["name"]: c for c in rep_a.get("checks", [])}
        checks_b = {c["name"]: c for c in rep_b.get("checks", [])}
        changed = []
        for name in {**checks_a, **checks_b}:
            a, b = checks_a.get(name), checks_b.get(name)
            print(f"  {key} check {name}: value {_check_value(a)} -> {_check_value(b)}, "
                  f"margin {_check_margin(a)} -> {_check_margin(b)}")
            if (a or {}).get("passed") != (b or {}).get("passed"):
                changed.append(name)
        print(f"  {key} check verdicts: {len(checks_a)} -> {len(checks_b)} checks, "
              + (f"CHANGED for {', '.join(changed)}" if changed else "all equal"))


def _check_value(c) -> str:
    """A report check's value, or why there is none to show."""
    if c is None:
        return "absent"
    return repr(c["value"]) if "value" in c else "unrecorded"


def _check_margin(c) -> str:
    """A report check's signed margin, positive on the side its relation allows."""
    if c is None or "value" not in c:
        return "-"
    return f"{cli.Check(c['name'], c['value'], c['relation'], c['bound']).margin:+.3g}"


def compare(dir_a: str, dir_b: str) -> bool:
    """Print what differs between two output directories; True if every digest is equal."""
    with open(os.path.join(dir_a, "digest.json")) as fa, \
            open(os.path.join(dir_b, "digest.json")) as fb:
        # a digest.json from before versions were recorded holds the runs alone
        dig_a, dig_b = (json.load(f) for f in (fa, fb))
        dig_a, dig_b = dig_a.get("runs", dig_a), dig_b.get("runs", dig_b)
    runs = sorted(set(dig_a) | set(dig_b))
    same = [run for run in runs if dig_a.get(run) == dig_b.get(run)]
    print(f"{len(same)} of {len(runs)} digests identical")
    for run in runs:
        if run not in same:
            if run in dig_a and run in dig_b:
                _compare_run(run, dir_a, dir_b, dig_a[run], dig_b[run])
            else:
                print(f"{run}: only in {dir_a if run in dig_a else dir_b}")
    return len(same) == len(runs)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(0 if compare(sys.argv[2], sys.argv[3]) else 1)
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    for run, entry in main(sys.argv[1]).items():
        hashes = " ".join(f"{k}={v[:12]}" for k, v in entry.items() if k != "exit")
        print(run, entry["exit"], hashes)
