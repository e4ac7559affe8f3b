"""Benchmark: time to validated scenario answers, per workload.

Usage (from the repository root):

    python3 bench/run.py --workload strip-bem --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process: one untimed
warm-up pass, then timed passes until ``--seconds`` have been measured. Each
pass runs the workload's operations once, in an order shuffled by
``--seed``, and checks every output (``checks.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are ``setup_s``, ``pass_s`` and
``peak_rss_mb``. With ``--trace 1`` untraced and traced passes alternate,
and the metrics are the per-module self times and counts of ``tracing.py``
plus ``trace.overhead_s``; the spans are written to ``bench/results/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy is imported, here and in the set-up probes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from checks import check_operation  # noqa: E402
from workloads import WORKLOADS, build_configs, output_paths  # noqa: E402

SETUP_STARTS = 7
SETUP_PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import waveortho, waveortho.cli as cli
import workloads
workloads.build_configs(cli, {workload!r}, {out_dir!r})
print(time.monotonic() - {t0!r})
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def load_program():
    """Import waveortho from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "waveortho", "cli.py")):
        sys.exit(f"bench: no waveortho sources under {SRC}")
    sys.path.insert(0, SRC)
    import waveortho
    import waveortho.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(waveortho.__file__))) != SRC:
        sys.exit(f"bench: imported waveortho from {waveortho.__file__}, not {SRC}")
    return waveortho


def setup_seconds(workload: str, out_dir: str) -> float:
    """Median time from a fresh interpreter to waveortho imported and configs built.

    One untimed start first, so that byte-compiling a fresh checkout is not
    counted; then SETUP_STARTS timed starts.
    """
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.monotonic()
        code = SETUP_PROBE.format(src=SRC, here=HERE, workload=workload,
                                  out_dir=out_dir, t0=t0)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_pass(cli, built, order, out_dir, tracer=None, tag=""):
    """Run the operations once in ``order``.

    Returns (busy seconds, failed labels, unexpectedly failed labels).
    """
    seen = {}
    busy = 0.0
    failed, unexpected = [], []
    for i in order:
        op, cfg = built[i]
        table, report = output_paths(out_dir, op)
        for path in (table, report):
            if path and os.path.exists(path):
                os.remove(path)
        if tracer is not None:
            tracer.op_id = f"{tag}:{op.label}"
        t0 = time.perf_counter()
        try:
            cli.run_scenario(op.scenario, cfg)
            raised = None
        except Exception as e:  # a crashing scenario is a failed operation
            raised = f"raised {type(e).__name__}: {e}"
        busy += time.perf_counter() - t0
        if raised is not None:
            expected, wrong = [], [raised]
        else:
            try:
                expected, wrong = check_operation(op, cfg, table, report, seen)
            except (OSError, ValueError, KeyError, IndexError) as e:
                expected, wrong = [], [f"outputs unreadable: {type(e).__name__}: {e}"]
        if expected or wrong:
            failed.append(op.label)
        if wrong:
            unexpected.append(op.label)
            print(f"bench: {op.label} failed: {'; '.join(wrong + expected)}", file=sys.stderr)
    return busy, failed, unexpected


def main(argv=None) -> int:
    args = parse_args(argv)
    package = load_program()
    cli = package.cli
    out_dir = os.path.join(RESULTS, f"out-{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        setup_s = setup_seconds(args.workload, out_dir) if not args.trace else None
        built = build_configs(cli, args.workload, out_dir)
        rng = random.Random(args.seed)
        attempted, failed, unexpected = 0, [], set()

        def one_pass(tracer=None, tag=""):
            nonlocal attempted
            order = list(range(len(built)))
            rng.shuffle(order)
            busy, failed_labels, wrong = run_pass(cli, built, order, out_dir, tracer, tag)
            attempted += len(built)
            failed.extend(failed_labels)
            unexpected.update(wrong)
            return busy

        one_pass()  # warm-up: caches, lazy imports, first-touch allocations
        plain, traced, layers = [], [], []
        tracer = None
        if args.trace:
            from tracing import Tracer, unit

            tracer = Tracer()
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(one_pass())
            if tracer is not None:
                first = tracer.begin_pass()
                tracer.install(package)
                try:
                    traced.append(one_pass(tracer, tag=f"pass{len(traced)}"))
                finally:
                    tracer.uninstall()
                layers.append(tracer.pass_metrics(first))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": unit(name)} for name in layers[0]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json"))

    passes = len(plain) + len(traced)
    print(f"bench: workload {args.workload}, seed {args.seed}, {passes} timed passes "
          f"after 1 warm-up, BLAS threads {BLAS_THREADS}, nproc {len(os.sched_getaffinity(0))}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if unexpected:
        print("bench: unexpected failures: " + ", ".join(sorted(unexpected)))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
