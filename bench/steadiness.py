"""Steadiness check: two sets of benchmark runs on the same code.

Usage (from the repository root):

    python3 bench/steadiness.py

Runs the command of BENCHMARK.json RUNS times in each of SETS sets, for
every workload of BENCHMARK.json, each run with its own seed (set s, run i
uses seed 1000 * s + i), one run at a time. For every end-to-end metric it prints each set's median and spread
(quartile distance over median, from ``statistics.quantiles(n=4)``), the
drift of each set's median from the first set's, the failed share of each
set, and a bound: three times the largest spread or drift seen, at least
0.02 and at most 0.25. The raw results go to
``bench/results/steadiness.json``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]

    results = {}
    for w in workloads:
        for s in range(SETS):
            for i in range(RUNS):
                seed = 1000 * s + i
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", "0"]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return 1
                out = json.loads(done.stdout.strip().splitlines()[-1])
                results.setdefault(w, {}).setdefault(str(s), []).append(out)
                vals = " ".join(f"{m}={out['metrics'][m]['value']:.4g}" for m in metrics)
                print(f"{w} set {s} seed {seed}: {vals} failed {out['failed']}/"
                      f"{out['attempted']} correct {out['correct']}", flush=True)

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "steadiness.json"), "w") as f:
        json.dump(results, f, indent=1)

    print(f"\n{'workload':14} {'metric':12} " + " ".join(
        f"{'median' + str(s):>10} {'spread' + str(s):>8}" for s in range(SETS))
        + f" {'drift':>8} {'bound':>6}")
    bounds = {}
    for w in workloads:
        sets = [results[w][str(s)] for s in range(SETS)]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        for m in metrics:
            vals = [[r["metrics"][m]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            sprs = [spread(v) for v in vals]
            drift = max(abs(x - meds[0]) / meds[0] for x in meds)
            bound = min(0.25, max(0.02, math.ceil(300 * max(sprs + [drift])) / 100))
            bounds[m] = max(bounds.get(m, 0.0), bound)
            print(f"{w:14} {m:12} " + " ".join(
                f"{md:10.4g} {sp:8.4f}" for md, sp in zip(meds, sprs))
                + f" {drift:8.4f} {bound:6.2f}")
        print(f"{w:14} failed shares {sorted(shares)}")
    print("\nbound per metric (largest over workloads):", json.dumps(bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
