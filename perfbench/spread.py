#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
named workload, from the repository root, and prints for every metric
the median, the quartiles and the spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median. End-to-end metrics are checked against their bound.

    python3 perfbench/spread.py --workload disease-serve --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 [--trace 1]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="a workload name or 'all'")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            start = time.monotonic()
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - start
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} ({took:.1f} s)",
                  flush=True)
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
                ok &= spread <= bound
            print(f"{name:<30} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
