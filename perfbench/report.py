"""Measure the reference figures of perfbench/README.md again.

    python3 perfbench/report.py                       # 10 seeds, 2 traced runs
    python3 perfbench/report.py --workloads resolution --seeds 5 --traced 0

For each workload, runs perfbench/run.py once per seed untraced and
prints, per end-to-end metric, the median, the quartiles and their
distance as a share of the median (the spread the bounds of
BENCHMARK.json are compared with).  The traced runs give the per-layer
self times as shares of run_s, and the tracing overhead: the median
traced run_s minus the median untraced run_s.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10, help="untraced runs, seeds 1..N")
    ap.add_argument("--traced", type=int, default=2, help="traced runs, seeds 1..N")
    args = ap.parse_args(argv)

    for workload in args.workloads.split(","):
        print(f"\n## {workload}\n")
        untraced = [run_once(workload, s, spec["run_seconds"], 0) for s in range(1, args.seeds + 1)]
        ops = {(r["attempted"], r["failed"], r["correct"]) for r, _ in untraced}
        print(f"operations (attempted, failed, correct) per run: {sorted(ops)}")
        if len(untraced) >= 2:
            print("\n| metric | median | q1 | q3 | (q3-q1)/median | bound |")
            print("|---|---|---|---|---|---|")
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r, _ in untraced]
                med, q1, q3, rel = spread(values)
                print(f"| {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                      f"| {rel:.3f} | {m['bound']} |")
        if not args.traced:
            continue
        traced = [run_once(workload, s, spec["run_seconds"], 1) for s in range(1, args.traced + 1)]
        run_s = statistics.median(rec["run_s"] for _, rec in traced)
        print(f"\nper-layer metrics, median of {len(traced)} traced runs "
              f"(times as a share of traced run_s = {run_s:.3f} s):\n")
        print("| metric | value | share of run_s |")
        print("|---|---|---|")
        for m in spec["per_layer"]:
            value = statistics.median(r["metrics"][m["name"]]["value"] for r, _ in traced)
            if value == 0:
                continue
            share = f"{value / run_s:.1%}" if m["unit"] == "s" else ""
            print(f"| {m['name']} | {value:.4g} {m['unit']} | {share} |")
        if untraced:
            base = statistics.median(rec["run_s"] for _, rec in untraced)
            print(f"\ntracing overhead: traced run_s {run_s:.3f} s - untraced run_s "
                  f"{base:.3f} s = {run_s - base:+.3f} s ({(run_s - base) / base:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
