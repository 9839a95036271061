"""Run one prooflab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cfi-monpc --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; prooflab is imported from
./src.  The workload runs whole rounds of verdict calls (at least one)
until the calls have taken --seconds, and checks every verdict.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  A run record (and,
traced, every span) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5


def parse_args(argv, spec: dict):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the monotonic clock and exit "
                         "(one set-up sample, started by a measuring run)")
    return ap.parse_args(argv)


def setup_seconds(args) -> float:
    """Median over fresh processes of the time from spawning the
    interpreter to having imported prooflab and built the inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        # perf_counter is the system-wide monotonic clock, so the child's
        # reading and the parent's compare
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--setup-only"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    if not (SRC / "prooflab" / "__init__.py").is_file():
        print(f"error: no prooflab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Run, peak_rss_mb
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](Run(args.workload, False), args.seed)
        print(time.perf_counter())
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    run = Run(args.workload, bool(args.trace))
    with run.span("setup"):
        workload = workloads.WORKLOADS[args.workload](run, args.seed)
    # whole rounds until their verdict calls add up to --seconds; the
    # wall-clock cap keeps a run short should the checks outweigh the calls
    start, measured = time.perf_counter(), 0.0
    while True:
        with run.round():
            workload.round(run)
        measured += run.rounds[-1]["run_s"]
        if measured >= args.seconds or time.perf_counter() - start >= 3 * args.seconds:
            break

    run_s = statistics.median(r["run_s"] for r in run.rounds)
    if args.trace:
        times = run.self_times()
        n_rounds = len(run.rounds)
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name in run.counts:
                value = run.counts[name] / n_rounds
            else:
                value = times.get(name.removesuffix("_s"), 0.0)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        values = {"setup_s": setup_s, "run_s": run_s,
                  "cpu_s": statistics.median(r["cpu_s"] for r in run.rounds),
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    for line in run.wrong_checks + run.errors:
        print(f"FAILED: {line}", file=sys.stderr)
    result = {"correct": not run.wrong_checks, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "run_s": run_s, "rounds": run.rounds,
              "wrong_checks": run.wrong_checks, "errors": run.errors,
              "result": result, "spans": run.span_records()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
