#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads smc_pimh,prior_sim --seeds 1-10 \\
        --seconds 15 [--trace 0|1] [--json FILE]

For every workload and metric it prints the median over the seeds, the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), and the wall time each run of
``run.py`` took.  ``--json`` also writes every run's result line.
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


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, (HERE / "run.py").as_posix(), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = next(json.loads(x[len("# record "):]) for x in lines
                          if x.startswith("# record "))
            runs.append({"seed": seed, "run_seconds": elapsed, "result": result,
                         "raw_wall_s": record.get("raw_wall_s")})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {
                "median": statistics.median(values),
                "iqr_share": spread(values) if len(values) > 1 else 0.0,
                "unit": runs[0]["result"]["metrics"][name]["unit"],
            }
            print(f"  {name:40s} median {summary[name]['median']:>14.6g} "
                  f"{summary[name]['unit']:6s} spread {summary[name]['iqr_share']:.4f}  "
                  + " ".join(f"{v:.4g}" for v in values))
        if runs[0]["raw_wall_s"] is not None:
            values = [r["raw_wall_s"] for r in runs]
            print(f"  {'(raw wall_s)':40s} median {statistics.median(values):>14.6g} s      "
                  f"spread {spread(values) if len(values) > 1 else 0.0:.4f}  "
                  + " ".join(f"{v:.4g}" for v in values))
        print(f"  run time: max {max(r['run_seconds'] for r in runs):.1f} s, "
              f"median {statistics.median(r['run_seconds'] for r in runs):.1f} s", flush=True)
        report[workload] = {"summary": summary, "runs": runs}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
