#!/usr/bin/env python3
"""Run bench/run.py on one or two checkouts in alternating runs; write BENCH_<label>.json.

    python3 tools/bench_collect.py --tree A [--tree B] --label NAME \\
        [--workloads map_ingest,...] [--seeds 1 7] [--seconds 15] [--trace 0 1] \\
        [--pairs 10] [--out DIR]

Each run is one child process ``python3 <tree>/bench/run.py --workload W
--seed S --seconds N --trace T`` started in the tree's root, so each tree
measures its own ``src``.  For every workload, seed and trace mode the
script makes ``--pairs`` pairs of runs, the trees alternating run by run
(tree A first in even pairs, tree B first in odd ones), and keeps each
child's last stdout line (the result line) as it is.

Next to each result line it records ``cpu_s``: the difference of
``resource.getrusage(RUSAGE_CHILDREN)`` user + system time before and
after the child.  That covers the ``run.py`` process and every process it
waited for: its warm-up, speed probes, timed rounds, set-up launches and
peak-RSS child.  Unlike ``wall_s`` it does not count time the process
spent waiting for a CPU.  But ``run.py`` repeats timed rounds, each with
its output checks, until ``--seconds`` run out, so ``cpu_s`` mostly
measures that budget, not the cost of one subcommand: compare trees on
``wall_s``, and read ``cpu_s`` against ``elapsed_s`` (the child's wall
time) to see how much of a run waited for a CPU.

``BENCH_<label>.json`` (in ``--out``, by default the root of this
checkout) holds the machine (platform, CPU count and model, load
averages, Python, numpy and scipy versions), each tree's directory name
and git commit, the settings, every run, and per workload, seed and
trace mode the median, quartiles and IQR of each metric per tree.  With
two trees it also holds the per-pair ratios B / A of each metric, their
median, and how many pairs B wins in the metric's direction
(``BENCHMARK.json``; ``cpu_s`` is better lower).  The script writes
nothing under either tree except what ``run.py`` itself writes there
(``.bench_out/``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CPU_S_COVERS = (
    "user + system CPU time of the run.py child and of every process it waited for "
    "(warm-up, speed probes, timed rounds and their output checks, set-up launches, "
    "peak-RSS child), from getrusage(RUSAGE_CHILDREN) before and after the child; "
    "run.py runs rounds until --seconds run out, so it follows that budget"
)


def last_line(stdout: str) -> str:
    """The last non-blank line of a child's stdout, or '' if there is none."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    return lines[-1] if lines else ""


def metric_values(run: dict) -> dict[str, float] | None:
    """Metric name -> value of one run, with its ``cpu_s``; None if the run failed."""
    if run["exit"] != 0:
        return None
    try:
        result = json.loads(run["line"])
        values = {name: float(m["value"]) for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    values["cpu_s"] = run["cpu_s"]
    return values


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values), "median": statistics.median(values),
        "q1": q1, "q3": q3, "iqr": q3 - q1,
    }


def summarize(runs: list[dict], better: dict[str, str]) -> list[dict]:
    """Per workload, seed and trace mode: each metric's spread per tree and the B / A pairs."""
    groups: dict[tuple, list[dict]] = {}
    for run in runs:
        groups.setdefault((run["workload"], run["seed"], run["trace"]), []).append(run)
    summary = []
    for (workload, seed, trace), group in groups.items():
        trees = sorted({run["tree"] for run in group})
        values = {tree: {} for tree in trees}  # tree -> pair -> metric -> value
        for run in group:
            v = metric_values(run)
            if v is not None:
                values[run["tree"]][run["pair"]] = v
        names = sorted({
            name for per_tree in values.values() for v in per_tree.values() for name in v
        })
        metrics = {}
        for name in names:
            entry = {}
            for tree in trees:
                series = [v[name] for v in values[tree].values() if name in v]
                if series:
                    entry[tree] = quartiles(series)
            if trees == ["A", "B"]:
                pairs = sorted(set(values["A"]) & set(values["B"]))
                ratios = [
                    values["B"][i][name] / values["A"][i][name]
                    for i in pairs
                    if name in values["A"][i] and name in values["B"][i] and values["A"][i][name]
                ]
                if ratios:
                    wins = None
                    if better.get(name) == "lower":
                        wins = sum(r < 1.0 for r in ratios)
                    elif better.get(name) == "higher":
                        wins = sum(r > 1.0 for r in ratios)
                    entry["ratio_B_over_A"] = {
                        "pairs": ratios, "median": statistics.median(ratios), "B_wins": wins,
                    }
            metrics[name] = entry
        failed = {
            tree: sum(run["tree"] == tree and metric_values(run) is None for run in group)
            for tree in trees
        }
        summary.append({
            "workload": workload, "seed": seed, "trace": trace,
            "failed_runs": failed, "metrics": metrics,
        })
    return summary


def directions() -> dict[str, str]:
    """Metric name -> 'lower' or 'higher', from this checkout's BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better["cpu_s"] = "lower"
    return better


def git_commit(tree: Path) -> dict:
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {"name": tree.name, "commit": commit, "dirty": None if status is None else bool(status)}


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "platform": platform.platform(), "cpu_count": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    before = child_cpu_s()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    return {
        "exit": proc.returncode,
        "elapsed_s": time.perf_counter() - t0,
        "cpu_s": child_cpu_s() - before,
        "line": last_line(proc.stdout),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, action="append", required=True,
                        help="a checkout root; give it once or twice (A, then B)")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--workloads", default="map_ingest")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args()
    if len(args.tree) > 2:
        parser.error("give --tree once or twice")
    trees = dict(zip("AB", (t.resolve() for t in args.tree)))
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{tree} has no bench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    started = datetime.datetime.now(datetime.timezone.utc)
    load_before = os.getloadavg()
    runs = []
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            for trace in args.trace:
                for pair in range(args.pairs):
                    # the trees alternate run by run; odd pairs run B first
                    order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
                    for name in order:
                        run = run_once(trees[name], workload, seed, args.seconds, trace)
                        run = {"tree": name, "workload": workload, "seed": seed,
                               "trace": trace, "pair": pair, **run}
                        runs.append(run)
                        print(json.dumps({k: v for k, v in run.items() if k != "line"}),
                              file=sys.stderr, flush=True)
    report = {
        "label": args.label,
        "started_utc": started.isoformat(timespec="seconds"),
        "duration_s": (datetime.datetime.now(datetime.timezone.utc) - started).total_seconds(),
        "machine": {**machine(), "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "trees": {name: git_commit(tree) for name, tree in trees.items()},
        "settings": {"workloads": args.workloads.split(","), "seeds": args.seeds,
                     "seconds": args.seconds, "trace": args.trace, "pairs": args.pairs},
        "cpu_s_covers": CPU_S_COVERS,
        "runs": runs,
        "summary": summarize(runs, directions()),
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
