#!/usr/bin/env python3
"""Run bench/run.py on one or two checkouts in alternating runs; write BENCH_<label>.json.

    python3 tools/bench_collect.py --tree A [--tree B] [--label NAME] \\
        [--workloads map_ingest,...] [--seeds 1 7] [--pairs 10] [--out DIR]

Each run is one child process ``python3 <tree>/bench/run.py --workload W
--seed S --seconds N`` started in the tree's root, so each tree measures
its own ``src``; N is ``run_seconds`` of this checkout's
``BENCHMARK.json``, so both trees run the benchmark's own length.  For
every workload and seed the script makes ``--pairs`` pairs of runs, the
trees alternating run by run (tree A first in even pairs, tree B first
in odd ones), and keeps each child's last stdout line (the result line)
as it is, next to the child's exit code and wall time (``elapsed_s``).

``BENCH_<label>.json`` (in ``--out``, by default the root of this
checkout; the label defaults to the workload names joined by ``_``)
holds the machine (platform, CPU count and model, load averages, Python,
numpy and scipy versions), each tree's directory name and git commit,
the settings, every run, and per workload and seed the median, quartiles
and IQR of each metric per tree.  With two trees it also holds the
per-pair ratios B / A of each metric, their median, and how many pairs B
wins in the metric's direction (``BENCHMARK.json``).  The script writes
nothing under either tree except what ``run.py`` itself writes there
(``.bench_out/``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def last_line(stdout: str) -> str:
    """The last non-blank line of a child's stdout, or '' if there is none."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    return lines[-1] if lines else ""


def metric_values(run: dict) -> dict[str, float] | None:
    """Metric name -> value of one run; None if the run failed."""
    if run["exit"] != 0:
        return None
    try:
        result = json.loads(run["line"])
        return {name: float(m["value"]) for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


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
    """Per workload and seed: each metric's spread per tree and the B / A pairs."""
    groups: dict[tuple, list[dict]] = {}
    for run in runs:
        groups.setdefault((run["workload"], run["seed"]), []).append(run)
    summary = []
    for (workload, seed), group in groups.items():
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
            "workload": workload, "seed": seed,
            "failed_runs": failed, "metrics": metrics,
        })
    return summary


def directions() -> dict[str, str]:
    """Metric name -> 'lower' or 'higher', from this checkout's BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


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


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    return {
        "exit": proc.returncode,
        "elapsed_s": time.perf_counter() - t0,
        "line": last_line(proc.stdout),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, action="append", required=True,
                        help="a checkout root; give it once or twice (A, then B)")
    parser.add_argument("--label", help="the file is BENCH_<label>.json")
    parser.add_argument("--workloads", default="map_ingest")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
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
    workloads = args.workloads.split(",")
    label = args.label or "_".join(workloads)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    started = datetime.datetime.now(datetime.timezone.utc)
    load_before = os.getloadavg()
    runs = []
    for workload in workloads:
        for seed in args.seeds:
            for pair in range(args.pairs):
                # the trees alternate run by run; odd pairs run B first
                order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
                for name in order:
                    run = run_once(trees[name], workload, seed, seconds)
                    run = {"tree": name, "workload": workload, "seed": seed, "pair": pair, **run}
                    runs.append(run)
                    print(json.dumps({k: v for k, v in run.items() if k != "line"}),
                          file=sys.stderr, flush=True)
    report = {
        "label": label,
        "started_utc": started.isoformat(timespec="seconds"),
        "duration_s": (datetime.datetime.now(datetime.timezone.utc) - started).total_seconds(),
        "machine": {**machine(), "loadavg_before": load_before, "loadavg_after": os.getloadavg()},
        "trees": {name: git_commit(tree) for name, tree in trees.items()},
        "settings": {"workloads": workloads, "seeds": args.seeds,
                     "run_seconds": seconds, "pairs": args.pairs},
        "runs": runs,
        "summary": summarize(runs, directions()),
    }
    path = args.out / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
