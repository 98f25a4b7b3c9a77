"""tools/bench_collect.py: parsing and summary of canned result lines, no bench run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_collect.py"


@pytest.fixture(scope="module")
def collect():
    spec = importlib.util.spec_from_file_location("bench_collect", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall_s, work_per_s):
    return json.dumps({
        "correct": True, "attempted": 16, "failed": 0,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "work_per_s": {"value": work_per_s, "unit": "1/s"},
        },
    })


def run(tree, pair, line, exit=0, seed=1):
    return {"tree": tree, "workload": "map_ingest", "seed": seed, "pair": pair,
            "exit": exit, "elapsed_s": 19.0, "line": line}


def test_last_line_is_the_result_line(collect):
    stdout = "wall_s  0.9 s\n# record {}\n" + result_line(0.9, 2000.0) + "\n\n"
    assert collect.last_line(stdout) == result_line(0.9, 2000.0)
    assert collect.last_line("") == ""


def test_metric_values_drops_failed_runs(collect):
    assert collect.metric_values(run("A", 0, result_line(0.9, 2000.0))) == {
        "wall_s": 0.9, "work_per_s": 2000.0,
    }
    assert collect.metric_values(run("A", 0, result_line(0.9, 2000.0), exit=1)) is None
    assert collect.metric_values(run("A", 0, "Traceback (most recent call last):")) is None
    assert collect.metric_values(run("A", 0, "")) is None


def test_summary_gives_quartiles_pair_ratios_and_wins(collect):
    runs = []
    for pair, (a, b) in enumerate([(1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 0.85)]):
        runs.append(run("A", pair, result_line(a, 100.0 / a)))
        runs.append(run("B", pair, result_line(b, 100.0 / b)))
    # a failed B run drops its pair from the ratios
    runs.append(run("A", 4, result_line(1.0, 100.0)))
    runs.append(run("B", 4, "", exit=1))
    better = {"wall_s": "lower", "work_per_s": "higher"}
    [group] = collect.summarize(runs, better)
    assert (group["workload"], group["seed"]) == ("map_ingest", 1)
    assert group["failed_runs"] == {"A": 0, "B": 1}
    wall = group["metrics"]["wall_s"]
    assert wall["A"]["n"] == 5 and wall["B"]["n"] == 4
    assert wall["A"]["median"] == 1.0
    assert wall["B"]["median"] == pytest.approx(0.875)
    assert wall["B"]["iqr"] == pytest.approx(wall["B"]["q3"] - wall["B"]["q1"])
    ratios = wall["ratio_B_over_A"]
    assert ratios["pairs"] == pytest.approx([0.8, 0.75, 1.0 / 0.9, 0.85 / 1.1])
    assert ratios["B_wins"] == 3
    # higher is better for work_per_s: B wins the same three pairs
    assert group["metrics"]["work_per_s"]["ratio_B_over_A"]["B_wins"] == 3


def test_summary_of_one_tree_has_no_ratios(collect):
    runs = [run("A", i, result_line(w, 1.0 / w), seed=7) for i, w in enumerate([1.0, 2.0])]
    [group] = collect.summarize(runs, {"wall_s": "lower"})
    assert group["seed"] == 7
    assert group["metrics"]["wall_s"] == {
        "A": {"n": 2, "median": 1.5, "q1": 0.75, "q3": 2.25, "iqr": 1.5},
    }


def test_directions_come_from_benchmark_json(collect):
    better = collect.directions()
    assert better["wall_s"] == "lower"
    assert better["work_per_s"] == "higher"
