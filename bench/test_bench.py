"""Fast self-check of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that traced spans nest, and that a failing output check shows up
in the failed count.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, (HERE.parent / "src").as_posix())
sys.path.insert(0, HERE.as_posix())

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics(name):
    result, _, record = run.run(name, 1, 1, trace=False, size="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["blas_threads"] == 1 and record["seed"] == 1


@pytest.mark.parametrize("name", NAMES)
def test_layer_metrics(name):
    result, _, _ = run.run(name, 1, 1, trace=True, size="tiny")
    assert result["correct"] and result["failed"] == 0
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == units("per_layer")


@pytest.mark.parametrize("name", NAMES)
def test_spans_nest_and_self_times_add_up(name, tmp_path):
    from dynsparse import cli

    workload = workloads.WORKLOADS[name]
    jobs = workload.make_jobs(workload.tiny, 2, tmp_path)
    tracer = Tracer()
    with tracer.installed() as run_command:
        for job in jobs:
            assert run_command(job.argv) == 0
    assert cli.load_data.__name__ == "load_data" and not hasattr(cli.load_data, "__wrapped__")
    a = tracer.arrays()
    names = np.array(tracer.names)[a["name_id"]]
    child = a["parent"] >= 0
    par = a["parent"][child]
    assert np.all(a["start"][child] >= a["start"][par])
    assert np.all(a["end"][child] <= a["end"][par])
    assert np.all(a["run"][child] == a["run"][par])
    assert set(names[~child]) == {ROOT_SPAN}
    assert sorted(set(a["run"])) == list(range(len(jobs)))
    dur, own = tracer.self_times()
    assert np.all(own >= -1e-9)
    assert own.sum() == pytest.approx(dur[~child].sum(), abs=1e-9)
    assert len(set(names)) > 3  # layers below cli were reached


def test_forced_check_failure_is_counted(monkeypatch):
    name = "prior_sim"
    broken = dataclasses.replace(workloads.WORKLOADS[name], check=lambda out: ["forced"])
    monkeypatch.setitem(workloads.WORKLOADS, name, broken)
    result, notes, _ = run.run(name, 1, 1, trace=True, size="tiny")
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any("forced" in n for n in notes)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
