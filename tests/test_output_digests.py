"""tools/output_digests.py: its job list and committed digests, without running any job."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def jobs(tmp_path, monkeypatch):
    """The tool as a module and its jobs at the default seeds, inputs written under tmp_path."""
    # loading the tool and bench/workloads.py sets these; undo both afterwards
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setitem(sys.modules, "workloads", None)
    spec = importlib.util.spec_from_file_location("output_digests", TOOLS / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    workloads = digests.load_workloads()
    monkeypatch.chdir(tmp_path)
    return digests, digests.all_jobs(workloads, [1, 7])


def test_job_labels_and_out_dirs_are_unique(jobs):
    _, jobs = jobs
    labels = [label for label, _, _ in jobs]
    outs = [out.resolve() for _, _, out in jobs]
    assert len(set(labels)) == len(labels)
    assert len(set(outs)) == len(outs)
    # no job writes under another's out_dir
    for out in outs:
        assert not any(other in out.parents for other in outs), out


def test_committed_digests_list_every_job(jobs):
    # tools/digests.txt holds one block per job, in the order the jobs run,
    # after a header that names the versions and the numpy dispatch
    digests, jobs = jobs
    head, saved = digests.read_digests(TOOLS / "digests.txt")
    assert list(saved) == [label for label, _, _ in jobs]
    assert [line.split(" ", 2)[1] for line in head[:3]] == ["python", "numpy", "scipy"]
    assert [line.split(" ")[2] for line in head[3:]] == [f"{u}:" for u in digests._UFUNCS]
