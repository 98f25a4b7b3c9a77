"""tools/output_digests.py: its job list, built without running any job."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def test_job_labels_and_out_dirs_are_unique(tmp_path, monkeypatch):
    # loading the tool and bench/workloads.py sets these; undo both afterwards
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setitem(sys.modules, "workloads", None)
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    workloads = digests.load_workloads()
    monkeypatch.chdir(tmp_path)
    jobs = digests.all_jobs(workloads, [1, 7])
    labels = [label for label, _, _ in jobs]
    outs = [out.resolve() for _, _, out in jobs]
    assert len(set(labels)) == len(labels)
    assert len(set(outs)) == len(outs)
    # no job writes under another's out_dir
    for out in outs:
        assert not any(other in out.parents for other in outs), out
