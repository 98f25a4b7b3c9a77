#!/usr/bin/env python3
"""Print what fixed dynsparse CLI runs return and write, for byte-identity checks.

    python3 tools/output_digests.py --src SRC [--seeds 1 7] > digests.txt

Each job runs ``python -m dynsparse.cli`` with the package under ``SRC``
(a checkout's ``src`` directory) on ``PYTHONPATH`` and BLAS on one
thread, in a fresh temporary directory.  The jobs are those of
``bench/workloads.py`` at the benchmark's sizes for each seed, a rho-mode
``simulate`` with p = 2, a fixed d = 3 ``simulate`` with p = 3 and
``acf`` jobs at p = 1 and p = 3 for each seed, one-row (p = 1)
``simulate`` jobs on the edges of the Python-float window norm for each
seed (rho mode with its empty windows, fixed d = 1, and fixed
d = 200, longer than numpy's 128-value pairwise block), small runs on
the GIG limit laws for each seed (``fit-map`` at delta = 0 and at gamma
= 0, a fixed-d ``fit-smc`` at delta = 0 and a fixed d = 0 ``simulate``
with p = 3), two ``fit-smc`` jobs per seed on p = 4 predictors with two
rows a step (n < p; rho mode and fixed d = 2, N = 200), and a fixed list
of CLI error cases, among them a sigma outside the float range for each
fit command and a delta whose square overflows for every command.  For
each job the script prints the exit code, stdout, the stderr lines
without their source locations (a warning's ``file:line:`` prefix and a
traceback's frames are dropped), and the sha256 of every file under the
job's ``out_dir``: of the bytes after the ``# run <hash>`` line for a
table, of the whole file otherwise.

Every path a job sees is relative to its temporary directory, so the
outputs of two source trees compare with ``diff``: no difference means
the same exit codes, messages and output bytes.  The script writes
nothing under ``bench/`` or ``SRC``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

_BASE = ["nu=0.5", "delta=0.5", "gamma=1.0", "alpha=0.5", "d=2", "sigma=1.0", "T=20", "seed=3"]
_FIT = ["nu=2.0", "delta=0.0", "gamma=1.0", "alpha=0.5", "d=2", "sigma=0.5", "max_iter=100"]


def load_workloads():
    """``bench/workloads.py`` as a module, without writing its bytecode under ``bench/``."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def bench_jobs(workloads, seeds: list[int]):
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            work = Path(f"{name}-{seed}")
            work.mkdir()
            for i, job in enumerate(workload.make_jobs(workload.sizes, seed, work)):
                yield f"{name} seed={seed} job{i}", job.argv, job.out_dir


def sim_jobs(seeds: list[int]):
    for seed in seeds:
        out = f"rho-simulate-{seed}"
        yield out, [
            "simulate", "nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "rho=0.8",
            "sigma=1.0", "p=2", "T=2000", f"seed={seed}", f"out_dir={out}",
        ], Path(out)
        for out, rows in ((f"acf-{seed}", []), (f"acf-p3-{seed}", ["p=3"])):
            yield out, [
                "acf", "nu=0.1", "delta=0.01", "gamma=1.0", "alpha=0.0", "d=20", "sigma=1.0",
                *rows, "T=20000", "max_lag=30", f"seed={seed}", f"out_dir={out}",
            ], Path(out)
        out = f"d3-p3-simulate-{seed}"
        yield out, [
            "simulate", "nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.7", "d=3",
            "sigma=1.0", "p=3", "T=2000", f"seed={seed}", f"out_dir={out}",
        ], Path(out)
        for label, window in (("rho", ["rho=0.5"]), ("d1", ["d=1"]), ("d200", ["d=200"])):
            out = f"one-row-{label}-{seed}"
            yield out, [
                "simulate", "nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.7", *window,
                "sigma=1.0", "p=1", "T=2000", f"seed={seed}", f"out_dir={out}",
            ], Path(out)


def limit_jobs(workloads, seeds: list[int]):
    """Runs whose priors sit on the delta = 0 (gamma) or gamma = 0 (Student) limit."""
    for seed in seeds:
        portfolio, signal = Path(f"limit-portfolio-{seed}.csv"), Path(f"limit-signal-{seed}.csv")
        rng = np.random.default_rng(seed)
        workloads.write_csv(portfolio, *workloads.portfolio_data(30, 5, rng))
        workloads.write_csv(signal, *workloads.signal_data(40, rng))
        fit = ["alpha=0.5", "d=2", "sigma=0.5", "max_iter=200", f"data_path={portfolio}"]
        cases = {
            "map-delta0": ["fit-map", "nu=2.0", "delta=0.0", "gamma=1.0", *fit],
            "map-gamma0": ["fit-map", "nu=-2.0", "delta=0.5", "gamma=0.0", *fit],
            "smc-delta0": [
                "fit-smc", "nu=2.0", "delta=0.0", "gamma=1.0", "alpha=0.5", "d=2", "sigma=1.0",
                "n_particles=50", "n_iters=5", f"seed={seed}", f"data_path={signal}",
            ],
            # shape-0.01 gamma draws underflow to exact zeros, so the path holds signed zeros
            "simulate-d0": [
                "simulate", "nu=0.01", "delta=0.0", "gamma=1.0", "alpha=0.5", "d=0",
                "sigma=1.0", "p=3", "T=2000", f"seed={seed}",
            ],
        }
        for label, argv in cases.items():
            out = f"limit-{label}-{seed}"
            yield f"limit {label} seed={seed}", [*argv, f"out_dir={out}"], Path(out)


def smc_jobs(workloads, seeds: list[int]):
    """``fit-smc`` at p = 4 with two rows a step, in rho mode and at fixed d = 2."""
    for seed in seeds:
        data = Path(f"smc-portfolio-{seed}.csv")
        workloads.write_csv(data, *workloads.portfolio_data(30, 2, np.random.default_rng(seed)))
        for label, window in (("rho", "rho=0.8"), ("d2", "d=2")):
            out = f"smc-p4-{label}-{seed}"
            yield out, [
                "fit-smc", "nu=0.5", "delta=0.3", "gamma=1.0", "alpha=0.5", "sigma=0.5",
                window, "n_particles=200", "n_iters=3", f"seed={seed}", f"data_path={data}",
                f"out_dir={out}",
            ], Path(out)


def error_jobs():
    """CLI runs that end in a usage, configuration, input or model error."""
    Path("err-data.csv").write_text("t,y,x1\n1,0.5,1\n2,0.2,1\n3,0.1,1\n")
    Path("err-nan.csv").write_text("t,y,x1\n1,0.5,1\n2,nan,1\n")
    Path("err-huge.csv").write_text("t,y,x1\n1,0.5,1\n2,1e300,1\n3,0.1,1\n")
    lines = ["t,y,x1,x2"]  # the group norm's square overflows in the t = 3 window
    for t in range(1, 4):
        for i in range(5):
            y = 1e150 * ((-1) ** (t + i)) * (1.0 + 0.1 * i)
            lines.append(f"{t},{y!r},{1.0 + 0.3 * i - 0.2 * t!r},{0.5 - 0.1 * i * t!r}")
    Path("err-overflow.csv").write_text("\n".join(lines) + "\n")
    Path("err-f1/manifest.json").mkdir(parents=True)
    Path("err-f2/path.csv").mkdir(parents=True)
    cases = {
        "unknown-key": ["simulate", *_BASE, "bogus_key=1"],
        "int-type": ["simulate", *_BASE, "T=ten"],
        "float-type": ["simulate", *_BASE, "nu=abc"],
        "probs-type": ["fit-smc", *_BASE, "n_particles=10", "n_iters=2", "probs=a,b",
                       "data_path=err-data.csv"],
        "probs-range": ["fit-smc", *_BASE, "n_particles=10", "n_iters=2", "probs=0.9,0.1",
                        "data_path=err-data.csv"],
        "missing-model-key": ["simulate", *_BASE[1:]],
        "missing-required-key": ["simulate", *_BASE[:-1]],
        "no-equals": ["simulate", *_BASE, "T10"],
        "model-range": ["simulate", *_BASE, "alpha=1.5"],
        "negative-seed": ["simulate", *_BASE, "seed=-1"],
        "tol-range": ["fit-map", *_FIT, "tol=0", "data_path=err-data.csv"],
        "glasso-gamma": ["fit-glasso", *_FIT, "gamma=0", "delta=0.3", "data_path=err-data.csv"],
        "fit-p": ["fit-map", *_FIT, "p=3", "data_path=err-data.csv"],
        "parse-nan": ["fit-map", *_FIT, "data_path=err-nan.csv"],
        "missing-data": ["fit-map", *_FIT, "data_path=err-missing.csv"],
        "out_dir-file": ["simulate", *_BASE, "out_dir=err-data.csv"],
        "out_dir-manifest-dir": ["simulate", *_BASE, "out_dir=err-f1"],
        "out_dir-table-dir": ["simulate", *_BASE, "out_dir=err-f2"],
        "map-overflow": ["fit-map", *_FIT, "d=0", "data_path=err-huge.csv"],
        "glasso-no-root": ["fit-glasso", *_FIT, "sigma=0.01", "data_path=err-overflow.csv"],
    }
    # sigma^2 overflows, underflows to 0, or has an infinite reciprocal
    smc = ["n_particles=10", "n_iters=2", "seed=1"]
    for sigma in ("1e200", "1e-200", "1e-155"):
        for command, extra in (("fit-map", []), ("fit-glasso", []), ("fit-smc", smc)):
            cases[f"sigma-{sigma}-{command}"] = [
                command, *_FIT, *extra, f"sigma={sigma}", "data_path=err-data.csv",
            ]
    # delta^2 overflows; gamma = 0.01 keeps delta * gamma inside the GIG kernels' range
    huge = ["nu=1.0", "delta=1e155", "gamma=0.01", "alpha=0.5", "sigma=1.0"]
    for label, argv in {
        "simulate-d2": ["simulate", "d=2", "T=5", "seed=1"],
        "simulate-d0": ["simulate", "d=0", "T=5", "seed=1"],
        "simulate-rho": ["simulate", "rho=0.8", "T=5", "seed=1"],
        "acf": ["acf", "d=2", "T=50", "max_lag=5", "seed=1"],
        "fit-map": ["fit-map", "d=2", "max_iter=100"],
        "fit-glasso": ["fit-glasso", "d=2", "max_iter=100"],
        "fit-smc-d2": ["fit-smc", "d=2", *smc], "fit-smc-rho": ["fit-smc", "rho=0.8", *smc],
    }.items():
        cases[f"delta-1e155-{label}"] = [*argv, *huge, "data_path=err-data.csv"]
    for label, argv in cases.items():
        out = dict(a.split("=", 1) for a in argv if "=" in a).get("out_dir")
        if out is None:
            out = f"err-{label}"
            argv = [*argv, f"out_dir={out}"]
        yield f"error {label}", argv, Path(out)


def all_jobs(workloads, seeds: list[int]) -> list[tuple[str, list[str], Path]]:
    """(label, argv, out_dir) of every job, with its input files written to the cwd."""
    return [
        *bench_jobs(workloads, seeds), *sim_jobs(seeds), *limit_jobs(workloads, seeds),
        *smc_jobs(workloads, seeds), *error_jobs(),
    ]


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if data.startswith(b"# run "):
        data = data.split(b"\n", 1)[1]
    return hashlib.sha256(data).hexdigest()


def run_job(label: str, argv: list[str], out: Path, env: dict) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "dynsparse.cli", *argv],
        env=env, capture_output=True, text=True, timeout=600,
    )
    print(f"== {label}")
    print(f"argv: {' '.join(argv)}")
    print(f"exit: {proc.returncode}")
    for line in proc.stdout.splitlines():
        print(f"stdout: {line}")
    for line in proc.stderr.splitlines():
        if line[:1].isspace() or line.startswith("Traceback "):
            continue
        print(f"stderr: {re.sub(r'^[^ ]+:[0-9]+: ', '', line)}")
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    for path in files:
        print(f"sha256 {path.as_posix()}: {_digest(path)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if not (src / "dynsparse" / "cli.py").is_file():
        parser.error(f"{src} holds no dynsparse package")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    workloads = load_workloads()
    with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
        os.chdir(work)
        for job in all_jobs(workloads, args.seeds):
            run_job(*job, env)
            sys.stdout.flush()
        os.chdir(ROOT)


if __name__ == "__main__":
    main()
