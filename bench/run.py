#!/usr/bin/env python3
"""Benchmark of the dynsparse CLI fits, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the code under test is the
checkout's ``src/`` (put on ``sys.path``, not installed).  The seed
makes the workload's inputs, which are written under ``.bench_out/``;
the program receives only those CSVs and a config file.  The load is a
closed loop with one client: one subcommand runs at a time, in this
process, through ``dynsparse.cli.run_command``.  BLAS runs one thread.

``--trace 0`` measures the end-to-end metrics: wall time per
subcommand after a warm-up, work per second, set-up time (fresh
interpreter to ``dynsparse.cli`` imported) and the peak RSS of a fresh
process running the workload once.  The three times are expressed at a
reference machine speed measured by a speed probe (see ``probe``); the
raw times are printed and recorded too.  ``--trace 1`` alternates untraced
and traced rounds and reports the per-layer metrics from spans recorded
around the library's public functions (see ``tracing.py``).

Every subcommand run is an operation.  It fails on a nonzero exit, a
``dynsparse verify`` mismatch, a failed output check, outputs that
differ from an earlier run with the same seed, or (traced) counts that
differ from an earlier traced run.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

BLAS_THREADS = 1
# pinned before numpy loads; child processes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# End-to-end metrics: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_LAUNCHES = 3  # timed import-only launches, besides the peak-RSS child

# Speed probe.  On a shared machine the raw wall time of identical work
# drifts by tens of percent over tens of seconds, as other tenants load
# the cores.  A fixed loop of Python arithmetic and small BLAS calls (no
# dynsparse code), timed between the measured subcommands and launches,
# tracks that drift.  The end-to-end times are divided by the run's
# median probe time over PROBE_REF_S, i.e. expressed at the speed at
# which the probe takes PROBE_REF_S.  Raw times are printed and recorded.
PROBE_REF_S = 0.012
PROBE_REPEATS = 3
_PROBE_A = np.random.default_rng(0).standard_normal((30, 30))
_PROBE_SPD = _PROBE_A @ _PROBE_A.T + 30.0 * np.eye(30)


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


class Ledger:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def quiet_call(run_command, argv: list[str]):
    """Run one subcommand with its stdout swallowed; returns (seconds, code)."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = run_command(argv)
        except Exception as exc:  # a crash is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, code


def manifest_outputs(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())["outputs"]


def inspect(workload, job, code, seen: dict) -> list[str]:
    """Exit code, ``dynsparse verify``, then the workload's output check on
    the first run of a job and byte-identical outputs on every later run."""
    from dynsparse import cli

    if code != 0:
        return [f"exit status {code}"]
    _, verify = quiet_call(cli.run_command, ["verify", job.out_dir.as_posix()])
    if verify != 0:
        return [f"dynsparse verify failed ({verify})"]
    outputs = manifest_outputs(job.out_dir)
    if job.out_dir not in seen:
        seen[job.out_dir] = outputs
        try:
            return workload.check(job.out_dir)
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc}"]
    if outputs != seen[job.out_dir]:
        return ["outputs differ from an earlier run with the same seed"]
    return []


def launch_child(extra: list[str]) -> tuple[float, str]:
    """Start ``child.py``; returns (seconds until dynsparse.cli was ready,
    whatever the child printed after that)."""
    # bytecode is cached (under .bench_out), as for an installed package,
    # whatever the caller's environment says
    env = dict(os.environ, PYTHONPATH=SRC.as_posix(),
               PYTHONPYCACHEPREFIX=(OUT / "pycache").as_posix())
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, (HERE / "child.py").as_posix(), *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
    if first.strip() != "ready":
        raise HarnessError(f"child process could not import dynsparse.cli (exit {proc.returncode})")
    return ready, rest


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(samples, n=100)[q - 1]


def probe() -> float:
    """Median seconds of the speed probe's loop."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(800):
            b = _PROBE_A @ _PROBE_A
            np.linalg.cholesky(_PROBE_SPD)
            acc += sum(float(x) for x in b[i % 30])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_round(workload, jobs, run_command, ledger, seen, label, after=None,
              probes: list[float] | None = None) -> list[float]:
    """Run every job once; returns the seconds of each subcommand.  Given
    a ``probes`` list, appends a probe time before the first job and
    after each job."""
    times = []
    if probes is not None:
        probes.append(probe())
    for k, job in enumerate(jobs):
        seconds, code = quiet_call(run_command, job.argv)
        times.append(seconds)
        if probes is not None:
            probes.append(probe())
        problems = inspect(workload, job, code, seen)
        if after is not None and not problems:
            problems = after(k)
        ledger.record(f"{label} job {k}", problems)
    return times


def measure_end_to_end(workload, jobs, warm, seconds, ledger, seen, notes, details) -> dict:
    from dynsparse import cli

    # set-up: one unmeasured launch fills the bytecode and file caches
    launch_child([])
    setup, setup_probes = [], [probe()]
    for _ in range(SETUP_LAUNCHES):
        setup.append(launch_child([])[0])
        setup_probes.append(probe())
    ready, rest = launch_child([json.dumps(jobs[0].argv), jobs[0].out_dir.as_posix()])
    setup.append(ready)
    child = json.loads(rest.strip().splitlines()[-1])
    if child["code"] == 0:
        seen[jobs[0].out_dir] = child["outputs"]
        problems = inspect(workload, jobs[0], 0, {})
    else:
        problems = [f"exit status {child['code']} in a fresh process"]
    ledger.record("fresh-process job 0", problems)

    run_round(workload, warm, cli.run_command, ledger, seen, "warm-up")
    rounds: list[list[float]] = []
    probes: list[float] = []
    t_start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, jobs, cli.run_command, ledger, seen, "timed",
                                probes=probes))
        typical = statistics.median(sum(r) for r in rounds)
        if time.perf_counter() - t_start + typical > seconds:
            break
    # machine slowness relative to the reference: > 1 means slower
    slow = statistics.median(probes) / PROBE_REF_S
    setup_slow = statistics.median(setup_probes) / PROBE_REF_S
    per_run = [t / slow for r in rounds for t in r]
    raw_wall = statistics.median(sum(r) / len(r) for r in rounds)
    metrics = {
        "wall_s": raw_wall / slow,
        "work_per_s": sum(job.units for job in jobs) / len(jobs) / (raw_wall / slow),
        "setup_s": statistics.median(setup) / setup_slow,
        "peak_rss_mb": child["maxrss_kb"] * 1024 / 1e6,
    }
    notes.append(f"wall_s: median over {len(rounds)} round(s) of {len(jobs)} job(s), "
                 f"{len(per_run)} subcommand runs")
    notes.append(f"raw wall_s {raw_wall:.6f} s and raw setup_s {statistics.median(setup):.6f} s; "
                 f"machine slowness {slow:.4f} and {setup_slow:.4f} "
                 f"(median of {len(probes)} and {len(setup_probes)} probes / {PROBE_REF_S} s)")
    tail = tail_percentile(per_run)
    if tail:
        notes.append(f"wall_s p{tail[0]}: {tail[1]:.6f} s over {len(per_run)} runs")
    notes.append(f"work_per_s: {workload.unit} per second")
    notes.append(f"setup_s: median of {len(setup)} launches")
    details.update(raw_wall_s=raw_wall, raw_job_seconds=rounds, probe_seconds=probes,
                   raw_setup_seconds=setup, setup_probe_seconds=setup_probes)
    return metrics


def measure_layers(workload, jobs, warm, seconds, ledger, seen, notes, details,
                   spans_path) -> dict:
    from dynsparse import cli

    from tracing import EXACT, LAYERS, Tracer

    run_round(workload, warm, cli.run_command, ledger, seen, "warm-up")
    untraced: list[float] = []
    traced: list[tuple[float, Tracer]] = []
    reference: dict[int, dict] = {}

    def traced_round() -> None:
        tracer = Tracer()

        def same_counts(k: int) -> list[str]:
            got = tracer.summary(run_ids={k})
            want = reference.setdefault(k, got)
            return [f"{n} is {got[n]!r}, was {want[n]!r} on an earlier run"
                    for n in EXACT if got[n] != want[n]]

        with tracer.installed() as run_command:
            times = run_round(workload, jobs, run_command, ledger, seen, "traced",
                              after=same_counts)
        traced.append((sum(times), tracer))

    t_start = time.perf_counter()
    untraced.append(sum(run_round(workload, jobs, cli.run_command, ledger, seen, "untraced")))
    traced_round()
    traced_round()
    while time.perf_counter() - t_start + untraced[0] + traced[0][0] <= seconds:
        untraced.append(sum(run_round(workload, jobs, cli.run_command, ledger, seen, "untraced")))
        traced_round()

    # report the traced round with the median wall time, so its self
    # times add up to its own wall time
    wall, tracer = sorted(traced, key=lambda x: x[0])[(len(traced) - 1) // 2]
    metrics = tracer.summary()
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - statistics.median(untraced)
    tracer.save(spans_path)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    details.update(untraced_round_seconds=untraced,
                   traced_round_seconds=[t for t, _ in traced])
    notes.append(f"{len(untraced)} untraced and {len(traced)} traced rounds of {len(jobs)} job(s)")
    notes.append(f"layer self times sum to {self_sum:.6f} s; traced wall {wall:.6f} s; "
                 f"untraced median {statistics.median(untraced):.6f} s")
    return metrics


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dynsparse").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(workload, sizes: dict, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, one client, one process",
    }


def run(name: str, seed: int, seconds: int, trace: bool, size: str = "sizes"):
    """Run one workload; returns (result, notes, record)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    sizes = getattr(workload, size)
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("jobs", "warm"):
        (work / sub).mkdir(parents=True)
    try:
        jobs = workload.make_jobs(sizes, seed, work / "jobs")
        warm = workload.make_jobs(workload.tiny, seed, work / "warm")
        ledger, seen, notes, details = Ledger(), {}, [], {}
        if trace:
            values = measure_layers(workload, jobs, warm, seconds, ledger, seen, notes,
                                    details, work / "spans.npz")
            from tracing import METRICS as units
        else:
            values = measure_end_to_end(workload, jobs, warm, seconds, ledger, seen, notes,
                                        details)
            units = END_TO_END
    finally:
        for sub in ("jobs", "warm"):
            shutil.rmtree(work / sub, ignore_errors=True)
    record = run_record(workload, sizes, seed, seconds, trace)
    record.update(details, problems=ledger.problems)
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": units[k][0]} for k in units},
    }
    notes.append(f"failed_fraction: {ledger.failed}/{ledger.attempted} operations")
    notes.extend(ledger.problems[:20])
    return result, notes, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dynsparse" / "cli.py").is_file():
        print(f"error: no dynsparse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC.as_posix())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        result, notes, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, m in result["metrics"].items():
        print(f"{key:40s} {m['value']:>16.6f} {m['unit']}")
    for note in notes:
        print(f"# {note}")
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
