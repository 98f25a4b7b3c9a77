"""The benchmark's workloads: seeded input generators, configs and output checks.

Each workload turns ``--seed`` into a list of jobs.  A job is one
``dynsparse`` subcommand: the argv it runs, the output directory it
writes, and how many work units it does.  The program receives only the
CSV and the config file written here.  ``check`` reads a job's outputs
and returns a list of problems (empty when the outputs are correct).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Objective traces may move against their monotone direction by rounding
# only; the largest move seen at the parent commit was below 3e-15.
MONOTONE_TOL = 1e-10
# Lags 1..19 of the beta^2 autocorrelation must stay above this (the
# short-lag half of acceptance criterion 5).
ACF_FLOOR = 0.05
ACF_LAGS = 19


@dataclass(frozen=True)
class Job:
    argv: list[str]
    out_dir: Path
    units: float


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one work unit is, for work_per_s
    sizes: dict
    tiny: dict
    make_jobs: Callable[[dict, int, Path], list[Job]]
    check: Callable[[Path], list[str]]


# ---------------------------------------------------------------- inputs


def piecewise_signal(T: int) -> np.ndarray:
    """Zeros, a +4 shelf, zeros, an alternating +/-5 burst, a -3 shelf,
    zeros: the T = 120 ground truth of acceptance criterion 9."""
    truth = np.zeros(max(T, 120))
    truth[20:45] = 4.0
    truth[60:80:2] = 5.0
    truth[61:80:2] = -5.0
    truth[80:100] = -3.0
    return truth[:T]


def portfolio_coefs(T: int, p: int = 4, phase: int = 0) -> np.ndarray:
    """The criterion-10 coefficient pattern (period 60) tiled to length T."""
    base = np.zeros((p, 60))
    base[0, 5:25] = 2.0
    base[1, 20:40] = -1.5
    base[2, 35:55] = 1.0
    reps = (T + phase) // 60 + 1
    return np.tile(base, (1, reps))[:, phase : phase + T]


def write_csv(path: Path, ys: list[np.ndarray], Xs: list[np.ndarray]) -> None:
    p = Xs[0].shape[1]
    lines = ["t,y," + ",".join(f"x{j + 1}" for j in range(p))]
    for t, (y, X) in enumerate(zip(ys, Xs), start=1):
        for i in range(y.shape[0]):
            cells = [str(t), repr(float(y[i]))] + [repr(float(v)) for v in X[i]]
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def signal_data(T: int, rng: np.random.Generator) -> tuple[list, list]:
    """Scalar noisy observations (sigma = 1) of the piecewise signal."""
    truth = piecewise_signal(T)
    ys = [np.array([truth[t] + rng.standard_normal()]) for t in range(T)]
    return ys, [np.ones((1, 1))] * T


def portfolio_data(
    T: int, rows: int, rng: np.random.Generator, phase: int = 0
) -> tuple[list, list]:
    """``rows`` observations per step of y = X beta_t + N(0, 0.25)."""
    coefs = portfolio_coefs(T, phase=phase)
    ys, Xs = [], []
    for t in range(T):
        X = rng.standard_normal((rows, coefs.shape[0]))
        ys.append(X @ coefs[:, t] + 0.5 * rng.standard_normal(rows))
        Xs.append(X)
    return ys, Xs


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))
    return path


def _job(command: str, cfg: dict, job_dir: Path, units: float) -> Job:
    job_dir.mkdir(parents=True, exist_ok=True)
    out = job_dir / "out"
    cfg = dict(cfg, out_dir=out.as_posix())
    cfg_path = write_config(job_dir / "run.cfg", cfg)
    return Job([command, "--config", cfg_path.as_posix()], out, units)


# ------------------------------------------------------------- workloads

SMC_MODEL = {  # acceptance criterion 9
    "nu": 1.0, "delta": 0.01, "gamma": 1.0, "alpha": 0.8, "rho": 0.9,
    "sigma": 1.0, "probs": "0.05,0.95",
}
PORTFOLIO_MODEL = {  # configs/portfolio.cfg
    "nu": 3.0, "delta": 0.0, "alpha": 0.5, "d": 4, "sigma": 0.5, "p": 4,
    "max_iter": 10000, "tol": 1e-8,
}
PRIOR_MODEL = {  # configs/simulate_sparse_path.cfg
    "nu": 0.1, "delta": 0.01, "gamma": 1.0, "alpha": 0.0, "d": 20, "sigma": 1.0,
}
MAP_MODEL = {
    "nu": 3.0, "delta": 0.1, "gamma": 0.5, "alpha": 0.5, "d": 4, "sigma": 0.5,
    "p": 4, "max_iter": 100,
}


def smc_jobs(sizes: dict, seed: int, work: Path) -> list[Job]:
    T, N, M = sizes["T"], sizes["N"], sizes["M"]
    ys, Xs = signal_data(T, np.random.default_rng([seed, 0]))
    data = work / "signal.csv"
    write_csv(data, ys, Xs)
    cfg = dict(SMC_MODEL, n_particles=N, n_iters=M, seed=seed, data_path=data.as_posix())
    return [_job("fit-smc", cfg, work / "job0", N * T * M)]


def glasso_jobs(sizes: dict, seed: int, work: Path) -> list[Job]:
    T, K, rows = sizes["T"], sizes["series"], sizes["rows"]
    jobs = []
    for k in range(K):
        # each series starts at another phase of the 60-step pattern
        phase = (60 * k) // K
        ys, Xs = portfolio_data(T, rows, np.random.default_rng([seed, k]), phase)
        data = work / f"portfolio{k}.csv"
        write_csv(data, ys, Xs)
        cfg = dict(PORTFOLIO_MODEL, gamma=sizes["gamma"], data_path=data.as_posix())
        jobs.append(_job("fit-glasso", cfg, work / f"job{k}", T - PORTFOLIO_MODEL["d"]))
    return jobs


def prior_jobs(sizes: dict, seed: int, work: Path) -> list[Job]:
    T = sizes["T"]
    cfg = dict(PRIOR_MODEL, p=1, T=T, seed=seed)
    return [_job("simulate", cfg, work / "job0", T)]


def map_jobs(sizes: dict, seed: int, work: Path) -> list[Job]:
    T = sizes["T"]
    ys, Xs = portfolio_data(T, 3, np.random.default_rng([seed, 0]))
    data = work / "ingest.csv"
    write_csv(data, ys, Xs)
    cfg = dict(MAP_MODEL, data_path=data.as_posix())
    return [_job("fit-map", cfg, work / "job0", T)]


# ----------------------------------------------------------------- checks


def read_rows(path: Path) -> list[list[str]]:
    """Data rows of an output CSV (after its ``# run`` and header lines)."""
    return [line.split(",") for line in path.read_text().splitlines()[2:]]


def _column(rows: list[list[str]], i: int) -> np.ndarray:
    return np.array([float(r[i]) for r in rows])


def _monotone(path: Path, sign: float, what: str) -> list[str]:
    """Per group (column 0), ``sign * objective`` must not rise."""
    rows = read_rows(path)
    groups = np.array([int(r[0]) for r in rows])
    obj = _column(rows, 2)
    if not np.all(np.isfinite(obj)):
        return [f"{path.name}: non-finite {what} objective"]
    same = groups[1:] == groups[:-1]
    rise = sign * np.diff(obj)
    worst = float(rise[same].max(initial=-np.inf))
    if worst > MONOTONE_TOL:
        return [f"{path.name}: {what} objective moved the wrong way by {worst:.3e}"]
    return []


def check_smc(out: Path) -> list[str]:
    problems = []
    rows = read_rows(out / "estimates.csv")
    est, lo, hi = (_column(rows, i) for i in (2, 3, 4))
    if not np.all(np.isfinite(np.concatenate([est, lo, hi]))):
        problems.append("estimates.csv: non-finite estimate or bound")
    elif np.any(lo > hi):
        problems.append("estimates.csv: lower bound above upper bound")
    rows = read_rows(out / "d_posterior.csv")
    t = np.array([int(r[0]) for r in rows])
    sums = np.bincount(t, weights=_column(rows, 2))[1:]
    if np.any(np.abs(sums - 1.0) > 1e-9):
        problems.append(f"d_posterior.csv: a column sums to {sums[np.argmax(np.abs(sums - 1))]!r}")
    rows = read_rows(out / "diagnostics.csv")
    if not np.all(np.isfinite(_column(rows, 1))):
        problems.append("diagnostics.csv: non-finite log-evidence")
    return problems


def check_glasso(out: Path) -> list[str]:
    problems = _monotone(out / "diagnostics.csv", +1.0, "window")
    rows = read_rows(out / "estimates.csv")
    est = _column(rows, 2)
    if not np.all(np.isfinite(est)):
        problems.append("estimates.csv: non-finite estimate")
    if not np.any(est == 0.0):
        problems.append("estimates.csv: no exact zeros")
    return problems


def check_prior(out: Path) -> list[str]:
    rows = read_rows(out / "path.csv")
    beta = _column(rows, 2)
    if not np.all(np.isfinite(beta)):
        return ["path.csv: non-finite path value"]
    x = beta**2 - np.mean(beta**2)
    c0 = float(x @ x)
    acf = np.array([float(x[:-k] @ x[k:]) / c0 for k in range(1, ACF_LAGS + 1)])
    if acf.min() <= ACF_FLOOR:
        lag = int(np.argmin(acf)) + 1
        return [f"path.csv: beta^2 acf at lag {lag} is {acf.min():.3f} <= {ACF_FLOOR}"]
    return []


def check_map(out: Path) -> list[str]:
    problems = _monotone(out / "diagnostics.csv", -1.0, "EM")
    rows = read_rows(out / "estimates.csv")
    if not np.all(np.isfinite(_column(rows, 2))):
        problems.append("estimates.csv: non-finite estimate")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "smc_pimh",
            "particle-steps", {"T": 120, "N": 1000, "M": 6}, {"T": 12, "N": 50, "M": 3},
            smc_jobs, check_smc,
        ),
        Workload(
            "glasso_portfolio",
            "windows", {"T": 100, "series": 6, "rows": 8, "gamma": 16.0},
            {"T": 8, "series": 2, "rows": 8, "gamma": 16.0},
            glasso_jobs, check_glasso,
        ),
        Workload(
            "prior_sim",
            "steps", {"T": 5000}, {"T": 2000},
            prior_jobs, check_prior,
        ),
        Workload(
            "map_ingest",
            "steps", {"T": 2000}, {"T": 20},
            map_jobs, check_map,
        ),
    )
}
