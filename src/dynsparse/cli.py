"""Command-line entry point.

Subcommands: ``simulate`` (prior paths), ``fit-map`` (online EM),
``fit-glasso`` (sliding-window group lasso), ``fit-smc`` (particle MCMC),
``acf`` (autocorrelation table of a simulated path), and ``verify``
(check output files against their manifest).

Configuration is a flat ``key=value`` text file (``--config``) plus
``key=value`` arguments on the command line, which win.  Identical
(config, seed) pairs produce byte-identical outputs.  Exit status: 0 on
success, 1 for numerical/model errors during the run, 2 for usage or
configuration errors.  A run checks its settings and computes before it
creates ``out_dir`` and writes its tables and the manifest there, so a
failed run leaves at most an ``error.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DomainError, DynsparseError
from .group_lasso import run_sliding_window
from .io import ParseError, load_data, verify_dir, write_manifest, write_table
from .map_em import RegressionData, run_online_map
from .prior import ModelConfig, autocorrelation, simulate_d_chain, simulate_path
from .smc import pimh_run, posterior_summary

__all__ = ["main", "run_command"]

# config key -> the parser of its text
_KEYS = {
    **dict.fromkeys(("nu", "delta", "gamma", "alpha", "rho", "sigma", "tol"), float),
    **dict.fromkeys(("d", "n_particles", "n_iters", "max_iter", "seed", "T", "max_lag", "p"), int),
    "eps_sparse": float,
    "probs": lambda raw: [float(v) for v in raw.split(",") if v.strip()],
    "data_path": str,
    "out_dir": str,
}

_DEFAULTS = {
    "tol": "1e-8",
    "probs": "0.05,0.95",
    "max_lag": "300",
}


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit status 2."""


def _read_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq or not key.strip():
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        cfg[key.strip()] = value.strip()
    return cfg


def _resolve(args: argparse.Namespace) -> dict[str, str]:
    cfg = dict(_DEFAULTS)
    if args.config:
        cfg.update(_read_config_file(args.config))
    for item in args.overrides:
        key, eq, value = item.partition("=")
        if not eq or not key.strip():
            raise ConfigError(f"override {item!r} is not key=value")
        cfg[key.strip()] = value.strip()
    unknown = cfg.keys() - _KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return cfg


def _typed(cfg: dict[str, str]) -> dict:
    out: dict = {}
    for key, raw in cfg.items():
        try:
            out[key] = _KEYS[key](raw)
        except ValueError:
            raise ConfigError(f"config key {key}={raw!r} has the wrong type") from None
    if out.get("seed", 0) < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got seed={out['seed']}")
    for key, low in (("n_particles", 2), ("n_iters", 1), ("T", 1), ("max_lag", 1), ("max_iter", 1)):
        if out.get(key, low) < low:
            raise ConfigError(f"{key} must be at least {low}, got {key}={out[key]}")
    if "tol" in out and not 0.0 < out["tol"] < math.inf:
        raise ConfigError(f"tol must be positive and finite, got tol={out['tol']}")
    if "eps_sparse" in out and not 0.0 <= out["eps_sparse"] < math.inf:
        raise ConfigError(
            f"eps_sparse must be nonnegative and finite, got eps_sparse={out['eps_sparse']}"
        )
    return out


def _model_config(cfg: dict) -> ModelConfig:
    kwargs = {f.name: cfg[f.name] for f in dataclasses.fields(ModelConfig) if f.name in cfg}
    try:
        return ModelConfig(**kwargs)
    except (DomainError, TypeError) as exc:
        raise ConfigError(f"invalid model configuration: {exc}") from None


def _load_fit_data(cfg: dict) -> RegressionData:
    """The fit's data; an explicit ``p`` must be its predictor count."""
    data = load_data(cfg["data_path"])
    if cfg.get("p", data.p) != data.p:
        raise ConfigError(f"p={cfg['p']} but {cfg['data_path']} has {data.p} predictors")
    return data


def _run_id(command: str, cfg: dict) -> str:
    payload = json.dumps({"command": command, "config": cfg}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _fmt(value: float) -> str:
    return repr(float(value))


def _estimate_rows(beta_hat, support, lower=None, upper=None) -> Iterator[list[str]]:
    # time-major lists: reading numpy elements one at a time costs more than their repr
    est, sup = beta_hat.T.tolist(), support.T.tolist()
    lo = lower.T.tolist() if lower is not None else None
    hi = upper.T.tolist() if upper is not None else None
    for t, row in enumerate(est):
        for j, value in enumerate(row):
            yield [
                str(t + 1), str(j + 1), _fmt(value),
                _fmt(lo[t][j]) if lo is not None else "",
                _fmt(hi[t][j]) if hi is not None else "",
                str(int(sup[t][j])),
            ]


_ESTIMATE_HEADER = ["t", "j", "estimate", "lower", "upper", "support"]


def _cmd_simulate(cfg: dict) -> dict:
    model = _model_config(cfg)
    rng = np.random.default_rng(cfg["seed"])
    T = cfg["T"]
    d_path = None if model.fixed_d else simulate_d_chain(model.rho, T, rng)
    beta = simulate_path(model, T, rng, d_path=d_path)
    tables = {
        "path.csv": (["t", "j", "value"], (
            [str(t), str(j), _fmt(value)]
            for t, step in enumerate(zip(*beta.tolist()), start=1)
            for j, value in enumerate(step, start=1)
        )),
    }
    if d_path is not None:
        tables["d_path.csv"] = (["t", "d"], (
            [str(t), str(d)] for t, d in enumerate(d_path.tolist(), start=1)
        ))
    return tables


def _cmd_acf(cfg: dict) -> dict:
    if cfg["max_lag"] >= cfg["T"]:
        raise ConfigError(f"acf needs max_lag < T, got max_lag={cfg['max_lag']}, T={cfg['T']}")
    model = _model_config(cfg)
    rng = np.random.default_rng(cfg["seed"])
    # the table reads one row; at d >= 1 and in rho mode it is row 0 at any p
    beta = simulate_path(dataclasses.replace(model, p=1), cfg["T"], rng)
    acf = autocorrelation(beta[0] ** 2, cfg["max_lag"])
    return {"acf.csv": (["lag", "acf"], ([str(lag + 1), _fmt(a)] for lag, a in enumerate(acf)))}


def _fit_point(cfg: dict, command: str) -> dict:
    """Run ``fit-map`` or ``fit-glasso``: estimates and objective traces."""
    model = _model_config(cfg)
    if not model.fixed_d:
        raise ConfigError(f"{command} needs a fixed window length d, not rho")
    glasso = command == "fit-glasso"
    if glasso and model.gamma == 0.0:
        raise ConfigError("fit-glasso needs gamma > 0, the group-lasso penalty weight")
    data = _load_fit_data(cfg)
    # without the key, the fitter's own eps_sparse default applies
    eps = {"eps_sparse": cfg["eps_sparse"]} if "eps_sparse" in cfg else {}
    fitter = run_sliding_window if glasso else run_online_map
    fit = fitter(data, model, tol=cfg["tol"], max_iter=cfg["max_iter"], **eps)
    header = ["window", "sweep", "objective"] if glasso else ["t", "iter", "objective"]
    return {
        "estimates.csv": (_ESTIMATE_HEADER, _estimate_rows(fit.beta_hat, fit.support)),
        "diagnostics.csv": (header, (
            [str(k + 1), str(i), _fmt(v)]
            for k, trace in enumerate(fit.objective_trace)
            for i, v in enumerate(trace.tolist())
        )),
    }


def _cmd_fit_smc(cfg: dict) -> dict:
    model = _model_config(cfg)
    probs = cfg["probs"]
    # the first and last probs bound the credible interval
    if (
        len(probs) < 2
        or not all(0.0 < q < 1.0 for q in probs)
        or any(a >= b for a, b in zip(probs, probs[1:]))
    ):
        raise ConfigError(
            "fit-smc needs at least two probs, each strictly inside (0, 1) and "
            f"strictly increasing, got probs={','.join(map(str, probs))}"
        )
    data = _load_fit_data(cfg)
    rng = np.random.default_rng(cfg["seed"])
    chain = pimh_run(data, model, cfg["n_particles"], cfg["n_iters"], rng)
    summ = posterior_summary(chain, np.asarray(probs))
    lower, upper = summ.quantiles[0], summ.quantiles[-1]
    support = (lower > 0) | (upper < 0)
    return {
        "estimates.csv": (_ESTIMATE_HEADER, _estimate_rows(summ.mean, support, lower, upper)),
        "diagnostics.csv": (["iteration", "log_evidence", "accepted"], (
            [str(m), _fmt(value), str(int(accepted))]
            for m, (value, accepted) in enumerate(
                zip(chain.log_evidence.tolist(), chain.accepted.tolist()), start=1
            )
        )),
        "d_posterior.csv": (["t", "d", "probability"], (
            [str(t), str(d), _fmt(prob)]
            for t, column in enumerate(summ.d_posterior.T.tolist(), start=1)
            for d, prob in enumerate(column)
            if prob > 0
        )),
    }


# subcommand -> (handler, required config keys).  A handler checks its
# settings, runs, and returns its tables as {file name: (header, lazy
# rows)} in print order; run_command alone writes them.
_COMMANDS = {
    "simulate": (_cmd_simulate, ("T", "seed", "out_dir")),
    "acf": (_cmd_acf, ("T", "seed", "out_dir")),
    "fit-map": (lambda cfg: _fit_point(cfg, "fit-map"), ("data_path", "out_dir", "max_iter")),
    "fit-glasso": (
        lambda cfg: _fit_point(cfg, "fit-glasso"), ("data_path", "out_dir", "max_iter")
    ),
    "fit-smc": (_cmd_fit_smc, ("data_path", "out_dir", "seed", "n_particles", "n_iters")),
}


def run_command(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="dynsparse",
        description="Dynamic sparse regression with generalized hyperbolic priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument(
            "overrides", nargs="*", metavar="key=value",
            help="configuration overrides (win over the file)",
        )
    pv = sub.add_parser("verify")
    pv.add_argument("out_dir", help="output directory with a manifest.json")

    args = parser.parse_args(argv)

    if args.command == "verify":
        problems = verify_dir(args.out_dir)
        for item in problems:
            print(item, file=sys.stderr)
        if problems:
            return 1
        print("ok")
        return 0

    try:
        cfg = _typed(_resolve(args))
        handler, required = _COMMANDS[args.command]
        missing = [k for k in required if k not in cfg]
        if missing:
            raise ConfigError(f"{args.command} requires config keys: {', '.join(missing)}")
        _clear_run_records(cfg["out_dir"])
        tables = handler(cfg)
        out = Path(cfg["out_dir"])
        files = [out / name for name in tables]
        _check_not_directories(files)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DynsparseError as exc:
        _write_error_record(cfg["out_dir"], args.command, exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    config = {k: str(v) for k, v in sorted(cfg.items())}
    run_id = _run_id(args.command, config)
    for path, (header, rows) in zip(files, tables.values()):
        write_table(path, run_id, header, rows)
    write_manifest(out, run_id, config, files)
    for f in files:
        print(f.as_posix())
    return 0


def _check_not_directories(entries: list[Path]) -> None:
    """The entries of out_dir that a run writes must not be directories."""
    for path in entries:
        if path.is_dir():
            raise ConfigError(f"out_dir entry {path.as_posix()} is a directory, not a file")


def _clear_run_records(out_dir: str) -> None:
    """Drop a previous run's manifest and error record before a rerun."""
    records = [Path(out_dir, name) for name in ("manifest.json", "error.json")]
    _check_not_directories(records)
    try:
        for path in records:
            path.unlink(missing_ok=True)
    except NotADirectoryError:
        raise ConfigError(f"out_dir={out_dir} is a file or lies under one") from None


def _write_error_record(out_dir: str, command: str, exc: Exception) -> None:
    try:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / "error.json").write_text(
            json.dumps(
                {"command": command, "error_type": type(exc).__name__,
                 "message": str(exc)},
                indent=2, sort_keys=True,
            ) + "\n"
        )
    except OSError:
        pass


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
