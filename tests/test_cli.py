"""Command-line interface: ingestion, artifacts, reproducibility, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dynsparse.cli
import dynsparse.smc
from dynsparse import ParseError, RegressionData, load_data, synthetic_regression, verify_dir
from dynsparse.cli import run_command


def write_data(path, data):
    lines = ["t,y," + ",".join(f"x{j + 1}" for j in range(data.p))]
    for t, (y, X) in enumerate(zip(data.ys, data.Xs)):
        for i in range(y.shape[0]):
            cells = [str(t + 1), repr(float(y[i]))] + [repr(float(v)) for v in X[i]]
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# load_data
# ---------------------------------------------------------------------------


def test_load_data_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    data, _ = synthetic_regression(12, 0.5, rng)
    path = tmp_path / "data.csv"
    write_data(path, data)
    loaded = load_data(path)
    assert loaded.T == 12 and loaded.p == 1
    for t in range(12):
        assert np.array_equal(loaded.ys[t], data.ys[t])
        assert np.array_equal(loaded.Xs[t], data.Xs[t])


def test_load_data_varying_n(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("t,y,x1,x2\n1,0.5,1,0\n1,0.2,0,1\n2,0.1,1,1\n")
    data = load_data(path)
    assert data.T == 2
    assert data.ys[0].shape == (2,) and data.ys[1].shape == (1,)


@pytest.mark.parametrize(
    "body,match",
    [
        ("t,y,x1\n1,0.5\n", "line 2"),
        ("t,y,x1\n1,abc,1\n", "line 2"),
        ("t,y,x1\n1,0.5,1\n3,0.2,1\n", "1..T"),
        ("t,y,x1\n1,0.5,1\n3,0.2,1\n", r"line 3: t must be 1 or 2 .*, got 3$"),
        ("t,y,x1\n2,0.5,1\n1,0.2,1\n", r"line 2: t must be 1 .*, got 2$"),
        ("y,t,x1\n1,0.5,1\n", "header"),
        ("", "empty"),
        ("t,y,x1\n1,0.5,1\n2,nan,1.0\n", "line 3: non-finite y"),
        ("t,y,x1,x2\n1,0.5,1,inf\n", "line 2: non-finite x2"),
        ("t,y,x1\n1,0.5,1\n1,0.2,-inf\n", "line 3: non-finite x1"),
        ("t,y,x1\n0,0.5,1\n", r"line 2: t must be 1 .*, got 0$"),
        ("t,y,x1\n0,0.5,1\n1,0.2,1\n", r"line 2: t must be 1 .*, got 0$"),
        ("t,y,x1\n2,0.5,1\n", r"line 2: t must be 1 .*, got 2$"),
        ("t,y,x1\n1,0.5,1\n2,0.2,1\n1,0.1,1\n", r"line 4: t must be 2 or 3 .*, got 1$"),
        ("t,y,x1\n1,0.5,1\n\n1,0.1,1\n-1,0.3,1\n", r"line 5: t must be 1 or 2 .*, got -1$"),
        ("t,y,x1\n", "no data rows"),
    ],
)
def test_load_data_parse_errors(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ParseError, match=match):
        load_data(path)


def test_non_finite_cell_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,y,x1\n1,0.5,1\n2,nan,1.0\n")
    code = run_command([
        "fit-smc", "nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.5",
        "d=1", "sigma=0.5", "n_particles=10", "n_iters=2", "seed=1",
        f"data_path={path}", f"out_dir={tmp_path / 'out'}",
    ])
    assert code == 2
    assert "line 3: non-finite y" in capsys.readouterr().err


_FIT_ARGS = {
    "fit-map": ["nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "d=1", "sigma=0.5",
                "max_iter=50"],
    "fit-glasso": ["nu=2.0", "delta=0.0", "gamma=1.0", "alpha=0.5", "d=1", "sigma=0.5",
                   "max_iter=50"],
    "fit-smc": ["nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "d=1", "sigma=0.5",
                "n_particles=10", "n_iters=2", "seed=1"],
}


@pytest.mark.parametrize("command", sorted(_FIT_ARGS))
@pytest.mark.parametrize("kind,match", [
    ("missing", "cannot read the file"),
    ("directory", "cannot read the file"),
    ("latin-1", "not UTF-8 text"),
])
def test_unreadable_data_file_is_a_parse_error(tmp_path, capsys, command, kind, match):
    path = tmp_path / "data.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes("t,y,x1\n1,0.5,1\n2,0.2,1 # caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ParseError, match=match):
        load_data(path)
    out = tmp_path / "out"
    code = run_command([command, *_FIT_ARGS[command], f"data_path={path}", f"out_dir={out}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and str(path) in err and match in err
    assert not (out / "error.json").exists()


def test_load_data_round_trip_varying_rows(tmp_path):
    # 1-3 rows per step over 500 steps: each step's block comes back intact
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((n, 3)) for n in rng.integers(1, 4, size=500)]
    data = RegressionData([b[:, 0] for b in blocks], [b[:, 1:] for b in blocks])
    path = tmp_path / "data.csv"
    write_data(path, data)
    loaded = load_data(path)
    assert loaded.T == 500 and loaded.p == 2
    for t in range(500):
        assert np.array_equal(loaded.ys[t], data.ys[t])
        assert np.array_equal(loaded.Xs[t], data.Xs[t])


_CELL = st.floats(-1e300, 1e300) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]
)


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(p=st.integers(1, 3), data=st.data())
def test_load_data_round_trip_property(tmp_path, p, data):
    # 1-4 rows per step written with repr: every bit comes back, the sign
    # of zero and subnormals included
    row = st.lists(_CELL, min_size=p + 1, max_size=p + 1)
    steps = data.draw(st.lists(st.lists(row, min_size=1, max_size=4), min_size=1, max_size=6))
    blocks = [np.array(rows) for rows in steps]
    written = RegressionData([b[:, 0] for b in blocks], [b[:, 1:] for b in blocks])
    path = tmp_path / "data.csv"
    write_data(path, written)
    loaded = load_data(path)
    assert loaded.T == len(blocks) and loaded.p == p
    for t, b in enumerate(blocks):
        got = np.column_stack([loaded.ys[t], loaded.Xs[t]])
        assert got.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_simulate_byte_identical_and_verified(tmp_path):
    out = tmp_path / "out"
    args = [
        "simulate", "nu=0.5", "delta=0.5", "gamma=1.0", "alpha=0.5",
        "d=2", "sigma=1.0", "T=50", "seed=3", f"out_dir={out}",
    ]
    assert run_command(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_command(args) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert run_command(["verify", str(out)]) == 0


def test_module_entry_point_runs_the_cli(tmp_path):
    # python -m dynsparse.cli is the no-install way to run the CLI
    env = dict(os.environ, PYTHONPATH=str(Path(dynsparse.cli.__file__).resolve().parents[1]))

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "dynsparse.cli", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    out = tmp_path / "out"
    proc = cli(
        "simulate", "nu=0.5", "delta=0.5", "gamma=1.0", "alpha=0.5",
        "d=1", "sigma=1.0", "T=5", "seed=1", f"out_dir={out}",
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "path.csv").is_file()
    assert cli("fit-smc").returncode == 2


def test_verify_detects_tampering(tmp_path, capsys):
    out = tmp_path / "out"
    args = [
        "simulate", "nu=0.5", "delta=0.5", "gamma=1.0", "alpha=0.0",
        "d=0", "sigma=1.0", "T=10", "seed=5", f"out_dir={out}",
    ]
    assert run_command(args) == 0
    path = out / "path.csv"
    path.write_text(path.read_text().replace("0.", "1.", 1))
    assert run_command(["verify", str(out)]) == 1
    assert "hash" in capsys.readouterr().err
    lines = path.read_text().split("\n", 1)
    path.write_text("# run 0000000000000000\n" + lines[1])
    assert run_command(["verify", str(out)]) == 1
    assert "path.csv: run header does not match" in capsys.readouterr().err
    path.unlink()
    assert run_command(["verify", str(out)]) == 1
    assert "path.csv: listed in manifest but missing" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    b"{\"run_id\": ", b"\xff\xfe", b"[1, 2]",
    b"{\"outputs\": [1]}",
    b"{\"outputs\": {\"path.csv\": 1}}",
    b"{\"outputs\": {\"\": \"x\"}}",
    b"{\"outputs\": {\"..\": \"x\"}}",
    b"{\"outputs\": {\"../manifest.json\": \"x\"}}",
])
def test_verify_reports_a_manifest_that_is_not_a_json_object(tmp_path, capsys, body):
    (tmp_path / "manifest.json").write_bytes(body)
    assert run_command(["verify", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("manifest.json: ")


def test_simulate_rho_mode_emits_d_path(tmp_path):
    out = tmp_path / "out"
    assert run_command([
        "simulate", "nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.5",
        "rho=0.8", "sigma=1.0", "T=30", "seed=2", f"out_dir={out}",
    ]) == 0
    lines = (out / "d_path.csv").read_text().strip().splitlines()
    assert lines[1] == "t,d"
    ds = [int(l.split(",")[1]) for l in lines[2:]]
    assert ds[0] == 0 and all(b - a <= 1 for a, b in zip(ds, ds[1:]))


def test_acf_emits_lag_table(tmp_path):
    out = tmp_path / "out"
    assert run_command([
        "acf", "nu=1.0", "delta=0.5", "gamma=1.0", "alpha=0.0", "d=5",
        "sigma=1.0", "T=5000", "seed=4", "max_lag=50", f"out_dir={out}",
    ]) == 0
    lines = (out / "acf.csv").read_text().strip().splitlines()
    assert lines[1] == "lag,acf"
    assert len(lines) == 52
    assert int(lines[2].split(",")[0]) == 1


@pytest.mark.parametrize("window", ["d=0", "d=2", "rho=0.7"])
def test_acf_does_not_depend_on_p(tmp_path, window):
    # acf reads one row, so it simulates one: p only changes the run header
    bodies = []
    for p in (1, 3):
        out = tmp_path / f"p{p}"
        assert run_command([
            "acf", "nu=1.0", "delta=0.5", "gamma=1.0", "alpha=0.5", window, "sigma=1.0",
            "T=600", "seed=4", "max_lag=20", f"p={p}", f"out_dir={out}",
        ]) == 0
        bodies.append((out / "acf.csv").read_text().split("\n", 1)[1])
    assert bodies[0] == bodies[1]


def test_fit_map_estimates_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    data, _ = synthetic_regression(25, 0.5, rng)
    dpath = tmp_path / "data.csv"
    write_data(dpath, data)
    out = tmp_path / "out"
    assert run_command([
        "fit-map", "nu=2.0", "delta=0.0", "gamma=5.0", "alpha=0.5", "d=2",
        "sigma=0.5", "max_iter=200", "eps_sparse=0.2",
        f"data_path={dpath}", f"out_dir={out}",
    ]) == 0
    from dynsparse import ModelConfig, run_online_map

    config = ModelConfig(nu=2.0, delta=0.0, gamma=5.0, alpha=0.5, sigma=0.5, p=1, d=2)
    fit = run_online_map(data, config, tol=1e-8, max_iter=200, eps_sparse=0.2)
    lines = (out / "estimates.csv").read_text().strip().splitlines()
    assert lines[1] == "t,j,estimate,lower,upper,support"
    for line in lines[2:]:
        t, j, est, lo, hi, sup = line.split(",")
        assert lo == "" and hi == ""
        target = fit.beta_hat[int(j) - 1, int(t) - 1]
        assert float(est) == pytest.approx(target, rel=1e-15, abs=1e-300)
        assert int(sup) == int(fit.support[int(j) - 1, int(t) - 1])


def test_fit_glasso_and_smc_artifacts(tmp_path):
    rng = np.random.default_rng(8)
    data, _ = synthetic_regression(15, 0.5, rng)
    dpath = tmp_path / "data.csv"
    write_data(dpath, data)

    out_g = tmp_path / "glasso"
    assert run_command([
        "fit-glasso", "nu=2.0", "delta=0.0", "gamma=1.0", "alpha=0.5",
        "d=2", "sigma=0.5", "max_iter=10000",
        f"data_path={dpath}", f"out_dir={out_g}",
    ]) == 0
    assert (out_g / "diagnostics.csv").read_text().splitlines()[1] == "window,sweep,objective"

    out_s = tmp_path / "smc"
    assert run_command([
        "fit-smc", "nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.5",
        "d=1", "sigma=0.5", "n_particles=30", "n_iters=20", "seed=11",
        f"data_path={dpath}", f"out_dir={out_s}",
    ]) == 0
    est = (out_s / "estimates.csv").read_text().strip().splitlines()
    for line in est[2:]:
        _, _, _, lo, hi, _ = line.split(",")
        assert float(lo) <= float(hi)
    manifest = json.loads((out_s / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"estimates.csv", "diagnostics.csv", "d_posterior.csv"}
    dpost = (out_s / "d_posterior.csv").read_text().strip().splitlines()
    probs_by_t = {}
    for line in dpost[2:]:
        t, _, pr = line.split(",")
        probs_by_t.setdefault(t, 0.0)
        probs_by_t[t] += float(pr)
    assert all(abs(v - 1.0) < 1e-12 for v in probs_by_t.values())
    assert run_command(["verify", str(out_s)]) == 0


_MODEL = ["nu=2.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "sigma=0.5"]
OUTPUTS = [
    ("simulate", ["d=2", "T=20", "seed=1"], ["path.csv"]),
    ("simulate", ["rho=0.8", "T=20", "seed=1"], ["path.csv", "d_path.csv"]),
    ("acf", ["d=2", "T=200", "max_lag=10", "seed=1"], ["acf.csv"]),
    ("fit-map", ["d=2", "max_iter=200"], ["estimates.csv", "diagnostics.csv"]),
    ("fit-glasso", ["d=2", "max_iter=10000"], ["estimates.csv", "diagnostics.csv"]),
    ("fit-smc", ["d=1", "n_particles=20", "n_iters=5", "seed=1"],
     ["estimates.csv", "diagnostics.csv", "d_posterior.csv"]),
]


@pytest.mark.parametrize(
    "command, settings, names", OUTPUTS, ids=[f"{c}-{s[0]}" for c, s, _ in OUTPUTS]
)
def test_printed_paths_are_the_manifest_outputs_and_all_the_files(
    tmp_path, capsys, command, settings, names
):
    # stdout lists the tables in a fixed order, one path a line; out_dir
    # holds those tables and the manifest and nothing else
    dpath = tmp_path / "data.csv"
    write_data(dpath, synthetic_regression(15, 0.5, np.random.default_rng(8))[0])
    out = tmp_path / "out"
    assert run_command(
        [command, *_MODEL, *settings, f"data_path={dpath}", f"out_dir={out}"]
    ) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [(out / name).as_posix() for name in names]
    assert sorted(json.loads((out / "manifest.json").read_text())["outputs"]) == sorted(names)
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])
    assert run_command(["verify", str(out)]) == 0


# ---------------------------------------------------------------------------
# exit statuses
# ---------------------------------------------------------------------------


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_command(["frobnicate"])
    assert exc.value.code == 2


def test_missing_seed_is_config_error(tmp_path, capsys):
    code = run_command([
        "simulate", "nu=0.5", "delta=0.5", "gamma=1.0", "alpha=0.0",
        "d=0", "sigma=1.0", "T=10", f"out_dir={tmp_path / 'o'}",
    ])
    assert code == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("probs", ["nan,0.5", "0.95,0.05", "0.05,1.5"])
def test_bad_smc_probs_are_config_errors_before_any_work(tmp_path, monkeypatch, probs):
    dpath = tmp_path / "data.csv"
    dpath.write_text("t,y,x1\n1,0.5,1\n2,0.2,1\n")

    def no_work(*args, **kwargs):
        raise AssertionError("fit-smc started work on a bad probs value")

    monkeypatch.setattr(dynsparse.cli, "load_data", no_work)
    monkeypatch.setattr(dynsparse.cli, "pimh_run", no_work)
    out = tmp_path / "out"
    code = run_command([
        "fit-smc", "nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "d=1",
        "sigma=0.5", "n_particles=10", "n_iters=2", "seed=1", f"probs={probs}",
        f"data_path={dpath}", f"out_dir={out}",
    ])
    assert code == 2
    assert not (out / "estimates.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "acf", "fit-smc"])
def test_negative_seed_is_a_config_error_before_any_work(tmp_path, monkeypatch, capsys, command):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started work on a negative seed")

    for name in ("load_data", "simulate_path", "simulate_d_chain", "pimh_run"):
        monkeypatch.setattr(dynsparse.cli, name, no_work)
    dpath = tmp_path / "data.csv"
    dpath.write_text("t,y,x1\n1,0.5,1\n2,0.2,1\n")
    out = tmp_path / "out"
    code = run_command([
        command, "nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "d=1", "sigma=0.5",
        "T=10", "n_particles=10", "n_iters=2", "seed=-1",
        f"data_path={dpath}", f"out_dir={out}",
    ])
    assert code == 2
    assert "seed must be a nonnegative integer, got seed=-1" in capsys.readouterr().err
    assert not out.exists()


RANGE_ERRORS = [
    ("fit-smc", "n_particles=1", "n_particles must be at least 2, got n_particles=1"),
    ("fit-smc", "n_iters=0", "n_iters must be at least 1, got n_iters=0"),
    ("simulate", "T=0", "T must be at least 1, got T=0"),
    ("acf", "max_lag=0", "max_lag must be at least 1, got max_lag=0"),
    ("fit-map", "max_iter=-3", "max_iter must be at least 1, got max_iter=-3"),
    ("fit-glasso", "max_iter=0", "max_iter must be at least 1, got max_iter=0"),
    ("fit-map", "tol=-1", "tol must be positive and finite, got tol=-1.0"),
    ("fit-glasso", "tol=0", "tol must be positive and finite, got tol=0.0"),
    ("fit-map", "tol=inf", "tol must be positive and finite, got tol=inf"),
    ("fit-map", "tol=nan", "tol must be positive and finite, got tol=nan"),
    ("fit-map", "eps_sparse=nan", "eps_sparse must be nonnegative and finite, got eps_sparse=nan"),
    (
        "fit-glasso", "eps_sparse=-1",
        "eps_sparse must be nonnegative and finite, got eps_sparse=-1.0",
    ),
    ("fit-map", "eps_sparse=inf", "eps_sparse must be nonnegative and finite, got eps_sparse=inf"),
    ("acf", "max_lag=10", "acf needs max_lag < T, got max_lag=10, T=10"),
    ("simulate", "out_dir={data}", "out_dir={data} is a file or lies under one"),
    ("acf", "out_dir={data}/sub", "out_dir={data}/sub is a file or lies under one"),
    ("fit-map", "out_dir={data}/sub", "out_dir={data}/sub is a file or lies under one"),
    ("fit-glasso", "out_dir={data}", "out_dir={data} is a file or lies under one"),
    ("fit-smc", "out_dir={data}", "out_dir={data} is a file or lies under one"),
    (
        "simulate", "delta=1e155",
        "invalid model configuration: delta must have delta^2 a finite float, got delta=1e+155",
    ),
    (
        "acf", "delta=1e155",
        "invalid model configuration: delta must have delta^2 a finite float, got delta=1e+155",
    ),
]


@pytest.mark.parametrize(
    "command, setting, message", RANGE_ERRORS, ids=[f"{c}-{s}" for c, s, _ in RANGE_ERRORS]
)
def test_out_of_range_settings_are_config_errors_before_any_work(
    tmp_path, monkeypatch, capsys, command, setting, message
):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started work with {setting}")

    for name in ("load_data", "simulate_path", "simulate_d_chain", "pimh_run"):
        monkeypatch.setattr(dynsparse.cli, name, no_work)
    dpath = tmp_path / "data.csv"
    dpath.write_text("t,y,x1\n1,0.5,1\n2,0.2,1\n")
    out = tmp_path / "out"
    code = run_command([
        command, "nu=2.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "d=1", "sigma=0.5",
        "T=10", "max_lag=5", "n_particles=10", "n_iters=2", "max_iter=50", "seed=1",
        f"data_path={dpath}", f"out_dir={out}", setting.format(data=dpath),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.format(data=dpath)}\n"
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]
    assert dpath.read_text() == "t,y,x1\n1,0.5,1\n2,0.2,1\n"


_FLOAT_RANGE_RULES = {
    "sigma": "sigma must be positive with sigma^2 and 1/sigma^2 finite floats",
    "delta": "delta must have delta^2 a finite float",
}


@pytest.mark.parametrize("command", sorted(_FIT_ARGS))
@pytest.mark.parametrize("key,value", [
    pytest.param("sigma", "1e200", id="1e200"),
    pytest.param("sigma", "1e-200", id="1e-200"),
    pytest.param("sigma", "1e-155", id="1e-155"),
    pytest.param("delta", "1e155", id="delta-1e155"),
    pytest.param("delta", "1.4e154", id="delta-1.4e154"),
])
def test_sigma_outside_the_float_range_is_a_config_error_before_any_work(
    tmp_path, monkeypatch, capsys, command, key, value
):
    # sigma^2 overflows (1e200), underflows to 0 (1e-200), or has an
    # infinite reciprocal (1e-155): the fits would square it and divide by
    # it; they square delta too, which overflows above about 1.34e154
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started work with {key}={value}")

    monkeypatch.setattr(dynsparse.cli, "load_data", no_work)
    dpath = tmp_path / "data.csv"
    dpath.write_text("t,y,x1\n1,0.5,1\n2,0.2,1\n")
    out = tmp_path / "out"
    args = [a for a in _FIT_ARGS[command] if not a.startswith(f"{key}=")]
    code = run_command([command, *args, f"{key}={value}", f"data_path={dpath}", f"out_dir={out}"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: invalid model configuration: {_FLOAT_RANGE_RULES[key]}, "
        f"got {key}={float(value)}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("entry", ["manifest.json", "error.json", "path.csv"])
def test_out_dir_entry_that_is_a_directory_is_a_config_error(
    tmp_path, monkeypatch, capsys, entry
):
    # a run record that is a directory stops the run before any work; a
    # table's entry is known once the handler returns, before any write
    if entry != "path.csv":
        def no_work(*args, **kwargs):
            raise AssertionError(f"simulate started work with {entry} a directory")

        monkeypatch.setattr(dynsparse.cli, "simulate_path", no_work)
    out = tmp_path / "out"
    (out / entry).mkdir(parents=True)
    code = run_command([
        "simulate", "nu=0.5", "delta=0.5", "gamma=1.0", "alpha=0.5", "d=2", "sigma=1.0",
        "T=20", "seed=3", f"out_dir={out}",
    ])
    assert code == 2
    message = f"out_dir entry {(out / entry).as_posix()} is a directory, not a file"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in out.iterdir()] == [entry]  # no table, manifest or .tmp file
    assert not any((out / entry).iterdir())


def test_temporary_sibling_that_is_a_directory_does_not_fail_the_run(tmp_path, capsys):
    # io writes each file to its .NAME.tmp sibling first; a directory there
    # is passed over, and the run writes what it writes without one
    argv = ["simulate", "nu=0.5", "delta=0.5", "gamma=1.0", "alpha=0.5", "d=2", "sigma=1.0",
            "T=20", "seed=3"]
    clean, out = tmp_path / "clean", tmp_path / "out"
    assert run_command([*argv, f"out_dir={clean}"]) == 0
    (out / ".path.csv.tmp" / "inside").mkdir(parents=True)
    capsys.readouterr()
    assert run_command([*argv, f"out_dir={out}"]) == 0
    assert capsys.readouterr().out == f"{(out / 'path.csv').as_posix()}\n"
    assert sorted(p.name for p in out.iterdir()) == [".path.csv.tmp", "manifest.json", "path.csv"]
    assert [p.name for p in (out / ".path.csv.tmp").iterdir()] == ["inside"]
    rows = [(d / "path.csv").read_text().split("\n", 1)[1] for d in (out, clean)]
    assert rows[0] == rows[1]  # below the run line, which names out_dir's run
    for name in ("path.csv", "manifest.json"):
        assert (out / name).stat().st_mode == (clean / name).stat().st_mode
    assert verify_dir(out) == []


FIT_CONFIG_ERRORS = [
    ("fit-map", "rho=0.8", "fit-map needs a fixed window length d, not rho"),
    ("fit-glasso", "rho=0.8", "fit-glasso needs a fixed window length d, not rho"),
    ("fit-glasso", "gamma=0", "fit-glasso needs gamma > 0, the group-lasso penalty weight"),
    ("fit-map", "p=7", "p=7 but {data} has 2 predictors"),
    ("fit-glasso", "p=1", "p=1 but {data} has 2 predictors"),
    ("fit-smc", "p=3", "p=3 but {data} has 2 predictors"),
]


@pytest.mark.parametrize(
    "command, setting, message", FIT_CONFIG_ERRORS,
    ids=[f"{c}-{s}" for c, s, _ in FIT_CONFIG_ERRORS],
)
def test_fit_settings_at_odds_with_the_fit_or_data_are_config_errors(
    tmp_path, monkeypatch, capsys, command, setting, message
):
    def no_fit(*args, **kwargs):
        raise AssertionError(f"{command} started fitting with {setting}")

    for name in ("run_online_map", "run_sliding_window", "pimh_run"):
        monkeypatch.setattr(dynsparse.cli, name, no_fit)
    dpath = tmp_path / "data.csv"
    dpath.write_text("t,y,x1,x2\n1,0.5,1,0\n2,0.2,0,1\n")
    out = tmp_path / "out"
    window = setting if setting.startswith("rho=") else "d=1"
    code = run_command([
        command, "nu=-1.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "sigma=0.5", window,
        "n_particles=10", "n_iters=2", "max_iter=50", "seed=1",
        f"data_path={dpath}", f"out_dir={out}", setting,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.format(data=dpath)}\n"
    assert not out.exists()


def test_manifest_records_only_the_settings_given(tmp_path):
    # p is not given, so the manifest does not record it; the data have two
    dpath = tmp_path / "data.csv"
    dpath.write_text("t,y,x1,x2\n1,0.5,1,0\n2,0.2,0,1\n3,0.1,1,1\n")
    out = tmp_path / "out"
    code = run_command([
        "fit-map", "nu=2.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "sigma=0.5", "d=1",
        "max_iter=50", f"data_path={dpath}", f"out_dir={out}",
    ])
    assert code == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert "p" not in config and config["d"] == "1"


def test_unknown_key_and_bad_type_are_config_errors(tmp_path, capsys):
    base = ["simulate", "nu=0.5", "delta=0.5", "gamma=1.0", "alpha=0.0",
            "d=0", "sigma=1.0", "T=10", "seed=1", f"out_dir={tmp_path / 'o'}"]
    assert run_command(base + ["bogus_key=1"]) == 2
    assert run_command([a if not a.startswith("T=") else "T=ten" for a in base]) == 2
    no_equals = tmp_path / "no_equals.cfg"
    no_equals.write_text("# comment\nnu 0.5\n")
    empty_key = tmp_path / "empty_key.cfg"
    empty_key.write_text("# comment\nnu=0.5\n=3\n")
    for argv, message in [
        (base + ["--config", str(tmp_path / "missing.cfg")], "cannot read config file"),
        (base + ["--config", str(no_equals)], "line 2: expected key=value"),
        (base + ["T10"], "override 'T10' is not key=value"),
        (base + ["--config", str(empty_key)], "line 3: expected key=value, got '=3'"),
        (base + ["=5"], "override '=5' is not key=value"),
        (base + ["alpha=1.5"], "invalid model configuration: alpha"),
    ]:
        capsys.readouterr()
        assert run_command(argv) == 2
        assert message in capsys.readouterr().err


def test_model_error_exit_one_with_record(tmp_path, capsys):
    # a finite observation whose square overflows fails inside the fit
    # (a NaN cell would be a parse error, exit 2)
    dpath = tmp_path / "data.csv"
    dpath.write_text("t,y,x1\n1,0.5,1\n2,1e300,1\n3,0.1,1\n")
    out = tmp_path / "out"
    code = run_command([
        "fit-map", "nu=1.0", "delta=0.0", "gamma=1.0", "alpha=0.0", "d=0",
        "sigma=0.5", "max_iter=100", f"data_path={dpath}", f"out_dir={out}",
    ])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert "t=2" in record["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


def test_model_error_exit_one_without_numpy_warning(tmp_path, capsys):
    # the overflowing observation of the test above raises its
    # NumericalError before numpy can warn about the overflow
    dpath = tmp_path / "data.csv"
    dpath.write_text("t,y,x1\n1,0.5,1\n2,1e300,1\n3,0.1,1\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command([
            "fit-map", "nu=1.0", "delta=0.0", "gamma=1.0", "alpha=0.0", "d=0",
            "sigma=0.5", "max_iter=100", f"data_path={dpath}", f"out_dir={out}",
        ])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert "t=2" in record["message"]


def test_overflowing_observation_is_a_numerical_error(tmp_path, capsys):
    # y = 1e300 makes the EM objective -inf at t=2: a numerical failure of
    # the fit, not a domain error of the Bessel function it would reach
    dpath = tmp_path / "data.csv"
    dpath.write_text("t,y,x1\n1,0.5,1\n2,1e300,1\n3,0.1,1\n")
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        code = run_command([
            "fit-map", "nu=1.0", "delta=0.0", "gamma=1.0", "alpha=0.0", "d=0",
            "sigma=0.5", "max_iter=100", f"data_path={dpath}", f"out_dir={out}",
        ])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error_type"] == "NumericalError"
    assert record["message"].startswith("at time step t=2: EM objective is not finite")
    assert "error: at time step t=2: EM objective is not finite" in capsys.readouterr().err


def test_first_pimh_pass_failure_names_iteration_one(tmp_path, monkeypatch, capsys):
    real = dynsparse.smc._weight_and_propose

    def nan_weights(*args):
        lw, beta = real(*args)
        lw[:] = np.nan
        return lw, beta

    monkeypatch.setattr(dynsparse.smc, "_weight_and_propose", nan_weights)
    dpath = tmp_path / "data.csv"
    dpath.write_text("t,y,x1\n1,0.5,1\n2,0.2,1\n")
    out = tmp_path / "out"
    code = run_command([
        "fit-smc", "nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "d=1",
        "sigma=0.5", "n_particles=10", "n_iters=3", "seed=1",
        f"data_path={dpath}", f"out_dir={out}",
    ])
    assert code == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error_type"] == "NumericalError"
    assert record["message"].startswith("PIMH iteration 1: ")
    assert "t=1" in record["message"]


def _fit_map_into(out, dpath, y2):
    dpath.write_text(f"t,y,x1\n1,0.5,1\n2,{y2!r},1\n3,0.1,1\n")
    with np.errstate(over="ignore"):
        return run_command([
            "fit-map", "nu=1.0", "delta=0.0", "gamma=1.0", "alpha=0.0", "d=0",
            "sigma=0.5", "max_iter=100", f"data_path={dpath}", f"out_dir={out}",
        ])


def test_rerun_after_failure_drops_the_error_record(tmp_path, capsys):
    out, dpath = tmp_path / "out", tmp_path / "data.csv"
    assert _fit_map_into(out, dpath, 1e300) == 1
    assert (out / "error.json").exists() and not (out / "manifest.json").exists()
    assert _fit_map_into(out, dpath, 0.2) == 0
    assert not (out / "error.json").exists()
    assert run_command(["verify", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.csv", "estimates.csv", "manifest.json",
    ]


def test_failed_rerun_drops_the_stale_manifest(tmp_path, capsys):
    out, dpath = tmp_path / "out", tmp_path / "data.csv"
    assert _fit_map_into(out, dpath, 0.2) == 0
    assert run_command(["verify", str(out)]) == 0
    assert _fit_map_into(out, dpath, 1e300) == 1
    assert not (out / "manifest.json").exists()
    assert "t=2" in json.loads((out / "error.json").read_text())["message"]
    capsys.readouterr()
    assert run_command(["verify", str(out)]) == 1
    assert "missing manifest.json" in capsys.readouterr().err


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# each shipped config file -> the subcommand it is written for
SHIPPED_CONFIGS = {
    "fit_glasso_demo.cfg": "fit-glasso",
    "fit_smc_demo.cfg": "fit-smc",
    "portfolio.cfg": "fit-glasso",
    "simulate_sparse_path.cfg": "simulate",
}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
def test_every_shipped_config_runs(tmp_path, name):
    # only data_path (a small CSV with the config's p) and out_dir are overridden
    command = SHIPPED_CONFIGS[name]  # a config without an entry fails here
    path = CONFIG_DIR / name
    cfg = dynsparse.cli._read_config_file(str(path))
    out = tmp_path / "out"
    overrides = [f"out_dir={out}"]
    if "data_path" in cfg:
        rng = np.random.default_rng(0)
        p = int(cfg.get("p", 1))
        Xs = [rng.standard_normal((3, p)) for _ in range(12)]
        ys = [X @ np.linspace(1.0, -1.0, p) + 0.5 * rng.standard_normal(3) for X in Xs]
        dpath = tmp_path / "data.csv"
        write_data(dpath, RegressionData(ys, Xs))
        overrides.append(f"data_path={dpath}")
    assert run_command([command, "--config", str(path), *overrides]) == 0
    assert run_command(["verify", str(out)]) == 0


def test_config_file_with_cli_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "nu=0.5\ndelta=0.5\ngamma=1.0\nalpha=0.0\nd=0\nsigma=1.0\n"
        f"T=10\nseed=1\nout_dir={tmp_path / 'a'}\n"
    )
    assert run_command(["simulate", "--config", str(cfgfile)]) == 0
    assert run_command([
        "simulate", "--config", str(cfgfile), f"out_dir={tmp_path / 'b'}", "T=20"
    ]) == 0
    a = (tmp_path / "a" / "path.csv").read_text().strip().splitlines()
    b = (tmp_path / "b" / "path.csv").read_text().strip().splitlines()
    assert len(b) - len(a) == 10
