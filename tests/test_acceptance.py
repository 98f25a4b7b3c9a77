"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``CRITERION k: PASS/FAIL`` line directly to the terminal (bypassing
capture) before asserting, so the final report is visible in any run.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, kv
from scipy.stats import t as student_t

from dynsparse import (
    CHANGE_POINTS,
    GhParams,
    ModelConfig,
    MghParams,
    autocorrelation,
    conditional_gh,
    gh_log_pdf,
    mgh_log_pdf,
    pimh_run,
    run_sliding_window,
    simulate_path,
    smc_run,
    synthetic_regression,
    window_correlation,
)
from dynsparse.cli import run_command

from helpers import gh_cdf_grid, gh_pdf_by_mixture, ks_statistic, normal_pdf
from test_distributions import GH_GRID
import test_group_lasso as tgl
import test_map_em as tem
import test_smc as tsm


@pytest.fixture
def report(capsys):
    def _report(num, ok, detail):
        with capsys.disabled():
            print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")

    return _report


def test_criterion_01_distribution_quadrature(report):
    start = time.time()
    worst = 0.0
    for params in GH_GRID:
        xs = params.mu + np.linspace(-3.0, 3.0, 21)
        for x in xs:
            err = abs(gh_log_pdf(params, x) - math.log(gh_pdf_by_mixture(params, x)))
            worst = max(worst, err)
    elapsed = time.time() - start
    ok = worst < 1e-5 and elapsed < 60
    report(1, ok, f"{len(GH_GRID)} settings x 21 points, max log err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_special_cases(report):
    # Laplace closed form
    lap = GhParams(0.3, 1.0, 0.0, 1.4)
    lap_err = max(
        abs(gh_log_pdf(lap, x) - (math.log(1.4 / 2.0) - 1.4 * abs(x - 0.3)))
        for x in np.linspace(-3, 3, 25)
    )
    # Student: gamma=0, nu<0 is a t law with df=-2nu, scale delta/sqrt(-2nu)
    nu, delta = -2.0, 1.0
    stu = GhParams(0.0, nu, delta, 0.0)
    stu_err = max(
        abs(
            math.exp(gh_log_pdf(stu, x))
            - student_t.pdf(x, df=-2 * nu, scale=delta / math.sqrt(-2 * nu))
        )
        for x in np.linspace(-4, 4, 25)
    )
    # NIG: nu=-1/2 closed form through the Bessel K_1 function
    dl, gm = 0.8, 1.2
    nig = GhParams(0.0, -0.5, dl, gm)

    def nig_pdf(x):
        q = math.sqrt(dl**2 + x**2)
        return dl * gm / math.pi * math.exp(dl * gm) * kv(1, gm * q) / q

    nig_err = max(
        abs(math.exp(gh_log_pdf(nig, x)) - nig_pdf(x)) for x in np.linspace(-4, 4, 25)
    )
    ok = lap_err < 1e-6 and stu_err < 1e-5 and nig_err < 1e-5
    report(
        2, ok,
        f"Laplace {lap_err:.2e}, Student {stu_err:.2e}, NIG {nig_err:.2e}",
    )
    assert ok


def test_criterion_03_keystone_conditional(report):
    nu, delta, gamma = 0.8, 0.6, 1.1
    worst = 0.0
    for alpha in [0.0, 0.5, 0.9]:
        sigma2 = window_correlation(2, alpha)
        for x in np.linspace(-2.5, 2.5, 15):
            w = 0.7
            joint = mgh_log_pdf(
                MghParams(np.zeros(2), nu, delta, gamma, sigma2), np.array([w, x])
            )
            marg = gh_log_pdf(GhParams(0.0, nu, delta, gamma), w)
            cond = gh_log_pdf(
                conditional_gh(
                    ModelConfig(
                        nu=nu, delta=delta, gamma=gamma, alpha=alpha,
                        sigma=1.0, p=1, d=1,
                    ),
                    np.array([w]),
                ),
                x,
            )
            worst = max(worst, abs((joint - marg) - cond))
    ok = worst < 1e-6
    report(3, ok, f"3 alphas x 15 points, max log err {worst:.2e}")
    assert ok


def test_criterion_04_stationarity(report):
    config = ModelConfig(nu=1.0, delta=0.5, gamma=1.0, alpha=0.5, sigma=1.0, p=1, d=5)
    rng = np.random.default_rng(101)
    path = simulate_path(config, 200_000, rng)[0]
    thinned = np.sort(path[::20])
    marg = GhParams(0.0, config.nu, config.delta, config.gamma)
    cdf = gh_cdf_grid(marg, thinned, thinned[0] - 1, thinned[-1] + 1, 200_001)
    ks = ks_statistic(thinned, cdf)
    crit = math.sqrt(-math.log(0.5e-3) / 2.0) / math.sqrt(thinned.size)

    reps = ModelConfig(
        nu=1.0, delta=0.5, gamma=1.0, alpha=0.5, sigma=1.0, p=40, d=5
    )
    paths = simulate_path(reps, 3000, np.random.default_rng(102))
    corrs = np.array(
        [np.corrcoef(row[:-1], row[1:])[0, 1] for row in paths]
    )
    se = corrs.std(ddof=1) / math.sqrt(corrs.size)
    corr_ok = abs(corrs.mean() - config.alpha) < 4 * se
    ok = ks < crit and corr_ok
    report(
        4, ok,
        f"KS {ks:.4f} < {crit:.4f}, lag-1 corr {corrs.mean():.3f} vs alpha 0.5 (4SE {4 * se:.3f})",
    )
    assert ok


def test_criterion_05_autocorrelation_regimes(report):
    start = time.time()
    config = ModelConfig(nu=0.1, delta=0.01, gamma=1.0, alpha=0.0, sigma=1.0, p=1, d=20)
    rng = np.random.default_rng(29)
    beta = simulate_path(config, 100_000, rng)[0]
    acf = autocorrelation(beta**2, 300)
    elapsed = time.time() - start
    short_ok = bool(np.all(acf[:19] > 0.05))
    tail = float(np.max(np.abs(acf[200:])))
    tail_ok = tail < 0.02
    ok = short_ok and tail_ok and elapsed < 120
    report(
        5, ok,
        f"short-lag min {acf[:19].min():.3f} (>0.05: {short_ok}), "
        f"tail max {tail:.3f} (<0.02: {tail_ok}), {elapsed:.1f}s; "
        "the shared sparsity pattern keeps a persistent positive acf floor "
        "at long lags, so the 0.02 bound is not attained",
    )
    assert ok


def test_criterion_06_em_map(report):
    results = {}
    for name, fn in [
        ("monotone", tem.test_em_monotone_on_random_instances),
        ("soft-threshold", lambda: tem.test_laplace_orthonormal_matches_soft_threshold(1.0, 1.0)),
        ("ascent-oracle", tem.test_em_matches_numerical_ascent_oracle),
    ]:
        try:
            fn()
            results[name] = True
        except AssertionError:
            results[name] = False
    ok = all(results.values())
    report(6, ok, ", ".join(f"{k}: {'ok' if v else 'FAILED'}" for k, v in results.items()))
    assert ok


def test_criterion_07_group_lasso(report):
    results = {}
    try:
        for seed in range(8):
            tgl.test_kkt_residual_via_direct_subgradient(seed)
        results["kkt"] = True
    except AssertionError:
        results["kkt"] = False
    try:
        for seed in range(8):
            tgl.test_objective_matches_prox_gradient_oracle(seed)
        results["oracle"] = True
    except AssertionError:
        results["oracle"] = False
    try:
        for seed in range(5):
            tgl.test_null_solution_threshold(seed)
        results["null-threshold"] = True
    except AssertionError:
        results["null-threshold"] = False
    ok = all(results.values())
    report(7, ok, ", ".join(f"{k}: {'ok' if v else 'FAILED'}" for k, v in results.items()))
    assert ok


def test_criterion_08_smc_pimh(report):
    # (a) evidence unbiasedness: 2000 runs, N=50 on the tiny instance
    config = tsm.cfg(d=0)
    data = tsm._tiny_data(T=2)
    truth = math.exp(tsm.iid_log_evidence(config, data))
    rng = np.random.default_rng(808)
    zs = np.exp([smc_run(data, config, 50, rng)[2] for _ in range(2000)])
    se = zs.std(ddof=1) / math.sqrt(zs.size)
    ev_ok = abs(zs.mean() - truth) < 4 * se

    # (b) PIMH total-variation distance vs the quadrature posterior of
    # beta_1 on p=1, T=2 (M=10^4, N=100), using equal-probability bins
    config2 = tsm.cfg(d=1, alpha=0.5)
    marg = GhParams(0.0, config2.nu, config2.delta, config2.gamma)
    s2 = config2.sigma**2

    def joint(b1):
        cond = conditional_gh(config2, np.array([b1]))

        def inner(b2):
            return normal_pdf(data.ys[1][0], b2, s2) * math.exp(gh_log_pdf(cond, b2))

        val, _ = quad(inner, -12, 12, epsabs=1e-13, epsrel=1e-9, limit=300)
        return val * normal_pdf(data.ys[0][0], b1, s2) * math.exp(gh_log_pdf(marg, b1))

    grid = np.linspace(-6, 6, 1201)
    dens = np.array([joint(b) for b in grid])
    cdf = np.concatenate(
        [[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))]
    )
    cdf /= cdf[-1]
    n_bins = 20
    edges = np.interp(np.linspace(0, 1, n_bins + 1)[1:-1], cdf, grid)
    chain = pimh_run(data, config2, 100, 10_000, np.random.default_rng(809))
    draws = chain.betas[:, 0, 0]
    counts = np.bincount(np.searchsorted(edges, draws), minlength=n_bins)
    tv = 0.5 * np.sum(np.abs(counts / draws.size - 1.0 / n_bins))
    tv_ok = tv < 0.05

    # (c) acceptance rate monotone in N
    data4 = tsm._tiny_data(T=4, seed=2)
    rates = []
    for N in [10, 100, 1000]:
        rates.append(
            pimh_run(data4, config2, N, 300, np.random.default_rng(810)).acceptance_rate
        )
    mono_ok = rates[0] < rates[1] < rates[2]

    ok = ev_ok and tv_ok and mono_ok
    report(
        8, ok,
        f"evidence err {abs(zs.mean() - truth):.2e} (4SE {4 * se:.2e}), "
        f"TV {tv:.3f}, acceptance {[round(r, 3) for r in rates]}",
    )
    assert ok


def test_criterion_09_posterior_window_length(report):
    start = time.time()
    config = ModelConfig(
        nu=1.0, delta=0.01, gamma=1.0, alpha=0.8, sigma=1.0, p=1, rho=0.9
    )
    rng = np.random.default_rng(905)
    data, _ = synthetic_regression(120, 1.0, rng)
    chain = pimh_run(data, config, 1000, 1000, rng)
    elapsed = time.time() - start
    med = np.median(chain.ds, axis=0)
    mean_d = chain.ds.mean(axis=0)

    # after the chain has built a window, the posterior median stays in [2, 10]
    range_ok = bool(np.all((med[15:] >= 2) & (med[15:] <= 10)))
    # dips at structural change points of the signal: the local minimum of
    # the posterior mean right after a change sits below the preceding
    # stable level (the integer-valued median quantizes small dips away)
    dips = 0
    for cp in CHANGE_POINTS[1:]:
        before = np.median(mean_d[cp - 10 : cp - 2])
        after_min = mean_d[cp : cp + 8].min()
        if after_min < before:
            dips += 1
    dip_ok = dips >= 3
    time_ok = elapsed < 1800
    ok = range_ok and dip_ok and time_ok
    report(
        9, ok,
        f"median d in [{int(med[15:].min())}, {int(med[15:].max())}] for t>=16, "
        f"dips at {dips}/4 change points, acceptance {chain.acceptance_rate:.2f}, "
        f"{elapsed / 60:.1f} min",
    )
    assert ok


def test_criterion_10_portfolio_gamma_sweep(report, tmp_path):
    # multi-predictor synthetic series with piecewise-sparse coefficients,
    # fit through the bundled portfolio config at increasing gamma
    rng = np.random.default_rng(77)
    T, p = 60, 4
    coefs = np.zeros((p, T))
    coefs[0, 5:25] = 2.0
    coefs[1, 20:40] = -1.5
    coefs[2, 35:55] = 1.0
    ys, Xs = [], []
    for t in range(T):
        X = rng.standard_normal((3, p))
        ys.append(X @ coefs[:, t] + 0.5 * rng.standard_normal(3))
        Xs.append(X)
    lines = ["t,y," + ",".join(f"x{j + 1}" for j in range(p))]
    for t in range(T):
        for i in range(3):
            lines.append(
                ",".join(
                    [str(t + 1), repr(float(ys[t][i]))]
                    + [repr(float(v)) for v in Xs[t][i]]
                )
            )
    dpath = tmp_path / "portfolio.csv"
    dpath.write_text("\n".join(lines) + "\n")

    zero_counts = []
    for gamma in [0.1, 0.5, 1.0]:
        out = tmp_path / f"g{gamma}"
        cfg_path = Path(__file__).resolve().parent.parent / "configs" / "portfolio.cfg"
        code = run_command([
            "fit-glasso", "--config", str(cfg_path),
            f"gamma={gamma}", f"data_path={dpath}", f"out_dir={out}",
        ])
        assert code == 0
        zeros = 0
        for line in (out / "estimates.csv").read_text().strip().splitlines()[2:]:
            if float(line.split(",")[2]) == 0.0:
                zeros += 1
        zero_counts.append(zeros)
    ok = zero_counts == sorted(zero_counts) and zero_counts[-1] > zero_counts[0]
    report(10, ok, f"zero-coefficient counts over gamma sweep: {zero_counts}")
    assert ok


def test_criterion_11_reproducibility(report, tmp_path):
    rng = np.random.default_rng(11)
    data, _ = synthetic_regression(10, 0.5, rng)
    dpath = tmp_path / "data.csv"
    lines = ["t,y,x1"]
    for t in range(10):
        lines.append(f"{t + 1},{float(data.ys[t][0])!r},1.0")
    dpath.write_text("\n".join(lines) + "\n")

    identical = True
    for args in (
        ["simulate", "nu=0.5", "delta=0.5", "gamma=1.0", "alpha=0.5", "d=2",
         "sigma=1.0", "T=40", "seed=6", f"out_dir={tmp_path / 'sim'}"],
        ["fit-smc", "nu=1.0", "delta=0.3", "gamma=1.0", "alpha=0.5", "d=1",
         "sigma=0.5", "n_particles=25", "n_iters=15", "seed=6",
         f"data_path={dpath}", f"out_dir={tmp_path / 'smc'}"],
        ["acf", "nu=1.0", "delta=0.5", "gamma=1.0", "alpha=0.0", "d=3",
         "sigma=1.0", "T=2000", "seed=6", "max_lag=20",
         f"out_dir={tmp_path / 'acf'}"],
    ):
        out = tmp_path / args[-1].split("=", 1)[1].split("/")[-1]
        assert run_command(args) == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert run_command(args) == 0
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        identical = identical and first == second
    report(11, identical, "simulate, fit-smc, acf byte-identical on rerun")
    assert identical
