import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import dynsparse
from dynsparse import (
    DomainError,
    GhParams,
    GigParams,
    MghParams,
    ModelConfig,
    autocorrelation,
    conditional_gh,
    gh_log_pdf,
    gig_log_pdf,
    mgh_log_pdf,
    simulate_d_chain,
    simulate_path,
    window_correlation,
)
from dynsparse.distributions import gig_rvs
from dynsparse.prior import _ALPHA_MAX, _add_reduce, _mahal_sq_row, mahal_sq_batch
from helpers import gh_cdf_grid, ks_statistic, reference_simulate_path


def cfg(**kw):
    base = dict(nu=1.0, delta=0.5, gamma=1.0, alpha=0.5, sigma=1.0, p=1, d=1)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# window correlation
# ---------------------------------------------------------------------------


def test_build_sigma_entries():
    m = window_correlation(3, 0.5)
    assert np.allclose(m, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    assert np.allclose(window_correlation(1, 0.9), [[1.0]])
    assert np.allclose(window_correlation(4, 0.0), np.eye(4))


def test_build_sigma_rejects_alpha_one():
    with pytest.raises(DomainError):
        window_correlation(3, 1.0)


def test_mahalanobis_trivial():
    assert mahal_sq_batch(np.zeros(3), 0.5) == 0.0
    x = np.array([1.0, -2.0, 0.5, 3.0])
    assert math.sqrt(mahal_sq_batch(x, 0.0)) == pytest.approx(np.linalg.norm(x))


def test_mahalanobis_2x2_hand_inversion():
    assert mahal_sq_batch(np.array([1.0, 1.0]), 0.5) == pytest.approx(4.0 / 3.0)


@pytest.mark.parametrize("dim", [2, 5, 17, 50])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.95])
def test_mahalanobis_matches_dense_solve(dim, alpha):
    rng = np.random.default_rng(dim * 17 + int(alpha * 100))
    corr = window_correlation(dim, alpha)
    x = rng.normal(size=dim)
    dense = math.sqrt(x @ np.linalg.solve(corr, x))
    assert math.sqrt(mahal_sq_batch(x, alpha)) == pytest.approx(dense, abs=1e-10, rel=1e-10)


# ---------------------------------------------------------------------------
# model config validation
# ---------------------------------------------------------------------------


def test_config_exactly_one_mode():
    with pytest.raises(DomainError):
        ModelConfig(nu=1, delta=0.5, gamma=1, alpha=0.5, sigma=1, p=1)
    with pytest.raises(DomainError):
        ModelConfig(nu=1, delta=0.5, gamma=1, alpha=0.5, sigma=1, p=1, d=2, rho=0.5)


def test_config_region_checks():
    with pytest.raises(DomainError):
        cfg(alpha=1.0)
    with pytest.raises(DomainError):
        cfg(sigma=0.0)
    with pytest.raises(DomainError):
        cfg(delta=0.0, nu=1.0, d=2)  # nu - d/2 = 0, invalid with delta = 0
    with pytest.raises(DomainError):
        cfg(delta=0.0, d=None, rho=0.9, nu=5.0)
    # group-lasso regime is fine: nu = (d+2)/2, delta = 0
    cfg(delta=0.0, nu=2.0, d=2)


INPUT_ERRORS = [
    ("config-p=0", lambda rng: cfg(p=0), "p must be >= 1, got 0"),
    ("config-d=-1", lambda rng: cfg(d=-1), "d must be nonnegative, got -1"),
    ("config-p=1.5", lambda rng: cfg(p=1.5), "p must be an integer, got 1.5"),
    ("config-d=2.5", lambda rng: cfg(d=2.5), "d must be an integer, got 2.5"),
    (
        "corr-dim=2.5",
        lambda rng: window_correlation(2.5, 0.5),
        "dim must be an integer >= 1, got 2.5",
    ),
    ("config-rho=-0.1", lambda rng: cfg(d=None, rho=-0.1), "rho must lie in [0, 1], got -0.1"),
    ("config-rho=1.5", lambda rng: cfg(d=None, rho=1.5), "rho must lie in [0, 1], got 1.5"),
    ("path-T=0", lambda rng: simulate_path(cfg(), 0, rng), "T must be >= 1, got 0"),
    ("path-T=2.5", lambda rng: simulate_path(cfg(), 2.5, rng), "T must be an integer, got 2.5"),
    (
        "path-d_path-shape",
        lambda rng: simulate_path(cfg(d=None, rho=0.5), 5, rng, d_path=np.zeros(3)),
        "d_path has shape (3,), expected (5,)",
    ),
    ("chain-rho=2", lambda rng: simulate_d_chain(2.0, 5, rng), "rho must lie in [0, 1], got 2.0"),
    ("chain-T=0", lambda rng: simulate_d_chain(0.5, 0, rng), "need T >= 1, got T=0"),
    (
        "chain-T=2.5",
        lambda rng: simulate_d_chain(0.5, 2.5, rng),
        "T must be an integer, got 2.5",
    ),
    ("acf-max_lag=0", lambda rng: autocorrelation(np.ones(5), 0), "max_lag must be >= 1, got 0"),
    (
        "acf-max_lag=2.5",
        lambda rng: autocorrelation(np.ones(5), 2.5),
        "max_lag must be an integer, got 2.5",
    ),
    (
        "acf-short-series",
        lambda rng: autocorrelation(np.ones(5), 5),
        "series length 5 must exceed max_lag 5",
    ),
]


@pytest.mark.parametrize(
    "call, message", [e[1:] for e in INPUT_ERRORS], ids=[e[0] for e in INPUT_ERRORS]
)
def test_bad_inputs_are_domain_errors(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(np.random.default_rng(0))


# ---------------------------------------------------------------------------
# conditional laws
# ---------------------------------------------------------------------------


def test_conditional_gh_zero_window_alpha_zero():
    c = cfg(alpha=0.0, d=3)
    g = conditional_gh(c, np.zeros(3))
    assert g == GhParams(0.0, c.nu - 1.5, c.delta, c.gamma)


def test_conditional_gh_scalar_window_alpha_zero():
    c = cfg(alpha=0.0, d=1)
    w = 0.7
    g = conditional_gh(c, np.array([w]))
    assert g.delta == pytest.approx(math.sqrt(c.delta**2 + w**2))
    assert g.gamma == pytest.approx(c.gamma)
    assert g.mu == 0.0


def test_conditional_gig_alpha_zero():
    c = cfg(alpha=0.0, d=2)
    w = np.array([0.3, -0.8])
    g = conditional_gh(c, w).mixing  # at alpha = 0 the unscaled conditional GIG
    assert g.nu == c.nu - 1.0
    assert g.delta == pytest.approx(
        math.sqrt(c.delta**2 + mahal_sq_batch(w, 0.0))
    )
    assert g.gamma == c.gamma


def test_conditional_empty_window_is_marginal():
    c = cfg(d=1)
    assert conditional_gh(c, np.array([])) == GhParams(0.0, c.nu, c.delta, c.gamma)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
def test_keystone_joint_marginal_ratio(alpha):
    # d=1: log mGH(pair) - log GH(first) must equal the conditional GH log pdf
    c = cfg(alpha=alpha, nu=0.7, delta=0.6, gamma=1.1, d=1)
    marg = GhParams(0.0, c.nu, c.delta, c.gamma)
    joint = MghParams(
        np.zeros(2), c.nu, c.delta, c.gamma, window_correlation(2, alpha)
    )
    for w in [-1.5, -0.2, 0.4, 2.0]:
        cond = conditional_gh(c, np.array([w]))
        for x in np.linspace(-3, 3, 15):
            lhs = mgh_log_pdf(joint, np.array([w, x])) - gh_log_pdf(marg, w)
            assert lhs == pytest.approx(gh_log_pdf(cond, float(x)), abs=1e-6)


@pytest.mark.parametrize("alpha", [0.0, 0.6])
def test_conditional_gig_marginalizes_to_conditional_gh(alpha):
    # the conditional GIG of simulate_path's step, tau ~ GIG(nu - d/2,
    # sqrt(delta^2 + msq), gamma), mixing N(alpha * w[-1], (1 - alpha^2) tau)
    c = cfg(alpha=alpha, nu=0.7, delta=0.6, gamma=1.1, d=2)
    w = np.array([0.5, -1.0])
    mix = GigParams(c.nu - 1.0, math.sqrt(c.delta**2 + mahal_sq_batch(w, alpha)), c.gamma)
    cond = conditional_gh(c, w)
    a2 = 1.0 - alpha**2
    loc = alpha * w[-1]
    for x in [-2.0, -0.5, 0.3, 1.7]:

        def f(tau):
            var = a2 * tau
            return (
                math.exp(-0.5 * (x - loc) ** 2 / var)
                / math.sqrt(2 * math.pi * var)
                * math.exp(gig_log_pdf(mix, tau))
            )

        ref, _ = quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=500)
        assert math.exp(gh_log_pdf(cond, x)) == pytest.approx(ref, abs=1e-5)


def test_conditional_invalid_region_reports_parameters():
    c = cfg(delta=0.0, nu=2.0, d=2, alpha=0.0)
    with pytest.raises(DomainError, match="nu'"):
        conditional_gh(c, np.zeros(4))
    # valid at the same d when the window is non-zero
    conditional_gh(c, np.array([1.0, 0.5]))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_path_d0_iid_ks():
    c = cfg(d=0, nu=1.0, delta=0.5, gamma=1.0, alpha=0.0, p=2)
    rng = np.random.default_rng(21)
    beta = simulate_path(c, 5000, rng)
    x = np.sort(beta.ravel())
    marg = GhParams(0.0, c.nu, c.delta, c.gamma)
    cdf = gh_cdf_grid(marg, x, x[0] - 1, x[-1] + 1, 200_001)
    crit = math.sqrt(-math.log(0.5e-3) / 2.0) / math.sqrt(x.size)
    assert ks_statistic(x, cdf) < crit


def test_simulate_path_stationary_marginal():
    c = cfg(d=5, nu=1.0, delta=0.5, gamma=1.0, alpha=0.5)
    rng = np.random.default_rng(22)
    beta = simulate_path(c, 100_000, rng)[0]
    x = np.sort(beta[::10][:10000])
    marg = GhParams(0.0, c.nu, c.delta, c.gamma)
    cdf = gh_cdf_grid(marg, x, x[0] - 1, x[-1] + 1, 200_001)
    crit = math.sqrt(-math.log(0.5e-3) / 2.0) / math.sqrt(x.size)
    assert ks_statistic(x, cdf) < crit


def test_simulate_path_lag_one_correlation():
    c = cfg(d=2, nu=1.0, delta=0.5, gamma=1.0, alpha=0.7)
    rng = np.random.default_rng(23)
    corrs = []
    for _ in range(24):
        b = simulate_path(c, 4000, rng)[0]
        corrs.append(np.corrcoef(b[:-1], b[1:])[0, 1])
    corrs = np.array(corrs)
    se = corrs.std(ddof=1) / math.sqrt(len(corrs))
    assert abs(corrs.mean() - c.alpha) < 4.0 * se


def test_simulate_path_pairwise_mgh_property():
    # property (b) at h=1: consecutive pairs are mGH(0_2, nu, delta, gamma, Sigma_2);
    # compare average joint log-likelihood of simulated pairs against the value
    # predicted by 2-D quadrature under that law
    c = cfg(d=3, nu=1.0, delta=0.5, gamma=1.0, alpha=0.6)
    rng = np.random.default_rng(24)
    b = simulate_path(c, 60_000, rng)[0]
    pairs = np.stack([b[:-1], b[1:]], axis=1)[:: 7][:8000]
    joint = MghParams(np.zeros(2), c.nu, c.delta, c.gamma, window_correlation(2, c.alpha))
    ll = np.array([mgh_log_pdf(joint, pr) for pr in pairs])
    # E[log f(X)] under f via quadrature
    grid = np.linspace(-9, 9, 241)
    logf = np.array(
        [[mgh_log_pdf(joint, np.array([x, y])) for y in grid] for x in grid]
    )
    f = np.exp(logf)
    expected = np.trapezoid(np.trapezoid(f * logf, grid, axis=1), grid)
    se = ll.std(ddof=1) / math.sqrt(ll.size)
    assert abs(ll.mean() - expected) < 5.0 * se


def test_simulate_d_chain_extremes():
    rng = np.random.default_rng(25)
    up = simulate_d_chain(1.0, 10, rng)
    assert np.array_equal(up, np.arange(10))
    down = simulate_d_chain(0.0, 10, rng)
    assert np.array_equal(down, np.zeros(10))


def test_simulate_d_chain_stationary_mean_vs_power_iteration():
    rho = 0.9
    cap = 200
    # truncated transition kernel fixed point
    from scipy.stats import binom

    P = np.zeros((cap + 1, cap + 1))
    for i in range(cap + 1):
        n = min(i + 1, cap)
        P[i, : n + 1] = binom.pmf(np.arange(n + 1), i + 1, rho)
    pi = np.full(cap + 1, 1.0 / (cap + 1))
    for _ in range(5000):
        pi = pi @ P
        pi /= pi.sum()
    target = float(pi @ np.arange(cap + 1))
    rng = np.random.default_rng(26)
    chain = simulate_d_chain(rho, 400_000, rng)[1000:]
    assert abs(chain.mean() - target) < 0.15


def test_simulate_path_time_varying_mode_runs():
    c = cfg(d=None, rho=0.9, nu=1.0, delta=0.1, gamma=1.0, alpha=0.8, p=2)
    rng = np.random.default_rng(27)
    beta = simulate_path(c, 300, rng)
    assert beta.shape == (2, 300)
    assert np.all(np.isfinite(beta))


@pytest.mark.parametrize(
    "kw",
    [
        dict(nu=0.1, delta=0.01, gamma=1.0, alpha=0.0, d=20),
        dict(nu=0.1, delta=0.01, gamma=1.0, alpha=0.5, d=20),
        dict(nu=1.0, delta=0.3, gamma=1.0, alpha=0.6, d=None, rho=0.8, p=2),
    ],
)
def test_simulate_path_matches_the_reference_loop(kw):
    # same bits and generator state as the loop over the math scalar and
    # masked-round kernels with the twice-squared window norm
    c = cfg(**kw)
    d_path = None if c.fixed_d else simulate_d_chain(c.rho, 2000, np.random.default_rng(30))
    rng, oracle = np.random.default_rng(31), np.random.default_rng(31)
    beta = simulate_path(c, 2000, rng, d_path=d_path)
    assert np.array_equal(beta, reference_simulate_path(c, 2000, oracle, d_path=d_path))
    assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize(
    "kw",
    [
        dict(nu=1.0, delta=0.3, gamma=1.0, alpha=0.6, d=None, rho=0.3),
        dict(nu=0.5, delta=0.2, gamma=1.5, alpha=0.9, d=1),
        dict(nu=0.1, delta=0.01, gamma=1.0, alpha=0.5, d=8),
        dict(nu=1.0, delta=0.1, gamma=1.0, alpha=0.3, d=200),
        # alpha**2 and alpha * alpha differ in the last bit at this alpha
        dict(nu=0.1, delta=0.01, gamma=1.0, alpha=0.3578680612554048, d=20),
    ],
    ids=["rho", "d1", "d8", "d200", "d20-pow-square"],
)
def test_one_row_route_matches_the_reference_loop(kw):
    # a p = 1 path steps on Python floats; its window norm must keep numpy's
    # pairwise sums, past the 128-value block at d = 200
    c = cfg(**kw)
    T = 600
    d_path = None if c.fixed_d else simulate_d_chain(c.rho, T, np.random.default_rng(34))
    if d_path is not None:
        assert np.count_nonzero(d_path[1:] == 0) > 50
    rng, oracle = np.random.default_rng(35), np.random.default_rng(35)
    beta = simulate_path(c, T, rng, d_path=d_path)
    assert np.array_equal(beta, reference_simulate_path(c, T, oracle, d_path=d_path))
    assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize(
    "kw",
    [
        dict(nu=1.0, delta=0.3, gamma=1.0, alpha=0.6, d=3),
        dict(nu=1.0, delta=0.3, gamma=1.0, alpha=0.6, d=None, rho=0.5),
    ],
    ids=["d3", "rho"],
)
def test_rows_are_one_row_paths_drawn_in_turn(kw):
    # rows share only the window lengths, so row j is the p = 1 path drawn
    # from the generator the rows before it left
    c = cfg(p=3, **kw)
    one = cfg(p=1, **kw)
    T = 400
    d_path = None if c.fixed_d else simulate_d_chain(c.rho, T, np.random.default_rng(37))
    rng, twin = np.random.default_rng(38), np.random.default_rng(38)
    beta = simulate_path(c, T, rng, d_path=d_path)
    rows = [simulate_path(one, T, twin, d_path=d_path)[0] for _ in range(3)]
    assert np.array_equal(beta, np.array(rows))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_float_window_norm_matches_mahal_sq_batch_bit_for_bit():
    # the window is read from a row's per-value products, as simulate_path
    # keeps them: squares, and lag-1 products after an unused cross[0]; it
    # sits at the row's start and after a lead of 1-5 values; a second
    # generator draws the leads, so rng draws only the windows
    rng, leads = np.random.default_rng(36), np.random.default_rng(37)
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-320, 2.2e-308, math.inf, -math.inf, math.nan])
    for n in range(301):
        for alpha in (0.0, 0.5, _ALPHA_MAX, 0.3578680612554048):
            wide = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
            mixed = wide.copy()
            mixed[rng.integers(0, n, min(n, 3))] = rng.choice(specials, min(n, 3))
            for w in (wide, mixed, rng.choice(specials, n), np.full(n, -0.0)):
                with np.errstate(all="ignore"):
                    expected = mahal_sq_batch(w[None, :], alpha)[0]
                    total = np.add.reduce(w)
                for lead in ([], leads.standard_normal(n % 5 + 1).tolist()):
                    row = [*lead, *w.tolist()]
                    sq = [x * x for x in row]
                    cross = [0.0, *(x * y for x, y in zip(row, row[1:]))]
                    lo = len(lead)
                    got = np.float64(_mahal_sq_row(sq, cross, lo, lo + n, alpha))
                    assert got.tobytes() == expected.tobytes(), (n, alpha, lo, w)
                # numpy adds its pairwise sum to +0.0, so signed zeros sum to +0.0;
                # the sign of a NaN sum follows the operand order of numpy's
                # compiled loop, which the norm above never depends on
                got = np.float64(_add_reduce(w.tolist(), 0, n))
                if np.isnan(total):
                    assert np.isnan(got), (n, w)
                else:
                    assert got.tobytes() == total.tobytes(), (n, w)


@pytest.mark.parametrize(
    "window,delta,scale",
    [
        # subnormal squares round the norm below zero, so delta^2 + msq < 0
        ([2.2739233746429083e-162, 1.5395734275277407e-162], 0.0, "nan"),
        ([math.inf, 1.0], 0.5, "nan"),
        ([1.0, -math.inf], 0.5, "inf"),
        ([math.nan, 1.0], 0.5, "nan"),
    ],
    ids=["negative", "inf", "minus-inf", "nan"],
)
def test_one_row_route_fails_as_the_array_route(monkeypatch, window, delta, scale):
    # a step takes math.sqrt, which raises where np.sqrt gives NaN; the typed
    # error must be gig_rvs's, the same at every p
    monkeypatch.setattr(dynsparse.prior, "mgh_sample", lambda init, rng: np.array(window))
    errors = []
    for p in (1, 2):
        c = cfg(nu=2.0, delta=delta, gamma=1.0, alpha=_ALPHA_MAX, d=2, p=p)
        with np.errstate(all="ignore"), pytest.raises(DomainError) as info:
            simulate_path(c, 3, np.random.default_rng(0))
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == (DomainError, f"non-finite GIG parameters (1.0, {scale}, 1.0)")


@pytest.mark.parametrize(
    "nu,delta,gamma",
    [(1.0, 0.5, 1.0), (0.01, 0.0, 1.0), (-1.5, 0.7, 0.0)],
    ids=["interior", "delta0", "gamma0"],
)
def test_fixed_d0_path_keeps_the_two_block_stream(nu, delta, gamma):
    # d = 0 draws one (p, T) block of GIG scales, then one of standard normals
    c = cfg(nu=nu, delta=delta, gamma=gamma, d=0, p=3)
    rng, twin = np.random.default_rng(32), np.random.default_rng(32)
    beta = simulate_path(c, 2000, rng)
    expected = np.sqrt(gig_rvs(nu, delta, gamma, twin, size=(3, 2000)))
    expected *= twin.standard_normal((3, 2000))
    assert np.array_equal(beta, expected)
    assert rng.bit_generator.state == twin.bit_generator.state
    # shape-0.01 gamma scales underflow to exact zeros, and -0.0 stays -0.0
    assert np.array_equal(np.signbit(beta), np.signbit(expected))
    if delta == 0.0:
        assert np.signbit(expected[expected == 0.0]).any()


def test_numpy_integer_sizes_work_like_python_ints():
    c = cfg(p=np.int64(2), d=np.int64(3))
    beta = simulate_path(c, 40, np.random.default_rng(33))
    assert np.array_equal(beta, simulate_path(cfg(p=2, d=3), 40, np.random.default_rng(33)))
    assert np.array_equal(window_correlation(np.int32(3), 0.5), window_correlation(3, 0.5))
    beta = simulate_path(cfg(p=2, d=3), np.int64(40), np.random.default_rng(33))
    assert np.array_equal(beta, simulate_path(cfg(p=2, d=3), 40, np.random.default_rng(33)))
    chain = simulate_d_chain(0.5, np.int32(40), np.random.default_rng(34))
    assert np.array_equal(chain, simulate_d_chain(0.5, 40, np.random.default_rng(34)))
    assert np.array_equal(autocorrelation(beta[0], np.int64(5)), autocorrelation(beta[0], 5))


def test_simulate_path_rejects_a_window_longer_than_the_history():
    # every chain path has d_1 = 0 and 0 <= d_t <= t - 1
    c = cfg(d=None, rho=0.5)
    for d_path, message in [
        ([0, 1, 3, 0, 9], r"d_path\[2\]=3 exceeds the available history 2"),
        ([0, -1, -3, 1, 0], r"d_path\[1\]=-1 is negative"),
        ([5, 1, 2, 1, 0], r"d_path\[0\]=5 exceeds the available history 0"),
        ([-2, 1, 2, 1, 0], r"d_path\[0\]=-2 is negative"),
    ]:
        with pytest.raises(DomainError, match=message):
            simulate_path(c, 5, np.random.default_rng(0), d_path=np.array(d_path))


def test_simulate_path_zero_window_steps_draw_with_delta(monkeypatch):
    # a d_t = 0 step of the binomial chain has an empty window, whose
    # squared norm is 0: its GIG law is GIG(nu, delta, gamma) in every row
    real = dynsparse.prior.gig_rvs
    calls = []

    def recording(nu, delta, gamma, rng):
        calls.append((nu, delta))
        return real(nu, delta, gamma, rng)

    monkeypatch.setattr(dynsparse.prior, "gig_rvs", recording)
    c = cfg(d=None, rho=0.5, nu=1.0, delta=0.3, gamma=1.0, alpha=0.6, p=2)
    d_path = np.array([0, 0, 1, 0, 2, 0, 0, 1, 2, 0])
    beta = simulate_path(c, 10, np.random.default_rng(5), d_path=d_path)
    assert np.all(np.isfinite(beta))
    # one scalar draw per step and row, the rows one after another
    assert len(calls) == 2 * 9
    for row_calls in (calls[:9], calls[9:]):
        zero_steps = [call for call, dt in zip(row_calls, d_path[1:]) if dt == 0]
        assert len(zero_steps) == 5
        for nu, delta in zero_steps:
            assert nu == c.nu
            assert type(delta) is float and delta == c.delta


@pytest.mark.parametrize(
    "kw",
    [
        dict(nu=0.1, delta=0.01, gamma=1.0, alpha=0.0, d=20),
        dict(nu=1.0, delta=0.3, gamma=1.0, alpha=0.6, d=None, rho=0.8, p=2),
        dict(nu=1.0, delta=0.3, gamma=2, alpha=0.6, d=3, p=2),
    ],
    ids=["d20", "rho", "int-gamma"],
)
def test_path_steps_never_reach_the_array_gig_kernel(monkeypatch, kw):
    # every step draws its GIG scale as three Python floats, an integer
    # gamma included, so only the scalar kernel runs; a start block takes
    # the config's own values, and an integer among them the array route
    calls = []
    real = dynsparse.distributions._devroye_gig

    def counted(lam, omega, rng):
        calls.append(lam)
        return real(lam, omega, rng)

    monkeypatch.setattr(dynsparse.distributions, "_devroye_gig", counted)
    c = cfg(**kw)
    beta = simulate_path(c, 500, np.random.default_rng(39))
    assert np.all(np.isfinite(beta))
    assert len(calls) == (0 if isinstance(c.gamma, float) else c.p)


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------


def test_acf_white_noise():
    rng = np.random.default_rng(28)
    acf = autocorrelation(rng.standard_normal(100_000), 20)
    assert np.all(np.abs(acf) < 0.02)


def test_acf_alternating():
    x = np.array([1.0, -1.0] * 500)
    assert autocorrelation(x, 1)[0] == pytest.approx(-1.0, abs=1e-2)


def test_acf_constant_series_rejected():
    with pytest.raises(DomainError):
        autocorrelation(np.ones(100), 3)


def test_acf_shared_sparsity_signature():
    # beta_t^2 for nu=0.1, delta=0.01, gamma=1, d=20, alpha=0: acf is
    # strongly positive within the window and settles to a much lower
    # (but persistently positive) plateau far beyond it, the signature
    # of the shared sparsity pattern
    c = ModelConfig(nu=0.1, delta=0.01, gamma=1.0, alpha=0.0, sigma=1.0, p=1, d=20)
    rng = np.random.default_rng(29)
    b = simulate_path(c, 100_000, rng)[0]
    acf = autocorrelation(b**2, 300)
    assert np.all(acf[:19] > 0.05)
    assert np.all(acf[250:] < 0.5 * acf[:19].min())
    assert np.mean(acf[250:]) > 0.0


ACF_SCRIPT = """
import numpy as np
from dynsparse import autocorrelation
x = np.random.default_rng(2).standard_normal(100_000) ** 2
print(autocorrelation(x, 30).tobytes().hex())
"""


def test_acf_does_not_depend_on_blas_threads():
    # a BLAS dot product blocks its sum by thread, so its rounding would
    # follow OPENBLAS_NUM_THREADS; the acf must be the same bytes for any
    src = str(Path(dynsparse.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-c", ACF_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.strip())
    assert outputs[0] == outputs[1]
