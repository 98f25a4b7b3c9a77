"""Particle filter and independent MH: weight identities, unbiasedness,
resampling, lineage structure, and chain summaries."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

import dynsparse.smc
from dynsparse import (
    DegeneracyError,
    DomainError,
    GhParams,
    GigParams,
    ModelConfig,
    NumericalError,
    PosteriorChain,
    RegressionData,
    conditional_gh,
    gh_log_pdf,
    pimh_run,
    posterior_summary,
    smc_run,
)
from dynsparse.smc import _sample_tau, _systematic_resample, _weight_and_propose

from helpers import gh_pdf_by_mixture, normal_pdf, reference_weight_and_propose


def cfg(**kw):
    base = dict(nu=1.0, delta=0.5, gamma=1.0, alpha=0.5, sigma=0.7, p=1, d=0)
    base.update(kw)
    return ModelConfig(**base)


def iid_log_evidence(config, data):
    """Quadrature log-evidence for d = 0 (independent coefficients, p=1)."""
    marg = GhParams(0.0, config.nu, config.delta, config.gamma)
    total = 0.0
    for y, X in zip(data.ys, data.Xs):
        x = X[0, 0]

        def f(b):
            return normal_pdf(y[0], x * b, config.sigma**2) * gh_pdf_by_mixture(
                marg, b, rel_tol=1e-9
            )

        val, _ = quad(f, -np.inf, np.inf, epsabs=0.0, epsrel=1e-9, limit=400)
        total += math.log(val)
    return total


# ---------------------------------------------------------------------------
# weight identity and proposal structure
# ---------------------------------------------------------------------------


def test_weight_scalar_formula():
    # p=1, n=1, X=1: log N(y; alpha*beta_prev, tau + sigma^2)
    y, X = np.array([1.3]), np.array([[1.0]])
    tau = np.array([[0.8]])
    prev = np.array([[2.0]])
    lw, _ = _weight_and_propose(y, X, 0.5 * prev, tau, 0.49, np.random.default_rng(0))
    expected = math.log(normal_pdf(1.3, 0.5 * 2.0, 0.8 + 0.49))
    assert lw[0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_weight_matches_quadrature_marginal(seed):
    # p=2, n=2: the analytic weight equals integrating beta out of
    # N(y; X beta, s2 I) N(beta; alpha*prev, D_tau)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2, 2))
    y = rng.standard_normal(2)
    tau = rng.uniform(0.3, 2.0, (1, 2))
    prev = rng.standard_normal((1, 2))
    alpha, s2 = 0.6, 0.5
    lw, _ = _weight_and_propose(y, X, alpha * prev, tau, s2, rng)

    mean = alpha * prev[0]

    def inner(b1, b2):
        b = np.array([b1, b2])
        r = y - X @ b
        like = math.exp(-0.5 * np.dot(r, r) / s2) / (2 * math.pi * s2)
        pri = normal_pdf(b1, mean[0], tau[0, 0]) * normal_pdf(b2, mean[1], tau[0, 1])
        return like * pri

    lo1, hi1 = mean[0] - 9 * math.sqrt(tau[0, 0]), mean[0] + 9 * math.sqrt(tau[0, 0])
    lo2, hi2 = mean[1] - 9 * math.sqrt(tau[0, 1]), mean[1] + 9 * math.sqrt(tau[0, 1])
    from scipy.integrate import dblquad

    val, _ = dblquad(inner, lo2, hi2, lo1, hi1, epsabs=1e-12, epsrel=1e-10)
    assert lw[0] == pytest.approx(math.log(val), abs=1e-6)


def test_proposal_reverts_to_prior_transition_without_data():
    # X = 0: mu = alpha * beta_prev, variance tau
    rng = np.random.default_rng(7)
    tau = np.full((20_000, 1), 1.7)
    prev = np.full((20_000, 1), 3.0)
    zero = np.array([0.0])
    _, beta = _weight_and_propose(zero, zero[:, None], 0.4 * prev, tau, 1.0, rng)
    assert beta.mean() == pytest.approx(0.4 * 3.0, abs=0.03)
    assert beta.var() == pytest.approx(1.7, rel=0.05)


def dense_log_weight_oracle(y, X, tau, mean, s2):
    """log N(y; X mean, X D_tau X' + s2 I) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        Xm = mpmath.matrix(X.tolist())
        r = mpmath.matrix(y.tolist()) - Xm * mpmath.matrix(mean.tolist())
        cov = Xm * mpmath.diag(tau.tolist()) * Xm.T + s2 * mpmath.eye(len(y))
        quad_form = (r.T * mpmath.lu_solve(cov, r))[0]
        log_det = mpmath.log(mpmath.det(cov))
        return float(-(len(y) * mpmath.log(2 * mpmath.pi) + log_det + quad_form) / 2)


@pytest.mark.parametrize("n,p", [(2, 1), (4, 4), (6, 4), (8, 8)])
def test_weight_matches_high_precision_dense_oracle(n, p):
    # every corner of tau in {e^-16, 1, e^16}^p (up to p = 4; 3^8 corners
    # would take too long) plus random scales in between: X D_tau X' +
    # sigma^2 I is ill-conditioned there, the p x p posterior precision is
    # not while X'X has full rank (n >= p)
    rng = np.random.default_rng(2024 + n)
    s2, alpha = 0.49, 0.7
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    grid = itertools.product([-16.0, 0.0, 16.0], repeat=p)
    corners = np.array(list(grid)) if p <= 4 else np.empty((0, p))
    tau = np.exp(np.vstack([corners, rng.uniform(-16.0, 16.0, (40, p))]))
    N = tau.shape[0]
    prev = rng.standard_normal((N, p))
    # per-particle means: a third of the particles step from the mean zero
    m = (alpha * (np.arange(N) % 3 > 0))[:, None] * prev
    lw, _ = _weight_and_propose(y, X, m, tau, s2, rng)
    exact = [dense_log_weight_oracle(y, X, tau[i], m[i], s2) for i in range(N)]
    np.testing.assert_allclose(lw, exact, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 3])
def test_weight_and_propose_keeps_the_reference_stream(n, p):
    # skipping the sums over empty ranges keeps every bit of the weights and
    # draws, and the generator state, at n < p, n = p and n > p
    rng = np.random.default_rng(100 * n + p)
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    m = rng.standard_normal((60, p))
    tau = np.exp(rng.uniform(-8.0, 8.0, (60, p)))
    for seed in range(3):
        got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        lw, beta = _weight_and_propose(y, X, m, tau, 0.3, got)
        lw_ref, beta_ref = reference_weight_and_propose(y, X, m, tau, 0.3, ref)
        assert np.array_equal(lw, lw_ref) and np.array_equal(beta, beta_ref)
        assert got.bit_generator.state == ref.bit_generator.state


def test_proposal_matches_dense_posterior():
    # beta = mu + L'^{-1} z with mu and L from the dense posterior precision
    # and z the same standard normals
    rng = np.random.default_rng(5)
    N, p, n, s2, alpha = 50, 3, 2, 0.3, 0.8
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    tau = np.exp(rng.uniform(-3.0, 3.0, (N, p)))
    prev = rng.standard_normal((N, p))
    m = (alpha * (np.arange(N) % 2))[:, None] * prev  # per-particle means
    _, beta = _weight_and_propose(y, X, m, tau, s2, np.random.default_rng(9))
    z = np.random.default_rng(9).standard_normal((N, p))
    for i in range(N):
        prec = np.diag(1.0 / tau[i]) + X.T @ X / s2
        mu = np.linalg.solve(prec, m[i] / tau[i] + X.T @ y / s2)
        expected = mu + np.linalg.solve(np.linalg.cholesky(prec).T, z[i])
        np.testing.assert_allclose(beta[i], expected, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# tau step
# ---------------------------------------------------------------------------


def _record_tau_step(monkeypatch):
    """Wrap the tau step's two bindings; returns their recorded inputs."""
    msq_inputs, gig_inputs = [], []
    real_msq, real_gig = dynsparse.smc.mahal_sq_batch, dynsparse.smc.gig_rvs

    def msq(x, alpha):
        msq_inputs.append(np.array(x))
        return real_msq(x, alpha)

    def gig(nu, delta, gamma, rng):
        gig_inputs.append(np.broadcast_arrays(nu, delta, gamma))
        return real_gig(nu, delta, gamma, rng)

    monkeypatch.setattr(dynsparse.smc, "mahal_sq_batch", msq)
    monkeypatch.setattr(dynsparse.smc, "gig_rvs", gig)
    return msq_inputs, gig_inputs


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("L", [0, 1, 2, 7])
def test_tau_step_matches_conditional_gh_mixing_per_window(monkeypatch, L, scaled):
    # one masked window-norm call gives every particle the mixing law of the
    # conditional GH of its own last d values; unscaled (every d = 0, as at
    # t = 1) the marginal GIG
    config = cfg(d=None, rho=0.8, delta=0.3, gamma=1.2, alpha=0.7)
    msq_inputs, gig_inputs = _record_tau_step(monkeypatch)
    rng = np.random.default_rng(L)
    N, p = 40, 3
    hist = rng.standard_normal((L, N, p)) * rng.uniform(0.1, 3.0, (1, N, p))
    if scaled:
        ds = rng.integers(0, L + 1, N)
        ds[:3] = [0, L, min(1, L)]  # d = 1 < L where L > 1
    else:
        ds = np.zeros(N, dtype=np.int64)
    tau = _sample_tau(hist, ds, config, rng, scaled)

    assert tau.shape == (N, p) and np.all(tau > 0)
    assert len(msq_inputs) == 1 and msq_inputs[0].shape == (N, p, L)
    (nu, dl, gm), = gig_inputs
    a = math.sqrt(1.0 - config.alpha**2)
    for i, j in itertools.product(range(N), range(p)):
        law = conditional_gh(config, hist[L - ds[i] :, i, j]).mixing
        if scaled and ds[i] == 0:
            # the binomial chain's d = 0 step keeps the mean alpha * beta_{t-1}
            # and so the scaling, where conditional_gh gives the marginal
            law = GigParams(law.nu, a * law.delta, law.gamma / a)
        np.testing.assert_allclose(
            [nu[i, j], dl[i, j], gm[i, j]], [law.nu, law.delta, law.gamma],
            rtol=1e-13, atol=0.0,
        )


def test_tau_step_one_window_norm_call_per_step(monkeypatch):
    msq_inputs, gig_inputs = _record_tau_step(monkeypatch)
    T = 8
    smc_run(_tiny_data(T=T), cfg(d=None, rho=0.9), 64, np.random.default_rng(3))
    assert len(msq_inputs) == len(gig_inputs) == T
    assert msq_inputs[0].shape == (64, 1, 0)  # empty buffer at t = 1
    # t = 1 draws from the unscaled marginal GIG
    np.testing.assert_array_equal(gig_inputs[0][1], 0.5)
    np.testing.assert_array_equal(gig_inputs[0][2], 1.0)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def test_systematic_resampling_preserves_expectations():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(200)
    w = rng.random(200)
    w /= w.sum()
    target = np.dot(w, np.tanh(vals))
    means = []
    for _ in range(400):
        idx = _systematic_resample(w, rng)
        means.append(np.tanh(vals[idx]).mean())
    se = np.std(means) / math.sqrt(len(means))
    assert abs(np.mean(means) - target) < 4 * se + 1e-12
    # counts concentrate: each expected count is off by less than 1
    idx = _systematic_resample(w, rng)
    counts = np.bincount(idx, minlength=200)
    assert np.all(np.abs(counts - 200 * w) < 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# smc_run
# ---------------------------------------------------------------------------


def _tiny_data(T=1, seed=0, x=1.0):
    rng = np.random.default_rng(seed)
    ys = [np.array([0.6 + 0.1 * t + 0.01 * rng.standard_normal()]) for t in range(T)]
    Xs = [np.array([[x]])] * T
    return RegressionData(ys, Xs)


def test_evidence_single_step_matches_quadrature():
    config = cfg(d=0)
    data = _tiny_data(T=1)
    truth = iid_log_evidence(config, data)
    rng = np.random.default_rng(11)
    log_zs = np.array([smc_run(data, config, 64, rng)[2] for _ in range(300)])
    zs = np.exp(log_zs)
    se = zs.std(ddof=1) / math.sqrt(zs.size)
    assert abs(zs.mean() - math.exp(truth)) < 4 * se


def test_evidence_unbiased_two_steps():
    config = cfg(d=0)
    data = _tiny_data(T=2)
    truth = math.exp(iid_log_evidence(config, data))
    rng = np.random.default_rng(13)
    zs = np.exp([smc_run(data, config, 50, rng)[2] for _ in range(500)])
    se = zs.std(ddof=1) / math.sqrt(zs.size)
    assert abs(zs.mean() - truth) < 4 * se


def test_posterior_mean_converges_in_n():
    # fixed d=1, T=2: compare against a nested-quadrature posterior mean
    config = cfg(d=1, alpha=0.5)
    data = _tiny_data(T=2)
    marg = GhParams(0.0, config.nu, config.delta, config.gamma)
    s2 = config.sigma**2

    def joint(b1):
        cond = conditional_gh(config, np.array([b1]))

        def inner(b2):
            return normal_pdf(data.ys[1][0], b2, s2) * math.exp(gh_log_pdf(cond, b2))

        val, _ = quad(inner, -12, 12, epsabs=1e-13, epsrel=1e-9, limit=300)
        return val * normal_pdf(data.ys[0][0], b1, s2) * math.exp(gh_log_pdf(marg, b1))

    grid = np.linspace(-6, 6, 1201)
    dens = np.array([joint(b) for b in grid])
    norm = np.trapezoid(dens, grid)
    target = np.trapezoid(grid * dens, grid) / norm
    cdf = np.concatenate(
        [[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))]
    ) / norm

    rng = np.random.default_rng(17)
    draws = np.array(
        [smc_run(data, config, 300, rng)[0][0, 0] for _ in range(3000)]
    )
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - target) < 4 * se
    # trajectory draws reproduce the quadrature posterior law of beta_1
    for q in [0.2, 0.6, 1.0, 1.4]:
        emp = np.mean(draws <= q)
        assert emp == pytest.approx(np.interp(q, grid, cdf), abs=0.04)


def test_lineage_d_increments_bounded():
    # along any ancestral line d_t <= d_{t-1} + 1, read via the genealogy
    config = cfg(d=None, rho=0.8, delta=0.3)
    data = _tiny_data(T=30, seed=5)
    rng = np.random.default_rng(23)
    for _ in range(5):
        _, d_draw, _ = smc_run(data, config, 40, rng)
        assert d_draw[0] == 0
        assert np.all(np.diff(d_draw) <= 1)
        assert np.all(d_draw >= 0)


def test_smc_reproducible_and_requires_particles():
    config = cfg()
    data = _tiny_data(T=3)
    out1 = smc_run(data, config, 32, np.random.default_rng(9))
    out2 = smc_run(data, config, 32, np.random.default_rng(9))
    assert np.array_equal(out1[0], out2[0]) and out1[2] == out2[2]
    with pytest.raises(DomainError, match="particles"):
        smc_run(data, config, 1, np.random.default_rng(0))


@pytest.mark.parametrize("M", [0, -2])
def test_pimh_run_needs_an_iteration(M):
    with pytest.raises(DomainError, match=f"^need at least one iteration, got M={M}$"):
        pimh_run(_tiny_data(T=3), cfg(), 8, M, np.random.default_rng(0))


def test_weight_collapse_raises_degeneracy():
    config = cfg()
    data = RegressionData([np.array([1e200])], [np.eye(1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegeneracyError, match="t=1"):
            smc_run(data, config, 16, np.random.default_rng(2))


def test_partial_nan_log_weights_raise_numerical_error(monkeypatch):
    # half the particles get a NaN log-weight at t=3; the log-sum-exp
    # would otherwise carry the NaN into log Z
    calls = []

    def half_nan(*args):
        lw, beta = _weight_and_propose(*args)
        calls.append(None)
        if len(calls) == 3:
            lw[: lw.shape[0] // 2] = np.nan
        return lw, beta

    monkeypatch.setattr(dynsparse.smc, "_weight_and_propose", half_nan)
    with pytest.raises(NumericalError, match="t=3") as info:
        smc_run(_tiny_data(T=5), cfg(d=1), 16, np.random.default_rng(4))
    assert not isinstance(info.value, DegeneracyError)


def test_infinite_log_weight_raises_numerical_error(monkeypatch):
    # one +inf log-weight at t=3 would turn every normalized weight into NaN
    calls = []

    def one_inf(*args):
        lw, beta = _weight_and_propose(*args)
        calls.append(None)
        if len(calls) == 3:
            lw[1] = np.inf
        return lw, beta

    monkeypatch.setattr(dynsparse.smc, "_weight_and_propose", one_inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match=r"^infinite particle log-weight at t=3$"):
            smc_run(_tiny_data(T=5), cfg(d=1), 16, np.random.default_rng(4))


def test_log_sum_exp_matches_scipy(monkeypatch):
    # the evidence increment log sum exp(total) is the max-shifted sum:
    # log Z of a pass agrees with scipy's logsumexp of the same weights
    increments = []

    def record(*args):
        lw, beta = _weight_and_propose(*args)
        increments.append(lw)
        return lw, beta

    monkeypatch.setattr(dynsparse.smc, "_weight_and_propose", record)
    N = 64
    _, _, log_z = smc_run(_tiny_data(T=6), cfg(d=1), N, np.random.default_rng(5))
    # resampling runs every step, so each step starts from weights 1/N
    expected = sum(float(logsumexp(lw)) - np.log(N) for lw in increments)
    assert log_z == pytest.approx(expected, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize(
    "target,error",
    [
        ("_sample_tau", DomainError),
        ("_sample_tau", NumericalError),
        ("_weight_and_propose", NumericalError),
        ("_weight_and_propose", DegeneracyError),
    ],
)
def test_step_failure_names_time_step(monkeypatch, target, error):
    real = getattr(dynsparse.smc, target)
    calls = []

    def fail_at_third_step(*args):
        calls.append(None)
        if len(calls) == 3:
            raise error("boom")
        return real(*args)

    monkeypatch.setattr(dynsparse.smc, target, fail_at_third_step)
    with pytest.raises(error, match=r"^at time step t=3: boom$") as info:
        smc_run(_tiny_data(T=5), cfg(d=None, rho=0.8), 16, np.random.default_rng(4))
    assert type(info.value) is error


def test_cholesky_failure_names_time_step(monkeypatch):
    # scales of -1 (no GIG draw gives them) make X'X / sigma^2 - I indefinite
    real = dynsparse.smc._sample_tau
    calls = []

    def negative_at_third_step(*args):
        calls.append(None)
        tau = real(*args)
        return -np.ones_like(tau) if len(calls) == 3 else tau

    monkeypatch.setattr(dynsparse.smc, "_sample_tau", negative_at_third_step)
    data = RegressionData([np.array([0.5])] * 4, [np.array([[1.0, 1.0]])] * 4)
    with pytest.raises(NumericalError, match="t=3: posterior precision not positive"):
        smc_run(data, cfg(p=2, d=1), 16, np.random.default_rng(6))


@pytest.mark.parametrize(
    "config", [cfg(p=2, d=2), cfg(p=2, d=None, rho=0.8)], ids=["fixed-d", "rho"]
)
def test_log_evidence_sums_every_step_mean_weight(monkeypatch, config):
    # every step resamples, so each step's weights start uniform and
    # log Z-hat = sum_t log mean_i w_t,i, to rounding
    real = dynsparse.smc._weight_and_propose
    log_ws = []

    def recording(*args):
        lw, beta = real(*args)
        log_ws.append(lw.copy())
        return lw, beta

    monkeypatch.setattr(dynsparse.smc, "_weight_and_propose", recording)
    rng = np.random.default_rng(37)
    T, N = 7, 40
    ys = [rng.standard_normal(3) for _ in range(T)]
    Xs = [rng.standard_normal((3, 2)) for _ in range(T)]
    log_z = smc_run(RegressionData(ys, Xs), config, N, rng)[2]
    assert len(log_ws) == T
    expected = sum(np.logaddexp.reduce(lw) - math.log(N) for lw in log_ws)
    assert log_z == pytest.approx(expected, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# pimh_run / posterior_summary
# ---------------------------------------------------------------------------


def test_acceptance_rate_increases_with_n():
    config = cfg(d=1)
    data = _tiny_data(T=4, seed=2)
    rates = []
    rng = np.random.default_rng(41)
    for N in [5, 50, 500]:
        chain = pimh_run(data, config, N, 120, rng)
        rates.append(chain.acceptance_rate)
    assert rates[0] < rates[2]
    assert rates[-1] > 0.5


def test_chain_stores_current_or_proposed():
    config = cfg(d=1)
    data = _tiny_data(T=3, seed=4)
    chain = pimh_run(data, config, 20, 50, np.random.default_rng(3))
    for m in range(1, 50):
        same = np.array_equal(chain.betas[m], chain.betas[m - 1])
        assert same != chain.accepted[m] or chain.accepted[m]


def _spoil_second_pass(monkeypatch, value, T):
    """Patch the step weights so the second SMC pass sees ``value`` at t=2."""
    real = dynsparse.smc._weight_and_propose
    calls = []

    def spoiled(*args):
        lw, beta = real(*args)
        calls.append(None)
        if len(calls) == T + 2:
            lw[:] = value
        return lw, beta

    monkeypatch.setattr(dynsparse.smc, "_weight_and_propose", spoiled)


def test_pimh_counts_a_collapsed_proposal_as_a_rejection(monkeypatch):
    # all weights -inf is Z-hat = 0, a valid estimate: no warning, the
    # chain repeats its state
    T = 3
    _spoil_second_pass(monkeypatch, -np.inf, T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = pimh_run(_tiny_data(T=T), cfg(d=1), 16, 3, np.random.default_rng(8))
    assert not chain.accepted[1]
    assert np.array_equal(chain.betas[1], chain.betas[0])
    assert np.array_equal(chain.ds[1], chain.ds[0])
    assert chain.log_evidence[1] == chain.log_evidence[0]


def test_pimh_propagates_a_nan_proposal(monkeypatch):
    T = 3
    _spoil_second_pass(monkeypatch, np.nan, T)
    with pytest.raises(NumericalError, match=r"iteration 2: .*t=2") as info:
        pimh_run(_tiny_data(T=T), cfg(d=1), 16, 3, np.random.default_rng(8))
    assert not isinstance(info.value, DegeneracyError)


@pytest.mark.parametrize("value,error", [(np.nan, NumericalError), (-np.inf, DegeneracyError)])
def test_pimh_names_iteration_one_when_the_first_pass_fails(monkeypatch, value, error):
    # a collapsed first pass raises too: the chain needs a start with Z-hat > 0
    real = dynsparse.smc._weight_and_propose

    def spoiled(*args):
        lw, beta = real(*args)
        lw[:] = value
        return lw, beta

    monkeypatch.setattr(dynsparse.smc, "_weight_and_propose", spoiled)
    with pytest.raises(error, match=r"^PIMH iteration 1: .*t=1") as info:
        pimh_run(_tiny_data(T=3), cfg(d=1), 16, 1, np.random.default_rng(8))
    assert type(info.value) is error


def test_summary_single_iteration_and_symmetry():
    beta = np.arange(6.0).reshape(1, 2, 3)
    chain = PosteriorChain(
        betas=beta, ds=np.zeros((1, 3), dtype=np.int64),
        log_evidence=np.zeros(1), accepted=np.ones(1, dtype=bool),
    )
    summ = posterior_summary(chain, np.array([0.5]))
    assert np.array_equal(summ.mean, beta[0])
    sym = PosteriorChain(
        betas=np.concatenate([beta, -beta]),
        ds=np.zeros((2, 3), dtype=np.int64),
        log_evidence=np.zeros(2),
        accepted=np.ones(2, dtype=bool),
    )
    assert np.allclose(posterior_summary(sym, np.array([0.5])).mean, 0.0)


def test_summary_quantiles_sorting_oracle():
    rng = np.random.default_rng(8)
    betas = rng.standard_normal((101, 2, 4))
    chain = PosteriorChain(
        betas=betas,
        ds=rng.integers(0, 3, (101, 4)).astype(np.int64),
        log_evidence=rng.standard_normal(101),
        accepted=np.ones(101, dtype=bool),
    )
    probs = np.array([0.1, 0.5, 0.9])
    summ = posterior_summary(chain, probs)
    for k, q in enumerate(probs):
        for j in range(2):
            for t in range(4):
                srt = np.sort(betas[:, j, t])
                assert summ.quantiles[k, j, t] == pytest.approx(
                    np.quantile(srt, q), abs=1e-12
                )
    assert np.allclose(summ.d_posterior.sum(axis=0), 1.0)


def test_summary_validation():
    chain = PosteriorChain(
        betas=np.zeros((0, 1, 1)), ds=np.zeros((0, 1), dtype=np.int64),
        log_evidence=np.zeros(0), accepted=np.zeros(0, dtype=bool),
    )
    with pytest.raises(DomainError, match="empty"):
        posterior_summary(chain, np.array([0.5]))
    good = PosteriorChain(
        betas=np.zeros((2, 1, 1)), ds=np.zeros((2, 1), dtype=np.int64),
        log_evidence=np.zeros(2), accepted=np.ones(2, dtype=bool),
    )
    with pytest.raises(DomainError, match="0, 1"):
        posterior_summary(good, np.array([1.5]))
    with pytest.raises(DomainError, match="0, 1"):
        posterior_summary(good, np.array([0.05, np.nan]))
