import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import kve

from dynsparse import DomainError, ModelConfig, NumericalError, conditional_gh, gh_log_pdf
from dynsparse.map_em import MapFit, RegressionData, em_map_step, run_online_map
from helpers import reference_em_map_step


def laplace_cfg(gamma=1.0, sigma=1.0):
    # nu=1, delta=0, d=0: i.i.d. Laplace prior, the lasso MAP setting
    return ModelConfig(nu=1.0, delta=0.0, gamma=gamma, alpha=0.0, sigma=sigma, p=1, d=0)


def exact_objective(beta, y, X, window, config):
    resid = y - X @ beta
    val = -0.5 * float(resid @ resid) / config.sigma**2
    for j in range(len(beta)):
        val += gh_log_pdf(conditional_gh(config, window[j]), float(beta[j]))
    return val


def test_regression_data_validation():
    with pytest.raises(DomainError):
        RegressionData([], [])
    with pytest.raises(DomainError):
        RegressionData([np.ones(2)], [np.ones((3, 1))])
    d = RegressionData([np.ones(2), np.ones(3)], [np.ones((2, 2)), np.ones((3, 2))])
    assert d.T == 2 and d.p == 2


def test_zero_data_gives_zero_estimate():
    config = ModelConfig(nu=1.0, delta=0.5, gamma=1.0, alpha=0.0, sigma=1.0, p=2, d=0)
    beta, trace, _ = em_map_step(
        np.zeros(2), np.eye(2), np.zeros((2, 0)), config, tol=1e-12, max_iter=500
    )
    assert np.allclose(beta, 0.0, atol=1e-9)
    assert np.all(np.diff(trace) >= -1e-10)


@pytest.mark.parametrize("gamma,sigma", [(1.0, 1.0), (0.5, 1.0), (1.0, 0.7)])
def test_laplace_orthonormal_matches_soft_threshold(gamma, sigma):
    # X = I, Laplace prior: MAP is sign(y) * max(|y| - gamma*sigma^2, 0)
    config = ModelConfig(nu=1.0, delta=0.0, gamma=gamma, alpha=0.0, sigma=sigma, p=4, d=0)
    y = np.array([2.0, -0.3, 0.9, -3.5])
    beta, trace, _ = em_map_step(
        y, np.eye(4), np.zeros((4, 0)), config, tol=1e-14, max_iter=5000
    )
    expected = np.sign(y) * np.maximum(np.abs(y) - gamma * sigma**2, 0.0)
    assert np.allclose(beta, expected, atol=1e-6)
    assert np.all(np.diff(trace) >= -1e-10)


def test_em_monotone_on_random_instances():
    rng = np.random.default_rng(5)
    for k in range(100):
        p = rng.integers(1, 4)
        n = rng.integers(1, 5)
        d = int(rng.integers(0, 3))
        config = ModelConfig(
            nu=float(rng.uniform(-1.0, 2.0)),
            delta=float(rng.uniform(0.2, 1.5)),
            gamma=float(rng.uniform(0.3, 2.0)),
            alpha=float(rng.uniform(0.0, 0.9)),
            sigma=float(rng.uniform(0.5, 1.5)),
            p=int(p),
            d=d,
        )
        y = rng.normal(size=n)
        X = rng.normal(size=(n, p))
        window = rng.normal(size=(p, d))
        _, trace, _ = em_map_step(y, X, window, config, tol=1e-10, max_iter=200)
        assert np.all(np.diff(trace) >= -1e-10), f"instance {k} not monotone"


def test_em_matches_numerical_ascent_oracle():
    rng = np.random.default_rng(9)
    for k in range(20):
        p, n = 2, 3
        d = int(rng.integers(0, 3))
        config = ModelConfig(
            nu=float(rng.uniform(-0.5, 2.0)),
            delta=float(rng.uniform(0.3, 1.5)),
            gamma=float(rng.uniform(0.5, 2.0)),
            alpha=float(rng.uniform(0.0, 0.8)),
            sigma=1.0,
            p=p,
            d=d,
        )
        y = rng.normal(size=n) * 2.0
        X = rng.normal(size=(n, p))
        window = rng.normal(size=(p, d))
        beta, _, _ = em_map_step(y, X, window, config, tol=1e-13, max_iter=5000)
        res = minimize(
            lambda b: -exact_objective(b, y, X, window, config),
            beta + rng.normal(size=p) * 0.05,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000},
        )
        assert np.allclose(beta, res.x, atol=1e-4), f"instance {k}: {beta} vs {res.x}"


def test_em_fixed_point_gradient_norm():
    # smooth setting (delta > 0): at convergence the objective gradient,
    # computed through the GH conditional density, is below 10 * tol
    rng = np.random.default_rng(17)
    tol = 1e-10
    for _ in range(10):
        config = ModelConfig(
            nu=0.5, delta=0.8, gamma=1.2, alpha=0.4, sigma=1.0, p=2, d=1
        )
        y = rng.normal(size=3)
        X = rng.normal(size=(3, 2))
        window = rng.normal(size=(2, 1))
        beta, _, _ = em_map_step(y, X, window, config, tol=tol, max_iter=50000)
        h = 1e-7
        g = np.zeros(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            g[j] = (
                exact_objective(beta + e, y, X, window, config)
                - exact_objective(beta - e, y, X, window, config)
            ) / (2 * h)
        assert np.max(np.abs(g)) < 10.0 * tol + 1e-6  # fd noise floor ~1e-7


def test_online_map_single_step_is_static_map():
    config = laplace_cfg()
    data = RegressionData([np.array([3.0])], [np.eye(1)])
    fit = run_online_map(data, config, tol=1e-13, max_iter=5000)
    assert fit.beta_hat[0, 0] == pytest.approx(2.0, abs=1e-6)


def _synthetic_instance(T=80, seed=0, sigma=0.5):
    rng = np.random.default_rng(seed)
    truth = np.zeros(T)
    truth[10:30] = 4.0
    truth[45:60] = -3.0
    y = truth + sigma * rng.standard_normal(T)
    data = RegressionData([np.array([v]) for v in y], [np.eye(1)] * T)
    return data, truth


def test_online_map_support_recovery():
    data, truth = _synthetic_instance(seed=3)
    config = ModelConfig(nu=2.0, delta=0.0, gamma=5.0, alpha=0.5, sigma=0.5, p=1, d=2)
    fit = run_online_map(data, config, tol=1e-10, max_iter=500, eps_sparse=0.2)
    est = fit.support[0]
    true_sup = truth != 0
    tp = np.sum(est & true_sup)
    f1 = 2 * tp / (2 * tp + np.sum(est & ~true_sup) + np.sum(~est & true_sup))
    assert f1 > 0.8
    assert all(np.all(np.diff(tr) >= -1e-10) for tr in fit.objective_trace)


def test_detection_lag_nondecreasing_in_d():
    # larger d delays detection of a sparsity-pattern change
    data, truth = _synthetic_instance(T=80, seed=7)
    onset = 10
    lags = []
    for d in [0, 2, 5]:
        config = ModelConfig(
            nu=(d + 2) / 2.0, delta=0.0, gamma=1.0, alpha=0.0, sigma=0.5, p=1, d=d
        )
        fit = run_online_map(data, config, tol=1e-9, max_iter=300)
        active = np.nonzero(fit.support[0, onset:])[0]
        lags.append(active[0] if active.size else np.inf)
    assert lags == sorted(lags)


def test_online_map_requires_fixed_d():
    data, _ = _synthetic_instance(T=5)
    config = ModelConfig(nu=1.0, delta=0.1, gamma=1.0, alpha=0.5, sigma=1.0, p=1, rho=0.9)
    with pytest.raises(DomainError):
        run_online_map(data, config)


def test_error_reports_failing_time_step():
    data = RegressionData([np.array([math.nan])], [np.eye(1)])
    config = laplace_cfg()
    with pytest.raises(Exception, match="t=1"):
        run_online_map(data, config)


# ---------------------------------------------------------------------------
# the batched sweep against the per-coefficient reference, bit for bit
# ---------------------------------------------------------------------------


def assert_step_matches_reference(y, X, window, config, tol=1e-8, max_iter=100):
    beta, trace, converged = em_map_step(y, X, window, config, tol=tol, max_iter=max_iter)
    ref = reference_em_map_step(y, X, window, config, tol=tol, max_iter=max_iter)
    ref_beta, ref_trace, ref_converged = ref
    assert np.array_equal(beta, ref_beta), (beta, ref_beta)
    assert np.array_equal(trace, ref_trace), (trace, ref_trace)
    assert converged == ref_converged
    return beta


def assert_online_matches_reference(config, ys, Xs, **kw):
    """Every step of an online run, each on the reference's own history."""
    beta_hat = np.zeros((Xs[0].shape[1], len(ys)))
    for t in range(len(ys)):
        window = beta_hat[:, t - min(config.d, t) : t]
        beta_hat[:, t] = assert_step_matches_reference(ys[t], Xs[t], window, config, **kw)
    fit = run_online_map(RegressionData(ys, Xs), config, **kw)
    assert np.array_equal(fit.beta_hat, beta_hat)


def sparse_series(T, p, rows, seed):
    rng = np.random.default_rng(seed)
    coefs = np.zeros((p, T))
    coefs[0, T // 4 :] = 2.0
    coefs[1, : T // 2] = -1.5
    ys, Xs = [], []
    for t in range(T):
        X = rng.standard_normal((rows, p))
        ys.append(X @ coefs[:, t] + 0.5 * rng.standard_normal(rows))
        Xs.append(X)
    return ys, Xs


def test_batched_step_matches_reference_on_the_benchmark_model():
    config = ModelConfig(nu=3.0, delta=0.1, gamma=0.5, alpha=0.5, sigma=0.5, p=4, d=4)
    ys, Xs = sparse_series(T=40, p=4, rows=3, seed=11)
    assert_online_matches_reference(config, ys, Xs)


def test_batched_step_matches_reference_in_the_small_delta_limit():
    # delta = 0 with d = 0: every conditional sits on the delta' < _DELTA_LIMIT
    # branch, and the prior-mean start puts every q at 0
    config = ModelConfig(nu=1.0, delta=0.0, gamma=1.0, alpha=0.0, sigma=0.5, p=3, d=0)
    ys, Xs = sparse_series(T=15, p=3, rows=2, seed=12)
    assert_online_matches_reference(config, ys, Xs, tol=1e-10, max_iter=300)


def test_batched_step_matches_reference_for_the_student_prior():
    config = ModelConfig(nu=-1.0, delta=0.5, gamma=0.0, alpha=0.5, sigma=0.5, p=3, d=2)
    ys, Xs = sparse_series(T=15, p=3, rows=2, seed=13)
    assert_online_matches_reference(config, ys, Xs)


@pytest.mark.parametrize("rows_zero", [[0, 1, 2], [1]])
def test_batched_step_matches_reference_when_q_is_zero(rows_zero):
    # delta = 0 and zero window rows: delta' = 0, so q = |beta - mu| is 0 at
    # the start; the other rows (if any) stay on the batched route
    config = ModelConfig(nu=2.0, delta=0.0, gamma=1.0, alpha=0.5, sigma=0.5, p=3, d=2)
    rng = np.random.default_rng(14)
    window = rng.normal(size=(3, 2))
    window[rows_zero] = 0.0
    assert conditional_gh(config, window[rows_zero[0]]).delta == 0.0
    for _ in range(5):
        X = rng.standard_normal((2, 3))
        assert_step_matches_reference(X @ [1.0, 0.0, -1.0], X, window, config, tol=1e-10)


def test_batched_step_matches_reference_on_the_mpmath_fallback():
    # d = 300 puts the conditional's order near -150; with a small window the
    # Bessel argument is small and K overflows a double, so kve gives inf
    config = ModelConfig(nu=1.0, delta=0.1, gamma=1.0, alpha=0.3, sigma=0.5, p=2, d=300)
    rng = np.random.default_rng(15)
    window = 0.01 * rng.normal(size=(2, 300))
    prior = conditional_gh(config, window[0])
    assert not np.isfinite(kve(abs(prior.nu - 0.5), prior.gamma * prior.delta))
    X = rng.standard_normal((3, 2))
    assert_step_matches_reference(X @ [0.5, 0.0], X, window, config)


# ---------------------------------------------------------------------------
# failures and the max-iteration policy
# ---------------------------------------------------------------------------


def test_overflowing_observation_is_a_numerical_error():
    # y^2 overflows: the objective's log-likelihood is -inf at the start
    config = laplace_cfg(sigma=0.5)
    data = RegressionData([np.array([0.5]), np.array([1e300])], [np.eye(1)] * 2)
    with pytest.raises(NumericalError, match=r"t=2: EM objective is not finite"):
        with np.errstate(over="ignore"):
            run_online_map(data, config)


def test_non_finite_estep_delta_is_a_numerical_error():
    # mu = 2.61e153 and the data pull beta to ~3.5e152: (beta - mu)^2 stays
    # finite in the objective but overflows once divided by 1 - alpha^2
    config = ModelConfig(nu=3.0, delta=0.5, gamma=100.0, alpha=0.9, sigma=0.03, p=1, d=2)
    window = np.array([[-2.9e153, 2.9e153]])
    with pytest.raises(NumericalError, match="E-step delta is not finite"):
        with np.errstate(over="ignore"):
            em_map_step(np.array([1e17]), np.array([[0.16]]), window, config)


def test_student_prior_overflow_is_a_numerical_error():
    # gamma = 0 takes the scalar route: the data pull beta to ~-1e156, where
    # the fit is finite but (beta - mu)^2 overflows and the log prior is -inf
    config = ModelConfig(nu=-1.0, delta=0.002, gamma=0.0, alpha=0.0, sigma=0.3, p=1, d=0)
    with pytest.raises(NumericalError, match=r"EM objective is not finite \(-inf\)"):
        with np.errstate(over="ignore"):
            em_map_step(np.array([-6e152]), np.array([[5e-4]]), np.zeros((1, 0)), config)


def test_converged_flag_and_one_max_iter_warning():
    data, _ = _synthetic_instance(T=30, seed=3)
    config = ModelConfig(nu=2.0, delta=0.1, gamma=1.0, alpha=0.5, sigma=0.5, p=1, d=2)
    free = run_online_map(data, config, tol=1e-10, max_iter=500)
    max_iter = int(np.median(free.em_iters))
    stuck = np.flatnonzero(free.em_iters > max_iter)
    with pytest.warns(RuntimeWarning) as record:
        fit = run_online_map(data, config, tol=1e-10, max_iter=max_iter)
    assert len(record) == 1
    message = str(record[0].message)
    assert f"{stuck.size} of 30 EM steps stopped at max_iter={max_iter}" in message
    assert f"first at t={stuck[0] + 1}" in message
    assert fit.converged.dtype == np.bool_
    assert np.array_equal(np.flatnonzero(~fit.converged), stuck)
    # steps that meet the stopping rule on their last sweep count as converged
    assert np.any(fit.converged & (fit.em_iters == max_iter))
    assert 0 < fit.converged.sum() < 30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_online_map(data, config, tol=1e-10, max_iter=500).converged.all()


def test_step_converging_on_its_last_sweep_is_converged():
    # max_iter set to the sweep count at which the slowest step converges:
    # that step met its stopping rule, so it is converged and nothing warns
    data, _ = _synthetic_instance(T=30, seed=3)
    config = ModelConfig(nu=2.0, delta=0.1, gamma=1.0, alpha=0.5, sigma=0.5, p=1, d=2)
    free = run_online_map(data, config, tol=1e-10, max_iter=500)
    max_iter = int(free.em_iters.max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = run_online_map(data, config, tol=1e-10, max_iter=max_iter)
    assert fit.converged.all() and fit.em_iters.max() == max_iter
    assert np.array_equal(fit.beta_hat, free.beta_hat)

    t = int(np.argmax(free.em_iters))
    step = (data.ys[t], data.Xs[t], free.beta_hat[:, max(0, t - 2) : t], config)
    _, trace, converged = em_map_step(*step, tol=1e-10, max_iter=max_iter)
    assert converged and len(trace) - 1 == max_iter
    _, trace, converged = em_map_step(*step, tol=1e-10, max_iter=max_iter - 1)
    assert not converged and len(trace) - 1 == max_iter - 1
