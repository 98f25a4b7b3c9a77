"""Sliding-window group lasso: oracle agreement, KKT, and solver behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsparse import (
    ConvergenceError,
    DomainError,
    ModelConfig,
    NumericalError,
    RegressionData,
    WindowCorrelation,
    WindowProblem,
    mahalanobis_penalty,
    run_sliding_window,
    solve_window,
)
from dynsparse.group_lasso import _group_magnitude


def stacked_whitened(problem):
    """Independent construction of Y and the whitened group designs A_j."""
    Y = np.concatenate(problem.ys)
    L = np.linalg.cholesky(problem.corr.matrix)
    ns = [y.shape[0] for y in problem.ys]
    offsets = np.concatenate([[0], np.cumsum(ns)])
    designs = []
    for j in range(problem.p):
        raw = np.zeros((offsets[-1], problem.width))
        for s, X in enumerate(problem.Xs):
            raw[offsets[s] : offsets[s + 1], s] = X[:, j]
        designs.append(raw @ L)
    return Y, designs


def objective(problem, beta):
    """Direct (unwhitened) objective value."""
    fit = 0.0
    for s, (y, X) in enumerate(zip(problem.ys, problem.Xs)):
        r = y - X @ beta[:, s]
        fit += 0.5 * np.dot(r, r) / problem.sigma2
    return fit + mahalanobis_penalty(beta, problem.corr, problem.gamma)


def fista_oracle(problem, n_iter=200_000):
    """Accelerated proximal-gradient solve of the whitened problem."""
    Y, designs = stacked_whitened(problem)
    p, w = problem.p, problem.width
    A = np.hstack(designs)
    lip = np.linalg.norm(A, 2) ** 2 / problem.sigma2
    step = 1.0 / lip
    theta = np.zeros(p * w)
    z = theta.copy()
    t_acc = 1.0
    for _ in range(n_iter):
        grad = -(A.T @ (Y - A @ z)) / problem.sigma2
        u = (z - step * grad).reshape(p, w)
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        shrink = np.maximum(1.0 - step * problem.gamma / np.maximum(norms, 1e-300), 0.0)
        new = (u * shrink).ravel()
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc**2))
        z = new + (t_acc - 1.0) / t_next * (new - theta)
        theta, t_acc = new, t_next
    fit = 0.5 * np.dot(Y - A @ theta, Y - A @ theta) / problem.sigma2
    pen = problem.gamma * np.sum(np.linalg.norm(theta.reshape(p, w), axis=1))
    return theta.reshape(p, w), fit + pen


def random_problem(seed, p=3, d=2, n=5, gamma=1.0, alpha=0.5):
    rng = np.random.default_rng(seed)
    w = d + 1
    Xs = [rng.standard_normal((n, p)) for _ in range(w)]
    ys = [rng.standard_normal(n) * 2.0 for _ in range(w)]
    return WindowProblem(ys=ys, Xs=Xs, gamma=gamma, sigma2=1.0, corr=WindowCorrelation(w, alpha))


def assert_kkt(problem, beta, tol):
    """Whitened KKT conditions recomputed from the stacked designs."""
    Y, designs = stacked_whitened(problem)
    L = np.linalg.cholesky(problem.corr.matrix)
    theta = beta @ np.linalg.inv(L).T
    resid = Y - sum(A @ theta[j] for j, A in enumerate(designs))
    for j, A in enumerate(designs):
        g = -(A.T @ resid) / problem.sigma2
        nrm = np.linalg.norm(theta[j])
        if nrm == 0.0:
            assert np.linalg.norm(g) <= problem.gamma + tol
        else:
            assert np.linalg.norm(g + problem.gamma * theta[j] / nrm) < tol


# ---------------------------------------------------------------------------
# group magnitude root solve
# ---------------------------------------------------------------------------


def secular(lam, c, gamma, t):
    """f(t) = sum_i c_i^2 / (lam_i t + gamma)^2 - 1 and its derivative."""
    r = 1.0 / (lam * t + gamma)
    return float(np.sum((c * r) ** 2)) - 1.0, float(-2.0 * np.sum(lam * c**2 * r**3))


def bisect_magnitude(lam, c, gamma):
    """Root of the secular equation by bisection down to adjacent floats."""
    lo, hi = 0.0, 1.0
    while secular(lam, c, gamma, hi)[0] > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if secular(lam, c, gamma, mid)[0] > 0.0:
            lo = mid
        else:
            hi = mid


@st.composite
def secular_problems(draw):
    w = draw(st.integers(1, 8))
    gamma = 10.0 ** draw(st.floats(-3.0, 3.0))
    # curvatures over twelve decades, some exactly zero, at least one positive
    curvature = st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
    lam = np.array([draw(curvature) for _ in range(w)])
    if not np.any(lam > 0.0):
        lam[draw(st.integers(0, w - 1))] = 10.0 ** draw(st.floats(-6.0, 6.0))
    # ||c|| from gamma (1 + 1e-9) to ~1e6 gamma; directions in the zero-curvature
    # subspace carry less than gamma, else no root exists
    cnorm = gamma * (1.0 + 10.0 ** draw(st.floats(-9.0, 6.0)))
    signs = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(w)])
    weights = np.array([draw(st.floats(0.01, 1.0)) for _ in range(w)]) * signs
    zero = lam == 0.0
    c = np.zeros(w)
    z_norm = 0.0
    if zero.any():
        z_norm = gamma * draw(st.floats(0.0, 0.9))
        c[zero] = z_norm * weights[zero] / np.linalg.norm(weights[zero])
    pos = ~zero
    c[pos] = math.sqrt(cnorm**2 - z_norm**2) * weights[pos] / np.linalg.norm(weights[pos])
    return lam, c, gamma


@settings(max_examples=300, deadline=None)
@given(secular_problems())
def test_group_magnitude_solves_secular_equation(problem):
    lam, c, gamma = problem
    t = _group_magnitude(lam, c, gamma)
    f, _ = secular(lam, c, gamma, t)
    assert t > 0.0
    assert abs(f) <= 1e-12
    t_ref = bisect_magnitude(lam, c, gamma)
    _, df = secular(lam, c, gamma, t_ref)
    # the root moves by df^-1 per unit of rounding in f
    assert abs(t - t_ref) <= 1e-13 * t_ref + 1e-13 / abs(df)


def test_group_magnitude_without_root_raises():
    # the curvature-free direction alone carries a norm above gamma, so
    # f(t) levels off at 2^2 - 1 > 0 and has no root
    with pytest.raises(NumericalError, match="no root"):
        _group_magnitude(np.array([0.0, 1.0]), np.array([2.0, 0.1]), 1.0)


# ---------------------------------------------------------------------------
# solve_window
# ---------------------------------------------------------------------------


def test_scalar_soft_threshold():
    # p=1, d=0, X=1, sigma2=1, y=3, gamma=1 -> beta = max(|y| - gamma, 0) = 2
    problem = WindowProblem(
        ys=[np.array([3.0])],
        Xs=[np.array([[1.0]])],
        gamma=1.0,
        sigma2=1.0,
        corr=WindowCorrelation(1, 0.0),
    )
    beta, _ = solve_window(problem)
    assert beta[0, 0] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_null_solution_threshold(seed):
    problem = random_problem(seed)
    Y, designs = stacked_whitened(problem)
    crit = max(np.linalg.norm(A.T @ Y) for A in designs) / problem.sigma2
    at = WindowProblem(
        ys=problem.ys, Xs=problem.Xs, gamma=crit * 1.0001, sigma2=problem.sigma2, corr=problem.corr
    )
    below = WindowProblem(
        ys=problem.ys, Xs=problem.Xs, gamma=crit * 0.99, sigma2=problem.sigma2, corr=problem.corr
    )
    assert np.all(solve_window(at)[0] == 0.0)
    assert np.any(solve_window(below)[0] != 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_objective_matches_prox_gradient_oracle(seed):
    problem = random_problem(seed)
    beta, _ = solve_window(problem, tol=1e-10)
    _, obj_oracle = fista_oracle(problem)
    assert objective(problem, beta) == pytest.approx(obj_oracle, abs=1e-5)


@pytest.mark.parametrize("seed", range(8))
def test_kkt_residual_via_direct_subgradient(seed):
    # recompute the whitened KKT conditions from scratch at the solution
    problem = random_problem(seed, gamma=0.8)
    beta, _ = solve_window(problem, tol=1e-9)
    Y, designs = stacked_whitened(problem)
    L = np.linalg.cholesky(problem.corr.matrix)
    theta = beta @ np.linalg.inv(L).T
    resid = Y - sum(A @ theta[j] for j, A in enumerate(designs))
    for j, A in enumerate(designs):
        g = -(A.T @ resid) / problem.sigma2
        nrm = np.linalg.norm(theta[j])
        if nrm == 0.0:
            assert np.linalg.norm(g) <= problem.gamma + 1e-8
        else:
            assert np.linalg.norm(g + problem.gamma * theta[j] / nrm) < 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_steps_with_different_row_counts(seed):
    # n may vary with t; windows mix steps with 1, 3 and 7 rows
    rng = np.random.default_rng(100 + seed)
    ns = rng.permutation([1, 3, 7])
    Xs = [rng.standard_normal((n, 3)) for n in ns]
    ys = [rng.standard_normal(n) * 2.0 for n in ns]
    problem = WindowProblem(
        ys=ys, Xs=Xs, gamma=0.8, sigma2=1.0, corr=WindowCorrelation(3, 0.5)
    )
    beta, trace = solve_window(problem, tol=1e-10)
    _, obj_oracle = fista_oracle(problem)
    assert objective(problem, beta) == pytest.approx(obj_oracle, abs=1e-5)
    assert trace[-1] == pytest.approx(objective(problem, beta), rel=1e-12)
    assert_kkt(problem, beta, 1e-8)


def test_objective_trace_nonincreasing():
    for seed in range(10):
        problem = random_problem(seed, p=5, d=3, gamma=0.5)
        _, trace = solve_window(problem)
        assert np.all(np.diff(trace) <= 1e-10)


def test_penalty_whitening_identity():
    # direct Mahalanobis penalty equals the Euclidean norm of the
    # whitened coordinates
    rng = np.random.default_rng(5)
    corr = WindowCorrelation(4, 0.7)
    beta = rng.standard_normal((3, 4))
    L = np.linalg.cholesky(corr.matrix)
    theta = beta @ np.linalg.inv(L).T
    direct = mahalanobis_penalty(beta, corr, 1.3)
    assert direct == pytest.approx(1.3 * np.sum(np.linalg.norm(theta, axis=1)), rel=1e-12)


def test_solution_invariant_to_group_order():
    problem = random_problem(11, p=4)
    beta, _ = solve_window(problem, tol=1e-10)
    perm = [2, 0, 3, 1]
    permuted = WindowProblem(
        ys=problem.ys,
        Xs=[X[:, perm] for X in problem.Xs],
        gamma=problem.gamma,
        sigma2=problem.sigma2,
        corr=problem.corr,
    )
    beta_perm, _ = solve_window(permuted, tol=1e-10)
    assert np.allclose(beta_perm, beta[perm], atol=1e-9)


def test_nonconvergence_reports_residual():
    problem = random_problem(0)
    with pytest.raises(ConvergenceError, match="residual"):
        solve_window(problem, tol=1e-14, max_iter=1)


def test_window_shape_validation():
    with pytest.raises(DomainError, match="dim"):
        WindowProblem(
            ys=[np.array([1.0])],
            Xs=[np.array([[1.0]])],
            gamma=1.0,
            sigma2=1.0,
            corr=WindowCorrelation(2, 0.0),
        )


# ---------------------------------------------------------------------------
# run_sliding_window
# ---------------------------------------------------------------------------


def _synthetic_instance(T=80, seed=3, noise=0.5):
    rng = np.random.default_rng(seed)
    truth = np.zeros(T)
    truth[10:30] = 4.0
    truth[45:60] = -3.0
    ys = [np.array([truth[t] + noise * rng.standard_normal()]) for t in range(T)]
    Xs = [np.eye(1)] * T
    return RegressionData(ys, Xs), truth


def test_d0_reduces_to_per_t_lasso():
    data, _ = _synthetic_instance(T=20, seed=9)
    config = ModelConfig(nu=1.0, delta=0.0, gamma=2.0, alpha=0.0, sigma=0.5, p=1, d=0)
    fit = run_sliding_window(data, config)
    # scalar lasso: sign(y) * max(|y|/sigma2 - gamma, 0) * sigma2
    for t in range(20):
        y = data.ys[t][0]
        expected = np.sign(y) * max(abs(y) - config.gamma * config.sigma**2, 0.0)
        assert fit.beta_hat[0, t] == pytest.approx(expected, abs=1e-9)


def test_exact_zeros_on_synthetic_signal():
    data, truth = _synthetic_instance(seed=3)
    config = ModelConfig(nu=2.0, delta=0.0, gamma=5.0, alpha=0.5, sigma=0.5, p=1, d=2)
    fit = run_sliding_window(data, config)
    zero_frac = np.mean(fit.beta_hat[0, truth == 0] == 0.0)
    assert zero_frac > 0.5
    est = fit.support[0]
    true_sup = truth != 0
    tp = np.sum(est & true_sup)
    f1 = 2 * tp / (2 * tp + np.sum(est & ~true_sup) + np.sum(~est & true_sup))
    assert f1 > 0.8


def test_zero_count_weakly_increasing_in_gamma():
    data, _ = _synthetic_instance(seed=13)
    counts = []
    for gamma in [0.1, 0.5, 1.0, 5.0]:
        config = ModelConfig(nu=2.0, delta=0.0, gamma=gamma, alpha=0.5, sigma=0.5, p=1, d=2)
        fit = run_sliding_window(data, config)
        counts.append(int(np.sum(fit.beta_hat == 0.0)))
    assert counts == sorted(counts)


def test_sliding_window_error_reports_time_step():
    data, _ = _synthetic_instance(T=10, seed=1)
    data.ys[4] = np.array([math.nan])
    config = ModelConfig(nu=1.0, delta=0.0, gamma=1.0, alpha=0.0, sigma=0.5, p=1, d=0)
    with pytest.raises((NumericalError, ConvergenceError), match="t=5"):
        run_sliding_window(data, config)


def test_requires_fixed_d_and_enough_data():
    data, _ = _synthetic_instance(T=5, seed=1)
    with pytest.raises(DomainError, match="fixed-d"):
        run_sliding_window(
            data, ModelConfig(nu=1.0, delta=0.1, gamma=1.0, alpha=0.0, sigma=0.5, p=1, rho=0.5)
        )
    with pytest.raises(DomainError, match="T"):
        run_sliding_window(
            data, ModelConfig(nu=4.0, delta=0.0, gamma=1.0, alpha=0.0, sigma=0.5, p=1, d=6)
        )
