"""Sliding-window group lasso: oracle agreement, KKT, and solver behavior."""

import math
import re
import warnings
from typing import NamedTuple

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
    run_sliding_window,
    solve_window,
    window_correlation,
)
from dynsparse import group_lasso
from dynsparse.group_lasso import _FLOAT_NEWTON_SIZE, _group_magnitude
from dynsparse.prior import mahal_sq_batch
from helpers import reference_group_magnitude, reference_solve_window


class Window(NamedTuple):
    """``solve_window``'s leading arguments: ``solve_window(*window)``."""

    data: RegressionData
    alpha: float
    gamma: float
    sigma2: float

    @property
    def p(self):
        return self.data.p

    @property
    def width(self):
        return self.data.T

    @property
    def corr_matrix(self):
        return window_correlation(self.width, self.alpha)


def stacked_whitened(problem):
    """Independent construction of Y and the whitened group designs A_j."""
    Y = np.concatenate(problem.data.ys)
    L = np.linalg.cholesky(problem.corr_matrix)
    ns = [y.shape[0] for y in problem.data.ys]
    offsets = np.concatenate([[0], np.cumsum(ns)])
    designs = []
    for j in range(problem.p):
        raw = np.zeros((offsets[-1], problem.width))
        for s, X in enumerate(problem.data.Xs):
            raw[offsets[s] : offsets[s + 1], s] = X[:, j]
        designs.append(raw @ L)
    return Y, designs


def objective(problem, beta):
    """Direct (unwhitened) objective value."""
    fit = 0.0
    for s, (y, X) in enumerate(zip(problem.data.ys, problem.data.Xs)):
        r = y - X @ beta[:, s]
        fit += 0.5 * np.dot(r, r) / problem.sigma2
    return fit + problem.gamma * np.sum(np.sqrt(mahal_sq_batch(beta, problem.alpha)))


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
    return Window(RegressionData(ys, Xs), alpha, gamma, 1.0)


def assert_kkt(problem, beta, tol):
    """Whitened KKT conditions recomputed from the stacked designs."""
    Y, designs = stacked_whitened(problem)
    L = np.linalg.cholesky(problem.corr_matrix)
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
    """Rows sharing a width and gamma, each with a root: one to four
    distinct rows, repeated up to twice the float Newton route's size."""
    w = draw(st.integers(1, 8))
    gamma = 10.0 ** draw(st.floats(-3.0, 3.0))
    rows = [draw(secular_row(w, gamma)) for _ in range(draw(st.integers(1, 4)))]
    lam, c = (np.array(a) for a in zip(*rows))
    copies = draw(st.integers(1, 2 * _FLOAT_NEWTON_SIZE // lam.size + 1))
    return np.tile(lam, (copies, 1)), np.tile(c, (copies, 1)), gamma


@st.composite
def secular_row(draw, w, gamma):
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
    return lam, c


@settings(max_examples=300, deadline=None)
@given(secular_problems())
def test_group_magnitude_solves_secular_equation(problem):
    lam, c, gamma = problem
    t_rows, errors = _group_magnitude(lam, c, gamma)
    assert errors == {}
    for lam_i, c_i, t in zip(lam, c, t_rows):
        assert t == reference_group_magnitude(lam_i, c_i, gamma)  # same bits as alone
    _, distinct = np.unique(np.hstack([lam, c]), axis=0, return_index=True)
    for lam_i, c_i, t in zip(lam[distinct], c[distinct], t_rows[distinct]):
        f, _ = secular(lam_i, c_i, gamma, t)
        assert t > 0.0
        assert abs(f) <= 1e-12
        t_ref = bisect_magnitude(lam_i, c_i, gamma)
        _, df = secular(lam_i, c_i, gamma, t_ref)
        # the root moves by df^-1 per unit of rounding in f
        assert abs(t - t_ref) <= 1e-13 * t_ref + 1e-13 / abs(df)


def test_group_magnitude_without_root_raises():
    # in row 0 the curvature-free direction alone carries a norm above
    # gamma, so f(t) levels off at 2^2 - 1 > 0 and has no root; row 1 has one
    lam = np.array([[0.0, 1.0], [1.0, 1.0]])
    c = np.array([[2.0, 0.1], [2.0, 0.1]])
    t, errors = _group_magnitude(lam, c, 1.0)
    assert list(errors) == [0] and math.isnan(t[0])
    assert abs(secular(lam[1], c[1], 1.0, t[1])[0]) <= 1e-12
    with pytest.raises(NumericalError, match="no root"):
        raise errors[0]


@st.composite
def newton_route_problems(draw):
    """1 to twice the float route's size in rows: rows with a root, and at
    drawn places rows without one and rows with a non-finite c."""
    w = draw(st.integers(1, 8))
    gamma = 10.0 ** draw(st.floats(-3.0, 3.0))
    base = [draw(secular_row(w, gamma)) for _ in range(draw(st.integers(1, 3)))]
    n = draw(st.integers(1, 2 * _FLOAT_NEWTON_SIZE // w))
    lam = np.array([base[i % len(base)][0] for i in range(n)])
    c = np.array([base[i % len(base)][1] for i in range(n)])
    if w > 1:  # a curvature-free direction carrying 2 gamma: f levels off at 3
        for i in draw(st.sets(st.integers(0, n - 1), max_size=3)):
            lam[i, 0], c[i, 0] = 0.0, 2.0 * gamma
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        c[i, draw(st.integers(0, w - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return lam, c, gamma


@settings(max_examples=200, deadline=None)
@given(newton_route_problems(), st.sampled_from([1, 2, 3, 500]))
def test_newton_routes_agree(problem, max_iter):
    # the float and the array route give the same t (NaN included) and the
    # same errors, also for rows that run out of iterations
    lam, c, gamma = problem
    outcomes = []
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(group_lasso, "_NEWTON_MAX_ITER", max_iter)
        for size in (c.size, c.size - 1):  # the float route, then the array route
            mp.setattr(group_lasso, "_FLOAT_NEWTON_SIZE", size)
            t, errors = _group_magnitude(lam, c, gamma)
            outcomes.append((t, {i: (type(e), str(e)) for i, e in errors.items()}))
    (t_float, err_float), (t_array, err_array) = outcomes
    assert np.array_equal(t_float, t_array, equal_nan=True)
    assert err_float == err_array
    assert np.isnan(t_float[list(err_float)]).all()


# ---------------------------------------------------------------------------
# solve_window
# ---------------------------------------------------------------------------


def test_scalar_soft_threshold():
    # p=1, d=0, X=1, sigma2=1, y=3, gamma=1 -> beta = max(|y| - gamma, 0) = 2
    data = RegressionData([np.array([3.0])], [np.array([[1.0]])])
    beta, _ = solve_window(data, alpha=0.0, gamma=1.0, sigma2=1.0)
    assert beta[0, 0] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_null_solution_threshold(seed):
    problem = random_problem(seed)
    Y, designs = stacked_whitened(problem)
    crit = max(np.linalg.norm(A.T @ Y) for A in designs) / problem.sigma2
    at = problem._replace(gamma=crit * 1.0001)
    below = problem._replace(gamma=crit * 0.99)
    assert np.all(solve_window(*at)[0] == 0.0)
    assert np.any(solve_window(*below)[0] != 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_objective_matches_prox_gradient_oracle(seed):
    problem = random_problem(seed)
    beta, _ = solve_window(*problem, tol=1e-10)
    _, obj_oracle = fista_oracle(problem)
    assert objective(problem, beta) == pytest.approx(obj_oracle, abs=1e-5)


@pytest.mark.parametrize("seed", range(8))
def test_kkt_residual_via_direct_subgradient(seed):
    # recompute the whitened KKT conditions from scratch at the solution
    problem = random_problem(seed, gamma=0.8)
    beta, _ = solve_window(*problem, tol=1e-9)
    Y, designs = stacked_whitened(problem)
    L = np.linalg.cholesky(problem.corr_matrix)
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
    problem = Window(RegressionData(ys, Xs), alpha=0.5, gamma=0.8, sigma2=1.0)
    beta, trace = solve_window(*problem, tol=1e-10)
    _, obj_oracle = fista_oracle(problem)
    assert objective(problem, beta) == pytest.approx(obj_oracle, abs=1e-5)
    assert trace[-1] == pytest.approx(objective(problem, beta), rel=1e-12)
    assert_kkt(problem, beta, 1e-8)


def test_objective_trace_nonincreasing():
    for seed in range(10):
        problem = random_problem(seed, p=5, d=3, gamma=0.5)
        _, trace = solve_window(*problem)
        assert np.all(np.diff(trace) <= 1e-10)


def test_penalty_whitening_identity():
    # direct Mahalanobis penalty equals the Euclidean norm of the
    # whitened coordinates
    rng = np.random.default_rng(5)
    beta = rng.standard_normal((3, 4))
    L = np.linalg.cholesky(window_correlation(4, 0.7))
    theta = beta @ np.linalg.inv(L).T
    direct = 1.3 * np.sum(np.sqrt(mahal_sq_batch(beta, 0.7)))
    assert direct == pytest.approx(1.3 * np.sum(np.linalg.norm(theta, axis=1)), rel=1e-12)


def test_solution_invariant_to_group_order():
    problem = random_problem(11, p=4)
    beta, _ = solve_window(*problem, tol=1e-10)
    perm = [2, 0, 3, 1]
    data = RegressionData(problem.data.ys, [X[:, perm] for X in problem.data.Xs])
    beta_perm, _ = solve_window(*problem._replace(data=data), tol=1e-10)
    assert np.allclose(beta_perm, beta[perm], atol=1e-9)


def test_nonconvergence_reports_residual():
    problem = random_problem(0)
    with pytest.raises(ConvergenceError, match="residual"):
        solve_window(*problem, tol=1e-14, max_iter=1)


@pytest.mark.parametrize(
    "gamma, sigma2",
    [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 1.0)],
    ids=["gamma-inf", "gamma-nan", "sigma2-nan", "sigma2-inf", "gamma-neg-inf"],
)
def test_non_finite_scales_are_domain_errors(gamma, sigma2):
    data = RegressionData([np.array([3.0])], [np.array([[1.0]])])
    with pytest.raises(DomainError, match="positive and finite"):
        solve_window(data, 0.0, gamma, sigma2)


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
        ({"max_iter": -3}, "max_iter must be at least 1, got -3"),
        ({"tol": 0.0}, "tol must be positive and finite, got 0.0"),
        ({"tol": -1.0}, "tol must be positive and finite, got -1.0"),
        ({"tol": math.nan}, "tol must be positive and finite, got nan"),
        ({"eps_sparse": math.nan}, "eps_sparse must be nonnegative and finite, got nan"),
        ({"eps_sparse": -1.0}, "eps_sparse must be nonnegative and finite, got -1.0"),
        ({"eps_sparse": math.inf}, "eps_sparse must be nonnegative and finite, got inf"),
    ],
    ids=[
        "max_iter-0", "max_iter-neg", "tol-0", "tol-neg", "tol-nan",
        "eps_sparse-nan", "eps_sparse-neg", "eps_sparse-inf",
    ],
)
def test_bad_tol_or_max_iter_is_a_domain_error_before_any_sweep(monkeypatch, kw, match):
    def no_sweeps(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(group_lasso, "_solve_windows", no_sweeps)
    data = ragged_data(2, T=6, p=2)
    config = ModelConfig(nu=10.0, delta=0.0, gamma=1.0, alpha=0.5, sigma=0.5, p=2, d=1)
    if "eps_sparse" not in kw:  # solve_window reports no support
        with pytest.raises(DomainError, match=match):
            solve_window(data, 0.5, 1.0, 0.25, **kw)
    with pytest.raises(DomainError, match=match):
        run_sliding_window(data, config, **kw)


@pytest.mark.parametrize("alpha", [1.0, -0.1, math.nan, math.inf])
def test_solve_window_rejects_alpha_outside_0_1_before_any_sweep(monkeypatch, alpha):
    def no_sweeps(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(group_lasso, "_solve_windows", no_sweeps)
    with pytest.raises(DomainError, match=rf"alpha must lie in \[0, 1\) .*, got {alpha}$"):
        solve_window(ragged_data(2, T=4, p=2), alpha, 1.0, 0.25)


def test_overflowing_group_norm_is_a_numerical_error():
    # every c_i^2 is finite but their sum is not: fsum raises OverflowError,
    # which must surface as the typed "no root" error naming the overflow,
    # at its step for a fit, and leave the finite row its own root
    c = np.array([[1e154, 1e154], [1.0, 0.5]])
    lam = np.array([[1.0, 2.0], [1.0, 2.0]])
    alone, _ = _group_magnitude(lam[1:], c[1:], 1.0)
    overflow = r"^group magnitude: no root .*\|\|c\|\|\^2 overflows \(max \|c_i\| = 1\.000e\+154\)"
    for size in (c.size, 1):  # the finite row by the float route, then the array route
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(group_lasso, "_FLOAT_NEWTON_SIZE", size)
            t, errors = _group_magnitude(lam, c, 1.0)
        assert list(errors) == [0] and math.isnan(t[0]) and t[1] > 0.0
        assert re.match(overflow, str(errors[0])) and t[1] == alone[0]
    rng = np.random.default_rng(0)
    Xs = [rng.standard_normal((5, 2)) for _ in range(3)]
    ys = [1e150 * rng.standard_normal(5) for _ in range(3)]
    data = RegressionData(ys, Xs)
    for sigma2 in (3.4e-5, 1e-4, 1e-6):  # at 1e-6 some c_i^2 is itself inf
        config = ModelConfig(
            nu=3.0, delta=0.0, gamma=1.0, alpha=0.5, sigma=math.sqrt(sigma2), p=2, d=2
        )
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="^group magnitude: no root") as info:
                solve_window(data, 0.5, 1.0, sigma2)
            assert "overflows" in str(info.value)
            with pytest.raises(NumericalError, match="^at time step t=3: group magnitude"):
                run_sliding_window(data, config)


def test_overflowing_group_norm_fails_without_a_warning():
    # y ~ +-1e150 and sigma = 0.01: the group norms of the t = 3 window
    # overflow in c'c, in c * c and in the norms; the fit raises the typed
    # "no root" error, and no overflow warning leaks out on the way
    ys, Xs = [], []
    for t in (1, 2, 3):
        ys.append([1e150 * (-1) ** (t + i) * (1.0 + 0.1 * i) for i in range(5)])
        Xs.append([[1.0 + 0.3 * i - 0.2 * t, 0.5 - 0.1 * i * t] for i in range(5)])
    config = ModelConfig(nu=2.0, delta=0.0, gamma=1.0, alpha=0.5, sigma=0.01, p=2, d=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^at time step t=3: group magnitude: no root"):
            run_sliding_window(RegressionData(ys, Xs), config)


def test_solve_window_names_the_step_with_non_finite_data():
    problem = random_problem(3)
    problem.data.ys[1] = np.array([0.0, math.inf, 0.0, 0.0, 0.0])
    with pytest.raises(NumericalError, match=r"at time step t=2: non-finite data"):
        solve_window(*problem)


@pytest.mark.parametrize("seed", range(4))
def test_solve_window_matches_reference(seed):
    problem = random_problem(seed, p=4, d=3, gamma=0.5)
    beta, trace = solve_window(*problem)
    beta_ref, trace_ref = reference_solve_window(*problem)
    assert np.array_equal(beta, beta_ref) and np.array_equal(trace, trace_ref)


# ---------------------------------------------------------------------------
# run_sliding_window
# ---------------------------------------------------------------------------


def ragged_data(seed, T, p):
    """Steps with 1 to p + 3 rows (so some have n < p) and a sparse truth."""
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal((p, T)) * (rng.random((p, 1)) < 0.6)
    ns = rng.integers(1, p + 4, size=T)
    Xs = [rng.standard_normal((n, p)) for n in ns]
    ys = [X @ truth[:, t] + 0.5 * rng.standard_normal(n) for t, (X, n) in enumerate(zip(Xs, ns))]
    return RegressionData(ys, Xs)


def null_thresholds(data, d, alpha, sigma2):
    """Per window, the smallest gamma at which its solution is all zero."""
    L = np.linalg.cholesky(window_correlation(d + 1, alpha))
    b = np.stack([X.T @ y for X, y in zip(data.Xs, data.ys)], axis=1)  # p x T
    return np.array([
        np.linalg.norm(b[:, t - d : t + 1] @ L, axis=1).max() / sigma2
        for t in range(d, data.T)
    ])


def reference_fit(data, config, tol=1e-8, max_iter=10_000):
    """run_sliding_window's outputs, window by window through the oracle."""
    d, T = config.d, data.T
    beta_hat = np.empty((data.p, T))
    iters = np.zeros(T, dtype=np.int64)
    traces = []
    for t in range(d, T):
        window = RegressionData(data.ys[t - d : t + 1], data.Xs[t - d : t + 1])
        sol, trace = reference_solve_window(
            window, config.alpha, config.gamma, config.sigma**2, tol=tol, max_iter=max_iter
        )
        if t == d:
            beta_hat[:, : d + 1] = sol
        beta_hat[:, t] = sol[:, -1]
        iters[t] = len(trace) - 1
        traces.append(trace)
    return beta_hat, iters, traces


def assert_fit_matches_reference(data, config):
    fit = run_sliding_window(data, config)
    beta_hat, iters, traces = reference_fit(data, config)
    assert np.array_equal(fit.beta_hat, beta_hat)
    assert np.array_equal(fit.em_iters, iters)
    assert len(fit.objective_trace) == len(traces)
    assert all(np.array_equal(a, b) for a, b in zip(fit.objective_trace, traces))
    return fit


def oracle_config(data, p, d, alpha, level):
    """A config whose gamma leaves every window zero, some zero, or none."""
    crit = null_thresholds(data, d, alpha, 0.25)
    gamma = {
        "zero": 1.001 * crit.max(),
        "mixed": float(np.median(crit)),
        "dense": 0.5 * crit.min(),
    }[level]
    return ModelConfig(nu=10.0, delta=0.0, gamma=gamma, alpha=alpha, sigma=0.5, p=p, d=d)


@pytest.mark.parametrize("level", ["zero", "mixed", "dense"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("d", [0, 1, 4, 9])
@pytest.mark.parametrize("p", [1, 4, 7])
def test_sliding_window_matches_per_window_reference(p, d, alpha, level):
    data = ragged_data(1000 * p + 10 * d + int(10 * alpha), T=d + 7, p=p)
    fit = assert_fit_matches_reference(data, oracle_config(data, p, d, alpha, level))
    zero_windows = [np.all(fit.beta_hat[:, t] == 0.0) for t in range(d, data.T)]
    if level == "zero":
        assert np.all(fit.beta_hat == 0.0)
    elif level == "mixed":
        assert any(zero_windows) and not all(zero_windows)
    else:
        assert not any(zero_windows)


@pytest.mark.parametrize("p, d, alpha", [(1, 0, 0.0), (4, 1, 0.5), (4, 4, 0.9), (7, 9, 0.5)])
def test_window_blocks_match_reference(monkeypatch, p, d, alpha):
    # 8 windows in blocks of 3: two full blocks and a short last one
    monkeypatch.setattr(group_lasso, "_WINDOW_BLOCK", 3)
    data = ragged_data(7 + p + d, T=d + 8, p=p)
    assert_fit_matches_reference(data, oracle_config(data, p, d, alpha, "mixed"))


def test_few_live_rows_skip_the_array_newton(monkeypatch):
    # a one-window solve never pays for the array Newton; in a block of
    # windows it runs while many windows are live, and not once one or
    # two are left
    rows_by_route = {"floats": [], "arrays": []}
    for route, rows in rows_by_route.items():
        real = getattr(group_lasso, f"_newton_{route}")

        def counted(lam, c2, t, gamma, real=real, rows=rows):
            rows.append(len(t))
            return real(lam, c2, t, gamma)

        monkeypatch.setattr(group_lasso, f"_newton_{route}", counted)
    solve_window(*random_problem(0, p=4, d=3, gamma=0.5))
    assert rows_by_route["floats"] and not rows_by_route["arrays"]

    rows_by_route["floats"].clear()
    data = ragged_data(3, T=68, p=4)  # 64 windows of width d + 1 = 5
    assert_fit_matches_reference(data, oracle_config(data, 4, 4, 0.5, "dense"))
    assert rows_by_route["arrays"] and min(rows_by_route["arrays"]) > _FLOAT_NEWTON_SIZE // 5
    assert max(rows_by_route["floats"]) <= _FLOAT_NEWTON_SIZE // 5
    assert {1, 2} <= set(rows_by_route["floats"])


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


def test_non_finite_data_names_its_own_step():
    # a NaN at step 2 sits in the first window (d = 4) but is reported at t=3
    data = ragged_data(5, T=12, p=2)
    data.Xs[2] = data.Xs[2].copy()
    data.Xs[2][0, 1] = math.nan
    config = ModelConfig(nu=10.0, delta=0.0, gamma=1.0, alpha=0.5, sigma=0.5, p=2, d=4)
    with pytest.raises(NumericalError, match=r"at time step t=3: non-finite data"):
        run_sliding_window(data, config)


def test_earliest_failing_window_is_reported(monkeypatch):
    # all windows are zero but those ending at t=5 (a signal) and t=9 (a
    # signal 1e9 times larger); the group magnitude is made to fail on
    # inputs that large, so the later window fails in its first sweep
    rng = np.random.default_rng(11)
    Xs = [rng.standard_normal((6, 3)) for _ in range(12)]
    ys = [0.1 * rng.standard_normal(6) for _ in range(12)]
    gamma = 1.001 * null_thresholds(RegressionData(ys, Xs), 0, 0.0, 0.25).max()
    config = ModelConfig(nu=10.0, delta=0.0, gamma=gamma, alpha=0.0, sigma=0.5, p=3, d=0)
    signal = np.array([3.0, 0.0, -2.0])
    ys[4] = ys[4] + Xs[4] @ signal
    ys[8] = ys[8] + Xs[8] @ signal * 1e9
    real = group_lasso._group_magnitude

    def failing_on_large(lam, c, gamma):
        t, errors = real(lam, c, gamma)
        for i in np.flatnonzero(np.abs(c).max(axis=1) > 1e6):
            errors[int(i)] = NumericalError("group magnitude: no root (injected)")
            t[i] = math.nan
        return t, errors

    monkeypatch.setattr(group_lasso, "_group_magnitude", failing_on_large)
    data = RegressionData(ys, Xs)
    with pytest.raises(NumericalError, match=r"at time step t=9: .*injected"):
        run_sliding_window(data, config)
    # the t=5 window still runs when the t=9 one has failed, and fails later
    with pytest.raises(ConvergenceError, match=r"at time step t=5: .* in 3 sweeps"):
        run_sliding_window(data, config, tol=1e-300, max_iter=3)
    ys[4] = ys[4] * 1e9
    with pytest.raises(NumericalError, match=r"at time step t=5: .*injected"):
        run_sliding_window(RegressionData(ys, Xs), config)
