"""Sliding-window group lasso with correlation-weighted group norms.

The alternative approximate-MAP route: over a window of d+1 consecutive
time steps the negative log posterior is a convex group-lasso objective,

    (1/2 sigma^2) sum_s ||y_s - X_s beta_s||^2
        + gamma sum_j sqrt(beta_j' Sigma^{-1} beta_j),

with one group per coefficient index j collecting its d+1 window values
and Sigma the AR(1) window correlation.  A Cholesky change of variables
beta_j = L theta_j turns every group norm into a plain Euclidean norm,
after which block coordinate descent with the exact group update applies.

The solver works in Gram space: the window enters only through
G_s = X_s'X_s, b_s = X_s'y_s and y_s'y_s, and the gradient through the
p x width residual U[:, s] = b_s - G_s beta_s, kept current after every
group step.  Each group is stored in the eigenbasis of its curvature
L' diag(G_s[j, j]) L / sigma^2, where the group magnitude is the root of
a scalar secular equation, solved by Newton's method (Qin, Scheinberg &
Goldfarb 2013, Math. Prog. Comp. 5:143).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceError, DomainError, NumericalError
from .map_em import MapFit, RegressionData
from .prior import ModelConfig, WindowCorrelation, mahal_sq_batch

__all__ = [
    "WindowProblem",
    "solve_window",
    "run_sliding_window",
    "mahalanobis_penalty",
]

_NEWTON_MAX_ITER = 500  # a safety bound: bench windows take 4-9 Newton steps


@dataclass
class WindowProblem:
    """One window of the sliding group-lasso objective.

    ``ys``/``Xs`` hold the window's observations, oldest first; their
    length must equal ``corr.dim`` (the stacked design is block diagonal
    across time steps, one block per entry).
    """

    ys: list[NDArray[np.float64]]
    Xs: list[NDArray[np.float64]]
    gamma: float
    sigma2: float
    corr: WindowCorrelation

    def __post_init__(self) -> None:
        self.ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in self.ys]
        self.Xs = [np.atleast_2d(np.asarray(X, dtype=float)) for X in self.Xs]
        if len(self.ys) != len(self.Xs) or len(self.ys) != self.corr.dim:
            raise DomainError(
                f"window holds {len(self.ys)} steps but corr has dim {self.corr.dim}"
            )
        p = self.Xs[0].shape[1]
        for s, (y, X) in enumerate(zip(self.ys, self.Xs)):
            if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
                raise NumericalError(f"window step {s}: non-finite data")
            if X.shape != (y.shape[0], p):
                raise DomainError(
                    f"window step {s}: X has shape {X.shape}, "
                    f"expected ({y.shape[0]}, {p})"
                )
        if self.gamma <= 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if self.sigma2 <= 0:
            raise DomainError(f"sigma2 must be positive, got {self.sigma2}")

    @property
    def p(self) -> int:
        return self.Xs[0].shape[1]

    @property
    def width(self) -> int:
        return self.corr.dim


def mahalanobis_penalty(
    beta: NDArray[np.float64], corr: WindowCorrelation, gamma: float
) -> float:
    """gamma * sum_j sqrt(beta_j' Sigma^{-1} beta_j) for a p x width matrix."""
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    return gamma * float(np.sum(np.sqrt(mahal_sq_batch(beta, corr.alpha))))


def _group_magnitude(
    lam: NDArray[np.float64], c: NDArray[np.float64], gamma: float
) -> float:
    """Root t > 0 of f(t) = sum_i c_i^2 / (lam_i t + gamma)^2 - 1 by Newton.

    Valid when ||c|| > gamma, lam >= 0 and max(lam) > 0.  f is convex and
    decreasing, so Newton started left of the root rises monotonically to
    it without overshoot; t0 = (||c|| - gamma) / max(lam) is such a start,
    since f(t0) >= ||c||^2 / (max(lam) t0 + gamma)^2 - 1 = 0.
    """
    lam_l = lam.tolist()
    c2 = [ci * ci for ci in c.tolist()]
    t = (math.sqrt(math.fsum(c2)) - gamma) / max(lam_l)
    f_prev = math.inf
    for _ in range(_NEWTON_MAX_ITER):
        f = -1.0
        df = 0.0
        for li, qi in zip(lam_l, c2):
            r = 1.0 / (li * t + gamma)
            qr2 = qi * r * r
            f += qr2
            df += li * qr2 * r
        if f <= 0.0:
            return t
        if f >= f_prev:  # stalled: at the root up to rounding, or f levels off above 0
            if f < 1e-12:
                return t
            break
        f_prev = f
        step = f / (2.0 * df)
        t += step
        if step <= 1e-15 * t:
            return t
    raise NumericalError(
        f"group magnitude: no root of the secular equation (f = {f:.3e} at t = {t:.3e})"
    )


def _kkt_residual(
    Rt: NDArray[np.float64], U: NDArray[np.float64], phi: NDArray[np.float64], gamma: float
) -> float:
    """Max over groups of the subgradient-condition violation.

    Gradients and coefficients are taken in each group's eigenbasis, an
    orthogonal change of coordinates, so the norms are those of theta.
    """
    grad = -np.einsum("jws,js->jw", Rt, U)
    nrm = np.linalg.norm(phi, axis=1)
    active = nrm > 0.0
    unit = phi / np.where(active, nrm, 1.0)[:, None]
    viol = np.where(
        active,
        np.linalg.norm(grad + gamma * unit, axis=1),
        np.linalg.norm(grad, axis=1) - gamma,
    )
    return max(float(viol.max()), 0.0)


def solve_window(
    problem: WindowProblem,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Block coordinate descent on one window.

    Returns ``(beta, objective_trace)`` where ``beta`` is p x width in
    the original (unwhitened) coordinates and ``objective_trace`` holds
    the objective value after each full sweep.  Stops when the KKT
    residual drops below ``tol``.
    """
    p = problem.p
    s2 = problem.sigma2
    gamma = problem.gamma
    G = np.stack([X.T @ X for X in problem.Xs], axis=2)  # p x p x width
    b = np.stack([X.T @ y for X, y in zip(problem.Xs, problem.ys)], axis=1)
    yy = sum(float(y @ y) for y in problem.ys)
    L = np.linalg.cholesky(problem.corr.matrix)

    # group j lives in the eigenbasis Q_j of L' diag(G[j, j]) L / s2;
    # R_j = L Q_j maps its coordinates phi_j to beta_j
    diag = G[np.arange(p), np.arange(p)]  # p x width
    lam, Q = np.linalg.eigh(np.einsum("sa,js,sb->jab", L, diag, L) / s2)
    lam = np.maximum(lam, 0.0)
    R = L @ Q
    Rt = np.ascontiguousarray(np.swapaxes(R, 1, 2)) / s2

    phi = np.zeros((p, problem.width))
    active = [False] * p
    U = b.copy()  # Gram residual b_s - G_s beta_s, one column per step
    trace = [0.5 * yy / s2]
    kkt = _kkt_residual(Rt, U, phi, gamma)
    for _ in range(max_iter):
        for j in range(p):
            # minus the fit gradient at phi_j = 0 (group j's own fit added back)
            c = Rt[j] @ U[j]
            if active[j]:
                c += lam[j] * phi[j]
            if math.sqrt(float(c @ c)) <= gamma:
                if not active[j]:
                    continue
                new = np.zeros(problem.width)
                active[j] = False
            else:
                t = _group_magnitude(lam[j], c, gamma)
                new = c * t / (lam[j] * t + gamma)
                active[j] = True
            U -= G[j] * (R[j] @ (new - phi[j]))  # G_s symmetric: G[j][k, s] = G_s[k, j]
            phi[j] = new
        beta = np.einsum("jsw,jw->js", R, phi)
        # ||y_s - X_s beta_s||^2 = y_s'y_s - beta_s'(b_s + U[:, s])
        fit = 0.5 * (yy - float(np.sum(beta * (b + U)))) / s2
        trace.append(fit + gamma * float(np.sum(np.linalg.norm(phi, axis=1))))
        kkt = _kkt_residual(Rt, U, phi, gamma)
        if kkt < tol:
            break
    else:
        raise ConvergenceError(
            f"group lasso window did not reach KKT residual {tol} in "
            f"{max_iter} sweeps (residual {kkt:.3e})"
        )
    return beta, np.asarray(trace)


def run_sliding_window(
    data: RegressionData,
    config: ModelConfig,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    eps_sparse: float = 0.0,
) -> MapFit:
    """Per-time estimates from overlapping window solutions.

    For each t > d the window covering t-d..t is solved and its last
    column reported as beta_hat_t (a filter-style estimate); steps
    t <= d take their columns from the first full window.  With d = 0
    every step is an independent plain lasso.  Group-lasso zeros are
    exact, so the default support threshold is 0.
    """
    if not config.fixed_d:
        raise DomainError("sliding-window estimation requires fixed-d mode")
    d = int(config.d)
    T, p = data.T, data.p
    if T <= d:
        raise DomainError(f"need T > d, got T={T}, d={d}")
    corr = WindowCorrelation(d + 1, config.alpha)
    s2 = config.sigma ** 2

    beta_hat = np.empty((p, T))
    iters = np.zeros(T, dtype=np.int64)
    traces: list[NDArray[np.float64]] = []
    for t in range(d, T):
        try:
            problem = WindowProblem(
                ys=list(data.ys[t - d : t + 1]),
                Xs=list(data.Xs[t - d : t + 1]),
                gamma=config.gamma,
                sigma2=s2,
                corr=corr,
            )
            sol, trace = solve_window(problem, tol=tol, max_iter=max_iter)
        except (ConvergenceError, NumericalError, DomainError) as exc:
            raise type(exc)(f"at time step t={t + 1}: {exc}") from exc
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise NumericalError(f"at time step t={t + 1}: {exc}") from exc
        if t == d:
            beta_hat[:, : d + 1] = sol
        else:
            beta_hat[:, t] = sol[:, -1]
        iters[t] = len(trace) - 1
        traces.append(trace)
    support = np.abs(beta_hat) > eps_sparse
    return MapFit(
        beta_hat=beta_hat,
        support=support,
        em_iters=iters,
        objective_trace=traces,
        eps_sparse=eps_sparse,
        converged=np.ones(T, dtype=bool),  # solve_window raises unless it converges
    )
