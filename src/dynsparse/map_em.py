"""Online approximate MAP estimation by EM over the latent scales.

At each time step the posterior log p(beta_t | past estimates, y_t) is
maximized with an EM algorithm: the E-step computes the conditional
expectation of the inverse latent scale of every coefficient (a GIG
expectation), the M-step solves the resulting ridge-type system.  Each
sweep can only increase the objective, which the fitter records per step.

The prior pieces come from :func:`dynsparse.prior.conditional_gh`; the
first step (and a configured d = 0) use the i.i.d. GH marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_factor, cho_solve

from .distributions import GhParams, GigParams, gh_log_pdf, gh_log_pdf_grad, gig_moment
from .errors import DomainError, NumericalError
from .prior import ModelConfig, conditional_gh, mahal_sq_batch

__all__ = ["RegressionData", "MapFit", "em_map_step", "run_online_map"]

# floor on the GIG delta parameter in the E-step: delta = 0, a zero window
# and beta at the prior mean would otherwise make E[1/tau] diverge
_ESTEP_DELTA_FLOOR = 1e-12


@dataclass
class RegressionData:
    """The observation sequence (y_t, X_t), t = 1..T.

    ``n`` may vary with t; the predictor count p is fixed.
    """

    ys: Sequence[NDArray[np.float64]]
    Xs: Sequence[NDArray[np.float64]]

    def __post_init__(self) -> None:
        if len(self.ys) != len(self.Xs) or len(self.ys) == 0:
            raise DomainError("need one (y_t, X_t) pair per time step, at least one")
        self.ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in self.ys]
        self.Xs = [np.atleast_2d(np.asarray(X, dtype=float)) for X in self.Xs]
        p = self.Xs[0].shape[1]
        for t, (y, X) in enumerate(zip(self.ys, self.Xs)):
            if X.shape != (y.shape[0], p):
                raise DomainError(
                    f"t={t + 1}: X_t has shape {X.shape}, expected ({y.shape[0]}, {p})"
                )

    @property
    def T(self) -> int:
        return len(self.ys)

    @property
    def p(self) -> int:
        return self.Xs[0].shape[1]


@dataclass
class MapFit:
    """Per-time MAP estimates plus solver diagnostics."""

    beta_hat: NDArray[np.float64]  # p x T
    support: NDArray[np.bool_]  # p x T
    em_iters: NDArray[np.int64]
    objective_trace: list[NDArray[np.float64]]
    eps_sparse: float


def _prior_laws(
    window: NDArray[np.float64], config: ModelConfig
) -> tuple[list[GhParams], NDArray[np.float64], float]:
    """Conditional GH prior per coefficient, its locations, and the variance factor."""
    p, d_eff = window.shape
    priors = [conditional_gh(config, window[j]) for j in range(p)]
    locs = np.array([g.mu for g in priors])
    a2 = 1.0 if d_eff == 0 else 1.0 - config.alpha**2
    return priors, locs, a2


def em_map_step(
    y_t: NDArray[np.float64],
    X_t: NDArray[np.float64],
    window: NDArray[np.float64],
    config: ModelConfig,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """One online MAP step: maximize log prior(beta_t | window) + log lik(y_t | beta_t).

    ``window`` is the p x d matrix of previous estimates (possibly 0 columns).
    Returns the maximizer and the objective trace, which is nondecreasing.

    Convergence requires both a relative objective change below ``tol`` and a
    gradient norm below ``10 * tol`` (so converged solutions are verifiable
    stationary points); ``max_iter`` caps the sweep count either way.
    """
    y = np.atleast_1d(np.asarray(y_t, dtype=float))
    X = np.atleast_2d(np.asarray(X_t, dtype=float))
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[0] != X.shape[1]:
        raise DomainError(
            f"window must be p x d with p={X.shape[1]}, got shape {window.shape}"
        )
    p = X.shape[1]
    d_eff = window.shape[1]
    priors, locs, a2 = _prior_laws(window, config)
    # E-step GIG pieces that do not change across sweeps
    s2 = config.delta**2 + mahal_sq_batch(window, config.alpha)
    nu_e = (config.nu - d_eff / 2.0) - 0.5
    sig2 = config.sigma**2
    XtX = X.T @ X
    Xty = X.T @ y

    def objective(beta: NDArray[np.float64]) -> float:
        resid = y - X @ beta
        ll = -0.5 * float(resid @ resid) / sig2
        return ll + sum(gh_log_pdf(priors[j], beta[j]) for j in range(p))

    def grad_norm(beta: NDArray[np.float64]) -> float:
        g = (Xty - XtX @ beta) / sig2
        g = g + np.array([gh_log_pdf_grad(priors[j], beta[j]) for j in range(p)])
        return float(np.max(np.abs(g)))

    beta = locs.copy()  # prior mean warm start
    trace = [objective(beta)]
    for _ in range(max_iter):
        # E-step: w_j = E[1/tau_j | beta_j, window]
        resid2 = (beta - locs) ** 2 / a2
        w = np.empty(p)
        for j in range(p):
            dl = max(math.sqrt(s2[j] + resid2[j]), _ESTEP_DELTA_FLOOR)
            w[j] = gig_moment(GigParams(nu_e, dl, config.gamma), -1)
        # M-step: ridge system with per-coefficient weights
        A = XtX / sig2 + np.diag(w / a2)
        b = Xty / sig2 + (config.alpha / a2) * w * window[:, -1] if d_eff else Xty / sig2
        try:
            c, low = cho_factor(A)
            beta = cho_solve((c, low), b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular M-step system (weights range [{w.min()}, {w.max()}]); "
                "consider a larger delta or eps regularization"
            ) from exc
        trace.append(objective(beta))
        rel = abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-1]))
        if rel < tol and grad_norm(beta) < 10.0 * tol:
            break
    return beta, np.asarray(trace)


def run_online_map(
    data: RegressionData,
    config: ModelConfig,
    tol: float = 1e-8,
    max_iter: int = 100,
    eps_sparse: Optional[float] = None,
) -> MapFit:
    """Sequential MAP estimation for t = 1..T, feeding estimates back as history.

    ``eps_sparse`` thresholds the reported support; by default it is
    ``1e-3 * max |beta_hat|`` (these priors shrink hard but reach exact
    zero only in limits).
    """
    if not config.fixed_d:
        raise DomainError("online MAP estimation requires the fixed-d mode")
    T, p = data.T, data.p
    beta_hat = np.zeros((p, T))
    iters = np.zeros(T, dtype=np.int64)
    traces: list[NDArray[np.float64]] = []
    for t in range(T):
        d_eff = min(config.d, t)
        window = beta_hat[:, t - d_eff : t]
        try:
            beta, trace = em_map_step(
                data.ys[t], data.Xs[t], window, config, tol=tol, max_iter=max_iter
            )
        except (NumericalError, DomainError) as exc:
            raise type(exc)(f"at time step t={t + 1}: {exc}") from exc
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise NumericalError(f"at time step t={t + 1}: {exc}") from exc
        beta_hat[:, t] = beta
        iters[t] = len(trace) - 1
        traces.append(trace)
    if eps_sparse is None:
        eps_sparse = 1e-3 * float(np.max(np.abs(beta_hat)))
    support = np.abs(beta_hat) > eps_sparse
    return MapFit(beta_hat, support, iters, traces, eps_sparse)
