"""Online approximate MAP estimation by EM over the latent scales.

At each time step the posterior log p(beta_t | past estimates, y_t) is
maximized with an EM algorithm: the E-step computes the conditional
expectation of the inverse latent scale of every coefficient (a GIG
expectation), the M-step solves the resulting ridge-type system.  Each
sweep can only increase the objective, which the fitter records per step.

The prior pieces come from :func:`dynsparse.prior.conditional_gh`; the
first step (and a configured d = 0) use the i.i.d. GH marginal.

Each sweep is batched over the p coefficients.  What stays fixed within
a step (the GH log-normaliser head of each conditional, delta'^2, mu and
the E-step Mahalanobis terms) is computed once per step, and each sweep
phase makes one ``kve`` call over all p coefficients
(:func:`dynsparse.special.log_bessel_k_grid`): the E-step, the objective
and the gradient check.  The M-step calls LAPACK ``dpotrf``/``dpotrs``
directly.  Elementwise ``log``, ``exp`` and ``sqrt`` stay in ``math`` on
Python floats and sums keep their left-to-right order, because numpy's
vector ``log`` and ``exp`` can differ from ``math`` in the last bit: the
batched sweep gives the per-coefficient sweep's results bit for bit.
The gamma = 0 (Student) prior and a prior term with q = 0 keep the
scalar route through the distribution functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dpotrf, dpotrs

from .distributions import (
    GhParams,
    GigParams,
    gh_log_norm,
    gh_log_pdf,
    gh_log_pdf_grad,
    gig_moment,
)
from .errors import DomainError, NumericalError
from .prior import ModelConfig, conditional_gh, mahal_sq_batch
from .special import log_bessel_k_grid

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
    """Per-time MAP estimates plus solver diagnostics.

    ``converged[t]`` is False where step t ran all ``max_iter`` sweeps
    without meeting its stopping rule.
    """

    beta_hat: NDArray[np.float64]  # p x T
    support: NDArray[np.bool_]  # p x T
    em_iters: NDArray[np.int64]
    objective_trace: list[NDArray[np.float64]]
    eps_sparse: float
    converged: NDArray[np.bool_]


def _prior_laws(
    window: NDArray[np.float64], msq: NDArray[np.float64], config: ModelConfig
) -> tuple[list[GhParams], NDArray[np.float64], float]:
    """Conditional GH prior per coefficient, its locations, and the variance factor."""
    p, d_eff = window.shape
    priors = [conditional_gh(config, window[j], msq[j]) for j in range(p)]
    locs = np.array([g.mu for g in priors])
    a2 = 1.0 if d_eff == 0 else 1.0 - config.alpha**2
    return priors, locs, a2


def _solve_spd(A: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve A x = b by Cholesky, calling the LAPACK routines cho_factor/cho_solve wrap."""
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    c, info = dpotrf(A, lower=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    x, _ = dpotrs(c, b, lower=False)
    return x


def em_map_step(
    y_t: NDArray[np.float64],
    X_t: NDArray[np.float64],
    window: NDArray[np.float64],
    config: ModelConfig,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> tuple[NDArray[np.float64], NDArray[np.float64], bool]:
    """One online MAP step: maximize log prior(beta_t | window) + log lik(y_t | beta_t).

    ``window`` is the p x d matrix of previous estimates (possibly 0 columns).
    Returns the maximizer, the objective trace, which is nondecreasing, and
    whether the stopping rule was met (False when ``max_iter`` sweeps ran out).

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
    msq = mahal_sq_batch(window, config.alpha)
    priors, locs, a2 = _prior_laws(window, msq, config)
    # E-step GIG pieces that do not change across sweeps
    s2 = (config.delta**2 + msq).tolist()
    nu_e = (config.nu - d_eff / 2.0) - 0.5
    sig2 = config.sigma**2
    XtX = X.T @ X
    Xty = X.T @ y
    # the p conditionals share nu and gamma; gamma = 0 (Student) keeps the
    # scalar route through the distribution functions
    student = config.gamma == 0.0
    order = priors[0].nu - 0.5
    gamma = priors[0].gamma
    if not student:
        heads, d2s = zip(*(gh_log_norm(g) for g in priors))
        log_gamma = math.log(gamma)
        log_gamma_e = math.log(config.gamma)

    def weights(r: list[float]) -> NDArray[np.float64]:
        # E-step: w_j = E[1/tau_j | beta_j, window], a GIG(nu_e, dl_j, gamma)
        # moment, with r_j = beta_j - mu_j
        dls = [
            max(math.sqrt(s2j + rj * rj / a2), _ESTEP_DELTA_FLOOR) for s2j, rj in zip(s2, r)
        ]
        if not all(map(math.isfinite, dls)):
            raise NumericalError(f"E-step delta is not finite: {dls}")
        if student:
            return np.array([gig_moment(GigParams(nu_e, dl, config.gamma), -1) for dl in dls])
        # gig_moment(GigParams(nu_e, dl, gamma), -1), operation for operation
        lk_lo, lk = log_bessel_k_grid([nu_e - 1.0, nu_e], [dl * config.gamma for dl in dls])
        return np.array([
            math.exp(-(math.log(dl) - log_gamma_e) + lo - hi)
            for dl, lo, hi in zip(dls, lk_lo, lk)
        ])

    def objective(beta: NDArray[np.float64], r: list[float]) -> tuple[float, Optional[tuple]]:
        # also returns (r, q^2, q) of the prior terms for the gradient check,
        # or None where the terms took the scalar route
        resid = y - X @ beta
        with np.errstate(over="ignore"):  # an overflowing resid gives ll = -inf
            ll = -0.5 * float(resid @ resid) / sig2
        if not ll > -math.inf:
            raise NumericalError(f"EM objective is not finite (log-likelihood {ll})")
        parts = None
        if not student:
            q2 = [d2 + rj * rj for d2, rj in zip(d2s, r)]
            if not all(map(math.isfinite, q2)):
                raise NumericalError(f"EM objective is not finite (prior q^2 {q2})")
            q = [math.sqrt(v) for v in q2]
            # q = 0 needs delta' on its small-delta limit (d2 = 0) and beta_j = mu_j
            if 0.0 not in q:
                parts = (r, q2, q)
        if parts is None:
            value = ll + sum(gh_log_pdf(priors[j], beta[j]) for j in range(p))
        else:
            # gh_log_pdf(priors[j], beta[j]), operation for operation
            (lk,) = log_bessel_k_grid([order], [gamma * qj for qj in q])
            terms = [
                head + order * (math.log(qj) - log_gamma) + lkj
                for head, qj, lkj in zip(heads, q, lk)
            ]
            value = ll + sum(terms)
        if not value > -math.inf:
            raise NumericalError(f"EM objective is not finite ({value})")
        return value, parts

    def grad_norm(beta: NDArray[np.float64], parts: Optional[tuple]) -> float:
        g = (Xty - XtX @ beta) / sig2
        if parts is None:
            prior_g = [gh_log_pdf_grad(priors[j], beta[j]) for j in range(p)]
        else:
            # gh_log_pdf_grad(priors[j], beta[j]), operation for operation
            r, q2, q = parts
            lk, lk_lo, lk_hi = log_bessel_k_grid(
                [order, order - 1.0, order + 1.0], [gamma * qj for qj in q]
            )
            prior_g = []
            for rj, q2j, qj, k, lo, hi in zip(r, q2, q, lk, lk_lo, lk_hi):
                dlogk = -0.5 * (math.exp(lo - k) + math.exp(hi - k))
                prior_g.append(order * rj / q2j + gamma * dlogk * rj / qj)
        g = g + np.array(prior_g)
        return float(np.max(np.abs(g)))

    A0 = XtX / sig2
    b0 = Xty / sig2
    pull = config.alpha / a2
    beta = locs.copy()  # prior mean warm start
    r = (beta - locs).tolist()
    value, parts = objective(beta, r)
    trace = [value]
    for _ in range(max_iter):
        w = weights(r)
        # M-step: ridge system with per-coefficient weights
        A = A0 + np.diag(w / a2)
        b = b0 + pull * w * window[:, -1] if d_eff else b0
        try:
            beta = _solve_spd(A, b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular M-step system (weights range [{w.min()}, {w.max()}]); "
                "consider a larger delta or eps regularization"
            ) from exc
        r = (beta - locs).tolist()
        value, parts = objective(beta, r)
        trace.append(value)
        rel = abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-1]))
        if rel < tol and grad_norm(beta, parts) < 10.0 * tol:
            return beta, np.asarray(trace), True
    return beta, np.asarray(trace), False


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
    zero only in limits).  When any step stops at ``max_iter``, one
    ``RuntimeWarning`` gives their count and the first such t.
    """
    if not config.fixed_d:
        raise DomainError("online MAP estimation requires the fixed-d mode")
    T, p = data.T, data.p
    beta_hat = np.zeros((p, T))
    iters = np.zeros(T, dtype=np.int64)
    converged = np.zeros(T, dtype=bool)
    traces: list[NDArray[np.float64]] = []
    for t in range(T):
        d_eff = min(config.d, t)
        window = beta_hat[:, t - d_eff : t]
        try:
            beta, trace, converged[t] = em_map_step(
                data.ys[t], data.Xs[t], window, config, tol=tol, max_iter=max_iter
            )
        except (NumericalError, DomainError) as exc:
            raise type(exc)(f"at time step t={t + 1}: {exc}") from exc
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise NumericalError(f"at time step t={t + 1}: {exc}") from exc
        beta_hat[:, t] = beta
        iters[t] = len(trace) - 1
        traces.append(trace)
    if not converged.all():
        first = int(np.argmin(converged)) + 1
        warnings.warn(
            f"{int(np.sum(~converged))} of {T} EM steps stopped at max_iter={max_iter} "
            f"without converging, the first at t={first}",
            RuntimeWarning,
            stacklevel=2,
        )
    if eps_sparse is None:
        eps_sparse = 1e-3 * float(np.max(np.abs(beta_hat)))
    support = np.abs(beta_hat) > eps_sparse
    return MapFit(beta_hat, support, iters, traces, eps_sparse, converged)
