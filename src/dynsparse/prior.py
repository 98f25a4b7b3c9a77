"""The d-order Markov dynamic sparsity process.

A coefficient path beta_{j,1:T} starts from a joint mGH block and then
evolves through one-step GH conditionals whose scale is driven by the
Mahalanobis norm of the last d values.  Large recent values inflate the
conditional scale (the coefficient stays active); a window near zero
shrinks it (the coefficient stays parked at zero), which is exactly the
sparsity-pattern persistence the window length d controls.

Correlation within a window is AR(1): Sigma entries alpha^|i-j|, whose
inverse is tridiagonal, giving O(d) Mahalanobis norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .distributions import (
    GhParams,
    GigParams,
    MghParams,
    gh_sample,
    gig_rvs,
    mgh_sample,
)
from .errors import DomainError
from .special import validate_gig_region

__all__ = [
    "WindowCorrelation",
    "ModelConfig",
    "mahalanobis_norm",
    "mahal_sq_batch",
    "conditional_gh",
    "conditional_gig",
    "simulate_path",
    "simulate_d_chain",
    "autocorrelation",
]

_ALPHA_MAX = 1.0 - 1e-9


@dataclass(frozen=True)
class WindowCorrelation:
    """AR(1) correlation matrix of a coefficient window: entries alpha^|i-j|."""

    dim: int
    alpha: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")
        if not (0.0 <= self.alpha < 1.0):
            raise DomainError(
                f"alpha must lie in [0, 1) (alpha = 1 is degenerate), got {self.alpha}"
            )

    @property
    def matrix(self) -> NDArray[np.float64]:
        idx = np.arange(self.dim)
        return self.alpha ** np.abs(idx[:, None] - idx[None, :])


def mahalanobis_norm(x: NDArray[np.float64], corr: WindowCorrelation) -> float:
    """sqrt(x' Sigma^{-1} x), the Mahalanobis norm of a window, in O(dim)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (corr.dim,):
        raise DomainError(f"x has shape {x.shape}, expected ({corr.dim},)")
    return math.sqrt(mahal_sq_batch(x[None, :], corr.alpha)[0])


def mahal_sq_batch(x: NDArray[np.float64], alpha: float) -> NDArray[np.float64]:
    """Row-wise squared Mahalanobis norms under the AR(1) correlation.

    Sigma^{-1} = T / (1 - alpha^2) with T tridiagonal: diagonal
    (1, 1+a^2, ..., 1+a^2, 1), off-diagonal -a.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if d == 1:
        return x[..., 0] ** 2
    total = (x * x).sum(axis=-1)
    inner = (x[..., 1:-1] ** 2).sum(axis=-1)
    cross = (x[..., :-1] * x[..., 1:]).sum(axis=-1)
    return (total + alpha**2 * inner - 2.0 * alpha * cross) / (1.0 - alpha**2)


@dataclass(frozen=True)
class ModelConfig:
    """Full parameterization of the dynamic model.

    Exactly one of ``d`` (fixed window length) or ``rho`` (binomial chain on
    a time-varying window length) must be set.  ``sigma`` is the known
    observation noise standard deviation; ``p`` the predictor count.
    """

    nu: float
    delta: float
    gamma: float
    alpha: float
    sigma: float
    p: int = 1
    d: Optional[int] = None
    rho: Optional[float] = None

    def __post_init__(self) -> None:
        validate_gig_region(self.nu, self.delta, self.gamma)
        if not (0.0 <= self.alpha <= _ALPHA_MAX):
            raise DomainError(f"alpha must lie in [0, {_ALPHA_MAX}], got {self.alpha}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.p < 1:
            raise DomainError(f"p must be >= 1, got {self.p}")
        if (self.d is None) == (self.rho is None):
            raise DomainError("exactly one of d (fixed) or rho (time-varying) must be set")
        if self.d is not None and self.d < 0:
            raise DomainError(f"d must be nonnegative, got {self.d}")
        if self.rho is not None:
            if not (0.0 <= self.rho <= 1.0):
                raise DomainError(f"rho must lie in [0, 1], got {self.rho}")
            if self.delta == 0.0:
                # with delta = 0 a zero window makes the conditional GIG
                # region collapse for indices nu - d/2 <= 0, and d is
                # unbounded along the binomial chain
                raise DomainError("the time-varying mode requires delta > 0")
        if self.d is not None and self.delta == 0.0 and self.nu - self.d / 2.0 <= 0.0:
            raise DomainError(
                f"delta = 0 needs nu - d/2 > 0, got nu={self.nu}, d={self.d}"
            )

    @property
    def fixed_d(self) -> bool:
        return self.d is not None


def conditional_gh(
    config: ModelConfig, window: NDArray[np.float64], msq: Optional[float] = None
) -> GhParams:
    """One-step predictive GH law of beta_t given the window of past values.

    An empty window means the i.i.d. GH(0, nu, delta, gamma) marginal.
    ``msq``, where the caller already has it, must be the window's squared
    AR(1) norm ``mahal_sq_batch(window[None, :], config.alpha)[0]``; it is
    taken as given, not checked against ``window``.
    """
    window = np.asarray(window, dtype=float).ravel()
    d = window.shape[0]
    if d == 0:
        return GhParams(0.0, config.nu, config.delta, config.gamma)
    if msq is None:
        msq = mahal_sq_batch(window[None, :], config.alpha)[0]
    s2 = config.delta**2 + msq
    a = math.sqrt(1.0 - config.alpha**2)
    nu = config.nu - d / 2.0
    dl = a * math.sqrt(s2)
    gm = config.gamma / a
    try:
        return GhParams(config.alpha * window[-1], nu, dl, gm)
    except DomainError as exc:
        raise DomainError(
            f"conditional GH falls outside the valid GIG region: "
            f"(nu'={nu}, delta'={dl}, gamma'={gm})"
        ) from exc


def conditional_gig(config: ModelConfig, window: NDArray[np.float64]) -> GigParams:
    """Mixing law of the one-step conditional.

    Pairing convention: with ``tau`` from this law,
    ``beta_t | tau ~ N(alpha * window[-1], (1 - alpha^2) * tau)``
    reproduces :func:`conditional_gh` exactly (for an empty window the
    variance factor is 1 and the mean 0).
    """
    window = np.asarray(window, dtype=float).ravel()
    d = window.shape[0]
    if d == 0:
        return GigParams(config.nu, config.delta, config.gamma)
    s2 = config.delta**2 + mahal_sq_batch(window[None, :], config.alpha)[0]
    nu = config.nu - d / 2.0
    dl = math.sqrt(s2)
    try:
        return GigParams(nu, dl, config.gamma)
    except DomainError as exc:
        raise DomainError(
            f"conditional GIG falls outside the valid region: "
            f"(nu'={nu}, delta'={dl}, gamma'={config.gamma})"
        ) from exc


def simulate_path(
    config: ModelConfig,
    T: int,
    rng: np.random.Generator,
    d_path: Optional[NDArray[np.int64]] = None,
) -> NDArray[np.float64]:
    """Simulate p independent coefficient rows of length T from the prior.

    Fixed-d mode: the first min(d, T) values are one joint mGH block, the
    rest follow the one-step conditional.  Time-varying mode: the window
    length follows the binomial chain (d_1 = 0), shared across rows; pass
    ``d_path`` to reuse a pre-simulated chain.
    """
    if T < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    p = config.p
    beta = np.empty((p, T))
    alpha = config.alpha
    sa = math.sqrt(1.0 - alpha**2)

    if config.fixed_d:
        d = int(config.d)
        if d == 0:
            tau = gig_rvs(config.nu, config.delta, config.gamma, rng, size=(p, T))
            return np.sqrt(tau) * rng.standard_normal((p, T))
        start = min(d, T)
        init = MghParams(
            np.zeros(start), config.nu, config.delta, config.gamma,
            WindowCorrelation(start, alpha).matrix,
        )
        for j in range(p):
            beta[j, :start] = mgh_sample(init, rng)
        lengths = [d] * T
    else:
        if d_path is None:
            d_path = simulate_d_chain(config.rho, 0, T, rng)
        d_path = np.asarray(d_path, dtype=int)
        if d_path.shape != (T,):
            raise DomainError(f"d_path has shape {d_path.shape}, expected ({T},)")
        for j in range(p):
            beta[j, 0] = gh_sample(GhParams(0.0, config.nu, config.delta, config.gamma), rng)
        start = 1
        lengths = d_path.tolist()

    # scale-mixture step with mean alpha * beta_{t-1} and variance
    # (1 - alpha^2) tau, the convention of the sequential sampler
    delta2 = config.delta**2
    for t in range(start, T):
        dt = lengths[t]
        if dt > t:
            raise DomainError(f"d_path[{t}]={dt} exceeds the available history {t}")
        if dt == 0:
            s2 = np.full(p, delta2)
        else:
            s2 = delta2 + mahal_sq_batch(beta[:, t - dt : t], alpha)
        tau = gig_rvs(config.nu - dt / 2.0, np.sqrt(s2), config.gamma, rng)
        beta[:, t] = alpha * beta[:, t - 1] + sa * np.sqrt(tau) * rng.standard_normal(p)
    return beta


def simulate_d_chain(
    rho: float, d0: int, T: int, rng: np.random.Generator
) -> NDArray[np.int64]:
    """Binomial Markov chain d_t | d_{t-1} ~ Bin(d_{t-1} + 1, rho)."""
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    if d0 < 0 or T < 1:
        raise DomainError(f"need d0 >= 0 and T >= 1, got d0={d0}, T={T}")
    out = np.empty(T, dtype=np.int64)
    out[0] = d0
    for t in range(1, T):
        out[t] = rng.binomial(out[t - 1] + 1, rho)
    return out


def autocorrelation(series: NDArray[np.float64], max_lag: int) -> NDArray[np.float64]:
    """Sample autocorrelation at lags 1..max_lag (mean-centered, lag-0 normalized)."""
    x = np.asarray(series, dtype=float).ravel()
    if max_lag < 1:
        raise DomainError(f"max_lag must be >= 1, got {max_lag}")
    if x.shape[0] <= max_lag:
        raise DomainError(
            f"series length {x.shape[0]} must exceed max_lag {max_lag}"
        )
    x = x - x.mean()
    c0 = float(x @ x)
    if c0 == 0.0:
        raise DomainError("autocorrelation of a constant series is undefined")
    return np.array([float(x[:-k] @ x[k:]) / c0 for k in range(1, max_lag + 1)])
