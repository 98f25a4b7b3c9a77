"""The d-order Markov dynamic sparsity process.

A coefficient path beta_{j,1:T} starts from a joint mGH block and then
evolves through one-step GH conditionals whose scale is driven by the
Mahalanobis norm of the last d values.  Large recent values inflate the
conditional scale (the coefficient stays active); a window near zero
shrinks it (the coefficient stays parked at zero), which is exactly the
sparsity-pattern persistence the window length d controls.

Correlation within a window is AR(1): Sigma entries alpha^|i-j|, whose
inverse is tridiagonal, giving O(d) Mahalanobis norms.

Rows are independent given the window lengths, so a path is stepped one
row after another, on Python floats: a step on one-element arrays spends
most of its time in ufunc dispatch.  Each value's square and its product
with the value before are made once, as the value joins the row; a
step's window norm sums those products in numpy's pairwise order
(:func:`_add_reduce`).  Python's float arithmetic rounds as numpy's
float64 does, so the norm has the bits of :func:`mahal_sq_batch`, the
norm of the conditional law, the EM and the SMC.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .distributions import GhParams, MghParams, gh_sample, gig_rvs, mgh_sample, validate_gig_region
from .errors import DomainError

__all__ = [
    "window_correlation",
    "ModelConfig",
    "mahal_sq_batch",
    "conditional_gh",
    "simulate_path",
    "simulate_d_chain",
    "autocorrelation",
]

_ALPHA_MAX = 1.0 - 1e-9


def _check_integer(name: str, value: object) -> None:
    """A ``DomainError`` naming ``name`` unless ``value`` is a Python or numpy integer."""
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def window_correlation(dim: int, alpha: float) -> NDArray[np.float64]:
    """AR(1) correlation matrix of a coefficient window: entries alpha^|i-j|.

    The powers are Python's float powers (the C library's pow), which
    numpy's baseline and AVX2 power loops match; its AVX-512 loop rounds
    differently, so it is not used.
    """
    if not isinstance(dim, numbers.Integral) or dim < 1:
        raise DomainError(f"dim must be an integer >= 1, got {dim!r}")
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"alpha must lie in [0, 1) (alpha = 1 is degenerate), got {alpha}")
    alpha = float(alpha)
    powers = np.array([alpha**k for k in range(dim)])
    idx = np.arange(dim)
    return powers[np.abs(idx[:, None] - idx[None, :])]


def mahal_sq_batch(x: NDArray[np.float64], alpha: float) -> NDArray[np.float64]:
    """Row-wise squared Mahalanobis norms under the AR(1) correlation.

    Sigma^{-1} = T / (1 - alpha^2) with T tridiagonal: diagonal
    (1, 1+a^2, ..., 1+a^2, 1), off-diagonal -a.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if d == 1:
        return x[..., 0] ** 2
    sq = x * x
    total = np.add.reduce(sq, axis=-1)
    inner = np.add.reduce(sq[..., 1:-1], axis=-1)
    cross = np.add.reduce(x[..., :-1] * x[..., 1:], axis=-1)
    a2 = alpha**2
    return (total + a2 * inner - 2.0 * alpha * cross) / (1.0 - a2)


def _add_reduce(v: list[float], lo: int, hi: int) -> float:
    """``np.add.reduce`` of the floats v[lo:hi], in numpy's pairwise order.

    Fewer than 8 values sum left to right; up to 128 go to eight strided
    accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    tail left to right; a longer run splits in half, the split rounded down
    to a multiple of 8.  Each branch starts from numpy's identity +0.0, so
    a sum of signed zeros is +0.0 as numpy's is.
    """
    n = hi - lo
    if n < 8:
        res = 0.0
        for i in range(lo, hi):
            res += v[i]
        return res
    if n <= 128:
        end = hi - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = v[lo : lo + 8]
        for i in range(lo + 8, end, 8):
            r0 += v[i]
            r1 += v[i + 1]
            r2 += v[i + 2]
            r3 += v[i + 3]
            r4 += v[i + 4]
            r5 += v[i + 5]
            r6 += v[i + 6]
            r7 += v[i + 7]
        res = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
        for i in range(end, hi):
            res += v[i]
        return res
    half = n // 2
    half -= half % 8
    return _add_reduce(v, lo, lo + half) + _add_reduce(v, lo + half, hi)


def _mahal_sq_row(sq: list[float], cross: list[float], lo: int, hi: int, alpha: float) -> float:
    """:func:`mahal_sq_batch` of the window row[lo:hi] of a Python-float row, with the same bits.

    The row's products are made once per value and passed in:
    ``sq[k] = row[k] * row[k]`` and ``cross[k] = row[k - 1] * row[k]``.
    They round as numpy's float64 ones do and :func:`_add_reduce` sums
    in numpy's order, relative to ``lo``; window squares are products, so
    a huge value gives inf, not an ``OverflowError``.  ``alpha**2`` is
    libm's ``pow``, as in :func:`mahal_sq_batch`: it can differ from
    ``alpha * alpha`` in the last bit.
    """
    if hi - lo == 1:
        return sq[lo]
    total = _add_reduce(sq, lo, hi)
    inner = _add_reduce(sq, lo + 1, hi - 1)
    a2 = alpha**2
    return (total + a2 * inner - 2.0 * alpha * _add_reduce(cross, lo + 1, hi)) / (1.0 - a2)


@dataclass(frozen=True)
class ModelConfig:
    """Full parameterization of the dynamic model.

    Exactly one of ``d`` (fixed window length) or ``rho`` (binomial chain on
    a time-varying window length) must be set.  ``sigma`` is the known
    observation noise standard deviation, positive with sigma^2 and
    1/sigma^2 finite floats (about 7.5e-155 to 1.3e154); ``delta`` must
    have delta^2 a finite float (up to about 1.3e154); ``p`` the predictor
    count.
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
        # the prior, EM and SMC steps take delta**2 as a Python float, which
        # raises an OverflowError where the product below gives inf
        if not float(self.delta) * float(self.delta) < math.inf:
            raise DomainError(f"delta must have delta^2 a finite float, got delta={self.delta}")
        if not (0.0 <= self.alpha <= _ALPHA_MAX):
            raise DomainError(f"alpha must lie in [0, {_ALPHA_MAX}], got {self.alpha}")
        # the fits use sigma^2 and 1/sigma^2 as floats; a float product gives
        # inf where sigma**2 would raise an OverflowError
        sigma = float(self.sigma) if math.isfinite(self.sigma) else math.nan
        sigma2 = sigma * sigma
        if not (sigma > 0.0 and 0.0 < sigma2 < math.inf and 1.0 / sigma2 < math.inf):
            raise DomainError(
                f"sigma must be positive with sigma^2 and 1/sigma^2 finite floats, "
                f"got sigma={self.sigma}"
            )
        _check_integer("p", self.p)
        if self.d is not None:
            _check_integer("d", self.d)
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
    It does not describe the rho-mode step with d_t = 0 at t > 1, whose
    window is empty too: there :func:`simulate_path` and the SMC step from
    alpha * beta_{t-1} with variance tau ~ GIG(nu, sqrt(1 - alpha^2) delta,
    gamma / sqrt(1 - alpha^2)).
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
    ``d_path`` to reuse a pre-simulated chain.  Its entry d_path[i] (step
    t = i + 1) must lie in 0..i, the steps before it, as on every chain
    path; any other entry is a ``DomainError`` naming i.  Each later step
    draws tau ~ GIG(nu - d_t/2, sqrt(delta^2 + msq), gamma), msq the AR(1) norm
    of its window, and moves from alpha * beta_{t-1} with variance
    (1 - alpha^2) tau; for d_t >= 1, (1 - alpha^2) tau follows the mixing
    law of :func:`conditional_gh`.

    The rows are drawn in turn from ``rng``, each a whole one-row path: its
    start block, then its steps on Python floats (:func:`_mahal_sq_row`, a
    scalar GIG draw, ``rng.standard_normal()``).  A row keeps each value's
    square and its product with the value before next to the row, made
    once as the value is appended, so a step's window norm only sums.
    Row 0 of a p-row path is the p = 1 path from the same generator.
    Fixed d = 0 is one GH draw of shape (p, T).
    """
    _check_integer("T", T)
    if T < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    alpha = config.alpha
    sa = math.sqrt(1.0 - alpha**2)
    marginal = GhParams(0.0, config.nu, config.delta, config.gamma)

    if config.fixed_d:
        d = int(config.d)
        if d == 0:
            return gh_sample(marginal, rng, size=(config.p, T))
        start = min(d, T)
        init = MghParams(
            np.zeros(start), config.nu, config.delta, config.gamma,
            window_correlation(start, alpha),
        )
        lengths = [d] * T
    else:
        if d_path is None:
            d_path = simulate_d_chain(config.rho, T, rng)
        d_path = np.asarray(d_path, dtype=int)
        if d_path.shape != (T,):
            raise DomainError(f"d_path has shape {d_path.shape}, expected ({T},)")
        bad = np.flatnonzero((d_path < 0) | (d_path > np.arange(T)))
        if bad.size:
            t = int(bad[0])
            rule = "is negative" if d_path[t] < 0 else f"exceeds the available history {t}"
            raise DomainError(f"d_path[{t}]={d_path[t]} {rule}")
        start = 1
        lengths = d_path.tolist()

    # a float gamma keeps every step on gig_rvs's route for three Python floats
    nu, delta2, gamma = config.nu, config.delta**2, float(config.gamma)
    beta = np.empty((config.p, T))
    for j in range(config.p):
        row = mgh_sample(init, rng).tolist() if config.fixed_d else [gh_sample(marginal, rng)]
        sq = [x * x for x in row]
        cross = [0.0, *(x * y for x, y in zip(row, row[1:]))]
        for t in range(start, T):
            dt = lengths[t]
            s2 = delta2 + _mahal_sq_row(sq, cross, t - dt, t, alpha)
            # np.sqrt's NaN where math.sqrt raises, so gig_rvs raises its typed DomainError
            tau = gig_rvs(nu - dt / 2.0, math.sqrt(s2) if s2 >= 0.0 else math.nan, gamma, rng)
            x = alpha * row[-1] + sa * math.sqrt(tau) * rng.standard_normal()
            sq.append(x * x)
            cross.append(row[-1] * x)
            row.append(x)
        beta[j] = row
    return beta


def simulate_d_chain(rho: float, T: int, rng: np.random.Generator) -> NDArray[np.int64]:
    """Binomial Markov chain d_t | d_{t-1} ~ Bin(d_{t-1} + 1, rho) from d_1 = 0."""
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    _check_integer("T", T)
    if T < 1:
        raise DomainError(f"need T >= 1, got T={T}")
    d = 0
    out = [d]
    for _ in range(1, T):
        d = rng.binomial(d + 1, rho)
        out.append(d)
    return np.array(out, dtype=np.int64)


def autocorrelation(series: NDArray[np.float64], max_lag: int) -> NDArray[np.float64]:
    """Sample autocorrelation at lags 1..max_lag (mean-centered, lag-0 normalized).

    The sums are numpy's own pairwise reductions, not BLAS dot products,
    whose blocking and so whose rounding depend on the BLAS thread count.
    """
    x = np.asarray(series, dtype=float).ravel()
    _check_integer("max_lag", max_lag)
    if max_lag < 1:
        raise DomainError(f"max_lag must be >= 1, got {max_lag}")
    if x.shape[0] <= max_lag:
        raise DomainError(
            f"series length {x.shape[0]} must exceed max_lag {max_lag}"
        )
    x = x - x.mean()
    c0 = float(np.add.reduce(x * x))
    if c0 == 0.0:
        raise DomainError("autocorrelation of a constant series is undefined")
    return np.array(
        [float(np.add.reduce(x[:-k] * x[k:])) / c0 for k in range(1, max_lag + 1)]
    )
