"""Fully Bayesian inference: sequential Monte Carlo inside independent
Metropolis-Hastings.

One SMC pass propagates N particles through t = 1..T.  Each particle
carries the sparsity-window length d_t (fixed, or a binomial chain), the
latent scales tau_t drawn from the conditional GIG law, and beta_t drawn
from the locally optimal Gaussian proposal; the incremental weight is the
analytic marginal N(y_t; alpha X_t beta_{t-1}, X_t D_tau X_t' + sigma^2 I)
and therefore does not depend on the sampled beta_t.  One Cholesky
factor per step, of the p x p posterior precision, gives both the draw
and the weight; no n x n covariance is formed.  Resampling is
systematic and runs at every step; there is no adaptive mode.  The
evidence estimate Z-hat = prod_t mean(w_t) is then unbiased, which makes
the outer independent MH chain (accept with probability min(1, Z*/Z))
exact for the posterior over trajectories.

Particle histories are kept as per-generation states plus ancestor
indices; the window of past beta values needed by the GIG conditional is
read from a lineage buffer that is re-gathered at every step's resample,
so windows never mix values across particle lineages.  The buffer is two
arrays allocated once per pass: a step reads its window from the leading
rows of one and gathers the next step's window into the other.
The tau step serves every window length of a step at once: each
particle's buffer reads as zero outside its own window, and one AR(1) norm
call over the whole buffer gives all window norms.  A step draws tau from
:func:`dynsparse.prior.conditional_gh`'s mixing law for the mean
alpha * beta_{t-1}, or from the marginal GIG for the mean 0 (t = 1 and
fixed d = 0).  The buffer is (L, N, p), window axis first, so the norm's
sums run over the leading axis for all particles at once.

At N = 1000 a step costs about as much per numpy call as per element, so
the step makes few calls and keeps every generator call and output bit:
the Cholesky pass skips its sums over empty ranges (subtracting their 0.0
is exact), and the pass hoists log N and its zero prior mean out of the
loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .distributions import gig_rvs
from .errors import DegeneracyError, DomainError, NumericalError
from .map_em import RegressionData
from .prior import ModelConfig, mahal_sq_batch

__all__ = [
    "PosteriorChain",
    "PosteriorSummary",
    "smc_run",
    "pimh_run",
    "posterior_summary",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class PosteriorChain:
    """Output of the independent MH chain over SMC runs."""

    betas: NDArray[np.float64]  # M x p x T
    ds: NDArray[np.int64]  # M x T
    log_evidence: NDArray[np.float64]  # M
    accepted: NDArray[np.bool_]  # M

    @property
    def acceptance_rate(self) -> float:
        if self.accepted.shape[0] <= 1:
            return 1.0
        return float(np.mean(self.accepted[1:]))


@dataclass
class PosteriorSummary:
    """Plot-ready posterior tables."""

    mean: NDArray[np.float64]  # p x T
    quantiles: NDArray[np.float64]  # len(probs) x p x T
    d_posterior: NDArray[np.float64]  # (max_d+1) x T, columns sum to 1


def _sample_tau(
    hist: NDArray[np.float64],
    ds: NDArray[np.int64],
    config: ModelConfig,
    rng: np.random.Generator,
    scaled: bool,
) -> NDArray[np.float64]:
    """Latent scales for every (particle, coefficient) pair.

    ``hist`` is the lineage buffer (L, N, p), most recent value last, and
    ``ds[i] <= L`` the window lengths.  With ``scaled`` each draw follows
    ``conditional_gh(config, window).mixing`` of its particle's window (the
    binomial chain takes the same formula at d = 0), the step variance
    around the mean alpha * beta_{t-1}; without it (every d = 0: t = 1 or
    the fixed d = 0 model) the marginal GIG, around the mean 0.
    """
    L, N = hist.shape[:2]
    a2 = config.alpha**2
    start = L - ds  # buffer index of each particle's window start
    inside = np.arange(L)[:, None] >= start
    # window axis moved last as a view: numpy reduces it slab by slab
    windows = np.where(inside[:, :, None], hist, 0.0).transpose(1, 2, 0)
    msq = mahal_sq_batch(windows, config.alpha)
    if L > 1:
        # outside the window the buffer reads as zero; for 1 <= d < L the
        # window's first value then sits in the interior sum of the full
        # buffer, which adds alpha^2 x_first^2 / (1 - alpha^2) to the norm
        first = hist[np.minimum(start, L - 1), np.arange(N)]
        first = np.where(((start > 0) & (start < L))[:, None], first, 0.0)
        msq -= a2 * first**2 / (1.0 - a2)
    s = 1.0 - a2 if scaled else 1.0
    nu = config.nu - ds[:, None] / 2.0
    return gig_rvs(nu, np.sqrt(s * (config.delta**2 + msq)), config.gamma / np.sqrt(s), rng)


def _weight_and_propose(
    y: NDArray[np.float64],
    X: NDArray[np.float64],
    m: NDArray[np.float64],
    tau: NDArray[np.float64],
    sigma2: float,
    rng: np.random.Generator,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Incremental log-weight and beta_t draw from one Cholesky factor.

    With prior mean ``m`` (N x p), r = y - X m and
    P = D_tau^{-1} + X'X / sigma^2 = L L': beta_t = m + b + L'^{-1} z with
    b = P^{-1} X'r / sigma^2, and log N(r; 0, X D_tau X' + sigma^2 I) has
    log det n log sigma^2 + sum log tau + log det P and quadratic form
    ||r - X b||^2 / sigma^2 + b' D_tau^{-1} b, two nonnegative terms (the
    difference r'r / sigma^2 - b'P b turns an overflowing r into NaN).
    The factor is built column by column over all particles at once, the
    particle axis last, with the forward solve L u = X'r / sigma^2 in the
    same pass.
    """
    N, p = tau.shape
    n = y.shape[0]
    r = y[None, :] - m @ X.T
    G = X.T @ X / sigma2
    rhs = (r @ X / sigma2).T
    chol = np.zeros((p, p, N))
    u = np.empty((p, N))
    # the sums over an empty range (column 0 of L, row p of L') are 0.0, and
    # subtracting them is exact, so they are skipped
    for j in range(p):
        done = chol[j, :j]  # row j left of the diagonal
        pivot = G[j, j] + 1.0 / tau[:, j]
        u[j] = rhs[j]
        if j:
            pivot -= (done * done).sum(axis=0)
            u[j] -= np.einsum("kn,kn->n", done, u[:j])
        if not (pivot > 0.0).all():
            raise NumericalError(
                f"posterior precision not positive definite: pivot {j + 1} is {pivot.min()}"
            )
        chol[j, j] = np.sqrt(pivot)
        u[j] /= chol[j, j]
        if j + 1 < p:
            below = G[j + 1 :, j, None]
            if j:
                below = below - np.einsum("ikn,kn->in", chol[j + 1 :, :j], done)
            chol[j + 1 :, j] = below / chol[j, j]
    # back substitution L' [b, w] = [u, z]
    bw = np.empty((2, p, N))
    bw[1] = rng.standard_normal((N, p)).T
    bw[0] = u
    for i in range(p - 1, -1, -1):
        if i + 1 < p:
            bw[:, i] -= np.einsum("kn,ckn->cn", chol[i + 1 :, i], bw[:, i + 1 :])
        bw[:, i] /= chol[i, i]
    b, w = bw[0].T, bw[1].T
    e = r - b @ X.T
    with np.errstate(over="ignore"):  # an overflowing r gives quad = inf, log w = -inf
        quad = (e * e).sum(axis=1) / sigma2 + (b * b / tau).sum(axis=1)
    logdet = n * np.log(sigma2) + np.log(tau).sum(axis=1)
    logdet += 2.0 * np.log(np.diagonal(chol)).sum(axis=1)
    return -0.5 * (n * _LOG_2PI + logdet + quad), m + b + w


def _systematic_resample(
    weights: NDArray[np.float64], rng: np.random.Generator
) -> NDArray[np.int64]:
    """Systematic resampling: one uniform, N evenly spaced points."""
    N = weights.shape[0]
    positions = (rng.random() + np.arange(N)) / N
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), N - 1)


def _next_d(
    ds: NDArray[np.int64], t: int, config: ModelConfig, rng: np.random.Generator
) -> NDArray[np.int64]:
    """Window lengths at step t (1-based): binomial chain or min(d, t-1)."""
    if config.fixed_d:
        return np.full(ds.shape, min(int(config.d), t - 1), dtype=np.int64)
    return rng.binomial(ds + 1, config.rho).astype(np.int64)


def smc_run(
    data: RegressionData,
    config: ModelConfig,
    N: int,
    rng: np.random.Generator,
) -> tuple[NDArray[np.float64], NDArray[np.int64], float]:
    """One SMC pass; returns (trajectory draw, d draw, log evidence)."""
    if N < 2:
        raise DomainError(f"need at least 2 particles, got N={N}")
    T, p = data.T, data.p
    s2 = config.sigma**2
    alpha = config.alpha

    states = np.empty((T, N, p))
    d_hist = np.empty((T, N), dtype=np.int64)
    ancestors = np.empty((T, N), dtype=np.int64)

    # the lineage window, most recent last, is the first L rows of one of two
    # buffers: a step reads it there and writes beta_t in row L, then gathers
    # the next window into the first rows of the other by ancestor
    lineage, spare = np.empty((T, N, p)), np.empty((T, N, p))
    L = 0
    zero_mean = np.zeros((N, p))
    log_n = np.log(N)
    ds = np.zeros(N, dtype=np.int64)
    log_Z = 0.0

    for t in range(T):
        y, X = data.ys[t], data.Xs[t]
        hist = lineage[:L]
        try:
            if t > 0:
                ds = _next_d(ds, t + 1, config, rng)
            # t = 1 and the fixed d = 0 model step from the prior mean 0; the
            # binomial chain steps from alpha * beta_{t-1} even at d_t = 0
            scaled = t > 0 and (not config.fixed_d or config.d > 0)
            tau = _sample_tau(hist, ds, config, rng, scaled)
            m = alpha * hist[-1] if scaled else zero_mean
            lw, beta = _weight_and_propose(y, X, m, tau, s2, rng)
        except (NumericalError, DomainError) as exc:
            raise type(exc)(f"at time step t={t + 1}: {exc}") from exc

        total = lw - log_n  # each step starts from a resample
        top = total.max()  # NaN if any log-weight is
        if np.isnan(top):
            raise NumericalError(f"NaN particle log-weight at t={t + 1}")
        if top == -np.inf:
            raise DegeneracyError(f"all particle weights collapsed at t={t + 1}")
        if top == np.inf:
            raise NumericalError(f"infinite particle log-weight at t={t + 1}")
        log_step = top + np.log(np.exp(total - top).sum())
        log_Z += float(log_step)

        states[t] = beta
        d_hist[t] = ds

        w = np.exp(total - log_step)
        anc = _systematic_resample(w, rng)
        ancestors[t] = anc

        lineage[L] = beta
        # the deepest window next step can request, beta_{t-1} at least
        keep = min(L + 1, int(ds.max()) + 1)
        # anc lies in [0, N), so "clip" changes nothing and take writes out unbuffered
        np.take(lineage[L + 1 - keep : L + 1], anc, axis=1, out=spare[:keep], mode="clip")
        lineage, spare, L = spare, lineage, keep
        ds = ds[anc]

    # final draw proportional to the terminal (pre-resample) weights,
    # traced through the ancestry: the parent of pre-resample particle i
    # at time t is ancestors[t-1][i]
    cur = int(rng.choice(N, p=w / w.sum()))
    trajectory = np.empty((p, T))
    d_draw = np.empty(T, dtype=np.int64)
    for t in range(T - 1, -1, -1):
        trajectory[:, t] = states[t, cur]
        d_draw[t] = d_hist[t, cur]
        if t > 0:
            cur = int(ancestors[t - 1][cur])
    return trajectory, d_draw, log_Z


def pimh_run(
    data: RegressionData,
    config: ModelConfig,
    N: int,
    M: int,
    rng: np.random.Generator,
) -> PosteriorChain:
    """Independent MH over SMC runs (accept with min(1, Z*/Z)).

    A proposal pass that raises ``DegeneracyError`` has Z-hat = 0, a valid
    value of the unbiased estimator: it counts as a rejection.  Any other
    ``NumericalError`` is a defect and propagates, naming the iteration and
    t.  The first pass raises on both, naming iteration 1: the chain needs a
    start with Z-hat > 0.
    """
    if M < 1:
        raise DomainError(f"need at least one iteration, got M={M}")
    T, p = data.T, data.p
    betas = np.empty((M, p, T))
    ds = np.empty((M, T), dtype=np.int64)
    log_ev = np.empty(M)
    accepted = np.zeros(M, dtype=bool)

    cur = None  # (trajectory, d path, log Z-hat) of the chain's state
    for m in range(M):
        try:
            prop = smc_run(data, config, N, rng)
        except NumericalError as exc:
            if cur is None or not isinstance(exc, DegeneracyError):
                raise type(exc)(f"PIMH iteration {m + 1}: {exc}") from exc
        else:
            if cur is None or np.log(rng.random()) < prop[2] - cur[2]:
                cur = prop
                accepted[m] = True
        betas[m], ds[m], log_ev[m] = cur
    return PosteriorChain(betas=betas, ds=ds, log_evidence=log_ev, accepted=accepted)


def posterior_summary(
    chain: PosteriorChain, probs: NDArray[np.float64]
) -> PosteriorSummary:
    """Posterior mean/quantile tables and the per-t window-length law."""
    probs = np.atleast_1d(np.asarray(probs, dtype=float))
    if chain.betas.shape[0] == 0:
        raise DomainError("empty chain")
    if np.any(~((probs > 0) & (probs < 1))):
        raise DomainError("quantile probabilities must lie strictly in (0, 1)")
    mean = chain.betas.mean(axis=0)
    quantiles = np.quantile(chain.betas, probs, axis=0)
    max_d = int(chain.ds.max())
    T = chain.ds.shape[1]
    d_post = np.zeros((max_d + 1, T))
    for t in range(T):
        counts = np.bincount(chain.ds[:, t], minlength=max_d + 1)
        d_post[:, t] = counts / counts.sum()
    return PosteriorSummary(mean=mean, quantiles=quantiles, d_posterior=d_post)
