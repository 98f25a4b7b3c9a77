"""GIG, univariate GH and multivariate GH laws.

The GH family arises as a scale mixture of normals: ``x | tau ~ N(mu, tau)``
with ``tau ~ GIG(nu, delta, gamma)``.  The multivariate variant shares one
GIG scale across a Gaussian vector, which is what induces group-level
shrinkage downstream.

All densities are evaluated in log space.  The boundary cases delta = 0
(gamma mixing) and gamma = 0 (inverse-gamma mixing, Student-type tails)
are explicit limit branches, never epsilon perturbations.

Sampling of the GIG uses the ratio-of-uniforms-free rejection scheme of
Devroye (2014), whose acceptance rate is uniformly bounded over the whole
parameter range; the boundaries use plain gamma / inverse-gamma draws.
The scheme has two kernels: ``_devroye_gig`` works on arrays, each
rejection round on the elements still pending (the first on the full
arrays), and ``_devroye_gig_one`` is its setup-light scalar twin.
``gig_rvs`` picks by size alone: a broadcast batch of exactly one element
takes the scalar kernel, any other batch the array kernel.  Both give the
same value for one element and take the same uniforms from the generator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_solve, cholesky
from scipy.special import gammaln

from .errors import DomainError, NumericalError
from .special import log_bessel_k, log_gig_normalizer, validate_gig_region

__all__ = [
    "GigParams",
    "GhParams",
    "MghParams",
    "gig_log_pdf",
    "gig_sample",
    "gig_rvs",
    "gig_moment",
    "gh_log_pdf",
    "gh_log_norm",
    "gh_log_pdf_grad",
    "gh_sample",
    "mgh_log_pdf",
    "mgh_sample",
]

# Below this, delta is treated as exactly on the gamma-mixing boundary when
# nu > 0: the general normalizer (gamma/delta)^nu / K_nu(delta*gamma) is an
# indeterminate form there.
_DELTA_LIMIT = 1e-12

# The largest omega whose square is finite: above it the Devroye kernels'
# omega * omega overflows and no rejection round can accept.
_OMEGA_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class GigParams:
    """Parameters of the generalized inverse Gaussian law.

    Density ``prop. to x^(nu-1) exp(-(delta^2/x + gamma^2 x)/2)`` on (0, inf).
    Valid regions: delta, gamma >= 0 and not both zero; delta = 0 needs
    nu > 0 (gamma law); gamma = 0 needs nu < 0 (inverse-gamma law).
    """

    nu: float
    delta: float
    gamma: float

    def __post_init__(self) -> None:
        validate_gig_region(self.nu, self.delta, self.gamma)


@dataclass(frozen=True)
class GhParams:
    """Parameters of the univariate generalized hyperbolic law."""

    mu: float
    nu: float
    delta: float
    gamma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        validate_gig_region(self.nu, self.delta, self.gamma)

    @property
    def mixing(self) -> GigParams:
        return GigParams(self.nu, self.delta, self.gamma)


@dataclass(frozen=True)
class MghParams:
    """Parameters of the multivariate generalized hyperbolic law.

    ``x | tau ~ N(mu, tau * sigma)`` with a single shared GIG scale tau.
    """

    mu: NDArray[np.float64]
    nu: float
    delta: float
    gamma: float
    sigma: NDArray[np.float64]
    _chol: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _logdet: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        validate_gig_region(self.nu, self.delta, self.gamma)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise DomainError(f"sigma must be square, got shape {sigma.shape}")
        if mu.shape[0] != sigma.shape[0]:
            raise DomainError(
                f"mu length {mu.shape[0]} does not match sigma dimension {sigma.shape[0]}"
            )
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise DomainError("sigma must be symmetric")
        try:
            L = cholesky(sigma, lower=True)
        except np.linalg.LinAlgError as exc:
            raise DomainError("sigma must be positive definite") from exc
        object.__setattr__(self, "_chol", L)
        object.__setattr__(self, "_logdet", 2.0 * float(np.sum(np.log(np.diag(L)))))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def mixing(self) -> GigParams:
        return GigParams(self.nu, self.delta, self.gamma)


# ---------------------------------------------------------------------------
# GIG density and moments
# ---------------------------------------------------------------------------


def gig_log_pdf(params: GigParams, x: float) -> float:
    """Log density of the GIG law at x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"GIG support is (0, inf), got x={x}")
    logc = log_gig_normalizer(params.nu, params.delta, params.gamma)
    return (
        logc
        + (params.nu - 1.0) * math.log(x)
        - 0.5 * (params.delta**2 / x + params.gamma**2 * x)
    )


def gig_moment(params: GigParams, power: int) -> float:
    """E[X^power] of the GIG law; raises DomainError when it does not exist.

    For delta, gamma > 0 every integer moment exists and equals
    ``(delta/gamma)^power * K_{nu+power}(delta*gamma) / K_nu(delta*gamma)``.
    """
    power = int(power)
    nu, delta, gamma = params.nu, params.delta, params.gamma
    if power == 0:
        return 1.0
    if delta == 0.0:
        # gamma(shape=nu, rate=gamma^2/2)
        if nu + power <= 0.0:
            raise DomainError(f"E[X^{power}] of gamma(shape={nu}) does not exist")
        return math.exp(
            gammaln(nu + power) - gammaln(nu) + power * math.log(2.0 / gamma**2)
        )
    if gamma == 0.0:
        # inverse-gamma(shape=-nu, scale=delta^2/2)
        if nu + power >= 0.0:
            raise DomainError(f"E[X^{power}] of inverse-gamma(shape={-nu}) does not exist")
        return math.exp(
            gammaln(-nu - power) - gammaln(-nu) + power * math.log(delta**2 / 2.0)
        )
    z = delta * gamma
    return math.exp(
        power * (math.log(delta) - math.log(gamma))
        + log_bessel_k(nu + power, z)
        - log_bessel_k(nu, z)
    )


# ---------------------------------------------------------------------------
# GIG sampling (Devroye 2014 rejection scheme, vectorized)
# ---------------------------------------------------------------------------


def _psi(x, alpha, lam):
    """Log of the Devroye (2014) target in the log-scale variable, up to a constant."""
    return -alpha * (np.cosh(x) - 1.0) - lam * (np.expm1(x) - x)


def _dpsi(x, alpha, lam):
    """Derivative of :func:`_psi` in x."""
    return -alpha * np.sinh(x) - lam * np.expm1(x)


def _omega_overflow(omega: float) -> DomainError:
    return DomainError(
        f"Devroye GIG sampler needs omega <= {_OMEGA_MAX!r} (omega * omega overflows), "
        f"got omega={omega!r}"
    )


def _devroye_gig(lam, omega, rng: np.random.Generator) -> NDArray[np.float64]:
    """Draws from pdf prop. to z^(lam-1) exp(-omega (z + 1/z)/2), elementwise.

    lam may be any real, omega must be > 0.  Rejection constant is uniformly
    bounded, so the loop terminates in a handful of rounds.  Each round takes
    U, V, W for the elements still pending from one ``rng.random((3, n))``
    call; the first round runs on the full arrays, and each later one on the
    per-element constants compacted to the rejected elements.
    """
    lam, omega = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(omega, dtype=float))
    shape = lam.shape
    lam, omega = lam.ravel(), omega.ravel()
    top = omega.max(initial=0.0)
    if not (omega.min(initial=1.0) > 0.0 and math.isfinite(top) and np.isfinite(lam).all()):
        raise DomainError("Devroye GIG sampler needs finite lam and omega > 0")
    if top > _OMEGA_MAX:
        raise _omega_overflow(float(top))

    swap = lam < 0.0
    lam = np.abs(lam)
    alpha = np.sqrt(omega**2 + lam**2) - lam

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # right cut point t
        x0 = -_psi(1.0, alpha, lam)
        t = np.where(x0 > 2.0, np.sqrt(2.0 / (alpha + lam)), 1.0)
        t = np.where(x0 < 0.5, np.log(4.0 / (alpha + 2.0 * lam)), t)
        # left cut point s
        x1 = -_psi(-1.0, alpha, lam)
        s = np.where(x1 > 2.0, np.sqrt(4.0 / (alpha * np.cosh(1.0) + lam)), 1.0)
        cand = np.minimum(
            1.0 / lam,
            np.log1p(1.0 / alpha + np.sqrt(1.0 / alpha**2 + 2.0 / alpha)),
        )
        s = np.where(x1 < 0.5, cand, s)

    # eta = -psi(t), zeta = -psi'(t), theta = -psi(-s), xi = psi'(-s)
    cuts = np.stack([t, -s])
    (eta, theta), (dt, xi) = -_psi(cuts, alpha, lam), _dpsi(cuts, alpha, lam)
    zeta = -dt
    p = 1.0 / xi
    r = 1.0 / zeta
    td = t - r * eta
    sd = s - p * theta
    q = td + sd

    mode = lam / omega + np.sqrt(1.0 + (lam / omega) ** 2)
    out = np.empty_like(lam)
    pending = np.arange(lam.size)
    # the sums and negations each round needs, formed once
    consts = np.stack(
        [q + p + r, q + r, q, p, r, td, -sd, t, -eta, zeta, s, -theta, xi, alpha, lam]
    )
    with np.errstate(divide="ignore"):
        for _ in range(1000):
            if pending.size == 0:
                break
            tot, qr, q, p, r, td, msd, t, meta, zeta, s, mtheta, xi, alpha, lam = consts
            U, V, W = uvw = rng.random((3, pending.size))
            u = U * tot
            logV, logW = np.log(uvw[1:])
            x = np.where(u < q, msd + q * V, np.where(u < qr, td - r * logV, msd + p * logV))
            logchi = np.where(
                x > td, meta - zeta * (x - t), np.where(x < msd, mtheta + xi * (x + s), 0.0)
            )
            accept = logW + logchi <= _psi(x, alpha, lam)
            out[pending[accept]] = x[accept]
            reject = ~accept
            pending, consts = pending[reject], consts[:, reject]
        else:
            raise NumericalError("GIG rejection sampler exceeded its round budget")

    z = np.exp(out) * mode
    z = np.where(swap, 1.0 / z, z)
    return z.reshape(shape)


def _devroye_gig_one(lam, omega, rng: np.random.Generator) -> np.float64:
    """One draw of :func:`_devroye_gig`, without its array bookkeeping.

    Same operations in the same order on ``np.float64``: numpy's scalar
    ufuncs give the array loops' bits (``math.cosh`` does not), and
    ``x * x`` stands in for ``x ** 2``, which the array loop computes as a
    product but scalar power rounds differently.  Each round takes U, V, W
    as the array kernel does at n = 1, so value and generator state match.
    """
    lam = np.float64(lam)
    omega = np.float64(omega)
    if not (omega > 0.0 and math.isfinite(omega) and math.isfinite(lam)):
        raise DomainError("Devroye GIG sampler needs finite lam and omega > 0")
    if omega > _OMEGA_MAX:
        raise _omega_overflow(float(omega))

    swap = lam < 0.0
    lam = abs(lam)
    alpha = np.sqrt(omega * omega + lam * lam) - lam

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # right cut point t
        x0 = -_psi(1.0, alpha, lam)
        t = np.sqrt(2.0 / (alpha + lam)) if x0 > 2.0 else 1.0
        if x0 < 0.5:
            t = np.log(4.0 / (alpha + 2.0 * lam))
        # left cut point s
        x1 = -_psi(-1.0, alpha, lam)
        s = np.sqrt(4.0 / (alpha * np.cosh(1.0) + lam)) if x1 > 2.0 else 1.0
        if x1 < 0.5:
            s = np.minimum(
                1.0 / lam,
                np.log1p(1.0 / alpha + np.sqrt(1.0 / (alpha * alpha) + 2.0 / alpha)),
            )

    eta = -_psi(t, alpha, lam)
    zeta = -_dpsi(t, alpha, lam)
    theta = -_psi(-s, alpha, lam)
    xi = _dpsi(-s, alpha, lam)
    p = 1.0 / xi
    r = 1.0 / zeta
    td = t - r * eta
    sd = s - p * theta
    q = td + sd

    for _ in range(1000):
        U = rng.random()
        V = rng.random()
        W = rng.random()
        u = U * (q + p + r)
        logV = np.log(V) if V > 0.0 else -np.inf
        if u < q:
            x = -sd + q * V
        elif u < q + r:
            x = td + r * (-logV)
        else:
            x = -sd + p * logV
        psix = _psi(x, alpha, lam)
        if x > td:
            logchi = -eta - zeta * (x - t)
        elif x < -sd:
            logchi = -theta + xi * (x + s)
        else:
            logchi = 0.0
        logW = np.log(W) if W > 0.0 else -np.inf
        if logW + logchi <= psix:
            break
    else:
        raise NumericalError("GIG rejection sampler exceeded its round budget")

    ratio = lam / omega
    z = np.exp(x) * (ratio + np.sqrt(1.0 + ratio * ratio))
    return 1.0 / z if swap else z


def _gig_one(nu, delta, gamma, rng: np.random.Generator) -> np.float64:
    """One GIG draw, routed and validated as :func:`gig_rvs` does a batch."""
    if gamma == 0.0:
        if nu >= 0.0:
            raise DomainError("gamma = 0 requires nu < 0")
        if not delta > 0.0:
            raise DomainError("gamma = 0 requires delta > 0")
        return (delta * delta / 2.0) / rng.gamma(-nu, 1.0)
    if delta == 0.0:
        if nu <= 0.0:
            raise DomainError("delta = 0 requires nu > 0")
        if not gamma > 0.0:
            raise DomainError("delta = 0 requires gamma > 0")
        return rng.gamma(nu, 2.0 / (gamma * gamma))
    if delta < 0.0 and gamma < 0.0:
        raise DomainError("delta and gamma must be nonnegative")
    return (delta / gamma) * _devroye_gig_one(nu, delta * gamma, rng)


def gig_rvs(nu, delta, gamma, rng: np.random.Generator, size=None) -> NDArray[np.float64]:
    """Vectorized GIG draws with elementwise parameters.

    Boundary parameters (delta = 0 or gamma = 0) are routed to exact
    gamma / inverse-gamma samplers elementwise.  A batch of one element
    takes the scalar kernel, which draws the same value as the array
    kernel would.
    """
    nu = np.asarray(nu, dtype=float)
    delta = np.asarray(delta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    shape = np.broadcast(nu, delta, gamma).shape
    if size is not None:
        shape = np.broadcast_shapes(shape, tuple(np.atleast_1d(size)))
    if math.prod(shape) == 1:
        z = _gig_one(nu.flat[0], delta.flat[0], gamma.flat[0], rng)
        return float(z) if shape == () else np.full(shape, z)
    nu = np.broadcast_to(nu, shape)
    delta = np.broadcast_to(delta, shape)
    gamma = np.broadcast_to(gamma, shape)

    out = np.empty(shape, dtype=float)
    g0 = gamma == 0.0
    d0 = (delta == 0.0) & ~g0
    interior = ~g0 & ~d0
    if g0.any():
        if np.any(nu[g0] >= 0.0):
            raise DomainError("gamma = 0 requires nu < 0")
        if not np.all(delta[g0] > 0.0):
            raise DomainError("gamma = 0 requires delta > 0")
        out[g0] = (delta[g0] ** 2 / 2.0) / rng.gamma(-nu[g0], 1.0)
    if d0.any():
        if np.any(nu[d0] <= 0.0):
            raise DomainError("delta = 0 requires nu > 0")
        if not np.all(gamma[d0] > 0.0):
            raise DomainError("delta = 0 requires gamma > 0")
        out[d0] = rng.gamma(nu[d0], 2.0 / gamma[d0] ** 2)
    if interior.any():
        if ((delta < 0.0) & (gamma < 0.0)).any():
            raise DomainError("delta and gamma must be nonnegative")
        out[interior] = (delta[interior] / gamma[interior]) * _devroye_gig(
            nu[interior], delta[interior] * gamma[interior], rng
        )
    return out


def gig_sample(params: GigParams, rng: np.random.Generator, size=None):
    """Draws from the GIG law; scalar when size is None."""
    if size is None:
        return float(gig_rvs(params.nu, params.delta, params.gamma, rng, size=(1,))[0])
    return gig_rvs(params.nu, params.delta, params.gamma, rng, size=size)


# ---------------------------------------------------------------------------
# GH / mGH log densities
# ---------------------------------------------------------------------------


def _log_mixing_norm(nu: float, delta: float, gamma: float) -> tuple[float, float]:
    """Log of (gamma/delta)^nu / K_nu(delta*gamma) with its limit branches.

    Returns (value, effective delta squared) so callers can drop a
    negligible delta from the Mahalanobis term consistently.
    """
    if gamma == 0.0:
        # handled separately by the caller
        raise AssertionError("gamma = 0 must use the heavy-tail branch")
    if delta < _DELTA_LIMIT and nu > 0.0:
        return math.log(2.0) - gammaln(nu) + nu * math.log(gamma * gamma / 2.0), 0.0
    return (
        nu * (math.log(gamma) - math.log(delta)) - log_bessel_k(nu, delta * gamma),
        delta * delta,
    )


def _mgh_log_norm(
    nu: float, delta: float, gamma: float, p: int, logdet_sigma: float
) -> tuple[float, float]:
    """The x-free part of the log mGH density (gamma > 0) and its delta squared."""
    head, d2 = _log_mixing_norm(nu, delta, gamma)
    head -= 0.5 * p * math.log(2.0 * math.pi) + 0.5 * logdet_sigma
    return head, d2


def _mgh_log_pdf_core(
    nu: float, delta: float, gamma: float, m2: float, p: int, logdet_sigma: float
) -> float:
    """Log mGH density given the squared Mahalanobis distance m2."""
    if gamma == 0.0:
        # Student-type limit: density prop. to q^(2 nu - p)
        q2 = delta * delta + m2
        return (
            gammaln(p / 2.0 - nu)
            - gammaln(-nu)
            - 0.5 * p * math.log(math.pi)
            - 0.5 * logdet_sigma
            - 2.0 * nu * math.log(delta)
            + (nu - p / 2.0) * math.log(q2)
        )
    head, d2 = _mgh_log_norm(nu, delta, gamma, p, logdet_sigma)
    order = nu - p / 2.0
    q = math.sqrt(d2 + m2)
    if q == 0.0:
        if order <= 0.0:
            return math.inf  # density diverges at the location
        return head + math.log(0.5) + gammaln(order) + order * (math.log(2.0) - 2.0 * math.log(gamma))
    return head + order * (math.log(q) - math.log(gamma)) + log_bessel_k(order, gamma * q)


def gh_log_pdf(params: GhParams, x: float) -> float:
    """Log density of the univariate GH law at x."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    r = x - params.mu
    return _mgh_log_pdf_core(params.nu, params.delta, params.gamma, r * r, 1, 0.0)


def gh_log_norm(params: GhParams) -> tuple[float, float]:
    """The x-free part of :func:`gh_log_pdf` and the delta squared its q uses.

    For gamma > 0 and q = sqrt(d2 + (x - mu)^2) > 0, ``gh_log_pdf`` is
    ``head + (nu - 1/2) * (log q - log gamma) + log K_{nu-1/2}(gamma q)``
    with ``(head, d2) = gh_log_norm(params)``; d2 is 0 in the small-delta
    limit.  Callers that evaluate one law many times compute this once.
    """
    return _mgh_log_norm(params.nu, params.delta, params.gamma, 1, 0.0)


def gh_log_pdf_grad(params: GhParams, x: float) -> float:
    """d/dx of gh_log_pdf; used for stationarity checks of MAP estimates."""
    r = float(x) - params.mu
    nu, delta, gamma = params.nu, params.delta, params.gamma
    if gamma == 0.0:
        q2 = delta * delta + r * r
        return (2.0 * nu - 1.0) * r / q2
    d2 = 0.0 if (delta < _DELTA_LIMIT and nu > 0.0) else delta * delta
    q2 = d2 + r * r
    if q2 == 0.0:
        return 0.0
    q = math.sqrt(q2)
    a = nu - 0.5
    lk = log_bessel_k(a, gamma * q)
    dlogk = -0.5 * (
        math.exp(log_bessel_k(a - 1.0, gamma * q) - lk)
        + math.exp(log_bessel_k(a + 1.0, gamma * q) - lk)
    )
    return a * r / q2 + gamma * dlogk * r / q


def mgh_log_pdf(params: MghParams, x: NDArray[np.float64]) -> float:
    """Log density of the multivariate GH law at the vector x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != params.mu.shape:
        raise DomainError(f"x has dimension {x.shape[0]}, expected {params.dim}")
    r = x - params.mu
    m2 = float(r @ cho_solve((params._chol, True), r))
    return _mgh_log_pdf_core(
        params.nu, params.delta, params.gamma, m2, params.dim, params._logdet
    )


# ---------------------------------------------------------------------------
# GH / mGH sampling
# ---------------------------------------------------------------------------


def gh_sample(params: GhParams, rng: np.random.Generator, size=None):
    """Draws from the GH law by mixing: tau ~ GIG, x ~ N(mu, tau)."""
    tau = gig_rvs(params.nu, params.delta, params.gamma, rng, size=size or (1,))
    x = params.mu + np.sqrt(tau) * rng.standard_normal(np.shape(tau))
    if size is None:
        return float(x[0])
    return x


def mgh_sample(params: MghParams, rng: np.random.Generator) -> NDArray[np.float64]:
    """One draw from the mGH law: tau ~ GIG, x ~ N(mu, tau * sigma)."""
    tau = gig_sample(params.mixing, rng)
    z = rng.standard_normal(params.dim)
    return params.mu + math.sqrt(tau) * (params._chol @ z)
