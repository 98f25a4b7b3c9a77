"""GIG, univariate GH and multivariate GH laws.

Every rule of the GIG law is stated here once: the region rule
(``validate_gig_region``), the normalizing constant, the density, the
moments and the sampler; ``special`` supplies only log K.

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
Only three Python floats in the interior (finite nu, 0 < delta, gamma
< inf) take the scalar kernel, before any numpy call; it serves ordinary
parameters only, and for one element both kernels take the same
uniforms.  The scalar kernel evaluates its functions with ``math``, so
the prior paths that draw through it (every ``simulate`` and ``acf``
path but a fixed d = 0 one, drawn as one batch) do not depend on numpy's
CPU dispatch; it has the array kernel's bits where numpy's loops round
as ``math`` does, which its AVX-512 loops do not.  Every other draw
takes ``gig_rvs``'s array route, which checks the whole batch by
``validate_gig_region``'s rule before any draw: parameters outside it
raise one ``DomainError`` and leave the generator as it was.  A batch
that is all interior goes to the array kernel whole, with no boundary
masks.

At the SMC's batch sizes (about 10^3) the array kernel's cost is the
fixed cost of its numpy calls, not the work per element, so it makes few
of them: the terms of psi at +-1 come from constants formed at import,
psi and psi' at the cut points share one expm1, the fifteen per-element
constants of a round are written in place into one buffer, and a round
evaluates each pair of like formulas (the two exponential pieces of the
proposal, the two tails of the hat) as one product over two rows.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, NumericalError
from .special import bind_on_first_call, log_bessel_k

__all__ = [
    "validate_gig_region",
    "log_gig_normalizer",
    "GigParams",
    "GhParams",
    "MghParams",
    "gig_log_pdf",
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


def _probe_terms(cosh, expm1) -> tuple[float, ...]:
    """cosh(1), then the terms of psi at the probe points x = 1 and x = -1:
    cosh(x) - 1 and expm1(x) - x."""
    cosh1 = float(cosh(1.0))
    return (
        cosh1, cosh1 - 1.0, float(expm1(1.0)) - 1.0,
        float(cosh(-1.0)) - 1.0, float(expm1(-1.0)) - -1.0,
    )


# Each Devroye kernel forms its probe-point constants once, with the
# functions it evaluates psi with: the array kernel with numpy's (whose
# loops, and so whose last bits, numpy picks per host) and the scalar
# kernel with math's, so the two agree bit for bit wherever numpy's loops
# round as math does.
_COSH1, _COSH_P1, _EXPM1_P1, _COSH_M1, _EXPM1_M1 = _probe_terms(np.cosh, np.expm1)
_PROBE_ONE = _probe_terms(math.cosh, math.expm1)

# scipy loads on the first call of each (see dynsparse.special)
cholesky = bind_on_first_call(globals(), "scipy.linalg", "cholesky")
cho_solve = bind_on_first_call(globals(), "scipy.linalg", "cho_solve")
gammaln = bind_on_first_call(globals(), "scipy.special", "gammaln")


def validate_gig_region(nu: float, delta: float, gamma: float) -> None:
    """Raise DomainError unless (nu, delta, gamma) lies in the GIG region."""
    if not (math.isfinite(nu) and math.isfinite(delta) and math.isfinite(gamma)):
        raise DomainError(f"non-finite GIG parameters ({nu}, {delta}, {gamma})")
    if delta < 0.0 or gamma < 0.0:
        raise DomainError(f"delta and gamma must be nonnegative, got ({delta}, {gamma})")
    if delta == 0.0 and gamma == 0.0:
        raise DomainError("delta and gamma cannot both be zero")
    if delta == 0.0 and nu <= 0.0:
        raise DomainError(f"delta = 0 requires nu > 0, got nu={nu}")
    if gamma == 0.0 and nu >= 0.0:
        raise DomainError(f"gamma = 0 requires nu < 0, got nu={nu}")


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


def log_gig_normalizer(nu: float, delta: float, gamma: float) -> float:
    """Log normalizing constant of the GIG(nu, delta, gamma) density.

    The density is ``C * x^(nu-1) * exp(-(delta^2/x + gamma^2 x)/2)`` on
    (0, inf); this returns log C.  The boundaries delta = 0 (gamma limit)
    and gamma = 0 (inverse-gamma limit) are explicit branches.
    """
    validate_gig_region(nu, delta, gamma)
    if delta == 0.0:
        # gamma(shape=nu, rate=gamma^2/2)
        return nu * math.log(gamma * gamma / 2.0) - gammaln(nu)
    if gamma == 0.0:
        # inverse-gamma(shape=-nu, scale=delta^2/2)
        return -nu * math.log(delta * delta / 2.0) - gammaln(-nu)
    return (
        nu * (math.log(gamma) - math.log(delta))
        - math.log(2.0)
        - log_bessel_k(nu, delta * gamma)
    )


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
    if not isinstance(power, numbers.Integral):
        raise DomainError(f"gig_moment needs an integer power, got {power!r}")
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


def _devroye_gig(lam, omega, rng: np.random.Generator) -> NDArray[np.float64]:
    """Draws from pdf prop. to z^(lam-1) exp(-omega (z + 1/z)/2), elementwise.

    lam may be any real, omega must be > 0.  Rejection constant is uniformly
    bounded, so the loop terminates in a handful of rounds.  Each round takes
    U, V, W for the elements still pending from one ``rng.random((3, n))``
    call; the first round runs on the full arrays, and each later one on the
    per-element constants compacted to the rejected elements.  After the
    argument checks, one errstate silences divide, overflow and invalid:
    an inf or NaN constant or proposal is left to the acceptance test.
    """
    lam, omega = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(omega, dtype=float))
    shape = lam.shape
    lam, omega = lam.ravel(), omega.ravel()
    top = omega.max(initial=0.0)
    if not (omega.min(initial=1.0) > 0.0 and math.isfinite(top) and np.isfinite(lam).all()):
        raise DomainError("Devroye GIG sampler needs finite lam and omega > 0")
    if top > _OMEGA_MAX:
        raise DomainError(
            f"Devroye GIG sampler needs omega <= {_OMEGA_MAX!r} (omega * omega overflows), "
            f"got omega={float(top)!r}"
        )

    # The per-element constants of a round, each row written in place once.
    # With eta = -psi(t), zeta = -psi'(t), theta = -psi(-s) and xi = psi'(-s),
    # r = 1 / zeta, p = 1 / xi, td = t - r eta, sd = s - p theta, q = td + sd:
    # (tot, qr, q) = (q + p + r, q + r, q), then the pairs (td, -sd),
    # (-r, p), (t, -s), (-eta, -theta) = psi(t, -s) and (-zeta, xi) = psi'(t, -s),
    # then -alpha and |lam|.  Negating an operand or a result is exact, so
    # each constant has the bits of its formula (-sd up to the sign of a
    # zero, which only sums and comparisons see); a round evaluates each
    # pair of formulas as one product.
    consts = np.empty((15, lam.size))
    tot, qr, q, td, msd, mr, p, t, ms = consts[:9]
    malpha, lam_ = consts[13:]
    swap = lam < 0.0
    lam = np.abs(lam, out=lam_)
    alpha = np.sqrt(omega**2 + lam**2) - lam
    # finite lam and omega leave alpha finite, or +inf where the sum overflows
    if alpha.max(initial=0.0) == math.inf:
        i = int(np.argmax(alpha))
        raise DomainError(
            f"Devroye GIG sampler needs omega * omega + lam * lam <= {sys.float_info.max!r} "
            f"(it overflows), got |lam|={float(lam[i])!r}, omega={float(omega[i])!r}"
        )

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # right cut point t, from -psi(1) = -(-a - b) = a + b
        x0 = alpha * _COSH_P1 + lam * _EXPM1_P1
        t[:] = np.where(x0 > 2.0, np.sqrt(2.0 / (alpha + lam)), 1.0)
        np.copyto(t, np.log(4.0 / (alpha + 2.0 * lam)), where=x0 < 0.5)
        # left cut point s, from -psi(-1)
        x1 = alpha * _COSH_M1 + lam * _EXPM1_M1
        s = np.where(x1 > 2.0, np.sqrt(4.0 / (alpha * _COSH1 + lam)), 1.0)
        cand = np.minimum(1.0 / lam, np.log1p(1.0 / alpha + np.sqrt(1.0 / alpha**2 + 2.0 / alpha)))
        np.copyto(s, cand, where=x1 < 0.5)
        np.negative(s, out=ms)

        # psi and psi' at both cut points, sharing one expm1
        np.negative(alpha, out=malpha)
        cuts, psi, dpsi = consts[7:9], consts[9:11], consts[11:13]
        e = np.expm1(cuts)
        ch = np.cosh(cuts)
        ch -= 1.0
        np.multiply(malpha, ch, out=psi)
        psi -= lam * (e - cuts)
        np.multiply(malpha, np.sinh(cuts), out=dpsi)
        e *= lam
        dpsi -= e
        # (-r, p) = 1 / psi'(t, -s), then (td, -sd) = (t, -s) - (-r, p) psi(t, -s)
        recip, ends = consts[5:7], consts[3:5]
        np.divide(1.0, dpsi, out=recip)
        np.multiply(recip, psi, out=ends)
        np.subtract(cuts, ends, out=ends)
        np.subtract(td, msd, out=q)
        np.subtract(q, mr, out=qr)
        np.add(q, p, out=tot)
        tot -= mr
        ratio = lam / omega
        mode = ratio + np.sqrt(1.0 + ratio**2)

        out = np.empty_like(lam)
        pending = np.arange(lam.size)
        for _ in range(1000):
            if pending.size == 0:
                break
            tot, qr, q, td, msd = consts[:5]
            malpha, lam = consts[13:]
            U, V, W = uvw = rng.random((3, pending.size))
            u = U * tot
            logV, logW = np.log(uvw[1:])
            # the exponential pieces td - r log V and -sd + p log V
            tails = consts[3:5] + consts[5:7] * logV
            x = np.where(u < q, msd + q * V, np.where(u < qr, tails[0], tails[1]))
            # the hat's tails -eta - zeta (x - t) and -theta + xi (x + s)
            hats = consts[9:11] + consts[11:13] * (x - consts[7:9])
            logchi = np.where(x > td, hats[0], np.where(x < msd, hats[1], 0.0))
            psi = np.cosh(x)
            psi -= 1.0
            psi *= malpha
            accept = logW + logchi <= psi - lam * (np.expm1(x) - x)
            out[pending] = x  # a rejected element's x is overwritten in a later round
            keep = np.flatnonzero(~accept)
            pending, consts = pending[keep], consts.take(keep, axis=1)
        else:
            raise NumericalError("GIG rejection sampler exceeded its round budget")

        z = np.exp(out)
        z *= mode
        np.divide(1.0, z, out=z, where=swap)
    return z.reshape(shape)


def _devroye_gig_one(lam, omega, rng: np.random.Generator) -> float:
    """One draw of :func:`_devroye_gig`, without its array bookkeeping.

    The same formulas in the same order, on Python floats, with ``math``'s
    cosh, sinh, expm1, exp, log and log1p, so a draw does not depend on
    numpy's CPU dispatch.  +, -, *, / and the square root round as
    numpy's float64 does; where numpy's loops for the others round as
    ``math`` does (its baseline and AVX2 loops on x86), the draw has the
    array kernel's bits and leaves the generator where it does.  numpy's
    AVX-512 loops differ from ``math`` in the last bit on many inputs, so
    on such hosts the two kernels agree in law.  The probe-point terms are
    formed once with ``math`` (``_PROBE_ONE``), and each cut point shares
    one expm1 between psi and psi'.
    Only ordinary parameters are drawn here (0 < omega <= _OMEGA_MAX and
    alpha^2 > 0, so no division in the setup meets a zero and the cut
    points stay below 374); every other input goes to the array kernel
    before a uniform is taken.  Where float64 gives inf and Python raises
    (1/lam at lam = 0, log 0, cosh, expm1 and exp past ~710, the final
    1/z at z = 0), the inf is written out.  Each round takes U, V, W as
    the array kernel does at n = 1.
    """
    lam = float(lam)
    omega = float(omega)
    alpha = math.sqrt(omega * omega + lam * lam) - abs(lam)
    if not (0.0 < omega <= _OMEGA_MAX and 0.0 < alpha * alpha < math.inf):
        return float(_devroye_gig(np.array([lam]), omega, rng)[0])
    cosh, sinh, expm1, log = math.cosh, math.sinh, math.expm1, math.log
    cosh1, cosh_p1, expm1_p1, cosh_m1, expm1_m1 = _PROBE_ONE

    swap = lam < 0.0
    lam = abs(lam)

    # right cut point t, from x0 = -psi(1)
    x0 = -(-alpha * cosh_p1 - lam * expm1_p1)
    if x0 < 0.5:
        t = log(4.0 / (alpha + 2.0 * lam))
    elif x0 > 2.0:
        t = math.sqrt(2.0 / (alpha + lam))
    else:
        t = 1.0
    # left cut point s, from x1 = -psi(-1)
    x1 = -(-alpha * cosh_m1 - lam * expm1_m1)
    if x1 < 0.5:
        w = 1.0 / alpha + math.sqrt(1.0 / (alpha * alpha) + 2.0 / alpha)
        s = min(1.0 / lam if lam else math.inf, math.log1p(w))
    elif x1 > 2.0:
        s = math.sqrt(4.0 / (alpha * cosh1 + lam))
    else:
        s = 1.0

    # eta = -psi(t), zeta = -psi'(t), theta = -psi(-s), xi = psi'(-s)
    e = expm1(t)
    eta = -(-alpha * (cosh(t) - 1.0) - lam * (e - t))
    zeta = -(-alpha * sinh(t) - lam * e)
    e = expm1(-s)
    theta = -(-alpha * (cosh(-s) - 1.0) - lam * (e - -s))
    xi = -alpha * sinh(-s) - lam * e
    p = 1.0 / xi
    r = 1.0 / zeta
    td = t - r * eta
    msd = -(s - p * theta)
    q = td - msd
    qr = q + r
    tot = q + p + r

    for _ in range(1000):
        U, V, W = rng.random(3).tolist()
        u = U * tot
        if u < q:
            x = msd + q * V
        else:
            try:
                logV = log(V)
            except ValueError:  # V = 0
                logV = -math.inf
            x = td - r * logV if u < qr else msd + p * logV
        try:
            psix = -alpha * (cosh(x) - 1.0) - lam * (expm1(x) - x)
        except OverflowError:  # |x| > ~710: cosh(x) = inf, and expm1(x) = inf for x > 0
            psix = -alpha * (math.inf - 1.0) - lam * ((math.inf if x > 0.0 else -1.0) - x)
        if x > td:
            logchi = -eta - zeta * (x - t)
        elif x < msd:
            logchi = -theta + xi * (x + s)
        else:
            logchi = 0.0
        try:
            logW = log(W)
        except ValueError:  # W = 0
            logW = -math.inf
        if logW + logchi <= psix:
            break
    else:
        raise NumericalError("GIG rejection sampler exceeded its round budget")

    ratio = lam / omega
    try:
        z = math.exp(x) * (ratio + math.sqrt(1.0 + ratio * ratio))
    except OverflowError:  # x > ~710
        z = math.inf
    if swap:
        return 1.0 / z if z else math.inf
    return z


def gig_rvs(nu, delta, gamma, rng: np.random.Generator, size=None) -> NDArray[np.float64]:
    """Vectorized GIG draws with elementwise parameters.

    Three Python floats with finite nu and 0 < delta, gamma < inf, and no
    ``size``, take the scalar kernel before any numpy call: one float,
    from the uniforms the array kernel would take, with its value wherever
    numpy's loops round as ``math`` does.  Everything else
    takes the array route.  There, before any draw, the broadcast batch
    is checked against the GIG region; its first bad element raises
    :func:`validate_gig_region`'s ``DomainError``.  Boundary parameters
    (delta = 0 or gamma = 0) go to exact gamma / inverse-gamma samplers
    elementwise.  A batch whose every element is interior (finite nu,
    0 < delta, gamma < inf) passes the region check by that test alone
    and is drawn whole; a mixed batch draws its gamma = 0, then its
    delta = 0, then its interior elements.
    """
    if (
        size is None and isinstance(nu, float) and isinstance(delta, float)
        and isinstance(gamma, float) and 0.0 < delta < math.inf and 0.0 < gamma < math.inf
        and math.isfinite(nu)
    ):
        return (delta / gamma) * _devroye_gig_one(nu, delta * gamma, rng)
    nu = np.asarray(nu, dtype=float)
    delta = np.asarray(delta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    shape = np.broadcast(nu, delta, gamma).shape
    if size is not None:
        shape = np.broadcast_shapes(shape, tuple(np.atleast_1d(size)))
    # an all-interior batch is valid, and the array kernel draws it whole
    interior = (
        np.isfinite(nu) & (0.0 < delta) & (delta < math.inf) & (0.0 < gamma) & (gamma < math.inf)
    )
    if interior.all():
        return (delta / gamma) * _devroye_gig(nu, np.broadcast_to(delta * gamma, shape), rng)
    nu = np.broadcast_to(nu, shape)
    delta = np.broadcast_to(delta, shape)
    gamma = np.broadcast_to(gamma, shape)
    # validate_gig_region's rule, elementwise
    valid = (
        np.isfinite(nu) & (0.0 <= delta) & (delta < math.inf) & (0.0 <= gamma) & (gamma < math.inf)
        & ((delta > 0.0) | (nu > 0.0)) & ((gamma > 0.0) | (nu < 0.0))
    )
    if not valid.all():
        i = int(np.argmin(valid))
        validate_gig_region(float(nu.flat[i]), float(delta.flat[i]), float(gamma.flat[i]))
    out = np.empty(shape, dtype=float)
    g0 = gamma == 0.0
    d0 = delta == 0.0
    interior = ~(g0 | d0)
    if g0.any():
        out[g0] = (delta[g0] ** 2 / 2.0) / rng.gamma(-nu[g0], 1.0)
    if d0.any():
        out[d0] = rng.gamma(nu[d0], 2.0 / gamma[d0] ** 2)
    if interior.any():
        out[interior] = (delta[interior] / gamma[interior]) * _devroye_gig(
            nu[interior], delta[interior] * gamma[interior], rng
        )
    return float(out) if shape == () else out


# ---------------------------------------------------------------------------
# GH / mGH log densities
# ---------------------------------------------------------------------------


def _in_delta_limit(nu: float, delta: float) -> bool:
    """Whether the GH density takes delta as 0 (its small-delta limit), delta^2 included."""
    return delta < _DELTA_LIMIT and nu > 0.0


def _mgh_log_norm(
    nu: float, delta: float, gamma: float, p: int, logdet_sigma: float
) -> tuple[float, float]:
    """The x-free part of the log mGH density (gamma > 0) and its delta squared.

    Delta squared is 0 in the small-delta limit, so callers drop a
    negligible delta from the Mahalanobis term consistently.
    """
    if _in_delta_limit(nu, delta):
        head = math.log(2.0) - gammaln(nu) + nu * math.log(gamma * gamma / 2.0)
        d2 = 0.0
    else:
        head = nu * (math.log(gamma) - math.log(delta)) - log_bessel_k(nu, delta * gamma)
        d2 = delta * delta
    return head - (0.5 * p * math.log(2.0 * math.pi) + 0.5 * logdet_sigma), d2


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
    Raises DomainError for a gamma = 0 law.
    """
    if params.gamma == 0.0:
        raise DomainError("gh_log_norm needs gamma > 0; gamma = 0 is the Student-type law")
    return _mgh_log_norm(params.nu, params.delta, params.gamma, 1, 0.0)


def gh_log_pdf_grad(params: GhParams, x: float) -> float:
    """d/dx of gh_log_pdf; used for stationarity checks of MAP estimates."""
    r = float(x) - params.mu
    nu, delta, gamma = params.nu, params.delta, params.gamma
    if gamma == 0.0:
        q2 = delta * delta + r * r
        return (2.0 * nu - 1.0) * r / q2
    d2 = 0.0 if _in_delta_limit(nu, delta) else delta * delta
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
    """Draws from the GH law by mixing: tau ~ GIG, x ~ N(mu, tau).

    ``size=None`` gives one float; any other size, ``0`` and ``()``
    included, an array of that shape.
    """
    tau = gig_rvs(params.nu, params.delta, params.gamma, rng, size=size)
    if size is None:
        x = math.sqrt(tau) * rng.standard_normal()
    else:
        x = np.sqrt(tau) * rng.standard_normal(np.shape(tau))
    if params.mu:  # adding a zero mu would turn a draw of -0.0 into 0.0
        x += params.mu
    return float(x) if size is None else x


def mgh_sample(params: MghParams, rng: np.random.Generator) -> NDArray[np.float64]:
    """One draw from the mGH law: tau ~ GIG, x ~ N(mu, tau * sigma)."""
    tau = gig_rvs(params.nu, params.delta, params.gamma, rng)
    z = rng.standard_normal(params.dim)
    return params.mu + math.sqrt(tau) * (params._chol @ z)
