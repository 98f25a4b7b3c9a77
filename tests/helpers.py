"""Shared oracles for the test suite.

Everything here is deliberately independent of the code paths it checks:
densities are integrated numerically through scipy.integrate, never through
the package's own normalizers or samplers.  The package itself never
imports scipy.integrate, so these oracles live here rather than in
``dynsparse.special``.  Two oracles are earlier forms of package code that
later ones must reproduce exactly: the per-coefficient EM step and the
masked-round Devroye GIG kernel.
"""

import math
import sys

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve

from dynsparse import (
    DomainError,
    GigParams,
    NumericalError,
    conditional_gh,
    gh_log_pdf,
    gig_log_pdf,
)
from dynsparse.distributions import gh_log_pdf_grad, gig_moment
from dynsparse.prior import mahal_sq_batch


def gig_unnormalized(nu, delta, gamma):
    """Unnormalized GIG density as a plain closure."""

    def f(x):
        if x <= 0.0:
            return 0.0
        return x ** (nu - 1.0) * math.exp(-0.5 * (delta**2 / x + gamma**2 * x))

    return f


def integrate_positive_halfline(f, rel_tol=1e-10):
    """Adaptive quadrature of f over (0, inf) to relative error rel_tol.

    The independent oracle behind normalization and moment tests.  Raises
    NumericalError when the error estimate cannot be brought under the
    target even after splitting the domain.
    """
    attempts = []

    def _try(points):
        total = 0.0
        err = 0.0
        edges = (0.0,) + points + (np.inf,)
        for lo, hi in zip(edges[:-1], edges[1:]):
            v, e = quad(f, lo, hi, epsabs=0.0, epsrel=rel_tol, limit=500)
            total += v
            err += e
        return total, err

    for points in ((), (1.0,), (1e-6, 1e-3, 1.0, 1e3), (1e-8, 1e-4, 1e-2, 1.0, 1e2, 1e4)):
        try:
            val, err = _try(points)
        except Exception:  # quad can raise on hopeless integrands
            continue
        if math.isfinite(val) and err <= 10.0 * rel_tol * max(abs(val), 1e-300):
            return val
        attempts.append((val, err))
    raise NumericalError(
        f"half-line quadrature did not converge to rel_tol={rel_tol}; attempts={attempts}"
    )


def normal_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def gh_pdf_by_mixture(params, x, rel_tol=1e-10):
    """GH density at x via quadrature over the mixing variable."""

    def f(tau):
        return normal_pdf(x, params.mu, tau) * math.exp(
            gig_log_pdf(params.mixing, tau)
        )

    val, _ = quad(f, 0.0, np.inf, epsabs=0.0, epsrel=rel_tol, limit=500)
    if val <= 0.0:
        # retry with domain splits for very peaked mixing laws
        val = sum(
            quad(f, lo, hi, epsabs=0.0, epsrel=rel_tol, limit=500)[0]
            for lo, hi in [(0.0, 1e-4), (1e-4, 1.0), (1.0, 1e4), (1e4, np.inf)]
        )
    return val


def gh_cdf_grid(params, xs, x_lo, x_hi, n_grid=20001):
    """GH cdf at the points xs via trapezoid integration of the pdf."""
    grid = np.linspace(x_lo, x_hi, n_grid)
    pdf = np.array([math.exp(gh_log_pdf(params, g)) for g in grid])
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    return np.interp(xs, grid, cdf)


def ks_statistic(samples, cdf_values):
    """Two-sided KS statistic of sorted samples against their model cdf values."""
    n = len(samples)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return max(np.max(np.abs(ecdf_hi - cdf_values)), np.max(np.abs(ecdf_lo - cdf_values)))


def reference_em_map_step(y, X, window, config, tol=1e-8, max_iter=100):
    """The per-coefficient EM step that ``em_map_step`` batches, kept as an oracle.

    Returns the maximizer, the objective trace and whether the stopping rule
    was met.  One ``gig_moment`` per coefficient in the E-step, one ``gh_log_pdf`` and
    ``gh_log_pdf_grad`` per coefficient in the objective and the gradient
    check, and ``cho_factor``/``cho_solve`` in the M-step.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    window = np.asarray(window, dtype=float)
    p = X.shape[1]
    d_eff = window.shape[1]
    priors = [conditional_gh(config, window[j]) for j in range(p)]
    locs = np.array([g.mu for g in priors])
    a2 = 1.0 if d_eff == 0 else 1.0 - config.alpha**2
    s2 = config.delta**2 + mahal_sq_batch(window, config.alpha)
    nu_e = (config.nu - d_eff / 2.0) - 0.5
    sig2 = config.sigma**2
    XtX = X.T @ X
    Xty = X.T @ y

    def objective(beta):
        resid = y - X @ beta
        ll = -0.5 * float(resid @ resid) / sig2
        return ll + sum(gh_log_pdf(priors[j], beta[j]) for j in range(p))

    def grad_norm(beta):
        g = (Xty - XtX @ beta) / sig2
        g = g + np.array([gh_log_pdf_grad(priors[j], beta[j]) for j in range(p)])
        return float(np.max(np.abs(g)))

    beta = locs.copy()
    trace = [objective(beta)]
    for _ in range(max_iter):
        resid2 = (beta - locs) ** 2 / a2
        w = np.empty(p)
        for j in range(p):
            dl = max(math.sqrt(s2[j] + resid2[j]), 1e-12)
            w[j] = gig_moment(GigParams(nu_e, dl, config.gamma), -1)
        A = XtX / sig2 + np.diag(w / a2)
        b = Xty / sig2 + (config.alpha / a2) * w * window[:, -1] if d_eff else Xty / sig2
        try:
            c, low = cho_factor(A)
            beta = cho_solve((c, low), b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular M-step system") from exc
        trace.append(objective(beta))
        rel = abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-1]))
        if rel < tol and grad_norm(beta) < 10.0 * tol:
            return beta, np.asarray(trace), True
    return beta, np.asarray(trace), False


def _psi(x, alpha, lam):
    return -alpha * (np.cosh(x) - 1.0) - lam * (np.expm1(x) - x)


def _dpsi(x, alpha, lam):
    return -alpha * np.sinh(x) - lam * np.expm1(x)


def reference_devroye_gig(lam, omega, rng):
    """The masked-round Devroye (2014) array kernel, kept as a stream oracle.

    Every round gathers the constants of the pending elements by index from
    the full arrays and takes U, V and W from three ``rng.random(n)`` calls.
    """
    lam = np.asarray(lam, dtype=float)
    omega = np.asarray(omega, dtype=float)
    shape = np.broadcast_shapes(lam.shape, omega.shape)
    lam = np.broadcast_to(lam, shape).ravel()
    omega = np.broadcast_to(omega, shape).ravel()
    if np.any(omega <= 0.0) or not np.all(np.isfinite(omega)) or not np.all(np.isfinite(lam)):
        raise DomainError("Devroye GIG sampler needs finite lam and omega > 0")
    if np.any(omega > math.sqrt(sys.float_info.max)):
        raise DomainError("omega * omega overflows")

    swap = lam < 0.0
    lam = np.abs(lam)
    alpha = np.sqrt(omega**2 + lam**2) - lam

    one = np.ones_like(lam)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x0 = -_psi(one, alpha, lam)
        t = np.where(x0 > 2.0, np.sqrt(2.0 / (alpha + lam)), one)
        t = np.where(x0 < 0.5, np.log(4.0 / (alpha + 2.0 * lam)), t)
        x1 = -_psi(-one, alpha, lam)
        s = np.where(x1 > 2.0, np.sqrt(4.0 / (alpha * np.cosh(1.0) + lam)), one)
        cand = np.minimum(
            1.0 / lam,
            np.log1p(1.0 / alpha + np.sqrt(1.0 / alpha**2 + 2.0 / alpha)),
        )
        s = np.where(x1 < 0.5, cand, s)

    eta = -_psi(t, alpha, lam)
    zeta = -_dpsi(t, alpha, lam)
    theta = -_psi(-s, alpha, lam)
    xi = _dpsi(-s, alpha, lam)
    p = 1.0 / xi
    r = 1.0 / zeta
    td = t - r * eta
    sd = s - p * theta
    q = td + sd

    out = np.empty_like(lam)
    active = np.ones(lam.shape, dtype=bool)
    for _ in range(1000):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        n = idx.size
        U = rng.random(n)
        V = rng.random(n)
        W = rng.random(n)
        qi, pi, ri = q[idx], p[idx], r[idx]
        tot = qi + pi + ri
        u = U * tot
        with np.errstate(divide="ignore"):
            logV = np.log(V)
        x = np.where(
            u < qi,
            -sd[idx] + qi * V,
            np.where(u < qi + ri, td[idx] + ri * (-logV), -sd[idx] + pi * logV),
        )
        ai, li = alpha[idx], lam[idx]
        psix = _psi(x, ai, li)
        logchi = np.where(
            x > td[idx],
            -eta[idx] - zeta[idx] * (x - t[idx]),
            np.where(x < -sd[idx], -theta[idx] + xi[idx] * (x + s[idx]), 0.0),
        )
        with np.errstate(divide="ignore"):
            accept = np.log(W) + logchi <= psix
        acc = idx[accept]
        out[acc] = x[accept]
        active[acc] = False
    else:
        raise NumericalError("GIG rejection sampler exceeded its round budget")

    mode = lam / omega + np.sqrt(1.0 + (lam / omega) ** 2)
    z = np.exp(out) * mode
    z = np.where(swap, 1.0 / z, z)
    return z.reshape(shape)
