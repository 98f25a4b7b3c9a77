"""Shared quadrature oracles for the test suite.

Everything here is deliberately independent of the code paths it checks:
densities are integrated numerically through scipy.integrate, never through
the package's own normalizers or samplers.  The package itself never
imports scipy.integrate, so these oracles live here rather than in
``dynsparse.special``.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve

from dynsparse import GigParams, NumericalError, conditional_gh, gh_log_pdf, gig_log_pdf
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

    One ``gig_moment`` per coefficient in the E-step, one ``gh_log_pdf`` and
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
            break
    return beta, np.asarray(trace)
