"""Shared oracles for the test suite.

Everything here is deliberately independent of the code paths it checks:
densities are integrated numerically through scipy.integrate, never through
the package's own normalizers or samplers.  The package itself never
imports scipy.integrate, so these oracles live here rather than in
``dynsparse.special``.  Other oracles are earlier forms of package code that
later ones must reproduce exactly: the per-coefficient EM step, the
masked-round array and the ``math`` scalar Devroye GIG kernels, the SMC step's
weight and draw, and the per-window group-lasso solver.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve, cholesky

import dynsparse
from dynsparse import (
    ConvergenceError,
    DomainError,
    GigParams,
    NumericalError,
    conditional_gh,
    gh_log_pdf,
    gig_log_pdf,
    window_correlation,
)
from dynsparse.distributions import gh_log_pdf_grad, gig_moment
from dynsparse.prior import mahal_sq_batch


# Set in a new process, this switches numpy's AVX-512 (X86_V4) loops off.
# The x86 loops left round exp, expm1, log, log1p, cosh and sinh as
# ``math`` does, so the array and scalar Devroye kernels agree in bits there.
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def run_python(code, *args, env=None, cwd=None):
    """The stdout of ``python -c code *args`` run in ``cwd`` by a fresh
    interpreter, with the package and these helpers importable, BLAS on one
    thread and the variables of ``env`` set."""
    path = [str(Path(dynsparse.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    full = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")
    full.update(env or {})
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=full, cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


def _ieee(f, x):
    """``math``'s f at x, or the value float64 gives where ``math`` raises:
    an overflow gives inf (with x's sign for sinh), log of 0 and log1p of
    -1 give -inf, any other domain error gives nan."""
    try:
        return f(x)
    except OverflowError:
        return math.copysign(math.inf, x) if f is math.sinh else math.inf
    except ValueError:
        pole = {math.log: 0.0, math.log1p: -1.0}.get(f)
        return -math.inf if x == pole else math.nan


def _div(a, b):
    """a / b as float64 divides: a signed inf for a / 0, nan for 0 / 0."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0.0 or a != a:
            return math.nan
        return math.copysign(math.inf, a * math.copysign(1.0, b))


def _psi_one(x, alpha, lam):
    return -alpha * (_ieee(math.cosh, x) - 1.0) - lam * (_ieee(math.expm1, x) - x)


def _dpsi_one(x, alpha, lam):
    return -alpha * _ieee(math.sinh, x) - lam * _ieee(math.expm1, x)


def reference_devroye_gig_one(lam, omega, rng):
    """The scalar Devroye kernel on Python floats and ``math``, kept as a value and stream oracle.

    Every formula is the array kernel's, in its order, each transcendental
    function evaluated with ``math`` and every operation given float64's
    outcome where Python raises (``_ieee``, ``_div``); the probe points
    +-1 are evaluated in place.  U, V and W come from three
    ``rng.random()`` calls per round.  Its errors carry the library's
    types and messages.
    """
    lam = float(lam)
    omega = float(omega)
    if not (omega > 0.0 and math.isfinite(omega) and math.isfinite(lam)):
        raise DomainError("Devroye GIG sampler needs finite lam and omega > 0")
    omega_max = math.sqrt(sys.float_info.max)
    if omega > omega_max:
        raise DomainError(
            f"Devroye GIG sampler needs omega <= {omega_max!r} (omega * omega overflows), "
            f"got omega={omega!r}"
        )

    swap = lam < 0.0
    lam = abs(lam)
    alpha = math.sqrt(omega * omega + lam * lam) - lam
    if alpha == math.inf:
        raise DomainError(
            f"Devroye GIG sampler needs omega * omega + lam * lam <= {sys.float_info.max!r} "
            f"(it overflows), got |lam|={lam!r}, omega={omega!r}"
        )

    x0 = -_psi_one(1.0, alpha, lam)
    t = math.sqrt(_div(2.0, alpha + lam)) if x0 > 2.0 else 1.0
    if x0 < 0.5:
        t = _ieee(math.log, _div(4.0, alpha + 2.0 * lam))
    x1 = -_psi_one(-1.0, alpha, lam)
    s = math.sqrt(_div(4.0, alpha * math.cosh(1.0) + lam)) if x1 > 2.0 else 1.0
    if x1 < 0.5:
        w = _div(1.0, alpha) + math.sqrt(_div(1.0, alpha * alpha) + _div(2.0, alpha))
        s = min(_div(1.0, lam), _ieee(math.log1p, w))

    eta = -_psi_one(t, alpha, lam)
    zeta = -_dpsi_one(t, alpha, lam)
    theta = -_psi_one(-s, alpha, lam)
    xi = _dpsi_one(-s, alpha, lam)
    p = _div(1.0, xi)
    r = _div(1.0, zeta)
    td = t - r * eta
    sd = s - p * theta
    q = td + sd

    for _ in range(1000):
        U = rng.random()
        V = rng.random()
        W = rng.random()
        u = U * (q + p + r)
        logV = _ieee(math.log, V)
        if u < q:
            x = -sd + q * V
        elif u < q + r:
            x = td + r * (-logV)
        else:
            x = -sd + p * logV
        psix = _psi_one(x, alpha, lam)
        if x > td:
            logchi = -eta - zeta * (x - t)
        elif x < -sd:
            logchi = -theta + xi * (x + s)
        else:
            logchi = 0.0
        if _ieee(math.log, W) + logchi <= psix:
            break
    else:
        raise NumericalError("GIG rejection sampler exceeded its round budget")

    ratio = lam / omega
    z = _ieee(math.exp, x) * (ratio + math.sqrt(1.0 + ratio * ratio))
    return _div(1.0, z) if swap else z


def _reference_gig_interior(nu, delta, gamma, rng):
    """GIG draws with delta, gamma > 0 as ``gig_rvs`` routes them: one
    element to the scalar kernel, more to the masked-round array kernel."""
    nu, delta, gamma = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (nu, delta, gamma))
    )
    assert np.all(delta > 0.0) and np.all(gamma > 0.0), "interior laws only"
    if delta.size == 1:
        d, g = delta.flat[0], gamma.flat[0]
        return np.full(delta.shape, (d / g) * reference_devroye_gig_one(nu.flat[0], d * g, rng))
    return (delta / gamma) * reference_devroye_gig(nu, delta * gamma, rng)


def reference_weight_and_propose(y, X, m, tau, sigma2, rng):
    """The SMC step's weight and draw with every sum over an empty range kept,
    as a stream oracle: the same arithmetic, plus subtractions of 0.0.

    Its Cholesky factor of the p x p posterior precision is built column by
    column over all particles (particle axis last), with the forward solve in
    the same pass; U and the normal draws are taken as the library takes them.
    """
    N, p = tau.shape
    n = y.shape[0]
    r = y[None, :] - m @ X.T
    G = X.T @ X / sigma2
    rhs = (r @ X / sigma2).T
    chol = np.zeros((p, p, N))
    u = np.empty((p, N))
    for j in range(p):
        done = chol[j, :j]
        pivot = G[j, j] + 1.0 / tau[:, j] - (done * done).sum(axis=0)
        if not (pivot > 0.0).all():
            raise NumericalError(
                f"posterior precision not positive definite: pivot {j + 1} is {pivot.min()}"
            )
        chol[j, j] = np.sqrt(pivot)
        below = np.einsum("ikn,kn->in", chol[j + 1 :, :j], done)
        chol[j + 1 :, j] = (G[j + 1 :, j, None] - below) / chol[j, j]
        u[j] = (rhs[j] - np.einsum("kn,kn->n", done, u[:j])) / chol[j, j]
    bw = np.empty((2, p, N))
    bw[1] = rng.standard_normal((N, p)).T
    bw[0] = u
    for i in range(p - 1, -1, -1):
        bw[:, i] -= np.einsum("kn,ckn->cn", chol[i + 1 :, i], bw[:, i + 1 :])
        bw[:, i] /= chol[i, i]
    b, w = bw[0].T, bw[1].T
    e = r - b @ X.T
    with np.errstate(over="ignore"):
        quad_form = (e * e).sum(axis=1) / sigma2 + (b * b / tau).sum(axis=1)
    logdet = n * np.log(sigma2) + np.log(tau).sum(axis=1)
    logdet += 2.0 * np.log(np.diagonal(chol)).sum(axis=1)
    return -0.5 * (n * float(np.log(2.0 * np.pi)) + logdet + quad_form), m + b + w


def reference_simulate_path(config, T, rng, d_path=None):
    """``simulate_path`` as a plain loop over the reference kernels, kept as an oracle.

    Interior mixing laws only (delta > 0 and gamma > 0).  The rows are
    drawn one after another, each a whole path on one-row numpy arrays.
    The window norm squares the interior values a second time and sums
    with ``.sum``; the start block and the first rho-mode value mix their
    Gaussians as ``mgh_sample`` and ``gh_sample`` do.
    """
    alpha = config.alpha
    beta = np.empty((config.p, T))
    sa = math.sqrt(1.0 - alpha**2)
    for j in range(config.p):
        row = beta[j : j + 1]
        if config.fixed_d:
            start = min(config.d, T)
            chol = cholesky(window_correlation(start, alpha), lower=True)
            tau = _reference_gig_interior(config.nu, config.delta, config.gamma, rng)[()]
            row[0, :start] = np.zeros(start) + math.sqrt(tau) * (chol @ rng.standard_normal(start))
            lengths = [config.d] * T
        else:
            tau = _reference_gig_interior(config.nu, config.delta, config.gamma, rng)
            row[0, 0] = float((0.0 + np.sqrt(tau) * rng.standard_normal((1,)))[0])
            start = 1
            lengths = list(d_path)
        for t in range(start, T):
            dt = lengths[t]
            x = row[:, t - dt : t]
            if dt == 1:
                msq = x[:, 0] ** 2
            else:
                total = (x * x).sum(axis=-1)
                inner = (x[:, 1:-1] ** 2).sum(axis=-1)
                cross = (x[:, :-1] * x[:, 1:]).sum(axis=-1)
                msq = (total + alpha**2 * inner - 2.0 * alpha * cross) / (1.0 - alpha**2)
            s2 = config.delta**2 + msq
            tau = _reference_gig_interior(config.nu - dt / 2.0, np.sqrt(s2), config.gamma, rng)
            row[:, t] = alpha * row[:, t - 1] + sa * np.sqrt(tau) * rng.standard_normal(1)
    return beta


_NEWTON_MAX_ITER = 500


def reference_group_magnitude(lam, c, gamma):
    """Scalar Newton root of sum_i c_i^2 / (lam_i t + gamma)^2 = 1, in plain floats."""
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
        if f >= f_prev:
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


def _reference_kkt_residual(Rt, U, phi, gamma):
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


def reference_solve_window(data, alpha, gamma, sigma2, tol=1e-8, max_iter=10_000):
    """The one-window block coordinate descent that ``run_sliding_window`` batches.

    The window spans all of ``data``.  Kept as an oracle: the batched
    sweeps must give the same beta, objective trace and sweep count bit for
    bit.  Group magnitudes come from a scalar Newton iteration in plain
    floats, one window and one group at a time.  The window's y'y is summed
    left to right, as ``sum`` does before Python 3.12.
    """
    p, width = data.p, data.T
    s2 = sigma2
    G = np.stack([X.T @ X for X in data.Xs], axis=2)  # p x p x width
    b = np.stack([X.T @ y for X, y in zip(data.Xs, data.ys)], axis=1)
    yy = 0.0
    for y in data.ys:
        yy += float(y @ y)
    L = np.linalg.cholesky(window_correlation(width, alpha))

    diag = G[np.arange(p), np.arange(p)]  # p x width
    lam, Q = np.linalg.eigh(np.einsum("sa,js,sb->jab", L, diag, L) / s2)
    lam = np.maximum(lam, 0.0)
    R = L @ Q
    Rt = np.ascontiguousarray(np.swapaxes(R, 1, 2)) / s2

    phi = np.zeros((p, width))
    active = [False] * p
    U = b.copy()
    trace = [0.5 * yy / s2]
    kkt = _reference_kkt_residual(Rt, U, phi, gamma)
    for _ in range(max_iter):
        for j in range(p):
            c = Rt[j] @ U[j]
            if active[j]:
                c += lam[j] * phi[j]
            if math.sqrt(float(c @ c)) <= gamma:
                if not active[j]:
                    continue
                new = np.zeros(width)
                active[j] = False
            else:
                t = reference_group_magnitude(lam[j], c, gamma)
                new = c * t / (lam[j] * t + gamma)
                active[j] = True
            U -= G[j] * (R[j] @ (new - phi[j]))
            phi[j] = new
        beta = np.einsum("jsw,jw->js", R, phi)
        fit = 0.5 * (yy - float(np.sum(beta * (b + U)))) / s2
        trace.append(fit + gamma * float(np.sum(np.linalg.norm(phi, axis=1))))
        kkt = _reference_kkt_residual(Rt, U, phi, gamma)
        if kkt < tol:
            break
    else:
        raise ConvergenceError(
            f"group lasso window did not reach KKT residual {tol} in "
            f"{max_iter} sweeps (residual {kkt:.3e})"
        )
    return beta, np.asarray(trace)
