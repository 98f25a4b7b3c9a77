"""Sliding-window group lasso with correlation-weighted group norms.

The alternative approximate-MAP route: over a window of d+1 consecutive
time steps the negative log posterior is a convex group-lasso objective,

    (1/2 sigma^2) sum_s ||y_s - X_s beta_s||^2
        + gamma sum_j sqrt(beta_j' Sigma^{-1} beta_j),

with one group per coefficient index j collecting its d+1 window values
and Sigma the AR(1) window correlation.  A Cholesky change of variables
beta_j = L theta_j turns every group norm into a plain Euclidean norm,
after which block coordinate descent with the exact group update applies.

The solver works in Gram space: the window enters only through
G_s = X_s'X_s, b_s = X_s'y_s and y_s'y_s, and the gradient through the
p x width residual U[:, s] = b_s - G_s beta_s, kept current after every
group step.  Each group is stored in the eigenbasis of its curvature
L' diag(G_s[j, j]) L / sigma^2, where the group magnitude is the root of
a scalar secular equation, solved by Newton's method (Qin, Scheinberg &
Goldfarb 2013, Math. Prog. Comp. 5:143).  Where ||c||^2 is not finite
the Newton start is NaN, and the group step fails before any Newton step
with the typed "no root" ``NumericalError`` that names the overflow; the
solve runs with numpy's overflow warnings off, so that error is all a
caller sees.

The windows of a fit are independent, so they are solved together.  The
per-step Gram data are built and checked once per fit, and the windows
are sliding views of them, fed in blocks of ``_WINDOW_BLOCK``.  Within a
block every group step and KKT check is one set of array calls over the
windows still live.  The group magnitude's Newton runs on arrays too
when many windows need it; when few do (the last windows of a block, or
a single window), it solves them one by one in Python floats, which is
cheaper than the fixed cost of the array calls.  A window leaves the
block once its KKT residual is below the tolerance, and every sum runs
in the same order as for one window alone, so each window gets the
sweeps and the bits it would get alone.

``run_sliding_window`` (every window of a series) and ``solve_window``
(the one window spanning all of its data) share one checked preparation,
``_window_gram``, and the same kernel.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .errors import ConvergenceError, DomainError, NumericalError
from .map_em import MapFit, RegressionData
from .prior import ModelConfig, window_correlation

__all__ = ["solve_window", "run_sliding_window"]

_NEWTON_MAX_ITER = 500  # a safety bound: bench windows take 4-9 Newton steps
_WINDOW_BLOCK = 128  # windows per kernel call: bounds working memory, not results
# Rows x width up to which the group magnitude is solved in Python floats.
# The array route has a fixed cost of ~150-250 us a call, the float route
# one that grows with rows x width.  Over the Newton calls of the benchmark's
# width-5 fits they broke even near 30 rows; in synthetic calls near
# rows x width = 100-150 for widths 2 to 100, and near 24 rows at width 1,
# where the per-row cost dominates.
_FLOAT_NEWTON_SIZE = 80


def _group_magnitude(
    lam: NDArray[np.float64], c: NDArray[np.float64], gamma: float
) -> tuple[NDArray[np.float64], dict[int, NumericalError]]:
    """Row-wise root t > 0 of f(t) = sum_i c_i^2 / (lam_i t + gamma)^2 - 1 by Newton.

    Valid on rows with ||c|| > gamma, lam >= 0 and max(lam) > 0.  f is
    convex and decreasing, so Newton started left of the root rises
    monotonically to it without overshoot; t0 = (||c|| - gamma) / max(lam)
    is such a start, since f(t0) >= ||c||^2 / (max(lam) t0 + gamma)^2 - 1 = 0.
    Every row stops by its own rule, and f and f' are summed left to right,
    so a row gets the bits it would get alone.  Returns ``(t, errors)``:
    ``errors`` maps each row without a root to its error, and its t is NaN.

    Up to ``_FLOAT_NEWTON_SIZE`` elements the rows are solved one by one in
    Python floats, else all at once in arrays.  Both routes run the same
    operations in the same order from the same start, so they agree bit
    for bit, errors included.  A row whose ||c||^2 is not finite (it
    overflows, or c holds a NaN or an inf) gets a NaN start: both routes
    mark it "no root" before any Newton step.
    """
    c2 = c * c
    norm2 = [_fsum(row) for row in c2.tolist()]
    t = (np.sqrt(norm2) - gamma) / lam.max(axis=1)
    newton = _newton_floats if c.size <= _FLOAT_NEWTON_SIZE else _newton_arrays
    t, f, bad = newton(lam, c2, t, gamma)
    # a stopped row keeps its t, so f and t are those it stopped at
    errors = {
        i: NumericalError("group magnitude: no root of the secular equation" + (
            f", since ||c||^2 overflows (max |c_i| = {np.abs(c[i]).max():.3e})"
            if math.isnan(norm2[i]) else f" (f = {f[i]:.3e} at t = {t[i]:.3e})"
        ))
        for i in bad
    }
    t[bad] = np.nan
    return t, errors


def _fsum(row: list[float]) -> float:
    """``math.fsum``, or NaN where the sum is not finite."""
    try:
        total = math.fsum(row)
    except OverflowError:  # finite terms whose sum is not
        return math.nan
    return total if math.isfinite(total) else math.nan


def _newton_floats(
    lam: NDArray[np.float64], c2: NDArray[np.float64], t0: NDArray[np.float64], gamma: float
) -> tuple[NDArray[np.float64], list[float], list[int]]:
    """:func:`_group_magnitude`'s Newton, one row at a time in Python floats.

    +, * and / round as numpy's float64 does, so each row gets the array
    route's bits.  On the valid rows lam_i t + gamma stays positive, so no
    division meets a zero (where Python would raise and numpy give inf).
    Returns each row's last t and f and the rows without a root.
    """
    ts, fs, bad = [], [], []
    for i, (lam_i, c2_i, t) in enumerate(zip(lam.tolist(), c2.tolist(), t0.tolist())):
        f, f_prev = math.nan, math.inf
        # a NaN start takes no step and so runs out of iterations: no root
        for _ in range(0 if math.isnan(t) else _NEWTON_MAX_ITER):
            f = -1.0
            df = 0.0
            for lk, c2k in zip(lam_i, c2_i):
                r = 1.0 / (lk * t + gamma)
                q = c2k * r * r
                f += q
                df += lk * q * r
            # past the root, or stalled: at it up to rounding, or f levels off above 0
            if f <= 0.0 or f >= f_prev or df == 0.0:
                if f >= 1e-12:
                    bad.append(i)
                break
            f_prev = f
            step = f / (2.0 * df)
            t += step
            if step <= 1e-15 * t:
                break
        else:
            bad.append(i)  # out of iterations
        ts.append(t)
        fs.append(f)
    return np.array(ts), fs, bad


def _newton_arrays(
    lam: NDArray[np.float64], c2: NDArray[np.float64], t: NDArray[np.float64], gamma: float
) -> tuple[NDArray[np.float64], NDArray[np.float64], list[int]]:
    """:func:`_group_magnitude`'s Newton on all rows at once, each by its own stop rule.

    Returns each row's last t and f and the rows without a root.
    """
    n = len(t)
    f_prev = np.full(n, np.inf)
    bad = np.isnan(t)  # no start: no root
    live = ~bad
    for _ in range(_NEWTON_MAX_ITER):
        r = 1.0 / (lam * t[:, None] + gamma)
        q = c2 * r * r
        df = np.add.accumulate(lam * q * r, axis=1)[:, -1]
        q[:, 0] -= 1.0  # f = ((-1 + q_0) + q_1) + ...
        f = np.add.accumulate(q, axis=1)[:, -1]
        # past the root, or stalled: at it up to rounding, or f levels off above 0
        stop = live & ((f <= 0.0) | (f >= f_prev) | (df == 0.0))
        bad |= stop & (f >= 1e-12)
        live &= ~stop
        f_prev = f
        step = np.divide(f, 2.0 * df, out=np.zeros(n), where=live)
        t += step
        live &= ~(step <= 1e-15 * t)
        if not np.count_nonzero(live):
            break
    bad |= live  # out of iterations
    return t, f, bad.nonzero()[0].tolist()


def _kkt_residual(
    Rt: NDArray[np.float64], U: NDArray[np.float64], phi: NDArray[np.float64], gamma: float
) -> NDArray[np.float64]:
    """Per window, the max over groups of the subgradient-condition violation.

    Gradients and coefficients are taken in each group's eigenbasis, an
    orthogonal change of coordinates, so the norms are those of theta.
    """
    grad = -np.einsum("kjws,kjs->kjw", Rt, U)
    nrm = np.linalg.norm(phi, axis=2)
    active = nrm > 0.0
    unit = phi / np.where(active, nrm, 1.0)[..., None]
    viol = np.where(
        active,
        np.linalg.norm(grad + gamma * unit, axis=2),
        np.linalg.norm(grad, axis=2) - gamma,
    )
    return np.maximum(viol.max(axis=1), 0.0)


# a group norm that overflows is the typed "no root" error of its window, so
# the overflow it passes through on the way (c'c, c * c, the norms) is silent
@np.errstate(over="ignore")
def _solve_windows(
    G: NDArray[np.float64], b: NDArray[np.float64], yy: NDArray[np.float64],
    L: NDArray[np.float64], gamma: float, sigma2: float, tol: float, max_iter: int,
) -> tuple[NDArray[np.float64], list[NDArray[np.float64]], tuple[int, Exception] | None]:
    """Block coordinate descent on every window of a run of steps at once.

    ``G``, ``b`` and ``yy`` are per-step Gram data (steps first) and ``L``
    the Cholesky factor of the width x width window correlation; window k
    covers steps k..k+width-1.  Each group step and KKT check is one set
    of array calls over the live windows.  A window leaves once its KKT
    residual is below ``tol``, so it runs the sweeps, and gets the bits,
    it would get alone.

    Returns ``(beta, traces, failure)``: ``beta`` is windows x p x width in
    the original coordinates, ``traces[k]`` the objective of window k
    before and after each sweep, and ``failure`` None or ``(k, error)`` for
    the earliest window that failed.
    """
    w = L.shape[0]
    Gw = sliding_window_view(G, w, axis=0)  # windows x p x p x width
    K, p = Gw.shape[:2]
    # group j of window k lives in the eigenbasis Q_kj of
    # L' diag(G_s[j, j]) L / sigma2; R_kj = L Q_kj maps its coordinates phi_kj
    # to beta_kj
    diag = Gw[:, np.arange(p), np.arange(p)]  # windows x p x width
    lam, Q = np.linalg.eigh(np.einsum("sa,kjs,sb->kjab", L, diag, L) / sigma2)
    lam = np.maximum(lam, 0.0)
    R = L @ Q
    Rt = np.ascontiguousarray(np.swapaxes(R, 2, 3)) / sigma2
    b = sliding_window_view(b, w, axis=0).copy()  # windows x p x width
    yy = np.add.accumulate(sliding_window_view(yy, w), axis=1)[:, -1]  # left to right

    ids = np.arange(K)  # the live windows; their state below is compacted
    phi = np.zeros((K, p, w))
    U = b.copy()  # Gram residuals b_s - G_s beta_s, one column per step
    active = np.zeros((K, p), dtype=bool)
    dead = np.zeros(K, dtype=bool)  # a group magnitude without a root
    beta_out = np.empty((K, p, w))
    traces = [[v] for v in (0.5 * yy / sigma2).tolist()]
    errors: dict[int, Exception] = {}
    for _ in range(max_iter):
        for j in range(p):
            # minus the fit gradient at phi_j = 0 (group j's own fit added back)
            c = (Rt[:, j] @ U[:, j, :, None])[..., 0]
            np.add(c, lam[:, j] * phi[:, j], out=c, where=active[:, j, None])
            big = ~(np.sqrt((c[:, None] @ c[..., None])[:, 0, 0]) <= gamma)
            move = big | active[:, j]
            new = np.zeros(c.shape)
            rows = big.nonzero()[0]
            if rows.size:
                lj, cj = lam[rows, j], c[rows]
                t, failed = _group_magnitude(lj, cj, gamma)
                new[rows] = cj * t[:, None] / (lj * t[:, None] + gamma)
                for i, exc in failed.items():
                    errors.setdefault(int(ids[rows[i]]), exc)
                    dead[rows[i]] = True
            active[:, j] = big
            mv = (move & ~dead).nonzero()[0]
            if mv.size:
                # G_s symmetric: Gw[k, j, l, s] = G_s[l, j]
                dbeta = (R[mv, j] @ (new[mv] - phi[mv, j])[..., None]).swapaxes(1, 2)
                U[mv] -= Gw[ids[mv], j] * dbeta
                phi[mv, j] = new[mv]
        beta = np.einsum("kjsw,kjw->kjs", R, phi)
        # ||y_s - X_s beta_s||^2 = y_s'y_s - beta_s'(b_s + U[:, s])
        fit = 0.5 * (yy - (beta * (b + U)).reshape(len(ids), -1).sum(axis=1)) / sigma2
        obj = fit + gamma * np.linalg.norm(phi, axis=2).sum(axis=1)
        for k, v in zip(ids.tolist(), obj.tolist()):
            traces[k].append(v)
        kkt = _kkt_residual(Rt, U, phi, gamma)
        done = kkt < tol
        beta_out[ids[done]] = beta[done]
        keep = ~(done | dead)
        if errors:
            keep &= ids < min(errors)  # a later window cannot be the one reported
        if not keep.all():
            ids, lam, R, Rt, b, yy, phi, U, active, dead, kkt = (
                a[keep] for a in (ids, lam, R, Rt, b, yy, phi, U, active, dead, kkt)
            )
            if not ids.size:
                break
    else:
        for k, res in zip(ids.tolist(), kkt.tolist()):
            errors.setdefault(
                k,
                ConvergenceError(
                    f"group lasso window did not reach KKT residual {tol} in "
                    f"{max_iter} sweeps (residual {res:.3e})"
                ),
            )
    failure = min(errors.items()) if errors else None
    return beta_out, [np.asarray(tr) for tr in traces], failure


def _window_gram(
    data: RegressionData, width: int, alpha: float, gamma: float, sigma2: float,
    tol: float, max_iter: int,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Check a fit's settings, then build its per-step Gram data.

    Returns X_t'X_t, X_t'y_t and y_t'y_t, stacked along a leading step
    axis, and the Cholesky factor of the width x width window correlation.
    """
    if not 0.0 < gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    if not 0.0 < sigma2 < math.inf:
        raise DomainError(f"sigma2 must be positive and finite, got {sigma2}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    L = np.linalg.cholesky(window_correlation(width, alpha))
    G = np.stack([X.T @ X for X in data.Xs])
    b = np.stack([X.T @ y for X, y in zip(data.Xs, data.ys)])
    yy = np.array([y @ y for y in data.ys])
    bad = ~(np.isfinite(G).all(axis=(1, 2)) & np.isfinite(b).all(axis=1) & np.isfinite(yy))
    if bad.any():
        t = int(np.argmax(bad)) + 1
        raise NumericalError(f"at time step t={t}: non-finite data or Gram products")
    return G, b, yy, L


def solve_window(
    data: RegressionData, alpha: float, gamma: float, sigma2: float,
    tol: float = 1e-8, max_iter: int = 10_000,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Block coordinate descent on the one window spanning all of ``data``.

    The window is T = ``data.T`` steps wide, with AR(1) correlation
    ``alpha``.  Returns ``(beta, objective_trace)`` where ``beta`` is
    p x T in the original (unwhitened) coordinates and ``objective_trace``
    holds the objective at the start (beta = 0) and then one value per
    sweep.  Stops when the KKT residual drops below ``tol``.
    """
    G, b, yy, L = _window_gram(data, data.T, alpha, gamma, sigma2, tol, max_iter)
    beta, traces, failure = _solve_windows(G, b, yy, L, gamma, sigma2, tol, max_iter)
    if failure is not None:
        raise failure[1]
    return beta[0], traces[0]


def run_sliding_window(
    data: RegressionData,
    config: ModelConfig,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    eps_sparse: float = 0.0,
) -> MapFit:
    """Per-time estimates from overlapping window solutions.

    For each t > d the window covering t-d..t is solved and its last
    column reported as beta_hat_t (a filter-style estimate); steps
    t <= d take their columns from the first full window.  With d = 0
    every step is an independent plain lasso.  Group-lasso zeros are
    exact, so the default support threshold ``eps_sparse`` is 0; it must
    be nonnegative and finite.
    """
    if not config.fixed_d:
        raise DomainError("sliding-window estimation requires fixed-d mode")
    if not 0.0 <= eps_sparse < math.inf:
        raise DomainError(f"eps_sparse must be nonnegative and finite, got {eps_sparse}")
    d = int(config.d)
    T, p = data.T, data.p
    if T <= d:
        raise DomainError(f"need T > d, got T={T}, d={d}")
    s2 = config.sigma ** 2
    G, b, yy, L = _window_gram(data, d + 1, config.alpha, config.gamma, s2, tol, max_iter)

    beta_hat = np.empty((p, T))
    iters = np.zeros(T, dtype=np.int64)
    traces: list[NDArray[np.float64]] = []
    for k0 in range(0, T - d, _WINDOW_BLOCK):
        steps = slice(k0, k0 + _WINDOW_BLOCK + d)
        sol, block_traces, failure = _solve_windows(
            G[steps], b[steps], yy[steps], L, config.gamma, s2, tol, max_iter
        )
        if failure is not None:
            k, exc = failure
            raise type(exc)(f"at time step t={k0 + k + d + 1}: {exc}") from exc
        beta_hat[:, k0 + d : k0 + d + len(sol)] = sol[:, :, -1].T
        if k0 == 0:
            beta_hat[:, :d] = sol[0, :, :d]
        iters[k0 + d : k0 + d + len(sol)] = [len(trace) - 1 for trace in block_traces]
        traces += block_traces
    return MapFit(
        beta_hat=beta_hat,
        em_iters=iters,
        objective_trace=traces,
        eps_sparse=eps_sparse,
        converged=np.ones(T, dtype=bool),  # a window that does not converge raises
    )
