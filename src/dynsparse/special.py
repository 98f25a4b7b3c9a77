"""The log of the modified Bessel function of the second kind.

Every density in the package is computed in log space on the primitive
``log K_a(z)``.  This module holds that function and nothing of the GIG
law built on it: the region rule, normalizing constant, density, moments
and sampler live in ``distributions``.  ``scipy.special.kve`` covers the
bulk of the domain in double precision; the extreme corner (tiny
argument together with a large order, where ``K_a(z)`` overflows a
double) falls back to arbitrary precision via mpmath, which is imported
on that branch only.  ``log_bessel_k_flat`` evaluates a flat batch of
(order, arg) pairs, its orders an array the caller builds once, in one
``kve`` call and gives the scalar function's bits; it is the only caller
of ``kve`` besides the scalar function.

No module of the package imports scipy's submodules at load time: each
of ``scipy.special`` and ``scipy.linalg`` takes about 0.3 s and 25 MB to
import, and only ``fit-map`` and fixed-d ``simulate`` call into them.
Their functions are bound through :func:`bind_on_first_call`, so
``scipy.special`` loads on the first ``kve`` (here) or ``gammaln``
(``distributions``) call of the process.
"""

from __future__ import annotations

import importlib
import math
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, NumericalError

__all__ = ["log_bessel_k", "log_bessel_k_flat"]


def bind_on_first_call(namespace: dict, module: str, name: str) -> Callable:
    """A stand-in for ``module.name`` that imports ``module`` on its first call.

    That call rebinds ``namespace[name]`` (pass the caller's ``globals()``)
    to the real function, so every later call through the module global
    reaches it directly, at no extra cost.
    """

    def first_call(*args, **kwargs):
        fn = getattr(importlib.import_module(module), name)
        namespace[name] = fn
        return fn(*args, **kwargs)

    return first_call


kve = bind_on_first_call(globals(), "scipy.special", "kve")


def log_bessel_k(order: float, arg: float) -> float:
    """log K_order(arg), valid for any real order and arg > 0.

    Symmetric in the order (K_a = K_{-a}).  Relative error on the value
    scale is ~1e-12 over arg in [1e-8, 1e4], |order| <= 50.
    """
    order = float(order)
    arg = float(arg)
    if not (math.isfinite(order) and math.isfinite(arg)):
        raise DomainError(f"log_bessel_k needs finite inputs, got order={order}, arg={arg}")
    if arg <= 0.0:
        raise DomainError(f"log_bessel_k needs arg > 0, got {arg}")
    v = abs(order)
    # kve(v, z) = K_v(z) * e^z avoids underflow of K_v for large z
    scaled = kve(v, arg)
    if np.isfinite(scaled) and scaled > 0.0:
        return math.log(scaled) - arg
    # K_v(z) itself overflows a double (small z, large v); mpmath is exact,
    # up to an order so large that 30 digits hold it as an integer
    import mpmath

    try:
        with mpmath.workdps(30):
            return float(mpmath.log(mpmath.besselk(v, mpmath.mpf(arg))))
    except ZeroDivisionError:
        raise NumericalError(
            f"log_bessel_k: no value at order={order!r}, arg={arg!r} "
            "(mpmath's series has a pole there)"
        ) from None


def log_bessel_k_flat(orders: NDArray[np.float64], args: list[float]) -> list[float]:
    """:func:`log_bessel_k` elementwise: log K_{orders[i]}(args[i]) as a list of floats.

    ``orders`` is an array of signed orders (a caller that makes many calls
    on one layout builds it once) and ``args`` a list as long.  One ``kve``
    call covers every element (``kve`` is even in its order, as ``K`` is),
    and it gives the values scalar calls give.  The log stays in ``math``
    on Python floats, since ``np.log`` differs from ``math.log`` in the last
    bit on some inputs.  An element whose ``kve`` is not finite and
    positive goes through the scalar function with its own order, in element
    order: that is where a bad input raises its ``DomainError`` and where an
    overflowing ``K`` falls back to mpmath, so the error raised is the first
    one scalar calls in element order would raise.
    """
    scaled = kve(orders, args).tolist()
    # math.log raises on 0 or a negative kve, and a NaN or inf makes the sum
    # non-finite; a sum of finite logs that overflows takes the elementwise
    # path too, which gives the same values
    try:
        logs = [math.log(s) - z for s, z in zip(scaled, args)]
        if math.isfinite(sum(logs)):
            return logs
    except ValueError:
        pass
    return [
        math.log(s) - z if 0.0 < s < math.inf else log_bessel_k(order, z)
        for order, s, z in zip(orders.tolist(), scaled, args)
    ]
