import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kve

from dynsparse import DomainError, log_bessel_k, log_gig_normalizer
from dynsparse.special import bind_on_first_call, log_bessel_k_flat
from helpers import gig_unnormalized, integrate_positive_halfline


def test_half_integer_closed_form():
    # K_{1/2}(z) = sqrt(pi/(2 z)) e^{-z}
    expected = math.log(math.sqrt(math.pi / 2.0)) - 1.0
    assert log_bessel_k(0.5, 1.0) == pytest.approx(expected, rel=1e-12)


def test_bind_on_first_call_rebinds_the_name_to_the_real_function():
    namespace = {}
    namespace["hypot"] = bind_on_first_call(namespace, "math", "hypot")
    assert namespace["hypot"](3.0, 4.0) == 5.0
    # later calls through the name skip the stand-in
    assert namespace["hypot"] is math.hypot


def test_order_symmetry():
    for a in [0.0, 0.3, 0.5, 1.7, 10.0, 49.5]:
        for z in [1e-8, 1e-3, 0.1, 1.0, 10.0, 1e4]:
            assert abs(log_bessel_k(a, z) - log_bessel_k(-a, z)) < 1e-12


def flat(pairs):
    """The (orders array, args list) of a list of (order, arg) pairs."""
    return np.array([order for order, _ in pairs]), [z for _, z in pairs]


@settings(max_examples=200, deadline=None)
@given(
    orders=st.lists(st.floats(-160.0, 160.0), min_size=1, max_size=4),
    args=st.lists(st.floats(-12.0, 4.0).map(lambda e: 10.0**e), min_size=1, max_size=5),
)
@example(orders=[0.5, -0.5, 3.0], args=[1e-8, 1.0, 1e4])
@example(orders=[150.0, 0.0], args=[0.05, 2.0])  # K_150(0.05) overflows: mpmath
def test_log_bessel_k_flat_matches_scalar_calls(orders, args):
    pairs = [(order, z) for order in orders for z in args]
    values = log_bessel_k_flat(*flat(pairs))
    assert values == [log_bessel_k(order, z) for order, z in pairs]
    assert all(type(v) is float for v in values)


def test_log_bessel_k_flat_matches_scalar_calls_on_a_sweep():
    # dense grid: np.log in place of math.log changes ~18 of these 50 000
    # values in the last bit, which the hypothesis examples rarely reach
    rng = np.random.default_rng(31)
    orders = rng.uniform(-20.0, 20.0, 250).tolist()
    args = (10.0 ** rng.uniform(-3.0, 3.0, 200)).tolist()
    pairs = [(order, z) for order in orders for z in args]
    assert log_bessel_k_flat(*flat(pairs)) == [log_bessel_k(order, z) for order, z in pairs]


def test_kve_is_even_in_its_order_bit_for_bit():
    # log_bessel_k_flat hands kve signed orders, log_bessel_k their absolute values
    rng = np.random.default_rng(32)
    v = rng.uniform(0.0, 200.0, 200_000)
    z = 10.0 ** rng.uniform(-12.0, 4.0, 200_000)
    assert np.array_equal(kve(-v, z), kve(v, z), equal_nan=True)


def first_scalar_error(pairs):
    """The DomainError scalar calls in element order raise first."""
    with pytest.raises(DomainError) as info:
        for order, z in pairs:
            log_bessel_k(order, z)
    return str(info.value)


@pytest.mark.parametrize(
    "orders,args",
    [
        ([0.5], [1.0, -1.0, math.inf]),
        ([0.5, 1.5], [2.0, math.inf, 0.0]),
        ([math.nan, 0.5], [1.0]),
        ([150.0, 0.5], [0.05, 0.0]),
    ],
)
def test_log_bessel_k_flat_raises_the_first_scalar_error(orders, args):
    pairs = [(order, z) for order in orders for z in args]
    with pytest.raises(DomainError) as flat_exc:
        log_bessel_k_flat(*flat(pairs))
    assert str(flat_exc.value) == first_scalar_error(pairs)


def test_log_bessel_k_flat_with_mixed_orders_and_args():
    # each element with its own order and argument; K_150(0.05) overflows a
    # double, so that element goes through the scalar function and mpmath
    pairs = [
        (0.5, 1.0), (0.5, 2.0), (0.5, 3.0),
        (150.0, 2.0), (150.0, 0.05),
        (-2.5, 1e-3),
        (3.0, 0.2), (3.0, 10.0), (3.0, 1e4), (3.0, 7.0),
    ]
    assert not np.isfinite(kve(150.0, 0.05))
    values = log_bessel_k_flat(*flat(pairs))
    assert values == [log_bessel_k(order, z) for order, z in pairs]
    assert all(type(v) is float for v in values)
    # elements that raise after the mpmath one; the first of them names the error
    bad = pairs + [(1.5, 4.0), (1.5, -1.0), (1.5, math.nan), (0.5, 0.0)]
    with pytest.raises(DomainError) as flat_exc:
        log_bessel_k_flat(*flat(bad))
    assert str(flat_exc.value) == first_scalar_error(bad)


def test_against_quadrature_of_integral_representation():
    # K_a(z) = int_0^inf exp(-z cosh t) cosh(a t) dt
    for a, z in [(1.0, 2.0), (0.0, 0.5), (2.5, 1.0), (5.0, 3.0)]:
        val, _ = quad(
            lambda t: math.exp(-z * math.cosh(t)) * math.cosh(a * t),
            0.0,
            50.0,
            epsabs=0.0,
            epsrel=1e-13,
            limit=500,
        )
        assert log_bessel_k(a, z) == pytest.approx(math.log(val), rel=1e-10)


def test_recurrence():
    # K_{a+1}(z) = K_{a-1}(z) + (2a/z) K_a(z), on the value scale
    for a in np.arange(0.5, 11.0, 1.0):
        for z in [0.1, 1.0, 10.0]:
            k_m = math.exp(log_bessel_k(a - 1.0, z))
            k_0 = math.exp(log_bessel_k(a, z))
            k_p = math.exp(log_bessel_k(a + 1.0, z))
            assert k_p == pytest.approx(k_m + 2.0 * a / z * k_0, rel=1e-8)


def test_extreme_corner_matches_mpmath():
    import mpmath

    for a, z in [(50.0, 1e-8), (30.0, 1e-6), (50.0, 1e4)]:
        ref = float(mpmath.log(mpmath.besselk(a, mpmath.mpf(z))))
        assert log_bessel_k(a, z) == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        log_bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        log_bessel_k(1.0, -2.0)
    with pytest.raises(DomainError):
        log_bessel_k(math.nan, 1.0)
    with pytest.raises(DomainError):
        log_bessel_k(1.0, math.inf)


def test_gig_normalizer_exponential_limit():
    # nu=1, delta=0, gamma=sqrt(2): exponential(rate 1), log normalizer 0
    assert log_gig_normalizer(1.0, 0.0, math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-14)


def test_gig_normalizer_inverse_gamma_limit():
    # quadrature of x^(nu-1) exp(-delta^2/(2x)) over (0, inf)
    nu, delta = -0.5, 1.0
    val = integrate_positive_halfline(gig_unnormalized(nu, delta, 0.0), rel_tol=1e-12)
    assert log_gig_normalizer(nu, delta, 0.0) == pytest.approx(-math.log(val), rel=1e-10)


@pytest.mark.parametrize(
    "nu,delta,gamma",
    [
        (-0.5, 1.0, 1.0),
        (2.0, 1.0, 1.0),
        (0.0, 0.5, 2.0),
        (1.0, 0.0, 1.0),
        (-1.0, 2.0, 0.0),
        (3.5, 0.2, 0.7),
        (-2.5, 0.7, 3.0),
    ],
)
def test_gig_normalizer_makes_density_integrate_to_one(nu, delta, gamma):
    val = integrate_positive_halfline(gig_unnormalized(nu, delta, gamma), rel_tol=1e-10)
    total = math.exp(log_gig_normalizer(nu, delta, gamma)) * val
    assert total == pytest.approx(1.0, abs=1e-6)


def test_gig_normalizer_region_errors():
    with pytest.raises(DomainError):
        log_gig_normalizer(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        log_gig_normalizer(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        log_gig_normalizer(1.0, 1.0, 0.0)


def test_quadrature_known_integrals():
    assert integrate_positive_halfline(lambda x: math.exp(-x), 1e-10) == pytest.approx(
        1.0, rel=1e-10
    )
    assert integrate_positive_halfline(
        lambda x: x * math.exp(-x), 1e-10
    ) == pytest.approx(1.0, rel=1e-10)


def test_quadrature_cross_checks_normalizer():
    nu, delta, gamma = 2.0, 1.0, 1.0
    val = integrate_positive_halfline(gig_unnormalized(nu, delta, gamma), 1e-10)
    assert val == pytest.approx(math.exp(-log_gig_normalizer(nu, delta, gamma)), rel=1e-8)
