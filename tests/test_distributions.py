import json
import math
import platform
import re
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import dynsparse.distributions
from dynsparse import (
    DomainError,
    GhParams,
    GigParams,
    MghParams,
    NumericalError,
    gh_log_pdf,
    gh_sample,
    gig_log_pdf,
    gig_moment,
    mgh_log_pdf,
    mgh_sample,
)
from dynsparse.distributions import (
    _OMEGA_MAX,
    _devroye_gig,
    _devroye_gig_one,
    gh_log_norm,
    gh_log_pdf_grad,
    gig_rvs,
    validate_gig_region,
)
from helpers import (
    gh_cdf_grid,
    gh_pdf_by_mixture,
    gig_unnormalized,
    integrate_positive_halfline,
    NO_AVX512,
    ks_statistic,
    reference_devroye_gig,
    reference_devroye_gig_one,
    run_python,
)

GIG_GRID = [
    GigParams(-0.5, 1.0, 1.0),
    GigParams(2.0, 1.0, 1.0),
    GigParams(0.0, 0.5, 2.0),
    GigParams(1.0, 0.0, 1.0),
    GigParams(-1.0, 2.0, 0.0),
    GigParams(3.5, 0.2, 0.7),
]


def test_gig_param_region_validation():
    with pytest.raises(DomainError):
        GigParams(0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        GigParams(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        GigParams(0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        GigParams(1.0, -1.0, 1.0)


def test_gig_log_pdf_exponential_limit():
    # nu=1, delta=0, gamma=sqrt(2) is exponential(1); log pdf at 1 is -1
    p = GigParams(1.0, 0.0, math.sqrt(2.0))
    assert gig_log_pdf(p, 1.0) == pytest.approx(-1.0, abs=1e-14)


def test_gig_log_pdf_matches_quadrature_normalization():
    p = GigParams(-0.5, 1.0, 1.0)
    z = integrate_positive_halfline(gig_unnormalized(p.nu, p.delta, p.gamma), 1e-12)
    expected = math.log(gig_unnormalized(p.nu, p.delta, p.gamma)(1.0) / z)
    assert gig_log_pdf(p, 1.0) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("params", GIG_GRID)
def test_gig_pdf_integrates_to_one(params):
    total = integrate_positive_halfline(
        lambda x: math.exp(gig_log_pdf(params, x)), 1e-10
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_gig_pdf_rejects_nonpositive_x():
    with pytest.raises(DomainError):
        gig_log_pdf(GigParams(1.0, 1.0, 1.0), 0.0)


def test_gig_moment_trivial_cases():
    assert gig_moment(GigParams(1.0, 0.0, math.sqrt(2.0)), 1) == pytest.approx(1.0)
    assert gig_moment(GigParams(2.0, 1.0, 1.0), 0) == 1.0


@pytest.mark.parametrize("params", GIG_GRID)
@pytest.mark.parametrize("power", [-1, 1, 2])
def test_gig_moment_matches_quadrature(params, power):
    try:
        m = gig_moment(params, power)
    except DomainError:
        return  # nonexistent moment for this region; checked below
    z = integrate_positive_halfline(
        gig_unnormalized(params.nu, params.delta, params.gamma), 1e-12
    )
    ref = (
        integrate_positive_halfline(
            lambda x: x**power
            * gig_unnormalized(params.nu, params.delta, params.gamma)(x),
            1e-12,
        )
        / z
    )
    assert m == pytest.approx(ref, rel=1e-8)


def test_gig_moment_nonexistent():
    # gamma law with nu = 0.5: E[1/X] diverges
    with pytest.raises(DomainError):
        gig_moment(GigParams(0.5, 0.0, 1.0), -1)
    # inverse-gamma with shape 1: mean diverges
    with pytest.raises(DomainError):
        gig_moment(GigParams(-1.0, 2.0, 0.0), 1)


@pytest.mark.parametrize("power", [0.5, -1.5, 2.0])
def test_gig_moment_rejects_a_non_integer_power(power):
    # int(power) used to truncate, so a power of 0.5 returned E[X^0] = 1
    message = f"gig_moment needs an integer power, got {power!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        gig_moment(GigParams(1.0, 1.0, 1.0), power)


def test_gig_moment_takes_numpy_integers():
    params = GigParams(1.0, 1.0, 1.0)
    for power in (-1, 0, 2):
        assert gig_moment(params, np.int64(power)) == gig_moment(params, power)


def test_gig_sampler_exponential_limit():
    rng = np.random.default_rng(7)
    x = gig_rvs(1.0, 0.0, math.sqrt(2.0), rng, size=100_000)
    assert abs(x.mean() - 1.0) < 4.0 * x.std() / math.sqrt(x.size)


@pytest.mark.parametrize("params", GIG_GRID)
def test_gig_sampler_mean_within_four_se(params):
    try:
        mean = gig_moment(params, 1)
        var = gig_moment(params, 2) - mean**2
    except DomainError:
        return
    rng = np.random.default_rng(42)
    x = gig_rvs(params.nu, params.delta, params.gamma, rng, size=100_000)
    se = math.sqrt(var / x.size)
    assert abs(x.mean() - mean) < 4.0 * se


def test_gig_sampler_inverse_gamma_median():
    # nu=-1, gamma=0, delta=2: inverse-gamma(shape 1, scale 2)
    params = GigParams(-1.0, 2.0, 0.0)
    z = integrate_positive_halfline(gig_unnormalized(-1.0, 2.0, 0.0), 1e-12)

    def cdf(m):
        v, _ = quad(gig_unnormalized(-1.0, 2.0, 0.0), 0.0, m, epsabs=0, epsrel=1e-12)
        return v / z

    # bisection for the quadrature median
    lo, hi = 1e-6, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    median = 0.5 * (lo + hi)
    rng = np.random.default_rng(3)
    x = gig_rvs(params.nu, params.delta, params.gamma, rng, size=100_000)
    # binomial CI on the proportion below the true median
    prop = np.mean(x < median)
    assert abs(prop - 0.5) < 4.0 * 0.5 / math.sqrt(x.size)


def test_gig_rvs_heterogeneous_parameters():
    rng = np.random.default_rng(0)
    nus = np.array([-0.5, 1.0, 2.0, -1.5])
    deltas = np.array([1.0, 0.5, 2.0, 1.0])
    gammas = np.array([1.0, 2.0, 0.5, 1.0])
    draws = np.array(
        [gig_rvs(nus, deltas, gammas, rng, size=(5000, 4)).mean(axis=0) for _ in range(4)]
    ).mean(axis=0)
    means = [gig_moment(GigParams(n, d, g), 1) for n, d, g in zip(nus, deltas, gammas)]
    assert np.allclose(draws, means, rtol=0.05)


# (lam, omega) pairs over every cut-point branch: x0 = -psi(1) and x1 =
# -psi(-1) below 0.5, between 0.5 and 2 and above 2, and lam < 0 (the swap)
_LAW_PAIRS = [(-9.9, 0.05), (0.1, 0.01), (0.5, 1.0), (-0.4, 2.0), (3.0, 50.0)]


def test_devroye_scalar_kernel_matches_array_kernel():
    # on the host's own numpy loops the two kernels may differ in the last
    # bits (AVX-512), so here they must agree in law: a two-sample KS test
    # of 20,000 scalar draws against one array batch at each pair
    for k, (lam, omega) in enumerate(_LAW_PAIRS):
        rng = np.random.default_rng(40 + k)
        one = np.array([_devroye_gig_one(lam, omega, rng) for _ in range(20_000)])
        batch = _devroye_gig(np.full(20_000, lam), omega, np.random.default_rng(50 + k))
        assert scipy.stats.ks_2samp(one, batch).pvalue > 1e-3, (lam, omega)


def scalar_array_mismatches():
    """Where the scalar kernel's outcome (value bytes or error, and
    generator state) differs from the array kernel's n = 1 outcome, per
    sweep, with the number of draws compared.

    The sweeps: 10,000 random pairs drawn in turn from one generator each;
    303 pairs at their own seeds, four draws in turn (lam < 0 swaps); and
    the router's bounds, ``_ROUTER_CASES``.  Run in a child process with
    ``NO_AVX512``, where both kernels evaluate psi with loops that round
    as ``math`` does.
    """
    def array_one(lam, omega, rng):
        return _devroye_gig(np.array([lam]), omega, rng)[0]

    found = {}
    pars = np.random.default_rng(21)
    lams = pars.uniform(-15.0, 15.0, 10_000)
    omegas = 10.0 ** pars.uniform(-6.0, 3.0, 10_000)
    rng_arr, rng_one = np.random.default_rng(22), np.random.default_rng(22)
    found["sweep"] = [
        (lam, omega) for lam, omega in zip(lams.tolist(), omegas.tolist())
        if _devroye_gig_one(lam, omega, rng_one) != array_one(lam, omega, rng_arr)
    ]
    if rng_one.bit_generator.state != rng_arr.bit_generator.state:
        found["sweep"].append("final state")

    pars = np.random.default_rng(23)
    omegas = np.where(
        np.arange(300) % 2, pars.uniform(1e-6, 1e3, 300), 10.0 ** pars.uniform(-6.0, 3.0, 300)
    )
    cases = [(0.0, 1e-6, 0), (0.0, 1.0, 1), (-15.0, 1e3, 2)] + list(zip(
        pars.uniform(-15.0, 15.0, 300).tolist(), omegas.tolist(),
        pars.integers(0, 2**32, 300).tolist(),
    ))
    found["successive"] = []
    for lam, omega, seed in cases:
        rng_arr, rng_one = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):
            z_one, z_arr = _devroye_gig_one(lam, omega, rng_one), array_one(lam, omega, rng_arr)
            if z_one != z_arr or rng_one.bit_generator.state != rng_arr.bit_generator.state:
                found["successive"].append((lam, omega, seed))
                break

    found["router"] = [
        (lam, omega) for seed, (lam, omega) in enumerate(_ROUTER_CASES)
        if _draw_outcome(_devroye_gig_one, lam, omega, seed)
        != _draw_outcome(array_one, lam, omega, seed)
    ]
    return {"checked": [10_000, 4 * len(cases), len(_ROUTER_CASES)], "found": found}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86 numpy loops only")
def test_devroye_scalar_kernel_matches_array_kernel_on_a_sweep():
    # with numpy's AVX-512 loops off, the scalar kernel gives the array
    # kernel's n = 1 draw and generator state: on a dense random sweep (a
    # last-bit difference in the setup, say scalar x ** 2 for x * x, ~1e-3
    # of inputs, changes the draw), over successive draws, and on both
    # sides of the router's bounds
    out = json.loads(run_python(
        "import json, test_distributions as t; print(json.dumps(t.scalar_array_mismatches()))",
        env=NO_AVX512,
    ))
    assert out["checked"] == [10_000, 1212, len(_ROUTER_CASES)]
    assert out["found"] == {"sweep": [], "successive": [], "router": []}


def _draw_outcome(kernel, lam, omega, seed):
    """(value, generator state) of one draw, or (error type, message, state)."""
    rng = np.random.default_rng(seed)
    try:
        with np.errstate(all="ignore"):
            z = kernel(lam, omega, rng)
    except (DomainError, NumericalError) as exc:
        return type(exc), str(exc), rng.bit_generator.state
    return np.float64(z).tobytes(), rng.bit_generator.state


_ONE_EDGES = [
    # lam = 0 exactly, and lam = +-1e-300 whose square underflows
    *[(lam, omega) for lam in (0.0, 1e-300, -1e-300) for omega in (1e-300, 1e-12, 1.0, 1e3)],
    (5e-4, 1e-12),  # alpha cancels to 0: the round budget runs out
    (1.0, 1e-300),  # (lam / omega)^2 overflows in the mode: inf
    (-1.0, 1e-300),
    (0.5, _OMEGA_MAX),
    (0.5, np.nextafter(_OMEGA_MAX, np.inf)),
    (1e200, 1.0),  # lam * lam overflows
    (0.5, 5e-324),
    (math.nan, 1.0),
    (0.5, -1.0),
    (0.5, math.inf),
]


def test_devroye_scalar_kernel_matches_its_float64_reference():
    # the kernel gives its reference's value and generator state, or its
    # exception type and message, on the sweep and the edges: the same
    # formulas on Python floats and math, with float64's outcome wherever
    # Python raises
    pars = np.random.default_rng(21)
    lams = pars.uniform(-15.0, 15.0, 10_000)
    omegas = 10.0 ** pars.uniform(-6.0, 3.0, 10_000)
    cases = [*zip(lams.tolist(), omegas.tolist()), *_ONE_EDGES]
    for seed, (lam, omega) in enumerate(cases):
        got = _draw_outcome(_devroye_gig_one, lam, omega, seed)
        assert got == _draw_outcome(reference_devroye_gig_one, lam, omega, seed), (lam, omega)


def test_devroye_scalar_kernel_edges_keep_the_reference_outcomes():
    # the edges reach every outcome: a value, inf, and both error types
    outcomes = [_draw_outcome(_devroye_gig_one, lam, omega, 0) for lam, omega in _ONE_EDGES]
    kinds = {o[0] for o in outcomes if len(o) == 3}
    assert kinds == {DomainError, NumericalError}
    assert _draw_outcome(_devroye_gig_one, 1.0, 1e-300, 0)[0] == np.float64(np.inf).tobytes()
    assert _draw_outcome(_devroye_gig_one, 5e-4, 1e-12, 0)[:2] == (
        NumericalError, "GIG rejection sampler exceeded its round budget"
    )


class _FixedUniforms:
    """A generator that hands out fixed uniforms: ``random(3)`` the next
    three, ``random()`` the next one."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


class _RaisingMath:
    """``math``, recording each call that raises: (name, error, sign of the argument)."""

    def __init__(self):
        self.raised = set()

    def __getattr__(self, name):
        f = getattr(math, name)
        if not callable(f):
            return f

        def recorded(x):
            try:
                return f(x)
            except (OverflowError, ValueError) as exc:
                self.raised.add((name, type(exc).__name__, math.copysign(1.0, x)))
                raise

        return recorded


def test_devroye_scalar_kernel_writes_out_float64_infs(monkeypatch):
    # where a math call raises and float64 gives inf, the kernel writes the
    # inf out: log of a zero V or W, cosh of |x| > 710.5, expm1 of x in
    # (709.8, 710.5), exp of an accepted x > 709.8, and then 1/z at z = 0
    # and z = inf.  A generator's uniforms are 0 or at least 2^-53, which
    # keeps a finite |x| below ~420 at any ordinary (lam, omega), so fixed
    # uniforms reach these, at omega = 1e-150, where the cut points are
    # ~346 and r = 1/2: U sweeps the three pieces; V is 0, 5e-324 or puts
    # the right piece's x = td - r log V at 710.0 +- 0.15; W is 0.5 or 0;
    # and a last round (0.5, 0.5, 0) accepts any finite x
    spy = _RaisingMath()
    monkeypatch.setattr(dynsparse.distributions, "math", spy)
    values = set()
    for lam in (1e-300, -1e-300):
        for U in [0.5, *np.linspace(0.997, 1.0 - 2.0**-53, 60).tolist()]:
            for V in (0.0, 5e-324, *(math.exp(-k) for k in (728.4, 728.7, 729.0))):
                for W in (0.5, 0.0):
                    rounds = [U, V, W, 0.5, 0.5, 0.0]
                    z = _devroye_gig_one(lam, 1e-150, _FixedUniforms(rounds))
                    assert np.float64(z).tobytes() == np.float64(
                        reference_devroye_gig_one(lam, 1e-150, _FixedUniforms(rounds))
                    ).tobytes(), (lam, U, V, W)
                    values.add(z if z in (0.0, math.inf) else "finite")
    assert spy.raised == {
        ("log", "ValueError", 1.0), ("cosh", "OverflowError", 1.0),
        ("cosh", "OverflowError", -1.0), ("expm1", "OverflowError", 1.0),
        ("exp", "OverflowError", 1.0),
    }
    assert values == {0.0, math.inf, "finite"}


_NEXT_OMEGA = float(np.nextafter(_OMEGA_MAX, np.inf))
_ROUTER_CASES = [
    *_ONE_EDGES,
    # omega at the largest finite square and past it; squares that
    # underflow (1e-160 to a subnormal, 5e-324 to 0); alpha cancelling to
    # 0, and to 1.4e-166 > 0 whose square underflows
    *[(lam, omega) for lam in (0.5, -0.5) for omega in (_OMEGA_MAX, _NEXT_OMEGA, 1e-160, 5e-324)],
    (5e-4, 1e-12),
    (1e-150, 1e-158),
    (-1e-150, 1e-158),
    *[
        (lam, omega)
        for lam in (0.0, 1e154, -1e154, 1e200, -1e200, math.inf, -math.inf, math.nan)
        for omega in (5e-324, 1e-160, 1.0, 1e154, _OMEGA_MAX, _NEXT_OMEGA)
    ],
]


def test_devroye_scalar_kernel_routes_edges_to_the_array_kernel(monkeypatch):
    # on both sides of the router's bounds a routed draw is the array
    # kernel's n = 1 outcome and any other the reference's: value bytes or
    # error, and generator state
    def array_one(lam, omega, rng):
        return _devroye_gig(np.array([lam]), omega, rng)[0]

    routed = []

    def counted(lam, omega, rng):
        routed.append((lam[0], omega))
        return _devroye_gig(lam, omega, rng)

    monkeypatch.setattr(dynsparse.distributions, "_devroye_gig", counted)
    for seed, (lam, omega) in enumerate(_ROUTER_CASES):
        before = len(routed)
        got = _draw_outcome(_devroye_gig_one, lam, omega, seed)
        oracle = array_one if len(routed) > before else reference_devroye_gig_one
        assert got == _draw_outcome(oracle, lam, omega, seed), (lam, omega)
    routed = {(float(lam), float(omega)) for lam, omega in routed}
    # ordinary parameters next to the bounds stay on the scalar path
    for case in [(0.5, _OMEGA_MAX), (-0.5, _OMEGA_MAX), (0.0, 1e-160)]:
        assert case not in routed
    for case in [(0.5, _NEXT_OMEGA), (0.0, 5e-324), (0.5, 1e-160), (5e-4, 1e-12), (1e-150, 1e-158)]:
        assert case in routed


@pytest.mark.parametrize(
    "lam, omega", [(1e200, 1.0), (-1e200, 1.0), (1e154, 1e154), (1e150, _OMEGA_MAX)]
)
def test_devroye_kernels_reject_an_overflowing_alpha_before_any_uniform(lam, omega):
    # omega^2 + lam^2 overflows, so alpha is inf and no round could accept:
    # both kernels and gig_rvs (omega = delta * 1) raise before drawing
    msg = (
        f"Devroye GIG sampler needs omega * omega + lam * lam <= {sys.float_info.max!r} "
        f"(it overflows), got |lam|={abs(lam)!r}, omega={omega!r}"
    )
    draws = [
        lambda rng: _devroye_gig_one(lam, omega, rng),
        lambda rng: _devroye_gig(np.array([0.5, lam]), np.array([1.0, omega]), rng),
        lambda rng: gig_rvs(lam, omega, 1.0, rng),
        lambda rng: gig_rvs(lam, omega, 1.0, rng, size=3),
    ]
    untouched = np.random.default_rng(0).bit_generator.state
    for draw in draws:
        rng = np.random.default_rng(0)
        with np.errstate(over="ignore"), pytest.raises(DomainError) as info:
            draw(rng)
        assert str(info.value) == msg
        assert rng.bit_generator.state == untouched


class _CountingRng:
    """Forwards ``random`` to a generator and counts the calls."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.calls = 0

    def random(self, size):
        self.calls += 1
        return self.gen.random(size)


def test_devroye_array_kernel_keeps_the_masked_round_stream():
    # the array kernel draws what the masked-round kernel it replaced drew
    # and leaves the generator where that one left it, across every branch
    # of both cut points, the lam < 0 swap and batches of 5 or more rounds
    lam, omega = np.meshgrid(np.linspace(-8.0, 8.0, 33), 10.0 ** np.linspace(-4.0, 3.0, 36))
    a = np.sqrt(omega**2 + lam**2) - np.abs(lam)
    right = a * (math.cosh(1.0) - 1.0) + np.abs(lam) * (math.e - 2.0)  # -psi(1)
    left = a * (math.cosh(1.0) - 1.0) + np.abs(lam) * math.exp(-1.0)  # -psi(-1)
    for x in (right, left):
        assert np.any(x > 2.0) and np.any(x < 0.5) and np.any((x >= 0.5) & (x <= 2.0))
    assert np.any(lam < 0.0) and np.any(lam > 0.0)
    rounds = []
    for seed in range(30):
        counted, oracle = _CountingRng(seed), np.random.default_rng(seed)
        z = _devroye_gig(lam, omega, counted)
        assert np.array_equal(z, reference_devroye_gig(lam, omega, oracle))
        assert counted.gen.bit_generator.state == oracle.bit_generator.state
        rounds.append(counted.calls)
    assert max(rounds) >= 5


@pytest.mark.parametrize("seed", range(4))
def test_gig_rvs_batches_keep_the_masked_round_stream(seed):
    # an all-interior batch, with nu broadcast from (N, 1) as the SMC step
    # passes it, draws (delta / gamma) * the masked-round kernel's draw at
    # omega = delta * gamma and leaves the generator where that one does
    pars = np.random.default_rng(100 + seed)
    nu = pars.uniform(-3.0, 3.0, (40, 1))
    delta = 10.0 ** pars.uniform(-3.0, 2.0, (40, 3))
    gamma = 10.0 ** pars.uniform(-2.0, 1.0)
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    z = gig_rvs(nu, delta, gamma, rng)
    assert np.array_equal(z, (delta / gamma) * reference_devroye_gig(nu, delta * gamma, oracle))
    assert rng.bit_generator.state == oracle.bit_generator.state
    # a mixed batch draws its inverse-gamma laws (gamma = 0), then its gamma
    # laws (delta = 0), then its interior as above
    nu = pars.uniform(0.1, 3.0, 60)
    delta = 10.0 ** pars.uniform(-3.0, 2.0, 60)
    gamma = 10.0 ** pars.uniform(-2.0, 1.0, 60)
    delta[::6] = 0.0
    gamma[3::6], nu[3::6] = 0.0, -nu[3::6]
    nu[1::6] = -nu[1::6]
    g0, d0 = gamma == 0.0, delta == 0.0
    inner = ~(g0 | d0)
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    z = gig_rvs(nu, delta, gamma, rng)
    expected = np.empty(60)
    expected[g0] = (delta[g0] ** 2 / 2.0) / oracle.gamma(-nu[g0], 1.0)
    expected[d0] = oracle.gamma(nu[d0], 2.0 / gamma[d0] ** 2)
    expected[inner] = (delta[inner] / gamma[inner]) * reference_devroye_gig(
        nu[inner], delta[inner] * gamma[inner], oracle
    )
    assert np.array_equal(z, expected)
    assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("size", [1, 3])
def test_gig_rvs_fails_fast_when_omega_squared_overflows(size):
    # omega = delta * gamma = 1e160: omega * omega overflows, so no rejection
    # round could accept; the sampler says so before taking any uniforms
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match=r"omega \* omega overflows.*omega=1e\+160"):
        gig_rvs(0.5, 1e100, 1e60, rng, size=size)
    assert rng.bit_generator.state == state


def test_devroye_kernels_draw_at_the_largest_omega():
    # the largest omega whose square is finite still draws, in both kernels;
    # the cut points are ~1e-77, where cosh, sinh and expm1 are exact on
    # any loops, so the two give the same bits
    omega = math.sqrt(sys.float_info.max)
    assert np.isfinite(omega * omega)
    z_one = _devroye_gig_one(0.5, omega, np.random.default_rng(3))
    z_arr = _devroye_gig(np.array([0.5]), omega, np.random.default_rng(3))[0]
    assert z_one == z_arr and np.isfinite(z_one)


def test_gig_rvs_size_one_interior_uses_scaled_kernel_draw():
    rng_one = np.random.default_rng(6)
    rng_arr = np.random.default_rng(6)
    z = gig_rvs(-0.7, 1.5, 0.4, rng_one, size=(1,))
    assert z[0] == (1.5 / 0.4) * _devroye_gig(np.array([-0.7]), 1.5 * 0.4, rng_arr)[0]
    assert rng_one.bit_generator.state == rng_arr.bit_generator.state


def test_gig_rvs_size_one_shapes():
    rng = np.random.default_rng(0)
    assert isinstance(gig_rvs(0.5, 1.0, 1.0, rng), float)
    assert gig_rvs(0.5, np.array([1.0]), 1.0, rng).shape == (1,)
    assert gig_rvs(0.5, 1.0, 1.0, rng, size=(1, 1)).shape == (1, 1)
    assert gig_rvs(np.array([[0.5]]), 1.0, 1.0, rng).shape == (1, 1)
    assert gig_rvs(0.5, 1.0, 1.0, rng, size=0).shape == (0,)


def _counting_kernels(monkeypatch):
    """Record each call of the scalar and array Devroye kernels, in order."""
    calls = []
    for name in ("_devroye_gig", "_devroye_gig_one"):
        kernel = getattr(dynsparse.distributions, name)

        def counted(lam, omega, rng, kernel=kernel, name=name):
            calls.append(name)
            return kernel(lam, omega, rng)

        monkeypatch.setattr(dynsparse.distributions, name, counted)
    return calls


@pytest.mark.parametrize(
    "args,kernel",
    [
        ((-0.7, 1.5, 0.4), "_devroye_gig_one"),
        ((0.1, 0.0105, 1.0), "_devroye_gig_one"),
        ((1, 2, 3), "_devroye_gig"),
        ((1.0, 2, 3.0), "_devroye_gig"),
        ((np.array(1.0), 2.0, 3.0), "_devroye_gig"),
        ((1.0, np.array([2.0]), 3.0), "_devroye_gig"),
        ((np.array([[1.0]]), np.array(2.0), np.array([3.0])), "_devroye_gig"),
    ],
    ids=["floats", "floats-small", "ints", "int-delta", "0d-nu", "1-element-delta", "arrays"],
)
def test_gig_rvs_single_interior_draw_routes(monkeypatch, args, kernel):
    # only three Python floats take the scalar kernel; ints and arrays take
    # the array route; each draws (delta / gamma) * its kernel's draw at
    # omega = delta * gamma (the scalar reference's, or the array kernel's
    # at n = 1) and leaves the generator as that does
    nu, delta, gamma = (float(np.asarray(a).item()) for a in args)
    oracle = np.random.default_rng(8)
    if kernel == "_devroye_gig_one":
        expected = [(delta / gamma) * reference_devroye_gig_one(nu, delta * gamma, oracle)
                    for _ in range(3)]
    else:
        expected = [(delta / gamma) * _devroye_gig(np.array([nu]), delta * gamma, oracle)[0]
                    for _ in range(3)]
    calls = _counting_kernels(monkeypatch)
    rng = np.random.default_rng(8)
    got = [gig_rvs(*args, rng) for _ in range(3)]
    assert all(np.shape(z) == np.broadcast(*args).shape for z in got)
    assert np.float64(got).tobytes() == np.float64(expected).reshape(np.shape(got)).tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert calls == [kernel] * 3


@pytest.mark.parametrize("nu,delta,gamma", [(1.5, 0.0, 2.0), (-2.0, 1.5, 0.0)])
def test_gig_rvs_size_one_boundary_routes(monkeypatch, nu, delta, gamma):
    # a gamma / inverse-gamma draw is one generator call per element, so
    # k size-1 draws equal one batch of k; no Devroye kernel runs
    calls = _counting_kernels(monkeypatch)
    rng_one = np.random.default_rng(5)
    rng_batch = np.random.default_rng(5)
    singles = [gig_rvs(nu, delta, gamma, rng_one) for _ in range(6)]
    batch = gig_rvs(nu, delta, gamma, rng_batch, size=6)
    assert all(isinstance(z, float) for z in singles)
    assert np.array_equal(singles, batch)
    assert rng_one.bit_generator.state == rng_batch.bit_generator.state
    assert calls == []


@pytest.mark.parametrize(
    "nu,delta,gamma,match",
    [
        (-1.0, 0.0, 1.0, "delta = 0 requires nu > 0"),
        (0.5, 1.0, 0.0, "gamma = 0 requires nu < 0"),
        (0.5, -1.0, 1.0, "delta and gamma must be nonnegative"),
        (-3.0, -1.0, -1.0, "delta and gamma must be nonnegative"),
        (np.nan, 1.0, 1.0, "non-finite GIG parameters"),
        (0.5, math.nan, 1.0, "non-finite GIG parameters"),
        (0.5, 1.0, math.inf, "non-finite GIG parameters"),
    ],
)
def test_gig_rvs_size_one_errors_match_batch(monkeypatch, nu, delta, gamma, match):
    # every size raises the region rule's message before taking a uniform
    # or calling a Devroye kernel
    calls = _counting_kernels(monkeypatch)
    with pytest.raises(DomainError, match=match) as rule:
        validate_gig_region(nu, delta, gamma)
    for size in (None, (1,), 3):
        rng = np.random.default_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(DomainError, match=f"^{re.escape(str(rule.value))}$"):
            gig_rvs(nu, delta, gamma, rng, size=size)
        assert rng.bit_generator.state == untouched
    assert calls == []


@pytest.mark.parametrize(
    "nu,delta,gamma,message",
    [
        # a valid inverse-gamma element ahead of a bad gamma-law one
        ([-1.0, -1.0], [1.0, 0.0], [0.0, 1.0], "delta = 0 requires nu > 0, got nu=-1.0"),
        # a valid boundary element ahead of bad interior ones
        ([-1.0, 0.5], [1.0, -1.0], [0.0, 1.0],
         "delta and gamma must be nonnegative, got (-1.0, 1.0)"),
        ([-1.0, np.nan], 1.0, [0.0, 1.0], "non-finite GIG parameters (nan, 1.0, 1.0)"),
        # the first bad element in flat order is the one reported
        ([[2.0, -1.0], [0.5, 0.5]], [[1.0, 0.0], [-1.0, 1.0]], 1.0,
         "delta = 0 requires nu > 0, got nu=-1.0"),
    ],
    ids=["delta0-nu-neg", "delta-neg", "nu-nan", "first-in-flat-order"],
)
def test_gig_rvs_checks_the_whole_batch_before_any_draw(nu, delta, gamma, message):
    rng = np.random.default_rng(0)
    untouched = rng.bit_generator.state
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        gig_rvs(nu, delta, gamma, rng)
    assert rng.bit_generator.state == untouched


# region edges: zero, small, unit and negative delta/gamma, nu on both
# sides.  Small stops at 1e-4, so omega = delta * gamma >= 1e-8: at
# omega = 1e-12 the Devroye kernel runs out of rounds for nu near 1e-4,
# and below omega ~ 1e-154 for every nu.
_EDGE = st.sampled_from([0.0, 1e-4, 1.0, -1.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    nu=st.sampled_from([-3.0, -0.5, 0.0, 0.5, 3.0]) | st.floats(-5.0, 5.0),
    delta=_EDGE,
    gamma=_EDGE,
    size=st.sampled_from([None, 3]),
)
def test_gig_rvs_rejects_the_invalid_region_edges(nu, delta, gamma, size):
    rng = np.random.default_rng(0)
    try:
        validate_gig_region(nu, delta, gamma)
    except DomainError as rule:
        untouched = rng.bit_generator.state
        with pytest.raises(DomainError, match=f"^{re.escape(str(rule))}$"):
            gig_rvs(nu, delta, gamma, rng, size=size)
        assert rng.bit_generator.state == untouched
        return
    # no NaN; inf is allowed, since for |nu| near 0 the law itself
    # puts most of its mass beyond the double range
    with np.errstate(over="ignore", divide="ignore"):
        z = np.asarray(gig_rvs(nu, delta, gamma, rng, size=size))
    assert np.all(z >= 0.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    nu=st.floats(0.5, 5.0),
    delta=st.sampled_from([1e-12, 1e-9, 1e-6]),
    gamma=st.floats(0.5, 2.0),
)
def test_gig_rvs_small_delta_tends_to_gamma(nu, delta, gamma):
    # GIG(nu > 0, delta -> 0, gamma) -> Gamma(nu, rate gamma^2 / 2)
    z = gig_rvs(nu, delta, gamma, np.random.default_rng(1), size=4000)
    assert scipy.stats.kstest(z, scipy.stats.gamma(nu, scale=2.0 / gamma**2).cdf).pvalue > 1e-3


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    nu=st.floats(-5.0, -0.5),
    delta=st.floats(0.5, 2.0),
    gamma=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
def test_gig_rvs_small_gamma_tends_to_inverse_gamma(nu, delta, gamma):
    # GIG(nu < 0, delta, gamma -> 0) -> InvGamma(-nu, scale delta^2 / 2)
    z = gig_rvs(nu, delta, gamma, np.random.default_rng(2), size=4000)
    law = scipy.stats.invgamma(-nu, scale=delta**2 / 2.0)
    assert scipy.stats.kstest(z, law.cdf).pvalue > 1e-3


# ---------------------------------------------------------------------------
# GH density
# ---------------------------------------------------------------------------

GH_GRID = [
    GhParams(0.0, -0.5, 1.0, 1.0),  # normal inverse Gaussian
    GhParams(0.0, 2.0, 0.0, 1.5),  # normal gamma
    GhParams(0.0, 1.0, 0.0, 1.0),  # Laplace
    GhParams(0.0, -2.0, 1.0, 0.0),  # Student-type
    GhParams(0.5, 0.7, 0.7, 1.3),
    GhParams(-1.0, -1.5, 2.0, 0.5),
]


def test_gh_laplace_closed_form():
    # nu=1, delta=0: Laplace with rate gamma, pdf gamma/2 exp(-gamma|x|)
    for gamma in [0.5, 1.0, 2.0]:
        p = GhParams(0.0, 1.0, 0.0, gamma)
        for x in [-2.0, -0.3, 0.0, 0.7, 3.0]:
            expected = math.log(gamma / 2.0) - gamma * abs(x)
            assert gh_log_pdf(p, x) == pytest.approx(expected, abs=1e-12)


def test_gh_laplace_at_zero_is_log_half():
    assert gh_log_pdf(GhParams(0.0, 1.0, 0.0, 1.0), 0.0) == pytest.approx(
        math.log(0.5), abs=1e-12
    )


@pytest.mark.parametrize("params", GH_GRID)
def test_gh_matches_scale_mixture_quadrature(params):
    xs = np.linspace(params.mu - 4.0, params.mu + 4.0, 21)
    for x in xs:
        ref = gh_pdf_by_mixture(params, float(x))
        assert gh_log_pdf(params, float(x)) == pytest.approx(math.log(ref), abs=1e-6)


def test_gh_symmetry_about_mu():
    p = GhParams(0.7, -0.5, 1.0, 1.2)
    for x in [-3.0, -1.0, 0.0, 2.5]:
        assert gh_log_pdf(p, x) == pytest.approx(gh_log_pdf(p, 2 * p.mu - x), abs=1e-12)


def test_gh_tiny_delta_uses_limit_branch():
    # the density must be continuous as delta -> 0
    lim = gh_log_pdf(GhParams(0.0, 1.0, 0.0, 1.0), 0.5)
    close = gh_log_pdf(GhParams(0.0, 1.0, 1e-13, 1.0), 0.5)
    assert close == pytest.approx(lim, abs=1e-10)


def test_gh_log_norm_rejects_the_student_law():
    # the split head + Bessel form needs gamma > 0; gh_log_pdf has the
    # gamma = 0 law in closed form
    with pytest.raises(DomainError, match="gamma > 0"):
        gh_log_norm(GhParams(0.0, -1.0, 1.0, 0.0))


def test_gh_grad_matches_finite_differences():
    h = 1e-6
    for params in GH_GRID:
        for x in [-1.3, 0.4, 2.0]:
            fd = (gh_log_pdf(params, x + h) - gh_log_pdf(params, x - h)) / (2 * h)
            assert gh_log_pdf_grad(params, x) == pytest.approx(fd, rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# mGH density
# ---------------------------------------------------------------------------


def test_mgh_reduces_to_gh_in_one_dimension():
    for gh in GH_GRID:
        m = MghParams(np.array([gh.mu]), gh.nu, gh.delta, gh.gamma, np.eye(1))
        for x in np.linspace(-3, 3, 13):
            assert mgh_log_pdf(m, np.array([x])) == pytest.approx(
                gh_log_pdf(gh, float(x)), abs=1e-12
            )


def test_mgh_group_lasso_special_case():
    # nu=(p+1)/2, delta=0, mu=0: density proportional to exp(-gamma ||x||_Sigma)
    p = 3
    sigma = np.array([[1.0, 0.3, 0.09], [0.3, 1.0, 0.3], [0.09, 0.3, 1.0]])
    gamma = 1.4
    params = MghParams(np.zeros(p), (p + 1) / 2.0, 0.0, gamma, sigma)
    sig_inv = np.linalg.inv(sigma)
    rng = np.random.default_rng(1)
    consts = []
    for _ in range(20):
        x = rng.normal(size=p) * 2.0
        norm = math.sqrt(x @ sig_inv @ x)
        consts.append(mgh_log_pdf(params, x) + gamma * norm)
    assert np.ptp(consts) < 1e-8


def test_mgh_integrates_to_one_2d():
    params = MghParams(np.zeros(2), 1.0, 0.5, 1.0, np.eye(2))
    grid = np.linspace(-12, 12, 401)
    pdf = np.array(
        [[math.exp(mgh_log_pdf(params, np.array([x, y]))) for y in grid] for x in grid]
    )
    total = np.trapezoid(np.trapezoid(pdf, grid, axis=1), grid)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_mgh_integrates_to_one_2d_correlated():
    sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
    params = MghParams(np.zeros(2), -0.5, 1.0, 1.0, sigma)
    grid = np.linspace(-14, 14, 501)
    pdf = np.array(
        [[math.exp(mgh_log_pdf(params, np.array([x, y]))) for y in grid] for x in grid]
    )
    total = np.trapezoid(np.trapezoid(pdf, grid, axis=1), grid)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_mgh_dimension_mismatch():
    params = MghParams(np.zeros(2), 1.0, 0.5, 1.0, np.eye(2))
    with pytest.raises(DomainError):
        mgh_log_pdf(params, np.zeros(3))
    with pytest.raises(DomainError):
        MghParams(np.zeros(3), 1.0, 0.5, 1.0, np.eye(2))
    with pytest.raises(DomainError):
        MghParams(np.zeros(2), 1.0, 0.5, 1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))


INPUT_ERRORS = [
    ("gh-mu-nan", lambda: GhParams(math.nan, 1.0, 0.5, 1.0), "mu must be finite, got nan"),
    ("gh-mu-inf", lambda: GhParams(math.inf, 1.0, 0.5, 1.0), "mu must be finite, got inf"),
    (
        "mgh-sigma-not-square",
        lambda: MghParams(np.zeros(2), 1.0, 0.5, 1.0, np.ones((2, 3))),
        "sigma must be square, got shape (2, 3)",
    ),
    (
        "mgh-sigma-not-symmetric",
        lambda: MghParams(np.zeros(2), 1.0, 0.5, 1.0, np.array([[2.0, 0.5], [0.4, 2.0]])),
        "sigma must be symmetric",
    ),
    (
        "gh-pdf-x-inf",
        lambda: gh_log_pdf(GhParams(0.0, 1.0, 0.5, 1.0), -math.inf),
        "x must be finite, got -inf",
    ),
]


@pytest.mark.parametrize(
    "call, message", [e[1:] for e in INPUT_ERRORS], ids=[e[0] for e in INPUT_ERRORS]
)
def test_bad_inputs_are_domain_errors(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# GH / mGH samplers
# ---------------------------------------------------------------------------


def test_gh_sampler_laplace_ks():
    gamma = 1.0
    p = GhParams(0.0, 1.0, 0.0, gamma)
    rng = np.random.default_rng(11)
    x = np.sort(gh_sample(p, rng, size=100_000))
    cdf = np.where(x < 0, 0.5 * np.exp(gamma * x), 1.0 - 0.5 * np.exp(-gamma * x))
    assert ks_statistic(x, cdf) < 0.01


def test_gh_sampler_student_iqr():
    p = GhParams(0.0, -1.0, 1.0, 0.0)
    rng = np.random.default_rng(12)
    x = np.sort(gh_sample(p, rng, size=100_000))
    cdf = gh_cdf_grid(p, x, -3000.0, 3000.0, 2_000_001)
    # interquartile points from the quadrature cdf
    q1 = np.interp(0.25, cdf, x)
    q3 = np.interp(0.75, cdf, x)
    s1, s3 = np.quantile(x, [0.25, 0.75])
    assert abs(s1 - q1) < 0.05 and abs(s3 - q3) < 0.05


def test_gh_sampler_mean_within_four_se():
    p = GhParams(0.5, 2.0, 0.5, 1.5)
    rng = np.random.default_rng(13)
    x = gh_sample(p, rng, size=100_000)
    assert abs(x.mean() - p.mu) < 4.0 * x.std() / math.sqrt(x.size)


def test_gh_sampler_ks_against_quadrature_cdf():
    p = GhParams(0.0, -0.5, 1.0, 1.0)
    rng = np.random.default_rng(14)
    x = np.sort(gh_sample(p, rng, size=100_000))
    cdf = gh_cdf_grid(p, x, x[0] - 1.0, x[-1] + 1.0, 400_001)
    # critical value at significance 1e-3
    crit = math.sqrt(-math.log(0.5e-3) / 2.0) / math.sqrt(x.size)
    assert ks_statistic(x, cdf) < crit


@pytest.mark.parametrize("size,shape", [(0, (0,)), ((), ()), (3, (3,)), ((2, 1), (2, 1))])
def test_gh_sample_sizes(size, shape):
    params = GhParams(0.5, -0.7, 1.5, 0.4)
    rng = np.random.default_rng(16)
    state = rng.bit_generator.state
    x = gh_sample(params, rng, size=size)
    assert np.shape(x) == shape
    # an empty draw takes nothing from the generator
    assert (rng.bit_generator.state == state) == (size == 0)


def test_gh_sample_one_draw_is_the_first_of_a_size_one_batch():
    params = GhParams(0.5, -0.7, 1.5, 0.4)
    rng_one, rng_batch = np.random.default_rng(17), np.random.default_rng(17)
    x = gh_sample(params, rng_one)
    assert isinstance(x, float)
    assert x == gh_sample(params, rng_batch, size=(1,))[0]
    assert rng_one.bit_generator.state == rng_batch.bit_generator.state


def test_mgh_sampler_moments():
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    params = MghParams(np.zeros(2), 2.0, 1.0, 2.0, sigma)
    rng = np.random.default_rng(15)
    draws = np.array([mgh_sample(params, rng) for _ in range(50_000)])
    from dynsparse import gig_moment as gm

    tau_mean = gm(params.mixing, 1)
    cov = np.cov(draws.T)
    assert np.allclose(draws.mean(axis=0), 0.0, atol=0.05)
    assert np.allclose(cov, tau_mean * sigma, atol=0.08)
