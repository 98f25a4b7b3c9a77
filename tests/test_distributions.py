import math
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dynsparse import (
    DomainError,
    GhParams,
    GigParams,
    MghParams,
    gh_log_pdf,
    gh_sample,
    gig_log_pdf,
    gig_moment,
    gig_sample,
    mgh_log_pdf,
    mgh_sample,
)
from dynsparse.special import validate_gig_region
from dynsparse.distributions import _devroye_gig, _devroye_gig_one, gh_log_pdf_grad, gig_rvs
from helpers import (
    gh_cdf_grid,
    gh_pdf_by_mixture,
    gig_unnormalized,
    integrate_positive_halfline,
    ks_statistic,
    reference_devroye_gig,
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


def test_gig_sampler_exponential_limit():
    rng = np.random.default_rng(7)
    x = gig_sample(GigParams(1.0, 0.0, math.sqrt(2.0)), rng, size=100_000)
    assert abs(x.mean() - 1.0) < 4.0 * x.std() / math.sqrt(x.size)


@pytest.mark.parametrize("params", GIG_GRID)
def test_gig_sampler_mean_within_four_se(params):
    try:
        mean = gig_moment(params, 1)
        var = gig_moment(params, 2) - mean**2
    except DomainError:
        return
    rng = np.random.default_rng(42)
    x = gig_sample(params, rng, size=100_000)
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
    x = gig_sample(params, rng, size=100_000)
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


@settings(max_examples=300, deadline=None)
@given(
    lam=st.floats(-15.0, 15.0),
    omega=st.one_of(st.floats(1e-6, 1e3), st.floats(-6.0, 3.0).map(lambda e: 10.0**e)),
    seed=st.integers(0, 2**32 - 1),
)
@example(lam=0.0, omega=1e-6, seed=0)
@example(lam=0.0, omega=1.0, seed=1)
@example(lam=-15.0, omega=1e3, seed=2)
def test_devroye_scalar_kernel_matches_array_kernel(lam, omega, seed):
    # the scalar kernel returns the array kernel's n = 1 draw and leaves the
    # generator in the same state, over successive draws (lam < 0 swaps)
    rng_arr = np.random.default_rng(seed)
    rng_one = np.random.default_rng(seed)
    for _ in range(4):
        z_arr = _devroye_gig(np.array([lam]), omega, rng_arr)[0]
        z_one = _devroye_gig_one(lam, omega, rng_one)
        assert z_one == z_arr
        assert rng_one.bit_generator.state == rng_arr.bit_generator.state


def test_devroye_scalar_kernel_matches_array_kernel_on_a_sweep():
    # dense random sweep: a last-bit difference in the setup (say scalar
    # x ** 2 for x * x, ~1e-3 of inputs) changes the draw
    pars = np.random.default_rng(21)
    lams = pars.uniform(-15.0, 15.0, 10_000)
    omegas = 10.0 ** pars.uniform(-6.0, 3.0, 10_000)
    rng_arr = np.random.default_rng(22)
    rng_one = np.random.default_rng(22)
    for lam, omega in zip(lams, omegas):
        assert _devroye_gig_one(lam, omega, rng_one) == _devroye_gig(
            np.array([lam]), omega, rng_arr
        )[0], (lam, omega)
    assert rng_one.bit_generator.state == rng_arr.bit_generator.state


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
    # the largest omega whose square is finite still draws, in both kernels
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


@pytest.mark.parametrize("nu,delta,gamma", [(1.5, 0.0, 2.0), (-2.0, 1.5, 0.0)])
def test_gig_rvs_size_one_boundary_routes(nu, delta, gamma):
    # a gamma / inverse-gamma draw is one generator call per element, so
    # k size-1 draws equal one batch of k
    rng_one = np.random.default_rng(5)
    rng_batch = np.random.default_rng(5)
    singles = [gig_rvs(nu, delta, gamma, rng_one) for _ in range(6)]
    batch = gig_rvs(nu, delta, gamma, rng_batch, size=6)
    assert all(isinstance(z, float) for z in singles)
    assert np.array_equal(singles, batch)
    assert rng_one.bit_generator.state == rng_batch.bit_generator.state


@pytest.mark.parametrize(
    "nu,delta,gamma,match",
    [
        (-1.0, 0.0, 1.0, "delta = 0 requires nu > 0"),
        (0.5, 1.0, 0.0, "gamma = 0 requires nu < 0"),
        (0.5, -1.0, 1.0, "finite lam and omega > 0"),
        (-3.0, -1.0, -1.0, "delta and gamma must be nonnegative"),
        (np.nan, 1.0, 1.0, "finite lam and omega > 0"),
    ],
)
def test_gig_rvs_size_one_errors_match_batch(nu, delta, gamma, match):
    rng = np.random.default_rng(0)
    for size in (None, (1,), 3):
        with pytest.raises(DomainError, match=match):
            gig_rvs(nu, delta, gamma, rng, size=size)


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
    except DomainError:
        with pytest.raises(DomainError):
            gig_rvs(nu, delta, gamma, rng, size=size)
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
