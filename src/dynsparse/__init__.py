"""Dynamic sparse Bayesian linear regression with generalized hyperbolic priors."""

from .distributions import (
    GhParams,
    GigParams,
    MghParams,
    gh_log_pdf,
    gh_sample,
    gig_log_pdf,
    gig_moment,
    log_gig_normalizer,
    mgh_log_pdf,
    mgh_sample,
)
from .errors import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    DynsparseError,
    NumericalError,
)
from .group_lasso import run_sliding_window, solve_window
from .io import ParseError, load_data, verify_dir
from .map_em import MapFit, RegressionData, em_map_step, run_online_map
from .prior import (
    ModelConfig,
    autocorrelation,
    conditional_gh,
    simulate_d_chain,
    simulate_path,
    window_correlation,
)
from .smc import (
    PosteriorChain,
    PosteriorSummary,
    pimh_run,
    posterior_summary,
    smc_run,
)
from .special import log_bessel_k
from .synthetic import CHANGE_POINTS, synthetic_regression

__version__ = "0.1.0"
