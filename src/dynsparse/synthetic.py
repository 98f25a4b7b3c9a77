"""Bundled synthetic ground truth for demos and end-to-end checks.

A piecewise signal with quiet stretches, constant shelves, and an
alternating-sign burst, observed under additive Gaussian noise through
an identity design.  The change points are exposed so tests can score
detection behavior against them.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError
from .map_em import RegressionData

__all__ = ["synthetic_regression", "CHANGE_POINTS"]

# segment boundaries of the T = 120 signal (start indices)
CHANGE_POINTS = (20, 45, 60, 80, 100)


def _piecewise_signal(T: int) -> NDArray[np.float64]:
    """Ground truth: zeros, a +4 shelf, zeros, an alternating +/-5 burst,
    a -3 shelf, zeros.  Longer T stretches the trailing zero segment;
    shorter T truncates."""
    if T < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    truth = np.zeros(max(T, 120))
    truth[20:45] = 4.0
    burst = np.empty(20)
    burst[0::2] = 5.0
    burst[1::2] = -5.0
    truth[60:80] = burst
    truth[80:100] = -3.0
    return truth[:T]


def synthetic_regression(
    T: int, sigma: float, rng: np.random.Generator
) -> tuple[RegressionData, NDArray[np.float64]]:
    """Noisy scalar observations of the piecewise signal (identity design)."""
    truth = _piecewise_signal(T)
    ys = [np.array([truth[t] + sigma * rng.standard_normal()]) for t in range(T)]
    Xs = [np.eye(1)] * T
    return RegressionData(ys, Xs), truth
