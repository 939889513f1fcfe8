"""Bootstrap bias reduction: theta* = 2 theta_hat - mean of bootstrap fits.

Randomness is consumed in a fixed order so results are reproducible: the full
(B, n) index matrix is drawn first, every row is evaluated, and only then are
failed rows redrawn one at a time in ascending row order, up to MAX_REDRAWS
times each, before being excluded. _resample_estimates is that loop, and it
is the only one: bootstrap_bias_reduce runs it with a per-resample estimator
call, the study engine in experiment.py with a vectorized evaluation of row
means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distribution import Sample
from .errors import BootstrapDegenerateError, DomainError, GamgenError
from .estimators import _mean_last
from .special import RngStream

__all__ = ["BootstrapResult", "bootstrap_bias_reduce", "relative_bias", "rmse"]

MAX_REDRAWS = 10


def _resample_estimates(n: int, B: int, rng: RngStream, evaluate: Callable):
    """Estimates on B resamples of n indices: ((k, B) array, ok mask (B,)).

    evaluate maps an (m, n) index matrix to ((k, m) estimates, ok (m,)).
    Rows that still fail after MAX_REDRAWS redraws stay False in the mask.
    """
    theta, ok = evaluate(rng.integers(0, n, size=(B, n)))
    for b in np.nonzero(~ok)[0]:
        for _ in range(MAX_REDRAWS):
            # a scalar size: perfbench/layertrace.py counts redraws by it
            th, ok_row = evaluate(rng.integers(0, n, size=n)[None, :])
            if ok_row[0]:
                theta[:, b] = th[:, 0]
                ok[b] = True
                break
    return theta, ok


@dataclass(frozen=True)
class BootstrapResult:
    estimate: np.ndarray
    uncorrected: np.ndarray
    n_used: int
    n_excluded: int


def bootstrap_bias_reduce(
    sample: Sample,
    estimator: Callable[[Sample], np.ndarray],
    B: int,
    rng: RngStream,
) -> BootstrapResult:
    """Bias-reduced estimate 2 theta_hat - (1/B') sum_b theta_hat^(b).

    The estimator maps a Sample to a parameter vector (scalars are treated
    as length-1 vectors). It must succeed on the original sample; failures
    on bootstrap resamples (any library error) trigger redraws, then
    exclusion. All rows excluded raises BootstrapDegenerateError.
    """
    B = int(B)
    if B < 1:
        raise DomainError("bootstrap needs B >= 1")
    theta_hat = np.atleast_1d(np.asarray(estimator(sample), dtype=np.float64))
    values = sample.values

    def evaluate(idx):
        # (k, m) orientation so the replicate mean reduces over the last
        # axis, matching the vectorized experiment engine bit for bit
        rows = np.full((theta_hat.size, idx.shape[0]), np.nan)
        ok = np.zeros(idx.shape[0], dtype=bool)
        for b, row in enumerate(idx):
            try:
                rows[:, b] = np.atleast_1d(estimator(Sample(values[row])))
                ok[b] = True
            except GamgenError:
                pass
        return rows, ok

    rows, ok = _resample_estimates(sample.n, B, rng, evaluate)
    n_used = int(np.count_nonzero(ok))
    if n_used == 0:
        raise BootstrapDegenerateError("every bootstrap replicate failed")
    corrected = 2.0 * theta_hat - _mean_last(rows[:, ok])
    return BootstrapResult(
        estimate=corrected,
        uncorrected=theta_hat,
        n_used=n_used,
        n_excluded=B - n_used,
    )


def relative_bias(estimates, theta: float) -> float:
    """RB = |(mean(estimates) - theta) / theta| for theta != 0."""
    arr = np.asarray(estimates, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("relative bias of an empty list")
    theta = float(theta)
    if theta == 0.0:
        raise DomainError("relative bias needs theta != 0")
    return float(abs((np.mean(arr) - theta) / theta))


def rmse(estimates, theta: float) -> float:
    """Root mean square error around theta."""
    arr = np.asarray(estimates, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("rmse of an empty list")
    theta = float(theta)
    return float(np.sqrt(np.mean((arr - theta) ** 2)))
