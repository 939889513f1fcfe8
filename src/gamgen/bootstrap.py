"""Bootstrap bias reduction: theta* = 2 theta_hat - mean of bootstrap fits.

Randomness is consumed in a fixed order so results are reproducible: the full
(B, n) index matrix is drawn first, every row is evaluated, and only then are
failed rows redrawn in ascending row order, up to MAX_REDRAWS times each,
before being excluded. The redraws are evaluated in rounds: a round draws one
candidate row per still-unresolved resample, evaluates them all in one call
and hands them out in draw order, the current row taking candidates until one
succeeds or its tries run out. Every unresolved row needs at least one more
candidate, so each drawn row is used, and the stream is consumed exactly as by
one row at a time. _resample_estimates is that loop, and it is the only one.

A resample is evaluated in one of two ways. An estimator from
experiment.native_estimator carries a resample_evaluator: the pointwise rows
of the sample are computed once, and each resample's estimate comes from the
means of those rows gathered through its index row, one contiguous row per
estimator input (experiment._resample_evaluator). The study engine and
bootstrap_bias_reduce both use it. Any other estimator is called once per
resample on a new Sample. Both give the same bits for the native estimators,
which tests pin.
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

    evaluate maps an (m, n) index matrix to ((k, m) estimates, ok (m,)), row
    by row, so a row's result does not depend on the rows evaluated with it.
    Failed rows are redrawn in rounds of one candidate per unresolved row,
    drawn one row at a time and assigned in ascending row order, which takes
    the same draws and gives the same result as redrawing each row on its
    own. Rows that still fail after MAX_REDRAWS redraws stay False in the mask.
    """
    theta, ok = evaluate(rng.integers(0, n, size=(B, n)))
    pending = np.nonzero(~ok)[0]
    i = tries = 0
    while i < pending.size:
        # scalar sizes: perfbench/layertrace.py counts redraws by them
        idx = np.stack([rng.integers(0, n, size=n) for _ in range(pending.size - i)])
        th, ok_rows = evaluate(idx)
        for j in range(idx.shape[0]):
            b = pending[i]
            tries += 1
            if ok_rows[j]:
                theta[:, b] = th[:, j]
                ok[b] = True
            if ok_rows[j] or tries == MAX_REDRAWS:
                i += 1
                tries = 0
    return theta, ok


def _per_resample(estimator: Callable, values: np.ndarray, k: int) -> Callable:
    """An evaluate that calls the estimator on each resample; a library error
    marks the row failed."""

    def evaluate(idx):
        # (k, m) orientation so the replicate mean reduces over the last
        # axis, matching the vectorized experiment engine bit for bit
        rows = np.full((k, idx.shape[0]), np.nan)
        ok = np.zeros(idx.shape[0], dtype=bool)
        for b, row in enumerate(idx):
            try:
                rows[:, b] = np.atleast_1d(estimator(Sample(values[row])))
                ok[b] = True
            except GamgenError:
                pass
        return rows, ok

    return evaluate


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

    An estimator with a ``resample_evaluator`` attribute (those made by
    native_estimator) runs once, on the original sample; its evaluator then
    estimates every resample, redraws included, from gathered row means.
    Any other callable is called once per resample.
    """
    B = int(B)
    if B < 1:
        raise DomainError("bootstrap needs B >= 1")
    theta_hat = np.atleast_1d(np.asarray(estimator(sample), dtype=np.float64))
    build = getattr(estimator, "resample_evaluator", None)
    if build is not None:
        evaluate = build(sample)
    else:
        evaluate = _per_resample(estimator, sample.values, theta_hat.size)
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
