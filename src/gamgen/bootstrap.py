"""Bootstrap bias reduction: theta* = 2 theta_hat - mean of bootstrap fits.

Randomness is consumed in a fixed order so results are reproducible. Every
sample owns one stream: its (B, n) index matrix is drawn first, every row is
evaluated, and only then are failed rows redrawn in ascending row order, up to
MAX_REDRAWS times each, before being excluded. The index matrix is drawn in
row blocks of at most _BLOCK_VALUES indices, which numpy fills with the same
values as one (B, n) draw. _resample_estimates is that loop, and it is the
only one. It runs any number of samples at once, each on its own stream: the
study engine passes the replications of a cell, bootstrap_bias_reduce one
sample. The redraws go in rounds: a round draws, from each sample's stream,
one candidate row per still-unresolved resample of that sample, evaluates the
candidates of every sample in one call and hands them out per sample in draw
order, the current row taking candidates until one succeeds or its tries run
out. Every unresolved row needs at least one more candidate, so each drawn
row is used, and each stream is consumed exactly as by one row at a time.

A resample is evaluated in one of two ways. An estimator from
experiment.native_estimator carries a resample_evaluator: the pointwise rows
of the sample are computed once, and each resample's estimate comes from the
means of those rows gathered through its index row, one contiguous row per
estimator input, with one estimate call over all the rows evaluated together
(experiment._resample_evaluator). The study engine and
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

# Indices per block of a drawn index matrix. 15 000 int64 indices, and the
# float64 values gathered through them, take 120 000 bytes: below glibc's
# 128 KiB mmap threshold, so a block comes from the heap and is reused, not
# mapped fresh, page-faulted in and unmapped again for every resample matrix.
_BLOCK_VALUES = 15_000


def _draw_blocks(n: int, B: int, rngs):
    """(s, block) pairs: each stream's (B, n) index matrix in row blocks of
    at most _BLOCK_VALUES indices (one row when n exceeds it)."""
    rows = max(1, _BLOCK_VALUES // n)
    for s, rng in enumerate(rngs):
        for start in range(0, B, rows):
            yield s, rng.integers(0, n, size=(min(rows, B - start), n))


def _resample_estimates(n: int, B: int, rngs, evaluate: Callable):
    """Estimates on B resamples of n indices for each of S samples:
    ((k, S B) array, ok mask (S B,)); sample s owns columns s B to s B + B - 1.

    rngs is a sequence of S RngStreams, one per sample, and evaluate maps an
    iterable of (s, idx) pairs, each an (m, n) index block of sample s, to
    ((k, M) estimates, ok (M,)) for their M rows in order. evaluate works
    row by row, so a row's result does not depend on the rows evaluated
    with it. Failed rows are redrawn in rounds of one candidate per
    unresolved row of every sample, drawn one row at a time from the
    sample's stream and assigned in ascending row order, which takes the
    same draws and gives the same result as redrawing each row on its own.
    Rows that still fail after MAX_REDRAWS redraws stay False in the mask.
    """
    theta, ok = evaluate(_draw_blocks(n, B, rngs))
    pending = [np.nonzero(~ok[s * B:(s + 1) * B])[0] + s * B for s in range(len(rngs))]
    done = [0] * len(rngs)
    tries = [0] * len(rngs)
    while True:
        # scalar sizes: perfbench/layertrace.py counts redraws by them
        draws = [
            (s, np.stack([rngs[s].integers(0, n, size=n) for _ in range(rows.size - done[s])]))
            for s, rows in enumerate(pending)
            if done[s] < rows.size
        ]
        if not draws:
            return theta, ok
        th, ok_rows = evaluate(draws)
        j = 0
        for s, idx in draws:
            for _ in range(idx.shape[0]):
                b = pending[s][done[s]]
                tries[s] += 1
                if ok_rows[j]:
                    theta[:, b] = th[:, j]
                    ok[b] = True
                if ok_rows[j] or tries[s] == MAX_REDRAWS:
                    done[s] += 1
                    tries[s] = 0
                j += 1


def _per_resample(estimator: Callable, values: np.ndarray, k: int) -> Callable:
    """An evaluate that calls the estimator on each resample of one sample's
    (s, idx) blocks; a library error marks the row failed."""

    def evaluate(blocks):
        idx = np.concatenate([block for _, block in blocks])
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
    native_estimator) runs once, on the original sample, after the evaluator
    is built from it; the evaluator then estimates every resample, redraws
    included, from gathered row means. Any other callable is called once per
    resample.
    """
    B = int(B)
    if B < 1:
        raise DomainError("bootstrap needs B >= 1")
    build = getattr(estimator, "resample_evaluator", None)
    # built first: it computes the pointwise rows once and leaves their means
    # where the estimator reads them
    evaluate = build(sample) if build is not None else None
    theta_hat = np.atleast_1d(np.asarray(estimator(sample), dtype=np.float64))
    if evaluate is None:
        evaluate = _per_resample(estimator, sample.values, theta_hat.size)
    rows, ok = _resample_estimates(sample.n, B, (rng,), evaluate)
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
