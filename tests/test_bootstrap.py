"""Bootstrap bias reduction: exact trivials, failure handling, paired MC."""

import numpy as np
import pytest

from gamgen import (
    BootstrapDegenerateError,
    DomainError,
    FamilyParams,
    InvalidSampleError,
    RngStream,
    Sample,
    bootstrap_bias_reduce,
    make_generator,
    native_estimator,
    relative_bias,
    rmse,
    sample as draw,
)
from gamgen.experiment import _BOOT_BIT, _run_cell


def test_constant_estimator_is_fixed_point():
    s = Sample([1.0, 2.0, 3.0])
    res = bootstrap_bias_reduce(s, lambda _: np.array([4.25]), 37, RngStream(1, 0))
    assert res.estimate.shape == (1,)
    assert res.estimate[0] == 4.25
    assert res.uncorrected[0] == 4.25
    assert res.n_used == 37
    assert res.n_excluded == 0


def test_single_observation_resample_is_identity():
    # n = 1: every resample equals the original, so theta* = theta_hat
    s = Sample([3.7])
    res = bootstrap_bias_reduce(s, lambda t: float(t.values.mean()), 1, RngStream(2, 0))
    assert res.estimate[0] == 3.7


def test_scalar_and_vector_estimators():
    s = Sample([1.0, 2.0, 4.0])
    vec = bootstrap_bias_reduce(
        s, lambda t: np.array([t.values.mean(), t.values.min()]), 25, RngStream(3, 0)
    )
    assert vec.estimate.shape == (2,)
    assert np.all(np.isfinite(vec.estimate))


def test_determinism():
    s = Sample([0.5, 1.5, 2.5, 3.5])
    est = lambda t: float(np.median(t.values))
    a = bootstrap_bias_reduce(s, est, 64, RngStream(5, 9))
    b = bootstrap_bias_reduce(s, est, 64, RngStream(5, 9))
    assert np.array_equal(a.estimate, b.estimate)
    c = bootstrap_bias_reduce(s, est, 64, RngStream(5, 10))
    assert not np.array_equal(a.estimate, c.estimate)


def test_failure_on_original_propagates():
    def failing(_):
        raise InvalidSampleError("nope")

    with pytest.raises(InvalidSampleError):
        bootstrap_bias_reduce(Sample([1.0, 2.0]), failing, 8, RngStream(7, 0))
    with pytest.raises(DomainError):
        bootstrap_bias_reduce(Sample([1.0, 2.0]), lambda t: 1.0, 0, RngStream(7, 1))


def test_all_replicates_failing_degenerates():
    calls = {"k": 0}

    def first_only(t):
        calls["k"] += 1
        if calls["k"] == 1:
            return 1.0
        raise InvalidSampleError("resample rejected")

    with pytest.raises(BootstrapDegenerateError):
        bootstrap_bias_reduce(Sample([1.0, 2.0, 3.0]), first_only, 5, RngStream(11, 0))
    # original + B attempts + redraw cap per row
    assert calls["k"] > 5


def test_partial_failures_are_excluded_and_counted():
    # estimator rejects any resample without the value 1.0 in it; with n = 3
    # some resamples drop it, so redraws and exclusions both occur
    def picky(t):
        if 1.0 not in t.values:
            raise InvalidSampleError("marker missing")
        return float(t.values.mean())

    res = bootstrap_bias_reduce(Sample([1.0, 2.0, 3.0]), picky, 200, RngStream(13, 0))
    assert res.n_used + res.n_excluded == 200
    assert res.n_used >= 1
    assert np.isfinite(res.estimate[0])


def test_relative_bias_trivials():
    assert relative_bias([2.0, 2.0], 2.0) == 0.0
    assert relative_bias([1.1, 0.9], 1.0) == pytest.approx(0.0, abs=1e-15)
    assert relative_bias([2.0, 2.0, 2.0], 1.0) == 1.0
    with pytest.raises(DomainError):
        relative_bias([], 1.0)
    with pytest.raises(DomainError):
        relative_bias([1.0], 0.0)


def test_rmse_trivials():
    assert rmse([3.0, 3.0], 3.0) == 0.0
    assert rmse([5.0, 3.0], 4.0) == 1.0
    assert rmse([3.0, 5.0], 4.0) == 1.0
    with pytest.raises(DomainError):
        rmse([], 1.0)


def test_paired_bias_reduction_gamma_mu5():
    # mean |theta* - theta| < mean |theta_hat - theta| for mu at n=20,
    # N=10^4 paired replications through the experiment kernel
    payload = (0, "gamma", {"mu": 5.0, "sigma": 1.0}, 20, 10_000, 50, 20260818, ("closed",))
    _, param_names, corrected, raw, _ = _run_cell(payload)
    assert param_names == ("mu", "sigma")
    star = corrected["closed"][:, 0]
    hat = raw["closed"][:, 0]
    ok = np.isfinite(star) & np.isfinite(hat)
    assert ok.mean() > 0.99
    mad_star = float(np.abs(star[ok] - 5.0).mean())
    mad_hat = float(np.abs(hat[ok] - 5.0).mean())
    assert mad_star < mad_hat


def test_vectorized_engine_matches_generic_bootstrap():
    # the experiment engine's matrix bootstrap must reproduce the generic
    # routine bit for bit when fed the same streams
    # n = 3 draws all-equal resamples, which both engines must redraw alike
    g = make_generator("gamma")
    seed, B = 424242, 40
    for n in (20, 3):
        payload = (0, "gamma", {"mu": 5.0, "sigma": 1.0}, n, 3, B, seed, ("closed", "ml"))
        _, _, corrected, raw, _ = _run_cell(payload)
        for rep in range(3):
            base_id = rep  # cell_idx = 0
            y = draw(n, FamilyParams(5.0, 1.0), g, RngStream(seed, base_id))
            for kind in ("closed", "ml"):
                est = native_estimator(g, kind, ("mu", "sigma"))
                assert np.array_equal(raw[kind][rep], est(Sample(y)))
                brng = RngStream(seed, base_id | _BOOT_BIT[kind])
                res = bootstrap_bias_reduce(Sample(y), est, B, brng)
                assert np.array_equal(res.estimate, corrected[kind][rep])


def test_ml_cell_at_n3_keeps_estimates_bounded():
    # an all-equal resample must be redrawn, not kept with an ML shape near
    # 1e15 from an H that rounded to a tiny positive value
    payload = (0, "gamma", {"alpha": 2.0, "beta": 0.5}, 3, 60, 50, 11, ("ml",))
    _, param_names, corrected, _, _ = _run_cell(payload)
    assert param_names == ("alpha", "beta")
    alpha = corrected["ml"][:, 0]
    assert np.all(np.isfinite(alpha))
    assert np.all(np.abs(alpha) < 1e10)
