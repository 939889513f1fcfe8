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
    parse_generator_spec,
    relative_bias,
    rmse,
    sample as draw,
)
from gamgen.bootstrap import MAX_REDRAWS, _BLOCK_VALUES, _draw_blocks, _resample_estimates
from gamgen import experiment
from gamgen.experiment import _BOOT_BIT, _run_cell


def _sequential_resample(n, B, rng, evaluate):
    """Reference: every failed row redrawn on its own, one row per call."""
    theta, ok = evaluate(rng.integers(0, n, size=(B, n)))
    for b in np.nonzero(~ok)[0]:
        for _ in range(MAX_REDRAWS):
            th, ok_row = evaluate(rng.integers(0, n, size=n)[None, :])
            if ok_row[0]:
                theta[:, b] = th[:, 0]
                ok[b] = True
                break
    return theta, ok


def _one_sample(evaluate):
    """The (s, idx) block form of an evaluate that takes the index matrix."""
    return lambda blocks: evaluate(np.concatenate([idx for _, idx in blocks]))


class _Scripted:
    """An evaluate that numbers the rows it sees in order and rejects the
    numbers in ``reject`` (or, with reject=None, the all-equal rows)."""

    def __init__(self, reject=None):
        self.reject = reject
        self.rows = 0
        self.calls = 0

    def __call__(self, idx):
        seq = np.arange(self.rows, self.rows + idx.shape[0])
        self.rows += idx.shape[0]
        self.calls += 1
        if self.reject is None:
            ok = np.ptp(idx, axis=1) != 0
        else:
            ok = ~np.isin(seq, self.reject)
        theta = np.vstack([idx.sum(axis=1) + 0.25 * seq, seq.astype(np.float64)])
        return np.where(ok, theta, np.nan), ok


def test_resample_rounds_match_one_row_redraws():
    B, n = 12, 5
    tries = MAX_REDRAWS
    # initial rows 2, 5, 9 fail; row 2 succeeds on its last try, row 5 runs
    # out of tries, row 9 succeeds on its first
    first = B + tries - 1
    reject = [2, 5, 9, *range(B, first), *range(first + 1, first + 1 + tries)]
    rounds, sequential = _Scripted(reject), _Scripted(reject)
    rng_a, rng_b = RngStream(21, 4), RngStream(21, 4)
    theta, ok = _resample_estimates(n, B, (rng_a,), _one_sample(rounds))
    ref_theta, ref_ok = _sequential_resample(n, B, rng_b, sequential)
    assert np.array_equal(theta, ref_theta, equal_nan=True)
    assert np.array_equal(ok, ref_ok)
    assert list(np.nonzero(~ok)[0]) == [5]
    assert theta[1, 2] == first and theta[1, 9] == first + 1 + tries
    assert rounds.rows == sequential.rows == first + 2 + tries
    assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)


def test_resample_rounds_batch_the_redraws():
    B, n = 200, 3
    rounds, sequential = _Scripted(), _Scripted()
    rng_a, rng_b = RngStream(8, 1), RngStream(8, 1)
    theta, ok = _resample_estimates(n, B, (rng_a,), _one_sample(rounds))
    ref_theta, ref_ok = _sequential_resample(n, B, rng_b, sequential)
    assert np.array_equal(theta, ref_theta, equal_nan=True)
    assert np.array_equal(ok, ref_ok)
    assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)
    redraws = rounds.rows - B
    assert redraws == sequential.rows - B > 10
    assert rounds.calls < redraws


def _judge(s, idx):
    """Estimates of sample s's rows that depend on nothing but the row: sample
    0 keeps every row, 1 rejects all-equal rows, 2 rejects every row and 3
    rejects rows that start with index 0."""
    verdict = (
        np.ones(idx.shape[0], dtype=bool),
        np.ptp(idx, axis=1) != 0,
        np.zeros(idx.shape[0], dtype=bool),
        idx[:, 0] != 0,
    )[s]
    theta = np.vstack([idx.sum(axis=1) + 0.5 * s, idx[:, 0].astype(np.float64)])
    return np.where(verdict, theta, np.nan), verdict


def test_resample_rounds_match_one_row_redraws_per_stream():
    # several samples, each on its own stream, resolved in shared rounds: each
    # must get the estimates, mask and stream position of its own one-row
    # redraw loop; n = 400 draws the initial matrices in several row blocks
    for n, B in ((3, 30), (400, 90)):
        calls = []

        def evaluate(blocks):
            parts = [_judge(s, idx) for s, idx in blocks]
            calls.append(len(parts))
            return (np.concatenate([t for t, _ in parts], axis=1),
                    np.concatenate([ok for _, ok in parts]))

        streams = [RngStream(5, 100 + s) for s in range(4)]
        theta, ok = _resample_estimates(n, B, streams, evaluate)
        assert theta.shape == (2, 4 * B) and ok.shape == (4 * B,)
        redraws = 0
        for s in range(4):
            ref_rng = RngStream(5, 100 + s)
            seen = []

            def one_sample(idx, s=s):
                seen.append(idx.shape[0])
                return _judge(s, idx)

            ref_theta, ref_ok = _sequential_resample(n, B, ref_rng, one_sample)
            cols = slice(s * B, (s + 1) * B)
            assert np.array_equal(theta[:, cols], ref_theta, equal_nan=True)
            assert np.array_equal(ok[cols], ref_ok)
            assert streams[s].integers(0, 2**62) == ref_rng.integers(0, 2**62)
            redraws += sum(seen) - B
        assert not ok[2 * B:3 * B].any() and ok[:B].all()
        assert redraws >= B * MAX_REDRAWS
        assert len(calls) - 1 < redraws


def test_row_blocks_draw_the_values_of_one_matrix():
    # the engine draws each (B, n) index matrix in row blocks; numpy must fill
    # them with the values of one (B, n) call and leave the stream where that
    # call leaves it, or every study CSV moves
    splits = np.random.default_rng(0)
    B = 37
    for n in (*range(2, 70), 127, 128, 129, 255, 256, 400, 600, 1000, 4096, 20000):
        whole = RngStream(3, n)
        ref = whole.integers(0, n, size=(B, n))
        after = whole.integers(0, n, size=n)
        cuts = np.sort(splits.choice(np.arange(1, B), size=4, replace=False))
        blocked = RngStream(3, n)
        parts = [blocked.integers(0, n, size=(hi - lo, n))
                 for lo, hi in zip((0, *cuts), (*cuts, B))]
        assert np.array_equal(np.concatenate(parts), ref)
        assert np.array_equal(blocked.integers(0, n, size=n), after)
        engine = RngStream(3, n)
        blocks = [idx for _, idx in _draw_blocks(n, B, [engine])]
        assert np.array_equal(np.concatenate(blocks), ref)
        assert all(b.size <= max(n, _BLOCK_VALUES) for b in blocks)
        assert np.array_equal(engine.integers(0, n, size=n), after)


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
                # a plain wrapper has no resample_evaluator: one call per resample
                res = bootstrap_bias_reduce(Sample(y), lambda s: est(s), B, brng)
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


def _bootstrap_outcome(y, est, B, stream):
    """Everything a bootstrap call returns, and the next draw of its stream."""
    rng = RngStream(77, stream)
    res = bootstrap_bias_reduce(Sample(y), est, B, rng)
    return res.estimate, res.uncorrected, res.n_used, res.n_excluded, rng.integers(0, 2**62)


def test_native_evaluator_matches_per_resample_calls():
    # the means-based evaluator that native_estimator attaches must give the
    # bits of one estimator call per resample; n = 3 draws all-equal
    # resamples, which both paths must redraw alike, and at n = 9000 the
    # evaluator sums one-row blocks
    cases = (
        ("gamma", FamilyParams(2.0, 1.5)),
        ("new-log-generalized-gamma(delta=1)", FamilyParams(1.5, 2.0)),
        ("dagum(c=2)", FamilyParams(3.0, 0.5)),
    )
    for gi, (spec, params) in enumerate(cases):
        g = parse_generator_spec(spec)
        for n in (3, 20, 9000):
            y = draw(n, params, g, RngStream(31, 100 * gi + n))
            for kind in ("closed", "ml"):
                est = native_estimator(g, kind)
                assert hasattr(est, "resample_evaluator")
                for B in (8, 200):
                    stream = 1000 * gi + 10 * n + B
                    fast = _bootstrap_outcome(y, est, B, stream)
                    slow = _bootstrap_outcome(y, lambda s: est(s), B, stream)
                    for a, b in zip(fast, slow):
                        assert np.array_equal(a, b)
    # maps that raise to a power other than 1: numpy's array ** and C pow
    # differ in the last bit on some bases, so both paths must use the first
    for spec in ("weibull(delta=2)", "generalized-gamma(delta=2)",
                 "generalized-gamma(delta=0.7)", "inverse-weibull(delta=1.5)"):
        g = parse_generator_spec(spec)
        for seed in range(16):
            y = draw(20, FamilyParams(2.0, 1.0), g, RngStream(41, seed))
            for kind in ("closed", "ml"):
                est = native_estimator(g, kind)
                fast = _bootstrap_outcome(y, est, 50, seed)
                slow = _bootstrap_outcome(y, lambda s: est(s), 50, seed)
                for a, b in zip(fast, slow):
                    assert np.array_equal(a, b), (spec, seed, kind)


def test_native_estimator_runs_once_per_bootstrap(monkeypatch):
    calls = []
    original = experiment.estimate_sigma

    def counted(s, g):
        calls.append(s.n)
        return original(s, g)

    monkeypatch.setattr(experiment, "estimate_sigma", counted)
    g = make_generator("gamma")
    y = draw(20, FamilyParams(2.0, 1.0), g, RngStream(5, 5))
    for kind in ("closed", "ml"):
        calls.clear()
        res = bootstrap_bias_reduce(Sample(y), native_estimator(g, kind), 50, RngStream(5, 6))
        assert res.n_used == 50
        assert calls == [20]
