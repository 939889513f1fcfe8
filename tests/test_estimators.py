"""Closed-form and ML estimators: frozen oracles, identities, and consistency."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gamgen import (
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    FamilyParams,
    FullMlFit,
    GamgenError,
    InvalidSampleError,
    NoRootInBracketError,
    OverflowInValue,
    RngStream,
    Sample,
    digamma,
    estimate_mu_closed,
    estimate_mu_ml,
    estimate_sigma,
    estimating_equation_bias,
    fit_family,
    fit_full_ml,
    fit_new_log_generalized_gamma,
    log_likelihood,
    make_generator,
    ml_equation_rhs,
    profile_mu,
    profile_sigma,
    sample as draw,
    score_vector,
)
from gamgen import cli, estimators, experiment
from gamgen.estimators import (
    _from_means,
    _mean_last,
    _mu_closed_from_means,
    _solve_mu_ml_array,
    _solve_mu_ml_one,
)

from conftest import CATALOG_SWEEP, POWER_LAW_SWEEP, random_param_points, sweep_ids

GAMMA = make_generator("gamma")
S123 = Sample([1.0, 2.0, 3.0])

# frozen oracles for the sample {1, 2, 3} with T1 = x, computed once by
# independent high-precision evaluation of Eq.-level arithmetic
MU_CLOSED_123 = 5.461435359761023
H_123 = 0.09589402415059367
MU_ML_123 = 5.375209483693554
EULER = 0.5772156649015329


def _reduction_mu(values, s):
    # 1/mu = mean(v ln v)/mean(v) - mean(ln v) with v = y^{-s}
    v = np.asarray(values, dtype=np.float64) ** (-s)
    lv = np.log(v)
    inv = float(np.mean(v * lv) / np.mean(v) - np.mean(lv))
    return 1.0 / inv


def test_sigma_pins():
    assert estimate_sigma(S123, GAMMA) == 0.5
    assert estimate_sigma(Sample([1.0, 1.0, 1.0]), make_generator("nakagami")) == 1.0
    nlgg = make_generator("new-log-generalized-gamma", delta=1.0)
    lg2 = math.log(2.0)
    assert abs(estimate_sigma(Sample([lg2, lg2]), nlgg) - 1.0) < 1e-14


def test_mu_closed_frozen_oracle():
    mu = estimate_mu_closed(S123, GAMMA)
    assert abs(mu - MU_CLOSED_123) < 1e-12
    # independent reduction route for T1 = x (s = -1)
    assert abs(mu - _reduction_mu([1.0, 2.0, 3.0], -1.0)) <= 1e-10 * mu
    # spec's spelled-out arithmetic for the reduction
    inv = (2.0 * math.log(2.0) + 3.0 * math.log(3.0)) / (3.0 * 2.0) - math.log(6.0) / 3.0
    assert abs(mu - 1.0 / inv) < 1e-12


def test_mu_closed_errors():
    with pytest.raises(DegenerateSampleError):
        estimate_mu_closed(Sample([2.0, 2.0]), GAMMA)
    with pytest.raises(DegenerateSampleError):
        estimate_mu_closed(Sample([5.0]), GAMMA)
    # a near-tie drives the denominator to roundoff scale, where it lands
    # nonpositive; must surface as an error, never a clamped value
    near_tie = [0.3, 0.3 * (1.0 + 1e-9), 0.3, 0.3]
    nlgg = make_generator("new-log-generalized-gamma", delta=1.0)
    with pytest.raises(InvalidSampleError):
        estimate_mu_closed(Sample(near_tie), nlgg)


def test_mu_closed_large_n_consistency():
    y = draw(1_000_000, FamilyParams(3.0, 2.0), GAMMA, RngStream(37, 0))
    assert abs(estimate_mu_closed(Sample(y), GAMMA) - 3.0) < 0.05


def test_ml_equation_rhs():
    assert ml_equation_rhs(Sample([4.0, 4.0]), GAMMA) == 0.0
    h = ml_equation_rhs(S123, GAMMA)
    assert abs(h - H_123) < 1e-14
    assert abs(h - (math.log(2.0) - math.log(6.0) / 3.0)) < 1e-14
    # {1, e, e^2}: ln((1+e+e^2)/3) - 1 by direct arithmetic
    s = Sample([1.0, math.e, math.e**2])
    assert abs(ml_equation_rhs(s, GAMMA) - 0.3089936757762706) < 1e-13
    assert ml_equation_rhs(Sample([0.5, 1.0, 7.0]), GAMMA) > 0.0


def test_mu_ml_frozen_oracle():
    mu, diag = estimate_mu_ml(S123, GAMMA)
    assert abs(mu - MU_ML_123) < 1e-10
    assert abs(diag.residual) <= 1e-10
    assert diag.iterations <= 200
    assert diag.bracket[0] < mu < diag.bracket[1]
    # theorem bound for this sample
    assert MU_CLOSED_123 < 2.0 * mu


def test_mu_ml_constructed_fixed_points():
    h = np.array([EULER, math.log(2.0) - digamma(2.0)])
    m, iters, resid, _, converged = _solve_mu_ml_array(h)
    assert converged.all()
    assert abs(m[0] - 1.0) < 1e-8
    assert abs(m[1] - 2.0) < 1e-8
    assert np.all(np.abs(resid) <= 1e-10)
    assert np.all(iters <= 200)


def _separate_pass_solve_mu_ml(h, steps=400):
    # estimators._solve_mu_ml_array with a digamma pass of its own for f(lo),
    # f(hi) and f(mu0), and two per Newton step: the sides, then f(new);
    # steps=200 is the solve that halved the bracket up to its last step
    h = np.asarray(h, dtype=np.float64)

    def f(m):
        return np.log(m) - estimators._digamma(m) - h

    def f_at(m, idx):
        return np.log(m) - estimators._digamma(m) - h[idx]

    mu0 = (3.0 + np.sqrt(9.0 + 12.0 * h)) / (12.0 * h)
    mu0 = np.where(12.0 * h < np.inf, mu0, np.sqrt(1.0 / 12.0 / h))
    lo = mu0 / 10.0
    hi = mu0 * 10.0
    flo = f(lo)
    for _ in range(300):
        bad = flo < 0.0
        if not bad.any():
            break
        lo[bad] /= 4.0
        flo[bad] = f_at(lo[bad], bad)
    fhi = f(hi)
    for _ in range(300):
        bad = fhi > 0.0
        if not bad.any():
            break
        hi[bad] *= 4.0
        fhi[bad] = f_at(hi[bad], bad)
    bracketed = (flo >= 0.0) & (fhi <= 0.0)
    bracket0 = (lo.copy(), hi.copy())
    m = np.clip(mu0, lo * 1.0000000001, hi * 0.9999999999)
    fm = f(m)
    iters = np.zeros(h.shape, dtype=np.int64)
    active = bracketed & (np.abs(fm) > 1e-12)
    for it in range(steps):
        if not active.any():
            break
        pos = active & (fm > 0.0)
        lo[pos] = m[pos]
        neg = active & (fm < 0.0)
        hi[neg] = m[neg]
        ma = m[active]
        ha = h[active]
        step = ma * 1e-7
        sides = np.concatenate([ma + step, ma - step])
        lhs = np.log(sides) - estimators._digamma(sides)
        k = ma.size
        fp = ((lhs[:k] - ha) - (lhs[k:] - ha)) / (2.0 * step)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ma - fm[active] / fp
        inside = np.isfinite(newton) & (newton > lo[active]) & (newton < hi[active])
        if it < 200:
            mid = 0.5 * (lo[active] + hi[active])
        else:
            mid = np.sqrt(lo[active]) * np.sqrt(hi[active])
        newton = np.where(inside, newton, mid)
        m[active] = newton
        fm[active] = f_at(newton, active)
        iters[active] += 1
        active = bracketed & (np.abs(fm) > 1e-12)
        stuck = active & ((hi - lo) <= np.spacing(lo) * 4.0)
        if stuck.any():
            active = active & ~stuck
    return m, iters, fm, bracket0, bracketed & ~active


def _resample_h(n, reps, seed):
    # H of the bootstrap resamples of gamma samples of size n, ties included
    y = draw(n * reps, FamilyParams(0.8, 1.0), GAMMA, RngStream(seed, 0)).reshape(reps, n)
    idx = RngStream(seed, 1).integers(0, n, size=(reps, n))
    r = np.take_along_axis(y, idx, axis=1)
    h = np.log(r.mean(axis=1)) - np.log(r).mean(axis=1)
    return h[h > 0.0]


EXTREME_H = np.array([5e-324, 1e-310, 1e-200, 1e-40, 1e-17, 1e-16, 3e-16, 1e3, 1e8,
                      1e16, 1e100, 1e200, 1e306, 1.5e307, 1e308])


@pytest.mark.parametrize("case", ["grid", "resamples", "extreme"])
def test_solver_keeps_the_bits_of_separate_passes(case):
    h = {
        "grid": np.geomspace(1e-14, 1e4, 20_001),
        "resamples": _resample_h(3, 20_000, 101),
        "extreme": EXTREME_H,
    }[case]
    # the extreme entries overflow mu0 or w * w, as they always have
    with np.errstate(all="ignore"):
        got = _solve_mu_ml_array(h.copy())
        want = _separate_pass_solve_mu_ml(h.copy())
    for a, b in zip(got[:3] + got[3] + got[4:], want[:3] + want[3] + want[4:]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


@pytest.mark.parametrize("case", ["grid", "resamples", "extreme"])
def test_float_solver_keeps_the_bits_of_the_array_solver(case):
    h = {
        "grid": np.geomspace(1e-14, 1e4, 20_001),
        "resamples": _resample_h(3, 20_000, 101),
        "extreme": EXTREME_H,
    }[case]
    with np.errstate(all="ignore"):
        root, iters, resid, (lo, hi), converged = _solve_mu_ml_array(h.copy())
    # Python floats give numpy's inf and nan, with no warning and no raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [_solve_mu_ml_one(v) for v in h.tolist()]
    assert {tuple(type(v) for v in one) for one in got} == {(float, int, float, tuple, bool)}
    for want, col in zip((root, iters, resid, lo, hi, converged),
                         zip(*[(r, k, f, a, b, c) for r, k, f, (a, b), c in got])):
        assert np.array_equal(np.array(col, dtype=want.dtype), want,
                              equal_nan=want.dtype.kind == "f")


def test_fits_solve_in_python_floats(monkeypatch):
    # fit_family and estimate_mu_ml take digamma one float at a time, and
    # report the root and diagnostics of the one-entry array solve
    samples = [Sample(draw(50, FamilyParams(0.5 + k, 1.0), GAMMA, RngStream(43, k)))
               for k in range(4)]
    want = []
    for s in samples:
        root, iters, resid, (lo, hi), converged = _solve_mu_ml_array(
            np.array([ml_equation_rhs(s, GAMMA)]))
        assert converged[0]
        want.append((root[0], iters[0], resid[0], (lo[0], hi[0])))
    args = []

    def counting(x):
        args.append(type(x))
        return digamma_kernel(x)

    digamma_kernel = estimators._digamma
    monkeypatch.setattr(estimators, "_digamma", counting)
    for s, (root, iters, resid, bracket) in zip(samples, want):
        report = fit_family(s, GAMMA)
        mu, diag = estimate_mu_ml(s, GAMMA)
        assert (report.mu_hat_ml, report.solver) == (mu, diag)
        assert (mu, diag.iterations, diag.residual, diag.bracket) == (root, iters, resid, bracket)
    assert args and set(args) == {float}


def test_solver_starts_from_mu0():
    # the bracket starts at [mu0 / 10, 10 mu0] and only widens, so clipping
    # mu0 to its inside leaves it as it is
    h = np.concatenate([np.geomspace(1e-14, 1e4, 2_001), _resample_h(3, 2_000, 103), EXTREME_H])
    with np.errstate(all="ignore"):
        mu0 = (3.0 + np.sqrt(9.0 + 12.0 * h)) / (12.0 * h)
        _, _, _, (lo, hi), _ = _solve_mu_ml_array(h)
        clipped = np.clip(mu0, lo * 1.0000000001, hi * 0.9999999999)
    assert np.array_equal(clipped, mu0, equal_nan=True)


def test_solver_does_not_converge_where_mu0_overflows():
    # mu0 ~ 1 / (2 h) overflows: no bracket
    with np.errstate(all="ignore"):
        root, _, _, _, converged = _solve_mu_ml_array(np.array([5e-324]))
    assert not converged.any()
    assert not np.isfinite(root).any()


def test_solver_keeps_the_steps_of_every_root_it_found_within_200_steps():
    # the geometric midpoints start at step 201, so an H solved within 200
    # halving steps keeps its root, steps, residual and bracket
    h = 10.0 ** np.linspace(-300.0, 116.0, 4 * 416 + 1)
    with np.errstate(all="ignore"):
        got = _solve_mu_ml_array(h.copy())
        want = _separate_pass_solve_mu_ml(h.copy(), steps=200)
    ok = want[4]
    assert ok.sum() > 1000 and got[4][ok].all()
    for a, b in zip(got[:3] + got[3], want[:3] + want[3]):
        assert np.array_equal(a[ok], b[ok])


def test_solver_converges_up_to_the_largest_float():
    # the root is about 1/H; halving from mu0 ~ 1/sqrt(12 H) ran out of its
    # 200 steps from H ~ 1e116, and 12 H overflowed mu0 above 1.5e307
    h = np.concatenate([np.geomspace(1e116, 1e308, 193), [1.5e307, np.finfo(np.float64).max]])
    with np.errstate(all="ignore"):
        root, iters, _, _, converged = _solve_mu_ml_array(h)
    assert converged.all()
    assert iters.max() <= 400
    np.testing.assert_allclose(root * h, 1.0, rtol=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [_solve_mu_ml_one(v)[0] for v in h.tolist()] == root.tolist()


def test_mu_ml_at_an_h_above_1e122_against_mpmath():
    # H = 1.25e199: the root, 8e-200, lies 90 decades below mu0
    g = make_generator("flexible-weibull", b=1.0, c=0.5)
    s = Sample([1e-200, 0.5, 1.0, 2.0])
    h = ml_equation_rhs(s, g)
    assert h > 1e122
    mu, diag = estimate_mu_ml(s, g)
    with mpmath.workdps(50):
        # 1 / (ln m - psi(m)) = m + O(m^2 ln m) is near linear at this root
        want = mpmath.findroot(lambda m: 1 / (mpmath.log(m) - mpmath.digamma(m)) - 1 / mpmath.mpf(h),
                               (mpmath.mpf(0.5) / h, mpmath.mpf(2) / h), solver="anderson")
    assert abs(mu / float(want) - 1.0) <= 1e-12
    assert diag.bracket[0] < mu < diag.bracket[1]


def _count_passes(monkeypatch, fn, h):
    passes = []

    def counting(x):
        passes.append(x.size)
        return digamma_kernel(x)

    digamma_kernel = estimators._digamma
    monkeypatch.setattr(estimators, "_digamma", counting)
    out = fn(h)
    monkeypatch.undo()
    return len(passes), out


def test_solver_makes_one_pass_to_start_and_one_per_step(monkeypatch):
    h = np.geomspace(1e-3, 10.0, 40)
    mu0 = (3.0 + np.sqrt(9.0 + 12.0 * h)) / (12.0 * h)
    passes, (_, iters, _, (lo, hi), converged) = _count_passes(monkeypatch, _solve_mu_ml_array, h)
    # no entry needed bracket growth
    assert np.array_equal(lo, mu0 / 10.0) and np.array_equal(hi, mu0 * 10.0)
    assert converged.all()
    k = int(iters.max())
    assert k >= 3
    assert passes == 1 + k
    old_passes, _ = _count_passes(monkeypatch, _separate_pass_solve_mu_ml, h)
    assert old_passes == 3 + 2 * k
    # an array of one entry takes the same passes
    for one in (0.05, 2.0):
        passes, (_, iters, _, _, _) = _count_passes(monkeypatch, _solve_mu_ml_array, np.array([one]))
        assert passes == 1 + int(iters[0])


def test_mu_ml_errors():
    with pytest.raises(DegenerateSampleError):
        estimate_mu_ml(Sample([3.0, 3.0]), GAMMA)
    # equal values whose H rounds to a tiny positive number, not to zero
    with pytest.raises(DegenerateSampleError):
        estimate_mu_ml(Sample([5.9] * 3), GAMMA)
    with pytest.raises(DomainError):
        _solve_mu_ml_array(np.array([-0.1]))


def test_root_solver_monotonicity():
    # ln mu - psi(mu) strictly decreasing across each returned bracket
    for seed in range(3):
        y = draw(40, FamilyParams(1.5, 1.0), GAMMA, RngStream(41, seed))
        _, diag = estimate_mu_ml(Sample(y), GAMMA)
        pts = np.geomspace(diag.bracket[0], diag.bracket[1], 30)
        f = np.array([math.log(m) - digamma(m) for m in pts])
        assert np.all(np.diff(f) < 0.0)


def test_scale_invariance_pin():
    mu_a = estimate_mu_closed(Sample([1.0, 2.0, 3.0]), make_generator("nakagami"))
    mu_b = estimate_mu_closed(Sample([2.0, 4.0, 6.0]), make_generator("nakagami"))
    assert abs(mu_a - mu_b) <= 1e-12 * mu_a
    sig_a = estimate_sigma(Sample([1.0, 2.0, 3.0]), make_generator("nakagami"))
    sig_b = estimate_sigma(Sample([2.0, 4.0, 6.0]), make_generator("nakagami"))
    assert abs(sig_b - sig_a / 4.0) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=8),
    scale=st.floats(0.5, 4.0),
)
def test_scale_invariance_property(values, scale):
    # power-law mu is scale free; sigma rescales by the generator power
    assume(max(values) - min(values) > 1e-3)
    s1, s2 = Sample(values), Sample([scale * v for v in values])
    try:
        mu1 = estimate_mu_closed(s1, GAMMA)
        mu2 = estimate_mu_closed(s2, GAMMA)
    except InvalidSampleError:
        assume(False)
    assert abs(mu1 - mu2) <= 1e-9 * abs(mu1)
    assert abs(estimate_sigma(s2, GAMMA) - estimate_sigma(s1, GAMMA) / scale) <= 1e-12


@pytest.mark.parametrize("name,shapes", POWER_LAW_SWEEP, ids=sweep_ids(POWER_LAW_SWEEP))
def test_closed_form_equals_reduction(name, shapes):
    g = make_generator(name, **shapes)
    s_exp = g.family_class.s
    rng = RngStream(43, 0)
    pts = random_param_points(rng, 100)
    for i, (mu, sigma) in enumerate(pts):
        y = draw(20, FamilyParams(float(mu), float(sigma)), g, RngStream(43, i + 1))
        try:
            direct = estimate_mu_closed(Sample(y), g)
        except InvalidSampleError:
            continue
        red = _reduction_mu(y, s_exp)
        assert abs(direct - red) <= 1e-10 * abs(direct)


def test_theorem_closed_below_twice_ml():
    violations = 0
    checked = 0
    for gi, (name, shapes) in enumerate(POWER_LAW_SWEEP[:3]):
        g = make_generator(name, **shapes)
        rng = RngStream(47, gi)
        pts = random_param_points(rng, 200)
        for i, (mu, sigma) in enumerate(pts):
            y = draw(25, FamilyParams(float(mu), float(sigma)), g, RngStream(48, gi * 1000 + i))
            s = Sample(y)
            try:
                closed = estimate_mu_closed(s, g)
                ml, _ = estimate_mu_ml(s, g)
            except InvalidSampleError:
                continue
            checked += 1
            if not closed < 2.0 * ml:
                violations += 1
    assert checked > 500
    assert violations == 0


def test_profile_sigma_pins():
    assert profile_sigma(Sample([4.0]), GAMMA, 0.5) == 0.5
    assert profile_sigma(Sample([2.0]), make_generator("nakagami"), 2.0) == 1.0 / 16.0
    y = Sample([0.7, 1.3, 2.9])
    assert profile_sigma(y, GAMMA, 1.0) == estimate_sigma(y, GAMMA)


def test_profile_mu_identities():
    s = Sample([0.8, 1.7, 2.4, 3.1])
    assert profile_mu(s, GAMMA, 1.0) == estimate_mu_closed(s, GAMMA)
    for p in (0.5, 2.0, 3.0):
        direct = profile_mu(s, GAMMA, p)
        powered = estimate_mu_closed(Sample(s.values**p), GAMMA)
        assert abs(direct - powered) <= 1e-11 * abs(direct)


def test_profile_mu_recovers_power_model():
    y = draw(100_000, FamilyParams(2.0, 1.0, 2.0), GAMMA, RngStream(53, 0))
    assert abs(profile_mu(Sample(y), GAMMA, 2.0) - 2.0) < 0.1


def test_fit_full_ml_recovers_power():
    y = draw(100_000, FamilyParams(2.0, 1.0, 1.5), GAMMA, RngStream(59, 0))
    fit = fit_full_ml(Sample(y), GAMMA)
    assert abs(fit.power - 1.5) <= 0.05
    assert abs(fit.residual) <= 1e-8
    assert fit.iterations <= 200
    assert abs(fit.mu - 2.0) < 0.2
    assert abs(fit.sigma - 1.0) < 0.2
    sv = score_vector(Sample(y), GAMMA, fit.mu, fit.sigma, fit.power)
    n = y.size
    assert abs(sv.d_mu) <= 1e-6 * n
    assert abs(sv.d_sigma) <= 1e-6 * n
    assert abs(sv.d_power) <= 1e-6 * n


def test_fit_full_ml_reduces_to_p1():
    y = draw(100_000, FamilyParams(2.0, 1.0), GAMMA, RngStream(59, 1))
    s = Sample(y)
    fit = fit_full_ml(s, GAMMA)
    assert abs(fit.power - 1.0) <= 0.05
    assert abs(fit.mu - estimate_mu_closed(s, GAMMA)) < 0.2
    assert abs(fit.sigma - estimate_sigma(s, GAMMA)) < 0.1


def test_fit_full_ml_errors():
    with pytest.raises(DegenerateSampleError):
        fit_full_ml(Sample([2.0, 2.0, 2.0]), GAMMA)
    y = draw(200, FamilyParams(2.0, 1.0), GAMMA, RngStream(59, 2))
    with pytest.raises(NoRootInBracketError):
        fit_full_ml(Sample(y), GAMMA, p_bracket=(6.0, 18.0))


TOTAL_UNDERFLOWS = "sum of generator values is not finite and positive"


@pytest.mark.parametrize("name", ["nakagami", "rayleigh", "maxwell-boltzmann"])
def test_profile_mu_names_a_mean_t_that_underflows(name):
    # T(y) ~ y^2 underflows to 0 while ln T stays finite, so mean T is 0
    g = make_generator(name)
    tiny = Sample([1e-200, 2e-200, 3e-200])
    with pytest.raises(OverflowInValue, match=TOTAL_UNDERFLOWS):
        estimate_mu_closed(tiny, g)
    with pytest.raises(OverflowInValue, match=TOTAL_UNDERFLOWS):
        profile_mu(Sample([1e-100, 2e-100, 3e-100]), g, 2.0)
    with pytest.raises(OverflowInValue, match=TOTAL_UNDERFLOWS):
        profile_sigma(tiny, g, 1.0)


def test_fit_full_ml_counts_an_underflowing_mean_t_as_infeasible():
    # mean T underflows at the two largest grid powers (this raised a raw
    # ZeroDivisionError inside profile_mu)
    y = Sample([7.638280601112359e-11, 6.995089083083437e-11, 1.5437081232380293e-09])
    fit = fit_full_ml(y, make_generator("weibull", delta=2.0))
    assert fit.infeasible_points == 2
    assert math.isfinite(fit.mu) and math.isfinite(fit.sigma) and math.isfinite(fit.power)


def _per_point_fit_full_ml(sample, g, p_bracket=(0.05, 20.0)):
    # estimators.fit_full_ml with one profile_mu, one profile_sigma and one
    # scalar digamma per power, on the grid and at every secant step
    def residual(p):
        try:
            mu_p = profile_mu(sample, g, p)
            sigma_p = profile_sigma(sample, g, p)
        except (InvalidSampleError, OverflowInValue):
            return None, None, None
        if mu_p == np.inf:  # digamma would raise; the point is infeasible
            return None, None, None
        rhs = -np.log(sigma_p) - float(estimators._means(sample, g, p)[1])
        resid = float(np.log(mu_p) - digamma(mu_p) - rhs)
        if not np.isfinite(resid):
            return None, None, None
        return resid, mu_p, sigma_p

    p_lo, p_hi = float(p_bracket[0]), float(p_bracket[1])
    grid = np.geomspace(p_lo, p_hi, 41)
    residuals = []
    infeasible = 0
    for p in grid:
        resid, mu_p, sigma_p = residual(float(p))
        if resid is None:
            infeasible += 1
        residuals.append((float(p), resid, mu_p, sigma_p))
    found = None
    for (pa, fa, mua, siga), (pb, fb, _, _) in zip(residuals, residuals[1:]):
        if fa is None or fb is None:
            continue
        if fa == 0.0:
            return FullMlFit(mua, siga, pa, 0, 0.0, (p_lo, p_hi), infeasible)
        if fa * fb < 0.0:
            found = (pa, fa, pb, fb)
            break
    if found is None:
        last = residuals[-1]
        if last[1] == 0.0:
            return FullMlFit(last[2], last[3], last[0], 0, 0.0, (p_lo, p_hi), infeasible)
        raise NoRootInBracketError(
            f"no sign change of the power equation inside [{p_lo:g}, {p_hi:g}] "
            f"({infeasible} of {grid.size} grid points infeasible)"
        )
    pa, fa, pb, fb = found
    best = None
    for k in range(200):
        mid = pa - fa * (pb - pa) / (fb - fa)
        width = pb - pa
        if not (pa + 0.1 * width < mid < pb - 0.1 * width):
            mid = 0.5 * (pa + pb)
        resid, mu_m, sigma_m = residual(mid)
        if resid is None:
            mid = 0.5 * (pa + pb)
            resid, mu_m, sigma_m = residual(mid)
            if resid is None:
                raise ConvergenceError("power equation became infeasible inside the bracket")
        best = (mu_m, sigma_m, mid, k + 1, resid)
        if abs(resid) <= 1e-10 or (pb - pa) <= 1e-13 * max(1.0, pa):
            break
        if np.sign(resid) == np.sign(fa):
            pa, fa = mid, resid
        else:
            pb, fb = mid, resid
    mu_m, sigma_m, p_m, iters, resid = best
    return FullMlFit(mu_m, sigma_m, p_m, iters, resid, (p_lo, p_hi), infeasible)


def _fit_outcome(fit, y, g, bracket):
    try:
        return fit(Sample(y), g, bracket)
    except GamgenError as e:
        return type(e).__name__, str(e)


FULL_ML_GENERATORS = [
    ("gamma", {}),
    ("nakagami", {}),
    ("inverse-gamma", {}),
    ("weibull", {"delta": 2.0}),
    ("generalized-gamma", {"delta": 2.0}),
    ("flexible-weibull", {"b": 1.0, "c": 0.5}),
]
FULL_ML_POINTS = [(0.2, 1e4, 0.3), (1.0, 1.2, 1.5), (3.0, 1e-6, 4.0)]
# the default bracket, one whose grid ends at the powers numpy raises to on
# fast paths (0.5 and 2.0), and a wide one with infeasible ends
FULL_ML_BRACKETS = [(0.05, 20.0), (0.5, 2.0), (0.01, 100.0)]


@pytest.mark.parametrize("n", [3, 15, 100, 1000, 10_000])
def test_pointwise_terms_at_a_column_of_powers_keep_the_bits_of_each_power(n):
    # numpy raises to 0.5 and 2.0 on fast paths (sqrt, y * y) for a scalar
    # power only; each row of a column must still match its scalar power,
    # and so must the mean of each (k, n) term match that of the (6, n) rows
    powers = np.concatenate([np.geomspace(0.5, 2.0, 41), np.geomspace(0.05, 3.0, 41)])
    y = np.random.default_rng(n).uniform(1e-3, 3.0, n)
    for name, shapes in FULL_ML_GENERATORS:
        g = make_generator(name, **shapes)
        terms = estimators._pointwise_terms(g, y, powers[:, None])
        rows = np.stack(np.broadcast_arrays(*terms))
        assert rows.shape == (6, powers.size, n)
        means = np.stack([_mean_last(np.broadcast_to(t, rows.shape[1:])) for t in terms])
        for i, p in enumerate(powers.tolist()):
            want = estimators._pointwise(g, y, p)
            assert np.array_equal(rows[:, i], want, equal_nan=True), (name, p)
            assert np.array_equal(means[:, i], _mean_last(want), equal_nan=True), (name, p)


@pytest.mark.parametrize("n", [3, 20, 1000, 15_001])
def test_fit_full_ml_keeps_the_bits_of_per_point_evaluation(monkeypatch, n):
    # at n = 20 every catalog generator runs; at every n so does a sample so
    # spread that some grid powers overflow (in one block of 41 powers at
    # n = 20, of 5 at n = 1000, of 1 at n = 15 001)
    infeasible, profiled = [], []

    def recording_block(y, g, p):
        out = power_residuals(y, g, p)
        infeasible.append(np.isnan(out[0]))
        return out

    def recording(sample, g, p):
        profiled.append(p)
        return profile_residual(sample, g, p)

    power_residuals = estimators._power_residuals
    profile_residual = estimators._profile_residual
    monkeypatch.setattr(estimators, "_power_residuals", recording_block)
    monkeypatch.setattr(estimators, "_profile_residual", recording)
    kinds = []
    for gi, (name, shapes) in enumerate(CATALOG_SWEEP if n == 20 else FULL_ML_GENERATORS):
        g = make_generator(name, **shapes)
        samples = [np.geomspace(1e-4, 1e4, n)]
        for pi, (mu, sigma, p) in enumerate(FULL_ML_POINTS):
            if n > 1000 and pi != 1:
                continue
            try:
                samples.append(draw(n, FamilyParams(mu, sigma, p), g, RngStream(61, 10 * gi + pi)))
            except GamgenError:
                continue
        for y in samples:
            for bracket in FULL_ML_BRACKETS:
                got = _fit_outcome(fit_full_ml, y, g, bracket)
                want = _fit_outcome(_per_point_fit_full_ml, y, g, bracket)
                assert got == want, (name, y[:2], bracket)
                kinds.append(got[0] if isinstance(got, tuple) else (
                    "infeasible" if got.infeasible_points else "fit"))
    if n == 3:
        # the grids cross infeasible points, and some have no sign change
        assert {"fit", "infeasible", "NoRootInBracketError"} <= set(kinds)
    assert {"fit", "infeasible"} <= set(kinds)
    # every grid power is evaluated once, in its block: none by the scalar profiles
    grids = np.concatenate([np.geomspace(*b, 41) for b in FULL_ML_BRACKETS])
    assert not set(profiled) & set(grids.tolist())
    if n <= estimators._GRID_BLOCK_VALUES // 2:
        # a power that overflows is infeasible alone, in a block with feasible ones
        assert any(nan.any() and not nan.all() for nan in infeasible)


@pytest.mark.parametrize("n", [20, 1000, 2_000, 15_001])
def test_fit_full_ml_makes_one_pointwise_pass_per_block_and_step(monkeypatch, n):
    # a drawn sample, and one whose Y^p overflows at the largest powers of
    # (0.01, 100); at n >= 1000 the second has no sign change on the grid,
    # so no step follows its blocks
    drawn = draw(n, FamilyParams(2.0, 1.0, 1.5), GAMMA, RngStream(67, 0))
    passes = []

    def counting(g, y, p=1.0):
        passes.append(np.size(p))
        return terms(g, y, p)

    terms = estimators._pointwise_terms
    # every (k, n) array of a grid pass stays below glibc's 64 KiB trim check
    assert estimators._GRID_BLOCK_VALUES * 8 < 64 * 1024
    blocks = math.ceil(41 / max(1, estimators._GRID_BLOCK_VALUES // n))
    for y, bracket in [(drawn, (0.05, 20.0)), (np.geomspace(1e-4, 1e4, n), (0.01, 100.0))]:
        passes.clear()
        monkeypatch.setattr(estimators, "_pointwise_terms", counting)
        fit = _fit_outcome(fit_full_ml, y, GAMMA, bracket)
        monkeypatch.undo()
        if isinstance(fit, tuple):
            assert y is not drawn and fit[0] == "NoRootInBracketError"
            iterations = 0
        else:
            assert (fit.infeasible_points > 0) == (y is not drawn) and fit.iterations >= 3
            iterations = fit.iterations
        assert len(passes) == blocks + iterations
        assert sum(passes[:blocks]) == 41 and passes[blocks:] == [1] * iterations


@pytest.mark.parametrize("shape", ["flat", "row"])
def test_mean_last_sums_a_lone_row_as_a_row_of_a_block(shape):
    # a lone row summed in another order than a row of a block once n > 8192
    rng = np.random.default_rng(71)
    sizes = {*np.geomspace(1, 20_000, 40).astype(int).tolist(), 8191, 8192, 8193, 9000}
    for n in sorted(sizes):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        want = _mean_last(np.stack([x, x]))[0]
        got = _mean_last(x) if shape == "flat" else _mean_last(x[None])[0]
        assert got == want, n


# References for estimators._from_means: the two mask sequences it replaced,
# copied from experiment._theta_from_means (which took no power) and from
# estimators._power_residuals. Two rules are new: a residual at an infinite
# profile mu is NaN (digamma raised DomainError there), and a native value
# that is not finite and > 0 fails its entry.
def _study_rule_reference(M, g, param_names, kind, spread_ok, p=1.0):
    mean_t1 = M[0]
    with np.errstate(all="ignore"):
        base = spread_ok & np.isfinite(mean_t1) & (mean_t1 > 0.0)
        sigma = np.where(base, 1.0 / mean_t1, np.nan)
        if kind == "closed":
            numer, denom = _mu_closed_from_means(M[2], M[3], mean_t1, M[4], M[5], p)
            ok = base & np.isfinite(numer) & np.isfinite(denom) & (denom > 0.0)
            mu = np.where(ok, numer / denom, np.nan)
            ok = ok & np.isfinite(mu) & (mu > 0.0)
        else:
            h = np.log(mean_t1) - M[1]
            ok = base & np.isfinite(h) & (h > 0.0)
            mu = np.full(h.shape, np.nan)
            root, _, _, _, converged = _solve_mu_ml_array(h[ok])
            mu[ok] = np.where(converged, root, np.nan)
            ok = ok & np.isfinite(mu)
        kernel = (np.where(ok, mu, np.nan), np.where(ok, sigma, np.nan), ok)
        if param_names == ("mu", "sigma") or g.native is None:
            theta = np.vstack([mu, sigma])
        else:
            native = g.native.from_family(mu, sigma)
            theta = np.vstack([np.asarray(native[k], dtype=np.float64) for k in param_names])
    ok = ok & np.all((np.isfinite(theta) & (theta > 0.0)) | ~ok[None, :], axis=0)
    theta = np.where(ok[None, :], theta, np.nan)
    return kernel, (theta, ok)


def _power_rule_reference(means, p):
    mean_t1, mean_log_t1, mean_log_y, mean_w, mean_a, mean_r = means
    resid = np.full(p.shape, np.nan)
    with np.errstate(all="ignore"):
        numer, denom = _mu_closed_from_means(mean_log_y, mean_w, mean_t1, mean_a, mean_r, p)
        mu = numer / denom
        sigma = 1.0 / mean_t1
        ok = (np.isfinite(mean_t1) & (mean_t1 > 0.0) & np.isfinite(numer)
              & np.isfinite(denom) & (denom > 0.0) & (mu > 0.0))
        ok = ok & (mu < np.inf)  # new: this raised DomainError in digamma
        rhs = -np.log(sigma[ok]) - mean_log_t1[ok]
        resid[ok] = np.log(mu[ok]) - estimators._digamma(mu[ok]) - rhs
    resid[~np.isfinite(resid)] = np.nan
    return resid, mu, sigma


def _random_means(rng, size):
    # plausible means (mostly h > 0 and a positive closed-form denominator),
    # with 15% of the entries NaN, +-inf, +-0, negative, subnormal or huge,
    # and three columns whose closed-form mu overflows to inf
    M = np.empty((6, size))
    M[0] = 10.0 ** rng.uniform(-3.0, 3.0, size)
    M[1] = np.log(M[0]) - rng.exponential(0.5, size)
    M[2], M[3], M[5] = rng.standard_normal((3, size))
    M[4] = M[0] * rng.normal(1.0, 1.0, size)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.5, 5e-324, 1e-310, 1e308, -1e308]
    hit = rng.random(M.shape) < 0.15
    M[hit] = rng.choice(special, int(hit.sum()))
    M[:, :3] = [[1.0] * 3, [-1.0] * 3, [0.0] * 3, [1e300] * 3, [1.0] * 3, [1.0 - 1e-10] * 3]
    return M


def test_means_kernel_keeps_the_bits_of_both_mask_sequences(monkeypatch):
    rng = np.random.default_rng(97)
    size = 4_000
    M = _random_means(rng, size)
    spread = rng.random(size) < 0.9
    column = 10.0 ** rng.uniform(-1.3, 1.3, size)
    seen = set()
    for kind in ("closed", "ml"):
        for p in (1.0, column):
            want, _ = _study_rule_reference(M, GAMMA, ("mu", "sigma"), kind, spread, p)
            got = _from_means(M, kind, spread, p)
            for a, b in zip(got, want):
                assert a.shape == (size,) and np.array_equal(a, b, equal_nan=True), (kind, p)
            seen.add(int(got[2].sum()))
    assert min(seen) > size // 10 and max(seen) < size  # both outcomes occur
    for spec, names in [("gamma", ("mu", "sigma")), ("gamma", ("alpha", "beta")),
                        ("generalized-gamma(delta=0.005)", ("alpha", "beta")),
                        ("chi-squared", ("nu",)), ("rayleigh", ("beta",)),
                        ("modified-weibull-extension(alpha=2)", ("lam",))]:
        g = experiment.parse_generator_spec(spec)
        for kind in ("closed", "ml"):
            _, want = _study_rule_reference(M, g, names, kind, spread)
            got = experiment._theta_from_means(M, g, names, kind, spread)
            for a, b in zip(got, want):
                assert np.array_equal(a, b, equal_nan=True), (spec, names, kind)

    # the residuals, with the random means standing in for the pointwise terms
    def fake_terms(g, y, p):
        return tuple(M[:, : np.size(p)].reshape((6,) + np.shape(p)))

    monkeypatch.setattr(estimators, "_pointwise_terms", fake_terms)
    resid, mu, sigma = estimators._power_residuals(np.ones(1), GAMMA, column)
    want_resid, want_mu, want_sigma = _power_rule_reference(M, column)
    assert np.array_equal(resid, want_resid, equal_nan=True)
    ok = ~np.isnan(resid)
    assert np.array_equal(mu[ok], want_mu[ok]) and np.array_equal(sigma[ok], want_sigma[ok])
    assert size // 10 < ok.sum() < size
    assert np.isinf(want_mu[:3]).all() and np.isnan(resid[:3]).all()


def test_a_native_value_not_finite_and_positive_is_a_named_error():
    # beta = (1 / (mu sigma))^200 underflows to 0 here; fit_family returned it
    g = make_generator("generalized-gamma", delta=0.005)
    s = Sample(np.logspace(250, 300, 20))
    with pytest.raises(OverflowInValue):
        fit_family(s, g)
    with pytest.raises(InvalidSampleError):
        experiment.native_estimator(g, "closed")(s)
    M = _mean_last(estimators._pointwise(g, s.values))[:, None]
    spread = np.ones(1, bool)
    theta, ok = experiment._theta_from_means(M, g, ("alpha", "beta"), "closed", spread)
    assert not ok[0] and np.isnan(theta).all()
    # (mu, sigma) themselves are fine, and so is the ML fit's beta
    assert experiment._theta_from_means(M, g, ("mu", "sigma"), "closed", spread)[1][0]
    assert experiment._theta_from_means(M, g, ("alpha", "beta"), "ml", spread)[1][0]


def test_an_overflowing_pointwise_product_raises_no_warning():
    # x ln y overflows at p = 100; numpy warned before the named error or fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowInValue):
            profile_mu(Sample([2.0, 1200.0]), GAMMA, 100.0)
        fit_full_ml(Sample([2.0, 3.0, 1200.0]), GAMMA, (0.01, 100.0))
        # mean w, a and r are inf: d_power was NaN, with no error
        with pytest.raises(OverflowInValue):
            score_vector(Sample([2.0, 1200.0]), GAMMA, 2.0, 1.0, 100.0)


def test_each_estimator_fails_only_on_the_rows_it_reads(tmp_path, capsys):
    # one observation at 1e-200 makes a pointwise row overflow; an estimator
    # fails where a row mean it reads is not finite, and not otherwise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # burr-xii(c=2): T underflows to 0 there, so ln T is -inf
        burr = make_generator("burr-xii", c=2.0)
        values = [1e-200, 0.5, 1.0, 2.0, 3.0]
        s = Sample(values)
        assert estimate_sigma(s, burr) == pytest.approx(
            len(values) / math.fsum(burr.value(v) for v in values), rel=1e-15)
        with pytest.raises(OverflowInValue):
            estimate_mu_ml(s, burr)
        # Y^p underflows to 0 at p = 100, so every row is NaN there
        with pytest.raises(OverflowInValue):
            profile_sigma(s, burr, 100.0)
        # flexible-weibull: T underflows to 0 with a finite log, and T' is NaN
        flex = make_generator("flexible-weibull", b=1.0, c=0.5)
        s = Sample([1e-200, 0.5, 1.0, 2.0])
        assert 0.0 < estimate_sigma(s, flex) < np.inf
        with pytest.raises(OverflowInValue):
            estimate_mu_closed(s, flex)
        # inverse-gamma: only T' overflows, and ML mu reads T and ln T alone
        g = make_generator("inverse-gamma")
        t = np.array([g.value(v) for v in s.values])
        h = math.log(np.mean(t)) - np.mean(np.log(t))
        assert ml_equation_rhs(s, g) == pytest.approx(h, rel=1e-14)
        mu, _ = estimate_mu_ml(s, g)
        assert math.log(mu) - digamma(mu) == pytest.approx(h, rel=1e-12)
        with pytest.raises(OverflowInValue):
            estimate_mu_closed(s, g)
    path = tmp_path / "d.txt"
    path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
    assert cli.main(["fit", "--generator", "burr-xii(c=2)", str(path)]) == 4
    out, err = capsys.readouterr()
    got = dict(line.partition("=")[::2] for line in out.splitlines())
    assert float(got["sigma_hat"]) == estimate_sigma(Sample(values), burr)
    assert got["mu_hat_closed"] == got["mu_hat_ml"] == "overflow"
    assert "error=overflow" in err.splitlines()


def test_score_vector_raises_where_a_partial_is_not_finite():
    # every mean is finite, but sigma * mean T overflows: d_mu was -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowInValue):
            score_vector(Sample([1e10, 2e10]), GAMMA, 1.0, 1e300, 1.0)


@pytest.mark.parametrize("point", [(2.0, math.nan, 1.0), (2.0, math.inf, 1.0),
                                   (2.0, 1.0, math.nan)], ids=["sigma-nan", "sigma-inf", "power-nan"])
def test_score_vector_rejects_a_point_not_finite_and_positive(point):
    # these returned NaN silently, warned, or raised OverflowInValue
    with pytest.raises(DomainError):
        score_vector(S123, GAMMA, *point)


def test_log_likelihood_past_the_float64_range_raises():
    with pytest.raises(OverflowInValue):
        log_likelihood(Sample([2.0, 1e300]), GAMMA, 2.0, 1e200)


def test_fit_new_log_generalized_gamma():
    nlgg = make_generator("new-log-generalized-gamma", delta=1.0)
    s = Sample([0.5, 1.0, 1.5])
    alpha, beta = fit_new_log_generalized_gamma(s)
    assert abs(alpha - estimate_mu_closed(s, nlgg)) <= 1e-10 * alpha
    sigma = estimate_sigma(s, nlgg)
    assert abs(alpha * beta * sigma - 1.0) <= 1e-10
    # large-n recovery at (alpha, beta) = (2, 1), i.e. (mu, sigma) = (2, 1/2)
    y = draw(100_000, FamilyParams(2.0, 0.5), nlgg, RngStream(61, 0))
    alpha, beta = fit_new_log_generalized_gamma(Sample(y))
    assert abs(alpha - 2.0) <= 0.1
    assert abs(beta - 1.0) <= 0.05
    with pytest.raises(DegenerateSampleError):
        fit_new_log_generalized_gamma(Sample([1.0, 1.0]))


def test_estimating_equation_is_unbiased():
    bias, se = estimating_equation_bias(1.0, 1.0, GAMMA, 20_000, 10, RngStream(67, 0))
    assert se > 0.0
    assert abs(bias) <= 4.0 * se
    bias, se = estimating_equation_bias(
        2.0, 3.0, make_generator("nakagami"), 20_000, 10, RngStream(67, 1)
    )
    assert abs(bias) <= 4.0 * se
    with pytest.raises(DomainError):
        estimating_equation_bias(1.0, 1.0, GAMMA, 1, 10, RngStream(67, 2))


def test_exp_log_moment_identity():
    # E[ln Z] = -gamma for Exp(1): the mu = sigma = 1 member with T1 = x
    y = draw(400_000, FamilyParams(1.0, 1.0), GAMMA, RngStream(71, 0))
    lg = np.log(y)
    se = float(lg.std()) / math.sqrt(lg.size)
    assert abs(float(lg.mean()) + EULER) <= 4.0 * se


def test_score_vector_matches_finite_differences():
    y = draw(500, FamilyParams(1.8, 0.7), GAMMA, RngStream(73, 0))
    s = Sample(y)
    mu, sigma, p = 1.6, 0.9, 1.2
    sv = score_vector(s, GAMMA, mu, sigma, p)
    h = 1e-6

    def ll(m, sg, pw):
        return log_likelihood(s, GAMMA, m, sg, pw)

    fd_mu = (ll(mu + h, sigma, p) - ll(mu - h, sigma, p)) / (2.0 * h)
    fd_sigma = (ll(mu, sigma + h, p) - ll(mu, sigma - h, p)) / (2.0 * h)
    fd_power = (ll(mu, sigma, p + h) - ll(mu, sigma, p - h)) / (2.0 * h)
    assert abs(sv.d_mu - fd_mu) <= 1e-4 * max(1.0, abs(fd_mu))
    assert abs(sv.d_sigma - fd_sigma) <= 1e-4 * max(1.0, abs(fd_sigma))
    assert abs(sv.d_power - fd_power) <= 1e-4 * max(1.0, abs(fd_power))


def test_sigma_hat_zeroes_the_score():
    # d_sigma vanishes at (any mu, sigma_hat, p=1); the acceptance gate
    # sweeps all catalog rows, this covers three structurally distinct ones
    for name, shapes in (("gamma", {}), ("dagum", {"c": 2.0}), ("gompertz", {"delta": 2.0})):
        g = make_generator(name, **shapes)
        y = draw(200, FamilyParams(1.4, 1.1), g, RngStream(79, hash(name) % 1000))
        s = Sample(y)
        sig = estimate_sigma(s, g)
        for mu in (0.3, 1.0, 7.7):
            assert abs(score_vector(s, g, mu, sig).d_sigma) <= 1e-9 * s.n


def test_fit_family_report():
    y = draw(5_000, FamilyParams(2.0, 0.5), GAMMA, RngStream(83, 0))
    rep = fit_family(Sample(y), GAMMA)
    assert abs(rep.sigma_hat - estimate_sigma(Sample(y), GAMMA)) < 1e-15
    assert rep.mu_hat_closed > 0.0 and rep.mu_hat_ml > 0.0
    assert abs(rep.solver.residual) <= 1e-10
    assert rep.native is not None
    assert abs(rep.native["alpha"] - rep.mu_hat_closed) < 1e-12


def test_consistency_ladder():
    cases = [
        ("gamma", {}, 2.0, 1.0),
        ("weibull", {"delta": 2.0}, 1.5, 0.8),
        ("burr-xii", {"c": 2.0}, 3.0, 1.2),
    ]
    for name, shapes, mu, sigma in cases:
        g = make_generator(name, **shapes)
        errs = []
        for k, n in enumerate((100, 1_000, 10_000, 100_000)):
            y = draw(n, FamilyParams(mu, sigma), g, RngStream(89, 10 * k))
            errs.append(abs(estimate_sigma(Sample(y), g) - sigma))
        # nonincreasing within MC noise: each rung may sit above the previous
        # one only by the sampling scale of the previous rung
        for k in range(3):
            noise = 4.0 * sigma / math.sqrt(mu * (100 * 10**k))
            assert errs[k + 1] <= errs[k] + noise
        assert errs[-1] <= 0.01 * sigma
        if g.family_class is not None:
            y = draw(100_000, FamilyParams(mu, sigma), g, RngStream(89, 99))
            assert abs(estimate_mu_closed(Sample(y), g) - mu) <= 0.05 * mu
