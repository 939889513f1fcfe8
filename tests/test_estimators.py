"""Closed-form and ML estimators: frozen oracles, identities, and consistency."""

import math

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
from gamgen import estimators
from gamgen.estimators import _mean_last, _solve_mu_ml_array

from conftest import POWER_LAW_SWEEP, random_param_points, sweep_ids

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


def _separate_pass_solve_mu_ml(h):
    # estimators._solve_mu_ml_array with a digamma pass of its own for f(lo),
    # f(hi) and f(mu0), and two per Newton step: the sides, then f(new)
    h = np.asarray(h, dtype=np.float64)

    def f(m):
        return np.log(m) - estimators._digamma(m) - h

    def f_at(m, idx):
        return np.log(m) - estimators._digamma(m) - h[idx]

    mu0 = (3.0 + np.sqrt(9.0 + 12.0 * h)) / (12.0 * h)
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
    for _ in range(200):
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
        newton = np.where(inside, newton, 0.5 * (lo[active] + hi[active]))
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
    # 12 h overflows (mu0 = inf / inf = NaN) or mu0 itself does: no bracket
    with np.errstate(all="ignore"):
        root, _, _, _, converged = _solve_mu_ml_array(np.array([1e308, 1.5e307, 5e-324]))
    assert not converged.any()
    assert not np.isfinite(root).any()


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
    # one entry at a time, as estimate_mu_ml solves
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
def test_fit_full_ml_keeps_the_bits_of_per_point_evaluation(n):
    kinds = []
    for gi, (name, shapes) in enumerate(FULL_ML_GENERATORS):
        g = make_generator(name, **shapes)
        for pi, (mu, sigma, p) in enumerate(FULL_ML_POINTS):
            if n > 1000 and pi != 1:
                continue
            try:
                y = draw(n, FamilyParams(mu, sigma, p), g, RngStream(61, 10 * gi + pi))
            except GamgenError:
                continue
            for bracket in FULL_ML_BRACKETS:
                got = _fit_outcome(fit_full_ml, y, g, bracket)
                want = _fit_outcome(_per_point_fit_full_ml, y, g, bracket)
                assert got == want, (name, mu, sigma, p, bracket)
                if isinstance(got, FullMlFit):
                    kinds.append("infeasible" if got.infeasible_points else "fit")
                else:
                    kinds.append(got[0])
    if n == 3:
        # the grids cross infeasible points, and some have no sign change
        assert {"fit", "infeasible", "NoRootInBracketError"} <= set(kinds)
    assert "fit" in kinds


@pytest.mark.parametrize("n", [20, 1000, 2_000, 15_001])
def test_fit_full_ml_makes_one_pointwise_pass_per_block_and_step(monkeypatch, n):
    y = draw(n, FamilyParams(2.0, 1.0, 1.5), GAMMA, RngStream(67, 0))
    passes = []

    def counting(g, y, p=1.0):
        passes.append(np.size(p))
        return terms(g, y, p)

    terms = estimators._pointwise_terms
    monkeypatch.setattr(estimators, "_pointwise_terms", counting)
    fit = fit_full_ml(Sample(y), GAMMA)
    monkeypatch.undo()
    assert fit.infeasible_points == 0 and fit.iterations >= 3
    # every (k, n) array of a grid pass stays below glibc's 64 KiB trim check
    assert estimators._GRID_BLOCK_VALUES * 8 < 64 * 1024
    blocks = math.ceil(41 / max(1, estimators._GRID_BLOCK_VALUES // n))
    assert len(passes) == blocks + fit.iterations
    assert sum(passes[:blocks]) == 41 and passes[blocks:] == [1] * fit.iterations


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
