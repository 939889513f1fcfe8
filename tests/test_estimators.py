"""Closed-form and ML estimators: frozen oracles, identities, and consistency."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gamgen import (
    DegenerateSampleError,
    DomainError,
    FamilyParams,
    InvalidSampleError,
    NoRootInBracketError,
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
from gamgen.estimators import _solve_mu_ml_array

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
