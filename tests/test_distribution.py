"""Density, CDF, quantile, sampler, and moment formulas for the family."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sps
import scipy.stats

from gamgen import (
    DegenerateLimitError,
    DomainError,
    FamilyParams,
    MomentDoesNotExistError,
    NonpositiveObservationError,
    OverflowInValue,
    RngStream,
    Sample,
    cdf,
    log_pdf,
    make_generator,
    moment_exists,
    moment_power_law,
    population_mu_limit,
    quantile,
    sample,
)

from conftest import CATALOG_SWEEP, sweep_ids

EXP = FamilyParams(1.0, 1.0)  # gamma generator: the unit exponential


def test_log_pdf_pins():
    g = make_generator("gamma")
    assert abs(log_pdf(2.0, EXP, g) + 2.0) < 1e-13
    # rayleigh with native beta = 1, i.e. (mu, sigma) = (1, 1/2)
    r = make_generator("rayleigh")
    assert r.native.to_family(beta=1.0) == (1.0, 0.5)
    assert abs(log_pdf(1.0, FamilyParams(1.0, 0.5), r) + 0.5) < 1e-13
    # high-precision oracle for the log generator at delta = 1
    g = make_generator("new-log-generalized-gamma", delta=1.0)
    assert abs(log_pdf(0.7, FamilyParams(2.0, 1.0), g) - 0.07244794337055246) < 5e-13


def test_log_pdf_shapes_and_domain():
    g = make_generator("gamma")
    arr = log_pdf(np.array([0.5, 1.0, 2.0]), EXP, g)
    assert arr.shape == (3,)
    assert abs(float(arr[2]) + 2.0) < 1e-13
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(DomainError):
            log_pdf(bad, EXP, g)


def test_cdf_pins():
    g = make_generator("gamma")
    assert abs(cdf(math.log(2.0), EXP, g) - 0.5) < 1e-14
    assert abs(cdf(0.6931, EXP, g) - 0.5) < 1e-4
    ig = make_generator("inverse-gamma")
    p = FamilyParams(2.0, 1.5)
    assert cdf(1e9, p, ig) > 1.0 - 1e-9
    assert cdf(1e-9, p, ig) < 1e-9
    # strictly increasing wherever the value is representable away from 0
    ys = np.geomspace(0.2, 100.0, 50)
    vals = cdf(ys, p, ig)
    assert np.all(np.diff(vals) > 0.0)


def test_quantile_pins():
    g = make_generator("gamma")
    assert abs(quantile(0.5, EXP, g) - math.log(2.0)) < 1e-14
    r = make_generator("rayleigh")
    u = 1.0 - math.exp(-0.5)
    assert abs(quantile(u, FamilyParams(1.0, 0.5), r) - 1.0) < 1e-12
    for bad in (0.0, 1.0, -0.5, 1.5, np.nan):
        with pytest.raises(DomainError):
            quantile(bad, EXP, g)


@pytest.mark.parametrize("name,shapes", CATALOG_SWEEP, ids=sweep_ids(CATALOG_SWEEP))
def test_cdf_quantile_round_trip(name, shapes):
    g = make_generator(name, **shapes)
    us = np.array([0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999])
    for params in (FamilyParams(0.7, 1.8), FamilyParams(2.5, 0.4), FamilyParams(1.0, 1.0, 2.0)):
        ys = quantile(us, params, g)
        assert ys.shape == us.shape
        assert np.all(ys > 0.0)
        back = cdf(ys, params, g)
        assert np.max(np.abs(back - us)) < 1e-8


@pytest.mark.parametrize("name,shapes", CATALOG_SWEEP, ids=sweep_ids(CATALOG_SWEEP))
def test_density_normalizes(name, shapes):
    g = make_generator(name, **shapes)
    for params in (FamilyParams(0.8, 1.3), FamilyParams(2.0, 0.6), FamilyParams(1.5, 1.0, 1.5)):
        knots = [1e-12, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 1 - 1e-4, 1 - 1e-8]
        pts = [quantile(u, params, g) for u in knots]
        total = 0.0
        for lo, hi in zip(pts, pts[1:]):
            piece, _ = scipy.integrate.quad(
                lambda y: math.exp(log_pdf(y, params, g)), lo, hi, limit=200
            )
            total += piece
        assert abs(total - 1.0) < 1e-6


def test_sampler_determinism_and_type():
    g = make_generator("weibull", delta=2.0)
    p = FamilyParams(1.5, 0.8)
    a = sample(100, p, g, RngStream(3, 1))
    b = sample(100, p, g, RngStream(3, 1))
    c = sample(100, p, g, RngStream(3, 2))
    assert isinstance(a, np.ndarray) and a.shape == (100,)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert np.all(a > 0.0)
    one = sample(1, p, g, RngStream(3, 3))
    assert one.shape == (1,) and one[0] > 0.0
    with pytest.raises(DomainError):
        sample(0, p, g, RngStream(3, 4))


def test_sampler_and_quantile_raise_on_inverse_overflow():
    g = make_generator("weibull", delta=0.01)  # inverse z ** 100
    with pytest.raises(OverflowInValue):
        sample(5, FamilyParams(2.0, 1e-6), g, RngStream(1, 0))
    with pytest.raises(OverflowInValue):
        quantile(0.5, FamilyParams(2.0, 1e-6), g)


def test_sampler_transformed_mean():
    # E[T1(Y^p)] = 1/sigma under the stochastic representation
    cases = [
        ("gamma", {}, FamilyParams(1.0, 1.0)),
        ("burr-xii", {"c": 2.0}, FamilyParams(2.0, 0.5)),
        ("inverse-gamma", {}, FamilyParams(3.0, 2.0)),
        ("weibull", {"delta": 2.0}, FamilyParams(1.5, 0.8, 2.0)),
    ]
    for name, shapes, p in cases:
        g = make_generator(name, **shapes)
        y = sample(200_000, p, g, RngStream(17, 0))
        z = g.value(y**p.power)
        se = math.sqrt(p.mu) / (p.mu * p.sigma) / math.sqrt(y.size)
        assert abs(float(z.mean()) - 1.0 / p.sigma) < 4.0 * se


def test_empirical_quantiles_match():
    g = make_generator("gamma")
    p = FamilyParams(2.0, 1.5)
    y = np.sort(sample(1_000_000, p, g, RngStream(21, 0)))
    for u in (0.1, 0.5, 0.9):
        q = quantile(u, p, g)
        dens = math.exp(log_pdf(q, p, g))
        se = math.sqrt(u * (1.0 - u) / y.size) / dens
        emp = y[int(u * y.size)]
        assert abs(emp - q) < 4.0 * se


def test_converse_gamma_ks():
    # T1(Y^p) must be Gamma(mu, 1/(mu sigma)); acceptance sweeps the catalog
    cases = [
        ("gamma", {}, FamilyParams(1.2, 0.9)),
        ("dagum", {"c": 2.0}, FamilyParams(0.7, 2.0)),
        ("gompertz", {"delta": 2.0}, FamilyParams(3.0, 0.5, 2.0)),
    ]
    for name, shapes, p in cases:
        g = make_generator(name, **shapes)
        y = sample(30_000, p, g, RngStream(23, 0))
        z = g.value(y**p.power)
        res = scipy.stats.kstest(z, "gamma", args=(p.mu, 0.0, 1.0 / (p.mu * p.sigma)))
        assert res.pvalue > 0.001


def test_moment_power_law_pins():
    g = FamilyParams(1.0, 1.0)
    assert abs(moment_power_law(1.0, g, 1.0, -1.0) - 1.0) < 1e-13
    assert abs(moment_power_law(2.0, g, 1.0, -1.0) - 2.0) < 1e-13
    # T1 = x^2 at mu = 1.5, sigma = 1/3: E[Y^2] = 3
    assert abs(moment_power_law(2.0, FamilyParams(1.5, 1.0 / 3.0), 1.0, -2.0) - 3.0) < 1e-12
    # scaling constant enters through (C mu sigma)^(q/(p s)): T1 = 2x
    assert abs(moment_power_law(1.0, FamilyParams(1.0, 1.0), 2.0, -1.0) - 0.5) < 1e-13
    # inverse-gamma mean, s = +1
    assert abs(moment_power_law(1.0, FamilyParams(3.0, 2.0), 1.0, 1.0) - 3.0) < 1e-12
    # power extension p = 2 on T1 = x: E[Y^2] = 1/sigma
    assert abs(moment_power_law(2.0, FamilyParams(2.0, 0.5, 2.0), 1.0, -1.0) - 2.0) < 1e-12
    with pytest.raises(MomentDoesNotExistError):
        moment_power_law(1.0, FamilyParams(0.5, 1.0), 1.0, 1.0)
    with pytest.raises(DomainError):
        moment_power_law(1.0, g, -1.0, -1.0)
    with pytest.raises(DomainError):
        moment_power_law(1.0, g, 1.0, 0.0)


def test_moment_power_law_against_sampling():
    # 10^6 draws, x^2 generator, q = 2
    g = make_generator("nakagami")
    p = FamilyParams(1.5, 1.0 / 3.0)
    y = sample(1_000_000, p, g, RngStream(29, 0))
    vals = y**2
    se = float(vals.std()) / math.sqrt(vals.size)
    assert abs(float(vals.mean()) - 3.0) < 4.0 * se


def test_moment_exists_rules():
    burr = make_generator("burr-xii", c=2.0)
    assert moment_exists(-1.0, burr).exists is True
    assert moment_exists(1.0, burr).exists is False
    assert moment_exists(0.0, burr).exists is True
    dagum = make_generator("dagum", c=2.0)
    assert moment_exists(-3.0, dagum).exists is True
    assert moment_exists(-1.0, dagum).exists is False

    gamma = make_generator("gamma")
    r = moment_exists(2.0, gamma)
    assert r.exists is True and r.rule == "power-law"
    ig = make_generator("inverse-gamma")
    assert moment_exists(1.0, ig).exists is None  # needs mu
    assert moment_exists(1.0, ig, mu=3.0).exists is True
    assert moment_exists(1.0, ig, mu=0.5).exists is False

    tw = make_generator("traditional-weibull", b=1.0, c=1.0, d=1.0)
    r = moment_exists(1.0, tw)
    assert r.exists is True and r.rule == "minorant"
    assert moment_exists(3.0, tw).exists is None
    gz = make_generator("gompertz", delta=2.0)
    assert moment_exists(0.5, gz).exists is True

    fw = make_generator("flexible-weibull", b=1.0, c=0.5)
    r = moment_exists(1.0, fw)
    assert r.exists is None and r.rule == "unknown"
    with pytest.raises(DomainError):
        moment_exists(1.0, gamma, p=0.0)


def test_population_mu_limit():
    gamma = make_generator("gamma")
    v = population_mu_limit(FamilyParams(2.5, 1.0), gamma, 200_000, RngStream(31, 0))
    assert abs(v - 2.5) < 0.05
    nak = make_generator("nakagami")
    v = population_mu_limit(FamilyParams(4.0, 2.0), nak, 200_000, RngStream(31, 1))
    assert abs(v - 4.0) < 0.08
    # T1 = e^x - 1 approaches mu as sigma grows
    nlgg = make_generator("new-log-generalized-gamma", delta=1.0)
    v = population_mu_limit(FamilyParams(2.0, 50.0), nlgg, 400_000, RngStream(31, 2))
    assert abs(v - 2.0) < 0.1
    with pytest.raises(DomainError):
        population_mu_limit(FamilyParams(2.0, 1.0), gamma, 500, RngStream(31, 3))
    with pytest.raises(DomainError):
        population_mu_limit(FamilyParams(2.0, 1.0, 2.0), gamma, 5000, RngStream(31, 4))


def test_family_params_validation():
    assert FamilyParams(1.0, 2.0).power == 1.0
    for bad in ((0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, 0.0), (np.nan, 1.0, 1.0)):
        with pytest.raises(DomainError):
            FamilyParams(*bad)


def test_sample_container():
    s = Sample([1.0, 2.0, 3.0])
    assert s.n == 3 and len(s) == 3
    assert Sample(np.array([[1.0, 2.0], [3.0, 4.0]])).n == 4
    with pytest.raises(NonpositiveObservationError):
        Sample([])
    with pytest.raises(NonpositiveObservationError):
        Sample([1.0, 0.0])
    with pytest.raises(NonpositiveObservationError):
        Sample([1.0, np.inf])
