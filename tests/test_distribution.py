"""Density, CDF, quantile, sampler, and moment formulas for the family."""

import collections
import math
import warnings

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
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    inverse_of,
    isf,
    log_pdf,
    make_generator,
    moment_exists,
    moment_power_law,
    population_mu_limit,
    profile_sigma,
    quantile,
    sample,
    sample_gamma,
    sf,
)
from gamgen import distribution, errors, experiment, generators, special
from gamgen.distribution import _power

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
        # relative accuracy deep in both tails, and sf/isf for the upper one
        levels = np.array([1e-12, 1e-6, 0.5, 1.0 - 1e-6])
        back = cdf(quantile(levels, params, g), params, g)
        assert np.all(np.abs(back - levels) <= 1e-10 * levels)
        back = sf(isf(levels, params, g), params, g)
        assert np.all(np.abs(back - levels) <= 1e-10 * levels)
        assert abs(cdf(1.3, params, g) + sf(1.3, params, g) - 1.0) <= 1e-15


@pytest.mark.parametrize("name,shapes", CATALOG_SWEEP, ids=sweep_ids(CATALOG_SWEEP))
def test_one_level_quantile_has_the_bits_of_a_two_level_call(name, shapes):
    # a level alone, as a float or as a 1-entry array, has the bits of that
    # level in a 2-level call, and the return types are kept
    g = make_generator(name, **shapes)
    cases = [(FamilyParams(0.5, 1.0), (0.01, 0.3, 0.5, 0.9, 0.99)),
             (FamilyParams(3.0, 1.2), (0.01, 0.3, 0.5, 0.9, 0.99))]
    if name == "gamma":  # the benchmark's tail probes
        cases.append((FamilyParams(3.0, 1.0), (1e-300, 1e-12, 1.0 - 1e-12)))
    for params, levels in cases:
        for fn in (quantile, isf):
            for u in levels:
                pair = fn(np.array([u, 0.5]), params, g)
                alone = fn(u, params, g)
                one = fn(np.array([u]), params, g)
                assert type(alone) is float and alone == pair[0], (fn.__name__, params, u)
                assert type(one) is np.ndarray and one.shape == (1,)
                assert one[0] == pair[0]


def test_tail_accuracy_against_scipy():
    ig = make_generator("inverse-gamma")
    law = scipy.stats.gamma(3.0, scale=1.0 / 3.0)  # T(Y) = 1/Y for (mu, sigma) = (3, 1)
    for y in (0.05, 0.1):
        ref = law.sf(1.0 / y)
        assert abs(cdf(y, FamilyParams(3.0, 1.0), ig) - ref) <= 1e-12 * ref
    g = make_generator("gamma")
    for u in (1e-300, 1e-12, 1.0 - 1e-12):
        ref = law.ppf(u) if u < 0.5 else law.isf(1.0 - u)  # 1 - u is exact here
        assert abs(quantile(u, FamilyParams(3.0, 1.0), g) - ref) <= 1e-12 * ref
    for q in (1e-300, 1e-12):
        ref = law.isf(q)
        assert abs(isf(q, FamilyParams(3.0, 1.0), g) - ref) <= 1e-12 * ref
    # a decreasing generator inverts Q at u itself, never P at 1 - u
    ref = 1.0 / law.isf(1e-300)
    assert abs(quantile(1e-300, FamilyParams(3.0, 1.0), ig) - ref) <= 1e-12 * ref


def test_tail_underflow_is_exact_or_named():
    # T(y) underflows to 0: cdf and sf need only T, log_pdf needs ln T or ln|T'|
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        burr = make_generator("burr-xii", c=2.0)
        assert cdf(1e-300, FamilyParams(3.0, 1.0), burr) == 0.0
        assert sf(1e-300, FamilyParams(3.0, 1.0), burr) == 1.0
        points = [
            (burr, 1e-300),
            (burr, 1e-160),
            (make_generator("dagum", c=2.0), 1e300),
            (make_generator("traditional-weibull"), 1e-300),
            (make_generator("flexible-weibull", b=1.0, c=0.5), 1e-300),
            (make_generator("flexible-weibull", b=1.0, c=0.5), 1e-160),
            (make_generator("modified-weibull-extension", alpha=2.0, beta=1.5), 1e-300),
        ]
        for g, y in points:
            with pytest.raises(OverflowInValue):
                log_pdf(y, FamilyParams(2.0, 1.0), g)
        # the root, about 1e-6000, is below the float64 normal range
        with pytest.raises(OverflowInValue):
            quantile(1e-300, FamilyParams(0.05, 1.0), make_generator("gamma"))


def test_saturated_tail_from_log_channel():
    # T = expm1(800) overflows, but ln T = 800 shows Q(3, 3 T) is far below the
    # float64 range: cdf and sf are exactly 1 and 0, and log_pdf still raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nlgg = make_generator("new-log-generalized-gamma", delta=1.0)
        params = FamilyParams(3.0, 1.0)
        assert cdf(800.0, params, nlgg) == 1.0
        assert sf(800.0, params, nlgg) == 0.0
        ys = np.array([1.5, 800.0])
        assert np.array_equal(cdf(ys, params, nlgg), [cdf(1.5, params, nlgg), 1.0])
        assert np.array_equal(sf(ys, params, nlgg), [sf(1.5, params, nlgg), 0.0])
        with pytest.raises(OverflowInValue):
            log_pdf(800.0, params, nlgg)
        # mu sigma T = e^(711 - 713.8) is small, so the tail is not saturated
        for fn in (cdf, sf):
            with pytest.raises(OverflowInValue):
                fn(711.0, FamilyParams(1.0, 1e-310), nlgg)
        # T = 1e300 is finite but mu sigma T is not: saturated from ln T itself
        gamma = make_generator("gamma")
        assert cdf(1e300, FamilyParams(1e10, 1.0), gamma) == 1.0
        assert sf(1e300, FamilyParams(1e10, 1.0), gamma) == 0.0


def test_quantile_underflow_of_the_scaled_root_is_an_overflow_error():
    # the gamma root over mu sigma = 1e300 underflows to 0: a range fault of
    # valid inputs (exit 4), not a usage error
    g = make_generator("gamma")
    params = FamilyParams(1.0, 1e300)
    with pytest.raises(OverflowInValue):
        quantile(1e-300, params, g)
    assert isf(1.0 - 1e-16, params, g) == 1.110223e-316
    # mu sigma = 0.4 * 5e-324 rounds to 0, so the root over it is inf: the
    # same named error for one level and for several
    for u in (0.5, [0.5, 0.6]):
        with pytest.raises(OverflowInValue):
            quantile(u, FamilyParams(0.4, 5e-324), g)


def _public_route(u, params, g, upper):
    # quantile and isf composed of the public solve and inverse, which check
    # the level and every intermediate again: the reference for the direct route
    arr = errors.level_array(u, "quantile level")
    on_q = upper != (g.monotonicity == "decreasing")
    z = (inv_reg_upper_gamma if on_q else inv_reg_lower_gamma)(params.mu, arr)
    with np.errstate(over="ignore", divide="ignore"):
        t = np.divide(z, params.mu * params.sigma)
    if not np.all((t > 0.0) & (t < np.inf)):
        raise OverflowInValue("gamma root over mu sigma left the positive float64 range")
    x = inverse_of(g, t)
    y = _power(x, 1.0 / params.power) if params.power != 1.0 else x
    return float(y) if arr.ndim == 0 else np.asarray(y)


def _outcome(fn, *args):
    # the result's type, shape and bits, or the error's class and message,
    # with every warning on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            y = fn(*args)
            out = (type(y), np.shape(y), np.asarray(y).tobytes())
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


BENCH_LEVELS = tuple(0.01 + 0.98 * (np.arange(6) + 0.5) / 6)
PARITY_LEVELS = (1e-300, 1e-12) + BENCH_LEVELS + (0.5, 1.0 - 1e-12)


@pytest.mark.parametrize("name,shapes", CATALOG_SWEEP, ids=sweep_ids(CATALOG_SWEEP))
def test_quantile_has_the_bits_and_errors_of_the_public_route(name, shapes):
    # quantile and isf call the solve and the inverse kernel directly; each
    # level form keeps the public route's bits, error class and message
    g = make_generator(name, **shapes)
    cases = [(FamilyParams(mu, sigma, p), PARITY_LEVELS)
             for mu, sigma in ((0.5, 1.0), (3.0, 1.2)) for p in (1.0, 2.5)]
    cases += [(FamilyParams(1e-300, 1.0), (1e-12, 0.5, 1.0 - 1e-12)),
              (FamilyParams(1.0, 1.0, 1e-300), (1e-12, 0.5)),
              (FamilyParams(1.0, 1e300), (1e-300, 0.5)),
              (FamilyParams(3.0, 1.2, 0.001), (0.5, 0.999999))]
    raised = set()
    for params, levels in cases:
        forms = [u for v in levels for u in (v, np.array([v]))]
        forms += [np.array(BENCH_LEVELS).reshape(2, 3), np.array([])]
        for upper, fn in ((False, quantile), (True, isf)):
            for u in forms:
                want = _outcome(_public_route, u, params, g, upper)
                assert _outcome(fn, u, params, g) == want, (fn.__name__, params, u)
                if len(want[0]) == 2:
                    raised.add(want[0][1])
    assert "Y^p left the positive float64 range" in raised
    assert "gamma root over mu sigma left the positive float64 range" in raised


def test_one_level_quantile_validates_the_level_once(monkeypatch):
    # the level is checked once and the parameters by FamilyParams, so no
    # check runs again on the level or the gamma root, and the public solve
    # and inverse are not reached
    params = FamilyParams(3.0, 1.2, 2.0)
    gens = [make_generator("gamma"), make_generator("traditional-weibull", b=1.0, c=1.0, d=1.0)]
    calls = collections.Counter()

    def count(module, name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted, raising=False)

    for module in (distribution, special):
        count(module, "level_array", errors.level_array)
    for module in (distribution, special, generators):
        count(module, "positive_array", errors.positive_array)
    count(distribution, "inverse_of", inverse_of)
    for fn in (inv_reg_lower_gamma, inv_reg_upper_gamma):
        count(distribution, fn.__name__, fn)
    for g in gens:
        for fn in (quantile, isf):
            for u in (0.3, np.array([0.3])):
                calls.clear()
                fn(u, params, g)
                assert calls == {"level_array": 1}, (g.name, fn.__name__, u)


def test_quantile_at_a_subnormal_shape_raises_without_a_warning():
    g = make_generator("gamma")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (quantile, isf):
            with pytest.raises(OverflowInValue, match="below the float64 normal range"):
                fn(0.5, FamilyParams(5e-324, 1.0), g)


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
    with pytest.raises(OverflowInValue):  # draws below ~1e-3.1 underflow to 0
        sample(2000, FamilyParams(0.2, 1.0), g, RngStream(1, 0))
    with pytest.raises(OverflowInValue):
        quantile(0.5, FamilyParams(2.0, 1e-6), g)


def test_sample_draw_underflow_is_an_overflow_error():
    # sample_gamma floors a draw that underflows to 0 at the smallest
    # subnormal; sample reports it instead of passing it on as data
    g = make_generator("gamma")
    floored = sample_gamma(0.001, 1000.0, RngStream(1, 0), size=2000)
    assert np.any(floored == 5e-324)
    with pytest.raises(OverflowInValue):
        sample(2000, FamilyParams(0.001, 1.0), g, RngStream(1, 0))
    with pytest.raises(OverflowInValue):
        sample(5, FamilyParams(1e-300, 1.0), g, RngStream(1, 0))


def test_power_overflow_is_named():
    # y^p and x^(1/p) past the float64 range, on either side, raise instead of
    # warning or handing 0 to the generator
    g = make_generator("gamma")
    for y in (1e200, 1e-200):
        for fn in (cdf, sf, log_pdf):
            with pytest.raises(OverflowInValue):
                fn(y, FamilyParams(1.0, 1.0, 2.0), g)
    wide = FamilyParams(1.0, 1.0, 0.001)
    with pytest.raises(OverflowInValue):
        sample(5, FamilyParams(5.0, 0.2, 0.001), g, RngStream(1, 0))
    with pytest.raises(OverflowInValue):
        quantile(1.0 - 1e-12, wide, g)
    with pytest.raises(OverflowInValue):
        isf(np.array([1e-12]), wide, g)


def test_a_log_density_past_the_float64_range_raises():
    # mu sigma T(y) overflows: log_pdf warned and returned -inf
    with pytest.raises(OverflowInValue):
        log_pdf(1e300, FamilyParams(2.0, 1e200), make_generator("gamma"))
    with pytest.raises(OverflowInValue):
        log_pdf(np.array([2.0, 1e300]), FamilyParams(2.0, 1e200), make_generator("gamma"))


def test_every_scalar_positive_check_rejects_what_it_rejected():
    # each check goes through errors.positive_array on float(value): not
    # finite or <= 0 is a DomainError, an array where a scalar belongs is
    # still rejected, and a numeric string passes at every site
    g = make_generator("inverse-gamma")
    sites = [
        lambda v: FamilyParams(v, 1.0),
        lambda v: FamilyParams(1.0, v),
        lambda v: FamilyParams(1.0, 1.0, v),
        lambda v: moment_power_law(1.0, FamilyParams(3.0, 1.0), v, 1.0),
        lambda v: moment_exists(1.0, g, v),
        lambda v: profile_sigma(Sample([1.0, 2.0]), g, v),
        lambda v: experiment.ExperimentConfig(g.name, ({"mu": v, "sigma": 1.0},), (5,), 2, 0, 1),
        lambda v: make_generator("weibull", delta=v),
        lambda v: sample_gamma(v, 1.0, RngStream(1, 0)),
        lambda v: sample_gamma(1.0, v, RngStream(1, 0)),
    ]
    for site in sites:
        site(1.5)
        site("1.5")
        for bad in (0.0, -0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                site(bad)
        with pytest.raises((TypeError, ValueError)):
            site(np.array([1.0, 2.0]))
    # FamilyParams keeps the float it checked, never the string or array
    params = FamilyParams("2", np.float64(0.5), np.array(1.5))
    assert params == FamilyParams(2.0, 0.5, 1.5)
    assert {type(v) for v in (params.mu, params.sigma, params.power)} == {float}


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
