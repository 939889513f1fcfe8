"""Special functions: accuracy against scipy/mpmath oracles plus pinned values."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps
import scipy.stats

from gamgen import (
    ConvergenceError,
    DomainError,
    FamilyParams,
    OverflowInValue,
    RngStream,
    digamma,
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    isf,
    log_gamma,
    make_generator,
    reg_lower_gamma,
    reg_upper_gamma,
    sample_gamma,
    special,
)

LOG_GRID = np.geomspace(1e-6, 1e6, 61)

# Shapes and levels of the incomplete-gamma inverse sweep, both tails included.
INV_SHAPES = (0.05, 0.3, 0.5, 1.0, 2.5, 3.0, 7.0, 40.0, 300.0)
INV_LEVELS = (1e-300, 1e-100, 1e-12, 1e-6, 0.01, 0.1, 0.5, 0.9, 0.99,
              1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 1e-16)


def test_log_gamma_pins():
    # contract: absolute error <= 1e-12 on [1e-6, 1e6]
    assert abs(log_gamma(1.0)) <= 1e-12
    assert abs(log_gamma(2.0)) <= 1e-12
    assert abs(log_gamma(0.5) - 0.5723649429247001) <= 1e-12
    assert abs(log_gamma(10.0) - math.lgamma(10.0)) <= 1e-12


def test_log_gamma_matches_scipy_on_grid():
    # 1e-12 absolute, plus a few ulps of the value where ln gamma itself is
    # large enough that float64 cannot represent the target any closer
    ours = np.array([log_gamma(x) for x in LOG_GRID])
    ref = sps.gammaln(LOG_GRID)
    assert np.all(np.abs(ours - ref) <= 1e-12 + 4.0 * np.spacing(np.abs(ref)))


def test_log_gamma_domain():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            log_gamma(bad)


def test_log_gamma_beyond_the_float_range_is_an_overflow_error():
    # ln Gamma(x) exceeds the largest float above about 2.5e305
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (2.6e305, 1e307, np.array([1e307, 2.0]), np.finfo(np.float64).max):
            with pytest.raises(OverflowInValue):
                log_gamma(x)
        assert log_gamma(2.4e305) == pytest.approx(2.4e305 * (math.log(2.4e305) - 1.0))


def _masked_lift_log_gamma(arr):
    # special.log_gamma with its lift written as masked updates
    w = arr.copy()
    shift = np.zeros_like(w)
    for _ in range(12):
        mask = w < 12.0
        if not mask.any():
            break
        shift[mask] += np.log(w[mask])
        w[mask] += 1.0
    with np.errstate(over="ignore"):
        t = 1.0 / (w * w)
    series = special._STIRLING[-1]
    for coef in special._STIRLING[-2::-1]:
        series = coef + t * series
    return (w - 0.5) * np.log(w) - w + special._HALF_LOG_2PI + series / w - shift


@pytest.mark.parametrize("case", ["geomspace", "uniform", "scalar"])
def test_log_gamma_in_place_lift_keeps_its_bits(case):
    x = {
        "geomspace": np.geomspace(1e-300, 1e300, 200_001),
        "uniform": np.random.default_rng(20261019).uniform(1e-9, 13.0, 200_001),
        "scalar": np.array(0.37),
    }[case]
    before = x.copy()
    got = log_gamma(x)
    # each entry is lifted in Python floats, with the bits of the array lift
    assert np.array_equal(got, _masked_lift_log_gamma(x))
    assert np.array_equal(x, before)
    assert type(log_gamma(0.37)) is float


def test_large_arguments_return_without_overflow_warning():
    # w * w overflows past ~1e154; the series term it feeds is then 0
    assert log_gamma(1e200) == pytest.approx(1e200 * (math.log(1e200) - 1.0), rel=1e-15)
    assert digamma(1e200) == pytest.approx(math.log(1e200), rel=1e-15)


def test_digamma_pins():
    # contract: absolute error <= 1e-10 on [1e-6, 1e6]
    euler = 0.5772156649015329
    assert abs(digamma(1.0) + euler) <= 1e-10
    assert abs(digamma(2.0) - (1.0 - euler)) <= 1e-10
    # recurrence psi(x+1) = psi(x) + 1/x
    for x in (0.3, 1.7, 9.4, 123.0):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-12


def test_digamma_matches_scipy_on_grid():
    ours = np.array([digamma(x) for x in LOG_GRID])
    ref = sps.digamma(LOG_GRID)
    assert np.all(np.abs(ours - ref) <= 1e-10 + 4.0 * np.spacing(np.abs(ref)))


def _where_lift_digamma(arr):
    # special._digamma with its lift written as two np.where per step
    w = arr
    shift = np.zeros_like(w)
    for _ in range(6):
        mask = w < 6.0
        if not mask.any():
            break
        shift = np.where(mask, shift + 1.0 / w, shift)
        w = np.where(mask, w + 1.0, w)
    t = 1.0 / (w * w)
    series = special._DIGAMMA[-1]
    for coef in special._DIGAMMA[-2::-1]:
        series = coef + t * series
    return np.log(w) - 0.5 / w - t * series - shift


@pytest.mark.parametrize("case", ["geomspace", "uniform"])
def test_digamma_in_place_lift_keeps_its_bits(case):
    x = {
        "geomspace": np.geomspace(1e-300, 1e300, 200_001),
        "uniform": np.random.default_rng(20261019).uniform(1e-9, 12.0, 200_001),
    }[case]
    with np.errstate(over="ignore"):  # w * w overflows above ~1e154, as always
        want = _where_lift_digamma(x)
        assert np.array_equal(special._digamma(x), want)
    assert np.array_equal(digamma(x), want)
    # a Python float takes the float form, with the bits of its array entry
    assert np.array_equal([special._digamma(v) for v in x.tolist()], want)
    some = x[::101].tolist()
    assert [digamma(v) for v in some] == want[::101].tolist()
    assert type(digamma(2.0)) is float


def test_digamma_leaves_its_input_unchanged():
    x = np.array([1e-9, 0.5, 1.0, 5.999, 6.0, 7.5, 1e6])
    before = x.copy()
    digamma(x)
    special._digamma(x)
    assert np.array_equal(x, before)


def test_binet_bound_on_grid():
    # ln x - psi(x) > 1/(2x), the inequality behind uniqueness of the ML root
    grid = np.geomspace(1e-3, 1e5, 81)
    for x in grid:
        assert math.log(x) - digamma(x) > 1.0 / (2.0 * x)
    assert math.log(1e8) - digamma(1e8) < 1e-7
    gap10 = math.log(10.0) - digamma(10.0)
    assert 0.05 < gap10 < 0.05 + 1.0 / 1200.0


def test_reg_lower_gamma_pins():
    assert reg_lower_gamma(1.0, 0.0) == 0.0
    xs = np.linspace(0.01, 20.0, 40)
    for x in xs:
        assert abs(reg_lower_gamma(1.0, x) - (1.0 - math.exp(-x))) < 1e-13
    # mpmath 40-digit quadrature oracle
    assert abs(reg_lower_gamma(2.5, 2.5) - 0.5841198130044921) < 1e-13


def test_reg_lower_gamma_matches_scipy():
    for a in (0.05, 0.5, 1.0, 2.5, 7.0, 40.0, 300.0):
        for x in (a * 0.1, a * 0.5, a, a * 2.0, a * 8.0):
            assert abs(reg_lower_gamma(a, x) - sps.gammainc(a, x)) < 1e-11


def test_reg_lower_gamma_monotone_and_limits():
    for a in (0.3, 1.0, 4.0):
        xs = np.geomspace(1e-6, 1e3, 200)
        vals = np.array([reg_lower_gamma(a, x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] < 0.05
        assert abs(vals[-1] - 1.0) < 1e-12


def test_inv_reg_lower_gamma_pins():
    assert abs(inv_reg_lower_gamma(1.0, 1.0 - math.exp(-1.0)) - 1.0) < 1e-12
    assert abs(inv_reg_lower_gamma(1.0, 0.5) - math.log(2.0)) < 1e-13
    # bisection oracle at 40 digits: P(3, x) = 0.9
    assert abs(inv_reg_lower_gamma(3.0, 0.9) - 5.32232033783421) < 1e-11


def test_inv_reg_lower_gamma_round_trip():
    for a in (0.3, 1.0, 2.5, 7.0, 40.0, 300.0):
        for u in (1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6):
            x = inv_reg_lower_gamma(a, u)
            assert abs(reg_lower_gamma(a, x) - u) < 1e-9


def _scipy_inverse(a, level, upper):
    # the smaller tail probability is exact: hand scipy that one
    if level > 0.5:
        level, upper = 1.0 - level, not upper
    return float(sps.gammainccinv(a, level) if upper else sps.gammaincinv(a, level))


@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
def test_inv_incomplete_gamma_matches_scipy_in_both_tails(upper):
    inverse = inv_reg_upper_gamma if upper else inv_reg_lower_gamma
    checked = 0
    for a in INV_SHAPES:
        for level in INV_LEVELS:
            ref = _scipy_inverse(a, level, upper)
            if ref < 1e-290:
                continue
            x = inverse(a, level)
            assert abs(x - ref) <= 1e-12 * ref, (a, level, x, ref)
            checked += 1
    assert checked > 90


def test_inv_incomplete_gamma_against_mpmath():
    # roots of ln P(a, x) = ln u and ln Q(a, x) = ln q polished by Newton at 40 digits
    cases = [(0.5, 1e-100, False), (40.0, 1e-12, True), (300.0, 1e-300, True)]
    with mpmath.workdps(40):
        for a, level, upper in cases:
            ours = (inv_reg_upper_gamma if upper else inv_reg_lower_gamma)(a, level)
            x = mpmath.mpf(ours)
            for _ in range(4):
                if upper:
                    prob = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
                else:
                    prob = mpmath.gammainc(a, 0, x, regularized=True)
                dens = x ** (a - 1) * mpmath.exp(-x) / mpmath.gamma(a)
                slope = (-dens if upper else dens) / prob
                x -= (mpmath.log(prob) - mpmath.log(level)) / slope
            root = float(x)
            assert abs(ours - root) <= 1e-13 * root, (a, level, ours, root)


def _mpmath_upper_root(a, level):
    # the root of ln Q(a, x) = ln level at 40 digits by Newton steps in ln x, from
    # the root of a E1(x) = level, which Q(a, x) approaches as a goes to 0
    with mpmath.workdps(40):
        a, level = mpmath.mpf(a), mpmath.mpf(level)
        x = mpmath.re(mpmath.findroot(lambda t: mpmath.e1(t) - level / a, 0.5))
        for _ in range(8):
            prob = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
            dens = x ** a * mpmath.exp(-x) / mpmath.gamma(a)  # -x dQ/dx
            x *= mpmath.exp((mpmath.log(prob) - mpmath.log(level)) * prob / dens)
        return float(x)


def test_inv_incomplete_gamma_at_tiny_shapes_against_mpmath():
    # the small-x start's exponent takes ln Gamma(1 + a) / a from its series, so it
    # keeps its sign where ln Gamma(a) + ln a is all rounding error (a near 1e-300)
    cases = [(1e-300, 1e-300), (1e-298, 1e-300), (1e-200, 1e-200), (1e-100, 3e-101),
             (1e-20, 1e-20), (1e-8, 2e-9)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, level in cases:
            root = _mpmath_upper_root(a, level)
            ours = inv_reg_upper_gamma(a, level)
            assert abs(ours - root) <= 1e-13 * root, (a, level, ours, root)
        ours = isf(1e-300, FamilyParams(1e-300, 1.0), make_generator("gamma"))
        root = _mpmath_upper_root(1e-300, 1e-300) / 1e-300
        assert abs(ours - root) <= 1e-13 * root, (ours, root)
        # the lower-tail root at 1 - 1e-16 is about exp(-1e284)
        with pytest.raises(OverflowInValue, match="below the float64 normal range"):
            inv_reg_lower_gamma(1e-300, 1.0 - 1e-16)


def _array_norm_ppf(p):
    # Acklam's normal quantile as whole-array passes, as special._norm_ppf's steps
    a, b, c, d = special._ACKLAM_A, special._ACKLAM_B, special._ACKLAM_C, special._ACKLAM_D
    plow = 0.02425
    tail = p < plow
    q = np.sqrt(-2.0 * np.log(np.where(tail, p, plow)))
    z_tail = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
             ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    z_mid = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    return np.where(tail, z_tail, z_mid)


def _array_inv_gamma(a, t, upper):
    # the whole-array form of special._inv_gamma_one: every level of the 1-d
    # array t at once, with the levels still moving gathered by index
    on_q = (t > 0.5) != upper
    r = np.where(t > 0.5, 1.0 - t, t)
    sgn = np.where(on_q, -1.0, 1.0)
    lg_a = log_gamma(a)
    log_u = np.where(on_q, np.log1p(-r), np.log(r))
    if a < special._SMALL_A:
        log_xs = log_u / a + special._lgamma1p_over_a(a)
    else:
        log_xs = (log_u + lg_a + np.log(a)) / a
    if np.any(log_xs < special._LOG_TINY):
        raise OverflowInValue("below the float64 normal range")
    z = sgn * _array_norm_ppf(r)
    wh = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))
    x = np.maximum(np.exp(log_xs), a * np.maximum(wh, 0.0) ** 3)
    clamp = special._HALLEY_CLAMP
    lo = np.zeros_like(x)
    hi = np.full_like(x, np.inf)
    active = np.arange(t.size)
    for _ in range(special._HALLEY_MAX):
        if active.size == 0:
            break
        xa, ra, sa = x[active], r[active], sgn[active]
        p, q = special._gamma_pq(a, xa, lg_a)
        f = np.where(sa < 0.0, q, p)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = np.log(f / ra)
            w = np.exp((a - 1.0) * np.log(xa) - xa - lg_a - np.log(f))
            h = sa * g / w
            curv = (a - 1.0) / xa - 1.0 - sa * w
            step = h / (1.0 - 0.5 * np.minimum(1.0, h * curv))
            x_new = np.clip(xa - step, xa / clamp, xa * clamp)
            above = sa * g > 0.0
            lo_a = np.where(above, lo[active], xa)
            hi_a = np.where(above, xa, hi[active])
            inside = (x_new >= lo_a) & (x_new <= hi_a)
            bisect = np.where(np.isinf(hi_a), lo_a * clamp, np.where(
                lo_a > 0.0, np.sqrt(lo_a) * np.sqrt(hi_a), hi_a / clamp))
            x_new = np.where(inside, x_new, bisect)
        lo[active], hi[active] = lo_a, hi_a
        x[active] = x_new
        active = active[~(inside & (np.abs(step) <= special._HALLEY_STOP * x_new))]
    else:
        raise ConvergenceError("did not converge")
    return x


def _solve_or_error(inverse, a, levels):
    try:
        return inverse(a, levels)
    except (ConvergenceError, OverflowInValue) as exc:
        return type(exc)


def _array_inverse(upper):
    return lambda a, level: float(_array_inv_gamma(a, np.array([level]), upper)[0])


def test_inv_incomplete_gamma_array_equals_per_element_calls():
    # each level is solved in Python floats: every root has the bits of the
    # whole-array form of the same steps, or raises the same error, and an
    # array of levels has the bits of one call per level
    levels = np.array(INV_LEVELS).reshape(3, 4)
    for a in (1.0, 3.0, 300.0):
        for inverse in (inv_reg_lower_gamma, inv_reg_upper_gamma):
            whole = inverse(a, levels)
            assert whole.shape == levels.shape
            single = np.array([inverse(a, float(v)) for v in levels.ravel()])
            assert np.array_equal(whole.ravel(), single)
            assert isinstance(inverse(a, 0.5), float)
            assert np.array_equal(inverse(a, np.array([0.3])), [inverse(a, 0.3)])
    rng = np.random.default_rng(20261019)
    sweep = np.concatenate([INV_LEVELS, 10.0 ** rng.uniform(-300.0, -0.31, 40),
                            1.0 - 10.0 ** rng.uniform(-16.0, -0.31, 40)])
    for a in (1e-3, 0.05, 0.09, 0.5, 1.0, 3.0, 300.0, 1e4, 1e5):
        for upper, inverse in ((False, inv_reg_lower_gamma), (True, inv_reg_upper_gamma)):
            single = [_solve_or_error(inverse, a, float(v)) for v in sweep]
            solved = np.array([type(x) is float for x in single])
            roots = [x for x in single if type(x) is float]
            assert np.array_equal(_array_inv_gamma(a, sweep[solved], upper), roots)
            assert np.array_equal(inverse(a, sweep[solved]), roots)
            for v, x in zip(sweep[~solved], np.array(single, dtype=object)[~solved]):
                assert _solve_or_error(_array_inverse(upper), a, v) is x, (a, v)
                assert _solve_or_error(inverse, a, np.array([v, v])) is x, (a, v)


def test_inv_incomplete_gamma_keeps_its_step_cap(monkeypatch):
    # under a cap of k passes the array form solves a level whose last step
    # is step k - 1 and raises ConvergenceError for one that needs step k;
    # the one-level solve gives up at the same step
    cases = ((3.0, 0.3, False), (0.05, 1e-12, True), (300.0, 1.0 - 1e-12, False),
             (1e-3, 1e-300, True))
    for a, level, upper in cases:
        inverse = inv_reg_upper_gamma if upper else inv_reg_lower_gamma
        outcomes = set()
        for cap in range(1, 9):
            monkeypatch.setattr(special, "_HALLEY_MAX", cap)
            want = _solve_or_error(_array_inverse(upper), a, level)
            assert _solve_or_error(inverse, a, level) == want, (a, level, cap)
            outcomes.add(type(want))
        assert outcomes == {type, float}, (a, level)


def test_inv_incomplete_gamma_below_normal_range_raises():
    # the roots, about 1e-6000 and 1e-2000, have no float64 representation
    with pytest.raises(OverflowInValue):
        inv_reg_lower_gamma(0.05, 1e-300)
    with pytest.raises(OverflowInValue):
        inv_reg_upper_gamma(0.001, 0.99)


def test_inv_incomplete_gamma_at_a_subnormal_shape_raises_without_a_warning():
    # the small-x start's exponent overflows there; a numpy warning before
    # the named error would itself be raised under an error filter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (5e-324, 1e-310):
            for inverse in (inv_reg_lower_gamma, inv_reg_upper_gamma):
                with pytest.raises(OverflowInValue, match="below the float64 normal range"):
                    inverse(a, 0.5)


def test_reg_upper_gamma_matches_scipy():
    for a in (0.05, 0.5, 1.0, 2.5, 7.0, 40.0, 300.0):
        for x in (a * 0.1, a * 0.5, a, a * 2.0, a * 8.0, a + 600.0):
            ref = float(sps.gammaincc(a, x))
            if ref < 1e-290:
                continue
            assert abs(reg_upper_gamma(a, x) - ref) <= 1e-12 * ref, (a, x)
    assert reg_upper_gamma(2.0, 0.0) == 1.0
    xs = np.array([0.5, 3.0, 40.0])
    q = reg_upper_gamma(3.0, xs)
    assert q.shape == xs.shape
    assert np.all(np.abs(q + reg_lower_gamma(3.0, xs) - 1.0) <= 1e-15)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            reg_upper_gamma(2.0, bad)
    with pytest.raises(DomainError):
        reg_upper_gamma(0.0, 1.0)


def test_reg_upper_gamma_small_shape_against_mpmath():
    # below a = 0.1, Q < P already on x < a + 1, so 1 - P would lose digits
    with mpmath.workdps(40):
        for a in (1e-3, 0.01, 0.05):
            xs = np.geomspace(0.05, a + 1.0, 40, endpoint=False)
            ours = reg_upper_gamma(a, xs)
            for x, q in zip(xs, ours):
                ref = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
                assert abs(q - ref) <= 1e-13 * ref, (a, x, q, ref)


def test_reg_upper_gamma_is_complement_from_shape_one_tenth():
    for a in (0.1, 0.5, 3.0):
        xs = np.linspace(0.01, a + 1.0, 25, endpoint=False)
        assert np.array_equal(reg_upper_gamma(a, xs), 1.0 - reg_lower_gamma(a, xs))


def test_incomplete_gamma_matches_scipy_over_a_log_uniform_sweep():
    rng = np.random.default_rng(20260919)
    a = np.exp(rng.uniform(np.log(0.05), np.log(300.0), 20_000))
    x = a * np.exp(rng.uniform(-6.0, 2.0, a.size))
    for ours, ref in ((reg_lower_gamma(a, x), sps.gammainc(a, x)),
                      (reg_upper_gamma(a, x), sps.gammaincc(a, x))):
        kept = ref > 1e-300
        assert kept.sum() > 19_000
        rel = np.abs(ours[kept] - ref[kept]) / ref[kept]
        assert rel.max() <= 1e-12, (a[kept][rel.argmax()], x[kept][rel.argmax()])


def _masked_lower_series(a, x, log_prefactor):
    # the whole-array form of special._lower_series, one mask per step
    total = np.full_like(x, 1.0) / a
    term = total.copy()
    ap = a.copy()
    active = x > 0.0
    for _ in range(10000):
        if not active.any():
            break
        ap = np.where(active, ap + 1.0, ap)
        term = np.where(active, term * x / ap, term)
        total = np.where(active, total + term, total)
        active = active & (np.abs(term) >= np.abs(total) * 1e-17)
    else:
        raise ConvergenceError("incomplete gamma series did not converge")
    return total * np.exp(log_prefactor)


def _masked_upper_cf(a, x, log_prefactor):
    # the whole-array form of special._upper_cf, one mask per step
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
    h = d.copy()
    active = np.ones(x.shape, dtype=bool)
    for i in range(1, 10000):
        if not active.any():
            break
        an = -i * (i - a)
        b = b + 2.0
        d_new = an * d + b
        d_new = np.where(np.abs(d_new) < tiny, tiny, d_new)
        c_new = b + an / c
        c_new = np.where(np.abs(c_new) < tiny, tiny, c_new)
        d_new = 1.0 / d_new
        delta = d_new * c_new
        h = np.where(active, h * delta, h)
        d = np.where(active, d_new, d)
        c = np.where(active, c_new, c)
        active = active & (np.abs(delta - 1.0) >= 1e-16)
    else:
        raise ConvergenceError("incomplete gamma continued fraction did not converge")
    return np.exp(log_prefactor) * h


def _kernel_args(a, x):
    x = np.asarray(x, dtype=np.float64)
    return np.full_like(x, a), x, a * np.log(x) - x - log_gamma(a)


@pytest.mark.parametrize("a", (1e-3, 0.05, 0.09, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0, 1e4, 1e5))
def test_incomplete_gamma_kernels_keep_the_masked_bits(a):
    # each kernel stops at its fixed point and gives the bits of the masked form
    edge = a + 1.0
    below = np.concatenate([[1e-300, np.nextafter(edge, 0.0)],
                            edge * np.geomspace(1e-8, 1.0, 200, endpoint=False)])
    above = np.concatenate([[edge], edge * np.geomspace(1.0, 1e3, 200)[1:]])
    assert np.all(below < edge) and np.all(above >= edge)
    args = _kernel_args(a, below)
    assert np.array_equal(special._lower_series(*args), _masked_lower_series(*args))
    args = _kernel_args(a, above)
    assert np.array_equal(special._upper_cf(*args), _masked_upper_cf(*args))
    # one entry, x = 0 and the a < 0.1 direct-Q series included, runs in
    # Python floats with the bits of the array path
    xs = np.concatenate([[0.0], below, above])
    for fn in (reg_lower_gamma, reg_upper_gamma):
        whole = fn(a, xs)
        alone = [fn(a, float(x)) for x in xs]
        assert all(type(v) is float for v in alone)
        assert np.array_equal(alone, whole)
        assert np.array_equal(fn(np.array([a]), np.array([[xs[5]]])), [[whole[5]]])


def test_incomplete_gamma_series_keeps_its_term_cap():
    with pytest.raises(ConvergenceError):
        reg_lower_gamma(1e7, 1e7)
    # at x = a the series needs 9999 terms, one ulp below a + 1 it needs 10 000
    a = 1569350.0
    args = _kernel_args(a, [a])
    assert np.array_equal(special._lower_series(*args), _masked_lower_series(*args))
    args = _kernel_args(a, [np.nextafter(a + 1.0, 0.0)])
    for kernel in (special._lower_series, _masked_lower_series):
        with pytest.raises(ConvergenceError):
            kernel(*args)
    # the float form keeps the same cap
    args = _kernel_args(a, [a])
    assert special._lower_series(*(float(v[0]) for v in args)) == _masked_lower_series(*args)[0]
    args = _kernel_args(a, [np.nextafter(a + 1.0, 0.0)])
    with pytest.raises(ConvergenceError):
        special._lower_series(*(float(v[0]) for v in args))


def test_incomplete_gamma_kernels_keep_the_masked_bits_over_mixed_shapes():
    # one array of shapes from 1e-3 to 1e5, shuffled, so entries stop at
    # scattered steps and the fraction compacts its live entries many times
    rng = np.random.default_rng(20261020)
    shapes = np.repeat(np.geomspace(1e-3, 1e5, 33), 24)
    edge = shapes + 1.0
    below = edge * rng.uniform(1e-6, 1.0, shapes.size)
    above = edge * np.exp(rng.uniform(0.0, np.log(1e3), shapes.size))
    above[::24] = edge[::24]
    assert np.all(below < edge) and np.all(above >= edge)
    for kernel, masked, x in ((special._lower_series, _masked_lower_series, below),
                              (special._upper_cf, _masked_upper_cf, above)):
        order = rng.permutation(shapes.size)
        a, x = shapes[order], x[order]
        args = (a, x, a * np.log(x) - x - log_gamma(a))
        assert np.array_equal(kernel(*args), masked(*args))
        # a float shape gives the bits of the constant array of that shape
        one = a == a[0]
        args = (float(a[0]), x[one], args[2][one])
        assert np.array_equal(kernel(*args), masked(a[one], *args[1:]))
    # through _gamma_pq, both sides of a + 1 in one call: each entry has the
    # bits of its own float call
    a = np.concatenate([shapes, shapes, shapes[:5]])
    x = np.concatenate([below, above, np.zeros(5)])
    for fn in (reg_lower_gamma, reg_upper_gamma):
        whole = fn(a, x)
        assert np.array_equal(whole, [fn(float(s), float(v)) for s, v in zip(a, x)])


def test_incomplete_gamma_broadcasts_like_per_element_calls():
    shapes = np.array([[1e-3], [0.05], [0.5], [3.0], [40.0], [1e4]])
    xs = np.array([[0.0, 1e-8, 0.02, 0.7, 1.5, 4.0, 40.0, 1e4, 2e4]])
    for fn in (reg_lower_gamma, reg_upper_gamma):
        grid = fn(shapes, xs)
        assert grid.shape == (shapes.size, xs.size)
        expected = [[fn(float(a), float(x)) for x in xs[0]] for a in shapes[:, 0]]
        assert np.array_equal(grid, expected)
        # one shape in a (1, 1) array against an x row keeps the broadcast shape
        assert np.array_equal(fn(np.array([[3.0]]), xs[0]), [expected[3]])


def test_incomplete_gamma_continued_fraction_against_mpmath():
    # the fraction's domain, x from a + 1 to 12 (a + 1), where Q is direct
    # and P = 1 - Q; both to 1e-13 relative
    with mpmath.workdps(40):
        for a in (0.3, 0.5, 0.9, 3.0, 30.0):
            xs = np.geomspace(a + 1.0, 12.0 * (a + 1.0), 60)
            p, q = reg_lower_gamma(a, xs), reg_upper_gamma(a, xs)
            for x, ours_p, ours_q in zip(xs, p, q):
                ref_p = float(mpmath.gammainc(a, 0, x, regularized=True))
                ref_q = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
                assert abs(ours_p - ref_p) <= 1e-13 * ref_p, (a, x, ours_p, ref_p)
                assert abs(ours_q - ref_q) <= 1e-13 * ref_q, (a, x, ours_q, ref_q)


def test_inv_reg_lower_gamma_domain():
    for bad in (0.0, 1.0, -0.1, 1.1, np.nan):
        with pytest.raises(DomainError):
            inv_reg_lower_gamma(2.0, bad)
    with pytest.raises(DomainError):
        inv_reg_lower_gamma(-1.0, 0.5)
    with pytest.raises(DomainError):  # one shape per call
        inv_reg_lower_gamma(np.array([1.0, 2.0]), 0.5)
    for bad in (0.0, 1.0, np.nan):
        with pytest.raises(DomainError):
            inv_reg_upper_gamma(2.0, bad)


def test_sample_gamma_moments():
    rng = RngStream(7, 0)
    draws = sample_gamma(2.0, 3.0, rng, size=1_000_000)
    assert abs(float(draws.mean()) - 6.0) < 0.05
    rng = RngStream(7, 1)
    draws = sample_gamma(0.5, 1.0, rng, size=1_000_000)
    assert abs(float(draws.var()) - 0.5) < 0.02
    assert float(draws.min()) > 0.0


def test_sample_gamma_determinism():
    a = sample_gamma(1.7, 2.0, RngStream(42, 5), size=64)
    b = sample_gamma(1.7, 2.0, RngStream(42, 5), size=64)
    c = sample_gamma(1.7, 2.0, RngStream(42, 6), size=64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _textbook_sample_gamma(shape, scale, rng, n):
    """Marsaglia-Tsang with the boost below shape 1, one expression per step."""
    a = shape if shape >= 1.0 else shape + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        x = rng.standard_normal(m)
        v = (1.0 + c * x) ** 3
        u = rng.random(m)
        ok = v > 0.0
        x2 = x * x
        accept = ok & (u < 1.0 - 0.0331 * x2 * x2)
        rest = ok & ~accept
        if rest.any():
            with np.errstate(divide="ignore"):
                logu = np.log(u)
            safe_v = np.where(ok, v, 1.0)
            accept |= rest & (logu < 0.5 * x2 + d * (1.0 - safe_v + np.log(safe_v)))
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
    if shape < 1.0:
        out = out * (1.0 - rng.random(n)) ** (1.0 / shape)
    return np.maximum(out * scale, 5e-324)


@pytest.mark.parametrize("shape", [0.05, 0.5, 0.999, 1.0, 1.5, 3.0, 40.0])
@pytest.mark.parametrize("n", [0, 1, 7, 20_000])
def test_sample_gamma_keeps_textbook_bits(shape, n):
    # the in-place sampler draws the same stream and gives the same bits
    got_rng, ref_rng = RngStream(3, 17), RngStream(3, 17)
    got = sample_gamma(shape, 0.7, got_rng, size=n)
    ref = _textbook_sample_gamma(shape, 0.7, ref_rng, n)
    assert np.array_equal(got, ref)
    assert np.array_equal(got_rng.random(4), ref_rng.random(4))


def test_sample_gamma_ks_against_own_cdf():
    # distribution check against this module's own reg_lower_gamma
    draws = sample_gamma(2.5, 1.0, RngStream(11, 0), size=30_000)

    def cdf(x):
        return np.array([reg_lower_gamma(2.5, float(v)) for v in np.atleast_1d(x)])

    res = scipy.stats.kstest(draws, cdf)
    assert res.pvalue > 0.001


def test_sample_gamma_scalar_and_domain():
    v = sample_gamma(3.0, 2.0, RngStream(1, 0))
    assert isinstance(v, float) and v > 0.0
    with pytest.raises(DomainError):
        sample_gamma(-1.0, 1.0, RngStream(1, 0))
    with pytest.raises(DomainError):
        sample_gamma(1.0, 0.0, RngStream(1, 0))


def test_rng_stream_keying():
    a = RngStream(9, 3).random(32)
    b = RngStream(9, 3).random(32)
    c = RngStream(9, 4).random(32)
    d = RngStream(10, 3).random(32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(DomainError):
        RngStream(-1, 0)
    with pytest.raises(DomainError):
        RngStream(0, 2**64)
