"""Generator catalog: structural invariants across every row plus pinned values."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from gamgen import (
    DomainError,
    FamilyParams,
    LogPower,
    OverflowInValue,
    PowerLaw,
    RngStream,
    Sample,
    UnknownGeneratorError,
    catalog_names,
    cdf,
    distribution,
    errors,
    estimate_sigma,
    generators,
    inverse_of,
    isf,
    log_pdf,
    make_generator,
    parse_generator_spec,
    quantile,
    sample,
    special,
)
from gamgen.estimators import _pointwise

from conftest import CATALOG_SWEEP, sweep_ids

X_GRID = np.geomspace(0.05, 5.0, 9)


def _fd1(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


@pytest.mark.parametrize("name,shapes", CATALOG_SWEEP, ids=sweep_ids(CATALOG_SWEEP))
def test_catalog_row_invariants(name, shapes):
    g = make_generator(name, **shapes)
    vals = np.array([g.value(x) for x in X_GRID])
    assert np.all(vals > 0.0)
    diffs = np.diff(vals)
    if g.monotonicity == "increasing":
        assert np.all(diffs > 0.0)
    else:
        assert np.all(diffs < 0.0)

    for x in X_GRID:
        v = g.value(x)
        # inverse round trip
        assert abs(g.inverse(v) - x) <= 1e-9 * x
        # derivatives against central differences
        h = 1e-6 * x
        fd1 = _fd1(g.value, x, h)
        fd2 = _fd1(g.d1, x, h)
        assert abs(g.d1(x) - fd1) <= 1e-6 * max(abs(fd1), 1e-12)
        assert abs(g.d2(x) - fd2) <= 1e-5 * max(abs(fd2), 1e-10)
        # log channel agrees with the direct value
        if g.log_value is not None:
            assert abs(g.log_value(x) - math.log(v)) <= 1e-12 * max(1.0, abs(math.log(v)))


@pytest.mark.parametrize("name,shapes", CATALOG_SWEEP, ids=sweep_ids(CATALOG_SWEEP))
def test_catalog_row_structure(name, shapes):
    g = make_generator(name, **shapes)
    fc = g.family_class
    if isinstance(fc, PowerLaw):
        for x in X_GRID:
            # T(x) = C x^{-s} exactly
            assert abs(g.value(x) * x**fc.s / fc.C - 1.0) <= 1e-12
            # U(x) = (T''/T' - T'/T) x is identically -1
            u = (g.d2(x) / g.d1(x) - g.d1(x) / g.value(x)) * x
            assert abs(u + 1.0) <= 1e-9
    elif isinstance(fc, LogPower):
        for x in X_GRID:
            assert abs(g.value(x) - math.log1p(x**fc.s)) <= 1e-12 * max(
                1.0, abs(g.value(x))
            )
    if g.minorant is not None:
        C, s = g.minorant
        assert g.monotonicity == "increasing"
        for x in X_GRID:
            assert g.value(x) >= C * x**s * (1.0 - 1e-12)


@pytest.mark.parametrize("name,shapes", CATALOG_SWEEP, ids=sweep_ids(CATALOG_SWEEP))
def test_native_parameter_round_trip(name, shapes):
    g = make_generator(name, **shapes)
    if g.native is None:
        pytest.skip("row has no native parameter map")
    seeds = [2.5, 0.8, 1.3]
    native = {k: seeds[i] for i, k in enumerate(g.native.names)}
    mu, sigma = g.native.to_family(**native)
    assert mu > 0.0 and sigma > 0.0
    back = g.native.from_family(mu, sigma)
    for k, v in native.items():
        assert abs(float(back[k]) - v) <= 1e-12 * v


# Rows whose native map is now shared with another row, each with the map it
# used to spell out for itself: (name, shapes, to_family, from_family).
_WRITTEN_OUT_NATIVE = [
    ("gamma", {},
     lambda alpha, beta: (alpha, 1.0 / (alpha * beta)),
     lambda mu, sigma: {"alpha": mu, "beta": 1.0 / (mu * sigma)}),
    ("inverse-gamma", {},
     lambda alpha, beta: (alpha, 1.0 / (alpha * beta)),
     lambda mu, sigma: {"alpha": mu, "beta": 1.0 / (mu * sigma)}),
    ("weibull", {"delta": 2.0},
     lambda beta: (1.0, beta**-2.0),
     lambda mu, sigma: {"beta": sigma ** (-1.0 / 2.0)}),
    ("inverse-weibull", {"delta": 1.5},
     lambda beta: (1.0, beta**-1.5),
     lambda mu, sigma: {"beta": sigma ** (-1.0 / 1.5)}),
    ("gompertz", {"delta": 2.0},
     lambda alpha: (1.0, alpha), lambda mu, sigma: {"alpha": sigma}),
    ("burr-xii", {"c": 2.0}, lambda k: (1.0, k), lambda mu, sigma: {"k": sigma}),
    ("dagum", {"c": 2.0}, lambda k: (1.0, k), lambda mu, sigma: {"k": sigma}),
    ("flexible-weibull", {"b": 1.0, "c": 0.5},
     lambda a: (1.0, a), lambda mu, sigma: {"a": sigma}),
    ("traditional-weibull", {"b": 1.0, "c": 1.0, "d": 1.0},
     lambda a: (1.0, a), lambda mu, sigma: {"a": sigma}),
    ("chi-squared", {},
     lambda nu: (nu / 2.0, 1.0 / nu), lambda mu, sigma: {"nu": 1.0 / sigma}),
    ("delta-gamma", {"delta": 2.5},
     lambda beta: (beta / 2.5, 1.0 / beta), lambda mu, sigma: {"beta": 1.0 / sigma}),
    ("maxwell-boltzmann", {},
     lambda beta: (1.5, 1.0 / (3.0 * beta**2)),
     lambda mu, sigma: {"beta": 1.0 / np.sqrt(3.0 * sigma)}),
    ("rayleigh", {},
     lambda beta: (1.0, 1.0 / (2.0 * beta**2)),
     lambda mu, sigma: {"beta": 1.0 / np.sqrt(2.0 * sigma)}),
]


@pytest.mark.parametrize("name,shapes,to_family,from_family", _WRITTEN_OUT_NATIVE,
                         ids=[row[0] for row in _WRITTEN_OUT_NATIVE])
def test_shared_native_maps_keep_their_bits(name, shapes, to_family, from_family):
    native = make_generator(name, **shapes).native
    rng = np.random.default_rng(4)
    arrays = tuple(np.geomspace(1e-3, 1e5, 17) * (1.0 + rng.random(17)) for _ in range(2))
    for u, v in ((0.3, 2.5), (1.0, 7.1e-3), (1e5, 1.0), arrays):
        args = dict(zip(native.names, (u, v)))
        got, want = native.to_family(**args), to_family(**args)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (name, args)
        got, want = native.from_family(u, v), from_family(u, v)
        assert list(got) == list(want) == list(native.names)
        assert all(np.array_equal(got[k], want[k]) for k in want), (name, u, v)


def test_gamma_pins():
    g = make_generator("gamma")
    assert g.value(2.0) == 2.0
    assert g.d1(2.0) == 1.0
    assert g.d2(2.0) == 0.0
    assert g.inverse(5.0) == 5.0
    assert g.family_class == PowerLaw(C=1.0, s=-1.0)
    mu, sigma = g.native.to_family(alpha=2.0, beta=3.0)
    assert mu == 2.0 and abs(sigma - 1.0 / 6.0) < 1e-15


def test_square_generator_pins():
    g = make_generator("nakagami")
    assert g.value(3.0) == 9.0
    assert g.d1(3.0) == 6.0
    assert g.d2(3.0) == 2.0
    assert inverse_of(g, 16.0) == 4.0
    assert g.family_class == PowerLaw(C=1.0, s=-2.0)


def test_more_power_law_pins():
    w = make_generator("weibull", delta=2.0)
    assert abs(w.value(3.0) - 9.0) < 1e-12
    ig = make_generator("inverse-gamma")
    assert abs(ig.value(2.0) - 0.5) < 1e-15
    assert ig.monotonicity == "decreasing"
    assert inverse_of(make_generator("gamma"), 7.0) == 7.0


def test_new_log_generalized_gamma_pins():
    g = make_generator("new-log-generalized-gamma", delta=1.0)
    assert abs(g.value(1.0) - (math.e - 1.0)) < 1e-14
    assert abs(g.d1(1.0) - math.e) < 1e-14
    assert abs(g.inverse(math.e - 1.0) - 1.0) < 1e-12


def test_gompertz_pin():
    g = make_generator("gompertz", delta=2.0)
    assert abs(g.inverse(math.exp(2.0) - 1.0) - 1.0) < 1e-12


def test_catalog_is_complete():
    expected = {
        "burr-xii",
        "chi-squared",
        "dagum",
        "delta-gamma",
        "flexible-weibull",
        "gamma",
        "generalized-gamma",
        "generalized-inverse-gamma",
        "gompertz",
        "inverse-gamma",
        "inverse-weibull",
        "maxwell-boltzmann",
        "modified-weibull-extension",
        "nakagami",
        "new-log-generalized-gamma",
        "rayleigh",
        "scaled-inverse-chi-squared",
        "traditional-weibull",
        "weibull",
    }
    assert set(catalog_names()) == expected
    assert len(CATALOG_SWEEP) == len(expected)


def test_unknown_and_invalid_generators():
    with pytest.raises(UnknownGeneratorError):
        make_generator("no-such-generator")
    assert issubclass(UnknownGeneratorError, DomainError)
    with pytest.raises(DomainError):
        make_generator("weibull", delta=-1.0)
    with pytest.raises(DomainError):
        make_generator("weibull", delta=float("nan"))
    with pytest.raises(DomainError):
        make_generator("gamma", delta=2.0)  # gamma takes no shape parameters


@pytest.mark.parametrize("name,shapes", CATALOG_SWEEP, ids=sweep_ids(CATALOG_SWEEP))
def test_every_shape_parameter_is_checked(name, shapes):
    # make_generator is the one shape check, and parse_generator_spec goes
    # through it
    for key in shapes:
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            params = {**shapes, key: bad}
            with pytest.raises(DomainError):
                make_generator(name, **params)
            spec = name + "(" + ", ".join(f"{k}={v!r}" for k, v in params.items()) + ")"
            with pytest.raises(DomainError):
                parse_generator_spec(spec)


def test_domain_guard():
    g = make_generator("gamma")
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            g.value(bad)
    with pytest.raises(DomainError):
        g.d1(np.array([1.0, -2.0]))


def _checked_sizes(monkeypatch):
    """Sizes of the arrays the shared positive check sees, in call order."""
    sizes = []
    real = errors.positive_array

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real(x, *args, **kwargs)

    for module in (distribution, generators, special):
        monkeypatch.setattr(module, "positive_array", counting)
    return sizes


def test_public_calls_check_their_argument_once(monkeypatch):
    sizes = _checked_sizes(monkeypatch)
    params = FamilyParams(2.0, 1.5)
    y = np.linspace(0.5, 3.0, 50)
    for name in ("new-log-generalized-gamma", "gamma", "burr-xii", "traditional-weibull"):
        g = make_generator(name)
        for fn in (log_pdf, cdf):
            sizes.clear()
            fn(y, params, g)
            assert sizes.count(y.size) == 1, (name, fn.__name__)
        sizes.clear()
        sample(y.size, params, g, RngStream(5, 0))
        assert sizes.count(y.size) == 1, name
        fresh = Sample(y)
        sizes.clear()
        estimate_sigma(fresh, g)
        assert sizes == [], name


def _bisect_140_numeric_inverse(value, d1, z):
    # generators._numeric_inverse with all 140 bisection steps, no early stop
    lo = np.ones_like(z)
    hi = np.ones_like(z)
    v = value(np.ones_like(z))
    grow = v < z
    for _ in range(600):
        if not grow.any():
            break
        hi[grow] = np.minimum(hi[grow] * 4.0, np.finfo(np.float64).max)
        grow = grow & (value(hi) < z)
    shrink = v >= z
    for _ in range(600):
        if not shrink.any():
            break
        lo[shrink] *= 0.25
        shrink = shrink & (value(lo) >= z)
    far = np.nonzero((lo < 2.0**-511) | (hi > 2.0**511))[0]
    for _ in range(140):
        mid = np.sqrt(lo * hi)
        if far.size:
            p = lo[far] * hi[far]
            off = far[~((p >= np.finfo(np.float64).tiny) & (p < np.inf))]
            mid[off] = np.sqrt(lo[off]) * np.sqrt(hi[off])
        high = value(mid) >= z
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    x = 0.5 * (lo + hi)
    top = far[x[far] == np.inf]
    x[top] = 0.5 * lo[top] + 0.5 * hi[top]
    for _ in range(3):
        step = (value(x) - z) / d1(x)
        x_new = x - step
        x = np.where((x_new > lo) & (x_new < hi), x_new, x)
    x[far[lo[far] == 0.0]] = 0.0
    return x


@pytest.mark.parametrize("b,c,d", [(1.0, 1.0, 1.0), (0.3, 2.0, 0.5), (3.0, 0.2, 4.0)])
def test_traditional_weibull_derivatives_near_zero_against_mpmath(b, c, d):
    # e^u - 1 for small u = c x^d lost the digits of T' that expm1 keeps
    g = make_generator("traditional-weibull", b=b, c=c, d=d)
    with mpmath.workdps(40):
        for x in (1e-12, 1e-8, 1e-4):
            xm = mpmath.mpf(x)
            u = c * xm**d
            a = b * mpmath.expm1(u) + c * d * xm**d * mpmath.exp(u)
            d1 = xm ** (b - 1) * a
            d2 = xm ** (b - 2) * ((b - 1) * a + c * d * xm**d * mpmath.exp(u) * (b + d + c * d * xm**d))
            assert abs(g.d1(x) / d1 - 1) <= 1e-14, x
            assert abs(g.d2(x) / d2 - 1) <= 1e-14, x


@pytest.mark.parametrize("b,c,d", [(1.0, 1.0, 1.0), (0.3, 2.0, 0.5), (3.0, 0.2, 4.0),
                                   (1.0, 5.0, 0.1)])
def test_numeric_inverse_stops_at_its_fixed_point(monkeypatch, b, c, d):
    # stopping once no bracket end moves gives the bits of all 140 steps
    g = make_generator("traditional-weibull", b=b, c=c, d=d)
    z = np.geomspace(1e-300, 1e300, 6001)
    got = g.raw.inverse(z)
    monkeypatch.setattr(generators, "_numeric_inverse", _bisect_140_numeric_inverse)
    assert np.array_equal(got, g.raw.inverse(z))


# the shapes of the numeric-inverse tests here and CATALOG_SWEEP's row
NUMERIC_INVERSE_SHAPES = [(1.0, 1.0, 1.0), (0.3, 2.0, 0.5), (3.0, 0.2, 4.0), (1.0, 5.0, 0.1),
                          (1.0, 1.0, 0.01), (1.0, 0.1, 0.001), (0.1, 0.1, 0.001)]
BENCHMARK_POINTS = [(0.5, 1.0), (3.0, 1.2)]  # perfbench's (mu, sigma)


@pytest.mark.parametrize("b,c,d", NUMERIC_INVERSE_SHAPES)
def test_numeric_inverse_keeps_the_bits_of_the_full_bisection(monkeypatch, b, c, d):
    # the Newton steps end on the bracket that all 140 bisections end on
    g = make_generator("traditional-weibull", b=b, c=c, d=d)
    rng = np.random.default_rng(20)
    z = np.exp(rng.uniform(math.log(1e-250), math.log(1e250), 10_000))
    z = z[z < g.value(np.finfo(np.float64).max)]  # above it T^-1 raises
    levels = np.linspace(0.02, 0.98, 12)

    def outputs():
        out = [g.raw.inverse(z)]
        for k, (mu, sigma) in enumerate(BENCHMARK_POINTS):
            params = FamilyParams(mu, sigma)
            out += [sample(2000, params, g, RngStream(21, k)),
                    [quantile(u, params, g) for u in levels], [isf(u, params, g) for u in levels]]
        return out

    got = outputs()
    monkeypatch.setattr(generators, "_numeric_inverse", _bisect_140_numeric_inverse)
    for a, w in zip(got, outputs()):
        assert np.array_equal(a, w)


@pytest.mark.parametrize("point,parent_calls", zip(BENCHMARK_POINTS, (74, 65)))
def test_numeric_inverse_calls_its_kernels_fewer_times(monkeypatch, point, parent_calls):
    # about 5 Newton steps (a value and a d1 call each) and 6 bisections
    # take the place of the 55-57 bisections past the bracket
    calls = []
    numeric_inverse = generators._numeric_inverse

    def counting(value, d1, z):
        def counted(name, fn):
            return lambda x: calls.append(name) or fn(x)

        return numeric_inverse(counted("value", value), counted("d1", d1), z)

    monkeypatch.setattr(generators, "_numeric_inverse", counting)
    g = make_generator("traditional-weibull")
    sample(2000, FamilyParams(*point), g, RngStream(22, 0))
    assert 0 < len(calls) < parent_calls * 2 / 3


@pytest.mark.parametrize("b,c,d,z", [(1.0, 5.0, 0.1, 1e-250), (1.0, 1.0, 0.01, 1e200),
                                     (1.0, 5.0, 0.1, 1e-180)])
def test_numeric_inverse_beyond_the_normal_product_range(b, c, d, z):
    # the root is below 1e-154 or above 1e154, so lo*hi leaves the normal range
    g = make_generator("traditional-weibull", b=b, c=c, d=d)
    x = inverse_of(g, z)
    assert abs(g.value(x) / z - 1.0) <= 1e-12


def test_numeric_inverse_of_a_grid_with_a_root_beyond_the_normal_product_range():
    # the far entries were indexed as rows of a 2-d z: a raw IndexError
    g = make_generator("traditional-weibull", b=1.0, c=5.0, d=0.1)
    z = np.array([[1e-250, 1.0], [2.0, 3.0]])
    assert np.array_equal(inverse_of(g, z), inverse_of(g, z.ravel()).reshape(2, 2))
    u = np.array([[0.02, 0.5], [0.6, 0.7]])
    params = FamilyParams(0.01, 1.0)
    assert np.array_equal(quantile(u, params, g), quantile(u.ravel(), params, g).reshape(2, 2))


@pytest.mark.parametrize("z", [2e307, 3.5e307])
def test_numeric_inverse_above_the_largest_power_of_four(z):
    # the roots, about 8.9e307 and 1.55e308, lie above 2^1022, and the
    # second above half the largest float
    g = make_generator("traditional-weibull", b=1.0, c=0.1, d=0.001)
    x = inverse_of(g, z)
    assert x > 2.0**1022
    assert abs(g.value(x) / z - 1.0) <= 4.6e-13


def test_numeric_inverse_above_every_float_is_an_overflow_error():
    # T(largest float) is about 1.5e30 here, and T(x) = 1.4e30 at x ~ 8.6e307
    g = make_generator("traditional-weibull", b=0.1, c=0.1, d=0.001)
    assert abs(g.value(inverse_of(g, 1.4e30)) / 1.4e30 - 1.0) <= 4.6e-13
    with pytest.raises(OverflowInValue):
        inverse_of(g, 1e31)
    with pytest.raises(OverflowInValue):
        inverse_of(g, np.array([1.0, 1e31]))


def test_numeric_inverse_below_every_float_is_an_overflow_error():
    # T(x) ~ 2 x^0.8 near 0, so T(x) = 1e-300 at x ~ 1e-376, below every float
    g = make_generator("traditional-weibull", b=0.3, c=2.0, d=0.5)
    with pytest.raises(OverflowInValue):
        inverse_of(g, 1e-300)
    with pytest.raises(OverflowInValue):
        quantile(1e-300, FamilyParams(1.0, 1.0), g)


def test_replaced_generator_routes_internal_calls():
    # the contract a tracer relies on: dataclasses.replace swaps the callables
    # that log_pdf, _pointwise and sample evaluate, and the unreplaced fields
    # keep a single check
    g = make_generator("new-log-generalized-gamma")
    calls = []

    def spy(name):
        fn = getattr(g, name)

        def traced(x):
            calls.append(name)
            return fn(x)

        return traced

    h = dataclasses.replace(g, **{f: spy(f) for f in ("value", "d1", "d2", "log_value", "inverse")})
    assert dataclasses.replace(g).d1.kernel is g.d1.kernel
    params = FamilyParams(2.0, 1.5)
    y = np.linspace(0.5, 3.0, 8)
    np.testing.assert_array_equal(log_pdf(y, params, h), log_pdf(y, params, g))
    assert sorted(calls) == ["d1", "log_value", "value"]
    calls.clear()
    np.testing.assert_array_equal(_pointwise(h, y), _pointwise(g, y))
    assert sorted(calls) == ["d1", "d2", "log_value", "value"]
    calls.clear()
    np.testing.assert_array_equal(
        sample(8, params, h, RngStream(2, 0)), sample(8, params, g, RngStream(2, 0))
    )
    assert calls == ["inverse"]


def test_parse_generator_spec():
    g = parse_generator_spec("weibull(delta=2)")
    assert g.name == "weibull"
    assert g.shape_params == {"delta": 2.0}
    assert parse_generator_spec("gamma").name == "gamma"
    assert parse_generator_spec(" burr-xii( c = 1.5 ) ").shape_params == {"c": 1.5}
    two = parse_generator_spec("flexible-weibull(b=2, c=0.5)")
    assert two.shape_params == {"b": 2.0, "c": 0.5}
    for bad in ("weibull(delta=", "weibull(delta)", "weibull(delta=x)", "nope(a=1)"):
        with pytest.raises(DomainError):
            parse_generator_spec(bad)
