"""Monotone generator catalog.

A generator T is a strictly monotone, twice differentiable map of (0, inf)
onto (0, inf). Each catalog entry bundles the map, its first two derivatives,
its inverse, an optional log-scale channel for exp-type growth, a structural
classification (power-law / log-power / general), an optional power minorant
T(x) >= C * x**s used by moment-existence rules, and the parameter map between
the native textbook parameterization and the family's (mu, sigma).

The builders pass bare kernels: float64 array in, array out, no check.
Generator wraps them in one place. Each of ``value``, ``d1``, ``d2``,
``inverse`` and ``log_value`` becomes its checked form, which takes scalars
or arrays, raises DomainError unless every argument is finite and > 0, and
returns a float for a scalar. ``g.raw`` keeps the kernels unchecked, with
numpy's overflow, divide and invalid warnings off, for the internal paths
that have checked their input at the public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Literal, Optional, Union

import numpy as np

from .errors import ConvergenceError, DomainError, OverflowInValue, positive_array

__all__ = [
    "PowerLaw",
    "LogPower",
    "NativeParamMap",
    "Generator",
    "UnknownGeneratorError",
    "catalog_names",
    "make_generator",
    "inverse_of",
    "parse_generator_spec",
]


class UnknownGeneratorError(DomainError):
    """Requested name is not in the catalog."""

    name = "unknown-generator"


@dataclass(frozen=True)
class PowerLaw:
    """Structural class T(x) = C * x**(-s), s != 0."""

    C: float
    s: float


@dataclass(frozen=True)
class LogPower:
    """Structural class T(x) = log(x**s + 1), s != 0."""

    s: float


@dataclass(frozen=True)
class NativeParamMap:
    """Bidirectional map between native parameters and (mu, sigma).

    ``to_family`` accepts the native parameters as keywords and returns
    (mu, sigma); ``from_family`` inverts it. For rows whose image is a
    constrained subset of the (mu, sigma) plane (e.g. rayleigh fixes mu = 1),
    ``from_family`` extracts the native parameters from sigma, which is the
    coordinate the exact ML estimator determines.
    """

    names: tuple
    to_family: Callable
    from_family: Callable


@dataclass(frozen=True, eq=False)
class Generator:
    name: str
    monotonicity: Literal["increasing", "decreasing"]
    shape_params: dict
    value: Callable
    d1: Callable
    d2: Callable
    inverse: Callable
    log_value: Optional[Callable] = None
    family_class: Union[PowerLaw, LogPower, None] = None
    minorant: Optional[tuple] = None  # (C, s) with value(x) >= C * x**s
    native: Optional[NativeParamMap] = None
    raw: SimpleNamespace = field(init=False)

    def __post_init__(self):
        raw = {"log_value": None}
        for name in ("value", "d1", "d2", "inverse", "log_value"):
            fn = getattr(self, name)
            if fn is not None:
                # dataclasses.replace passes the checked fields it does not
                # replace back in; wrapping their kernels keeps one check per call
                what = "inverse argument" if name == "inverse" else "generator argument"
                checked, raw[name] = _wrap(getattr(fn, "kernel", fn), what)
                object.__setattr__(self, name, checked)
        object.__setattr__(self, "raw", SimpleNamespace(**raw))

    def __repr__(self) -> str:  # pragma: no cover
        shapes = ", ".join(f"{k}={v:g}" for k, v in self.shape_params.items())
        return f"Generator({self.name}" + (f"; {shapes})" if shapes else ")")


def _wrap(kernel: Callable, what: str):
    """The (checked, quiet) forms of a bare kernel."""

    def quiet(x):
        # overflow, a zero divisor or inf * 0 yields inf or nan, which the
        # callers' isfinite checks turn into OverflowInValue; numpy's own
        # warning would only duplicate it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return kernel(x)

    def checked(x):
        arr = positive_array(x, what)
        out = quiet(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    checked.kernel = kernel
    return checked, quiet


def inverse_of(g: Generator, z):
    """Evaluate the generator's inverse at z > 0.

    Closed forms are used where the catalog provides them; otherwise
    bracketed Newton steps and a geometric bisection solve value(x) = z.
    A result that overflows or underflows to 0 raises OverflowInValue.
    """
    z = positive_array(z, "inverse argument")
    x = g.raw.inverse(np.atleast_1d(z))
    if not np.all((x > 0.0) & (x < np.inf)):
        raise OverflowInValue("generator inverse left the positive float64 range")
    return float(x[0]) if z.ndim == 0 else x


def _inverse_of_checked(g: Generator, z: np.ndarray) -> np.ndarray:
    """inverse_of on an array z already checked > 0, with the range tested per
    entry in Python floats: 0.4 us for one entry against numpy's 2.5 us, but
    55 ns an entry, so it is for entries that cost far more, as a quantile
    level's incomplete-gamma solve does."""
    x = g.raw.inverse(z)
    if not all(0.0 < v < np.inf for v in x.ravel().tolist()):
        raise OverflowInValue("generator inverse left the positive float64 range")
    return x


_TINY = np.finfo(np.float64).tiny  # the smallest normal float64
_MAX = np.finfo(np.float64).max


def _numeric_inverse(value: Callable, d1: Callable, z: np.ndarray):
    """Solve value(x) = z elementwise for increasing ``value`` on a flat z.
    It runs as a kernel, so numpy's overflow warnings are already off.

    After bracketing, geometric bisection runs until a step moves no end of
    any bracket, a fixed point with the bits of any number of further steps.
    While lo*hi stays normal that is two adjacent floats, the same from any
    bracket where value is monotone at float level. So when every bracket
    lies in [2^-511, 2^511], Newton steps safeguarded as in rtsafe
    (Numerical Recipes 9.4) shrink it first, and once a step is below
    2^-50 x, x(1 -+ 2^-49) become the ends where they hold the root: about 5
    bisections then reach the pair that 55-60 reach from the bracket alone.
    Otherwise every entry bisects from its bracket; an end outside that
    range takes sqrt(lo)*sqrt(hi) where lo*hi is not normal, which may stop
    on a wider bracket set by the path. Where a final bracket is wider than
    two floats, three Newton steps polish from the midpoints (lo/2 + hi/2
    where lo + hi overflows). Roots from the subnormals up to the largest
    float are found. hi grows by 4 up to the
    largest float; where value is still below z there, the root is above
    every float and OverflowInValue is raised. Where lo underflowed to 0 the
    root is below every float, and the result is 0.
    """
    lo = np.ones_like(z)
    hi = np.ones_like(z)
    v = value(np.ones_like(z))
    grow = v < z
    while grow.any():  # hi reaches _MAX within 512 steps
        if (hi[grow] == _MAX).any():
            raise OverflowInValue("generator value stays below z up to the largest float")
        hi[grow] = np.minimum(hi[grow] * 4.0, _MAX)
        grow = grow & (value(hi) < z)
    shrink = v >= z
    for _ in range(600):
        if not shrink.any():
            break
        lo[shrink] *= 0.25
        shrink = shrink & (value(lo) >= z)
    else:
        raise ConvergenceError("numeric inverse failed to bracket below")
    far = np.nonzero((lo < 2.0**-511) | (hi > 2.0**511))[0]
    if not far.size:  # else a far entry's bisection sets the step count
        lo, hi = np.where(hi > 1.0, 0.25 * hi, lo), np.where(lo < 1.0, 4.0 * lo, hi)
        x, step, old, go = np.sqrt(lo * hi), hi - lo, hi - lo, True
        for _ in range(60):
            v = value(x)
            hi, lo = np.where(v >= z, x, hi), np.where(v < z, x, lo)
            newton = x - (v - z) / d1(x)
            # a step that leaves the bracket or does not halve the one before last bisects
            ok = (newton >= lo) & (newton <= hi) & (np.abs(newton - x) <= 0.5 * old)
            x_new = np.where(go, np.where(ok, newton, np.sqrt(lo * hi)), x)
            old, step, x = step, np.abs(x_new - x), x_new
            go = go & (step > 2.0**-50 * x)
            if not go.any():
                break
        a, b = x * (1.0 - 2.0**-49), x * (1.0 + 2.0**-49)
        lo = np.where(value(a) < z, np.maximum(lo, a), lo)
        hi = np.where(value(b) >= z, np.minimum(hi, b), hi)
    for _ in range(140):
        mid = np.sqrt(lo * hi)
        if far.size:
            p = lo[far] * hi[far]
            off = far[~((p >= _TINY) & (p < np.inf))]
            mid[off] = np.sqrt(lo[off]) * np.sqrt(hi[off])
        high = value(mid) >= z
        if not np.where(high, mid != hi, mid != lo).any():
            break
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    x = 0.5 * (lo + hi)
    top = far[x[far] == np.inf]
    x[top] = 0.5 * lo[top] + 0.5 * hi[top]
    if (np.nextafter(lo, np.inf) != hi).any():  # else no polishing step lands inside
        for _ in range(3):
            step = (value(x) - z) / d1(x)
            x_new = x - step
            x = np.where((x_new > lo) & (x_new < hi), x_new, x)
    x[far[lo[far] == 0.0]] = 0.0
    return x


def _log_expm1(t):
    """ln(e^t - 1) for t > 0, stable from underflowing t up to t ~ 1e308."""
    small = np.log(np.expm1(np.minimum(t, 1.0)))
    large = t + np.log1p(-np.exp(-np.maximum(t, 1.0)))
    return np.where(t <= 1.0, small, large)


# ---------------------------------------------------------------------------
# catalog builders
# ---------------------------------------------------------------------------


def _power_generator(name, expo, shape_params, native):
    """Rows with T(x) = x**expo (expo > 0 increasing, expo < 0 decreasing)."""
    e = float(expo)
    return Generator(
        name=name,
        monotonicity="increasing" if e > 0 else "decreasing",
        shape_params=shape_params,
        value=lambda x: x**e,
        d1=lambda x: e * x ** (e - 1.0),
        d2=lambda x: e * (e - 1.0) * x ** (e - 2.0),
        inverse=lambda z: z ** (1.0 / e),
        log_value=lambda x: e * np.log(x),
        family_class=PowerLaw(C=1.0, s=-e),
        native=native,
    )


def _gamma():
    return _power_generator("gamma", 1.0, {}, _generalized_native(1.0))


def _chi_squared():
    return _power_generator("chi-squared", 1.0, {}, _shape_rate_native("nu", 2.0))


def _scaled_inverse_chi_squared():
    native = NativeParamMap(
        names=("nu", "tau2"),
        to_family=lambda nu, tau2: (nu / 2.0, tau2),
        from_family=lambda mu, sigma: {"nu": 2.0 * mu, "tau2": sigma},
    )
    return _power_generator("scaled-inverse-chi-squared", -1.0, {}, native)


def _nakagami():
    native = NativeParamMap(
        names=("m", "omega"),
        to_family=lambda m, omega: (m, 1.0 / omega),
        from_family=lambda mu, sigma: {"m": mu, "omega": 1.0 / sigma},
    )
    return _power_generator("nakagami", 2.0, {}, native)


def _maxwell_boltzmann():
    return _power_generator("maxwell-boltzmann", 2.0, {}, _fixed_shape_native(3.0))


def _rayleigh():
    return _power_generator("rayleigh", 2.0, {}, _fixed_shape_native(2.0))


def _inverse_gamma():
    return _power_generator("inverse-gamma", -1.0, {}, _generalized_native(1.0))


def _delta_gamma(delta=1.0):
    d = float(delta)
    return _power_generator("delta-gamma", d, {"delta": d}, _shape_rate_native("beta", d))


def _weibull_native(d: float) -> NativeParamMap:
    return NativeParamMap(
        names=("beta",),
        to_family=lambda beta: (1.0, beta**-d),
        from_family=lambda mu, sigma: {"beta": sigma ** (-1.0 / d)},
    )


def _weibull(delta=1.0):
    d = float(delta)
    return _power_generator("weibull", d, {"delta": d}, _weibull_native(d))


def _inverse_weibull(delta=1.0):
    d = float(delta)
    return _power_generator("inverse-weibull", -d, {"delta": d}, _weibull_native(d))


def _generalized_native(d: float) -> NativeParamMap:
    # d = 1 serves gamma and inverse-gamma: x / 1.0, x ** 1.0 and 1.0 * x are exact
    return NativeParamMap(
        names=("alpha", "beta"),
        to_family=lambda alpha, beta: (alpha / d, d / (alpha * beta**d)),
        from_family=lambda mu, sigma: {
            "alpha": d * mu,
            "beta": (1.0 / (mu * sigma)) ** (1.0 / d),
        },
    )


def _rate_native(name: str) -> NativeParamMap:
    """Rows with mu = 1 whose one native parameter is the rate sigma."""
    return NativeParamMap(
        names=(name,),
        to_family=lambda **native: (1.0, native[name]),
        from_family=lambda mu, sigma: {name: sigma},
    )


def _shape_rate_native(name: str, d: float) -> NativeParamMap:
    """Rows whose one native parameter v gives mu = v / d and sigma = 1 / v."""
    return NativeParamMap(
        names=(name,),
        to_family=lambda **native: (native[name] / d, 1.0 / native[name]),
        from_family=lambda mu, sigma: {name: 1.0 / sigma},
    )


def _fixed_shape_native(k: float) -> NativeParamMap:
    """Rows with mu = k / 2 and one native scale beta: sigma = 1 / (k beta^2)."""
    return NativeParamMap(
        names=("beta",),
        to_family=lambda beta: (k / 2.0, 1.0 / (k * beta**2)),
        from_family=lambda mu, sigma: {"beta": 1.0 / np.sqrt(k * sigma)},
    )


def _generalized_gamma(delta=1.0):
    d = float(delta)
    return _power_generator("generalized-gamma", d, {"delta": d}, _generalized_native(d))


def _generalized_inverse_gamma(delta=1.0):
    d = float(delta)
    return _power_generator(
        "generalized-inverse-gamma", -d, {"delta": d}, _generalized_native(d)
    )


def _gompertz(delta=1.0):
    d = float(delta)
    return Generator(
        name="gompertz",
        monotonicity="increasing",
        shape_params={"delta": d},
        value=lambda x: np.expm1(d * x),
        d1=lambda x: d * np.exp(d * x),
        d2=lambda x: d * d * np.exp(d * x),
        inverse=lambda z: np.log1p(z) / d,
        log_value=lambda x: _log_expm1(d * x),
        minorant=(d, 1.0),
        native=_rate_native("alpha"),
    )


def _new_log_generalized_gamma(delta=1.0):
    d = float(delta)

    def value(x):
        return np.expm1(x) ** d

    def d1(x):
        u = np.expm1(x)
        return d * u ** (d - 1.0) * (u + 1.0)

    def d2(x):
        u = np.expm1(x)
        return d * u ** (d - 2.0) * (u + 1.0) * (d * (u + 1.0) - 1.0)

    def inverse(z):
        return np.log1p(z ** (1.0 / d))

    def log_value(x):
        return d * _log_expm1(x)

    return Generator(
        name="new-log-generalized-gamma",
        monotonicity="increasing",
        shape_params={"delta": d},
        value=value,
        d1=d1,
        d2=d2,
        inverse=inverse,
        log_value=log_value,
        native=_generalized_native(d),
    )


def _burr_xii(c=1.0):
    cc = float(c)

    # Large-x branches work in v = x**-c, which underflows gracefully where
    # x**c would overflow.
    def value(x):
        big = x >= 1.0
        out = np.empty_like(x)
        out[big] = cc * np.log(x[big]) + np.log1p(x[big] ** -cc)
        out[~big] = np.log1p(x[~big] ** cc)
        return out

    def d1(x):
        v = x**-cc
        return (cc / x) / (1.0 + v)

    def d2(x):
        big = x >= 1.0
        out = np.empty_like(x)
        v = x[big] ** -cc
        out[big] = cc * ((cc - 1.0) * v - 1.0) / (x[big] ** 2 * (1.0 + v) ** 2)
        w = x[~big] ** cc
        out[~big] = cc * w * (cc - 1.0 - w) / (x[~big] ** 2 * (1.0 + w) ** 2)
        return out

    def inverse(z):
        return np.expm1(z) ** (1.0 / cc)

    return Generator(
        name="burr-xii",
        monotonicity="increasing",
        shape_params={"c": cc},
        value=value,
        d1=d1,
        d2=d2,
        inverse=inverse,
        family_class=LogPower(s=cc),
        native=_rate_native("k"),
    )


def _dagum(c=1.0):
    cc = float(c)

    def value(x):
        big = x >= 1.0
        out = np.empty_like(x)
        out[big] = np.log1p(x[big] ** -cc)
        out[~big] = -cc * np.log(x[~big]) + np.log1p(x[~big] ** cc)
        return out

    def d1(x):
        w = x**cc
        return -cc / (x * (1.0 + w))

    def d2(x):
        big = x >= 1.0
        out = np.empty_like(x)
        v = x[big] ** -cc
        out[big] = cc * v * (v + cc + 1.0) / (x[big] ** 2 * (1.0 + v) ** 2)
        w = x[~big] ** cc
        out[~big] = cc * (1.0 + (cc + 1.0) * w) / (x[~big] ** 2 * (1.0 + w) ** 2)
        return out

    def inverse(z):
        return np.expm1(z) ** (-1.0 / cc)

    return Generator(
        name="dagum",
        monotonicity="decreasing",
        shape_params={"c": cc},
        value=value,
        d1=d1,
        d2=d2,
        inverse=inverse,
        family_class=LogPower(s=-cc),
        native=_rate_native("k"),
    )


def _flexible_weibull(b=1.0, c=1.0):
    bb, cc = float(b), float(c)

    def value(x):
        return np.exp(bb * x - cc / x)

    def d1(x):
        return (bb + cc / x**2) * np.exp(bb * x - cc / x)

    def d2(x):
        w1 = bb + cc / x**2
        return (w1 * w1 - 2.0 * cc / x**3) * np.exp(bb * x - cc / x)

    def inverse(z):
        # b*x - c/x = ln z has one positive root.
        lz = np.log(z)
        return (lz + np.sqrt(lz * lz + 4.0 * bb * cc)) / (2.0 * bb)

    return Generator(
        name="flexible-weibull",
        monotonicity="increasing",
        shape_params={"b": bb, "c": cc},
        value=value,
        d1=d1,
        d2=d2,
        inverse=inverse,
        log_value=lambda x: bb * x - cc / x,
        native=_rate_native("a"),
    )


def _traditional_weibull(b=1.0, c=1.0, d=1.0):
    bb, cc, dd = float(b), float(c), float(d)

    def value(x):
        return x**bb * np.expm1(cc * x**dd)

    def d1(x):
        u = cc * x**dd
        return x ** (bb - 1.0) * (bb * np.expm1(u) + cc * dd * x**dd * np.exp(u))

    def d2(x):
        u = cc * x**dd
        e = np.exp(u)
        a = bb * np.expm1(u) + cc * dd * x**dd * e
        return x ** (bb - 2.0) * ((bb - 1.0) * a + cc * dd * x**dd * e * (bb + dd + cc * dd * x**dd))

    def inverse(z):
        return _numeric_inverse(value, d1, z.ravel()).reshape(z.shape)

    return Generator(
        name="traditional-weibull",
        monotonicity="increasing",
        shape_params={"b": bb, "c": cc, "d": dd},
        value=value,
        d1=d1,
        d2=d2,
        inverse=inverse,
        minorant=(cc, bb + dd),
        native=_rate_native("a"),
    )


def _modified_weibull_extension(alpha=1.0, beta=1.0):
    aa, bb = float(alpha), float(beta)

    def value(x):
        return np.expm1((x / aa) ** bb)

    def d1(x):
        u = (x / aa) ** bb
        return (bb / aa) * (x / aa) ** (bb - 1.0) * np.exp(u)

    def d2(x):
        u = (x / aa) ** bb
        up = (bb / aa) * (x / aa) ** (bb - 1.0)
        upp = (bb * (bb - 1.0) / aa**2) * (x / aa) ** (bb - 2.0)
        return (upp + up * up) * np.exp(u)

    def inverse(z):
        return aa * np.log1p(z) ** (1.0 / bb)

    def log_value(x):
        return _log_expm1((x / aa) ** bb)

    native = NativeParamMap(
        names=("lam",),
        to_family=lambda lam: (lam * aa, 1.0),
        from_family=lambda mu, sigma: {"lam": mu / aa},
    )
    return Generator(
        name="modified-weibull-extension",
        monotonicity="increasing",
        shape_params={"alpha": aa, "beta": bb},
        value=value,
        d1=d1,
        d2=d2,
        inverse=inverse,
        log_value=log_value,
        minorant=(aa**-bb, bb),
        native=native,
    )


_BUILDERS = {
    "gamma": _gamma,
    "chi-squared": _chi_squared,
    "scaled-inverse-chi-squared": _scaled_inverse_chi_squared,
    "nakagami": _nakagami,
    "maxwell-boltzmann": _maxwell_boltzmann,
    "rayleigh": _rayleigh,
    "inverse-gamma": _inverse_gamma,
    "delta-gamma": _delta_gamma,
    "weibull": _weibull,
    "inverse-weibull": _inverse_weibull,
    "generalized-gamma": _generalized_gamma,
    "generalized-inverse-gamma": _generalized_inverse_gamma,
    "new-log-generalized-gamma": _new_log_generalized_gamma,
    "gompertz": _gompertz,
    "burr-xii": _burr_xii,
    "dagum": _dagum,
    "flexible-weibull": _flexible_weibull,
    "traditional-weibull": _traditional_weibull,
    "modified-weibull-extension": _modified_weibull_extension,
}

_ALIASES = {
    "chi2": "chi-squared",
    "scaled-inv-chi2": "scaled-inverse-chi-squared",
    "maxwell": "maxwell-boltzmann",
    "invgamma": "inverse-gamma",
    "invweibull": "inverse-weibull",
    "frechet": "inverse-weibull",
    "gengamma": "generalized-gamma",
    "geninvgamma": "generalized-inverse-gamma",
    "gen-invgamma": "generalized-inverse-gamma",
    "nlgg": "new-log-generalized-gamma",
    "burr": "burr-xii",
    "burr12": "burr-xii",
    "mod-weibull-ext": "modified-weibull-extension",
}


def catalog_names() -> tuple:
    """Canonical names of every catalog generator."""
    return tuple(sorted(_BUILDERS))


def _canonical(name: str) -> str:
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    key = _ALIASES.get(key, key)
    if key not in _BUILDERS:
        raise UnknownGeneratorError(f"unknown generator {name!r}")
    return key


def make_generator(name: str, **shape_params) -> Generator:
    """Build a catalog generator by name with its shape parameters.

    Shape parameters not listed default to 1. Unknown names or parameters
    raise, as do shape parameters not finite and > 0: the one shape check.
    """
    key = _canonical(name)
    builder = _BUILDERS[key]
    params = {k: float(v) for k, v in shape_params.items()}
    for k, v in params.items():
        positive_array(v, f"shape parameter {k}={v}")
    try:
        return builder(**params)
    except TypeError:
        raise DomainError(
            f"generator {key!r} does not accept shape parameters {sorted(params)}"
        ) from None


def parse_generator_spec(spec: str) -> Generator:
    """Parse a generator spec string like ``gengamma(delta=2)``.

    The grammar is ``name`` or ``name(key=value, ...)``; keys are shape
    parameter names and values decimal literals.
    """
    text = spec.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise DomainError(f"malformed generator spec {spec!r}")
        name, _, inner = text.partition("(")
        inner = inner[:-1].strip()
        params = {}
        if inner:
            for item in inner.split(","):
                key, sep, value = item.partition("=")
                if not sep:
                    raise DomainError(f"malformed generator spec {spec!r}")
                try:
                    params[key.strip()] = float(value)
                except ValueError:
                    raise DomainError(
                        f"non-numeric value in generator spec {spec!r}"
                    ) from None
        return make_generator(name, **params)
    return make_generator(text)
