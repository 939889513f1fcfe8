"""Monotone generator catalog.

A generator T is a strictly monotone, twice differentiable map of (0, inf)
onto (0, inf). Each catalog entry bundles the map, its first two derivatives,
its inverse, an optional log-scale channel for exp-type growth, a structural
classification (power-law / log-power / general), an optional power minorant
T(x) >= C * x**s used by moment-existence rules, and the parameter map between
the native textbook parameterization and the family's (mu, sigma).

All callables accept scalars or ndarrays and evaluate elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Optional, Union

import numpy as np

from .errors import ConvergenceError, DomainError, OverflowInValue

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

    def __repr__(self) -> str:  # pragma: no cover
        shapes = ", ".join(f"{k}={v:g}" for k, v in self.shape_params.items())
        return f"Generator({self.name}" + (f"; {shapes})" if shapes else ")")


def _check_domain(x, what: str = "generator argument"):
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError(f"{what} must be finite and > 0")
    return arr


def _guard(fn: Callable, what: str) -> Callable:
    def wrapped(x):
        arr = _check_domain(x, what)
        scalar = arr.ndim == 0
        # overflow yields inf, which the callers' isfinite checks turn into
        # OverflowInValue; numpy's own warning would only duplicate it
        with np.errstate(over="ignore"):
            out = fn(np.atleast_1d(arr))
        return float(out[0]) if scalar else np.asarray(out)

    return wrapped


def inverse_of(g: Generator, z):
    """Evaluate the generator's inverse at z > 0.

    Closed forms are used where the catalog provides them; otherwise a
    geometric-bisection search with Newton polishing solves value(x) = z.
    A result beyond the float64 range raises OverflowInValue.
    """
    z = _check_domain(z, "inverse argument")
    x = g.inverse(z)
    if np.any(~np.isfinite(x)):
        raise OverflowInValue("generator inverse overflowed float64 range")
    return x


def _numeric_inverse(value: Callable, d1: Callable, z):
    """Solve value(x) = z elementwise for increasing ``value``."""
    zz = np.atleast_1d(np.asarray(z, dtype=np.float64))
    lo = np.ones_like(zz)
    hi = np.ones_like(zz)
    with np.errstate(over="ignore", under="ignore"):
        v = value(np.ones_like(zz))
        grow = v < zz
        for _ in range(600):
            if not grow.any():
                break
            hi[grow] *= 4.0
            grow = grow & (value(hi) < zz)
        else:
            raise ConvergenceError("numeric inverse failed to bracket above")
        shrink = v >= zz
        for _ in range(600):
            if not shrink.any():
                break
            lo[shrink] *= 0.25
            shrink = shrink & (value(lo) >= zz)
        else:
            raise ConvergenceError("numeric inverse failed to bracket below")
        for _ in range(140):
            mid = np.sqrt(lo * hi)
            high = value(mid) >= zz
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
        x = 0.5 * (lo + hi)
        for _ in range(3):
            step = (value(x) - zz) / d1(x)
            x_new = x - step
            x = np.where((x_new > lo) & (x_new < hi), x_new, x)
    if np.asarray(z).ndim == 0:
        return float(x[0])
    return x


def _log_expm1(t):
    """ln(e^t - 1) for t > 0, stable from underflowing t up to t ~ 1e308."""
    arr = np.asarray(t, dtype=np.float64)
    small = np.log(np.expm1(np.minimum(arr, 1.0)))
    large = arr + np.log1p(-np.exp(-np.maximum(arr, 1.0)))
    out = np.where(arr <= 1.0, small, large)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# catalog builders
# ---------------------------------------------------------------------------


def _power_generator(name, expo, shape_params, native):
    """Rows with T(x) = x**expo (expo > 0 increasing, expo < 0 decreasing)."""
    e = float(expo)
    if e == 0.0 or not np.isfinite(e):
        raise DomainError("power exponent must be nonzero and finite")
    return Generator(
        name=name,
        monotonicity="increasing" if e > 0 else "decreasing",
        shape_params=shape_params,
        value=_guard(lambda x: x**e, "generator argument"),
        d1=_guard(lambda x: e * x ** (e - 1.0), "generator argument"),
        d2=_guard(lambda x: e * (e - 1.0) * x ** (e - 2.0), "generator argument"),
        inverse=_guard(lambda z: z ** (1.0 / e), "inverse argument"),
        log_value=_guard(lambda x: e * np.log(x), "generator argument"),
        family_class=PowerLaw(C=1.0, s=-e),
        native=native,
    )


def _gamma():
    native = NativeParamMap(
        names=("alpha", "beta"),
        to_family=lambda alpha, beta: (alpha, 1.0 / (alpha * beta)),
        from_family=lambda mu, sigma: {"alpha": mu, "beta": 1.0 / (mu * sigma)},
    )
    return _power_generator("gamma", 1.0, {}, native)


def _chi_squared():
    native = NativeParamMap(
        names=("nu",),
        to_family=lambda nu: (nu / 2.0, 1.0 / nu),
        from_family=lambda mu, sigma: {"nu": 1.0 / sigma},
    )
    return _power_generator("chi-squared", 1.0, {}, native)


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
    native = NativeParamMap(
        names=("beta",),
        to_family=lambda beta: (1.5, 1.0 / (3.0 * beta**2)),
        from_family=lambda mu, sigma: {"beta": 1.0 / np.sqrt(3.0 * sigma)},
    )
    return _power_generator("maxwell-boltzmann", 2.0, {}, native)


def _rayleigh():
    native = NativeParamMap(
        names=("beta",),
        to_family=lambda beta: (1.0, 1.0 / (2.0 * beta**2)),
        from_family=lambda mu, sigma: {"beta": 1.0 / np.sqrt(2.0 * sigma)},
    )
    return _power_generator("rayleigh", 2.0, {}, native)


def _inverse_gamma():
    native = NativeParamMap(
        names=("alpha", "beta"),
        to_family=lambda alpha, beta: (alpha, 1.0 / (alpha * beta)),
        from_family=lambda mu, sigma: {"alpha": mu, "beta": 1.0 / (mu * sigma)},
    )
    return _power_generator("inverse-gamma", -1.0, {}, native)


def _delta_gamma(delta=1.0):
    d = float(delta)
    native = NativeParamMap(
        names=("beta",),
        to_family=lambda beta: (beta / d, 1.0 / beta),
        from_family=lambda mu, sigma: {"beta": 1.0 / sigma},
    )
    return _power_generator("delta-gamma", d, {"delta": d}, native)


def _weibull(delta=1.0):
    d = float(delta)
    native = NativeParamMap(
        names=("beta",),
        to_family=lambda beta: (1.0, beta**-d),
        from_family=lambda mu, sigma: {"beta": sigma ** (-1.0 / d)},
    )
    return _power_generator("weibull", d, {"delta": d}, native)


def _inverse_weibull(delta=1.0):
    d = float(delta)
    native = NativeParamMap(
        names=("beta",),
        to_family=lambda beta: (1.0, beta**-d),
        from_family=lambda mu, sigma: {"beta": sigma ** (-1.0 / d)},
    )
    return _power_generator("inverse-weibull", -d, {"delta": d}, native)


def _generalized_native(d: float) -> NativeParamMap:
    return NativeParamMap(
        names=("alpha", "beta"),
        to_family=lambda alpha, beta: (alpha / d, d / (alpha * beta**d)),
        from_family=lambda mu, sigma: {
            "alpha": d * mu,
            "beta": (1.0 / (mu * sigma)) ** (1.0 / d),
        },
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
    if not (np.isfinite(d) and d > 0):
        raise DomainError("gompertz requires delta > 0")
    native = NativeParamMap(
        names=("alpha",),
        to_family=lambda alpha: (1.0, alpha),
        from_family=lambda mu, sigma: {"alpha": sigma},
    )
    return Generator(
        name="gompertz",
        monotonicity="increasing",
        shape_params={"delta": d},
        value=_guard(lambda x: np.expm1(d * x), "generator argument"),
        d1=_guard(lambda x: d * np.exp(d * x), "generator argument"),
        d2=_guard(lambda x: d * d * np.exp(d * x), "generator argument"),
        inverse=_guard(lambda z: np.log1p(z) / d, "inverse argument"),
        log_value=_guard(lambda x: _log_expm1(d * x), "generator argument"),
        minorant=(d, 1.0),
        native=native,
    )


def _new_log_generalized_gamma(delta=1.0):
    d = float(delta)
    if not (np.isfinite(d) and d > 0):
        raise DomainError("new-log-generalized-gamma requires delta > 0")

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
        value=_guard(value, "generator argument"),
        d1=_guard(d1, "generator argument"),
        d2=_guard(d2, "generator argument"),
        inverse=_guard(inverse, "inverse argument"),
        log_value=_guard(log_value, "generator argument"),
        native=_generalized_native(d),
    )


def _burr_xii(c=1.0):
    cc = float(c)
    if not (np.isfinite(cc) and cc > 0):
        raise DomainError("burr-xii requires c > 0")

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

    native = NativeParamMap(
        names=("k",),
        to_family=lambda k: (1.0, k),
        from_family=lambda mu, sigma: {"k": sigma},
    )
    return Generator(
        name="burr-xii",
        monotonicity="increasing",
        shape_params={"c": cc},
        value=_guard(value, "generator argument"),
        d1=_guard(d1, "generator argument"),
        d2=_guard(d2, "generator argument"),
        inverse=_guard(inverse, "inverse argument"),
        family_class=LogPower(s=cc),
        native=native,
    )


def _dagum(c=1.0):
    cc = float(c)
    if not (np.isfinite(cc) and cc > 0):
        raise DomainError("dagum requires c > 0")

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

    native = NativeParamMap(
        names=("k",),
        to_family=lambda k: (1.0, k),
        from_family=lambda mu, sigma: {"k": sigma},
    )
    return Generator(
        name="dagum",
        monotonicity="decreasing",
        shape_params={"c": cc},
        value=_guard(value, "generator argument"),
        d1=_guard(d1, "generator argument"),
        d2=_guard(d2, "generator argument"),
        inverse=_guard(inverse, "inverse argument"),
        family_class=LogPower(s=-cc),
        native=native,
    )


def _flexible_weibull(b=1.0, c=1.0):
    bb, cc = float(b), float(c)
    if not (np.isfinite(bb) and bb > 0 and np.isfinite(cc) and cc > 0):
        raise DomainError("flexible-weibull requires b > 0 and c > 0")

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

    native = NativeParamMap(
        names=("a",),
        to_family=lambda a: (1.0, a),
        from_family=lambda mu, sigma: {"a": sigma},
    )
    return Generator(
        name="flexible-weibull",
        monotonicity="increasing",
        shape_params={"b": bb, "c": cc},
        value=_guard(value, "generator argument"),
        d1=_guard(d1, "generator argument"),
        d2=_guard(d2, "generator argument"),
        inverse=_guard(inverse, "inverse argument"),
        log_value=_guard(lambda x: bb * x - cc / x, "generator argument"),
        native=native,
    )


def _traditional_weibull(b=1.0, c=1.0, d=1.0):
    bb, cc, dd = float(b), float(c), float(d)
    if not all(np.isfinite(v) and v > 0 for v in (bb, cc, dd)):
        raise DomainError("traditional-weibull requires b, c, d > 0")

    def value(x):
        return x**bb * np.expm1(cc * x**dd)

    def d1(x):
        e = np.exp(cc * x**dd)
        return x ** (bb - 1.0) * (bb * (e - 1.0) + cc * dd * x**dd * e)

    def d2(x):
        e = np.exp(cc * x**dd)
        a = bb * (e - 1.0) + cc * dd * x**dd * e
        return x ** (bb - 2.0) * ((bb - 1.0) * a + cc * dd * x**dd * e * (bb + dd + cc * dd * x**dd))

    def inverse(z):
        return _numeric_inverse(
            lambda x: x**bb * np.expm1(cc * x**dd),
            lambda x: x ** (bb - 1.0)
            * (bb * np.expm1(cc * x**dd) + cc * dd * x**dd * np.exp(cc * x**dd)),
            z,
        )

    native = NativeParamMap(
        names=("a",),
        to_family=lambda a: (1.0, a),
        from_family=lambda mu, sigma: {"a": sigma},
    )
    return Generator(
        name="traditional-weibull",
        monotonicity="increasing",
        shape_params={"b": bb, "c": cc, "d": dd},
        value=_guard(value, "generator argument"),
        d1=_guard(d1, "generator argument"),
        d2=_guard(d2, "generator argument"),
        inverse=_guard(inverse, "inverse argument"),
        minorant=(cc, bb + dd),
        native=native,
    )


def _modified_weibull_extension(alpha=1.0, beta=1.0):
    aa, bb = float(alpha), float(beta)
    if not (np.isfinite(aa) and aa > 0 and np.isfinite(bb) and bb > 0):
        raise DomainError("modified-weibull-extension requires alpha, beta > 0")

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
        value=_guard(value, "generator argument"),
        d1=_guard(d1, "generator argument"),
        d2=_guard(d2, "generator argument"),
        inverse=_guard(inverse, "inverse argument"),
        log_value=_guard(log_value, "generator argument"),
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
    raise; shape parameters must be positive and finite.
    """
    key = _canonical(name)
    builder = _BUILDERS[key]
    params = {k: float(v) for k, v in shape_params.items()}
    for k, v in params.items():
        if not (np.isfinite(v) and v > 0.0):
            raise DomainError(f"shape parameter {k}={v} must be finite and > 0")
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
