"""Two-parameter family induced by a monotone generator, plus power extension.

With T the generator and Z ~ Gamma(mu, scale 1/(mu*sigma)), the variable
Y = [T^{-1}(Z)]^(1/p) follows the family with parameters (mu, sigma) and
power p. Equivalently T(Y^p) ~ Gamma(mu, 1/(mu*sigma)), which drives the
sampler, the distribution function, and the quantile function below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateLimitError,
    DomainError,
    MomentDoesNotExistError,
    NonpositiveObservationError,
    OverflowInValue,
)
from .generators import Generator, LogPower, PowerLaw, inverse_of
from .special import (
    RngStream,
    inv_reg_lower_gamma,
    log_gamma,
    reg_lower_gamma,
    sample_gamma,
)

__all__ = [
    "FamilyParams",
    "Sample",
    "MomentExistence",
    "log_pdf",
    "cdf",
    "quantile",
    "sample",
    "moment_power_law",
    "moment_exists",
    "population_mu_limit",
]


@dataclass(frozen=True)
class FamilyParams:
    """Family parameters: shape mu > 0, rate-like sigma > 0, power p > 0."""

    mu: float
    sigma: float
    power: float = 1.0

    def __post_init__(self):
        for name in ("mu", "sigma", "power"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise DomainError(f"FamilyParams.{name} must be finite and > 0")


class Sample:
    """Ordered collection of strictly positive finite observations.

    The means of the pointwise transforms are cached on the instance per
    (generator, power), so estimators that share them do not recompute them.
    """

    __slots__ = ("values", "_cache")

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size < 1:
            raise NonpositiveObservationError("sample must contain at least one value")
        if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
            raise NonpositiveObservationError(
                "sample values must be finite and strictly positive"
            )
        self.values = arr
        self._cache = {}

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover
        return f"Sample(n={self.n})"


def _as_positive_array(y, what: str):
    arr = np.asarray(y, dtype=np.float64)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError(f"{what} must be finite and > 0")
    return arr, arr.ndim == 0


def _t1_and_log(g: Generator, x):
    """Generator value and its log; a log channel only improves the log."""
    t1 = g.value(x)
    if g.log_value is not None:
        log_t1 = g.log_value(x)
    else:
        log_t1 = np.log(t1)
    if np.any(~np.isfinite(np.atleast_1d(t1))):
        raise OverflowInValue("generator value overflowed float64 range")
    return t1, log_t1


def log_pdf(y, params: FamilyParams, g: Generator):
    """Log density at y > 0. Accepts scalars or arrays elementwise.

    Evaluated as ln p + mu ln(mu sigma) - lnGamma(mu) + ln|T'(y^p)|
    + (p-1) ln y - ln T(y^p) - mu sigma T(y^p) + mu ln T(y^p); generator
    overflow raises rather than silently returning -inf.
    """
    arr, scalar = _as_positive_array(y, "log_pdf argument")
    mu, sigma, p = params.mu, params.sigma, params.power
    x = arr**p
    t1, log_t1 = _t1_and_log(g, x)
    d1 = g.d1(x)
    if np.any(~np.isfinite(np.atleast_1d(d1))):
        raise OverflowInValue("generator derivative overflowed float64 range")
    out = (
        np.log(p)
        + mu * np.log(mu * sigma)
        - log_gamma(mu)
        + np.log(np.abs(d1))
        + (p - 1.0) * np.log(arr)
        - log_t1
        - mu * sigma * t1
        + mu * log_t1
    )
    return float(out) if scalar else out


def cdf(y, params: FamilyParams, g: Generator):
    """Distribution function at y > 0; dispatches on generator monotonicity."""
    arr, scalar = _as_positive_array(y, "cdf argument")
    mu, sigma, p = params.mu, params.sigma, params.power
    t1, _ = _t1_and_log(g, arr**p)
    z = mu * sigma * t1
    lower = reg_lower_gamma(mu, z)
    out = lower if g.monotonicity == "increasing" else 1.0 - lower
    return float(out) if scalar else np.asarray(out)


def quantile(u, params: FamilyParams, g: Generator):
    """Quantile function for levels strictly inside (0, 1).

    Increasing T: [T^{-1}(Q_Z(u))]^(1/p); decreasing T uses the reflection
    Q_Y(u) = [T^{-1}(Q_Z(1-u))]^(1/p), equivalent to inverting through the
    reciprocal inverse-gamma representation.
    """
    arr = np.asarray(u, dtype=np.float64)
    scalar = arr.ndim == 0
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile level must lie strictly between 0 and 1")
    mu, sigma, p = params.mu, params.sigma, params.power
    level = arr if g.monotonicity == "increasing" else 1.0 - arr
    qz = inv_reg_lower_gamma(mu, level) / (mu * sigma)
    x = inverse_of(g, qz)
    y = x ** (1.0 / p) if p != 1.0 else x
    return float(y) if scalar else np.asarray(y)


def sample(n: int, params: FamilyParams, g: Generator, rng: RngStream) -> np.ndarray:
    """Draw n observations via the stochastic representation."""
    n = int(n)
    if n < 1:
        raise DomainError("sample size must be at least 1")
    mu, sigma, p = params.mu, params.sigma, params.power
    z = sample_gamma(mu, 1.0 / (mu * sigma), rng, size=n)
    x = inverse_of(g, z)
    return x ** (1.0 / p) if p != 1.0 else x


def moment_power_law(q: float, params: FamilyParams, C: float, s: float) -> float:
    """E[Y^q] for a power-law generator T(x) = C x**(-s).

    Equals (C mu sigma)^(q/(p s)) * Gamma(mu - q/(p s)) / Gamma(mu), defined
    when mu - q/(p s) > 0; otherwise the moment does not exist.
    """
    q = float(q)
    C = float(C)
    s = float(s)
    if not (np.isfinite(C) and C > 0.0):
        raise DomainError("power-law constant C must be finite and > 0")
    if not (np.isfinite(s) and s != 0.0):
        raise DomainError("power-law exponent s must be finite and nonzero")
    mu, sigma, p = params.mu, params.sigma, params.power
    shift = q / (p * s)
    if mu - shift <= 0.0:
        raise MomentDoesNotExistError(
            f"moment of order {q} requires mu > q/(p*s) = {shift:g}; mu = {mu:g}"
        )
    return float(
        (C * mu * sigma) ** shift * np.exp(log_gamma(mu - shift) - log_gamma(mu))
    )


@dataclass(frozen=True)
class MomentExistence:
    """Outcome of a moment-existence rule match.

    ``exists`` is True/False when the matched rule decides the question and
    None when no rule applies (or the power-law rule needs an unspecified mu).
    """

    exists: Optional[bool]
    rule: str
    reason: str


def moment_exists(q: float, g: Generator, p: float = 1.0, mu: Optional[float] = None) -> MomentExistence:
    """Match the moment-existence rules for E[Y^q] under generator g.

    Power-law generators use the exact condition mu > q/(p*s); log-power
    generators use q < min(0, p*s); increasing generators with a declared
    minorant C x**s use the sufficient condition 0 < q < p*s; anything else
    is reported unknown.
    """
    q = float(q)
    p = float(p)
    if not (np.isfinite(p) and p > 0.0):
        raise DomainError("power p must be finite and > 0")
    if q == 0.0:
        return MomentExistence(True, "trivial", "the zeroth moment is 1")
    fc = g.family_class
    if isinstance(fc, PowerLaw):
        threshold = q / (p * fc.s)
        if mu is not None:
            ok = mu > threshold
            return MomentExistence(
                bool(ok),
                "power-law",
                f"exists iff mu > q/(p*s) = {threshold:g}; mu = {mu:g}",
            )
        if threshold <= 0.0:
            return MomentExistence(
                True, "power-law", f"q/(p*s) = {threshold:g} <= 0 so any mu > 0 works"
            )
        return MomentExistence(
            None, "power-law", f"exists iff mu > q/(p*s) = {threshold:g}; mu unspecified"
        )
    if isinstance(fc, LogPower):
        bound = min(0.0, p * fc.s)
        ok = q < bound
        return MomentExistence(
            bool(ok), "log-power", f"condition q < min(0, p*s) = {bound:g}"
        )
    if g.minorant is not None and g.monotonicity == "increasing":
        C, s = g.minorant
        if 0.0 < q < p * s:
            return MomentExistence(
                True, "minorant", f"0 < q < p*s = {p * s:g} with minorant {C:g} x^{s:g}"
            )
        return MomentExistence(
            None, "minorant", f"minorant rule covers only 0 < q < p*s = {p * s:g}"
        )
    return MomentExistence(None, "unknown", "no existence rule matches this generator")


def population_mu_limit(
    params: FamilyParams, g: Generator, draws: int, rng: RngStream
) -> float:
    """Monte Carlo evaluation of the almost-sure limit of the closed-form mu.

    With Z ~ Gamma(mu, 1/(mu sigma)) and X = T^{-1}(Z), the limit is
    E[1 + (1 + U(Z)) ln X] / E[(sigma - 1/Z) T'(X) X ln X] where
    U(z) = (T''(X)/T'(X) - T'(X)/z) X. Requires power = 1.
    """
    if params.power != 1.0:
        raise DomainError("population_mu_limit is defined for power = 1")
    draws = int(draws)
    if draws < 1000:
        raise DomainError("population_mu_limit needs at least 1000 draws")
    mu, sigma = params.mu, params.sigma
    z = sample_gamma(mu, 1.0 / (mu * sigma), rng, size=draws)
    x = inverse_of(g, z)
    logx = np.log(x)
    d1 = g.d1(x)
    u_fn = (g.d2(x) / d1 - d1 / z) * x
    g1 = 1.0 + (1.0 + u_fn) * logx
    g2 = (sigma - 1.0 / z) * d1 * x * logx
    num = float(np.mean(g1))
    den = float(np.mean(g2))
    sem = float(np.std(g2)) / np.sqrt(draws)
    if abs(den) < 5.0 * sem:
        raise DegenerateLimitError(
            "population limit denominator indistinguishable from zero"
        )
    return num / den
