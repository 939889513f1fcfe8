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
    positive_array,
)
from .generators import Generator, LogPower, PowerLaw, inverse_of
from .special import (
    RngStream,
    inv_reg_lower_gamma,
    inv_reg_upper_gamma,
    log_gamma,
    reg_lower_gamma,
    reg_upper_gamma,
    sample_gamma,
)

__all__ = [
    "FamilyParams",
    "Sample",
    "MomentExistence",
    "log_pdf",
    "cdf",
    "sf",
    "quantile",
    "isf",
    "sample",
    "moment_power_law",
    "moment_exists",
    "population_mu_limit",
]

_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


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
        arr = positive_array(values, "sample values", NonpositiveObservationError).reshape(-1)
        if arr.size < 1:
            raise NonpositiveObservationError("sample must contain at least one value")
        self.values = arr
        self._cache = {}

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover
        return f"Sample(n={self.n})"


def _power(y, p):
    """y ** p, raising OverflowInValue where it overflows or underflows to 0,
    so that no generator kernel sees an argument outside (0, inf).

    p is a scalar, or a column of k powers (shape (k, 1)) for a flat y, which
    gives one row per power. Each row is y raised to its power as a Python
    float: numpy takes fast paths (sqrt, y * y) for a scalar power that an
    array of powers does not, so a broadcast power could move a row's bits.
    """
    with np.errstate(over="ignore"):
        if np.ndim(p):
            x = np.array([y ** q for q in np.ravel(p).tolist()])
        else:
            x = np.asarray(y) ** p
    if not np.all((x > 0.0) & (x < np.inf)):
        raise OverflowInValue("Y^p left the positive float64 range")
    return x


def _t1_and_log(g: Generator, x):
    """Generator value and its log; a log channel only improves the log.

    A value that overflows, or whose log is not finite because the value
    underflowed to 0, raises OverflowInValue.
    """
    t1 = g.raw.value(x)
    if g.raw.log_value is not None:
        log_t1 = g.raw.log_value(x)
    else:
        with np.errstate(divide="ignore"):
            log_t1 = np.log(t1)
    if not np.isfinite(t1).all():
        raise OverflowInValue("generator value overflowed float64 range")
    if not np.isfinite(log_t1).all():
        raise OverflowInValue("log of the generator value left float64 range")
    return t1, log_t1


def log_pdf(y, params: FamilyParams, g: Generator):
    """Log density at y > 0. Accepts scalars or arrays elementwise.

    Evaluated as ln p + mu ln(mu sigma) - lnGamma(mu) + ln|T'(y^p)|
    + (p-1) ln y - ln T(y^p) - mu sigma T(y^p) + mu ln T(y^p); where T, ln T
    or ln|T'| leaves the float64 range it raises rather than returning nan
    or -inf.
    """
    arr = positive_array(y, "log_pdf argument")
    mu, sigma, p = params.mu, params.sigma, params.power
    x = _power(np.atleast_1d(arr), p)
    t1, log_t1 = _t1_and_log(g, x)
    with np.errstate(divide="ignore"):
        log_d1 = np.log(np.abs(g.raw.d1(x)))
    if not np.isfinite(log_d1).all():
        raise OverflowInValue("log of the generator derivative left float64 range")
    out = (
        np.log(p)
        + mu * np.log(mu * sigma)
        - log_gamma(mu)
        + log_d1
        + (p - 1.0) * np.log(arr)
        - log_t1
        - mu * sigma * t1
        + mu * log_t1
    )
    return float(out[0]) if arr.ndim == 0 else out


def _saturated(g: Generator, x, t, mu: float, sigma: float):
    """True where the gamma tail beyond z = mu sigma T(x) provably rounds to
    0, judged from ln T: taken from T = t where t is finite and from the
    generator's log channel where t overflowed.

    For z >= 2 max(mu, 1), Gamma(mu, z) <= 2 z^(mu-1) e^-z and
    1/Gamma(mu) < 1.13, so Q(mu, z) < 2.26 e^-(z - max(mu - 1, 0) ln z),
    which rounds to 0 (below half the smallest subnormal, e^-745.13) once
    z - max(mu - 1, 0) ln z > 746.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_t = np.log(t)
        over = ~np.isfinite(t)
        if over.any() and g.raw.log_value is not None:
            log_t[over] = g.raw.log_value(x[over])
        log_z = np.log(mu * sigma) + log_t
        z = np.exp(log_z)
        return (
            np.isfinite(log_t)
            & (z >= 2.0 * max(mu, 1.0))
            & (z - max(mu - 1.0, 0.0) * log_z > 746.0)
        )


def _tail(y, params: FamilyParams, g: Generator, upper: bool):
    """P(Y <= y), or P(Y > y) when ``upper``, from T(y^p) alone.

    Y <= y is T(Y^p) <= T(y^p) for an increasing generator and
    T(Y^p) >= T(y^p) for a decreasing one, so the answer is P or Q of the
    gamma law, each taken directly so that neither tail is formed as 1 - x.
    Where T(y^p), or the gamma argument mu sigma T(y^p), overflows, the
    answer is exactly 0 (Q) or 1 (P) if ln T shows the tail is below the
    float64 range (_saturated); otherwise it raises OverflowInValue.
    """
    arr = positive_array(y, "sf argument" if upper else "cdf argument")
    mu, sigma, p = params.mu, params.sigma, params.power
    x = _power(np.atleast_1d(arr), p)
    t1 = g.raw.value(x)
    with np.errstate(over="ignore", invalid="ignore"):
        z = mu * sigma * t1
    on_q = upper != (g.monotonicity == "decreasing")
    tail = reg_upper_gamma if on_q else reg_lower_gamma
    finite = np.isfinite(z)
    if finite.all():
        out = tail(mu, z)
    else:
        if not _saturated(g, x[~finite], t1[~finite], mu, sigma).all():
            raise OverflowInValue("mu sigma T(y^p) overflowed float64 range")
        out = np.full(z.shape, 0.0 if on_q else 1.0)
        if finite.any():
            out[finite] = tail(mu, z[finite])
    return float(out[0]) if arr.ndim == 0 else out


def cdf(y, params: FamilyParams, g: Generator):
    """Distribution function P(Y <= y) at y > 0."""
    return _tail(y, params, g, upper=False)


def sf(y, params: FamilyParams, g: Generator):
    """Survival function P(Y > y) at y > 0, accurate far into the upper tail."""
    return _tail(y, params, g, upper=True)


def _tail_inverse(u, params: FamilyParams, g: Generator, upper: bool):
    """y with P(Y <= y) = u, or P(Y > y) = u when ``upper``, for 0 < u < 1.

    Y = [T^{-1}(Z)]^(1/p) with Z ~ Gamma(mu, 1/(mu sigma)); the level is
    handed to the incomplete-gamma inverse of the matching tail, so no
    level is formed as 1 - u.
    """
    arr = np.asarray(u, dtype=np.float64)
    scalar = arr.ndim == 0
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile level must lie strictly between 0 and 1")
    mu, sigma, p = params.mu, params.sigma, params.power
    on_q = upper != (g.monotonicity == "decreasing")
    z = (inv_reg_upper_gamma if on_q else inv_reg_lower_gamma)(mu, arr)
    with np.errstate(over="ignore"):
        t = z / (mu * sigma)
    if not np.all((t > 0.0) & (t < np.inf)):
        raise OverflowInValue("gamma root over mu sigma left the positive float64 range")
    x = inverse_of(g, t)
    y = _power(x, 1.0 / p) if p != 1.0 else x
    return float(y) if scalar else np.asarray(y)


def quantile(u, params: FamilyParams, g: Generator):
    """Quantile function: y with cdf(y) = u, for levels strictly inside (0, 1)."""
    return _tail_inverse(u, params, g, upper=False)


def isf(q, params: FamilyParams, g: Generator):
    """Inverse survival function: y with sf(y) = q, for 0 < q < 1."""
    return _tail_inverse(q, params, g, upper=True)


def sample(n: int, params: FamilyParams, g: Generator, rng: RngStream) -> np.ndarray:
    """Draw n observations via the stochastic representation.

    A gamma draw that underflows to 0, which ``sample_gamma`` floors at the
    smallest subnormal, raises OverflowInValue.
    """
    n = int(n)
    if n < 1:
        raise DomainError("sample size must be at least 1")
    mu, sigma, p = params.mu, params.sigma, params.power
    z = sample_gamma(mu, 1.0 / (mu * sigma), rng, size=n)
    if z.min() <= _SMALLEST_SUBNORMAL:
        raise OverflowInValue("a gamma draw underflowed to 0")
    x = inverse_of(g, z)
    return _power(x, 1.0 / p) if p != 1.0 else x


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
    d1 = g.raw.d1(x)
    u_fn = (g.raw.d2(x) / d1 - d1 / z) * x
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
