"""Generator formulas and the gamma draw, written apart from gamgen (numpy only).

The benchmark draws its inputs with these inverses, and the checks evaluate
T, T', T'' and the native parameter maps with them, so that a fault in a
gamgen generator cannot hide behind the same fault in its own check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class RefGenerator:
    """T, its first two derivatives, log T and T^-1 of one catalog generator.

    ``native`` maps (mu, sigma) to the native parameters in gamgen's order;
    ``native_mu_power`` gives, per native parameter, the power of mu it
    carries (0 when it depends on sigma alone), which scales rounding and
    solver error from mu into that parameter.
    """

    spec: str
    increasing: bool
    T: Callable
    dT: Callable
    d2T: Callable
    logT: Callable
    Tinv: Callable
    native: Callable
    native_mu_power: tuple


def _power(spec, e, native, mu_power):
    return RefGenerator(
        spec=spec,
        increasing=e > 0,
        T=lambda x: x**e,
        dT=lambda x: e * x ** (e - 1.0),
        d2T=lambda x: e * (e - 1.0) * x ** (e - 2.0),
        logT=lambda x: e * np.log(x),
        Tinv=lambda z: z ** (1.0 / e),
        native=native,
        native_mu_power=mu_power,
    )


def _alpha_beta(mu, sigma):
    return (mu, 1.0 / (mu * sigma))


def _sigma_only(power):
    return lambda mu, sigma: (sigma**power,)


def ref_generator(spec: str) -> RefGenerator:
    """The reference formulas for one of the generator specs the workloads use."""
    if spec == "gamma":
        return _power(spec, 1.0, _alpha_beta, (1.0, 1.0))
    if spec == "inverse-gamma":
        return _power(spec, -1.0, _alpha_beta, (1.0, 1.0))
    if spec == "weibull(delta=2)":
        return _power(spec, 2.0, _sigma_only(-0.5), (0.0,))
    if spec == "burr-xii(c=2)":
        return RefGenerator(
            spec=spec,
            increasing=True,
            T=lambda x: np.log1p(x * x),
            dT=lambda x: 2.0 * x / (1.0 + x * x),
            d2T=lambda x: 2.0 * (1.0 - x * x) / (1.0 + x * x) ** 2,
            logT=lambda x: np.log(np.log1p(x * x)),
            Tinv=lambda z: np.sqrt(np.expm1(z)),
            native=_sigma_only(1.0),
            native_mu_power=(0.0,),
        )
    if spec == "dagum(c=2)":
        return RefGenerator(
            spec=spec,
            increasing=False,
            T=lambda x: np.log1p(1.0 / (x * x)),
            dT=lambda x: -2.0 / (x * (1.0 + x * x)),
            d2T=lambda x: 2.0 * (1.0 + 3.0 * x * x) / (x * x * (1.0 + x * x) ** 2),
            logT=lambda x: np.log(np.log1p(1.0 / (x * x))),
            Tinv=lambda z: 1.0 / np.sqrt(np.expm1(z)),
            native=_sigma_only(1.0),
            native_mu_power=(0.0,),
        )
    if spec in ("gompertz", "new-log-generalized-gamma(delta=1)"):
        # T(x) = e^x - 1 for both; they differ only in the native map.
        if spec == "gompertz":
            native, mu_power = _sigma_only(1.0), (0.0,)
        else:
            native, mu_power = _alpha_beta, (1.0, 1.0)
        return RefGenerator(
            spec=spec,
            increasing=True,
            T=np.expm1,
            dT=np.exp,
            d2T=np.exp,
            logT=lambda x: np.log(np.expm1(x)),
            Tinv=np.log1p,
            native=native,
            native_mu_power=mu_power,
        )
    if spec == "traditional-weibull":
        # T(x) = x (e^x - 1) at b = c = d = 1; only T is needed by the checks.
        return RefGenerator(
            spec=spec,
            increasing=True,
            T=lambda x: x * np.expm1(x),
            dT=lambda x: np.expm1(x) + x * np.exp(x),
            d2T=lambda x: (2.0 + x) * np.exp(x),
            logT=lambda x: np.log(x) + np.log(np.expm1(x)),
            Tinv=None,
            native=_sigma_only(1.0),
            native_mu_power=(0.0,),
        )
    raise KeyError(spec)


def philox(seed: int, stream_id: int) -> np.random.Generator:
    """The bit stream gamgen documents for RngStream(seed, stream_id)."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _marsaglia_tsang(shape: float, gen: np.random.Generator, n: int) -> np.ndarray:
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        x = gen.standard_normal(m)
        v = (1.0 + c * x) ** 3
        u = gen.random(m)
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
    return out


def study_gamma_draws(shape: float, scale: float, gen: np.random.Generator, n: int):
    """Gamma draws in the order gamgen's documented sampler consumes the stream.

    Marsaglia-Tsang squeeze for shape >= 1; below 1, the G(a+1) U^(1/a)
    boost with U = 1 - uniform drawn after the whole core batch.
    """
    if shape >= 1.0:
        z = _marsaglia_tsang(shape, gen, n)
    else:
        z = _marsaglia_tsang(shape + 1.0, gen, n) * (1.0 - gen.random(n)) ** (1.0 / shape)
    return np.maximum(z * scale, 5e-324)
