"""Shared helpers for the test suite.

CATALOG_SWEEP lists every catalog generator once, with non-default shape
parameters where the row has any, so the general code paths get exercised
rather than the degenerate shape = 1 specialisations.
"""

import numpy as np
from hypothesis import settings

from gamgen import FamilyParams, RngStream, make_generator, sample as draw

# Property tests draw the same examples on every run: the seed comes from the
# test itself and no example database carries failures from one run to the next.
settings.register_profile("gamgen", derandomize=True, deadline=None, database=None)
settings.load_profile("gamgen")

CATALOG_SWEEP = [
    ("gamma", {}),
    ("chi-squared", {}),
    ("scaled-inverse-chi-squared", {}),
    ("nakagami", {}),
    ("maxwell-boltzmann", {}),
    ("rayleigh", {}),
    ("inverse-gamma", {}),
    ("delta-gamma", {"delta": 1.5}),
    ("weibull", {"delta": 2.0}),
    ("inverse-weibull", {"delta": 1.5}),
    ("generalized-gamma", {"delta": 2.0}),
    ("generalized-inverse-gamma", {"delta": 1.5}),
    ("gompertz", {"delta": 2.0}),
    ("new-log-generalized-gamma", {"delta": 1.0}),
    ("burr-xii", {"c": 2.0}),
    ("dagum", {"c": 2.0}),
    ("flexible-weibull", {"b": 1.0, "c": 0.5}),
    ("modified-weibull-extension", {"alpha": 2.0, "beta": 1.5}),
    ("traditional-weibull", {"b": 1.0, "c": 1.0, "d": 1.0}),
]

# Catalog rows whose generator is a pure power law T(x) = C x^{-s}, one per
# distinct exponent shape: gamma (x), nakagami (x^2), inverse-gamma (1/x),
# weibull (x^delta), inverse-weibull (x^{-delta}).
POWER_LAW_SWEEP = [
    ("gamma", {}),
    ("nakagami", {}),
    ("inverse-gamma", {}),
    ("weibull", {"delta": 2.0}),
    ("inverse-weibull", {"delta": 1.5}),
]


def sweep_ids(sweep):
    return [name for name, _ in sweep]


def catalog_generators():
    return [make_generator(name, **shapes) for name, shapes in CATALOG_SWEEP]


def draw_sample(g, mu, sigma, n, seed, stream=0, power=1.0):
    rng = RngStream(seed, stream)
    return draw(n, FamilyParams(mu, sigma, power), g, rng)


def random_param_points(rng, count, mu_range=(0.5, 6.0), sigma_range=(0.5, 4.0)):
    mus = rng.random(count) * (mu_range[1] - mu_range[0]) + mu_range[0]
    sigmas = rng.random(count) * (sigma_range[1] - sigma_range[0]) + sigma_range[0]
    return np.column_stack([mus, sigmas])
