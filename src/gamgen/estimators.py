"""Closed-form and maximum likelihood estimators for the generator family.

For observations Y_1..Y_n and generator T, the exact ML estimator of sigma is
n / sum T(Y_i). The closed-form shape estimator comes from the p-score of the
power-extended likelihood evaluated at p = 1, which needs no iteration. The
classical ML shape estimator solves ln(mu) - psi(mu) = H with
H = ln(mean T(Y)) - mean(ln T(Y)) >= 0, a strictly decreasing left side, so
the root is unique; the solver brackets it and runs guarded Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import FamilyParams, Sample, _power, _t1_and_log, log_pdf
from .errors import (
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    InvalidSampleError,
    NoRootInBracketError,
    OverflowInValue,
)
from .generators import Generator, inverse_of
from .special import RngStream, _digamma, digamma, sample_gamma

__all__ = [
    "ScoreVector",
    "SolverDiagnostics",
    "EstimateReport",
    "FullMlFit",
    "estimate_sigma",
    "estimate_mu_closed",
    "ml_equation_rhs",
    "estimate_mu_ml",
    "profile_sigma",
    "profile_mu",
    "fit_full_ml",
    "fit_new_log_generalized_gamma",
    "estimating_equation_bias",
    "score_vector",
    "log_likelihood",
    "fit_family",
]


@dataclass(frozen=True)
class ScoreVector:
    """Partial derivatives of the log likelihood in (mu, sigma, power)."""

    d_mu: float
    d_sigma: float
    d_power: float


@dataclass(frozen=True)
class SolverDiagnostics:
    iterations: int
    residual: float
    bracket: tuple


@dataclass(frozen=True)
class EstimateReport:
    sigma_hat: float
    mu_hat_closed: float
    mu_hat_ml: float
    solver: SolverDiagnostics
    native: dict


@dataclass(frozen=True)
class FullMlFit:
    mu: float
    sigma: float
    power: float
    iterations: int
    residual: float
    bracket: tuple
    infeasible_points: int


def _pointwise(g: Generator, y: np.ndarray, p: float = 1.0) -> np.ndarray:
    """Rows T(x), ln T(x), ln y, w, a, r at x = y^p, shape (6,) + y.shape.

    w, a, r are the summands of the profile shape estimator:
    w = (T''/T' - T'/T)(x) x ln y, a = T'(x) x ln y, r = (T'/T)(x) x ln y.
    """
    x = _power(y, p)
    t1, log_t1 = _t1_and_log(g, x)
    d1 = g.raw.d1(x)
    d2 = g.raw.d2(x)
    if np.any(~np.isfinite(d1)) or np.any(~np.isfinite(d2)):
        raise OverflowInValue("generator derivative overflowed float64 range")
    log_y = np.log(y)
    xl = x * log_y
    # T may underflow to 0 where ln T is finite; the finiteness checks catch the inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.stack([t1, log_t1, log_y, (d2 / d1 - d1 / t1) * xl, d1 * xl, (d1 / t1) * xl])


def _mean_last(x: np.ndarray):
    """Mean over the last axis with a summation order that depends neither
    on the leading shape nor on memory layout, so the scalar estimators and
    the vectorized experiment engine produce bit-identical results on the
    same data."""
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    return np.einsum("...n->...", x) / x.shape[-1]


def _means(sample: Sample, g: Generator, p: float = 1.0) -> np.ndarray:
    """The six row means of _pointwise at power p, cached on the sample."""
    key = (g, p)
    cached = sample._cache.get(key)
    if cached is None:
        cached = _mean_last(_pointwise(g, sample.values, p))
        sample._cache[key] = cached
    return cached


def _pointwise_rows(sample: Sample, g: Generator) -> np.ndarray:
    """The pointwise rows of a sample at p = 1, leaving their means where
    _means looks for them, so estimators run on the sample afterwards do not
    compute the rows again. The rows themselves are not cached."""
    P = _pointwise(g, sample.values)
    sample._cache.setdefault((g, 1.0), _mean_last(P))
    return P


def _require_spread(sample: Sample, what: str) -> None:
    if sample.n < 2 or np.ptp(sample.values) == 0.0:
        raise DegenerateSampleError(f"{what} needs at least two distinct observations")


def _check_power(p) -> float:
    p = float(p)
    if not (np.isfinite(p) and p > 0.0):
        raise DomainError("power p must be finite and > 0")
    return p


def profile_sigma(sample: Sample, g: Generator, p: float) -> float:
    """Profile estimator of sigma at power p: n / sum T(Y_i^p)."""
    total = float(_means(sample, g, _check_power(p))[0])
    if not np.isfinite(total) or total <= 0.0:
        raise OverflowInValue("sum of generator values is not finite and positive")
    return 1.0 / total


def _mu_closed_from_means(mean_log_y, mean_w, mean_t1, mean_a, mean_r, p=1.0):
    """Numerator and denominator of the profile shape estimate at power p
    from the pointwise means (array-safe)."""
    numer = 1.0 / p + mean_log_y + mean_w
    denom = mean_a / mean_t1 - mean_r
    return numer, denom


def profile_mu(sample: Sample, g: Generator, p: float) -> float:
    """Profile estimator of mu at power p (the closed form at p = 1).

    Ratio of the p-score pieces: numerator 1/p + mean(ln Y) + mean(w),
    denominator sigma_hat * mean(a) - mean(r). A non-positive denominator
    means the estimating equation has no positive solution for this sample.
    """
    p = _check_power(p)
    _require_spread(sample, "closed-form mu")
    mean_t1, _, mean_log_y, mean_w, mean_a, mean_r = _means(sample, g, p)
    numer, denom = _mu_closed_from_means(
        float(mean_log_y), float(mean_w), float(mean_t1), float(mean_a), float(mean_r), p
    )
    if not (np.isfinite(numer) and np.isfinite(denom)):
        raise OverflowInValue("closed-form mu produced a non-finite intermediate")
    if denom <= 0.0:
        raise InvalidSampleError(
            "closed-form mu denominator is not positive for this sample"
        )
    mu = numer / denom
    if mu <= 0.0:
        raise InvalidSampleError("closed-form mu is not positive for this sample")
    return float(mu)


def estimate_sigma(sample: Sample, g: Generator) -> float:
    """Exact ML estimator of sigma: n / sum T(Y_i)."""
    return profile_sigma(sample, g, 1.0)


def estimate_mu_closed(sample: Sample, g: Generator) -> float:
    """Closed-form, iteration-free estimator of mu: profile_mu at p = 1."""
    return profile_mu(sample, g, 1.0)


def ml_equation_rhs(sample: Sample, g: Generator) -> float:
    """H = ln(mean T(Y)) - mean(ln T(Y)), the ML equation right side.

    Nonnegative by Jensen's inequality; zero exactly when all T(Y_i) agree.
    Rounding can produce a tiny negative value for near-constant samples,
    which is clamped to zero.
    """
    mean_t1, mean_log_t1 = _means(sample, g)[:2]
    if not np.isfinite(mean_t1) or mean_t1 <= 0.0:
        raise OverflowInValue("mean of generator values is not finite and positive")
    h = float(np.log(mean_t1) - mean_log_t1)
    if h < 0.0:
        if h < -1e-10 * max(1.0, abs(np.log(mean_t1))):
            raise InvalidSampleError("ML equation right side is significantly negative")
        h = 0.0
    return h


def _solve_mu_ml_array(h: np.ndarray):
    """Vectorized root solve of ln(mu) - psi(mu) = h for h > 0.

    Start from mu0 = (3 + sqrt(9 + 12 h)) / (12 h), expand a geometric
    bracket until the residual changes sign, then Newton steps with the
    derivative taken by central finite difference, falling back to bisection
    whenever a step leaves the bracket, until |residual| <= 1e-12 or 200
    steps. The two sides of the difference go through one digamma pass, and
    digamma is the unvalidated kernel, since every argument here is finite
    and positive. All of it is elementwise, so
    an entry's root and iteration count do not depend on the other entries.
    An analytic trigamma derivative would take fewer digamma evaluations but
    move the Newton iterates, and with them the last bits of the root.

    Returns (root, iterations, residual, (lo, hi), converged): an entry that
    could not be bracketed or ran out of iterations is False in the mask.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.size == 0:
        empty = h.copy()
        return empty, np.zeros(0, dtype=np.int64), empty, (empty, empty), np.zeros(0, bool)
    if np.any(~np.isfinite(h)) or np.any(h <= 0.0):
        raise DomainError("ML equation solve requires h > 0")

    def f(m):
        return np.log(m) - _digamma(m) - h

    def f_at(m, idx):
        return np.log(m) - _digamma(m) - h[idx]

    mu0 = (3.0 + np.sqrt(9.0 + 12.0 * h)) / (12.0 * h)
    lo = mu0 / 10.0
    hi = mu0 * 10.0
    flo = f(lo)
    for _ in range(300):
        bad = flo < 0.0
        if not bad.any():
            break
        lo[bad] /= 4.0
        flo[bad] = f_at(lo[bad], bad)
    fhi = f(hi)
    for _ in range(300):
        bad = fhi > 0.0
        if not bad.any():
            break
        hi[bad] *= 4.0
        fhi[bad] = f_at(hi[bad], bad)
    bracketed = ~(flo < 0.0) & ~(fhi > 0.0)

    bracket0 = (lo.copy(), hi.copy())
    m = np.clip(mu0, lo * 1.0000000001, hi * 0.9999999999)
    fm = f(m)
    iters = np.zeros(h.shape, dtype=np.int64)
    active = bracketed & (np.abs(fm) > 1e-12)
    for _ in range(200):
        if not active.any():
            break
        pos = active & (fm > 0.0)
        lo[pos] = m[pos]
        neg = active & (fm < 0.0)
        hi[neg] = m[neg]
        ma = m[active]
        ha = h[active]
        step = ma * 1e-7
        sides = np.concatenate([ma + step, ma - step])
        lhs = np.log(sides) - _digamma(sides)
        k = ma.size
        fp = ((lhs[:k] - ha) - (lhs[k:] - ha)) / (2.0 * step)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ma - fm[active] / fp
        inside = np.isfinite(newton) & (newton > lo[active]) & (newton < hi[active])
        newton = np.where(inside, newton, 0.5 * (lo[active] + hi[active]))
        m[active] = newton
        fm[active] = f_at(newton, active)
        iters[active] += 1
        active = bracketed & (np.abs(fm) > 1e-12)
        # ulp-limited plateau: stop when the bracket cannot shrink further
        stuck = active & ((hi - lo) <= np.spacing(lo) * 4.0)
        if stuck.any():
            active = active & ~stuck
    return m, iters, fm, bracket0, bracketed & ~active


def estimate_mu_ml(sample: Sample, g: Generator):
    """Classical ML estimator of mu with solver diagnostics.

    Returns (mu_hat, SolverDiagnostics). The root of ln(mu) - psi(mu) = H is
    unique because the left side decreases strictly from +inf to 0.
    """
    _require_spread(sample, "ML mu")
    h = ml_equation_rhs(sample, g)
    if h == 0.0:
        raise DegenerateSampleError(
            "all generator values equal; the ML shape estimate diverges"
        )
    m, iters, resid, (lo, hi), converged = _solve_mu_ml_array(np.array([h]))
    if not converged[0]:
        raise ConvergenceError("ML shape solve did not converge")
    diag = SolverDiagnostics(
        iterations=int(iters[0]),
        residual=float(resid[0]),
        bracket=(float(lo[0]), float(hi[0])),
    )
    return float(m[0]), diag


def _power_residual(sample: Sample, g: Generator, p: float):
    """Residual of the profiled mu-score equation at power p, or None if the
    profile estimates are infeasible there."""
    try:
        mu_p = profile_mu(sample, g, p)
        sigma_p = profile_sigma(sample, g, p)
    except (InvalidSampleError, OverflowInValue):
        return None, None, None
    rhs = -np.log(sigma_p) - float(_means(sample, g, p)[1])
    resid = float(np.log(mu_p) - digamma(mu_p) - rhs)
    if not np.isfinite(resid):
        return None, None, None
    return resid, mu_p, sigma_p


def fit_full_ml(
    sample: Sample, g: Generator, p_bracket: tuple = (0.05, 20.0)
) -> FullMlFit:
    """Full three-parameter ML fit by one-dimensional root search over p.

    The sigma and mu scores are solved in closed form at each candidate p,
    so only the remaining scalar equation in p needs bracketing. Candidate
    powers where the profile shape estimate is infeasible are skipped and
    counted; no sign change among feasible grid points raises.
    """
    p_lo, p_hi = float(p_bracket[0]), float(p_bracket[1])
    if not (0.0 < p_lo < p_hi and np.isfinite(p_hi)):
        raise DomainError("power bracket must satisfy 0 < lo < hi")
    grid = np.geomspace(p_lo, p_hi, 41)
    residuals = []
    infeasible = 0
    for p in grid:
        resid, mu_p, sigma_p = _power_residual(sample, g, float(p))
        if resid is None:
            infeasible += 1
        residuals.append((float(p), resid, mu_p, sigma_p))

    found = None
    for (pa, fa, mua, siga), (pb, fb, mub, sigb) in zip(residuals, residuals[1:]):
        if fa is None or fb is None:
            continue
        if fa == 0.0:
            return FullMlFit(mua, siga, pa, 0, 0.0, (p_lo, p_hi), infeasible)
        if fa * fb < 0.0:
            found = (pa, fa, pb, fb)
            break
    if found is None:
        last = residuals[-1]
        if last[1] == 0.0:
            return FullMlFit(last[2], last[3], last[0], 0, 0.0, (p_lo, p_hi), infeasible)
        raise NoRootInBracketError(
            f"no sign change of the power equation inside [{p_lo:g}, {p_hi:g}] "
            f"({infeasible} of {grid.size} grid points infeasible)"
        )

    pa, fa, pb, fb = found
    best = None
    for k in range(200):
        # secant proposal accelerated inside a maintained bisection bracket
        mid = pa - fa * (pb - pa) / (fb - fa)
        width = pb - pa
        if not (pa + 0.1 * width < mid < pb - 0.1 * width):
            mid = 0.5 * (pa + pb)
        resid, mu_m, sigma_m = _power_residual(sample, g, mid)
        if resid is None:
            # infeasible interior point: fall back to plain bisection steps
            mid = 0.5 * (pa + pb)
            resid, mu_m, sigma_m = _power_residual(sample, g, mid)
            if resid is None:
                raise ConvergenceError(
                    "power equation became infeasible inside the bracket"
                )
        best = (mu_m, sigma_m, mid, k + 1, resid)
        if abs(resid) <= 1e-10 or (pb - pa) <= 1e-13 * max(1.0, pa):
            break
        if np.sign(resid) == np.sign(fa):
            pa, fa = mid, resid
        else:
            pb, fb = mid, resid
    mu_m, sigma_m, p_m, iters, resid = best
    return FullMlFit(mu_m, sigma_m, p_m, iters, resid, (p_lo, p_hi), infeasible)


def fit_new_log_generalized_gamma(sample: Sample):
    """Closed-form (alpha, beta) estimates for T(x) = e^x - 1 at delta = 1.

    beta_hat = [mean(e^Y Y lnY) - mean(e^Y - 1) mean(e^Y Y lnY / (e^Y - 1))]
               / [1 + mean(lnY) - mean(Y lnY / (e^Y - 1))]
    alpha_hat = mean(e^Y - 1) / beta_hat.
    Algebraically this is the generic closed form pushed through the native
    parameter map (alpha = mu, beta = 1/(mu sigma)).
    """
    _require_spread(sample, "closed-form fit")
    y = sample.values
    with np.errstate(over="ignore"):
        t1 = np.expm1(y)
    if np.any(~np.isfinite(t1)):
        raise OverflowInValue("e^Y overflowed float64 range")
    ey = t1 + 1.0
    yl = y * np.log(y)
    denom = 1.0 + float(np.mean(np.log(y))) - float(np.mean(yl / t1))
    numer = float(np.mean(ey * yl)) - float(np.mean(t1)) * float(np.mean(ey * yl / t1))
    if not (np.isfinite(numer) and np.isfinite(denom)):
        raise OverflowInValue("closed-form fit produced a non-finite intermediate")
    if denom <= 0.0:
        raise InvalidSampleError("closed-form numerator of mu is not positive")
    beta = numer / denom
    if not np.isfinite(beta) or beta <= 0.0:
        raise InvalidSampleError("closed-form beta is not positive for this sample")
    alpha = float(np.mean(t1)) / beta
    return float(alpha), float(beta)


def estimating_equation_bias(
    mu: float,
    sigma: float,
    g: Generator,
    reps: int,
    n: int,
    rng: RngStream,
):
    """Monte Carlo bias of the ML estimating equation at the true parameters.

    Draws ``reps`` samples of size n, computes ln(1/sigma) - mean(ln T(Y))
    for each, and returns (mean - [ln mu - psi(mu)], standard error). The
    equation is unbiased, so the first component should sit within a few
    standard errors of zero.
    """
    mu, sigma = float(mu), float(sigma)
    reps, n = int(reps), int(n)
    if reps < 2 or n < 1:
        raise DomainError("need reps >= 2 and n >= 1")
    z = sample_gamma(mu, 1.0 / (mu * sigma), rng, size=reps * n).reshape(reps, n)
    y = inverse_of(g, z)
    _, log_t1 = _t1_and_log(g, y)
    rhs = -np.log(sigma) - np.mean(log_t1, axis=1)
    bias = float(np.mean(rhs)) - (np.log(mu) - digamma(mu))
    se = float(np.std(rhs)) / np.sqrt(reps)
    return float(bias), se


def score_vector(
    sample: Sample, g: Generator, mu: float, sigma: float, power: float = 1.0
) -> ScoreVector:
    """Log-likelihood partials in (mu, sigma, power) at the given point."""
    mu, sigma, p = float(mu), float(sigma), float(power)
    if min(mu, sigma, p) <= 0.0:
        raise DomainError("score requires mu, sigma, power > 0")
    n = sample.n
    mean_t1, mean_log_t1, mean_log_y, mean_w, mean_a, mean_r = (
        float(v) for v in _means(sample, g, p)
    )
    d_mu = n * (
        np.log(mu) + np.log(sigma) + 1.0 - digamma(mu) - sigma * mean_t1 + mean_log_t1
    )
    d_sigma = n * (mu / sigma - mu * mean_t1)
    # T''/T' x ln y = w + r, so the power score needs no further pointwise row
    d_power = n * (
        1.0 / p + mean_log_y + mean_w - mu * sigma * mean_a + mu * mean_r
    )
    return ScoreVector(float(d_mu), float(d_sigma), float(d_power))


def log_likelihood(
    sample: Sample, g: Generator, mu: float, sigma: float, power: float = 1.0
) -> float:
    """Joint log likelihood of the sample at (mu, sigma, power)."""
    return float(np.sum(log_pdf(sample.values, FamilyParams(mu, sigma, power), g)))


def fit_family(sample: Sample, g: Generator) -> EstimateReport:
    """One-shot fit: exact sigma, closed-form mu, ML mu, native mapping."""
    sigma_hat = estimate_sigma(sample, g)
    mu_closed = estimate_mu_closed(sample, g)
    mu_ml, diag = estimate_mu_ml(sample, g)
    native = {}
    if g.native is not None:
        native = {
            k: float(v) for k, v in g.native.from_family(mu_closed, sigma_hat).items()
        }
    return EstimateReport(
        sigma_hat=sigma_hat,
        mu_hat_closed=mu_closed,
        mu_hat_ml=mu_ml,
        solver=diag,
        native=native,
    )
