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

from .distribution import FamilyParams, Sample, _t1_and_log, log_pdf
from .errors import (
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    InvalidSampleError,
    NoRootInBracketError,
    OverflowInValue,
    positive_array,
)
from .generators import Generator, inverse_of
from .special import RngStream, _digamma, _divide, digamma, sample_gamma

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


# Values per (k, n) array of one grid pass in fit_full_ml. A pass holds
# about ten such arrays at once. At 5 000 float64 values (40 000 bytes)
# each is below 64 KiB, the smallest block whose free() makes glibc check
# whether to trim the top of the heap, so a pass never hands its memory
# back to be page-faulted in again by the next one. Larger blocks, such as
# one (6, 15, 1000) array per pass, page-fault by amounts that depend on
# the heap's history (about 1 000 minor faults per fit at n = 1000 in a
# fresh process), so their cost varies from run to run.
_GRID_BLOCK_VALUES = 5_000


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


def _pointwise_terms(g: Generator, y: np.ndarray, p=1.0) -> tuple:
    """The six rows of _pointwise as separate arrays: T(x), ln T(x), w, a
    and r shaped like x, ln y shaped like y.

    p is a scalar, or a column of k powers (shape (k, 1)) for a flat y,
    which gives every row but ln y at every power, (k, n), with the bits of
    each power on its own: y is raised to each as a Python float, since
    numpy takes fast paths (sqrt, y * y) for a scalar power only.

    Never raises. Where x leaves (0, inf) every row is NaN, so no kernel sees
    0 or inf; elsewhere a row may still overflow to inf or NaN. An estimator
    fails where a mean of a row it reads is not finite, and only there. The
    bare kernels that g.raw wraps run inside this one errstate.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if np.ndim(p):
            x = np.array([y ** q for q in np.ravel(p).tolist()])
        else:
            x = y ** p
        x[~((x > 0.0) & (x < np.inf))] = np.nan
        t1 = g.raw.value.kernel(x)
        log_t1 = np.log(t1) if g.raw.log_value is None else g.raw.log_value.kernel(x)
        d1 = g.raw.d1.kernel(x)
        d2 = g.raw.d2.kernel(x)
        log_y = np.log(y)
        xl = x * log_y
        return t1, log_t1, log_y, (d2 / d1 - d1 / t1) * xl, d1 * xl, (d1 / t1) * xl


def _pointwise(g: Generator, y: np.ndarray, p: float = 1.0) -> np.ndarray:
    """Rows T(x), ln T(x), ln y, w, a, r at x = y^p, shape (6,) + y.shape.

    w, a, r are the summands of the profile shape estimator:
    w = (T''/T' - T'/T)(x) x ln y, a = T'(x) x ln y, r = (T'/T)(x) x ln y.
    """
    return np.stack(_pointwise_terms(g, y, p))


def _mean_last(x: np.ndarray):
    """Mean over the last axis with a summation order that depends neither
    on the leading shape nor on memory layout, so the scalar estimators and
    the vectorized experiment engine produce bit-identical results on the
    same data."""
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if x.size == x.shape[-1]:  # alone, a row longer than 8192 sums in another order
        return np.einsum("...n->...", np.broadcast_to(x, (2,) + x.shape))[0] / x.shape[-1]
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
    return positive_array(float(p), "power p").item()


def _positive_total(mean_t1) -> float:
    total = float(mean_t1)
    if not np.isfinite(total) or total <= 0.0:
        raise OverflowInValue("sum of generator values is not finite and positive")
    return total


def profile_sigma(sample: Sample, g: Generator, p: float) -> float:
    """Profile estimator of sigma at power p: n / sum T(Y_i^p)."""
    return 1.0 / _positive_total(_means(sample, g, _check_power(p))[0])


def _mu_closed_from_means(mean_log_y, mean_w, mean_t1, mean_a, mean_r, p=1.0):
    """Numerator and denominator of the profile shape estimate at power p
    from the pointwise means (array-safe)."""
    numer = 1.0 / p + mean_log_y + mean_w
    denom = mean_a / mean_t1 - mean_r
    return numer, denom


def _profiles_from_means(means, p: float):
    """(profile_mu, profile_sigma) as Python floats from the six row means of
    _pointwise at the power p; raises by cause, as profile_mu does."""
    mean_t1, _, mean_log_y, mean_w, mean_a, mean_r = means
    # checked first: a mean T that underflows to 0 would divide by zero
    total = _positive_total(mean_t1)
    numer, denom = _mu_closed_from_means(
        float(mean_log_y), float(mean_w), total, float(mean_a), float(mean_r), p
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
    return float(mu), 1.0 / total


def profile_mu(sample: Sample, g: Generator, p: float) -> float:
    """Profile estimator of mu at power p (the closed form at p = 1).

    Ratio of the p-score pieces: numerator 1/p + mean(ln Y) + mean(w),
    denominator sigma_hat * mean(a) - mean(r). A non-positive denominator
    means the estimating equation has no positive solution for this sample.
    """
    p = _check_power(p)
    _require_spread(sample, "closed-form mu")
    return _profiles_from_means(_means(sample, g, p), p)[0]


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
    if not np.isfinite(h):
        raise OverflowInValue("ML equation right side is not finite")
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
    whenever a step leaves the bracket, until |residual| <= 1e-12 or 400
    steps; from step 201 the bisection is geometric, since above H ~ 1e116
    the root, about 1/H, is too far below mu0 for 200 halvings. mu0 is
    sqrt(1/12/H) where 12 H overflows. digamma is the unvalidated kernel,
    since every argument here is finite and positive.

    A digamma pass costs about as much on one entry as on thousands, so the
    solve makes one ln(x) - psi(x) pass to start, over the bracket ends lo
    and hi, mu0 and mu0 +- mu0 * 1e-7, and then one pass per Newton step,
    over each new iterate and its two sides, whose central difference the
    next step reads: 1 + k passes for k steps where the bracket needs no
    growth. The steps run only on the entries still moving, gathered by
    index. The first iterate is mu0 itself: the bracket starts at
    [mu0 / 10, 10 mu0] and only widens, so mu0 lies strictly inside it.
    All of it is elementwise, so an entry's root, iteration count, residual
    and bracket do not depend on the other entries, nor on how the values
    are grouped into passes. An analytic trigamma derivative would take
    fewer digamma evaluations but move the Newton iterates, and with them
    the last bits of the root.

    h is taken as a flat array. Returns (root, iterations, residual,
    (lo, hi), converged): an entry that could not be bracketed, ran out of
    iterations or stopped on a residual that is not finite is False in the
    mask. Its one caller is the ML kind of _from_means, with many entries
    per call; one sample's H goes to _solve_mu_ml_one, which takes the same
    steps in Python floats.
    """
    h = np.asarray(h, dtype=np.float64).ravel()
    if h.size == 0:
        empty = h.copy()
        return empty, np.zeros(0, dtype=np.int64), empty, (empty, empty), np.zeros(0, bool)
    if np.any(~np.isfinite(h)) or np.any(h <= 0.0):
        raise DomainError("ML equation solve requires h > 0")

    def lhs(x):
        return np.log(x) - _digamma(x)

    m = (3.0 + np.sqrt(9.0 + 12.0 * h)) / (12.0 * h)
    m = np.where(12.0 * h < np.inf, m, np.sqrt(1.0 / 12.0 / h))
    lo = m / 10.0
    hi = m * 10.0
    step = m * 1e-7
    flo, fhi, fm, f_up, f_down = lhs(np.stack([lo, hi, m, m + step, m - step])) - h
    fp = (f_up - f_down) / (2.0 * step)
    for _ in range(300):
        bad = flo < 0.0
        if not bad.any():
            break
        lo[bad] /= 4.0
        flo[bad] = lhs(lo[bad]) - h[bad]
    for _ in range(300):
        bad = fhi > 0.0
        if not bad.any():
            break
        hi[bad] *= 4.0
        fhi[bad] = lhs(hi[bad]) - h[bad]
    # a NaN end (mu0 overflowed) is not a bracket
    bracketed = (flo >= 0.0) & (fhi <= 0.0)

    bracket0 = (lo.copy(), hi.copy())
    iters = np.zeros(h.shape, dtype=np.int64)
    # Newton steps on the entries still moving, gathered once by index
    idx = np.flatnonzero(bracketed & (np.abs(fm) > 1e-12))
    am, af, afp, alo, ahi, ah = (a[idx] for a in (m, fm, fp, lo, hi, h))
    for k in range(400):
        if not idx.size:
            break
        alo = np.where(af > 0.0, am, alo)
        ahi = np.where(af < 0.0, am, ahi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = am - af / afp
        inside = np.isfinite(newton) & (newton > alo) & (newton < ahi)
        am = np.where(inside, newton, 0.5 * (alo + ahi) if k < 200 else np.sqrt(alo) * np.sqrt(ahi))
        step = am * 1e-7
        af, f_up, f_down = lhs(np.stack([am, am + step, am - step])) - ah
        afp = (f_up - f_down) / (2.0 * step)
        m[idx] = am
        fm[idx] = af
        iters[idx] += 1
        # ulp-limited plateau: stop when the bracket cannot shrink further
        go = (np.abs(af) > 1e-12) & ~((ahi - alo) <= np.spacing(alo) * 4.0)
        if not go.all():
            idx, am, af, afp, alo, ahi, ah = (a[go] for a in (idx, am, af, afp, alo, ahi, ah))
    converged = bracketed & np.isfinite(fm)  # 1/mu overflows at a subnormal root
    converged[idx] = False
    return m, iters, fm, bracket0, converged


def _solve_mu_ml_one(h: float):
    """_solve_mu_ml_array's steps for one h, in Python floats.

    + - * / and comparisons run on Python floats, which round as numpy's
    elementwise loops do, and ln and digamma through numpy's ufunc on a
    scalar (special._digamma of a float), so every step has the bits of the
    array form's step on this entry. Where a divisor is 0, _divide gives
    numpy's inf or nan, where Python would raise. Returns (root, iterations,
    residual, (lo, hi), converged) as Python scalars.
    """
    if not 0.0 < h < np.inf:
        raise DomainError("ML equation solve requires h > 0")

    def f(x):
        return float(np.log(x)) - _digamma(x) - h

    m = (3.0 + float(np.sqrt(9.0 + 12.0 * h))) / (12.0 * h)
    m = m if 12.0 * h < np.inf else float(np.sqrt(1.0 / 12.0 / h))
    lo = m / 10.0
    hi = m * 10.0
    step = m * 1e-7
    flo, fhi, fm, f_up, f_down = (f(x) for x in (lo, hi, m, m + step, m - step))
    fp = _divide(f_up - f_down, 2.0 * step)
    for _ in range(300):
        if not flo < 0.0:
            break
        lo /= 4.0
        flo = f(lo)
    for _ in range(300):
        if not fhi > 0.0:
            break
        hi *= 4.0
        fhi = f(hi)
    # a NaN end (mu0 overflowed) is not a bracket
    bracketed = flo >= 0.0 and fhi <= 0.0

    iters = 0
    alo, ahi = lo, hi
    going = bracketed and abs(fm) > 1e-12
    for k in range(400):
        if not going:
            break
        if fm > 0.0:
            alo = m
        elif fm < 0.0:
            ahi = m
        newton = m - _divide(fm, fp)
        inside = alo < newton < ahi  # the ends are finite: false for a nan or inf step
        mid = 0.5 * (alo + ahi) if k < 200 else float(np.sqrt(alo)) * float(np.sqrt(ahi))
        m = newton if inside else mid
        step = m * 1e-7
        fm, f_up, f_down = f(m), f(m + step), f(m - step)
        fp = _divide(f_up - f_down, 2.0 * step)
        iters += 1
        # ulp-limited plateau: stop when the bracket cannot shrink further
        going = abs(fm) > 1e-12 and not (ahi - alo <= float(np.spacing(alo)) * 4.0)
    return m, iters, fm, (lo, hi), bracketed and not going and abs(fm) < np.inf


def estimate_mu_ml(sample: Sample, g: Generator):
    """Classical ML estimator of mu with solver diagnostics.

    Returns (mu_hat, SolverDiagnostics). The root of ln(mu) - psi(mu) = H is
    unique because the left side decreases strictly from +inf to 0. The one
    H is solved in Python floats (_solve_mu_ml_one), with the bits of its
    entry in the study engine's array solve.
    """
    _require_spread(sample, "ML mu")
    h = ml_equation_rhs(sample, g)
    if h == 0.0:
        raise DegenerateSampleError(
            "all generator values equal; the ML shape estimate diverges"
        )
    m, iters, resid, bracket, converged = _solve_mu_ml_one(h)
    if not converged:
        raise ConvergenceError("ML shape solve did not converge")
    return m, SolverDiagnostics(iterations=iters, residual=resid, bracket=bracket)


# the rows of _pointwise that _from_means reads: closed T, ln y, w, a, r; ML T, ln T
_KIND_ROWS = {"closed": (0, 2, 3, 4, 5), "ml": (0, 1)}


def _from_means(M, kind: str, ok, p=1.0):
    """(mu, sigma, ok) from the means M[r] of the rows r of _pointwise (M
    need hold only _KIND_ROWS[kind]), NaN where ok is False, elementwise:
    the profiles at the powers p (scalar or shaped like M[r]) for kind
    "closed", estimate_sigma and estimate_mu_ml for "ml". An entry fails
    where ok is False on entry, where those would raise, or where mu is not
    finite."""
    mean_t1 = M[0]
    with np.errstate(all="ignore"):
        ok = ok & np.isfinite(mean_t1) & (mean_t1 > 0.0)
        if kind == "closed":
            numer, denom = _mu_closed_from_means(M[2], M[3], mean_t1, M[4], M[5], p)
            mu = numer / denom
            # a numer or denom that is not finite makes mu not finite, or 0
            ok = ok & (denom > 0.0) & np.isfinite(mu) & (mu > 0.0)
        else:
            h = np.log(mean_t1) - M[1]
            ok = ok & np.isfinite(h) & (h > 0.0)
            mu = np.full(h.shape, np.nan)
            root, _, _, _, converged = _solve_mu_ml_array(h[ok])
            mu[ok] = np.where(converged, root, np.nan)
            ok = ok & np.isfinite(mu)
        return np.where(ok, mu, np.nan), np.where(ok, 1.0 / mean_t1, np.nan), ok


def _native_theta(g: Generator, names, mu, sigma, error=None):
    """The parameters names of g at (mu, sigma) as a (k,) + shape array, all
    NaN for an entry where one is not finite and > 0, or error raised there
    if given. Scalars go in as one-element arrays, so a map's ** runs
    numpy's array loop, whose last bits can differ from the C pow of a
    Python or numpy float: one sample's estimate then has the bits of its
    entry in a bootstrap's (B,) arrays. Arrays give inf or 0 where Python
    would raise."""
    one = not isinstance(mu, np.ndarray)
    if one:
        mu, sigma = np.array([mu]), np.array([sigma])
    with np.errstate(all="ignore"):
        if names == ("mu", "sigma") or g.native is None:
            values = (mu, sigma)
        else:
            native = g.native.from_family(mu, sigma)
            values = [native[k] for k in names]
    if one:  # a Python float test skips numpy's per-call cost
        theta = np.concatenate(values)
        good = all(0.0 < v < np.inf for v in theta.tolist())
    else:
        theta = np.array(values, dtype=np.float64)
        good = ((theta > 0.0) & (theta < np.inf)).all(axis=0)
    if error is None:
        return np.where(good, theta, np.nan)
    if not (good if one else good.all()):
        raise error("parameter estimate is not finite and > 0")
    return theta


def _profile_residual(sample: Sample, g: Generator, p: float):
    """The residual ln mu - psi(mu) + ln sigma + mean ln T at the power p,
    with mu = profile_mu and sigma = profile_sigma there, as Python floats;
    all NaN where a profile raises or the residual is not finite: one
    uncached pointwise pass and the profiles' float rule, with no check of p
    or of spread, which the caller checks once."""
    means = _mean_last(_pointwise(g, sample.values, p))
    try:
        mu, sigma = _profiles_from_means(means, p)
    except (InvalidSampleError, OverflowInValue):
        return (np.nan,) * 3
    rhs = -float(np.log(sigma)) - float(means[1])
    resid = float(np.log(mu)) - _digamma(mu) - rhs  # nan for an infinite mu
    return (resid, mu, sigma) if np.isfinite(resid) else (np.nan,) * 3


def _power_residuals(y: np.ndarray, g: Generator, p: np.ndarray):
    """_profile_residual at each power of the grid p on the flat sample y,
    as three arrays shaped like p, with the same bits. The powers go through
    _pointwise_terms in blocks of _GRID_BLOCK_VALUES // n, whose (k, n) terms
    sum in the order of _pointwise's (6, n) rows; one _from_means call and
    one digamma pass then cover the whole grid. A power where a profile
    would raise, overflowing ones included, is NaN in all three, and the
    others keep their values; the caller checks spread.
    """
    size = max(1, _GRID_BLOCK_VALUES // y.size)
    blocks = []
    for i in range(0, p.size, size):
        terms = _pointwise_terms(g, y, p[i : i + size, None])
        blocks.append([_mean_last(np.broadcast_to(t, terms[0].shape)) for t in terms])
    means = [np.concatenate(rows) for rows in zip(*blocks)]
    mu, sigma, ok = _from_means(means, "closed", True, p)
    resid = np.full(p.shape, np.nan)
    with np.errstate(all="ignore"):
        rhs = -np.log(sigma[ok]) - means[1][ok]
        resid[ok] = np.log(mu[ok]) - _digamma(mu[ok]) - rhs
    resid[~np.isfinite(resid)] = np.nan
    return resid, mu, sigma


def fit_full_ml(
    sample: Sample, g: Generator, p_bracket: tuple = (0.05, 20.0)
) -> FullMlFit:
    """Full three-parameter ML fit by one-dimensional root search over p.

    The sigma and mu scores are solved in closed form at each candidate p,
    so only the remaining scalar equation in p needs bracketing. Candidate
    powers where the profile shape estimate is infeasible are skipped and
    counted; no sign change among feasible grid points raises.

    The grid is one _power_residuals call, in which a power that overflows
    is NaN on its own; each secant step is one _profile_residual pass, and
    spread is checked once. Either route gives a power the bits of
    profile_mu and profile_sigma, and neither caches on the sample.
    """
    p_lo, p_hi = float(p_bracket[0]), float(p_bracket[1])
    if not (0.0 < p_lo < p_hi and np.isfinite(p_hi)):
        raise DomainError("power bracket must satisfy 0 < lo < hi")
    _require_spread(sample, "closed-form mu")
    grid = np.geomspace(p_lo, p_hi, 41)
    resid, mu, sigma = _power_residuals(sample.values, g, grid)
    infeasible = int(np.isnan(resid).sum())
    residuals = list(zip(grid.tolist(), resid.tolist(), mu.tolist(), sigma.tolist()))

    found = None
    for (pa, fa, mua, siga), (pb, fb, mub, sigb) in zip(residuals, residuals[1:]):
        if np.isnan(fa) or np.isnan(fb):
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
        resid, mu_m, sigma_m = _profile_residual(sample, g, mid)
        if np.isnan(resid):
            # infeasible interior point: fall back to plain bisection steps
            mid = 0.5 * (pa + pb)
            resid, mu_m, sigma_m = _profile_residual(sample, g, mid)
            if np.isnan(resid):
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
    if not np.isfinite(rhs).all():
        raise OverflowInValue("log of the generator value left float64 range")
    bias = float(np.mean(rhs)) - (np.log(mu) - digamma(mu))
    se = float(np.std(rhs)) / np.sqrt(reps)
    return float(bias), se


def score_vector(
    sample: Sample, g: Generator, mu: float, sigma: float, power: float = 1.0
) -> ScoreVector:
    """Log-likelihood partials in (mu, sigma, power) at the given point.

    Raises OverflowInValue where a pointwise mean it reads, or a partial,
    is not finite. The partials are summed in Python floats, which overflow
    to inf without a warning.
    """
    mu, sigma, p = float(mu), float(sigma), float(power)
    FamilyParams(mu, sigma, p)  # the point's one check
    n = sample.n
    means = [float(v) for v in _means(sample, g, p)]
    if not np.isfinite(means).all():
        raise OverflowInValue("a pointwise mean of the score is not finite")
    mean_t1, mean_log_t1, mean_log_y, mean_w, mean_a, mean_r = means
    d_mu = n * (
        float(np.log(mu)) + float(np.log(sigma)) + 1.0 - digamma(mu)
        - sigma * mean_t1 + mean_log_t1
    )
    d_sigma = n * (mu / sigma - mu * mean_t1)
    # T''/T' x ln y = w + r, so the power score needs no further pointwise row
    d_power = n * (
        1.0 / p + mean_log_y + mean_w - mu * sigma * mean_a + mu * mean_r
    )
    if not np.isfinite((d_mu, d_sigma, d_power)).all():
        raise OverflowInValue("a score partial is not finite")
    return ScoreVector(d_mu, d_sigma, d_power)


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
        theta = _native_theta(g, g.native.names, mu_closed, sigma_hat, OverflowInValue)
        native = dict(zip(g.native.names, theta.tolist()))
    return EstimateReport(
        sigma_hat=sigma_hat,
        mu_hat_closed=mu_closed,
        mu_hat_ml=mu_ml,
        solver=diag,
        native=native,
    )
