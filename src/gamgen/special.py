"""Gamma-family special functions and gamma-variate sampling.

Self-contained float64 implementations: log-gamma and digamma via argument
lifting plus Bernoulli asymptotic series; the regularized incomplete gamma
pair P and Q via one kernel that takes P from a power series below x = a+1
and Q from a continued fraction above, so each is exact in its own tail; the
inverses of both by one array solver (a Wilson-Hilferty or small-x series
start, then Halley steps on the smaller tail probability, stopping on a
relative step in x); and gamma variate generation via the Marsaglia-Tsang
squeeze method. Randomness comes from ``RngStream``, a counter-based stream
fully determined by (seed, stream_id).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError, OverflowInValue, positive_array

__all__ = [
    "RngStream",
    "log_gamma",
    "digamma",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "inv_reg_lower_gamma",
    "inv_reg_upper_gamma",
    "sample_gamma",
]

_HALF_LOG_2PI = 0.9189385332046727  # 0.5*ln(2*pi)

# Bernoulli-number coefficients B_{2k}/(2k(2k-1)) for the Stirling series.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_{2k}/(2k) for the digamma asymptotic series.
_DIGAMMA = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Backed by the Philox counter-based bit generator, so the same pair of
    64-bit integers reproduces the identical variate sequence regardless of
    process, thread count, or platform scheduling.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not (0 <= int(seed) < 2**64 and 0 <= int(stream_id) < 2**64):
            raise DomainError("seed and stream_id must be unsigned 64-bit integers")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def random(self, size=None):
        """Uniform variates on [0, 1)."""
        return self._gen.random(size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def log_gamma(x):
    """Natural log of the gamma function for x > 0.

    Arguments below 12 are lifted with lnGamma(x) = lnGamma(x+1) - ln(x);
    the Stirling series with seven Bernoulli terms evaluates the lifted value
    (truncation error < 1e-17 at the x=12 cutoff). The lift runs in place, as
    _digamma's does: an entry that needs no more lifting adds 0.0 to its
    shift and to its argument, which is exact (its ln w is finite), so each
    entry has the bits of the masked update.
    """
    arr = positive_array(x, "log_gamma argument")
    w = arr.copy()
    shift = np.zeros_like(w)
    for _ in range(12):
        mask = w < 12.0
        if not mask.any():
            break
        shift += mask * np.log(w)
        w += mask
    with np.errstate(over="ignore"):  # w * w overflows to inf above ~1e154: t = 0
        t = 1.0 / (w * w)
    series = _STIRLING[-1]
    for coef in _STIRLING[-2::-1]:
        series = coef + t * series
    out = (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI + series / w - shift
    return float(out) if arr.ndim == 0 else out


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0.

    Arguments below 6 are lifted with psi(x) = psi(x+1) - 1/x, then the
    Bernoulli asymptotic series is applied (truncation error < 2e-13 at the
    cutoff, far below the lift's own rounding floor near x ~ 1e-6).
    """
    arr = positive_array(x, "digamma argument")
    with np.errstate(over="ignore"):  # w * w overflows to inf above ~1e154: t = 0
        out = _digamma(arr)
    return float(out) if arr.ndim == 0 else out


def _digamma(arr: np.ndarray) -> np.ndarray:
    """digamma on a float64 array already known to be finite and > 0.

    The lift runs in place on a copy of the input: an entry that needs no
    more lifting adds 0.0 to its shift and to its argument, which is exact
    (its 1/w is finite, since w >= 6), so each entry has the bits of the
    masked update.
    """
    w = arr.copy()
    shift = np.zeros_like(w)
    for _ in range(6):
        mask = w < 6.0
        if not mask.any():
            break
        shift += mask * (1.0 / w)
        w += mask
    t = 1.0 / (w * w)
    series = _DIGAMMA[-1]
    for coef in _DIGAMMA[-2::-1]:
        series = coef + t * series
    return np.log(w) - 0.5 / w - t * series - shift


_SERIES_MAX = 10000  # terms of either incomplete-gamma expansion


def _lower_series(a, x, log_prefactor):
    """P(a,x) for 0 < x < a+1 by the regularized power series.

    Every entry takes every term, in place, and the stop test runs once every
    8 terms, after terms 7, 15, ..., 9999: all entries are done once each
    |term| < 1e-17 |total|. That leaves each total with the bits it has when
    its own test first passes: x < a+1 <= ap, so later terms only shrink, and
    a term below 1e-17 |total| is below half an ulp of it, so adding it
    rounds back to the same total. An entry that needs 10 000 terms or more
    raises ConvergenceError.
    """
    total = np.full_like(x, 1.0) / a
    term = total.copy()
    ap = a.astype(np.float64)
    for n in range(_SERIES_MAX):
        if n % 8 == 7 and not (np.abs(term) >= np.abs(total) * 1e-17).any():
            break
        ap += 1.0
        term *= x
        term /= ap
        total += term
    else:
        raise ConvergenceError("incomplete gamma series did not converge")
    return total * np.exp(log_prefactor)


def _upper_cf(a, x, log_prefactor):
    """Q(a,x) for x >= a+1 by the modified Lentz continued fraction.

    Only the unfinished entries are carried, gathered by index: an entry
    stops after the step whose factor delta is within 1e-16 of 1 (or is
    nan), and its h is written back then. Each entry's arithmetic is that of
    the whole-array recurrence, so every h keeps its bits. An entry that
    needs 9 999 steps or more raises ConvergenceError.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
    h = d
    out = np.empty_like(h)
    idx = np.arange(x.size)
    for i in range(1, _SERIES_MAX):
        if idx.size == 0:
            break
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        going = np.abs(delta - 1.0) >= 1e-16
        if not going.all():
            out[idx[~going]] = h[~going]
            idx, a, b, c, d, h = (v[going] for v in (idx, a, b, c, d, h))
    else:
        raise ConvergenceError("incomplete gamma continued fraction did not converge")
    return np.exp(log_prefactor) * out


# zeta(2), ..., zeta(20): ln Gamma(1 + a) = -gamma a + sum_k (-a)^k zeta(k) / k.
_ZETA = (
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
    1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
    1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
    1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
    1.000003817293265, 1.0000019082127165, 1.0000009539620338,
)
_LGAMMA1P = (-0.5772156649015329,) + tuple(
    (-1.0) ** k * z / k for k, z in enumerate(_ZETA, start=2)
)
_SMALL_A = 0.1  # below this shape, Q is taken directly where it is the smaller tail


def _upper_small_a(a, x):
    """Q(a, x) for a < 0.1 and x < a+1 (DiDonato & Morris, 1986).

    Q = -expm1(u) - a (1 + expm1(u)) sum_{k>=1} (-x)^k / (k! (a + k)) with
    u = a ln x - ln Gamma(1 + a), and ln Gamma(1 + a) from its Taylor series,
    so Q keeps its relative accuracy instead of being formed as 1 - P.
    """
    c = _LGAMMA1P[-1]
    for coef in _LGAMMA1P[-2::-1]:
        c = coef + a * c
    e = np.expm1(a * (np.log(x) - c))  # c = ln Gamma(1 + a) / a
    term = np.ones_like(x)
    total = np.zeros_like(x)
    for k in range(1, 23):  # x < 1.1, so x^22 / 22! is below 1e-20
        term = term * -x / k
        total = total + term / (a + k)
    return -e - a * (1.0 + e) * total


def _gamma_pq(a, x, lg_a):
    """(P(a, x), Q(a, x)) for a > 0 and x >= 0, given lg_a = ln Gamma(a).

    The power series gives P on x < a+1 and the continued fraction gives Q
    elsewhere, each to relative machine precision; the other one is its
    complement, except that for a < 0.1, where Q is already the smaller tail
    below a+1, Q comes from its own series there. Arguments broadcast and the
    results are arrays.
    """
    a, x, lg_a = np.broadcast_arrays(a, x, lg_a)
    p = np.zeros(x.shape)
    q = np.ones(x.shape)
    pos = x > 0.0
    log_pref = a * np.log(np.where(pos, x, 1.0)) - x - lg_a
    lower = pos & (x < a + 1.0)
    if lower.any():
        p[lower] = _lower_series(a[lower], x[lower], log_pref[lower])
        q[lower] = 1.0 - p[lower]
        direct = lower & (a < _SMALL_A) & (p > 0.5)
        if direct.any():
            q[direct] = _upper_small_a(a[direct], x[direct])
    upper = pos & ~lower
    if upper.any():
        q[upper] = _upper_cf(a[upper], x[upper], log_pref[upper])
        p[upper] = 1.0 - q[upper]
    np.clip(p, 0.0, 1.0, out=p)
    np.clip(q, 0.0, 1.0, out=q)
    return p, q


def _incomplete_gamma(a, x, name: str):
    """Validated (P, Q, scalar_flag) for the public incomplete gamma pair."""
    a_arr = positive_array(a, f"{name} shape a")
    x_arr = np.asarray(x, dtype=np.float64)
    if x_arr.size and (not np.all(np.isfinite(x_arr)) or np.any(x_arr < 0.0)):
        raise DomainError(f"{name} requires x >= 0")
    p, q = _gamma_pq(a_arr, x_arr, log_gamma(a_arr))
    return p, q, a_arr.ndim == 0 and x_arr.ndim == 0


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma function P(a, x), a > 0, x >= 0.

    Power series on x < a+1, continued fraction for the complement elsewhere,
    both driven to relative machine tolerance.
    """
    p, _, scalar = _incomplete_gamma(a, x, "reg_lower_gamma")
    return float(p) if scalar else p


def reg_upper_gamma(a, x):
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x).

    On x >= a+1 Q comes straight from the continued fraction, so it keeps its
    relative accuracy deep into the upper tail where 1 - P would round to 0.
    """
    _, q, scalar = _incomplete_gamma(a, x, "reg_upper_gamma")
    return float(q) if scalar else q


_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def _norm_ppf(p):
    """Standard normal quantile for 0 < p <= 1/2, elementwise (Acklam's
    rational approximation, ~1e-9 relative)."""
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
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


_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))
_HALLEY_STOP = 1e-6  # relative step; the next error, its cube, is below rounding
_HALLEY_CLAMP = 16.0  # a step moves x by at most this factor either way
_HALLEY_MAX = 100


def _inv_gamma(a, target, upper: bool):
    """Solve P(a, x) = target, or Q(a, x) = target when ``upper``, for x.

    Each level is solved on its smaller tail probability r <= 1/2, which is
    exact: the target itself or its complement. The start is the larger of
    Wilson-Hilferty and the small-x inversion of P < x^a / Gamma(a+1) (a
    lower bound, tight in the lower tail). Halley steps then drive
    g = ln(f / r) to zero, with f = P(x) on the lower tail and f = Q(x) on
    the upper one, each exact in its own tail; the log scale keeps steps sound
    where f is many orders of magnitude off r. Every evaluation narrows a
    bracket on the root; a step moves x by at most a factor 16, and one that
    leaves the bracket (or is lost to underflow of f) bisects ln x instead.
    A level stops after a Halley step of relative size <= 1e-6.
    """
    a = float(a)
    name = "inv_reg_upper_gamma" if upper else "inv_reg_lower_gamma"
    if not (np.isfinite(a) and a > 0.0):
        raise DomainError(f"{name} requires a > 0")
    t = np.asarray(target, dtype=np.float64)
    if np.any(~(t > 0.0)) or np.any(~(t < 1.0)):
        raise DomainError(f"{name} requires 0 < level < 1")
    shape = t.shape
    t = t.reshape(-1)
    on_q = (t > 0.5) != upper  # solve on Q rather than P
    r = np.where(t > 0.5, 1.0 - t, t)
    sgn = np.where(on_q, -1.0, 1.0)  # sign of df/dx

    lg_a = log_gamma(a)
    log_u = np.where(on_q, np.log1p(-r), np.log(r))  # ln P at the root
    log_xs = (log_u + lg_a + np.log(a)) / a
    if np.any(log_xs < _LOG_TINY):
        raise OverflowInValue(f"{name}: the solution is below the float64 normal range")
    z = sgn * _norm_ppf(r)
    wh = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))
    x = np.maximum(np.exp(log_xs), a * np.maximum(wh, 0.0) ** 3)

    lo = np.zeros_like(x)
    hi = np.full_like(x, np.inf)
    active = np.arange(t.size)
    for _ in range(_HALLEY_MAX):
        if active.size == 0:
            break
        xa, ra, sa = x[active], r[active], sgn[active]
        p, q = _gamma_pq(a, xa, lg_a)
        f = np.where(sa < 0.0, q, p)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = np.log(f / ra)
            w = np.exp((a - 1.0) * np.log(xa) - xa - lg_a - np.log(f))  # |g'|
            h = sa * g / w
            curv = (a - 1.0) / xa - 1.0 - sa * w  # g'' / g'
            step = h / (1.0 - 0.5 * np.minimum(1.0, h * curv))
            x_new = np.clip(xa - step, xa / _HALLEY_CLAMP, xa * _HALLEY_CLAMP)
            above = sa * g > 0.0  # xa lies above the root
            lo_a = np.where(above, lo[active], xa)
            hi_a = np.where(above, xa, hi[active])
            inside = (x_new >= lo_a) & (x_new <= hi_a)  # false for a nan step
            # outside: bisect ln x, or move by the clamp factor while one side is open
            bisect = np.where(np.isinf(hi_a), lo_a * _HALLEY_CLAMP, np.where(
                lo_a > 0.0, np.sqrt(lo_a) * np.sqrt(hi_a), hi_a / _HALLEY_CLAMP))
            x_new = np.where(inside, x_new, bisect)
        lo[active], hi[active] = lo_a, hi_a
        x[active] = x_new
        active = active[~(inside & (np.abs(step) <= _HALLEY_STOP * x_new))]
    else:
        raise ConvergenceError(f"{name} did not converge")
    return float(x[0]) if not shape else x.reshape(shape)


def inv_reg_lower_gamma(a: float, u):
    """Solve P(a, x) = u for x, with a > 0 and 0 < u < 1, elementwise.

    Levels above 1/2 are solved on Q(a, x) = 1 - u, whose target is exact,
    so both tails keep ~1e-14 relative accuracy in x. Start: Wilson-Hilferty
    or the small-x series x = (u Gamma(a+1))^(1/a), whichever is larger;
    then Halley steps on the log of the tail-probability ratio, stopping
    on a relative step in x of 1e-6. One log-gamma per call; an array of
    levels gives the same bits as one call per level. A solution below the
    float64 normal range raises OverflowInValue.
    """
    return _inv_gamma(a, u, upper=False)


def inv_reg_upper_gamma(a: float, q):
    """Solve Q(a, x) = q for x, with a > 0 and 0 < q < 1, elementwise.

    Same solver as inv_reg_lower_gamma, reading q directly, so upper-tail
    levels such as q = 1e-300 never pass through 1 - q.
    """
    return _inv_gamma(a, q, upper=True)


def _mt_core(shape: float, rng: RngStream, n: int) -> np.ndarray:
    """Marsaglia-Tsang draws for shape >= 1 at unit scale.

    Each pass draws m normals, then m uniforms, for the m indices still
    pending. The first pass (m = n) works in place on x, v and u, forms the
    squeeze bound in ``out`` before writing its accepted draws there, and
    takes the log test only on the few entries the squeeze leaves, so a call
    holds four n-sized arrays. Short-lived large temporaries are what the C
    allocator hands back to the system and faults in afresh on the next
    call, which would tie a call's cost to the process's allocation history.
    The operations are those of the textbook expressions, so every draw
    keeps its bits.
    """
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n, dtype=np.float64)
    pending = None  # every index, on the first pass
    while pending is None or pending.size:
        m = n if pending is None else pending.size
        x = rng.standard_normal(m)
        v = c * x
        v += 1.0
        v **= 3  # (1 + c x)^3
        u = rng.random(m)
        ok = v > 0.0
        x *= x  # x^2 from here on
        bound = out if pending is None else np.empty(m)
        np.multiply(0.0331, x, out=bound)
        bound *= x
        np.subtract(1.0, bound, out=bound)  # 1 - 0.0331 x^4
        accept = ok & (u < bound)
        rest = np.flatnonzero(ok & ~accept)
        if rest.size:
            with np.errstate(divide="ignore"):
                logu = np.log(u[rest])
            vr = v[rest]
            accept[rest] = logu < 0.5 * x[rest] + d * (1.0 - vr + np.log(vr))
        if pending is None:
            np.multiply(d, v, out=out, where=accept)
            pending = np.flatnonzero(~accept)
        else:
            out[pending[accept]] = d * v[accept]
            pending = pending[~accept]
    return out


def sample_gamma(shape, scale, rng: RngStream, size=None):
    """Draw Gamma(shape, scale) variates from ``rng``.

    Marsaglia-Tsang squeeze method for shape >= 1; shapes below 1 use the
    boost G(a) = G(a+1) * U^(1/a). Returns a float when ``size`` is None,
    else an ndarray of the requested size. Every draw is strictly positive.
    """
    shape = float(shape)
    scale = float(scale)
    if not (np.isfinite(shape) and shape > 0.0):
        raise DomainError("sample_gamma requires shape > 0")
    if not (np.isfinite(scale) and scale > 0.0):
        raise DomainError("sample_gamma requires scale > 0")
    n = 1 if size is None else int(size)
    if n < 0:
        raise DomainError("size must be nonnegative")
    if shape >= 1.0:
        draws = _mt_core(shape, rng, n)
    else:
        draws = _mt_core(shape + 1.0, rng, n)
        u = rng.random(n)
        np.subtract(1.0, u, out=u)  # in (0, 1], keeps the boost strictly positive
        u **= 1.0 / shape
        draws *= u
    draws *= scale
    # Guard against underflow to exactly zero at extreme shapes.
    np.maximum(draws, 5e-324, out=draws)
    return float(draws[0]) if size is None else draws
