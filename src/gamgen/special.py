"""Gamma-family special functions and gamma-variate sampling.

Self-contained float64 implementations: log-gamma and digamma via argument
lifting plus Bernoulli asymptotic series; the regularized incomplete gamma
pair P and Q via one kernel that takes P from a power series below x = a+1
and Q from a continued fraction above, so each is exact in its own tail; the
inverses of both by one solver (a Wilson-Hilferty or small-x series start,
then Halley steps on the smaller tail probability, stopping on a relative
step in x); and gamma variate generation via the Marsaglia-Tsang squeeze
method. Randomness comes from ``RngStream``, a counter-based stream fully
determined by (seed, stream_id).

log_gamma and the inverse solver take each entry in Python floats, and so
do the incomplete gamma pair for one entry and digamma of a scalar; their
larger inputs run in arrays. The float form runs the array form's steps:
+ - * / and comparisons on Python floats, which round as numpy's elementwise
loops do, and every transcendental through its numpy ufunc on a scalar,
which runs the array loop; so a float has the bits of its entry in an array
pass, without numpy's per-call cost. An array pass of the incomplete gamma
pair with one shape a (every cdf and sf) keeps a and ln Gamma(a) as Python
floats, which the kernels take as they are; its continued fraction runs in
place and gathers the entries still running only once half of those it
carries have stopped.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError, OverflowInValue, level_array, positive_array

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
    (truncation error < 1e-17 at the x=12 cutoff). Each entry is lifted and
    summed in Python floats, with ln through numpy's ufunc on a scalar.
    Above about 2.5e305, where ln Gamma(x) exceeds the largest float, it
    raises OverflowInValue.
    """
    arr = positive_array(x, "log_gamma argument")
    if arr.ndim == 0:
        return _log_gamma_one(arr.item())
    return np.array([_log_gamma_one(v) for v in arr.ravel().tolist()]).reshape(arr.shape)


def _log_gamma_one(w: float) -> float:
    """log_gamma of one float already known to be finite and > 0."""
    shift = 0.0
    while w < 12.0:
        shift += np.log(w)
        w += 1.0
    t = 1.0 / (w * w)  # w * w overflows to inf above ~1e154: t = 0
    series = _STIRLING[-1]
    for coef in _STIRLING[-2::-1]:
        series = coef + t * series
    # the leading term bounds the others: it is inf where the sum overflows
    lead = (w - 0.5) * float(np.log(w))
    if lead == np.inf:
        raise OverflowInValue("log_gamma: ln Gamma(x) exceeds the float64 range")
    return float(lead - w + _HALF_LOG_2PI + series / w - shift)


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0.

    Arguments below 6 are lifted with psi(x) = psi(x+1) - 1/x, then the
    Bernoulli asymptotic series is applied (truncation error < 2e-13 at the
    cutoff, far below the lift's own rounding floor near x ~ 1e-6).
    """
    arr = positive_array(x, "digamma argument")
    if arr.ndim == 0:
        return _digamma(arr.item())
    with np.errstate(over="ignore"):  # w * w overflows to inf above ~1e154: t = 0
        return _digamma(arr)


def _digamma(x):
    """digamma of a Python float, or of a float64 array, already known to be
    finite and > 0.

    The lift of an array runs in place on a copy of the input: an entry that
    needs no more lifting adds 0.0 to its shift and to its argument, which
    is exact (its 1/w is finite, since w >= 6), so each entry has the bits
    of the masked update. A float takes the same steps while it is below 6,
    with ln through numpy's ufunc on a scalar, so it has the bits of its
    entry in an array; its w * w overflows to inf without a warning.
    """
    one = isinstance(x, float)
    w = x if one else x.copy()
    shift = 0.0 if one else np.zeros_like(w)
    for _ in range(6):
        mask = w < 6.0
        if not (mask if one else mask.any()):
            break
        shift += mask * (1.0 / w)
        w += mask
    t = 1.0 / (w * w)
    series = _DIGAMMA[-1]
    for coef in _DIGAMMA[-2::-1]:
        series = coef + t * series
    log_w = float(np.log(w)) if one else np.log(w)
    return log_w - 0.5 / w - t * series - shift


_SERIES_MAX = 10000  # terms of either incomplete-gamma expansion


def _lower_series(a, x, log_prefactor):
    """P(a,x) for 0 < x < a+1 by the regularized power series, for floats or
    arrays; a is a float, or an array shaped like x.

    Every entry takes every term, in place, and the stop test runs once every
    8 terms, after terms 7, 15, ..., 9999: all entries are done once each
    |term| < 1e-17 |total|. That leaves each total with the bits it has when
    its own test first passes: x < a+1 <= ap, so later terms only shrink, and
    a term below 1e-17 |total| is below half an ulp of it, so adding it
    rounds back to the same total. An entry that needs 10 000 terms or more
    raises ConvergenceError.
    """
    one = isinstance(x, float)
    total = 1.0 / a
    term = 1.0 / a
    ap = a + 1.0
    for n in range(_SERIES_MAX):
        if n % 8 == 7:
            going = abs(term) >= abs(total) * 1e-17
            if not (going if one else going.any()):
                break
        term *= x
        term /= ap
        total += term
        ap += 1.0
    else:
        raise ConvergenceError("incomplete gamma series did not converge")
    return total * np.exp(log_prefactor)


def _upper_cf(a, x, log_prefactor):
    """Q(a,x) for x >= a+1 by the modified Lentz continued fraction
    (Thompson & Barnett, 1986), for floats or arrays; a is a float, or an
    array shaped like x.

    An entry stops after the step whose factor delta is within 1e-16 of 1
    (or is nan), and its h is recorded at that step. An array updates b, c,
    d and h in place; an entry that has stopped keeps stepping with the
    others, which is elementwise and never touches its recorded h, until
    half of the entries carried have stopped: then the live ones are
    gathered by index, once, and the rest dropped. Each entry's arithmetic
    is that of the whole-array recurrence, so every h keeps its bits; with a
    float a the step's an is a float, as in the float form. An entry that
    needs 9 999 steps or more raises ConvergenceError. A float takes the
    same steps, with the same stop.

    The tiny clamps stay: in exact arithmetic every D_i = 1/d_i and C_i is at
    least i+1 on x >= a+1, but in floats b = x + 1 - a is 0 where
    a + 1 rounds to a (a >= 2^53, x = a), and there the clamp on d fires.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    if isinstance(x, float):
        c = 1.0 / tiny
        d = 1.0 / (tiny if abs(b) < tiny else b)
        h = d
        for i in range(1, _SERIES_MAX - 1):
            an = -i * (i - a)
            b = b + 2.0
            d = an * d + b
            d = tiny if abs(d) < tiny else d
            c = b + an / c
            c = tiny if abs(c) < tiny else c
            d = 1.0 / d
            delta = d * c
            h = h * delta
            if not abs(delta - 1.0) >= 1e-16:
                return np.exp(log_prefactor) * h
        raise ConvergenceError("incomplete gamma continued fraction did not converge")
    one_a = isinstance(a, float)
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
    h = d.copy()
    delta = np.empty_like(h)
    out = np.empty_like(h)
    idx = np.arange(x.size)
    live = np.ones(x.size, dtype=bool)
    n_live = x.size
    for i in range(1, _SERIES_MAX):
        if n_live == 0:
            break
        an = -i * (i - a)
        b += 2.0
        d *= an
        d += b
        np.copyto(d, tiny, where=np.abs(d) < tiny)
        np.divide(an, c, out=c)
        c += b
        np.copyto(c, tiny, where=np.abs(c) < tiny)
        np.divide(1.0, d, out=d)
        np.multiply(d, c, out=delta)
        h *= delta
        delta -= 1.0
        going = np.abs(delta, out=delta) >= 1e-16
        stop = live > going  # live and not going: stops at this step
        if stop.any():
            out[idx[stop]] = h[stop]
            live &= going
            n_live = np.count_nonzero(live)
            if 2 * n_live <= live.size:
                keep = np.flatnonzero(live)
                idx, b, c, d, h = idx[keep], b[keep], c[keep], d[keep], h[keep]
                if not one_a:
                    a = a[keep]
                live = np.ones(n_live, dtype=bool)
                delta = np.empty_like(h)
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


def _lgamma1p_over_a(a):
    """ln Gamma(1 + a) / a for a < 0.1 from its Taylor series, for floats or
    arrays, accurate where ln Gamma(a) + ln a is all rounding error."""
    c = _LGAMMA1P[-1]
    for coef in _LGAMMA1P[-2::-1]:
        c = coef + a * c
    return c


def _upper_small_a(a, x):
    """Q(a, x) for a < 0.1 and x < a+1 (DiDonato & Morris, 1986), for floats
    or arrays.

    Q = -expm1(u) - a (1 + expm1(u)) sum_{k>=1} (-x)^k / (k! (a + k)) with
    u = a ln x - ln Gamma(1 + a), and ln Gamma(1 + a) from its Taylor series,
    so Q keeps its relative accuracy instead of being formed as 1 - P.
    """
    e = np.expm1(a * (np.log(x) - _lgamma1p_over_a(a)))
    term = 1.0
    total = 0.0
    for k in range(1, 23):  # x < 1.1, so x^22 / 22! is below 1e-20
        term = term * -x / k
        total = total + term / (a + k)
    return -e - a * (1.0 + e) * total


def _gamma_pq(a, x, lg_a):
    """(P(a, x), Q(a, x)) for a > 0 and x >= 0, given lg_a = ln Gamma(a).

    The power series gives P on x < a+1 and the continued fraction gives Q
    elsewhere, each to relative machine precision; the other one is its
    complement, except that for a < 0.1, where Q is already the smaller tail
    below a+1, Q comes from its own series there. Python floats give floats.
    Otherwise x is an array: with a and lg_a Python floats (one shape, as in
    every cdf and sf) they stay floats in the kernels, so no constant array
    is built or gathered; with arrays the arguments broadcast. The lower and
    upper entries are indexed once, with np.flatnonzero, and each kernel
    runs on its gathered entries, scattered back through the same indices.
    """
    if isinstance(x, float):
        if x == 0.0:
            return 0.0, 1.0
        log_pref = a * np.log(x) - x - lg_a
        if x < a + 1.0:
            p = float(_lower_series(a, x, log_pref))
            q = float(_upper_small_a(a, x)) if a < _SMALL_A and p > 0.5 else 1.0 - p
        else:
            q = float(_upper_cf(a, x, log_pref))
            p = 1.0 - q
        return _clip01(p), _clip01(q)
    one = isinstance(a, float)
    if not one:
        a, x, lg_a = np.broadcast_arrays(a, x, lg_a)
        a, lg_a = a.ravel(), lg_a.ravel()
    shape = x.shape
    x = x.ravel()

    def part(i):  # a, ln Gamma(a) and x at the indices i
        return (a, lg_a, x[i]) if one else (a[i], lg_a[i], x[i])

    p = np.zeros(x.size)
    q = np.ones(x.size)
    pos = x > 0.0
    below = x < a + 1.0
    lower = np.flatnonzero(pos & below)
    upper = np.flatnonzero(pos > below)  # x > 0 and not below a+1
    if lower.size:
        al, lgl, xl = part(lower)
        pl = _lower_series(al, xl, al * np.log(xl) - xl - lgl)
        p[lower] = pl
        q[lower] = 1.0 - pl
        direct = lower[(al < _SMALL_A) & (pl > 0.5)]
        if direct.size:
            ad, _, xd = part(direct)
            q[direct] = _upper_small_a(ad, xd)
    if upper.size:
        au, lgu, xu = part(upper)
        qu = _upper_cf(au, xu, au * np.log(xu) - xu - lgu)
        q[upper] = qu
        p[upper] = 1.0 - qu
    np.clip(p, 0.0, 1.0, out=p)
    np.clip(q, 0.0, 1.0, out=q)
    return p.reshape(shape), q.reshape(shape)


def _clip01(v: float) -> float:
    """np.clip(v, 0.0, 1.0) for a float: a nan stays nan."""
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def _incomplete_gamma(a, x, name: str):
    """Validated (P, Q) for the public incomplete gamma pair: floats when a
    and x are scalars, else arrays of their broadcast shape."""
    a_arr = positive_array(a, f"{name} shape a")
    x_arr = np.asarray(x, dtype=np.float64)
    if x_arr.size and (not np.all(np.isfinite(x_arr)) or np.any(x_arr < 0.0)):
        raise DomainError(f"{name} requires x >= 0")
    if a_arr.size != 1:
        return _gamma_pq(a_arr, x_arr, log_gamma(a_arr))
    a1 = a_arr.item()  # one shape: a and ln Gamma(a) stay floats
    p, q = _gamma_pq(a1, x_arr.item() if x_arr.size == 1 else x_arr, log_gamma(a1))
    shape = np.broadcast_shapes(a_arr.shape, x_arr.shape)
    return (np.full(shape, p), np.full(shape, q)) if shape else (p, q)


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma function P(a, x), a > 0, x >= 0.

    Power series on x < a+1, continued fraction for the complement elsewhere,
    both driven to relative machine tolerance.
    """
    return _incomplete_gamma(a, x, "reg_lower_gamma")[0]


def reg_upper_gamma(a, x):
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x).

    On x >= a+1 Q comes straight from the continued fraction, so it keeps its
    relative accuracy deep into the upper tail where 1 - P would round to 0.
    """
    return _incomplete_gamma(a, x, "reg_upper_gamma")[1]


_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def _norm_ppf(p: float) -> float:
    """Standard normal quantile for 0 < p <= 1/2 (Acklam's rational
    approximation, ~1e-9 relative)."""
    if p < 0.02425:
        c, d = _ACKLAM_C, _ACKLAM_D
        q = np.sqrt(-2.0 * np.log(p))
        return float((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
                     ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    a, b = _ACKLAM_A, _ACKLAM_B
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))
_HALLEY_STOP = 1e-6  # relative step; the next error, its cube, is below rounding
_HALLEY_CLAMP = 16.0  # a step moves x by at most this factor either way
_HALLEY_MAX = 100
_INV_NAMES = {False: "inv_reg_lower_gamma", True: "inv_reg_upper_gamma"}  # by ``upper``


def _inv_gamma(a, target, upper: bool):
    """Solve P(a, x) = target, or Q(a, x) = target when ``upper``, for x.

    Checks the shape and the levels, then solves them with _inv_gamma_levels:
    a scalar level gives a float, an array of levels an array of its shape.
    """
    name = _INV_NAMES[upper]
    a_arr = positive_array(a, f"{name} shape a")
    if a_arr.size != 1:
        raise DomainError(f"{name} takes one shape a, not {a_arr.size}")
    t = level_array(target, f"{name} level")
    roots = _inv_gamma_levels(a_arr.item(), t, upper)
    return roots[0] if t.ndim == 0 else np.array(roots, dtype=np.float64).reshape(t.shape)


def _inv_gamma_levels(a: float, t: np.ndarray, upper: bool) -> list:
    """The roots, as floats in ravel order, for levels t and one shape a that
    are already checked: one log-gamma, then each level solved on its own
    (_inv_gamma_one), so a level has the same root alone or in an array."""
    lg_a = _log_gamma_one(a)
    return [_inv_gamma_one(a, lg_a, v, upper) for v in t.ravel().tolist()]


def _inv_gamma_one(a: float, lg_a: float, t: float, upper: bool) -> float:
    """Solve for one level t, with lg_a = ln Gamma(a).

    The level is solved on its smaller tail probability r <= 1/2, which is
    exact: the target itself or its complement. The start is the larger of
    Wilson-Hilferty and the small-x inversion of P < x^a / Gamma(a+1) (a
    lower bound, tight in the lower tail). Halley steps then drive
    g = ln(f / r) to zero, with f = P(x) on the lower tail and f = Q(x) on
    the upper one, each exact in its own tail; the log scale keeps steps sound
    where f is many orders of magnitude off r. Every evaluation narrows a
    bracket on the root; a step moves x by at most a factor 16, and one that
    leaves the bracket (or is lost to underflow of f) bisects ln x instead.
    The solve stops after a Halley step of relative size <= 1e-6, and raises
    ConvergenceError if that takes more than 99 steps.

    + - * / and comparisons run on Python floats and every transcendental
    through its numpy ufunc on a scalar, so each step rounds as the same step
    on a numpy array would. Python's min, max and division differ from numpy's
    at nan and at a zero divisor, so the minimum, the clamp and the bracket
    test are written to keep a nan as numpy does, and a division by a
    possible zero goes through _divide. The small-x start's exponent is
    divided by a in Python floats too, so at a subnormal shape, where it
    overflows, OverflowInValue is raised with no numpy warning before it.
    """
    name = _INV_NAMES[upper]
    on_q = (t > 0.5) != upper  # solve on Q rather than P
    r = 1.0 - t if t > 0.5 else t
    sgn = -1.0 if on_q else 1.0  # sign of df/dx
    log_u = float(np.log1p(-r) if on_q else np.log(r))  # ln P at the root
    # ln x of the small-x start, (ln u + ln Gamma(1 + a)) / a
    log_xs = (log_u / a + _lgamma1p_over_a(a) if a < _SMALL_A
              else float(log_u + lg_a + np.log(a)) / a)
    if log_xs < _LOG_TINY:
        raise OverflowInValue(f"{name}: the solution is below the float64 normal range")
    z = sgn * _norm_ppf(r)
    wh = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * float(np.sqrt(a)))
    x = max(float(np.exp(log_xs)), a * float(np.power(wh if wh > 0.0 else 0.0, 3)))

    lo, hi = 0.0, np.inf
    for _ in range(_HALLEY_MAX - 1):
        p, q = _gamma_pq(a, x, lg_a)
        f = q if on_q else p
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = float(np.log(f / r))
            w = float(np.exp((a - 1.0) * np.log(x) - x - lg_a - np.log(f)))  # |g'|
            h = _divide(sgn * g, w)
            curv = _divide(a - 1.0, x) - 1.0 - sgn * w  # g'' / g'
        m = h * curv
        step = h / (1.0 - 0.5 * (1.0 if m > 1.0 else m))
        x_new = x - step
        lo_c, hi_c = x / _HALLEY_CLAMP, x * _HALLEY_CLAMP
        x_new = lo_c if x_new < lo_c else hi_c if x_new > hi_c else x_new
        if sgn * g > 0.0:  # x lies above the root
            hi = x
        else:
            lo = x
        inside = lo <= x_new <= hi  # false for a nan step
        if not inside:  # bisect ln x, or move by the clamp factor while one side is open
            x_new = lo * _HALLEY_CLAMP if hi == np.inf else (
                float(np.sqrt(lo)) * float(np.sqrt(hi)) if lo > 0.0 else hi / _HALLEY_CLAMP)
        x = x_new
        if inside and abs(step) <= _HALLEY_STOP * x:
            return x
    raise ConvergenceError(f"{name} did not converge")


def _divide(n: float, d: float) -> float:
    """n / d with numpy's inf or nan, and no warning, where d is 0 (Python
    would raise)."""
    if d:
        return n / d
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(n, d))


def inv_reg_lower_gamma(a: float, u):
    """Solve P(a, x) = u for x, with a > 0 and 0 < u < 1, elementwise.

    Levels above 1/2 are solved on Q(a, x) = 1 - u, whose target is exact,
    so both tails keep ~1e-14 relative accuracy in x. Start: Wilson-Hilferty
    or the small-x series x = (u Gamma(a+1))^(1/a), whichever is larger;
    then Halley steps on the log of the tail-probability ratio, stopping
    on a relative step in x of 1e-6. One log-gamma per call; an array of
    levels is solved level by level, so each entry has the bits of one call
    at its level. A solution below the float64 normal range raises
    OverflowInValue; a shape a that is not one positive finite value raises
    DomainError.
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
    shape = positive_array(float(shape), "sample_gamma shape").item()
    scale = positive_array(float(scale), "sample_gamma scale").item()
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
