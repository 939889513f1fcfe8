"""Checks of every benchmark operation against computations made apart from gamgen.

The references use numpy, scipy and the formulas in ``refgen``. Where gamgen
and the reference evaluate the same quantity by different arithmetic, the
tolerance is an error bound: ``ROUND`` units of rounding per sum, the ML
solver's documented stopping rule, and the error those carry into each
estimate. A check that passes therefore says the output is right to within
what its arithmetic allows, and an output moved by more than that fails.

Each ``check_*`` function returns a list of messages, empty when the output
passes. This module imports scipy, so it is imported only after the timed
part of a run.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy import special as sps
from scipy import stats

from refgen import philox, ref_generator, study_gamma_draws

EPS = np.finfo(np.float64).eps
ROUND = 32.0  # rounding allowance per reduction, in units of eps
ML_STOP = 1e-12  # gamgen stops its ML solve at |ln mu - psi(mu) - H| <= 1e-12
DIGAMMA_ERR = 2e-13  # truncation error gamgen documents for its digamma
QUANTILE_STOP = 1e-13  # gamgen stops its quantile solve at |P(x) - u| <= 1e-13
TAIL_RTOL = 1e-12  # accuracy the tail probes ask for, relative in x or P
MAX_REDRAWS = 10  # documented retry cap of a failed bootstrap row
# Bits gamgen's study sets in a replication's stream key for its bootstrap substream
BOOT_BITS = {"closed": 1 << 63, "ml": (1 << 63) | (1 << 62)}
ML_RESOLVED_N = 10  # smallest n whose corrected ML rows are recomputed (see check_study)
KS_PVALUE = 1e-6
MEAN_SE = 6.0


def _rel(a, b):
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


# ---------------------------------------------------------------------------
# reference estimators: rows of Y are samples, means over the last axis
# ---------------------------------------------------------------------------


def closed_mu(Y, ref):
    """Closed-form shape estimate, its error bound, sigma and validity per row."""
    t, d1, d2 = ref.T(Y), ref.dT(Y), ref.d2T(Y)
    ly = np.log(Y)
    yl = Y * ly
    q1, q2 = d1 / t, d2 / d1
    w, a, r = (q2 - q1) * yl, d1 * yl, q1 * yl
    mt = t.mean(-1)
    numer = 1.0 + ly.mean(-1) + w.mean(-1)
    denom = a.mean(-1) / mt - r.mean(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = numer / denom
        numer_err = ROUND * EPS * (
            1.0 + np.abs(ly).mean(-1) + ((np.abs(q1) + np.abs(q2)) * np.abs(yl)).mean(-1)
        )
        denom_err = ROUND * EPS * (2.0 * np.abs(a).mean(-1) / mt + np.abs(r).mean(-1))
        err = np.abs(mu) * (numer_err / np.abs(numer) + denom_err / np.abs(denom))
    spread = np.ptp(Y, axis=-1) > 0.0
    valid = spread & np.isfinite(numer) & np.isfinite(denom) & (denom > 0.0) & (mu > 0.0)
    return mu, err, 1.0 / mt, valid


def ml_h(Y, ref):
    """H = ln mean T(Y) - mean ln T(Y), its rounding bound and sigma per row."""
    t, lt = ref.T(Y), ref.logT(Y)
    mt = t.mean(-1)
    h = np.log(mt) - lt.mean(-1)
    return h, ROUND * EPS * (np.abs(np.log(mt)) + np.abs(lt).mean(-1)), 1.0 / mt


def ml_mu(h, h_err):
    """Root of ln mu - psi(mu) = h by Newton steps on scipy's digamma/trigamma.

    The error bound is gamgen's stopping residual plus the rounding of h and
    of the residual, divided by the slope |1/mu - psi'(mu)| at the root.
    """
    h = np.asarray(h, dtype=np.float64)
    pos = h > 0.0
    hh = np.where(pos, h, 1.0)
    mu = (3.0 + np.sqrt(9.0 + 12.0 * hh)) / (12.0 * hh)
    for _ in range(60):
        f = np.log(mu) - sps.digamma(mu) - hh
        step = f / (1.0 / mu - sps.polygamma(1, mu))
        new = mu - step
        mu = np.where(new > 0.0, new, 0.5 * mu)
    slope = np.abs(1.0 / mu - sps.polygamma(1, mu))
    resid = ML_STOP + DIGAMMA_ERR + h_err + ROUND * EPS * (
        np.abs(np.log(mu)) + np.abs(sps.digamma(mu))
    )
    err = resid / slope + ROUND * EPS * mu
    mu = np.where(pos, mu, np.nan)
    return mu, err, pos & np.isfinite(mu)


def estimate(Y, ref, kind):
    """mu, its error bound, sigma and validity per row for one estimator kind."""
    if kind == "closed":
        return closed_mu(Y, ref)
    h, h_err, sigma = ml_h(Y, ref)
    mu, err, valid = ml_mu(h, h_err)
    return mu, err, sigma, valid


def native(ref, mu, mu_err, sigma):
    """Native parameters (k, ...) and their error bounds from (mu, sigma)."""
    values = np.array(ref.native(mu, sigma), dtype=np.float64)
    powers = np.array(ref.native_mu_power).reshape((-1,) + (1,) * np.ndim(mu))
    errs = np.abs(values) * (np.abs(powers) * mu_err / mu + ROUND * EPS)
    return values, errs


# ---------------------------------------------------------------------------
# study CSV
# ---------------------------------------------------------------------------


def _family_point(theta):
    if set(theta) == {"mu", "sigma"}:
        return float(theta["mu"]), float(theta["sigma"]), ("mu", "sigma")
    alpha, beta = float(theta["alpha"]), float(theta["beta"])
    # both study generators map (alpha, beta) to (alpha, 1 / (alpha beta))
    return alpha, 1.0 / (alpha * beta), ("alpha", "beta")


def check_study(path, study, seed):
    """Recompute every row, raw and bias-corrected, from the redrawn samples.

    Each replication's sample comes from the stream ``(cell << 32) | rep`` and
    its resamples from that key with the estimator kind's bootstrap bits set.
    Corrected ML rows at n < ``ML_RESOLVED_N`` are only checked for being
    finite: there a resample of n equal values leaves H at rounding level, so
    whether it is kept (with mu near 1e15) or redrawn turns on the last bit of
    a sum, and no reference can follow it.
    """
    ref = ref_generator(study.generator)
    kinds = {"closed": ("closed",), "ml": ("ml",), "both": ("closed", "ml")}[study.estimator]
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        rows = list(reader)
    if header != "generator,param_name,theta_true,n,estimator,rb,rmse,failures,N,B,seed".split(","):
        return [f"{path}: unexpected header {header}"]
    expected = []  # (param, truth, n, label, (values (N,), bounds (N,), valid (N,)) or None)
    for ti, theta in enumerate(study.thetas):
        mu, sigma, names = _family_point(theta)
        for ni, n in enumerate(study.ns):
            cell = ti * len(study.ns) + ni
            Y = np.stack([
                ref.Tinv(study_gamma_draws(mu, 1.0 / (mu * sigma),
                                           philox(seed, (cell << 32) | rep), n))
                for rep in range(study.N)
            ])
            fits = {}
            for kd in kinds:
                est_rows = estimate_rows(ref, kd, names)
                raw = est_rows(Y)
                fits[kd + "-raw"] = raw
                if kd == "ml" and n < ML_RESOLVED_N:
                    fits[kd] = None
                    continue
                vals, errs = np.full_like(raw[0], np.nan), np.zeros_like(raw[1])
                for rep in map(int, np.nonzero(raw[2])[0]):
                    gen = philox(seed, ((cell << 32) | rep) | BOOT_BITS[kd])
                    vals[:, rep], errs[:, rep], _ = bias_reduced(Y[rep], est_rows, study.B, gen)
                fits[kd] = (vals, errs, np.all(np.isfinite(vals), axis=0))
            for j, pname in enumerate(names):
                for label in [lab for kd in kinds for lab in (kd, kd + "-raw")]:
                    fit = fits[label]
                    expected.append((pname, float(theta[pname]), n, label,
                                     fit and (fit[0][j], fit[1][j], fit[2])))
    if len(rows) != len(expected):
        return [f"{path}: {len(rows)} rows, expected {len(expected)}"]
    bad = []
    for row, (pname, truth, n, label, fit) in zip(rows, expected):
        where = f"{path}: {pname}={truth:g} n={n} {label}"
        rb, rmse, failures = float(row["rb"]), float(row["rmse"]), int(row["failures"])
        if (row["generator"], row["param_name"], float(row["theta_true"]), int(row["n"]),
                row["estimator"], int(row["N"]), int(row["B"]), int(row["seed"])) != (
                study.generator, pname, truth, n, label, study.N, study.B, seed):
            bad.append(f"{where}: row fields {row} do not match the config")
            continue
        if fit is None:
            if failures == study.N:
                bad.append(f"{where}: every replication failed")
            elif not (np.isfinite(rb) and np.isfinite(rmse) and rb >= 0.0 and rmse >= 0.0):
                bad.append(f"{where}: RB {rb!r} or RMSE {rmse!r} not finite and >= 0")
            elif rmse**2 < (rb * truth) ** 2 * (1.0 - 1e-12):
                bad.append(f"{where}: RMSE^2 {rmse**2!r} below (RB theta)^2 {(rb * truth) ** 2!r}")
            continue
        vals, errs, valid = fit
        est, err = vals[valid], errs[valid]
        if failures != study.N - est.size:
            bad.append(f"{where}: failures {failures}, reference {study.N - est.size}")
            continue
        if est.size == 0:
            continue
        rb_ref = abs(est.mean() - truth) / truth
        rmse_ref = float(np.sqrt(np.mean((est - truth) ** 2)))
        rb_tol = (err.mean() + ROUND * EPS * np.abs(est).mean()) / truth
        rmse_tol = float(np.sqrt(np.mean(err**2))) + ROUND * EPS * (rmse_ref + truth)
        if not abs(rb - rb_ref) <= rb_tol:
            bad.append(f"{where}: RB {rb!r} vs reference {rb_ref!r} (tolerance {rb_tol:.3g})")
        if not abs(rmse - rmse_ref) <= rmse_tol:
            bad.append(f"{where}: RMSE {rmse!r} vs reference {rmse_ref!r} "
                       f"(tolerance {rmse_tol:.3g})")
    return bad


# ---------------------------------------------------------------------------
# library calls
# ---------------------------------------------------------------------------


def _gamma_law(mu, sigma):
    return stats.gamma(mu, scale=1.0 / (mu * sigma))


def check_sample(y, spec, mu, sigma):
    """T(Y) ~ Gamma(mu, 1/(mu sigma)): mean 1/sigma within 6 SE, and a KS test."""
    ref = ref_generator(spec)
    if not (np.all(np.isfinite(y)) and np.all(y > 0.0)):
        return [f"{spec}: draws not finite and > 0"]
    t = ref.T(y)
    bad = []
    se = np.sqrt(mu) / (mu * sigma) / np.sqrt(t.size)
    if not abs(t.mean() - 1.0 / sigma) <= MEAN_SE * se:
        bad.append(f"{spec} mu={mu}: mean T(Y) {t.mean()!r} vs 1/sigma {1 / sigma!r}")
    p = stats.kstest(t, _gamma_law(mu, sigma).cdf).pvalue
    if not p >= KS_PVALUE:
        bad.append(f"{spec} mu={mu}: KS p-value {p:.3g} of T(Y) against its gamma law")
    return bad


def check_log_pdf(y, out, spec, mu, sigma):
    ref = ref_generator(spec)
    t, d1, lt = ref.T(y), ref.dT(y), ref.logT(y)
    expect = _gamma_law(mu, sigma).logpdf(t) + np.log(np.abs(d1))
    scale = (1.0 + np.abs(np.log(np.abs(d1))) + (1.0 + mu) * np.abs(lt) + mu * sigma * t
             + abs(sps.gammaln(mu)) + mu * abs(np.log(mu * sigma)))
    miss = ~(np.abs(out - expect) <= ROUND * EPS * scale)
    if miss.any():
        i = int(np.argmax(miss))
        return [f"{spec} mu={mu}: log_pdf({y[i]!r}) = {out[i]!r}, reference {expect[i]!r} "
                f"({int(miss.sum())} points off)"]
    return []


def check_cdf(y, out, spec, mu, sigma):
    """Absolute accuracy in the bulk; the tail probes check relative accuracy."""
    ref = ref_generator(spec)
    law = _gamma_law(mu, sigma)
    t = ref.T(y)
    expect = law.cdf(t) if ref.increasing else law.sf(t)
    miss = ~(np.abs(out - expect) <= ROUND * EPS * (1.0 + mu * sigma * t))
    if miss.any():
        i = int(np.argmax(miss))
        return [f"{spec} mu={mu}: cdf({y[i]!r}) = {out[i]!r}, reference {expect[i]!r} "
                f"({int(miss.sum())} points off)"]
    return []


def check_quantile(u, out, spec, mu, sigma):
    """Error bound: gamgen's |P - u| stopping rule divided by the density at y."""
    ref = ref_generator(spec)
    law = _gamma_law(mu, sigma)
    level = u if ref.increasing else 1.0 - u
    z = law.ppf(level)
    y = ref.Tinv(z)
    density = law.pdf(z) * np.abs(ref.dT(y))
    tol = (QUANTILE_STOP + ROUND * EPS) / density + ROUND * EPS * y
    miss = ~(np.abs(out - y) <= tol)
    if miss.any():
        i = int(np.argmax(miss))
        return [f"{spec} mu={mu}: quantile({u[i]!r}) = {out[i]!r}, reference {y[i]!r} "
                f"(tolerance {tol[i]:.3g})"]
    return []


def check_fit(y, vec, spec):
    """fit_family: exact sigma, closed-form and ML mu, native map, closed < 2 ML."""
    ref = ref_generator(spec)
    sigma_hat, mu_closed, mu_ml = vec[:3]
    mu_c, c_err, sigma, _ = closed_mu(y, ref)
    h, h_err, _ = ml_h(y, ref)
    mu_m, m_err, _ = ml_mu(h, h_err)
    nat, nat_err = native(ref, mu_closed, c_err, sigma_hat)
    bad = []
    if not _rel(sigma_hat, sigma) <= ROUND * EPS:
        bad.append(f"sigma {sigma_hat!r} vs reference {sigma!r}")
    if not abs(mu_closed - mu_c) <= c_err:
        bad.append(f"closed mu {mu_closed!r} vs reference {mu_c!r} (tolerance {c_err:.3g})")
    if not abs(mu_ml - mu_m) <= m_err:
        bad.append(f"ML mu {mu_ml!r} vs reference {mu_m!r} (tolerance {m_err:.3g})")
    if not mu_closed < 2.0 * mu_ml:
        bad.append(f"closed mu {mu_closed!r} not below twice ML mu {mu_ml!r}")
    if not np.all(np.abs(vec[4:] - nat) <= nat_err):
        bad.append(f"native {vec[4:]} vs reference {nat}")
    return [f"{spec} fit: {m}" for m in bad]


def estimate_rows(ref, kind, names=None):
    """Y (m, n) -> parameter values (k, m), their error bounds and validity (m,).

    ``names`` ("mu", "sigma") reports mu and sigma; otherwise the native
    parameters, as gamgen's estimators report them.
    """
    def rows(Y):
        mu, err, sigma, valid = estimate(Y, ref, kind)
        if names == ("mu", "sigma"):
            vals, errs = np.array([mu, sigma]), np.array([err, ROUND * EPS * sigma])
        else:
            vals, errs = native(ref, mu, err, sigma)
        return vals, errs, valid & np.all(np.isfinite(vals), axis=0)

    return rows


def bias_reduced(y, rows, B, gen):
    """2 theta_hat - mean theta*, resampled in gamgen's documented order.

    The B resamples come from one (B, n) index matrix drawn from ``gen``; each
    invalid resample is then redrawn one row at a time, in ascending order, up
    to MAX_REDRAWS times. Returns the corrected vector, its error bound and the
    number of resamples used; the vector is NaN when none is valid. The
    estimate on ``y`` itself must be valid.
    """
    n = y.size
    hat, hat_err, _ = rows(y[None, :])
    hat, hat_err = hat[:, 0], hat_err[:, 0]
    vals, errs, ok = rows(y[gen.integers(0, n, size=(B, n))])
    for b in np.nonzero(~ok)[0]:
        for _ in range(MAX_REDRAWS):
            v, e, good = rows(y[gen.integers(0, n, size=n)][None, :])
            if good[0]:
                vals[:, b], errs[:, b], ok[b] = v[:, 0], e[:, 0], True
                break
    used = int(ok.sum())
    if used == 0:
        return np.full(hat.shape, np.nan), np.zeros(hat.shape), 0
    mean_star = vals[:, ok].mean(axis=1)
    tol = (2.0 * hat_err + errs[:, ok].mean(axis=1)
           + ROUND * EPS * (2.0 * np.abs(hat) + np.abs(mean_star)))
    return 2.0 * hat - mean_star, tol, used


def check_bootstrap(y, vec, spec, kind, B, seed, stream):
    """2 theta_hat - mean theta*, recomputed on the same index matrix and redraws."""
    rows = estimate_rows(ref_generator(spec), kind)
    hat, hat_err, hat_ok = rows(y[None, :])
    if not hat_ok[0]:
        return [f"{spec} {kind} bootstrap: estimate fails on the original sample"]
    hat, hat_err = hat[:, 0], hat_err[:, 0]
    corrected, tol, used = bias_reduced(y, rows, B, philox(seed, stream))
    k = hat.size
    bad = []
    if not np.all(np.abs(vec[:k] - corrected) <= tol):
        bad.append(f"estimate {vec[:k]} vs reference {corrected} (tolerance {tol})")
    if not np.all(np.abs(vec[k:2 * k] - hat) <= hat_err):
        bad.append(f"uncorrected {vec[k:2 * k]} vs reference {hat}")
    if (int(vec[2 * k]), int(vec[2 * k + 1])) != (used, B - used):
        bad.append(f"used/excluded {vec[2 * k:]} vs reference {used}/{B - used}")
    return [f"{spec} {kind} bootstrap: {m}" for m in bad]


def gengamma_loglik(y, mu, sigma, power):
    """Log likelihood of the gamma-generator family with power p: Y^p ~ Gamma."""
    scale = (1.0 / (mu * sigma)) ** (1.0 / power)
    return float(stats.gengamma.logpdf(y, mu, power, scale=scale).sum())


def check_full_ml(y, vec):
    """No +-1e-3 relative step of mu, sigma or p raises the log likelihood."""
    theta = vec[:3]
    if not (np.all(np.isfinite(theta)) and np.all(theta > 0.0)):
        return [f"full-ml: fit {theta} not finite and > 0"]
    best = gengamma_loglik(y, *theta)
    bad = []
    for i in range(3):
        for sign in (-1.0, 1.0):
            step = theta.copy()
            step[i] *= 1.0 + sign * 1e-3
            ll = gengamma_loglik(y, *step)
            if ll > best + 1e-9 * (1.0 + abs(best)):
                bad.append(f"full-ml: log likelihood {ll!r} at {step} above {best!r} at the fit")
    return bad


def probe_reference(kind, spec, mu, sigma, x):
    ref = ref_generator(spec)
    law = _gamma_law(mu, sigma)
    if kind == "quantile":
        z = law.ppf(x) if x < 0.5 else law.isf(1.0 - x)  # 1 - x is exact here
        return float(ref.Tinv(z))
    with np.errstate(over="ignore"):
        t = ref.T(x)
    return float(law.cdf(t) if ref.increasing else law.sf(t))


def probe_fails(probe, out) -> bool:
    """A tail probe fails when it raised or is off by more than 1e-12 relative."""
    if isinstance(out, str):
        return True
    return not _rel(out, probe_reference(*probe[:2], *probe[2], probe[3])) <= TAIL_RTOL


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------


def joined(record, keys):
    """The outputs of the sample calls ``keys`` that ran, joined (None if none
    ran), so that the checks see enough draws to resolve a 5% bias."""
    vecs = [v for v in map(record.output, keys) if v is not None]
    return np.concatenate(vecs) if vecs else None


def numeric_draws(inputs, record) -> dict:
    """(mu, sigma) -> the joined draws of that point's sample-numeric calls."""
    streams = {}
    for _, mu, sigma, stream in inputs.numeric:
        streams.setdefault((mu, sigma), []).append(("sample-numeric", stream))
    draws = {point: joined(record, keys) for point, keys in streams.items()}
    return {point: d for point, d in draws.items() if d is not None}


def check_run(inputs, record, probes):
    """Check every recorded output. Returns (messages, failed probes per round)."""
    import workload as wl

    bad = list(record.mismatches)  # operations that failed are counted, not checked
    for k, (path, seed, _) in sorted(record.study_csv.items()):
        bad += check_study(path, inputs.configs[k][2], seed)
    out = record.output
    for c in inputs.combos:
        draws = joined(record, [("sample", c.index, stream) for stream in c.sample_streams])
        if draws is not None:
            bad += check_sample(draws, c.spec, c.mu, c.sigma)
        checks = [(("log_pdf", c.index, k),
                    lambda v, k=k: check_log_pdf(c.chunk(k), v, c.spec, c.mu, c.sigma))
                   for k in range(wl.POINTWISE_SIZE // wl.CHUNK)]
        checks += [(("cdf", c.index, k),
                    lambda v, k=k: check_cdf(c.chunk(k), v, c.spec, c.mu, c.sigma))
                   for k in range(inputs.spec.cdf_calls)]
        checks += [(("quantile", c.index, k),
                    lambda v, k=k: check_quantile(c.levels[k:k + 1], v, c.spec, c.mu, c.sigma))
                   for k in range(c.levels.size)]
        checks += [(("fit", c.index, k), lambda v, y=y: check_fit(y, v, c.spec))
                   for k, y in enumerate(c.fit_samples)]
        checks += [(("bootstrap", c.index, kind, stream),
                    lambda v, k=k, kind=kind, stream=stream: check_bootstrap(
                        c.boot_sample(k), v, c.spec, kind, wl.BOOT_B, inputs.seed, stream))
                   for k, stream in enumerate(c.boot_streams) for kind in ("closed", "ml")]
        for key, run_check in checks:
            vec = out(key)
            if vec is not None:
                bad += run_check(vec)
    for (mu, sigma), vec in numeric_draws(inputs, record).items():
        bad += check_sample(vec, wl.NUMERIC_GENERATOR, mu, sigma)
    for j, (mu, sigma, y) in enumerate(inputs.full_ml):
        vec = out(("full-ml", j))
        if vec is not None:
            bad += check_full_ml(y, vec)
    failed = sum(probe_fails(probes[i], o) for i, o in record.probe_outputs.items())
    return bad, failed
