"""End-to-end acceptance checks.

Each test prints one `[acceptance] criterion N PASS|FAIL` line; run with
`pytest tests/test_acceptance.py -s` to see them as they complete. The
experiment reproduction (criterion 1) runs the full published grid and is
the slow test in this suite.
"""

import time

import numpy as np
import scipy.stats
import pytest

from gamgen import (
    FamilyParams,
    RngStream,
    Sample,
    estimate_mu_closed,
    estimate_mu_ml,
    estimate_sigma,
    estimating_equation_bias,
    fit_new_log_generalized_gamma,
    make_generator,
    moment_exists,
    moment_power_law,
    paper_figure1_config,
    population_mu_limit,
    run_experiment,
    sample,
    score_vector,
    smoke_config,
)
from gamgen.cli import main as cli_main
from gamgen.experiment import PAPER_ALPHAS, PAPER_NS
from gamgen.estimators import _mean_last, _mu_closed_from_means, _pointwise, _solve_mu_ml_array

from conftest import CATALOG_SWEEP, POWER_LAW_SWEEP


def _finish(num: int, failures: list) -> None:
    ok = not failures
    print(f"[acceptance] criterion {num} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: " + "; ".join(str(f) for f in failures[:10])


def test_criterion_01_study_reproduction():
    failures = []
    runs = (
        ("full", paper_figure1_config(seed=2), 900.0, 0.05),
        ("smoke", smoke_config(seed=5), 60.0, 0.10),
    )
    for label, cfg, budget, rb_cap in runs:
        t0 = time.perf_counter()
        rows = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
        if elapsed > budget:
            failures.append(f"{label} run took {elapsed:.1f}s > {budget:.0f}s")
        if len(rows) != len(PAPER_ALPHAS) * len(PAPER_NS) * 4:
            failures.append(f"{label}: unexpected row count {len(rows)}")
            continue
        # rows per cell: alpha/closed, alpha/closed-raw, beta/closed, beta/closed-raw;
        # cells ordered alpha-outer, n-inner
        for ai, alpha in enumerate(PAPER_ALPHAS):
            first = rows[(ai * 6) * 4]
            last = rows[(ai * 6 + 5) * 4]
            if (first.theta_true, first.n) != (alpha, 20) or last.n != 600:
                failures.append(f"{label}: cell layout broke at alpha={alpha}")
                continue
            for off, pname in ((0, "alpha"), (2, "beta")):
                r20 = rows[(ai * 6) * 4 + off]
                r600 = rows[(ai * 6 + 5) * 4 + off]
                tag = f"{label} alpha={alpha} {pname}"
                if r20.param_name != pname or r20.estimator != "closed":
                    failures.append(f"{tag}: row identity mismatch")
                    continue
                if not r600.rb < r20.rb:
                    failures.append(f"{tag}: RB(600)={r600.rb:.4f} !< RB(20)={r20.rb:.4f}")
                if not r600.rmse < r20.rmse:
                    failures.append(
                        f"{tag}: RMSE(600)={r600.rmse:.4f} !< RMSE(20)={r20.rmse:.4f}"
                    )
                if not r600.rb <= rb_cap:
                    failures.append(f"{tag}: RB(600)={r600.rb:.4f} > {rb_cap}")
    _finish(1, failures)


def test_criterion_02_sigma_score_vanishes():
    failures = []
    n = 40
    rng = np.random.default_rng(20250202)
    for gi, (name, shapes) in enumerate(CATALOG_SWEEP):
        g = make_generator(name, **shapes)
        worst = 0.0
        for i in range(50):
            mu = rng.uniform(0.5, 6.0)
            sigma = rng.uniform(0.5, 4.0)
            y = sample(n, FamilyParams(mu, sigma), g, RngStream(200_000 + gi, i))
            s = Sample(y)
            sigma_hat = estimate_sigma(s, g)
            mu_arbitrary = rng.uniform(0.2, 8.0)
            sc = score_vector(s, g, mu_arbitrary, sigma_hat, 1.0)
            worst = max(worst, abs(sc.d_sigma))
        if worst > 1e-9 * n:
            failures.append(f"{g!r}: |d_sigma| up to {worst:.3e} > {1e-9 * n:.1e}")
    _finish(2, failures)


def test_criterion_03_ml_root_quality():
    failures = []
    n = 60
    rng = np.random.default_rng(30303)
    worst_resid = 0.0
    worst_iters = 0
    for i in range(1000):
        name, shapes = CATALOG_SWEEP[i % len(CATALOG_SWEEP)]
        g = make_generator(name, **shapes)
        mu = rng.uniform(0.5, 6.0)
        sigma = rng.uniform(0.5, 4.0)
        y = sample(n, FamilyParams(mu, sigma), g, RngStream(300_000, i))
        _, diag = estimate_mu_ml(Sample(y), g)
        worst_resid = max(worst_resid, abs(diag.residual))
        worst_iters = max(worst_iters, diag.iterations)
    if worst_resid > 1e-10:
        failures.append(f"residual up to {worst_resid:.3e} > 1e-10")
    if worst_iters > 200:
        failures.append(f"solver used {worst_iters} > 200 iterations")
    _finish(3, failures)


def test_criterion_04_closed_form_below_twice_ml():
    failures = []
    N, n = 10_000, 20
    for gi, (name, shapes) in enumerate(POWER_LAW_SWEEP):
        g = make_generator(name, **shapes)
        rng = np.random.default_rng(40_000 + gi)
        mus = rng.uniform(0.5, 6.0, N)
        sigmas = rng.uniform(0.5, 4.0, N)
        Y = np.empty((N, n))
        for i in range(N):
            Y[i] = sample(n, FamilyParams(mus[i], sigmas[i]), g, RngStream(400_000 + gi, i))
        M = _mean_last(_pointwise(g, Y.ravel()).reshape(6, N, n))
        numer, denom = _mu_closed_from_means(M[2], M[3], M[0], M[4], M[5])
        h = np.log(M[0]) - M[1]
        feasible = (denom > 0.0) & (h > 0.0)
        if np.count_nonzero(feasible) != N:
            failures.append(f"{g!r}: {N - np.count_nonzero(feasible)} infeasible samples")
        mu_closed = numer[feasible] / denom[feasible]
        mu_ml = _solve_mu_ml_array(h[feasible])[0]
        violations = int(np.count_nonzero(mu_closed >= 2.0 * mu_ml))
        if violations:
            failures.append(f"{g!r}: {violations} of {N} samples broke mu < 2 mu_ML")
    _finish(4, failures)


def test_criterion_05_power_law_moments():
    failures = []
    cases = (
        ("gamma", {}, 3.0, 1.0),
        ("nakagami", {}, 3.0, 0.8),
        ("inverse-gamma", {}, 6.0, 1.0),
    )
    for ci, (name, shapes, mu, sigma) in enumerate(cases):
        g = make_generator(name, **shapes)
        params = FamilyParams(mu, sigma)
        y = sample(1_000_000, params, g, RngStream(500_000, ci))
        pl = g.family_class
        for q in (1.0, 2.0, -1.0):
            existence = moment_exists(q, g, mu=mu)
            if existence.exists is not True:
                failures.append(f"{g!r} q={q}: moment should exist ({existence.reason})")
                continue
            analytic = moment_power_law(q, params, pl.C, pl.s)
            w = y**q
            se = w.std(ddof=1) / np.sqrt(w.size)
            gap = abs(analytic - w.mean())
            if gap > 4.0 * se:
                failures.append(f"{g!r} q={q}: |analytic-MC|={gap:.3e} > 4 SE={4*se:.3e}")
    _finish(5, failures)


def test_criterion_06_transformed_sample_is_gamma():
    failures = []
    points = ((0.7, 1.8), (2.5, 0.4), (1.2, 1.0))
    for gi, (name, shapes) in enumerate(CATALOG_SWEEP):
        g = make_generator(name, **shapes)
        for pi, (mu, sigma) in enumerate(points):
            y = sample(100_000, FamilyParams(mu, sigma), g, RngStream(600_000 + gi, pi))
            t1 = g.value(y)
            pvalue = scipy.stats.kstest(
                t1, "gamma", args=(mu, 0.0, 1.0 / (mu * sigma))
            ).pvalue
            if pvalue <= 0.001:
                failures.append(f"{g!r} at ({mu},{sigma}): KS p={pvalue:.2e}")
    _finish(6, failures)


def test_criterion_07_estimating_equation_unbiased():
    failures = []
    cases = (("gamma", {}, 1.5, 1.0), ("nakagami", {}, 2.0, 3.0))
    for ci, (name, shapes, mu, sigma) in enumerate(cases):
        g = make_generator(name, **shapes)
        bias, se = estimating_equation_bias(
            mu, sigma, g, reps=100_000, n=10, rng=RngStream(700_000, ci)
        )
        if abs(bias) > 4.0 * se:
            failures.append(f"{g!r}: |bias|={abs(bias):.3e} > 4 SE={4*se:.3e}")
    _finish(7, failures)


def test_criterion_08_consistency_and_limits():
    failures = []
    n = 100_000
    power_law_names = {name for name, _ in POWER_LAW_SWEEP}
    for gi, (name, shapes) in enumerate(CATALOG_SWEEP):
        g = make_generator(name, **shapes)
        mu, sigma = 2.0, 1.5
        y = sample(n, FamilyParams(mu, sigma), g, RngStream(800_000, gi))
        s = Sample(y)
        sigma_hat = estimate_sigma(s, g)
        if abs(sigma_hat - sigma) > 0.01 * sigma:
            failures.append(f"{g!r}: sigma_hat off by {abs(sigma_hat-sigma)/sigma:.2%}")
        if (name, shapes) in [(m, sh) for m, sh in POWER_LAW_SWEEP]:
            mu_hat = estimate_mu_closed(s, g)
            if abs(mu_hat - mu) > 0.05 * mu:
                failures.append(f"{g!r}: mu_hat off by {abs(mu_hat-mu)/mu:.2%}")
    # almost-sure limit of the closed form: equals mu for power-law generators
    for gi, (name, shapes) in enumerate(POWER_LAW_SWEEP[:3]):
        g = make_generator(name, **shapes)
        limit = population_mu_limit(
            FamilyParams(2.5, 1.0), g, draws=200_000, rng=RngStream(810_000, gi)
        )
        if abs(limit - 2.5) > 0.05 * 2.5:
            failures.append(f"{g!r}: population limit {limit:.3f} not within 5% of 2.5")
    # for T(x) = e^x - 1 the limit approaches mu as sigma grows
    g = make_generator("new-log-generalized-gamma", delta=1.0)
    limit = population_mu_limit(
        FamilyParams(2.0, 50.0), g, draws=400_000, rng=RngStream(820_000, 0)
    )
    if abs(limit - 2.0) > 0.05 * 2.0:
        failures.append(f"exp generator: limit {limit:.3f} not within 5% of 2.0")
    _finish(8, failures)


def test_criterion_09_dual_path_identity():
    failures = []
    # closed form versus the power-law reduction 1/mu = E[v ln v]/E[v] - E[ln v]
    for gi, (name, shapes) in enumerate(POWER_LAW_SWEEP):
        g = make_generator(name, **shapes)
        s_exp = g.family_class.s
        rng = np.random.default_rng(900 + gi)
        for i in range(20):
            mu = rng.uniform(0.5, 6.0)
            sigma = rng.uniform(0.5, 4.0)
            y = sample(20, FamilyParams(mu, sigma), g, RngStream(900_000 + gi, i))
            mu_closed = estimate_mu_closed(Sample(y), g)
            v = y ** (-s_exp)
            log_v = np.log(v)
            inv_mu = float(np.mean(v * log_v) / np.mean(v) - np.mean(log_v))
            rel = abs(mu_closed - 1.0 / inv_mu) / mu_closed
            if rel > 1e-10:
                failures.append(f"{g!r} sample {i}: reduction disagrees by {rel:.2e}")
    # study formulas for T(x) = e^x - 1 versus the generic composition
    g = make_generator("new-log-generalized-gamma", delta=1.0)
    rng = np.random.default_rng(909)
    for i in range(100):
        mu = rng.uniform(0.5, 4.0)
        sigma = rng.uniform(0.3, 3.0)
        y = sample(30, FamilyParams(mu, sigma), g, RngStream(910_000, i))
        s = Sample(y)
        alpha_hat, beta_hat = fit_new_log_generalized_gamma(s)
        mu_c = estimate_mu_closed(s, g)
        sigma_hat = estimate_sigma(s, g)
        rel_a = abs(alpha_hat - mu_c) / mu_c
        rel_b = abs(beta_hat - 1.0 / (mu_c * sigma_hat)) * (mu_c * sigma_hat)
        if rel_a > 1e-10 or rel_b > 1e-10:
            failures.append(f"sample {i}: alpha rel {rel_a:.2e}, beta rel {rel_b:.2e}")
    _finish(9, failures)


def test_criterion_10_csv_determinism(tmp_path):
    failures = []
    paths = [str(tmp_path / f"{tag}.csv") for tag in ("r1", "r2", "w8")]
    argvs = (
        ["experiment", "--smoke", "--seed", "5", "--out", paths[0]],
        ["experiment", "--smoke", "--seed", "5", "--out", paths[1]],
        ["experiment", "--smoke", "--seed", "5", "--out", paths[2], "--workers", "8"],
    )
    for argv in argvs:
        code = cli_main(argv)
        if code != 0:
            failures.append(f"cmd_experiment exited {code} for {argv}")
    if not failures:
        blobs = [open(p, "rb").read() for p in paths]
        if blobs[0] != blobs[1]:
            failures.append("rerun with the same seed changed the CSV")
        if blobs[0] != blobs[2]:
            failures.append("1 worker and 8 workers disagree")
    _finish(10, failures)
