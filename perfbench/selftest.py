"""Self-test of the benchmark's checks: each must pass gamgen's real output and
reject the same output perturbed just beyond its tolerance.

    python3 perfbench/selftest.py

Runs one lib-calls round and three small studies (about 15 s), then perturbs
one output per check. Exits 1 if a check rejects a real output or accepts a
perturbed one.
"""

import csv
import os
import sys

import run  # pins the thread pools before numpy loads

if run._import_program() is None:
    sys.exit("gamgen sources not found")

import numpy as np  # noqa: E402

import check  # noqa: E402
import workload as wl  # noqa: E402
from gamgen import cli  # noqa: E402

OUT = os.path.join(run.HERE, "out", "selftest")
failures = []


def expect(name, messages, reject):
    ok = bool(messages) == reject
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {'rejected' if messages else 'accepted'}")
    if not ok:
        failures.append(name)
        for m in messages[:3]:
            print("     ", m)


def study_csv(study, seed, tag):
    cfg = os.path.join(OUT, f"{tag}.cfg")
    out = os.path.join(OUT, f"{tag}.csv")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(study.config_text(seed))
    if cli.main(["experiment", "--config", cfg, "--out", out]) != 0:
        sys.exit(f"gamgen experiment failed on {cfg}")
    return out


def tamper_csv(path, tag, edit):
    """Copy of a study CSV with ``edit(rows)`` applied to its parsed rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    out = os.path.join(OUT, f"{tag}.csv")
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return out


def tenth_digit(value: float) -> float:
    text = f"{value:.9e}"  # ten significant digits
    digit = (int(text[10]) + 5) % 10
    return float(text[:10] + str(digit) + text[11:])


def tenth_digit_rb(corrected):
    """Edit: the largest raw (or corrected) RB at n >= 10 changed in its 10th digit.

    At n = 3 ML estimates reach mu ~ 100, where gamgen's stopping residual of
    1e-12 already moves RB by more than its 10th digit; n >= 10 rows are
    resolved to better than that.
    """
    def edit(rows):
        picked = [r for r in rows
                  if r["estimator"].endswith("-raw") != corrected and int(r["n"]) >= 10]
        top = max(picked, key=lambda r: float(r["rb"]))
        top["rb"] = repr(tenth_digit(float(top["rb"])))
    return edit


def corrected_rb_from_raw(rows):
    """Edit: the first corrected row at n >= 10 takes its raw row's RB (no correction)."""
    for row, raw in zip(rows, rows[1:]):
        if raw["estimator"] == row["estimator"] + "-raw" and int(row["n"]) >= 10:
            row["rb"] = raw["rb"]
            return


def rmse_below_bias(rows):
    """Edit: the corrected row with the smallest n gets RMSE = RB theta / 2."""
    row = min((r for r in rows if not r["estimator"].endswith("-raw")), key=lambda r: int(r["n"]))
    row["rmse"] = repr(0.5 * float(row["rb"]) * float(row["theta_true"]))


def scaled(vec, i, factor):
    out = np.array(vec, dtype=np.float64)
    out[i] *= factor
    return out


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    seed = 7

    studies = {
        "closed": wl.Study("new-log-generalized-gamma(delta=1)",
                           ({"alpha": 0.5, "beta": 1.0}, {"alpha": 4.0, "beta": 1.0}),
                           (20, 100), N=6, B=50, estimator="closed"),
        "ml": wl.Study("gamma", ({"alpha": 0.5, "beta": 1.0}, {"alpha": 6.0, "beta": 1.0}),
                       (3, 10), N=6, B=50, estimator="ml"),
        "both": wl.Study("gamma", ({"mu": 3.0, "sigma": 1.2},), (20,), N=6, B=50,
                         estimator="both"),
    }
    for kind, study in studies.items():
        path = study_csv(study, seed, f"study-{kind}")
        expect(f"study {kind}: real CSV", check.check_study(path, study, seed), False)
        for tag, name, edit in (
            ("rb", "raw RB altered in its 10th digit", tenth_digit_rb(False)),
            ("corr-rb", "corrected RB altered in its 10th digit", tenth_digit_rb(True)),
            ("corr-raw", "corrected RB replaced by the raw RB", corrected_rb_from_raw),
            ("rmse", "corrected RMSE below RB*theta at the smallest n", rmse_below_bias),
        ):
            bad = tamper_csv(path, f"study-{kind}-{tag}", edit)
            expect(f"study {kind}: {name}", check.check_study(bad, study, seed), True)

    inputs = wl.prepare("lib-calls", seed, os.path.join(OUT, "lib-calls"))
    runner = wl.Runner(inputs)
    runner.run_round()
    problems, failed = check.check_run(inputs, runner.record, wl.PROBES)
    expect("lib-calls round: real outputs", problems, False)
    print(f"     tail probes failing: {failed} of {len(wl.PROBES)}")

    out = runner.record.output
    for c in inputs.combos:
        name = f"{c.spec} mu={c.mu}"
        cdf = out(("cdf", c.index, 0))
        mid = int(np.argmin(np.abs(cdf - 0.5)))
        expect(f"{name}: draws scaled by 1.05",
               check.check_sample(check.joined(runner.record, [("sample", c.index, stream)
                                                              for stream in c.sample_streams])
                                  * 1.05, c.spec, c.mu, c.sigma), True)
        expect(f"{name}: one log_pdf moved by 1e-6 relative",
               check.check_log_pdf(c.chunk(0), scaled(out(("log_pdf", c.index, 0)), 0, 1 + 1e-6),
                                   c.spec, c.mu, c.sigma), True)
        expect(f"{name}: one cdf scaled by 1+1e-6",
               check.check_cdf(c.chunk(0), scaled(cdf, mid, 1 + 1e-6),
                               c.spec, c.mu, c.sigma), True)
        expect(f"{name}: one quantile scaled by 1+1e-6",
               check.check_quantile(c.levels[:1], scaled(out(("quantile", c.index, 0)), 0,
                                                         1 + 1e-6), c.spec, c.mu, c.sigma), True)
        fit = out(("fit", c.index, 0))
        for i, what in ((0, "sigma"), (1, "closed mu"), (2, "ML mu"), (4, "native")):
            expect(f"{name}: fit {what} scaled by 1+1e-8",
                   check.check_fit(c.fit_samples[0], scaled(fit, i, 1 + 1e-8), c.spec), True)
        for k, stream in enumerate(c.boot_streams):
            for kind in ("closed", "ml"):
                key = ("bootstrap", c.index, kind, stream)
                expect(f"{name}: {kind} bootstrap estimate shifted by 1e-8 relative",
                       check.check_bootstrap(c.boot_sample(k), scaled(out(key), 0, 1 + 1e-8),
                                             c.spec, kind, wl.BOOT_B, inputs.seed, stream), True)
    for (mu, sigma), draws in check.numeric_draws(inputs, runner.record).items():
        expect(f"traditional-weibull mu={mu}: draws scaled by 1.05",
               check.check_sample(draws * 1.05, wl.NUMERIC_GENERATOR, mu, sigma), True)
    for j, (mu, sigma, y) in enumerate(inputs.full_ml):
        expect(f"full-ml mu={mu}: fitted mu scaled by 1.01",
               check.check_full_ml(y, scaled(out(("full-ml", j)), 0, 1.01)), True)
    for probe in wl.PROBES:
        exact = check.probe_reference(*probe[:2], *probe[2], probe[3])
        for name, value, reject in (("reference value", exact, False),
                                    ("value moved by 1e-10 relative", exact * (1 + 1e-10), True)):
            rejected = ["rejected"] if check.probe_fails(probe, value) else []
            expect(f"probe {probe}: {name}", rejected, reject)

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
