"""Monte Carlo experiment harness: grids, metrics rows, CSV determinism."""

import numpy as np
import pytest

from gamgen import (
    CSV_HEADER,
    DataError,
    DomainError,
    ExperimentConfig,
    FamilyParams,
    MetricsRow,
    RngStream,
    Sample,
    make_generator,
    native_estimator,
    paper_figure1_config,
    parse_config_file,
    read_csv_rows,
    relative_bias,
    rmse,
    run_experiment,
    sample,
    smoke_config,
    write_csv,
)

HEADER = "generator,param_name,theta_true,n,estimator,rb,rmse,failures,N,B,seed"


def small_config(**over):
    base = dict(
        generator="gamma",
        theta=({"mu": 3.0, "sigma": 1.0},),
        n=(15, 25),
        N=6,
        B=8,
        seed=1717,
        estimator="both",
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_csv_header_constant():
    assert CSV_HEADER == HEADER


def test_single_replication_rows_reconstruct_exactly():
    # N=1, B=0: each row's RB and RMSE are those of the lone estimate
    cfg = small_config(theta=({"mu": 5.0, "sigma": 1.0},), n=(30,), N=1, B=0,
                       seed=99, estimator="closed")
    rows = run_experiment(cfg)
    g = make_generator("gamma")
    y = sample(30, FamilyParams(5.0, 1.0), g, RngStream(99, 0))
    theta_hat = native_estimator(g, "closed", ("mu", "sigma"))(Sample(y))
    truth = {"mu": 5.0, "sigma": 1.0}
    assert [r.param_name for r in rows] == ["mu", "sigma"]
    for r, est in zip(rows, theta_hat):
        assert r.estimator == "closed"
        assert r.failures == 0
        assert r.rb == relative_bias([est], truth[r.param_name])
        assert r.rmse == rmse([est], truth[r.param_name])


def test_native_parameter_rows_reconstruct_exactly():
    cfg = small_config(theta=({"alpha": 2.0, "beta": 0.5},), n=(24,), N=1, B=0,
                       seed=31, estimator="closed")
    rows = run_experiment(cfg)
    g = make_generator("gamma")
    mu, sigma = g.native.to_family(alpha=2.0, beta=0.5)
    y = sample(24, FamilyParams(mu, sigma), g, RngStream(31, 0))
    theta_hat = native_estimator(g, "closed", ("alpha", "beta"))(Sample(y))
    truth = {"alpha": 2.0, "beta": 0.5}
    assert [r.param_name for r in rows] == ["alpha", "beta"]
    for r, est in zip(rows, theta_hat):
        assert r.theta_true == truth[r.param_name]
        assert r.rb == relative_bias([est], truth[r.param_name])


def test_estimator_labels_bare_without_bootstrap():
    rows = run_experiment(small_config(n=(12,), N=2, B=0))
    assert {r.estimator for r in rows} == {"closed", "ml"}
    rows = run_experiment(small_config(n=(12,), N=2, B=3))
    assert {r.estimator for r in rows} == {"closed", "closed-raw", "ml", "ml-raw"}


def test_row_order_is_cell_then_param_then_kind():
    cfg = small_config(
        theta=({"mu": 3.0, "sigma": 1.0}, {"mu": 0.7, "sigma": 2.0}),
        n=(8, 12),
        N=2,
        B=1,
    )
    rows = run_experiment(cfg)
    key = [(r.theta_true, r.param_name, r.n, r.estimator) for r in rows]
    expected = []
    for theta in cfg.theta:
        for n in cfg.n:
            for pname in ("mu", "sigma"):
                for label in ("closed", "closed-raw", "ml", "ml-raw"):
                    expected.append((theta[pname], pname, n, label))
    assert key == expected


def test_csv_bytes_stable_across_runs_and_workers(tmp_path):
    cfg = small_config(theta=({"mu": 3.0, "sigma": 1.0}, {"mu": 1.0, "sigma": 0.5}))
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    write_csv(run_experiment(cfg, workers=1), paths[0])
    write_csv(run_experiment(cfg, workers=1), paths[1])
    write_csv(run_experiment(cfg, workers=3), paths[2])
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]
    assert b"\r" not in blobs[0]
    assert blobs[0].decode("utf-8").splitlines()[0] == HEADER


def test_workers_must_be_positive():
    with pytest.raises(DomainError):
        run_experiment(small_config(n=(8,), N=1, B=0), workers=0)


def test_failure_accounting_and_error_bound():
    rows = run_experiment(small_config())
    for r in rows:
        assert 0 <= r.failures <= r.N
        assert r.failures == 0
        # RMSE dominates absolute mean bias
        assert r.rmse >= r.rb * abs(r.theta_true) * (1.0 - 1e-12)


def test_metrics_row_validation():
    good = dict(
        generator="gamma",
        param_name="mu",
        theta_true=3.0,
        n=10,
        estimator="closed",
        rb=0.1,
        rmse=0.2,
        failures=0,
        N=4,
        B=2,
        seed=7,
        elapsed=0.0,
    )
    MetricsRow(**good)
    with pytest.raises(DomainError):
        MetricsRow(**{**good, "rb": float("nan")})
    with pytest.raises(DomainError):
        MetricsRow(**{**good, "rmse": -1.0})
    # a fully failed cell carries NaN metrics legitimately
    MetricsRow(**{**good, "rb": float("nan"), "rmse": float("nan"), "failures": 4})


def test_experiment_config_validation():
    with pytest.raises(DomainError):
        small_config(estimator="bogus")
    with pytest.raises(DomainError):
        small_config(N=0)
    with pytest.raises(DomainError):
        small_config(B=-1)
    with pytest.raises(DomainError):
        small_config(theta=())
    with pytest.raises(DomainError):
        small_config(theta=({},))
    with pytest.raises(DomainError):
        small_config(theta=({"mu": -1.0, "sigma": 1.0},))
    with pytest.raises(DomainError):
        small_config(n=())
    with pytest.raises(DomainError):
        small_config(n=(1,))


def test_theta_grid_validated_before_running():
    cfg = small_config(theta=({"nu": 2.0},))  # not gamma's native names
    with pytest.raises(DomainError):
        run_experiment(cfg)


def test_read_csv_rows_round_trip(tmp_path):
    rows = run_experiment(small_config(n=(10,), N=3, B=2))
    path = tmp_path / "m.csv"
    write_csv(rows, path)
    back = read_csv_rows(path)
    assert len(back) == len(rows)
    for rec, row in zip(back, rows):
        assert rec["generator"] == row.generator
        assert rec["param_name"] == row.param_name
        assert rec["estimator"] == row.estimator
        assert rec["theta_true"] == row.theta_true
        assert rec["rb"] == row.rb
        assert rec["rmse"] == row.rmse
        assert rec["n"] == row.n
        assert rec["failures"] == row.failures
        assert (rec["N"], rec["B"], rec["seed"]) == (row.N, row.B, row.seed)


def test_read_csv_rows_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_csv_rows(path)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# study grid\n"
        "generator = new-log-generalized-gamma(delta=1)\n"
        "\n"
        "theta = alpha=0.5, beta=1\n"
        "theta = alpha=2, beta=1\n"
        "n = 20, 50\n"
        "n = 100\n"
        "N = 40\n"
        "B = 10\n"
        "seed = 12345\n"
        "estimator = closed\n",
        encoding="utf-8",
    )
    cfg = parse_config_file(path)
    assert cfg.generator == "new-log-generalized-gamma(delta=1)"
    assert cfg.theta == ({"alpha": 0.5, "beta": 1.0}, {"alpha": 2.0, "beta": 1.0})
    assert cfg.n == (20, 50, 100)
    assert (cfg.N, cfg.B, cfg.seed, cfg.estimator) == (40, 10, 12345, "closed")


def test_config_file_defaults_and_errors(tmp_path):
    def write(text):
        p = tmp_path / "c.cfg"
        p.write_text(text, encoding="utf-8")
        return p

    cfg = parse_config_file(
        write("generator=gamma\ntheta=mu=2,sigma=1\nn=10\nN=5\nseed=1\n")
    )
    assert cfg.B == 0 and cfg.estimator == "closed"

    for text in (
        "theta=mu=2,sigma=1\nn=10\nN=5\nseed=1\n",          # no generator
        "generator=gamma\nn=10\nN=5\nseed=1\n",             # no theta
        "generator=gamma\ntheta=mu=2,sigma=1\nN=5\nseed=1\n",  # no n
        "generator=gamma\ntheta=mu=2,sigma=1\nn=10\nseed=1\n",  # no N
        "generator=gamma\ntheta=mu=2,sigma=1\nn=10\nN=5\n",  # no seed
        "generator=gamma\nbogus_key=1\ntheta=mu=2,sigma=1\nn=10\nN=5\nseed=1\n",
        "generator=gamma\ntheta=mu2\nn=10\nN=5\nseed=1\n",   # theta not name=value
        "generator=gamma\ntheta=mu=x\nn=10\nN=5\nseed=1\n",  # bad float
        "generator=gamma\njust a line\ntheta=mu=2,sigma=1\nn=10\nN=5\nseed=1\n",
    ):
        with pytest.raises(DataError):
            parse_config_file(write(text))


def test_paper_and_smoke_presets():
    cfg = paper_figure1_config(seed=2)
    assert cfg.generator == "new-log-generalized-gamma(delta=1)"
    assert cfg.n == (20, 50, 100, 200, 400, 600)
    assert [t["alpha"] for t in cfg.theta] == [0.5, 1.0, 2.0, 4.0, 6.0]
    assert all(t["beta"] == 1.0 for t in cfg.theta)
    assert (cfg.N, cfg.B, cfg.seed, cfg.estimator) == (1000, 200, 2, "closed")
    small = smoke_config(seed=5)
    assert (small.N, small.B, small.seed) == (200, 50, 5)
    assert small.theta == cfg.theta and small.n == cfg.n


def test_rows_match_generic_pipeline_with_bootstrap():
    # one cell, tiny counts: the reducer's RB/RMSE must equal metrics computed
    # from independently reconstructed per-replication estimates
    from gamgen import bootstrap_bias_reduce
    from gamgen.experiment import _BOOT_BIT

    cfg = small_config(theta=({"mu": 4.0, "sigma": 2.0},), n=(14,), N=3, B=6,
                       seed=8080, estimator="closed")
    rows = run_experiment(cfg)
    g = make_generator("gamma")
    est = native_estimator(g, "closed", ("mu", "sigma"))
    star = np.empty((3, 2))
    hat = np.empty((3, 2))
    for rep in range(3):
        y = sample(14, FamilyParams(4.0, 2.0), g, RngStream(8080, rep))
        s = Sample(y)
        hat[rep] = est(s)
        res = bootstrap_bias_reduce(s, est, 6, RngStream(8080, rep | _BOOT_BIT["closed"]))
        star[rep] = res.estimate
    truth = {"mu": 4.0, "sigma": 2.0}
    by_label = {(r.param_name, r.estimator): r for r in rows}
    for j, pname in enumerate(("mu", "sigma")):
        assert by_label[(pname, "closed")].rb == relative_bias(star[:, j], truth[pname])
        assert by_label[(pname, "closed")].rmse == rmse(star[:, j], truth[pname])
        assert by_label[(pname, "closed-raw")].rb == relative_bias(hat[:, j], truth[pname])
        assert by_label[(pname, "closed-raw")].rmse == rmse(hat[:, j], truth[pname])
