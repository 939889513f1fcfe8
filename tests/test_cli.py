"""Command-line interface: exit codes, exact output, determinism."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gamgen.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv_lines(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


@pytest.fixture()
def data123(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1\n2\n3\n", encoding="utf-8")
    return str(path)


def test_fit_exact_output(data123, capsys):
    code, out, err = run_cli(["fit", "--generator", "gamma", data123], capsys)
    assert code == 0
    assert err == ""
    got = kv_lines(out)
    assert got["generator"] == "gamma"
    assert got["n"] == "3"
    assert got["sigma_hat"] == "0.5"
    assert got["mu_hat_closed"] == "5.4614353597610226"
    assert got["mu_hat_ml"] == "5.3752094836935536"
    # native map reported for generators that define one
    assert float(got["alpha"]) == float(got["mu_hat_closed"])
    assert float(got["beta"]) == pytest.approx(
        1.0 / (float(got["mu_hat_closed"]) * 0.5), rel=1e-15
    )


def test_fit_json_output(data123, capsys):
    code, out, err = run_cli(["fit", "--generator", "gamma", "--json", data123], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["sigma_hat"] == 0.5
    assert obj["mu_hat_closed"] == 5.4614353597610226
    assert obj["mu_hat_ml"] == 5.3752094836935536
    assert obj["n"] == 3


def test_fit_rejects_nonpositive_observation(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("1\n0\n3\n", encoding="utf-8")
    code, out, err = run_cli(["fit", "--generator", "gamma", str(path)], capsys)
    assert code == 3
    assert kv_lines(err)["error"] == "nonpositive-observation"


def test_fit_rejects_junk_line(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("1\ntwo\n3\n", encoding="utf-8")
    code, out, err = run_cli(["fit", "--generator", "gamma", str(path)], capsys)
    assert code == 3
    assert kv_lines(err)["error"] == "data-error"
    assert "2" in kv_lines(err)["message"]  # line number of the bad entry


def test_fit_missing_file_is_data_error(tmp_path, capsys):
    code, out, err = run_cli(
        ["fit", "--generator", "gamma", str(tmp_path / "absent.txt")], capsys
    )
    assert code == 3


def test_fit_overflow_reports_only_the_error_lines(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("800\n1\n2\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "gamgen.cli", "fit", "--generator", "nlgg", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert [line.partition("=")[0] for line in lines] == ["error", "message"]
    assert kv_lines(proc.stderr)["error"] == "overflow"


def test_fit_unknown_generator_is_usage_error(data123, capsys):
    code, out, err = run_cli(["fit", "--generator", "nope", data123], capsys)
    assert code == 2
    assert kv_lines(err)["error"] == "unknown-generator"


def test_fit_single_observation_still_reports_sigma(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("4\n", encoding="utf-8")
    code, out, err = run_cli(["fit", "--generator", "gamma", str(path)], capsys)
    assert code == 4
    got = kv_lines(out)
    assert got["sigma_hat"] == "0.25"
    assert got["mu_hat_closed"] == "degenerate-sample"
    assert got["mu_hat_ml"] == "degenerate-sample"
    assert kv_lines(err)["error"] == "degenerate-sample"


def test_fit_json_error_stream(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("-1\n2\n", encoding="utf-8")
    code, out, err = run_cli(["fit", "--generator", "gamma", "--json", str(path)], capsys)
    assert code == 3
    obj = json.loads(err)
    assert obj["error"] == "nonpositive-observation"


def test_sample_deterministic_and_calibrated(tmp_path, capsys):
    args = ["sample", "--generator", "gamma", "--mu", "1", "--sigma", "1",
            "--n", "100000", "--seed", "7"]
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert run_cli(args + ["--out", p1], capsys)[0] == 0
    assert run_cli(args + ["--out", p2], capsys)[0] == 0
    b1 = open(p1, "rb").read()
    assert b1 == open(p2, "rb").read()
    y = np.loadtxt(p1)
    assert y.shape == (100000,)
    assert np.all(y > 0)
    # gamma generator at mu=sigma=1: E[Y] = 1
    assert abs(y.mean() - 1.0) < 0.02


def test_sample_stdout_matches_file(tmp_path, capsys):
    args = ["sample", "--generator", "rayleigh", "--param", "beta=1.5",
            "--n", "5", "--seed", "3"]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    path = str(tmp_path / "f.txt")
    run_cli(args + ["--out", path], capsys)
    assert out == open(path, encoding="utf-8").read()


def test_sample_then_fit_recovers_parameters(tmp_path, capsys):
    path = str(tmp_path / "y.txt")
    code, _, _ = run_cli(
        ["sample", "--generator", "nakagami", "--mu", "2", "--sigma", "0.5",
         "--n", "200000", "--seed", "11", "--out", path],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(["fit", "--generator", "nakagami", str(path)], capsys)
    assert code == 0
    got = kv_lines(out)
    assert float(got["sigma_hat"]) == pytest.approx(0.5, rel=0.02)
    assert float(got["mu_hat_closed"]) == pytest.approx(2.0, rel=0.05)
    assert float(got["mu_hat_ml"]) == pytest.approx(2.0, rel=0.05)


def test_sample_usage_errors(tmp_path, capsys):
    # --mu without --sigma
    code, _, err = run_cli(
        ["sample", "--generator", "gamma", "--mu", "1", "--n", "5", "--seed", "1"],
        capsys,
    )
    assert code == 2
    # value grids are not allowed outside the experiment subcommand
    code, _, err = run_cli(
        ["sample", "--generator", "gamma", "--mu", "1,2", "--sigma", "1",
         "--n", "5", "--seed", "1"],
        capsys,
    )
    assert code == 2
    # native names must match the generator's map
    code, _, err = run_cli(
        ["sample", "--generator", "gamma", "--param", "k=2", "--n", "5",
         "--seed", "1"],
        capsys,
    )
    assert code == 2


def test_experiment_csv_determinism_across_workers(tmp_path, capsys):
    base = ["experiment", "--generator", "gamma", "--mu", "3", "--sigma", "1",
            "--n", "12,20", "--N", "5", "--B", "6", "--seed", "99",
            "--estimator", "both"]
    p1, p2, p3 = (str(tmp_path / f"{k}.csv") for k in "abc")
    assert run_cli(base + ["--out", p1], capsys)[0] == 0
    assert run_cli(base + ["--out", p2], capsys)[0] == 0
    assert run_cli(base + ["--out", p3, "--workers", "2"], capsys)[0] == 0
    b1 = open(p1, "rb").read()
    assert b1 == open(p2, "rb").read()
    assert b1 == open(p3, "rb").read()
    header = b1.decode("utf-8").splitlines()[0]
    assert header == "generator,param_name,theta_true,n,estimator,rb,rmse,failures,N,B,seed"


def test_experiment_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "generator=gamma\ntheta=mu=2,sigma=1\nn=10\nN=4\nB=2\nseed=5\n",
        encoding="utf-8",
    )
    out = str(tmp_path / "m.csv")
    code, _, err = run_cli(
        ["experiment", "--config", str(cfg), "--N", "3", "--out", out], capsys
    )
    assert code == 0
    assert f"wrote {out}" in err
    import csv

    with open(out, encoding="utf-8", newline="") as fh:
        recs = list(csv.DictReader(fh))
    assert all(rec["N"] == "3" and rec["B"] == "2" for rec in recs)


def test_experiment_malformed_config_number_is_data_error(tmp_path, capsys):
    good = {"n": "10", "N": "4", "B": "2", "seed": "5"}
    out = str(tmp_path / "m.csv")
    for key in good:
        cfg = tmp_path / f"bad_{key}.cfg"
        lines = ["generator=gamma", "theta=mu=2,sigma=1"]
        lines += [f"{k}={'abc' if k == key else v}" for k, v in good.items()]
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_cli(["experiment", "--config", str(cfg), "--out", out], capsys)
        assert code == 3
        assert kv_lines(err)["error"] == "data-error"
        assert key in kv_lines(err)["message"]


def test_experiment_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # no generator, config, or preset
    assert run_cli(["experiment", "--out", out], capsys)[0] == 2
    # preset without seed
    assert run_cli(["experiment", "--paper-figure1", "--out", out], capsys)[0] == 2
    # missing n grid
    assert run_cli(
        ["experiment", "--generator", "gamma", "--mu", "1", "--sigma", "1",
         "--seed", "1", "--out", out],
        capsys,
    )[0] == 2


def test_plot_writes_parsable_svg(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    code, _, _ = run_cli(
        ["experiment", "--generator", "gamma", "--alpha", "2,4", "--beta", "1",
         "--n", "10,15", "--N", "4", "--B", "3", "--seed", "21", "--out", out],
        capsys,
    )
    assert code == 0
    prefix = str(tmp_path / "fig")
    code, _, err = run_cli(["plot", "--in", out, "--out", prefix], capsys)
    assert code == 0
    paths = [line.split(" ", 1)[1] for line in err.splitlines() if line.startswith("wrote ")]
    assert len(paths) == 2  # one figure per theta grid point
    for p in paths:
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")


def test_experiment_plot_flag_writes_figures(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    code, _, err = run_cli(
        ["experiment", "--generator", "gamma", "--mu", "2", "--sigma", "1",
         "--n", "10", "--N", "3", "--B", "2", "--seed", "9", "--out", out,
         "--plot"],
        capsys,
    )
    assert code == 0
    wrote = [line for line in err.splitlines() if line.startswith("wrote ")]
    assert len(wrote) >= 2  # the CSV plus at least one SVG


def test_plot_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n", encoding="utf-8")
    code, _, err = run_cli(
        ["plot", "--in", str(bad), "--out", str(tmp_path / "fig")], capsys
    )
    assert code == 3


def test_argparse_usage_exits_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gamgen.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fit" in proc.stdout and "experiment" in proc.stdout
