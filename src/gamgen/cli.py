"""Command-line front end: fit, sample, experiment, plot.

Exit codes: 0 success, 2 usage, 3 data error, 4 numerical failure. Failures
print machine-readable `error=<name>` / `message=...` lines on stderr (a JSON
object with --json).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys

import numpy as np

from .distribution import FamilyParams, Sample, sample as draw_sample
from .errors import (
    DataError,
    DomainError,
    GamgenError,
    NonpositiveObservationError,
    OverflowInValue,
)
from .estimators import (
    _native_theta,
    estimate_mu_closed,
    estimate_mu_ml,
    estimate_sigma,
)
from .experiment import (
    ExperimentConfig,
    _family_params_of,
    parse_config_file,
    paper_figure1_config,
    read_csv_rows,
    run_experiment,
    smoke_config,
    write_csv,
)
from .generators import parse_generator_spec
from .special import RngStream
from .svgplot import write_figure_svgs

__all__ = ["main"]

_USAGE_ERRORS = (DomainError,)
_DATA_ERRORS = (DataError, NonpositiveObservationError)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _emit(pairs, as_json: bool, stream=None) -> None:
    stream = stream or sys.stdout
    if as_json:
        obj = {}
        for k, v in pairs:
            obj[k] = float(v) if isinstance(v, (float, np.floating)) else v
        stream.write(json.dumps(obj, sort_keys=False) + "\n")
    else:
        for k, v in pairs:
            text = _fmt(v) if isinstance(v, (float, np.floating)) else str(v)
            stream.write(f"{k}={text}\n")


def _fail(ex: Exception, as_json: bool) -> int:
    if isinstance(ex, _USAGE_ERRORS):
        code = 2
    elif isinstance(ex, _DATA_ERRORS) or isinstance(ex, OSError):
        code = 3
    else:
        code = 4
    name = getattr(ex, "name", None) or "data-error"
    _emit([("error", name), ("message", str(ex))], as_json, sys.stderr)
    return code


def _read_data(path: str) -> np.ndarray:
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: not a decimal literal: {text!r}") from exc
    if not values:
        raise DataError(f"{path}: no observations")
    return np.asarray(values, dtype=np.float64)


def _parse_value_list(text: str) -> list:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            out.append(float(tok))
    if not out:
        raise DomainError(f"empty value list: {text!r}")
    return out


def _theta_grid_from_flags(args) -> tuple:
    """Cross product of the parameter value lists, in fixed flag order."""
    lists = []
    if args.mu is not None or args.sigma is not None:
        if args.mu is None or args.sigma is None:
            raise DomainError("give both --mu and --sigma, or neither")
        if args.alpha is not None or args.beta is not None or args.param:
            raise DomainError("--mu/--sigma cannot be combined with native flags")
        lists.append(("mu", _parse_value_list(args.mu)))
        lists.append(("sigma", _parse_value_list(args.sigma)))
    else:
        if args.alpha is not None:
            lists.append(("alpha", _parse_value_list(args.alpha)))
        if args.beta is not None:
            lists.append(("beta", _parse_value_list(args.beta)))
        for entry in args.param or ():
            if "=" not in entry:
                raise DomainError(f"--param needs name=value[,value...]: {entry!r}")
            name, _, vals = entry.partition("=")
            lists.append((name.strip(), _parse_value_list(vals)))
    if not lists:
        raise DomainError("no parameter values given")
    names = [n for n, _ in lists]
    if len(set(names)) != len(names):
        raise DomainError("a parameter was given more than once")
    grid = []
    for combo in itertools.product(*(vals for _, vals in lists)):
        grid.append(dict(zip(names, combo)))
    return tuple(grid)


def _single_theta(args) -> dict:
    grid = _theta_grid_from_flags(args)
    if len(grid) != 1:
        raise DomainError("this subcommand takes single parameter values, not grids")
    return grid[0]


def cmd_fit(args) -> int:
    try:
        values = _read_data(args.data)
        g = parse_generator_spec(args.generator)
        s = Sample(values)
        sigma_hat = estimate_sigma(s, g)
    except Exception as ex:  # noqa: BLE001 - single funnel to exit codes
        return _fail(ex, args.json)

    pairs = [("generator", args.generator), ("n", s.n), ("sigma_hat", sigma_hat)]
    failed = None
    mu_closed = None
    try:
        mu_closed = estimate_mu_closed(s, g)
        pairs.append(("mu_hat_closed", mu_closed))
    except GamgenError as ex:
        failed = failed or ex
        pairs.append(("mu_hat_closed", ex.name))
    try:
        mu_ml, diag = estimate_mu_ml(s, g)
        pairs.extend(
            [
                ("mu_hat_ml", mu_ml),
                ("ml_iterations", diag.iterations),
                ("ml_residual", diag.residual),
                ("ml_bracket_lo", diag.bracket[0]),
                ("ml_bracket_hi", diag.bracket[1]),
            ]
        )
    except GamgenError as ex:
        failed = failed or ex
        pairs.append(("mu_hat_ml", ex.name))
    if g.native is not None and mu_closed is not None:
        try:
            theta = _native_theta(g, g.native.names, mu_closed, sigma_hat, OverflowInValue)
            pairs.extend(zip(g.native.names, theta.tolist()))
        except GamgenError as ex:
            failed = failed or ex
            pairs.extend((k, ex.name) for k in g.native.names)
    _emit(pairs, args.json)
    if failed is not None:
        _emit([("error", failed.name), ("message", str(failed))], args.json, sys.stderr)
        return 4
    return 0


def cmd_sample(args) -> int:
    try:
        g = parse_generator_spec(args.generator)
        mu, sigma, _ = _family_params_of(g, _single_theta(args))
        n = int(args.n)
        y = draw_sample(n, FamilyParams(mu, sigma), g, RngStream(args.seed, 0))
    except Exception as ex:  # noqa: BLE001
        return _fail(ex, args.json)
    text = "\n".join(_fmt(v) for v in y) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _experiment_config(args) -> ExperimentConfig:
    overrides = {}
    if args.N is not None:
        overrides["N"] = int(args.N)
    if args.B is not None:
        overrides["B"] = int(args.B)
    if args.estimator is not None:
        overrides["estimator"] = args.estimator
    if args.paper_figure1 or args.smoke:
        if args.seed is None:
            raise DomainError("presets need --seed")
        base = smoke_config(args.seed) if args.smoke else paper_figure1_config(args.seed)
        return dataclasses.replace(base, **overrides)
    if args.config:
        if args.seed is not None:
            overrides["seed"] = args.seed
        return dataclasses.replace(parse_config_file(args.config), **overrides)
    if args.generator is None:
        raise DomainError("give --generator (or --config / a preset)")
    if args.seed is None:
        raise DomainError("--seed is required")
    if args.n is None:
        raise DomainError("--n is required (comma-separated grid)")
    return ExperimentConfig(
        generator=args.generator,
        theta=_theta_grid_from_flags(args),
        n=tuple(int(v) for v in _parse_value_list(args.n)),
        N=overrides.get("N", 1000),
        B=overrides.get("B", 200),
        seed=args.seed,
        estimator=overrides.get("estimator", "closed"),
    )


def cmd_experiment(args) -> int:
    try:
        cfg = _experiment_config(args)
        rows = run_experiment(cfg, workers=args.workers)
        write_csv(rows, args.out)
        written = [args.out]
        if args.plot:
            prefix = args.out[:-4] if args.out.endswith(".csv") else args.out
            written += write_figure_svgs(read_csv_rows(args.out), prefix)
    except Exception as ex:  # noqa: BLE001
        return _fail(ex, args.json)
    for path in written:
        sys.stderr.write(f"wrote {path}\n")
    return 0


def cmd_plot(args) -> int:
    try:
        rows = read_csv_rows(args.input)
        paths = write_figure_svgs(rows, args.out)
    except Exception as ex:  # noqa: BLE001
        return _fail(ex, args.json)
    for path in paths:
        sys.stderr.write(f"wrote {path}\n")
    return 0


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", help="family shape parameter value(s)")
    p.add_argument("--sigma", help="family rate parameter value(s)")
    p.add_argument("--alpha", help="native alpha value(s)")
    p.add_argument("--beta", help="native beta value(s)")
    p.add_argument(
        "--param",
        action="append",
        metavar="NAME=V[,V...]",
        help="any other native parameter (repeatable)",
    )


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as DomainError, so main reports it like every
    other failure; subparsers are made of the same class."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gamgen parser, built once per process: each parse_args call reads
    the argument list into a new namespace and leaves the parser as it was."""
    parser = _Parser(
        prog="gamgen",
        description="Estimators, samplers, and Monte Carlo studies for the "
        "generator-indexed gamma-type family.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_fit = sub.add_parser("fit", help="estimate (sigma, mu) from a data file")
    p_fit.add_argument("data", help="file with one positive decimal per line")
    p_fit.add_argument("--generator", required=True, help="e.g. gamma or burr-xii(c=2)")
    p_fit.add_argument("--json", action="store_true", help="JSON output")
    p_fit.set_defaults(fn=cmd_fit)

    p_sample = sub.add_parser("sample", help="draw observations to a file")
    p_sample.add_argument("--generator", required=True)
    _add_param_flags(p_sample)
    p_sample.add_argument("--n", required=True, type=int)
    p_sample.add_argument("--seed", required=True, type=int)
    p_sample.add_argument("--out", help="output path (default stdout)")
    p_sample.add_argument("--json", action="store_true")
    p_sample.set_defaults(fn=cmd_sample)

    p_exp = sub.add_parser("experiment", help="Monte Carlo RB/RMSE study")
    p_exp.add_argument("--config", help="key=value config file")
    p_exp.add_argument("--generator")
    _add_param_flags(p_exp)
    p_exp.add_argument("--n", help="comma-separated sample-size grid")
    p_exp.add_argument("--N", type=int, help="Monte Carlo replications")
    p_exp.add_argument("--B", type=int, help="bootstrap replications")
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument(
        "--estimator",
        choices=("closed", "ml", "both"),
        help="estimator kind (default: the preset's or config's, else closed)",
    )
    p_exp.add_argument("--out", required=True, help="CSV output path")
    p_exp.add_argument("--plot", action="store_true", help="also write SVG charts")
    p_exp.add_argument("--workers", type=int, default=1)
    p_exp.add_argument(
        "--paper-figure1",
        action="store_true",
        help="published study grid (N=1000, B=200)",
    )
    p_exp.add_argument(
        "--smoke", action="store_true", help="reduced grid run (N=200, B=50)"
    )
    p_exp.add_argument("--json", action="store_true")
    p_exp.set_defaults(fn=cmd_experiment)

    p_plot = sub.add_parser("plot", help="render SVG charts from a metrics CSV")
    p_plot.add_argument("--in", dest="input", required=True, help="metrics CSV path")
    p_plot.add_argument("--out", required=True, help="output SVG path prefix")
    p_plot.add_argument("--json", action="store_true")
    p_plot.set_defaults(fn=cmd_plot)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except DomainError as ex:
        return _fail(ex, "--json" in argv)
    except SystemExit as ex:  # --help
        return int(ex.code or 0)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
