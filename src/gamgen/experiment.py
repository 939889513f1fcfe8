"""Monte Carlo study of estimator bias: RB and RMSE over (theta, n) grids.

Every replication owns the stream keyed by (cell index << 32) | replication,
and each estimator kind's bootstrap resampling runs on a substream with a
distinct high bit set, so results do not depend on execution order or worker
count. Cells are independent tasks, submitted largest n first; a single
reducer walks them in index order, which makes the CSV byte-stable.

A cell runs each estimation stage once for all its replications. Each
replication draws its sample on its own stream (one whose draw fails fails
alone) and computes its pointwise rows (estimators._pointwise) once. One
_theta_from_means call per kind turns the row means of every replication
into raw estimates, through estimators._from_means and
estimators._native_theta, which also serve fit_full_ml and fit_family; a row
that overflows fails a replication only for the kinds that read it.
bootstrap._resample_estimates then runs the bootstrap of every replication
whose raw estimate succeeded, each on its own substream: it draws each
replication's (B, n) index matrix in row blocks, and _resample_evaluator
gathers only the rows a kind reads (estimators._KIND_ROWS) through each
block, each as its own contiguous block, so every mean is summed in the same
order as on the resampled sample itself. One _theta_from_means call, and so
one ML root solve, estimates all N B resamples of the cell, and each redraw
round one more for the candidates of every replication. Every stage is
elementwise or a _mean_last row reduction, so the bits are those of one
replication at a time. bootstrap_bias_reduce runs the same loop with the
same evaluator, which native_estimator attaches to its callable; tests pin
both against one estimator call per resample, bit for bit.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bootstrap import _resample_estimates, relative_bias, rmse
from .distribution import FamilyParams, Sample, sample
from .errors import DataError, DomainError, GamgenError, InvalidSampleError, positive_array
from .estimators import (
    _KIND_ROWS,
    _from_means,
    _mean_last,
    _native_theta,
    _pointwise,
    _pointwise_rows,
    estimate_mu_closed,
    estimate_mu_ml,
    estimate_sigma,
)
from .generators import Generator, parse_generator_spec
from .special import RngStream

__all__ = [
    "ExperimentConfig",
    "MetricsRow",
    "CSV_HEADER",
    "run_experiment",
    "write_csv",
    "read_csv_rows",
    "paper_figure1_config",
    "smoke_config",
    "parse_config_file",
    "native_estimator",
]

CSV_HEADER = "generator,param_name,theta_true,n,estimator,rb,rmse,failures,N,B,seed"

_BOOT_BIT = {"closed": 1 << 63, "ml": (1 << 63) | (1 << 62)}

PAPER_ALPHAS = (0.5, 1.0, 2.0, 4.0, 6.0)
PAPER_NS = (20, 50, 100, 200, 400, 600)


@dataclass(frozen=True)
class ExperimentConfig:
    generator: str
    theta: tuple
    n: tuple
    N: int
    B: int
    seed: int
    estimator: str = "closed"

    def __post_init__(self):
        if self.estimator not in ("closed", "ml", "both"):
            raise DomainError("estimator must be one of closed, ml, both")
        if int(self.N) < 1:
            raise DomainError("need N >= 1 Monte Carlo replications")
        if int(self.B) < 0:
            raise DomainError("need B >= 0 bootstrap replications")
        if not self.theta:
            raise DomainError("theta grid is empty")
        if not self.n or any(int(v) < 2 for v in self.n):
            raise DomainError("every n in the grid must be >= 2")
        for t in self.theta:
            if not t:
                raise DomainError("theta grid entries must name at least one parameter")
            for k, v in t.items():
                positive_array(float(v), f"theta parameter {k}")


@dataclass(frozen=True)
class MetricsRow:
    generator: str
    param_name: str
    theta_true: float
    n: int
    estimator: str
    rb: float
    rmse: float
    failures: int
    N: int
    B: int
    seed: int
    elapsed: float

    def __post_init__(self):
        if self.failures < self.N:
            if not (np.isfinite(self.rb) and self.rb >= 0.0):
                raise DomainError("RB must be finite and >= 0")
            if not (np.isfinite(self.rmse) and self.rmse >= 0.0):
                raise DomainError("RMSE must be finite and >= 0")


def _family_params_of(g: Generator, theta: dict):
    """(mu, sigma) for a theta dict given either natively or directly."""
    names = set(theta)
    if names == {"mu", "sigma"}:
        return float(theta["mu"]), float(theta["sigma"]), ("mu", "sigma")
    if g.native is None:
        raise DomainError(
            f"generator {g.name} has no native parameter map; give mu and sigma"
        )
    if names != set(g.native.names):
        raise DomainError(
            f"theta for {g.name} must name exactly {g.native.names} (or mu, sigma)"
        )
    mu, sigma = g.native.to_family(**{k: float(v) for k, v in theta.items()})
    return float(mu), float(sigma), tuple(g.native.names)


def _theta_from_means(M, g: Generator, param_names, kind: str, spread_ok: np.ndarray):
    """Estimates from the (B,) means M[r] of pointwise rows r: returns
    ((k, B) array, ok mask), False where _from_means or _native_theta fails.

    spread_ok marks resamples with at least two distinct observations; both
    kinds require it, mirroring the degeneracy guards of estimate_mu_closed
    and estimate_mu_ml so both code paths classify every resample alike.
    """
    mu, sigma, ok = _from_means(M, kind, spread_ok)
    theta = _native_theta(g, param_names, mu, sigma)
    return theta, ok & ~np.isnan(theta[0])


def native_estimator(g: Generator, kind: str, param_names=None):
    """Sample -> parameter vector callable matching the vectorized engine.

    The callable carries ``resample_evaluator``, which maps a Sample to the
    study engine's means-based evaluation of its resamples (see
    _resample_evaluator). bootstrap_bias_reduce builds it first and then runs
    the estimator once, on the original sample, which reads the row means the
    evaluator left cached; a plain wrapper around the callable has no such
    attribute and keeps one estimator call per resample. kind is "closed" or
    "ml".
    """
    if kind not in _KIND_ROWS:
        raise DomainError("estimator kind must be closed or ml")
    if param_names is None:
        param_names = tuple(g.native.names) if g.native is not None else ("mu", "sigma")

    def estimate(s: Sample) -> np.ndarray:
        sigma = estimate_sigma(s, g)
        mu = estimate_mu_closed(s, g) if kind == "closed" else estimate_mu_ml(s, g)[0]
        return _native_theta(g, param_names, mu, sigma, InvalidSampleError)

    def resample_evaluator(s: Sample):
        return _resample_evaluator([_pointwise_rows(s, g)], [s.values], g, param_names, kind)

    estimate.resample_evaluator = resample_evaluator
    return estimate


def _spread_mask(y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """True where a resample y[idx[b]] has two or more distinct values."""
    if idx.shape[-1] < 2:
        return np.zeros(idx.shape[:-1], dtype=bool)
    return (y[idx] != y[idx[..., :1]]).any(axis=-1)


def _resample_evaluator(P, y, g, param_names, kind):
    """The evaluate of bootstrap._resample_estimates for samples y[s] with
    pointwise rows P[s]: (s, (m, n) index block) pairs -> ((k, M) estimates,
    ok (M,)) for their M rows in order.

    Each row the kind reads is gathered on its own: P[s][r] is a contiguous
    row, so P[s][r][idx] is a C-contiguous block that _mean_last sums in
    place, in the same order as the row means of the resampled sample. Rows
    the kind does not read are never gathered. The means of every block go
    to one _theta_from_means call.
    """
    rows = _KIND_ROWS[kind]

    def evaluate(blocks):
        means = {r: [] for r in rows}
        spread = []
        for s, idx in blocks:
            for r in rows:
                means[r].append(_mean_last(P[s][r][idx]))
            spread.append(_spread_mask(y[s], idx))
        M = {r: np.concatenate(parts) for r, parts in means.items()}
        return _theta_from_means(M, g, param_names, kind, np.concatenate(spread))

    return evaluate


def _run_cell(payload):
    """All N replications of one (theta, n) cell. Pure function of payload."""
    (cell_idx, gen_spec, theta, n, N, B, seed, kinds) = payload
    g = parse_generator_spec(gen_spec)
    mu, sigma, param_names = _family_params_of(g, theta)
    params = FamilyParams(mu, sigma)
    k = len(param_names)
    t0 = time.perf_counter()

    corrected = {kd: np.full((N, k), np.nan) for kd in kinds}
    raw = {kd: np.full((N, k), np.nan) for kd in kinds}
    reps, ys, Ps = [], [], []
    for rep in range(N):
        try:
            y = sample(n, params, g, RngStream(seed, (cell_idx << 32) | rep))
        except GamgenError:
            continue
        reps.append(rep)
        ys.append(y)
        Ps.append(_pointwise(g, y))
    if not reps:
        return cell_idx, param_names, corrected, raw, time.perf_counter() - t0
    M = np.stack([_mean_last(P) for P in Ps], axis=1)
    whole = np.arange(n)[None, :]
    spread = np.array([_spread_mask(y, whole)[0] for y in ys])
    for kd in kinds:
        theta_hat, ok = _theta_from_means(M, g, param_names, kd, spread)
        live = np.nonzero(ok)[0]
        raw[kd][np.asarray(reps)[live]] = theta_hat[:, live].T
        if B == 0:
            corrected[kd] = raw[kd].copy()
            continue
        if live.size == 0:
            continue
        brngs = [RngStream(seed, (cell_idx << 32) | reps[i] | _BOOT_BIT[kd]) for i in live]
        evaluate = _resample_evaluator(
            [Ps[i] for i in live], [ys[i] for i in live], g, param_names, kd
        )
        star, star_ok = _resample_estimates(n, B, brngs, evaluate)
        for j, i in enumerate(live):
            cols = slice(j * B, (j + 1) * B)
            used = star_ok[cols]
            if used.any():
                corrected[kd][reps[i]] = 2.0 * theta_hat[:, i] - _mean_last(star[:, cols][:, used])
    elapsed = time.perf_counter() - t0
    return cell_idx, param_names, corrected, raw, elapsed


def run_experiment(config: ExperimentConfig, workers: int = 1):
    """Run the full grid and return MetricsRow objects in deterministic order.

    Rows per cell: parameter outer, estimator kind inner (corrected before
    raw). With B = 0 there is no correction, so only the bare kind appears.
    """
    workers = int(workers)
    if workers < 1:
        raise DomainError("workers must be >= 1")
    g = parse_generator_spec(config.generator)
    kinds = {"closed": ("closed",), "ml": ("ml",), "both": ("closed", "ml")}[
        config.estimator
    ]
    N, B, seed = int(config.N), int(config.B), int(config.seed)

    cells = []
    for theta in config.theta:
        _family_params_of(g, theta)  # validate every grid point up front
        for n in config.n:
            cells.append((dict(theta), int(n)))
    payloads = [
        (ci, config.generator, theta, n, N, B, seed, kinds)
        for ci, (theta, n) in enumerate(cells)
    ]

    if workers == 1 or len(payloads) == 1:
        results = [_run_cell(p) for p in payloads]
    else:
        # largest n first, so the longest cells do not start last; the
        # results are still read in index order
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                ci: pool.submit(_run_cell, payloads[ci])
                for ci in sorted(range(len(payloads)), key=lambda ci: -payloads[ci][3])
            }
            results = [futures[ci].result() for ci in range(len(payloads))]

    rows = []
    for (theta, n), (cell_idx, param_names, corrected, raw, elapsed) in zip(
        cells, results
    ):
        for j, pname in enumerate(param_names):
            truth = float(theta[pname])
            for kd in kinds:
                variants = ((kd, corrected[kd]),) if B == 0 else (
                    (kd, corrected[kd]),
                    (kd + "-raw", raw[kd]),
                )
                for label, table in variants:
                    col = table[:, j]
                    good = col[np.isfinite(col)]
                    failures = N - good.size
                    if good.size:
                        rb = relative_bias(good, truth)
                        rmse_v = rmse(good, truth)
                    else:
                        rb = float("nan")
                        rmse_v = float("nan")
                    rows.append(
                        MetricsRow(
                            generator=config.generator,
                            param_name=pname,
                            theta_true=truth,
                            n=n,
                            estimator=label,
                            rb=rb,
                            rmse=rmse_v,
                            failures=failures,
                            N=N,
                            B=B,
                            seed=seed,
                            elapsed=elapsed,
                        )
                    )
    return rows


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(rows: Sequence[MetricsRow], path: str) -> None:
    """CSV with the exact schema header, UTF-8, LF endings, 17 digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in rows:
            writer.writerow(
                [
                    r.generator,
                    r.param_name,
                    _fmt(r.theta_true),
                    r.n,
                    r.estimator,
                    _fmt(r.rb),
                    _fmt(r.rmse),
                    r.failures,
                    r.N,
                    r.B,
                    r.seed,
                ]
            )


def read_csv_rows(path: str):
    """Rows of a metrics CSV as dicts with numeric fields parsed."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise DataError("unexpected CSV header")
        out = []
        for rec in reader:
            rec = dict(rec)
            for key in ("theta_true", "rb", "rmse"):
                rec[key] = float(rec[key])
            for key in ("n", "failures", "N", "B", "seed"):
                rec[key] = int(rec[key])
            out.append(rec)
    return out


def paper_figure1_config(seed: int, N: int = 1000, B: int = 200) -> ExperimentConfig:
    """The published study grid: alpha in {0.5,1,2,4,6}, beta = 1."""
    return ExperimentConfig(
        generator="new-log-generalized-gamma(delta=1)",
        theta=tuple({"alpha": a, "beta": 1.0} for a in PAPER_ALPHAS),
        n=PAPER_NS,
        N=N,
        B=B,
        seed=int(seed),
        estimator="closed",
    )


def smoke_config(seed: int) -> ExperimentConfig:
    """Reduced replication counts for a fast end-to-end check."""
    return paper_figure1_config(seed, N=200, B=50)


def _parse_theta_value(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DataError(f"theta entry {text!r} is not name=value pairs")
        k, _, v = part.partition("=")
        try:
            out[k.strip()] = float(v)
        except ValueError as exc:
            raise DataError(f"bad theta value in {text!r}") from exc
    if not out:
        raise DataError("empty theta entry")
    return out


def _config_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise DataError(f"config value for {key} is not an integer: {text!r}") from exc


def parse_config_file(path: str) -> ExperimentConfig:
    """Flat key=value config; repeated keys build the grids.

    Keys: generator, theta (repeated; each a comma-joined name=value list),
    n (repeated or comma-separated), N, B, seed, estimator. Blank lines and
    #-comments are ignored.
    """
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value.strip()))

    generator = None
    thetas = []
    ns = []
    scalars = {}
    for key, value in pairs:
        if key == "generator":
            generator = value
        elif key == "theta":
            thetas.append(_parse_theta_value(value))
        elif key == "n":
            for tok in value.split(","):
                if tok.strip():
                    ns.append(_config_int(key, tok))
        elif key in ("N", "B", "seed"):
            scalars[key] = _config_int(key, value)
        elif key == "estimator":
            scalars[key] = value
        else:
            raise DataError(f"unknown config key {key!r}")
    if generator is None:
        raise DataError("config is missing generator=")
    for req in ("N", "seed"):
        if req not in scalars:
            raise DataError(f"config is missing {req}=")
    if not thetas:
        raise DataError("config needs at least one theta= line")
    if not ns:
        raise DataError("config needs at least one n= line")
    return ExperimentConfig(
        generator=generator,
        theta=tuple(thetas),
        n=tuple(ns),
        N=scalars["N"],
        B=scalars.get("B", 0),
        seed=scalars["seed"],
        estimator=scalars.get("estimator", "closed"),
    )
