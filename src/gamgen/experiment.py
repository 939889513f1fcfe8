"""Monte Carlo study of estimator bias: RB and RMSE over (theta, n) grids.

Every replication owns the stream keyed by (cell index << 32) | replication,
and each estimator kind's bootstrap resampling runs on a substream with a
distinct high bit set, so results do not depend on execution order or worker
count. Cells are independent tasks; a single reducer walks them in index
order, which makes the CSV byte-stable.

The bootstrap is vectorized: the pointwise rows of estimators._pointwise are
computed once per replication, and bootstrap estimates come from row means
gathered through the index matrices of bootstrap._resample_estimates, the
resampling loop that bootstrap_bias_reduce also runs. Only the evaluation of
a resample differs between the two, and tests pin it bit for bit.
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
from .errors import ConvergenceError, DataError, DomainError, GamgenError, InvalidSampleError
from .estimators import (
    _mean_last,
    _mu_closed_from_means,
    _pointwise,
    _solve_mu_ml_array,
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
                if not (np.isfinite(v) and v > 0.0):
                    raise DomainError(f"theta parameter {k} must be finite and > 0")


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


def _ml_mu_rows(h: np.ndarray, ok: np.ndarray) -> np.ndarray:
    mu = np.full(h.shape, np.nan)
    m = ok & np.isfinite(h) & (h > 0.0)
    if m.any():
        try:
            mu[m] = _solve_mu_ml_array(h[m])[0]
        except ConvergenceError:
            # isolate the offending rows; the rest still solve
            for i in np.nonzero(m)[0]:
                try:
                    mu[i] = _solve_mu_ml_array(np.array([h[i]]))[0][0]
                except ConvergenceError:
                    pass
    return mu


def _theta_from_means(M: np.ndarray, g: Generator, param_names, kind: str,
                      spread_ok: np.ndarray):
    """Estimates from column means M (6, B): returns ((k, B) array, ok mask).

    spread_ok marks resamples with at least two distinct observations; both
    kinds require it, mirroring the degeneracy guards of estimate_mu_closed
    and estimate_mu_ml so both code paths classify every resample alike.
    """
    mean_t1, mean_lt1, mean_ly, mean_w, mean_a, mean_r = M
    with np.errstate(all="ignore"):
        base = spread_ok & np.isfinite(mean_t1) & (mean_t1 > 0.0)
        sigma = np.where(base, 1.0 / mean_t1, np.nan)
        if kind == "closed":
            numer, denom = _mu_closed_from_means(mean_ly, mean_w, mean_t1, mean_a, mean_r)
            ok = base & np.isfinite(numer) & np.isfinite(denom) & (denom > 0.0)
            mu = np.where(ok, numer / denom, np.nan)
            ok = ok & np.isfinite(mu) & (mu > 0.0)
        else:
            h = np.log(mean_t1) - mean_lt1
            ok = base & np.isfinite(h) & (h > 0.0)
            mu = _ml_mu_rows(h, ok)
            ok = ok & np.isfinite(mu)
        if param_names == ("mu", "sigma") or g.native is None:
            theta = np.vstack([mu, sigma])
        else:
            native = g.native.from_family(mu, sigma)
            theta = np.vstack([np.asarray(native[k], dtype=np.float64) for k in param_names])
    ok = ok & np.all(np.isfinite(theta) | ~ok[None, :], axis=0)
    theta = np.where(ok[None, :], theta, np.nan)
    return theta, ok


def native_estimator(g: Generator, kind: str, param_names=None):
    """Sample -> parameter vector callable matching the vectorized engine.

    Used by the generic bootstrap routine and by tests pinning the two code
    paths against each other.
    """
    if param_names is None:
        param_names = tuple(g.native.names) if g.native is not None else ("mu", "sigma")

    def estimate(s: Sample) -> np.ndarray:
        sigma = estimate_sigma(s, g)
        if kind == "closed":
            mu = estimate_mu_closed(s, g)
        else:
            mu, _ = estimate_mu_ml(s, g)
        if param_names == ("mu", "sigma") or g.native is None:
            theta = np.array([mu, sigma])
        else:
            native = g.native.from_family(mu, sigma)
            theta = np.array([float(native[k]) for k in param_names])
        if np.any(~np.isfinite(theta)):
            raise InvalidSampleError("parameter estimate is not finite")
        return theta

    return estimate


def _spread_mask(y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """True where a resample y[idx[b]] has two or more distinct values."""
    if idx.shape[-1] < 2:
        return np.zeros(idx.shape[:-1], dtype=bool)
    return np.ptp(y[idx], axis=-1) != 0.0


def _correct_kind(P, y, n, B, brng, g, param_names, kind, theta_hat):
    """Bias-reduced vector for one estimator kind, or None if every resample
    failed."""

    def evaluate(idx):
        M = _mean_last(P[:, idx])
        return _theta_from_means(M, g, param_names, kind, _spread_mask(y, idx))

    theta, ok = _resample_estimates(n, B, brng, evaluate)
    if not ok.any():
        return None
    return 2.0 * theta_hat - _mean_last(theta[:, ok])


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
    for rep in range(N):
        base_id = (cell_idx << 32) | rep
        rng = RngStream(seed, base_id)
        try:
            y = sample(n, params, g, rng)
            P = _pointwise(g, y)
        except GamgenError:
            continue
        m_full = _mean_last(P)[:, None]
        spread_full = _spread_mask(y, np.arange(n)[None, :])
        for kd in kinds:
            th, ok = _theta_from_means(m_full, g, param_names, kd, spread_full)
            if not ok[0]:
                continue
            theta_hat = th[:, 0]
            raw[kd][rep] = theta_hat
            if B == 0:
                corrected[kd][rep] = theta_hat
                continue
            brng = RngStream(seed, base_id | _BOOT_BIT[kd])
            star = _correct_kind(P, y, n, B, brng, g, param_names, kd, theta_hat)
            if star is not None:
                corrected[kd][rep] = star
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, payloads))

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
                        # RMSE^2 >= squared mean bias, up to rounding
                        assert rmse_v**2 >= (rb * abs(truth)) ** 2 * (1.0 - 1e-12)
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
