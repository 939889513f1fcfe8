"""The three workloads: inputs drawn from the seed, and the timed rounds.

Every workload runs the same operations in each round: its study, split into
one ``gamgen experiment --config`` run per grid cell and study seed, and a
fixed batch of library calls (sample, sample-numeric, log_pdf, cdf, quantile,
fit, bootstrap, full-ml), with the study runs spread evenly among the library
calls. Every timed operation is kept short (about 1-20 ms on a quiet core):
the host this was tuned on slows its cores by 1.2-1.8x in bursts that switch
within a fraction of a second, and only a short call's fastest repetition
falls reliably into a quiet stretch. A round is short too, so that each
operation repeats many times in a run. The workloads differ in the study grid
and in the generators the library batch uses; ``lib-calls`` alone adds the
six tail probes, which fail on every round until the tail faults are mended.

Outputs are reduced to float vectors. The first round's vectors are written to
disk for the checks, so that they do not count in the run's peak memory; later
rounds must reproduce them bit for bit (the inputs repeat).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

import gamgen
from gamgen import cli

from refgen import ref_generator

ALPHAS = (0.5, 1.0, 2.0, 4.0, 6.0)
POINTS = ((0.5, 1.0), (3.0, 1.2))  # (mu, sigma) of every library call
LIB_GENERATORS = (
    "gamma",
    "weibull(delta=2)",
    "inverse-gamma",
    "burr-xii(c=2)",
    "dagum(c=2)",
    "gompertz",
    "new-log-generalized-gamma(delta=1)",
)
NUMERIC_GENERATOR = "traditional-weibull"

POINTWISE_SIZE = 100_000  # log_pdf / cdf arguments drawn per (generator, point)
CHUNK = 10_000  # log_pdf / cdf points per call: log_pdf runs on every chunk of the
# arguments, cdf on the first Spec.cdf_calls chunks
SAMPLE_SIZE = 20_000  # draws per sample call
SAMPLE_CALLS = 5  # sample calls (streams) per (generator, point)
NUMERIC_SIZE = 2_000  # traditional-weibull draws per call
NUMERIC_CALLS = 4  # calls (streams) per point
FIT_N = 200
FIT_SAMPLES = 8  # distinct n=200 samples fitted per (generator, point)
BOOT_N = 200
BOOT_B = 8  # resamples per bootstrap call: a B=200 call lasts 30-180 ms, too long to
# time steadily on a contended core; the rate is per resample estimate either way
BOOT_CALLS = 8  # bootstrap calls (streams) per estimator kind and bootstrap point
FULL_ML_N = 1000
FULL_ML_POWER = 1.5
FULL_ML_SETS = 4  # data sets fitted per point


@dataclass(frozen=True)
class Study:
    generator: str
    thetas: tuple
    ns: tuple
    N: int
    B: int
    estimator: str

    @property
    def replications(self) -> int:
        return self.N * len(self.thetas) * len(self.ns)

    def config_text(self, seed: int) -> str:
        lines = [f"generator={self.generator}"]
        lines += ["theta=" + ",".join(f"{k}={v!r}" for k, v in t.items()) for t in self.thetas]
        lines += [
            "n=" + ",".join(str(n) for n in self.ns),
            f"N={self.N}",
            f"B={self.B}",
            f"seed={seed}",
            f"estimator={self.estimator}",
        ]
        return "\n".join(lines) + "\n"

    def cells(self):
        """The grid as one-cell studies, in the grid's order."""
        for theta in self.thetas:
            for n in self.ns:
                yield Study(self.generator, (theta,), (n,), self.N, self.B, self.estimator)


@dataclass(frozen=True)
class Spec:
    name: str
    study: Study  # the grid; N is per cell and study seed
    study_seeds: int  # one-cell configs per grid cell, each with its own seed
    generators: tuple
    cdf_calls: int  # cdf calls per (generator, point), CHUNK points each
    levels: int  # central quantile levels per (generator, point), one call each: the
    # midpoints of that many equal parts of [0.01, 0.99]. Fixed, because a solve's cost
    # depends on where its level falls (random levels spread the rate by 0.46 across
    # seeds); the tail probes cover the tails.
    boot_calls: int  # bootstrap calls per estimator kind and bootstrap point
    probes: bool


SPECS = {
    s.name: s
    for s in (
        Spec(
            "study-closed",
            Study(
                "new-log-generalized-gamma(delta=1)",
                tuple({"alpha": a, "beta": 1.0} for a in ALPHAS),
                (20, 50, 100, 200, 400, 600),
                N=6,
                B=200,
                estimator="closed",
            ),
            study_seeds=1,
            generators=("new-log-generalized-gamma(delta=1)",),
            cdf_calls=10,
            levels=16,
            boot_calls=BOOT_CALLS,
            probes=False,
        ),
        Spec(
            "study-ml",
            Study(
                "gamma",
                tuple({"alpha": a, "beta": 1.0} for a in ALPHAS),
                (3, 10, 20),
                N=4,
                B=200,
                estimator="ml",
            ),
            study_seeds=3,
            generators=("gamma",),
            cdf_calls=10,
            levels=16,
            boot_calls=BOOT_CALLS,
            probes=False,
        ),
        Spec(
            "lib-calls",
            Study(
                "gamma",
                tuple({"mu": mu, "sigma": s} for mu, s in POINTS),
                (50,),
                N=5,
                B=200,
                estimator="both",
            ),
            study_seeds=4,
            generators=LIB_GENERATORS,
            cdf_calls=3,
            levels=6,
            boot_calls=2,
            probes=True,
        ),
    )
}

# Tail probes: fixed inputs, each judged at 1e-12 relative by the checks.
PROBES = (
    ("quantile", "gamma", (3.0, 1.0), 1e-300),
    ("quantile", "gamma", (3.0, 1.0), 1e-12),
    ("quantile", "gamma", (3.0, 1.0), 1.0 - 1e-12),
    ("cdf", "inverse-gamma", (3.0, 1.0), 0.05),
    ("cdf", "inverse-gamma", (3.0, 1.0), 0.1),
    ("cdf", "new-log-generalized-gamma(delta=1)", (3.0, 1.0), 800.0),
)


@dataclass
class Combo:
    """Inputs of the library calls for one (generator, point) pair."""

    spec: str
    index: int
    mu: float
    sigma: float
    generator: object
    points: np.ndarray  # log_pdf / cdf arguments, drawn by the benchmark
    levels: np.ndarray
    fit_samples: tuple
    sample_streams: tuple
    boot_streams: tuple = ()  # one bootstrap call per stream and kind, the k-th stream on
    # boot_sample(k); empty: none

    @property
    def params(self):
        return gamgen.FamilyParams(self.mu, self.sigma)

    def chunk(self, k: int) -> np.ndarray:
        return self.points[k * CHUNK:(k + 1) * CHUNK]

    def boot_sample(self, k: int) -> np.ndarray:
        """The sample of the k-th bootstrap call: each call resamples its own
        data, because an ML solve's cost depends on the sample."""
        return self.points[k * BOOT_N:(k + 1) * BOOT_N]


@dataclass
class Inputs:
    spec: Spec
    seed: int
    outdir: str
    configs: list  # (path, seed, one-cell Study) per study config
    combos: list
    numeric: list  # (generator, mu, sigma, stream) of traditional-weibull calls
    full_ml: list  # (mu, sigma, data), fitted under ``gamma``
    gamma: object


def study_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def prepare(name: str, seed: int, outdir: str) -> Inputs:
    """Set-up: build generators, draw the library inputs, write the configs."""
    spec = SPECS[name]
    os.makedirs(outdir, exist_ok=True)
    configs = []
    for cell in spec.study.cells():
        for _ in range(spec.study_seeds):
            k = len(configs)
            path = os.path.join(outdir, f"study-{k}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cell.config_text(study_seed(seed, k)))
            configs.append((path, study_seed(seed, k), cell))

    combos = []
    for i, gspec in enumerate(spec.generators):
        g = gamgen.parse_generator_spec(gspec)
        ref = ref_generator(gspec)
        for j, (mu, sigma) in enumerate(POINTS):
            rng = np.random.default_rng([seed, i, j])
            y = ref.Tinv(rng.gamma(mu, 1.0 / (mu * sigma), POINTWISE_SIZE))
            combo = Combo(
                spec=gspec,
                index=len(combos),
                mu=mu,
                sigma=sigma,
                generator=g,
                points=y,
                levels=0.01 + 0.98 * (np.arange(spec.levels) + 0.5) / spec.levels,
                fit_samples=tuple(y[k * FIT_N:(k + 1) * FIT_N] for k in range(FIT_SAMPLES)),
                sample_streams=tuple(range(1000 + SAMPLE_CALLS * len(combos),
                                           1000 + SAMPLE_CALLS * (len(combos) + 1))),
            )
            if j == i % 2:  # one bootstrap point per generator, alternating
                base = 2000 + BOOT_CALLS * len(combos)
                combo.boot_streams = tuple(range(base, base + spec.boot_calls))
            combos.append(combo)

    tw = gamgen.make_generator(NUMERIC_GENERATOR)
    numeric = [(tw, mu, sigma, 3000 + NUMERIC_CALLS * j + k)
               for j, (mu, sigma) in enumerate(POINTS) for k in range(NUMERIC_CALLS)]
    full_ml = []
    for j, (mu, sigma) in enumerate(POINTS):
        rng = np.random.default_rng([seed, 99, j])
        for _ in range(FULL_ML_SETS):
            z = rng.gamma(mu, 1.0 / (mu * sigma), FULL_ML_N)
            full_ml.append((mu, sigma, z ** (1.0 / FULL_ML_POWER)))
    gamma = gamgen.make_generator("gamma")
    return Inputs(spec, seed, outdir, configs, combos, numeric, full_ml, gamma)


@dataclass
class Record:
    """What the checks need: saved first-round outputs and every round's digests."""

    outdir: str
    digests: dict = field(default_factory=dict)  # op key -> digest of round 0
    mismatches: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # operations that raised or exited non-zero
    probe_outputs: dict = field(default_factory=dict)  # probe index -> value or error name
    study_csv: dict = field(default_factory=dict)  # config index -> (path, seed, digest)
    attempted: int = 0
    rounds: int = 0
    round_wall: list = field(default_factory=list)  # seconds per round
    seconds: dict = field(default_factory=dict)  # timed op key -> seconds per call
    work: dict = field(default_factory=dict)  # timed op key -> (rate metric, work per call)

    def rates(self) -> dict:
        """Work per second of each family of operations, keyed by its rate
        metric: the operations' work over the sum of their fastest times.
        Every operation repeats on the same inputs and does the same work each
        time, so its fastest repetition is its cost on an uncontended core; on
        a shared machine other processes slow the whole core by up to 1.8x for
        seconds at a time, which a median over one run does not remove."""
        work, seconds = {}, {}
        for key, times in self.seconds.items():
            family, units = self.work[key]
            work[family] = work.get(family, 0) + units
            seconds[family] = seconds.get(family, 0.0) + min(times)
        return {f: work[f] / seconds[f] for f in work}

    def _path(self, key) -> str:
        return os.path.join(self.outdir, "op-" + "-".join(map(str, key)) + ".npy")

    def save(self, key, vec: np.ndarray):
        np.save(self._path(key), vec)

    def output(self, key):
        """The first round's output of an operation, or None if it never ran."""
        return np.load(self._path(key)) if key in self.digests else None


def _digest(vec: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(vec, dtype=np.float64).tobytes()).hexdigest()


def _as_vector(result) -> np.ndarray:
    if isinstance(result, gamgen.EstimateReport):
        return np.array(
            [result.sigma_hat, result.mu_hat_closed, result.mu_hat_ml, result.solver.iterations]
            + list(result.native.values())
        )
    if isinstance(result, gamgen.BootstrapResult):
        return np.concatenate(
            [result.estimate, result.uncorrected, [result.n_used, result.n_excluded]]
        )
    if isinstance(result, gamgen.FullMlFit):
        return np.array(
            [result.mu, result.sigma, result.power, result.iterations, result.residual,
             result.infeasible_points]
        )
    return np.atleast_1d(np.asarray(result, dtype=np.float64))


class Runner:
    """Runs whole rounds of one workload and records their outputs and times."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.record = Record(inputs.outdir)
        studies = [lambda k=k: self._study(k) for k in range(len(inputs.configs))]
        library = self._library_ops()
        # the study runs spread evenly among the library calls
        self.ops = []
        for j, op in enumerate(library):
            self.ops += studies[j * len(studies) // len(library):
                                (j + 1) * len(studies) // len(library)]
            self.ops.append(op)

    def _time(self, family: str, key, work: int, seconds: float):
        """Record one call's time; ``family`` names the rate metric it counts in."""
        self.record.seconds.setdefault(key, []).append(seconds)
        self.record.work[key] = (family, work)

    def _op(self, family: str, key, work: int, call):
        self.record.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as ex:  # noqa: BLE001 - any failure is reported by the checks
            self.record.errors.append(f"{key}: {type(ex).__name__}: {ex}")
            return
        self._time(family, key, work, time.perf_counter() - t0)
        vec = _as_vector(result)
        digest = _digest(vec)
        if key not in self.record.digests:
            self.record.digests[key] = digest
            self.record.save(key, vec)
        elif self.record.digests[key] != digest:
            self.record.mismatches.append(f"{key}: round {self.record.rounds} differs from round 0")

    def _study(self, k: int):
        path, seed, study = self.inputs.configs[k]
        csv = os.path.join(self.inputs.outdir, f"study-{k}.csv")
        argv = ["experiment", "--config", path, "--out", csv, "--workers", "1"]
        self.record.attempted += 1
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            self.record.errors.append(f"study config {k}: gamgen experiment exited {code}")
            return
        self._time("study_reps_per_s", ("study", k), study.replications, seconds)
        with open(csv, "rb") as fh:
            digest = hashlib.sha1(fh.read()).hexdigest()
        first = self.record.study_csv.setdefault(k, (csv, seed, digest))
        if first[2] != digest:
            self.record.mismatches.append(f"study config {k}: CSV differs between rounds")

    def _probes(self):
        for i, (kind, gspec, (mu, sigma), x) in enumerate(PROBES):
            self.record.attempted += 1
            g = gamgen.parse_generator_spec(gspec)
            params = gamgen.FamilyParams(mu, sigma)
            fn = gamgen.quantile if kind == "quantile" else gamgen.cdf
            try:
                out = float(fn(x, params, g))
            except Exception as ex:  # noqa: BLE001 - a probe that raises is a failed probe
                out = getattr(ex, "name", type(ex).__name__)
            self.record.probe_outputs.setdefault(i, out)
            if self.record.probe_outputs[i] != out:
                self.record.mismatches.append(f"probe {i}: output differs between rounds")

    def _library_ops(self) -> list:
        """One round's library calls, generator by generator, with the
        sample-numeric and full-ml calls spread between the generators."""
        seed, inputs = self.inputs.seed, self.inputs
        extras = [
            lambda g=g, mu=mu, sigma=sigma, stream=stream: self._op(
                "sample_numeric_per_s", ("sample-numeric", stream), NUMERIC_SIZE,
                lambda: gamgen.sample(NUMERIC_SIZE, gamgen.FamilyParams(mu, sigma), g,
                                      gamgen.RngStream(seed, stream)))
            for g, mu, sigma, stream in inputs.numeric
        ]
        extras += [
            lambda j=j, y=y: self._op(
                "full_ml_per_s", ("full-ml", j), 1,
                lambda: gamgen.fit_full_ml(gamgen.Sample(y), inputs.gamma))
            for j, (_, _, y) in enumerate(inputs.full_ml)
        ]
        ops = []
        combos = inputs.combos
        for i, c in enumerate(combos):
            for stream in c.sample_streams:
                ops.append(lambda c=c, stream=stream: self._op(
                    "sample_per_s", ("sample", c.index, stream), SAMPLE_SIZE,
                    lambda: gamgen.sample(SAMPLE_SIZE, c.params, c.generator,
                                          gamgen.RngStream(seed, stream))))
            for k in range(POINTWISE_SIZE // CHUNK):
                y = c.chunk(k)
                ops.append(lambda c=c, k=k, y=y: self._op(
                    "log_pdf_per_s", ("log_pdf", c.index, k), y.size,
                    lambda: gamgen.log_pdf(y, c.params, c.generator)))
            for k in range(self.inputs.spec.cdf_calls):
                y = c.chunk(k)
                ops.append(lambda c=c, k=k, y=y: self._op(
                    "cdf_per_s", ("cdf", c.index, k), y.size,
                    lambda: gamgen.cdf(y, c.params, c.generator)))
            for k in range(c.levels.size):
                u = c.levels[k:k + 1]
                ops.append(lambda c=c, k=k, u=u: self._op(
                    "quantile_per_s", ("quantile", c.index, k), 1,
                    lambda: gamgen.quantile(u, c.params, c.generator)))
            for k, y in enumerate(c.fit_samples):
                ops.append(lambda c=c, k=k, y=y: self._op(
                    "fit_per_s", ("fit", c.index, k), 1,
                    lambda: gamgen.fit_family(gamgen.Sample(y), c.generator)))
            for k, stream in enumerate(c.boot_streams):
                for kind in ("closed", "ml"):
                    ops.append(lambda c=c, k=k, kind=kind, stream=stream: self._op(
                        "bootstrap_per_s", ("bootstrap", c.index, kind, stream), BOOT_B,
                        lambda: gamgen.bootstrap_bias_reduce(
                            gamgen.Sample(c.boot_sample(k)),
                            gamgen.native_estimator(c.generator, kind),
                            BOOT_B,
                            gamgen.RngStream(seed, stream))))
            ops += extras[i * len(extras) // len(combos):(i + 1) * len(extras) // len(combos)]
        return ops

    def run_round(self):
        """Every operation once, then the tail probes."""
        t_start = time.perf_counter()
        for op in self.ops:
            op()
        if self.inputs.spec.probes:
            self._probes()
        self.record.round_wall.append(time.perf_counter() - t_start)
        self.record.rounds += 1
