"""gamgen benchmark: one workload per run, end-to-end rates or per-layer spans.

    python3 perfbench/run.py --workload study-closed --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; gamgen is imported from ``src``, and
the metric names, their units and the default run length are read from
``BENCHMARK.json``. The run pins the BLAS/OpenMP pools to one thread, sets up
(timed as ``setup_s`` in fresh processes), runs whole rounds of the workload
until ``--seconds`` have passed, reads its peak memory, and then checks every
output against ``check``. Operations that raise, studies that exit non-zero
and tail probes that miss count as failed. With ``--trace 1`` it instead runs
``TRACE_ROUNDS`` rounds under the tracer and reports the per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 9  # fresh processes timed for setup_s, spread over the run; median reported
TRACE_ROUNDS = 2  # fixed, so the traced counts repeat exactly for a seed


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_program():
    """Import gamgen from this checkout's ``src``, or None when it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gamgen", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import gamgen

    if not os.path.abspath(gamgen.__file__).startswith(src + os.sep):
        return None
    return gamgen


def _outdir(workload, seed, probe=False):
    return os.path.join(HERE, "out", f"{workload}-{seed}" + ("-setup" if probe else ""))


def _setup_seconds(args) -> float:
    """Wall time from spawning a fresh interpreter to the end of its set-up."""
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - t0


def main(argv=None) -> int:
    bench = _benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if _import_program() is None:
        print(f"gamgen sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import workload

    if args.workload not in workload.SPECS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workload.SPECS)}")

    if args.setup_probe:
        workload.prepare(args.workload, args.seed, _outdir(args.workload, args.seed, True))
        print(repr(time.time()))
        return 0

    inputs = workload.prepare(args.workload, args.seed, _outdir(args.workload, args.seed))
    runner = workload.Runner(inputs)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        for c in inputs.combos:
            c.generator = tracer.wrap_generator(c.generator)
        inputs.numeric = [(tracer.wrap_generator(g), *rest) for g, *rest in inputs.numeric]
        inputs.gamma = tracer.wrap_generator(inputs.gamma)

    record = runner.record
    setup = []  # set-up probes run between rounds, spread over the run
    start = time.perf_counter()
    # gamgen experiment reports each CSV it writes on stderr, thousands of lines a run
    with open(os.devnull, "w") as quiet, contextlib.redirect_stderr(quiet):
        while not record.rounds or (
            record.rounds < TRACE_ROUNDS if tracer else time.perf_counter() - start < args.seconds
        ):
            runner.run_round()
            due = (time.perf_counter() - start) / args.seconds * SETUP_RUNS
            while not tracer and len(setup) < min(due, SETUP_RUNS):
                setup.append(_setup_seconds(args))
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(_outdir(args.workload, args.seed), "spans.jsonl"))
        metrics = tracer.metrics([(m["name"], m["unit"]) for m in bench["per_layer"]])
    else:
        setup += [_setup_seconds(args) for _ in range(SETUP_RUNS - len(setup))]
        values = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        values.update(record.rates())
        # a family none of whose calls succeeded reads 0; its calls count as failed
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    import check

    problems, failed_per_round = check.check_run(inputs, record, workload.PROBES)
    for msg in record.errors[:20]:
        print(f"OPERATION FAILED: {msg}", file=sys.stderr)
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"{args.workload}: {record.rounds} rounds in {wall:.3f} s, round wall median "
          f"{statistics.median(record.round_wall):.4f} s", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": record.attempted,
        "failed": len(record.errors) + failed_per_round * record.rounds,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
