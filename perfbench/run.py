"""Layered benchmark of oucv: one workload per invocation.

    python3 perfbench/run.py --workload mc-fig2 --seed 1 --seconds 15 --trace 0

Run from the root of an oucv source tree; the package is imported from
its ``src/`` directory, never from an installed copy. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from spans) with ``--trace 1``. The timings among the end-to-end
metrics are in units of a reference task timed beside them
(``reference.py``); the line before the result gives them in seconds.
See README.md in this directory.
"""

import os
import time

T_START = time.perf_counter()
# One BLAS thread: the only threads the benchmark runs are the nproc
# replicate workers of run_experiment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
SOURCE_FILES = ("__init__", "cli", "designs", "errors", "estimation", "montecarlo",
                "numerics", "regression", "scoring", "simulate")
# per-layer metrics that are the median duration of one named span
SPAN_METRICS = (
    "designs.build", "simulate.sample_path", "numerics.log_one_minus_exp_neg",
    "scoring.score_decomposition", "scoring.ml_decomposition",
    "scoring.score_gradient_theta", "scoring.log_score",
    "estimation.cv_joint", "estimation.ml_joint", "estimation.cv_fixed_sigma",
    "estimation.cv_fixed_theta", "regression.reg_score_decomposition", "regression.cv_reg",
    "montecarlo.run_experiment", "montecarlo.export",
    "cli.simulate", "cli.score", "cli.estimate",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["mc-fig2", "mc-trend-threaded", "long-path"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit (one setup_s sample)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oucv" / "__init__.py").is_file():
        print(f"error: no oucv source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import common
    import longpath
    import mc
    from tracer import Tracer

    workloads = {"mc-fig2": mc.mc_fig2, "mc-trend-threaded": mc.mc_trend_threaded, "long-path": longpath.LongPath}
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tracer = Tracer(enabled=False)
        run = common.Run(tracer, workdir, args.seed, len(os.sched_getaffinity(0)))
        workload = workloads[args.workload]()
        workload.setup(run)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        import oucv

        if not Path(oucv.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: oucv imported from {oucv.__file__}, not {SRC}", file=sys.stderr)
            return 2
        setup_samples = [setup_s]
        if not args.trace:
            setup_samples += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

        # Each untraced round is checked right after it runs (n <= 200), or
        # keeps only seeds and scalars for checks at the end (n = 10^5), so
        # memory does not grow with the number of rounds. The checks stay
        # out of the --seconds the rounds are given.
        untraced_s = traced_s = measured_s = 0.0
        rounds = []
        k = 0
        while True:
            tracer.enabled = False
            before = (run.replicates, run.replicate_seconds, len(run.estimate_s), len(run.cli_s),
                      len(run.reference_s))
            start = time.perf_counter()
            untraced_s += workload.round(run, k, traced=False)
            measured_s += time.perf_counter() - start
            rounds.append(round_figures(run, *before))
            workload.check(run)
            if args.trace:
                tracer.enabled = True
                start = time.perf_counter()
                traced_s += workload.round(run, k, traced=True)
                measured_s += time.perf_counter() - start
            k += 1
            if measured_s >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        workload.finish(run)
        if args.trace:
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
            metrics = per_layer_metrics(run, untraced_s, traced_s)
        else:
            metrics = end_to_end_metrics(rounds, setup_samples, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if run.records_digest:
        print(f"records_sha256={run.records_digest}")  # informational: compare two runs of one commit
    if not args.trace:
        print(" ".join(f"{name}={value!r}" for name, value in wall_clock(rounds).items()))  # informational
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"rounds={k}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def setup_probe(args) -> float:
    """set-up time of one fresh process, as it measures it itself"""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def round_figures(run, replicates: int, replicate_seconds: float, estimates: int, passes: int, references: int):
    """Of the last round: replicates per second, the mean estimate time,
    the mean CLI pass time, and the mean time of the reference task, which
    ran right before each of those operations."""
    return (
        (run.replicates - replicates) / (run.replicate_seconds - replicate_seconds),
        statistics.fmean(run.estimate_s[estimates:]),
        statistics.fmean(run.cli_s[passes:]),
        statistics.fmean(run.reference_s[references:]),
    )


def wall_clock(rounds) -> dict:
    """Medians over rounds of the round figures, in seconds."""
    columns = ("replicates_per_s", "estimate_s", "cli_s", "reference_s")
    return {name: statistics.median(column) for name, column in zip(columns, zip(*rounds))}


def end_to_end_metrics(rounds, setup_samples, peak_rss_mb) -> dict:
    """Medians over rounds: every round runs the same operations, so the
    rounds are like-for-like samples even where a round mixes operations
    of different cost. Each round's timings are divided by that round's
    reference time, which the host's swings move alike."""
    per_ref = [(rate * ref, estimate / ref, cli / ref) for rate, estimate, cli, ref in rounds]
    replicates_per_ref, estimate_ref, cli_ref = (statistics.median(column) for column in zip(*per_ref))
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "replicates_per_ref": (replicates_per_ref, "1/ref"),
        "estimate_ref": (estimate_ref, "ref"),
        "cli_ref": (cli_ref, "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(run, untraced_s: float, traced_s: float) -> dict:
    tracer = run.tracer
    out = {f"{name}_s": (statistics.median(tracer.durations(name)), "s") for name in SPAN_METRICS}
    own = tracer.self_seconds()
    experiments = [own[s.index] for s in run.serial_experiments]
    cli_self = [
        sum(own[c.index] for c in tracer.children(s)) for s in tracer.spans if s.name == "cli.pass"
    ]
    out["montecarlo.self_s"] = (statistics.median(experiments), "s")
    out["montecarlo.parallel_speedup"] = (statistics.median(run.speedups), "ratio")
    out["cli.self_s"] = (statistics.median(cli_self), "s")
    out["estimation.refine_iterations"] = (statistics.fmean(run.iterations), "count")
    out["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    for module in SOURCE_FILES:
        path = SRC / "oucv" / f"{module}.py"
        lines = len(path.read_text().splitlines()) if path.is_file() else 0
        out[f"{module.strip('_') or module}.source_lines"] = (lines, "lines")
    return out


if __name__ == "__main__":
    sys.exit(main())
