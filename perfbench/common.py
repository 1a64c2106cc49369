"""Pieces the three workloads share: model constants, the in-process
CLI runner, the estimator dispatch, the per-layer probes and the oracle
checks of one estimate."""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oucv
import reference
from oucv import cli, numerics

# The generating model of every workload, and the fig2 presets' box.
THETA0 = 3.0
SIGMA0_SQ = 1.0
PRODUCT0 = THETA0 * SIGMA0_SQ
BOX_ARGS = (0.1, 10.0, 0.3, 30.0)
BOX_TEXT = ",".join(repr(v) for v in BOX_ARGS)
# Mis-specified fixed values for the fixed-sigma and fixed-theta estimators.
SIGMA1_SQ = 2.0
THETA2 = 1.5
TREND_BETA = (1.0, 2.0)  # polynomial:1 trend of the regression runs
BOX = oucv.ParameterBox(*BOX_ARGS)
PARAMS = oucv.CovarianceParams(theta=THETA0, sigma2=SIGMA0_SQ)
TREND = oucv.TrendSpec(beta=np.asarray(TREND_BETA), basis=oucv.polynomial_basis(1))

ESTIMATOR_SPANS = {
    "cv-joint": "estimation.cv_joint",
    "ml-joint": "estimation.ml_joint",
    "cv-fixed-sigma": "estimation.cv_fixed_sigma",
    "cv-fixed-theta": "estimation.cv_fixed_theta",
    "cv-regression": "regression.cv_reg",
}
SEARCH_ESTIMATORS = ("cv-joint", "ml-joint", "cv-fixed-sigma", "cv-regression")

# Oracle tolerances, relative: the project's dense-oracle tolerances.
RTOL = 1e-8
RTOL_TREND = 1e-7
ORACLE_GRID = 129  # log-spaced theta nodes of the profiled-oracle grid


def derive_seed(*parts: int) -> int:
    """A 63-bit seed from the run seed and position, stable across runs."""
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0] >> 1)


@dataclass
class Run:
    """What one benchmark invocation accumulates."""

    tracer: object
    workdir: Path
    seed: int
    nproc: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    estimate_s: list[float] = field(default_factory=list)
    cli_s: list[float] = field(default_factory=list)
    replicates: int = 0
    replicate_seconds: float = 0.0
    reference_s: list[float] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    speedups: list[float] = field(default_factory=list)
    serial_experiments: list = field(default_factory=list)  # spans of serial run_experiment calls
    records_digest: str = ""

    def reference(self) -> None:
        """Times the reference task once, right before an operation that is
        timed for an end-to-end metric."""
        self.reference_s.append(reference.seconds())

    def problem(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)


def run_estimator(name: str, design, data, F):
    if name == "cv-joint":
        return oucv.estimate_cv_joint(design, data, BOX)
    if name == "ml-joint":
        return oucv.estimate_ml_joint(design, data, BOX)
    if name == "cv-fixed-sigma":
        return oucv.estimate_cv_fixed_sigma(design, data, SIGMA1_SQ, BOX.theta_range)
    if name == "cv-fixed-theta":
        return oucv.estimate_cv_fixed_theta(design, data, THETA2, BOX.sigma2_range)
    if name == "cv-regression":
        return oucv.estimate_cv_reg(design, data, F, BOX)
    raise ValueError(name)


def run_cli(argv: list[str], stdout_path: Path | None = None) -> tuple[int, str, str]:
    """``oucv.cli.main`` in this process; returns (exit code, stdout, stderr)."""
    err = io.StringIO()
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(open(stdout_path, "w")) if stdout_path else out
        stack.enter_context(contextlib.redirect_stdout(sink))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def estimates_equal(cli_json: dict, res) -> bool:
    return (
        cli_json.get("theta_hat") == res.theta_hat
        and cli_json.get("sigma2_hat") == res.sigma2_hat
        and cli_json.get("product") == res.product
        and cli_json.get("objective_value") == res.objective_value
    )


def probe_layers(run: Run, design, y, skip: tuple[str, ...] = ()) -> None:
    """Traced rounds only: one call of each lower-layer public function on a
    path of the workload, at the workload's n, plus every estimator the
    workload does not already run on that path."""
    tr = run.tracer
    with tr.span("numerics.log_one_minus_exp_neg"):
        numerics.log_one_minus_exp_neg(2.0 * THETA0 * design.gaps)
    with tr.span("scoring.score_decomposition"):
        oucv.score_decomposition(design, y, THETA0)
    with tr.span("scoring.ml_decomposition"):
        oucv.ml_decomposition(design, y, THETA0)
    with tr.span("scoring.score_gradient_theta"):
        oucv.score_gradient_theta(design, y, THETA0, SIGMA0_SQ)
    with tr.span("scoring.log_score"):
        oucv.log_score(design, y, THETA0, SIGMA0_SQ)
    F = TREND.design_matrix(design)
    z = F @ np.asarray(TREND_BETA) + y
    with tr.span("regression.reg_score_decomposition"):
        oucv.reg_score_decomposition(design, z, THETA0, F)
    for name in ESTIMATOR_SPANS:
        if name in skip:
            continue
        data = z if name == "cv-regression" else y
        with tr.span(ESTIMATOR_SPANS[name]):
            res = run_estimator(name, design, data, F)
        if name in SEARCH_ESTIMATORS:
            run.iterations.append(res.iterations)


def check_estimate(name: str, design, data, F, res, grid: bool) -> list[str]:
    """Oracle checks of one estimate; returns the failures found."""
    import oracles

    b = BOX
    pts = design.points
    n = design.n
    if name == "cv-regression":
        rtol = RTOL_TREND

        def parts(thetas):
            rows = [oracles.trend_parts(pts, data, float(t), F) for t in np.atleast_1d(thetas)]
            return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    else:
        rtol = RTOL
        kernel = oracles.ml_parts if name == "ml-joint" else oracles.cv_parts

        def parts(thetas):
            return kernel(pts, data, thetas)

    out = []
    L, Q = parts(res.theta_hat)
    L, Q = float(L[0]), float(Q[0])
    if name == "cv-fixed-sigma":
        sigma2 = SIGMA1_SQ
    else:
        sigma2 = oracles.clamp(Q / n, b.b, b.B)
    if name == "cv-fixed-theta" and res.theta_hat != THETA2:
        out.append(f"{name}: theta_hat {res.theta_hat!r} is not the fixed {THETA2}")
    if not oracles.close(res.sigma2_hat, sigma2, rtol):
        out.append(f"{name}: sigma2_hat {res.sigma2_hat!r} != oracle clamp(Q/n) {sigma2!r}")
    expected = oracles.objective((L, Q), n, res.sigma2_hat)
    if not oracles.close(res.objective_value, expected, rtol):
        out.append(f"{name}: objective {res.objective_value!r} != oracle {expected!r} at theta_hat")
    if res.product != res.theta_hat * res.sigma2_hat:
        out.append(f"{name}: product {res.product!r} != theta_hat * sigma2_hat")
    if grid and name != "cv-fixed-theta":
        thetas = np.geomspace(b.a, b.A, ORACLE_GRID)
        Lg, Qg = parts(thetas)
        s2 = np.full_like(Qg, SIGMA1_SQ) if name == "cv-fixed-sigma" else np.clip(Qg / n, b.b, b.B)
        best = float(np.min(n * np.log(s2) + Lg + Qg / s2))
        if res.objective_value > best + rtol * max(abs(best), 1.0):
            out.append(f"{name}: objective {res.objective_value!r} worse than oracle grid minimum {best!r}")
    return out


def check_record(rec, n: int, tau_sq: float) -> list[str]:
    """product and std_stat of one replicate record, from their formulas."""
    import oracles

    out = []
    if rec.product != rec.theta_hat * rec.sigma2_hat:
        out.append(f"record {rec.replicate}: product != theta_hat * sigma2_hat")
    std = math.sqrt(n) * (rec.product - PRODUCT0) / (PRODUCT0 * math.sqrt(tau_sq))
    if not oracles.close(rec.std_stat, std, 1e-12):
        out.append(f"record {rec.replicate}: std_stat {rec.std_stat!r} != formula {std!r}")
    return out


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {}


def replay_experiment(run: Run, cfg, design, F, parent) -> None:
    """Traced rounds: the sample_path and estimator calls of the replicates
    a ``run_experiment`` call ran, as children of its span."""
    tr = run.tracer
    for r in range(1, cfg.replicates + 1):
        with tr.span("simulate.sample_path", parent=parent):
            y = oucv.sample_path(design, PARAMS, (cfg.seed, r))
        data = y if F is None else F @ cfg.trend.beta + y
        for name in cfg.estimators:
            with tr.span(ESTIMATOR_SPANS[name], parent=parent):
                run_estimator(name, design, data, F)


def compare_modes(run: Run, cfg, op_span, op_workers):
    """Traced rounds: the same config in the other execution mode, for the
    serial over threaded speed-up. Returns the serial call's span, to which
    the replayed replicate calls belong: in the threaded call they overlap,
    so its duration minus theirs is not montecarlo's own time."""
    other = None if op_workers else run.nproc
    with run.tracer.span("montecarlo.run_experiment.other") as span:
        oucv.run_experiment(cfg, max_workers=other)
    serial, threaded = (op_span, span) if op_workers is None else (span, op_span)
    run.speedups.append(serial.seconds / threaded.seconds)
    run.serial_experiments.append(serial)
    return serial


def replay_cli_pass(run: Run, spans, design_spec: dict, seed: int, data, F, estimator: str) -> None:
    """Traced rounds: the library calls each CLI command of a pass wraps,
    as children of that command's span."""
    tr = run.tracer
    simulate, score, estimate = spans
    with tr.span("designs.build_design", parent=simulate):
        design = oucv.build_design(design_spec)
    with tr.span("simulate.sample_path", parent=simulate):
        oucv.sample_path(design, PARAMS, seed)
    with tr.span("scoring.log_score", parent=score):
        oucv.log_score(design, data, THETA0, SIGMA0_SQ)
    with tr.span("scoring.score_decomposition", parent=score):
        oucv.score_decomposition(design, data, THETA0)
    with tr.span(ESTIMATOR_SPANS[estimator], parent=estimate):
        run_estimator(estimator, design, data, F)


def cli_pass(run: Run, csv: Path, design_arg: str, seed: int, trend_args: list[str], count: bool):
    """simulate -> score -> estimate through ``oucv.cli.main``; with ``count``
    one cli_s sample and three operations.

    Returns the pass's span, the three command spans, the exit codes, and
    the parsed score and estimate outputs.
    """
    tr = run.tracer
    if count:
        run.reference()
    simulate = ["simulate", "--design", design_arg, "--theta", repr(THETA0),
                "--sigma2", repr(SIGMA0_SQ), "--seed", str(seed)] + trend_args
    score = ["score", "--data", str(csv), "--theta", repr(THETA0), "--sigma2", repr(SIGMA0_SQ)]
    estimate = ["estimate", "--data", str(csv), "--box", BOX_TEXT] + trend_args
    with tr.span("cli.pass") as whole:
        with tr.span("cli.simulate") as s1:
            c1, _, _ = run_cli(simulate, csv)
        with tr.span("cli.score") as s2:
            c2, out2, _ = run_cli(score)
        with tr.span("cli.estimate") as s3:
            c3, out3, _ = run_cli(estimate)
    codes = (c1, c2, c3)
    if count:
        run.cli_s.append(whole.seconds)
        run.attempted += 3
        run.failed += sum(1 for c in codes if c != 0)
    return whole, (s1, s2, s3), codes, parse_json(out2), parse_json(out3)


def check_cli_pass(codes, score_json: dict, est_json: dict, design, data, res) -> list[str]:
    """The CLI pass against the sparse oracle and the library estimate on the same path."""
    import oracles

    out = []
    if codes != (0, 0, 0):
        return out  # already counted as failed operations
    L, Q = oracles.cv_parts(design.points, data, THETA0)
    expected = oracles.objective((float(L[0]), float(Q[0])), design.n, SIGMA0_SQ)
    if not (oracles.close(score_json.get("score", math.nan), expected, RTOL)
            and oracles.close(score_json.get("L", math.nan), float(L[0]), RTOL)
            and oracles.close(score_json.get("Q", math.nan), float(Q[0]), RTOL)):
        out.append(f"cli score {score_json} != oracle score {expected!r}")
    if not estimates_equal(est_json, res):
        out.append(f"cli estimate {est_json} != library estimate {res}")
    return out
