"""The two Monte Carlo workloads: the fig2 panels and the all-estimator
threaded run.

A round runs, for each panel, one ``run_experiment`` + ``export``
(the replicates), one directly sampled path with the workload's
estimators called one by one (the estimate latencies), and one CLI pass
simulate -> score -> estimate on a path of the same design.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import oucv

import common
from common import Run

# The profiled-oracle grid costs 129 oracle evaluations per estimate; the
# first rounds of a run carry it.
GRID_ROUNDS = 3
# Bound on |mean| of sqrt(n) (p - p0) / p0 over a panel, in standard errors.
# The window pools a fixed number of rounds, so that it is the same gate
# however many rounds fit in the run.
CLT_STANDARD_ERRORS = 5.0
CLT_MIN_N = 200
CLT_ROUNDS = 4


@dataclass
class Panel:
    label: str
    config: object
    design: object
    F: object
    cli_design: str


def cli_design_arg(spec: dict) -> str:
    kind = spec["kind"]
    if kind == "regular":
        return f"regular:{spec['n']}"
    if kind == "maximal":
        return f"maximal:{spec['n']}:{spec['gamma']!r}"
    return f"minimal:{spec['n']}:{spec['alpha']!r}"


def fig2_configs():
    return [(name, oucv.make_preset(name)) for name in oucv.PRESET_NAMES]


def trend_configs():
    return [(
        "n200-regular-trend",
        oucv.ExperimentConfig(
            design={"kind": "regular", "n": 200},
            theta0=common.THETA0,
            sigma0_sq=common.SIGMA0_SQ,
            replicates=1,
            box=common.BOX,
            estimators=oucv.ESTIMATORS,
            seed=0,
            sigma1_sq=common.SIGMA1_SQ,
            theta2=common.THETA2,
            trend=common.TREND,
        ),
    )]


class MonteCarlo:
    def __init__(self, make_configs, replicates: int, threaded: bool, direct: tuple[str, ...]):
        self.make_configs = make_configs
        self.replicates = replicates
        self.threaded = threaded
        self.direct = direct
        self.experiments = []  # (round, panel, config, report, export dir) of the last untraced round
        self.paths = []  # (round, panel, data, results, CLI codes, score json, estimate json, CLI's library twin)
        self.pooled: dict[tuple[str, str], list[float]] = {}  # the CLT statistics of the first CLT_ROUNDS rounds

    def setup(self, run: Run) -> None:
        self.workers = run.nproc if self.threaded else None
        self.panels = []
        for label, cfg in self.make_configs():
            cfg = dataclasses.replace(cfg, replicates=self.replicates)
            design = oucv.build_design(cfg.design)
            F = cfg.trend.design_matrix(design) if cfg.trend is not None else None
            self.panels.append(Panel(label, cfg, design, F, cli_design_arg(cfg.design)))
        self.trend_args = []
        if any(p.F is not None for p in self.panels):
            trend_file = run.workdir / "trend.json"
            trend_file.write_text(json.dumps({"basis": "polynomial:1", "beta": list(common.TREND_BETA)}))
            self.trend_args = ["--trend", str(trend_file)]

    def round(self, run: Run, k: int, traced: bool) -> float:
        """One round; returns the summed time of its operations. A traced
        round repeats an untraced one, so only untraced rounds count
        operations and keep outputs for the checks."""
        tr = run.tracer
        count = not traced
        op_seconds = 0.0
        if traced:
            with tr.span("designs.build"):
                for p in self.panels:
                    oucv.build_design(p.config.design)
        for i, p in enumerate(self.panels):
            tr.next_op()
            cfg = dataclasses.replace(p.config, seed=common.derive_seed(run.seed, k, i, 0))
            if count:
                run.reference()
            with tr.span("montecarlo.run_experiment") as s_run:
                report = oucv.run_experiment(cfg, max_workers=self.workers)
            out = run.workdir / "experiments" / f"{k}-{i}"
            with tr.span("montecarlo.export") as s_export:
                oucv.export(report, out)
            op_seconds += s_run.seconds + s_export.seconds
            if count:
                run.replicates += cfg.replicates
                run.replicate_seconds += s_run.seconds + s_export.seconds
                run.attempted += cfg.replicates * len(cfg.estimators) + 1
                run.failed += sum(
                    1 for panel in report.panels.values() for rec in panel.records if rec.flags.startswith("failed")
                )
                self.experiments.append((k, p, cfg, report, out))
            else:
                serial = common.compare_modes(run, cfg, s_run, self.workers)
                common.replay_experiment(run, cfg, p.design, p.F, serial)

            tr.next_op()
            seed = common.derive_seed(run.seed, k, i, 1)
            with tr.span("simulate.sample_path") as s_path:
                y = oucv.sample_path(p.design, common.PARAMS, seed)
            data = y if p.F is None else p.F @ cfg.trend.beta + y
            results = {}
            for name in self.direct:
                if count:
                    run.reference()
                with tr.span(common.ESTIMATOR_SPANS[name]) as s_est:
                    results[name] = common.run_estimator(name, p.design, data, p.F)
                op_seconds += s_est.seconds
                if count:
                    run.estimate_s.append(s_est.seconds)
                elif name in common.SEARCH_ESTIMATORS:
                    run.iterations.append(results[name].iterations)
            op_seconds += s_path.seconds
            if count:
                run.attempted += 1 + len(self.direct)
            else:
                common.probe_layers(run, p.design, y, skip=self.direct)

            tr.next_op()
            cli_estimator = "cv-regression" if p.F is not None else "cv-joint"
            whole, spans, codes, score_json, est_json = common.cli_pass(
                run, run.workdir / "path.csv", p.cli_design, seed, self.trend_args, count
            )
            op_seconds += whole.seconds
            if count:
                self.paths.append((k, p, data, results, codes, score_json, est_json, results[cli_estimator]))
            else:
                common.replay_cli_pass(run, spans, p.config.design, seed, data, p.F, cli_estimator)
        return op_seconds

    def check(self, run: Run) -> None:
        """Checks the outputs the last untraced round kept, then drops them,
        so that memory does not grow with the number of rounds."""
        tau_sq = self.tau_squared()
        digest = hashlib.sha256()
        for k, p, cfg, report, out in self.experiments:
            n = p.design.n
            multi = len(report.panels) > 1
            for name, panel in report.panels.items():
                back = oucv.read_records(out / (f"records-{name}.csv" if multi else "records.csv"))
                if [repr(r) for r in back] != [repr(r) for r in panel.records]:
                    run.problem(f"{p.label} round {k} {name}: export -> read_records is not exact")
                for rec in panel.records:
                    if rec.flags.startswith("failed"):
                        continue
                    for msg in common.check_record(rec, n, tau_sq[p.label]):
                        run.problem(f"{p.label} round {k} {name}: {msg}")
                    if k < CLT_ROUNDS:
                        self.pooled.setdefault((p.label, name), []).append(
                            math.sqrt(n) * (rec.product - common.PRODUCT0) / common.PRODUCT0
                        )
                if k == 0:
                    for rec in panel.records:
                        digest.update(f"{p.label} {name} {rec!r}\n".encode())
            # the sampled replicate: replicate 1, recomputed on its documented stream
            y = oucv.sample_path(p.design, common.PARAMS, (cfg.seed, 1))
            data = y if p.F is None else p.F @ cfg.trend.beta + y
            for name, panel in report.panels.items():
                rec = panel.records[0]
                res = common.run_estimator(name, p.design, data, p.F)
                if (rec.theta_hat, rec.sigma2_hat, rec.objective) != (res.theta_hat, res.sigma2_hat, res.objective_value):
                    run.problem(f"{p.label} round {k} {name}: replicate 1 differs from a direct estimate on its stream")
                for msg in common.check_estimate(name, p.design, data, p.F, res, grid=k < GRID_ROUNDS):
                    run.problem(f"{p.label} round {k} replicate 1 {msg}")
            if k == 0:
                run.records_digest = digest.hexdigest()
                self.check_modes(run, p, cfg, report)

        for k, p, data, results, codes, score_json, est_json, cli_res in self.paths:
            for name, res in results.items():
                for msg in common.check_estimate(name, p.design, data, p.F, res, grid=k < GRID_ROUNDS):
                    run.problem(f"{p.label} round {k} direct {msg}")
            for msg in common.check_cli_pass(codes, score_json, est_json, p.design, data, cli_res):
                run.problem(f"{p.label} round {k} {msg}")
        self.experiments.clear()
        self.paths.clear()

    def finish(self, run: Run) -> None:
        """The CLT windows of the n = 200 panels, over the first CLT_ROUNDS rounds."""
        tau_sq = self.tau_squared()
        sizes = {p.label: p.design.n for p in self.panels}
        for (label, name), stats in self.pooled.items():
            if sizes[label] < CLT_MIN_N:
                continue
            variance = 2.0 if name == "ml-joint" else tau_sq[label]
            bound = CLT_STANDARD_ERRORS * math.sqrt(variance / len(stats))
            mean = float(np.mean(stats))
            if abs(mean) > bound:
                run.problem(f"{label} {name}: mean scaled statistic {mean:.4f} outside +-{bound:.4f}")

    def tau_squared(self) -> dict[str, float]:
        import oracles  # scipy.sparse stays out of the set-up time

        return {p.label: oracles.tau_squared(p.design.points) for p in self.panels}

    def check_modes(self, run: Run, p: Panel, cfg, report) -> None:
        """Serial and nproc-worker runs give bitwise-identical records on a subset."""
        other = None if self.workers else run.nproc
        subset = dataclasses.replace(cfg, replicates=min(cfg.replicates, 2 * run.nproc))
        rerun = oucv.run_experiment(subset, max_workers=other)
        for name, panel in rerun.panels.items():
            first = report.panels[name].records[: subset.replicates]
            if [repr(r) for r in panel.records] != [repr(r) for r in first]:
                run.problem(f"{p.label} {name}: serial and threaded records differ")


def mc_fig2() -> MonteCarlo:
    return MonteCarlo(fig2_configs, replicates=16, threaded=False, direct=("cv-joint",))


def mc_trend_threaded() -> MonteCarlo:
    return MonteCarlo(trend_configs, replicates=12, threaded=True, direct=tuple(common.ESTIMATOR_SPANS))
