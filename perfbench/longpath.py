"""The long-path workload: a few paths at n = 10^5 on three designs.

A round runs, for each design, one sampled path estimated by cv-joint,
ml-joint and cv-fixed-sigma, one CLI pass simulate -> score -> estimate
on the same path, and one ``oucv estimate`` on a malformed copy of a
path CSV, whose correct outcome is exit 1 with an InvalidParameterError.
"""

from __future__ import annotations

import math
import os

import numpy as np
import oucv

import common
from common import Run

N = 100_000
ESTIMATORS = ("cv-joint", "ml-joint", "cv-fixed-sigma")
# The malformed input does not depend on the run seed, so the operation
# fails, or succeeds, the same way in every run.
MALFORMED_SEED = 1
MALFORMED_ROW = N // 2
# Bounds, in standard deviations: innovation mean and variance, and the
# products around theta0 sigma0^2 (variance tau^2, or 2 for ML, over n).
INNOVATION_SDS = 5.0
PRODUCT_SDS = 6.0


class LongPath:
    def __init__(self):
        self.paths = []  # (round, design index, path seed, results, codes, score json, estimate json)

    def setup(self, run: Run) -> None:
        gaps = np.random.default_rng(common.derive_seed(run.seed, 0, 0, 2)).dirichlet(np.ones(N - 1))
        points = np.concatenate(([0.0], np.cumsum(gaps)))
        points[-1] = 1.0
        point_file = run.workdir / "dirichlet-points.txt"
        point_file.write_text("\n".join(repr(float(v)) for v in points) + "\n")
        self.designs = [
            ({"kind": "regular", "n": N}, f"regular:{N}"),
            ({"kind": "maximal", "n": N, "gamma": 1.0 / N}, f"maximal:{N}:{1.0 / N!r}"),
            ({"kind": "points", "points": points}, f"file:{os.path.relpath(point_file)}"),
        ]
        self.built = [oucv.build_design(spec) for spec, _ in self.designs]

        self.malformed = run.workdir / "malformed.csv"
        code, _, err = common.run_cli(
            ["simulate", "--design", f"regular:{N}", "--theta", repr(common.THETA0),
             "--sigma2", repr(common.SIGMA0_SQ), "--seed", str(MALFORMED_SEED)],
            self.malformed,
        )
        if code != 0:
            raise RuntimeError(f"simulate for the malformed input exited {code}: {err}")
        lines = self.malformed.read_text().splitlines()
        index, s, _ = lines[MALFORMED_ROW].split(",")
        lines[MALFORMED_ROW] = f"{index},{s},oops"
        self.malformed.write_text("\n".join(lines) + "\n")

    def round(self, run: Run, k: int, traced: bool) -> float:
        """One round; returns the summed time of its operations. A traced
        round repeats an untraced one, so only untraced rounds count
        operations and keep outputs for the checks."""
        tr = run.tracer
        count = not traced
        op_seconds = 0.0
        if traced:
            with tr.span("designs.build"):
                for spec, _ in self.designs:
                    oucv.build_design(spec)
            self.experiment_probe(run, k)
        for i, design in enumerate(self.built):
            tr.next_op()
            seed = common.derive_seed(run.seed, k, i, 1)
            if count:
                run.reference()
            with tr.span("simulate.sample_path") as s_path:
                y = oucv.sample_path(design, common.PARAMS, seed)
            seconds = s_path.seconds
            results = {}
            for name in ESTIMATORS:
                if count:
                    run.reference()
                with tr.span(common.ESTIMATOR_SPANS[name]) as s_est:
                    results[name] = common.run_estimator(name, design, y, None)
                seconds += s_est.seconds
                if count:
                    run.estimate_s.append(s_est.seconds)
                else:
                    run.iterations.append(results[name].iterations)
            op_seconds += seconds
            if count:
                run.replicates += 1
                run.replicate_seconds += seconds
                run.attempted += 1 + len(ESTIMATORS)
            else:
                common.probe_layers(run, design, y, skip=ESTIMATORS)

            tr.next_op()
            whole, spans, codes, score_json, est_json = common.cli_pass(
                run, run.workdir / "path.csv", self.designs[i][1], seed, [], count
            )
            op_seconds += whole.seconds
            if not count:
                common.replay_cli_pass(run, spans, self.designs[i][0], seed, y, None, "cv-joint")

            tr.next_op()
            with tr.span("cli.estimate_malformed") as s_bad:
                code, _, err = common.run_cli(
                    ["estimate", "--data", str(self.malformed), "--box", common.BOX_TEXT,
                     "--mode", "fixed-theta", "--theta2", repr(common.THETA0)]
                )
            op_seconds += s_bad.seconds
            if count:
                run.attempted += 1
                if not (code == 1 and "InvalidParameterError" in err):
                    run.failed += 1
                self.paths.append((k, i, seed, results, codes, score_json, est_json))
        return op_seconds

    def experiment_probe(self, run: Run, k: int) -> None:
        """Traced rounds: the montecarlo layer at this n, which the workload
        itself does not call: nproc replicates of cv-joint on the regular design."""
        tr = run.tracer
        cfg = oucv.ExperimentConfig(
            design=self.designs[0][0], theta0=common.THETA0, sigma0_sq=common.SIGMA0_SQ,
            replicates=run.nproc, box=common.BOX, estimators=("cv-joint",),
            seed=common.derive_seed(run.seed, k, 0, 3),
        )
        tr.next_op()
        with tr.span("montecarlo.run_experiment") as s_run:
            report = oucv.run_experiment(cfg)
        with tr.span("montecarlo.export"):
            oucv.export(report, run.workdir / "experiment-probe")
        serial = common.compare_modes(run, cfg, s_run, None)
        common.replay_experiment(run, cfg, self.built[0], None, serial)

    def check(self, run: Run) -> None:
        """The paths are checked when the run ends, in ``finish``: the
        oracles at n = 10^5 hold more memory than a round, and would set the
        peak if they ran between rounds."""

    def finish(self, run: Run) -> None:
        """Checks every path, sampled again from its seed: a path is not
        kept, so that memory does not grow with the number of rounds."""
        import oracles

        tau_sq = [oracles.tau_squared(d.points) for d in self.built]
        for k, i, seed, results, codes, score_json, est_json in self.paths:
            design = self.built[i]
            y = oucv.sample_path(design, common.PARAMS, seed)
            where = f"{self.designs[i][1].split(':')[0]} round {k}"
            w = oracles.standardized_innovations(design.points, y, common.THETA0, common.SIGMA0_SQ)
            band = INNOVATION_SDS / math.sqrt(N)
            if abs(w.mean()) > band or abs(w.var() - 1.0) > band * math.sqrt(2.0):
                run.problem(f"{where}: innovations mean {w.mean():.5f} var {w.var():.5f} outside the band")
            for name, res in results.items():
                for msg in common.check_estimate(name, design, y, None, res, grid=False):
                    run.problem(f"{where} {msg}")
                variance = 2.0 if name == "ml-joint" else tau_sq[i]
                bound = PRODUCT_SDS * common.PRODUCT0 * math.sqrt(variance / N)
                if abs(res.product - common.PRODUCT0) > bound:
                    run.problem(f"{where} {name}: product {res.product} outside {common.PRODUCT0} +- {bound:.4f}")
            for msg in common.check_cli_pass(codes, score_json, est_json, design, y, results["cv-joint"]):
                run.problem(f"{where} {msg}")
