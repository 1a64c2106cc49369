"""Experiment harness: determinism, seed streams, export round-trips."""

import dataclasses
import json
import math
import platform

import numpy as np
import pytest

import oucv
from oucv import (
    ExperimentConfig,
    InvalidParameterError,
    ParameterBox,
    ReplicateRecord,
    TrendSpec,
    build_design,
    export,
    make_preset,
    polynomial_basis,
    read_records,
    run_experiment,
    standardized_statistic,
    summarize,
    tau_squared,
)
from oucv import montecarlo
from oucv.montecarlo import _summary_from_records

BOX = ParameterBox(0.1, 10.0, 0.3, 30.0)


def small_config(**overrides):
    base = dict(
        design={"kind": "regular", "n": 30},
        theta0=3.0,
        sigma0_sq=1.0,
        replicates=8,
        box=BOX,
        estimators=("cv-joint",),
        seed=4242,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_estimator(self):
        with pytest.raises(InvalidParameterError):
            small_config(estimators=("cv-join",))

    def test_fixed_modes_need_their_constants(self):
        with pytest.raises(InvalidParameterError):
            small_config(estimators=("cv-fixed-sigma",))
        with pytest.raises(InvalidParameterError):
            small_config(estimators=("cv-fixed-theta",))
        with pytest.raises(InvalidParameterError):
            small_config(estimators=("cv-regression",))

    def test_replicates_and_seed_must_be_integers(self):
        # a config built in Python fails closed like one read from a file:
        # no bool, no str, no fractional number is truncated or recorded
        base = make_preset("fig2-n12-regular")
        for key, value in (("seed", True), ("seed", "7"), ("replicates", 3.7), ("seed", 1.5), ("seed", -5)):
            with pytest.raises(InvalidParameterError, match=key):
                dataclasses.replace(base, **{key: value})
        cfg = dataclasses.replace(base, replicates=4.0, seed=np.int64(7))
        assert (cfg.replicates, cfg.seed) == (4, 7) and type(cfg.replicates) is type(cfg.seed) is int

    def test_real_parameters_must_be_positive_finite_numbers(self):
        # a str, a bool or a missing required value fails closed naming the
        # key, as a bad value read from a config file does
        base = make_preset("fig2-n12-regular")
        bad = [(key, value) for key in ("theta0", "sigma0_sq", "sigma1_sq", "theta2")
               for value in ("3", True, math.inf, -1.0, [1.0])]
        bad += [("theta0", None), ("sigma0_sq", None)]
        for key, value in bad:
            with pytest.raises(InvalidParameterError, match=key):
                dataclasses.replace(base, **{key: value})
        cfg = dataclasses.replace(base, theta0=np.float64(2.5), sigma0_sq=2, sigma1_sq=None, theta2=None)
        assert (cfg.theta0, cfg.sigma0_sq, cfg.sigma1_sq, cfg.theta2) == (2.5, 2, None, None)

    def test_build_design_kinds(self):
        assert build_design({"kind": "regular", "n": 12}).n == 12
        assert build_design({"kind": "maximal", "n": 12, "gamma": 1 / 12}).n == 12
        assert build_design({"kind": "minimal", "n": 12, "alpha": 0.5}).n == 12
        assert build_design({"kind": "points", "points": [0.0, 0.4, 1.0]}).n == 3
        with pytest.raises(InvalidParameterError):
            build_design({"kind": "sobol", "n": 12})


class TestDeterminism:
    def test_single_replicate_rerun_identical(self):
        cfg = small_config(replicates=1)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.panels["cv-joint"].records == b.panels["cv-joint"].records

    def test_parallel_serial_bitwise_equivalence(self, monkeypatch):
        # the default run is one chunk; chunks of 1 and of 5 replicates
        # give every record and summary field bitwise
        cfg = small_config(replicates=12)
        default = run_experiment(cfg)
        for chunk in (1, 5):
            monkeypatch.setattr(montecarlo, "replicate_chunk", lambda n: chunk)
            chunked = run_experiment(cfg)
            assert chunked.panels["cv-joint"].records == default.panels["cv-joint"].records
            assert chunked.panels["cv-joint"].summary == default.panels["cv-joint"].summary

    def test_std_stat_recomputable_from_record(self):
        cfg = small_config(replicates=6)
        report = run_experiment(cfg)
        tau = math.sqrt(report.tau_sq)
        for rec in report.panels["cv-joint"].records:
            expected = standardized_statistic(rec.product, 3.0, report.n, tau)
            assert rec.std_stat == expected

    def test_matched_seed_panels_share_paths(self):
        # both estimators see the same replicate data
        cfg = small_config(estimators=("cv-joint", "ml-joint"), replicates=5)
        report = run_experiment(cfg)
        cv_only = run_experiment(small_config(estimators=("cv-joint",), replicates=5))
        assert report.panels["cv-joint"].records == cv_only.panels["cv-joint"].records


class TestSummaries:
    def test_all_equal_statistics_have_zero_variance(self):
        recs = [
            ReplicateRecord(r, 1, 1.0, 3.0, 3.0, 0.5, -10.0, "-") for r in range(1, 6)
        ]
        s = _summary_from_records(recs, 2.955)
        assert s["variance"] == 0.0
        assert s["excluded"] == 0

    def test_synthetic_normal_records_variance_window(self):
        rng = np.random.default_rng(1357)
        vals = rng.standard_normal(2000)
        recs = [
            ReplicateRecord(r + 1, 1, 1.0, 3.0, 3.0, float(v), -10.0, "-")
            for r, v in enumerate(vals)
        ]
        s = _summary_from_records(recs, 2.955)
        assert 0.94 <= s["variance"] <= 1.06

    def test_failures_excluded_from_moments(self):
        recs = [
            ReplicateRecord(1, 1, 1.0, 3.0, 3.0, 0.25, -10.0, "-"),
            ReplicateRecord(2, 1, math.nan, math.nan, math.nan, math.nan, math.nan, "failed:X"),
            ReplicateRecord(3, 1, 1.0, 3.0, 3.0, 0.75, -10.0, "-"),
        ]
        s = _summary_from_records(recs, 2.955)
        assert s["excluded"] == 1
        assert s["mean"] == pytest.approx(0.5)

    def test_summarize_is_idempotent(self):
        report = run_experiment(small_config(replicates=6))
        again = summarize(report)
        assert again["cv-joint"] == report.panels["cv-joint"].summary

    def test_mean_drift_small_config(self):
        report = run_experiment(small_config(replicates=64))
        s = report.panels["cv-joint"].summary
        assert abs(s["mean"]) <= 3.0 / math.sqrt(64) + 0.1


class TestExport:
    def test_round_trip_identical_records(self, tmp_path):
        report = run_experiment(small_config(replicates=6))
        export(report, tmp_path)
        back = read_records(tmp_path / "records.csv")
        assert back == report.panels["cv-joint"].records

    def test_record_csv_has_eight_columns(self, tmp_path):
        report = run_experiment(small_config(replicates=3))
        export(report, tmp_path)
        lines = (tmp_path / "records.csv").read_text().strip().splitlines()
        assert lines[0] == "replicate,seed,theta_hat,sigma2_hat,product,std_stat,objective,flags"
        assert all(len(line.split(",")) == 8 for line in lines)

    def test_summary_json_tau_matches_design_functional(self, tmp_path):
        cfg = small_config(replicates=3)
        report = run_experiment(cfg)
        export(report, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["tau_sq"] == tau_squared(build_design(cfg.design))
        assert summary["regime"] == "boundary"  # aB == Ab == 3 for the shipped box
        assert summary["trend_p"] == 0
        # the fixed values of a run are echoed, null when unset
        assert (summary["sigma1_sq"], summary["theta2"]) == (None, None)
        fixed = small_config(replicates=2, estimators=("cv-fixed-sigma", "cv-fixed-theta"), sigma1_sq=2.0, theta2=1.5)
        export(run_experiment(fixed), tmp_path / "fixed")
        summary = json.loads((tmp_path / "fixed" / "summary.json").read_text())
        assert (summary["sigma1_sq"], summary["theta2"]) == (2.0, 1.5)
        # a polynomial:1 trend has p = 2 columns
        trend = TrendSpec(beta=[1.0, 2.0], basis=polynomial_basis(1))
        export(run_experiment(small_config(replicates=2, estimators=("cv-regression",), trend=trend)),
               tmp_path / "trend")
        assert json.loads((tmp_path / "trend" / "summary.json").read_text())["trend_p"] == 2

    def test_summary_json_names_the_versions_that_produced_it(self, tmp_path):
        export(run_experiment(small_config(replicates=2)), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["provenance"] == {"oucv": oucv.__version__, "numpy": np.__version__,
                                         "python": platform.python_version()}

    def test_summary_recomputed_from_csv_matches_bitwise(self, tmp_path):
        report = run_experiment(small_config(replicates=8))
        export(report, tmp_path)
        back = read_records(tmp_path / "records.csv")
        assert _summary_from_records(back, report.tau_sq) == report.panels["cv-joint"].summary

    def test_histogram_counts_sum_to_replicates(self, tmp_path):
        report = run_experiment(small_config(replicates=16))
        panel = report.panels["cv-joint"]
        assert int(panel.histogram_counts.sum()) + panel.summary["excluded"] == 16

    def test_a_points_design_array_is_written_as_a_list(self, tmp_path):
        points = np.linspace(0, 1, 12)
        export(run_experiment(small_config(design={"kind": "points", "points": points}, replicates=2)), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["design"] == {"kind": "points", "points": points.tolist()}
        assert build_design(summary["design"]).points.tolist() == points.tolist()

    def test_a_summary_that_fails_to_serialize_leaves_no_file(self, tmp_path, monkeypatch):
        report = run_experiment(small_config(replicates=2))
        monkeypatch.setitem(montecarlo._PROVENANCE, "oucv", object())
        with pytest.raises(TypeError):
            export(report, tmp_path)
        assert not (tmp_path / "summary.json").exists()

    def test_multi_estimator_files_carry_suffix(self, tmp_path):
        cfg = small_config(estimators=("cv-joint", "ml-joint"), replicates=3)
        export(run_experiment(cfg), tmp_path)
        assert (tmp_path / "records-cv-joint.csv").exists()
        assert (tmp_path / "records-ml-joint.csv").exists()
        assert (tmp_path / "summary.json").exists()


class TestEstimatorDispatch:
    def test_all_estimators_produce_records(self):
        trend = TrendSpec(beta=[0.5, 1.0], basis=polynomial_basis(1))
        cfg = small_config(
            estimators=("cv-joint", "cv-fixed-sigma", "cv-fixed-theta", "ml-joint", "cv-regression"),
            sigma1_sq=1.0,
            theta2=3.0,
            trend=trend,
            replicates=3,
        )
        report = run_experiment(cfg)
        assert set(report.panels) == set(cfg.estimators)
        for panel in report.panels.values():
            assert len(panel.records) == 3
            assert all(np.isfinite(rec.std_stat) for rec in panel.records)

    def test_an_overflowing_statistic_fails_its_replicate(self):
        # theta2 at the float maximum and the variance on its lower edge give
        # a finite product of 5.4e307, whose standardized statistic overflows
        cfg = small_config(design={"kind": "regular", "n": 12}, estimators=("cv-fixed-theta",),
                           theta2=1.7976931348623157e308, replicates=2)
        panel = run_experiment(cfg).panels["cv-fixed-theta"]
        assert [rec.flags for rec in panel.records] == ["failed:NumericalFailureError"] * 2
        assert panel.summary["excluded"] == 2
        with pytest.raises(oucv.NumericalFailureError, match="standardized statistic is not finite"):
            standardized_statistic(5.4e307, 3.0, 12, 1.5)

    def test_fixed_modes_standardize_the_product(self):
        cfg = small_config(
            estimators=("cv-fixed-sigma",), sigma1_sq=2.0, replicates=4
        )
        report = run_experiment(cfg)
        tau = math.sqrt(report.tau_sq)
        for rec in report.panels["cv-fixed-sigma"].records:
            assert rec.sigma2_hat == 2.0
            assert rec.std_stat == standardized_statistic(rec.product, 3.0, report.n, tau)


class TestPresets:
    def test_known_names_build(self):
        from oucv import PRESET_NAMES

        for name in PRESET_NAMES:
            cfg = make_preset(name)
            assert cfg.replicates == 2000
            assert cfg.theta0 == 3.0 and cfg.sigma0_sq == 1.0

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_preset("fig2-n13-regular")

    def test_variance_ordering_small_replicates(self):
        # maximal design spreads the standardized statistic more than
        # the regular design at matched seeds (small-N sanity version)
        n = 50
        base = dict(theta0=3.0, sigma0_sq=1.0, replicates=150, box=BOX,
                    estimators=("cv-joint",), seed=777)
        reg = run_experiment(ExperimentConfig(design={"kind": "regular", "n": n}, **base))
        mx = run_experiment(ExperimentConfig(design={"kind": "maximal", "n": n, "gamma": 1.0 / n}, **base))
        var_reg = reg.panels["cv-joint"].summary["variance_scaled"]
        var_max = mx.panels["cv-joint"].summary["variance_scaled"]
        assert var_max > var_reg
