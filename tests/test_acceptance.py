"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. The Monte Carlo criteria share module-scoped experiment
fixtures, all pinned to one base seed, so the whole suite is
deterministic.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import oucv
from oucv import (
    ExperimentConfig,
    ParameterBox,
    TrendSpec,
    dense_oracle_ml,
    dense_oracle_score,
    dense_precision,
    estimate_cv_joint,
    log_score,
    maximal_design,
    minimal_design,
    minimal_design_gap_ratios,
    ml_neg2loglik,
    polynomial_basis,
    reg_log_score,
    regular_design,
    run_experiment,
    sample_path,
    score_gradient_theta,
    tau_squared,
    tau_squared_from_gap_ratios,
)
from conftest import random_design, random_instance

BOX = ParameterBox(0.1, 10.0, 0.3, 30.0)
BASE_SEED = 20260808  # equals the shipped preset seed
PARAMS0 = oucv.CovarianceParams(theta=3.0, sigma2=1.0)


def report(name: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({time.time() - t0:.1f}s): {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def n200_regular_cv_ml():
    cfg = ExperimentConfig(
        design={"kind": "regular", "n": 200}, theta0=3.0, sigma0_sq=1.0,
        replicates=2000, box=BOX, estimators=("cv-joint", "ml-joint"), seed=BASE_SEED,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def n200_maximal_cv():
    cfg = ExperimentConfig(
        design={"kind": "maximal", "n": 200, "gamma": 1.0 / 200.0}, theta0=3.0,
        sigma0_sq=1.0, replicates=2000, box=BOX, estimators=("cv-joint",), seed=BASE_SEED,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def n12_panel():
    designs = {
        "minimal": {"kind": "minimal", "n": 12, "alpha": 0.5},
        "regular": {"kind": "regular", "n": 12},
        "maximal": {"kind": "maximal", "n": 12, "gamma": 1.0 / 12.0},
    }
    out = {}
    for name, design in designs.items():
        cfg = ExperimentConfig(
            design=design, theta0=3.0, sigma0_sq=1.0, replicates=2000,
            box=BOX, estimators=("cv-joint",), seed=BASE_SEED,
        )
        out[name] = run_experiment(cfg)
    return out


@pytest.fixture(scope="module")
def regression_report():
    trend = TrendSpec(beta=[1.0, 2.0], basis=polynomial_basis(1))
    cfg = ExperimentConfig(
        design={"kind": "regular", "n": 200}, theta0=3.0, sigma0_sq=1.0,
        replicates=2000, box=BOX, estimators=("cv-regression",), seed=BASE_SEED,
        trend=trend,
    )
    return run_experiment(cfg)


def _random_trend_matrix(rng, n, p):
    t = np.linspace(0.0, 1.0, n)
    cols = [np.ones(n)]
    for k in range(1, p):
        cols.append(t**k + 0.01 * rng.standard_normal(n))
    return np.column_stack(cols)


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(BASE_SEED)
    worst_cv = worst_ml = worst_reg = 0.0
    for _ in range(100):
        design, y, theta, sigma2 = random_instance(rng)
        cv_gap = abs(
            log_score(design, y, theta, sigma2) - dense_oracle_score(design, y, theta, sigma2)
        ) / (1.0 + abs(dense_oracle_score(design, y, theta, sigma2)))
        ml_gap = abs(
            ml_neg2loglik(design, y, theta, sigma2) - dense_oracle_ml(design, y, theta, sigma2)
        ) / (1.0 + abs(dense_oracle_ml(design, y, theta, sigma2)))
        p = int(rng.integers(1, 4))
        F = _random_trend_matrix(rng, design.n, p)
        fast = reg_log_score(design, y, theta, sigma2, F).value
        P = dense_precision(design, theta)
        PF = P @ F
        Q = P - PF @ np.linalg.solve(F.T @ PF, PF.T)
        qd = np.diag(Q)
        qz = Q @ y
        slow = float(
            design.n * np.log(sigma2) - np.sum(np.log(qd)) + np.sum(qz * qz / qd) / sigma2
        )
        reg_gap = abs(fast - slow) / (1.0 + abs(slow))
        worst_cv = max(worst_cv, cv_gap)
        worst_ml = max(worst_ml, ml_gap)
        worst_reg = max(worst_reg, reg_gap)
    ok = worst_cv <= 1e-8 and worst_ml <= 1e-8 and worst_reg <= 1e-8
    report(
        "criterion 1: oracle equivalence (100 instances)", ok,
        f"max rel gaps cv={worst_cv:.2e} ml={worst_ml:.2e} reg={worst_reg:.2e} (tol 1e-8)",
        t0,
    )


def test_criterion_2_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(BASE_SEED + 1)
    worst = 0.0
    for _ in range(50):
        design, y, theta, sigma2 = random_instance(rng, n_hi=100)
        psi = score_gradient_theta(design, y, theta, sigma2)
        h = 1e-5 * theta
        fd = (
            log_score(design, y, theta + h, sigma2) - log_score(design, y, theta - h, sigma2)
        ) / (2.0 * h)
        worst = max(worst, abs(psi - fd) / (1.0 + abs(psi)))
    ok = worst <= 1e-5
    report(
        "criterion 2: analytic gradient vs central differences (50 instances)", ok,
        f"max rel gap {worst:.2e} (tol 1e-5)", t0,
    )


def test_criterion_3_tau_squared_closed_forms():
    t0 = time.time()
    gaps = []
    for n in (5, 12, 200, 10**4):
        closed = 3.0 * (n - 3) / n
        gaps.append(abs(tau_squared(regular_design(n)) - closed) / closed)
    regular_ok = max(gaps) <= 1e-14
    max_val = tau_squared(maximal_design(10**5, 1e-5))
    min_val = tau_squared_from_gap_ratios(minimal_design_gap_ratios(10**5, 0.5))
    ok = regular_ok and abs(max_val - 4.0) <= 0.05 and abs(min_val - 2.0) <= 0.05
    report(
        "criterion 3: variance-functional closed forms", ok,
        f"regular max rel err {max(gaps):.1e} (tol 1e-14); "
        f"alternating at 1e5 = {max_val:.4f} (target 4 +-0.05); "
        f"factorial analog at 1e5 = {min_val:.4f} (target 2 +-0.05)",
        t0,
    )


def test_criterion_4_variance_ladder_n200(n200_regular_cv_ml, n200_maximal_cv, tmp_path):
    t0 = time.time()
    s_reg = n200_regular_cv_ml.panels["cv-joint"].summary
    s_max = n200_maximal_cv.panels["cv-joint"].summary
    tau_reg = n200_regular_cv_ml.tau_sq
    tau_max = n200_maximal_cv.tau_sq

    # end-to-end CLI smoke: the shipped preset must reproduce the
    # in-process panel bitwise (same seed, same estimator stream); the
    # child imports the same oucv as this process
    outdir = tmp_path / "preset-run"
    src = os.path.dirname(os.path.dirname(oucv.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "oucv.cli", "experiment", "--preset", "fig2-n200-regular",
         "--output", str(outdir)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
    )
    cli_ok = proc.returncode == 0 and (outdir / "summary.json").exists()
    cli_var = math.nan
    if cli_ok:
        payload = json.loads((outdir / "summary.json").read_text())
        cli_var = payload["panels"]["cv-joint"]["variance_scaled"]
        cli_ok = cli_var == s_reg["variance_scaled"]

    ok = (
        2.65 <= s_reg["variance_scaled"] <= 3.25
        and 3.4 <= s_max["variance_scaled"] <= 4.4
        and abs(s_reg["mean_scaled"]) <= 0.10
        and abs(s_max["mean_scaled"]) <= 0.10
        and cli_ok
    )
    report(
        "criterion 4: n=200 variance ladder (N=2000)", ok,
        f"regular var={s_reg['variance_scaled']:.3f} in [2.65,3.25] (tau2={tau_reg:.3f}), "
        f"maximal var={s_max['variance_scaled']:.3f} in [3.4,4.4] (tau2={tau_max:.3f}), "
        f"means {s_reg['mean_scaled']:+.3f}/{s_max['mean_scaled']:+.3f} within +-0.10, "
        f"CLI preset exit={proc.returncode} var={cli_var:.3f}",
        t0,
    )


def test_criterion_5_ml_comparison(n200_regular_cv_ml):
    t0 = time.time()
    s_cv = n200_regular_cv_ml.panels["cv-joint"].summary
    s_ml = n200_regular_cv_ml.panels["ml-joint"].summary
    ok = 1.7 <= s_ml["variance_scaled"] <= 2.3 and s_cv["variance_scaled"] > s_ml["variance_scaled"]
    report(
        "criterion 5: likelihood baseline (N=2000, matched seeds)", ok,
        f"ml var={s_ml['variance_scaled']:.3f} in [1.7,2.3]; "
        f"cv var={s_cv['variance_scaled']:.3f} > ml var",
        t0,
    )


def test_criterion_6_n12_three_design_panel(n12_panel):
    # NOTE: the +-0.5 variance windows are implemented exactly as
    # specified and fail at this sample size: the finite-sample variance
    # of the standardized statistic at n=12 exceeds the finite-n
    # functional by ~0.8-1.4 for every design (verified at N=20000 and
    # cross-checked against an independent multistart BFGS optimizer).
    # The ordering assertion holds. See the decisions ledger.
    t0 = time.time()
    variances = {}
    taus = {}
    for name, rep in n12_panel.items():
        variances[name] = rep.panels["cv-joint"].summary["variance_scaled"]
        taus[name] = rep.tau_sq
    ordered = variances["minimal"] < variances["regular"] < variances["maximal"]
    windows_ok = all(abs(variances[k] - taus[k]) <= 0.5 for k in variances)
    ok = ordered and windows_ok
    detail = ", ".join(
        f"{k}: var={variances[k]:.3f} vs tau2={taus[k]:.3f} (gap {variances[k]-taus[k]:+.3f})"
        for k in ("minimal", "regular", "maximal")
    )
    report(
        "criterion 6: n=12 three-design panel (N=2000)", ok,
        f"ordering {'holds' if ordered else 'violated'}; windows +-0.5: "
        f"{'all hold' if windows_ok else 'exceeded'} [{detail}]",
        t0,
    )


def test_criterion_7_consistency_trend():
    t0 = time.time()
    medians = {}
    for n in (50, 200, 800):
        d = regular_design(n)
        errs = [
            abs(estimate_cv_joint(d, sample_path(d, PARAMS0, (BASE_SEED, n, r)), BOX).product - 3.0)
            for r in range(1, 201)
        ]
        medians[n] = float(np.median(errs))
    ok = medians[50] > medians[200] > medians[800] and medians[800] < 0.25
    report(
        "criterion 7: consistency trend (200 replicates per size)", ok,
        f"median |product - 3|: n=50 {medians[50]:.3f} > n=200 {medians[200]:.3f} "
        f"> n=800 {medians[800]:.3f} (< 0.25)",
        t0,
    )


def test_criterion_8_regression_extension(regression_report):
    t0 = time.time()
    s = regression_report.panels["cv-regression"].summary
    var_ok = 2.6 <= s["variance_scaled"] <= 3.3
    rng = np.random.default_rng(BASE_SEED + 2)
    worst_identity = worst_oracle = 0.0
    for _ in range(50):
        design, z, theta, sigma2 = random_instance(rng, n_lo=8, n_hi=40)
        F = _random_trend_matrix(rng, design.n, int(rng.integers(1, 4)))
        rs = reg_log_score(design, z, theta, sigma2, F)
        rhs = rs.base_score - rs.r1 + (rs.r2 + 2.0 * rs.r3 - rs.r4) / sigma2
        worst_identity = max(worst_identity, abs(rs.value - rhs) / (1.0 + abs(rs.value)))
        P = dense_precision(design, theta)
        PF = P @ F
        Q = P - PF @ np.linalg.solve(F.T @ PF, PF.T)
        qd = np.diag(Q)
        qz = Q @ z
        slow = float(design.n * np.log(sigma2) - np.sum(np.log(qd)) + np.sum(qz * qz / qd) / sigma2)
        worst_oracle = max(worst_oracle, abs(rs.value - slow) / (1.0 + abs(slow)))
    identity_ok = worst_identity <= 1e-8 and worst_oracle <= 1e-7
    ok = var_ok and identity_ok
    report(
        "criterion 8: unknown-mean extension (N=2000 + 50 dense checks)", ok,
        f"var={s['variance_scaled']:.3f} in [2.6,3.3]; decomposition identity "
        f"max rel {worst_identity:.2e} (tol 1e-8); dense oracle max rel {worst_oracle:.2e}",
        t0,
    )


def test_criterion_9_property_harness_and_bitwise_parallelism(monkeypatch):
    t0 = time.time()
    # bitwise equivalence of the default run, one chunk, with chunks of 1 and of 5 replicates
    cfg = ExperimentConfig(
        design={"kind": "regular", "n": 40}, theta0=3.0, sigma0_sq=1.0,
        replicates=16, box=BOX, estimators=("cv-joint", "ml-joint"), seed=BASE_SEED,
    )
    default = run_experiment(cfg)
    bitwise = True
    for chunk in (1, 5):
        monkeypatch.setattr(oucv.montecarlo, "replicate_chunk", lambda n: chunk)
        chunked = run_experiment(cfg)
        bitwise &= all(
            chunked.panels[k].records == default.panels[k].records
            and chunked.panels[k].summary == default.panels[k].summary
            for k in default.panels
        )

    # compact randomized invariant sweep (fixed seed); the full property
    # suites live in the module test files and run in the same session
    rng = np.random.default_rng(BASE_SEED + 3)
    invariants = True
    for _ in range(50):
        design, y, theta, sigma2 = random_instance(rng)
        invariants &= bool(np.all(np.diff(design.points) > 0.0))
        invariants &= abs(float(design.gaps.sum()) - 1.0) <= 1e-12
        dec = oucv.score_decomposition(design, y, theta)
        invariants &= dec.Q >= 0.0
        invariants &= abs(dec.score_at(sigma2) - log_score(design, y, theta, sigma2)) <= 1e-10 * (
            1.0 + abs(dec.score_at(sigma2))
        )
        loo = oucv.loo_predictions(design, y, theta)
        invariants &= bool(np.all(loo.normalized_variances > 0.0))

    # mean drift across the shipped presets not already exercised above
    drift_ok = True
    for name in ("fig2-n50-regular", "fig2-n50-maximal"):
        rep = run_experiment(oucv.make_preset(name))
        s = rep.panels["cv-joint"].summary
        drift_ok &= abs(s["mean"]) <= 3.0 / math.sqrt(2000) + 0.1
    ok = bitwise and invariants and drift_ok
    report(
        "criterion 9: property harness, bitwise parallel equivalence, preset mean drift", ok,
        f"bitwise={bitwise}, invariant sweep={invariants}, preset drift ok={drift_ok}",
        t0,
    )
