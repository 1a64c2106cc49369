"""Monte Carlo records pinned bitwise.

``golden_records.json`` holds the repr of every record of a few small
experiments, written when each estimator of a chunk still ran a theta
search of its own. :func:`oucv.run_experiment` now runs one stacked
search per chunk (:func:`oucv.estimation.estimate_lanes`), and every
record must keep its bits: the five estimators on a linear trend, the
centered estimators on fig2 designs, the series layout of a Dirichlet
design, and a fixed variance so small that every row fails.

Floats are pinned exactly, so a numpy or BLAS build that rounds
differently fails here. To write the pins from a tree whose records are
trusted, run ``PYTHONPATH=src python tests/test_golden_records.py``.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

import oucv

GOLDEN = pathlib.Path(__file__).with_name("golden_records.json")
BOX = oucv.ParameterBox(0.1, 10.0, 0.3, 30.0)


def _dirichlet_points(n: int, seed: int) -> list[float]:
    gaps = np.random.default_rng(seed).dirichlet(np.ones(n - 1))
    points = np.concatenate([[0.0], np.cumsum(gaps)])
    points[-1] = 1.0
    return points.tolist()


def _configs() -> dict[str, oucv.ExperimentConfig]:
    four = ("cv-joint", "ml-joint", "cv-fixed-sigma", "cv-fixed-theta")
    return {
        "trend-five": oucv.ExperimentConfig(
            design={"kind": "regular", "n": 200}, theta0=3.0, sigma0_sq=1.0, replicates=3, box=BOX,
            estimators=oucv.ESTIMATORS, seed=0, sigma1_sq=2.0, theta2=1.5,
            trend=oucv.TrendSpec(beta=np.array([1.0, 2.0]), basis=oucv.polynomial_basis(1)),
        ),
        "n12-minimal-four": dataclasses.replace(
            oucv.make_preset("fig2-n12-minimal"), replicates=4, estimators=four, sigma1_sq=2.0, theta2=1.5
        ),
        "n50-maximal-four": dataclasses.replace(
            oucv.make_preset("fig2-n50-maximal"), replicates=3, estimators=four, sigma1_sq=2.0, theta2=1.5
        ),
        "n200-regular": dataclasses.replace(oucv.make_preset("fig2-n200-regular"), replicates=3),
        "dirichlet-n1200-series": dataclasses.replace(
            oucv.make_preset("fig2-n200-regular"), replicates=2,
            design={"kind": "points", "points": _dirichlet_points(1200, 5)},
            estimators=("cv-joint", "cv-fixed-sigma"), sigma1_sq=2.0,
        ),
        "n12-tiny-fixed-sigma": dataclasses.replace(
            oucv.make_preset("fig2-n12-minimal"), replicates=2, estimators=("cv-joint", "cv-fixed-sigma"),
            sigma1_sq=5e-324,
        ),
    }


def _records(config: oucv.ExperimentConfig) -> dict[str, list[str]]:
    report = oucv.run_experiment(config)
    return {name: [repr(rec) for rec in panel.records] for name, panel in report.panels.items()}


@pytest.mark.parametrize("label", list(_configs()))
def test_records_match_the_pinned_bits(label):
    assert _records(_configs()[label]) == json.loads(GOLDEN.read_text())[label]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({label: _records(cfg) for label, cfg in _configs().items()}, indent=1) + "\n")
