"""Replicated simulate-estimate experiments with reproducible seed streams.

Each replicate draws its path from an independent stream keyed by
(base seed, replicate index). An experiment builds and checks the lanes
of its estimators (see :mod:`oucv.estimation`) once, then samples and
estimates its replicates in chunks, one after the other: each chunk's
paths are one search of those lanes, so that the estimators that search
theta share one search and each objective is prepared once per chunk;
``cv-fixed-theta`` evaluates its one point apart. The chunk size
follows from the kernels' fixed element budget
(:func:`~oucv.estimation.replicate_chunk`). A record depends on its
replicate's data alone, so reports do not depend on the chunking.
Reports carry per-replicate standardized statistics, summary moments
against the design's theoretical variance, and histogram bins for
external plotting.
"""

from __future__ import annotations

import csv
import json
import math
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .designs import Design, from_points, maximal_design, minimal_design, regular_design, tau_squared
from .errors import InvalidParameterError, OucvError
from .estimation import (
    ESTIMATOR_TABLE,
    ParameterBox,
    _FIXED_NAMES,
    _lanes,
    _positive_finite,
    _search_lanes,
    replicate_chunk,
    standardized_statistic,
)
from .simulate import CovarianceParams, TrendSpec, sample_path

__all__ = [
    "PRESET_NAMES",
    "ExperimentConfig",
    "ReplicateRecord",
    "EstimatorPanel",
    "ExperimentReport",
    "build_design",
    "make_preset",
    "run_experiment",
    "summarize",
    "export",
    "read_records",
]

_RECORD_FIELDS = (
    "replicate",
    "seed",
    "theta_hat",
    "sigma2_hat",
    "product",
    "std_stat",
    "objective",
    "flags",
)

_PRESET_SEED = 20260808
_PRESET_BOX = (0.1, 10.0, 0.3, 30.0)

PRESET_NAMES = (
    "fig2-n12-minimal",
    "fig2-n12-regular",
    "fig2-n12-maximal",
    "fig2-n50-regular",
    "fig2-n50-maximal",
    "fig2-n200-regular",
    "fig2-n200-maximal",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Specification of one replicated simulate-estimate experiment."""

    design: dict
    theta0: float
    sigma0_sq: float
    replicates: int
    box: ParameterBox
    estimators: tuple[str, ...]
    seed: int
    sigma1_sq: float | None = None
    theta2: float | None = None
    trend: TrendSpec | None = None

    def __post_init__(self):
        for key in ("replicates", "seed"):
            value = getattr(self, key)
            try:
                if isinstance(value, str):
                    raise ValueError(value)
                object.__setattr__(self, key, _integer(value))
            except (TypeError, ValueError):
                raise InvalidParameterError(f"{key!r} must be an integer, got {value!r}") from None
        if self.replicates < 1:
            raise InvalidParameterError(f"need at least one replicate, got {self.replicates}")
        if self.seed < 0:
            raise InvalidParameterError(f"'seed' must be non-negative, got {self.seed}")
        for key in ("theta0", "sigma0_sq", "sigma1_sq", "theta2"):
            value = getattr(self, key)
            if value is None and key in ("sigma1_sq", "theta2"):
                continue
            if not _positive_finite(value):
                raise InvalidParameterError(f"{key!r} must be a positive finite number, got {value!r}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.estimators:
            raise InvalidParameterError("estimator list is empty")
        for name in self.estimators:
            if name not in ESTIMATOR_TABLE:
                raise InvalidParameterError(f"unknown estimator {name!r}")
            fixes = ESTIMATOR_TABLE[name].fixes
            if fixes and getattr(self, _FIXED_NAMES[fixes]) is None:
                raise InvalidParameterError(f"{name} needs {_FIXED_NAMES[fixes]}")


@dataclass(frozen=True)
class ReplicateRecord:
    """One estimator outcome on one simulated path."""

    replicate: int
    seed: int
    theta_hat: float
    sigma2_hat: float
    product: float
    std_stat: float
    objective: float
    flags: str


@dataclass(frozen=True)
class EstimatorPanel:
    """All replicates of one estimator, with summary and histogram."""

    name: str
    records: tuple[ReplicateRecord, ...]
    summary: dict
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of :func:`run_experiment`: one panel per estimator."""

    config: ExperimentConfig
    n: int
    tau_sq: float
    regime: str
    panels: dict[str, EstimatorPanel] = field(default_factory=dict)


def _field(mapping: dict, key: str, cast, what: str):
    """``cast(mapping[key])``, or an InvalidParameterError naming ``what``
    and the missing key or the value that does not convert."""
    if key not in mapping:
        raise InvalidParameterError(f"{what} needs {key!r}")
    try:
        return cast(mapping[key])
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{what} has a bad {key!r}: {mapping[key]!r}") from None


def _integer(value) -> int:
    """``value`` as an int; a bool or a fractional number is a ValueError, not a truncation."""
    if isinstance(value, bool) or (isinstance(value, (float, np.floating)) and not float(value).is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


# each design kind's constructor and its spec fields, in argument order
_DESIGN_KINDS = {
    "regular": (regular_design, (("n", _integer),)),
    "maximal": (maximal_design, (("n", _integer), ("gamma", float))),
    "minimal": (minimal_design, (("n", _integer), ("alpha", float))),
    "points": (from_points, (("points", lambda v: np.asarray(v, dtype=float)),)),
}


def build_design(spec: dict) -> Design:
    """Materialize a design from its config mapping."""
    kind = spec.get("kind")
    if kind not in _DESIGN_KINDS:
        raise InvalidParameterError(f"unknown design kind {kind!r}")
    make, fields = _DESIGN_KINDS[kind]
    return make(*(_field(spec, key, cast, f"{kind} design") for key, cast in fields))


def _clt_regime(box: ParameterBox, product0: float) -> str:
    """Which side condition of the normality theorem the box satisfies."""
    lower = box.a * box.B
    upper = box.A * box.b
    if lower < product0 and upper > product0:
        return "aB<p0<Ab"
    if lower > product0 and upper < product0:
        return "Ab<p0<aB"
    if lower == product0 or upper == product0:
        return "boundary"
    return "outside"


def make_preset(name: str) -> ExperimentConfig:
    """The shipped reproduction panels (three designs at n=12, two at 50 and 200)."""
    if name not in PRESET_NAMES:
        raise InvalidParameterError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    _, size, kind = name.split("-")
    n = int(size[1:])
    if kind == "regular":
        design = {"kind": "regular", "n": n}
    elif kind == "maximal":
        design = {"kind": "maximal", "n": n, "gamma": 1.0 / n}
    else:
        design = {"kind": "minimal", "n": n, "alpha": 0.5}
    a, A, b, B = _PRESET_BOX
    return ExperimentConfig(
        design=design,
        theta0=3.0,
        sigma0_sq=1.0,
        replicates=2000,
        box=ParameterBox(a=a, A=A, b=b, B=B),
        estimators=("cv-joint",),
        seed=_PRESET_SEED,
    )


def _summary_from_records(records, tau_sq: float) -> dict:
    stats = np.array([rec.std_stat for rec in records], dtype=float)
    ok = np.isfinite(stats)
    excluded = int(np.sum(~ok))
    vals = stats[ok]
    count = int(vals.size)
    summary = {
        "replicates": len(records),
        "excluded": excluded,
        "tau_sq": float(tau_sq),
    }
    if count == 0:
        summary.update(
            mean=math.nan, variance=math.nan, skewness=math.nan,
            z_mean=math.nan, variance_ratio_vs_tau_sq=math.nan,
            mean_scaled=math.nan, variance_scaled=math.nan,
        )
        return summary
    mean = float(np.mean(vals))
    var = float(np.var(vals, ddof=1)) if count > 1 else 0.0
    centered = vals - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    skew = m3 / m2**1.5 if m2 > 0.0 else 0.0
    tau = math.sqrt(tau_sq)
    summary.update(
        mean=mean,
        variance=var,
        skewness=skew,
        z_mean=mean / math.sqrt(var / count) if var > 0.0 else math.nan,
        variance_ratio_vs_tau_sq=var,  # scaled statistic variance over tau_sq
        mean_scaled=mean * tau,
        variance_scaled=var * tau_sq,
    )
    return summary


def _histogram_from_records(records, tau_sq: float):
    """Freedman-Diaconis bins of the paper-scaled statistic sqrt(n)(p-p0)/p0."""
    tau = math.sqrt(tau_sq)
    vals = np.array([rec.std_stat * tau for rec in records], dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return np.array([0.0, 1.0]), np.array([0])
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        return np.array([lo - 0.5, hi + 0.5]), np.array([vals.size])
    q75, q25 = np.percentile(vals, [75.0, 25.0])
    width = 2.0 * (q75 - q25) / vals.size ** (1.0 / 3.0)
    if width <= 0.0:
        bins = 10
    else:
        bins = int(np.clip(math.ceil((hi - lo) / width), 1, 200))
    counts, edges = np.histogram(vals, bins=bins)
    return edges, counts


def run_experiment(config: ExperimentConfig, max_workers: int | None = None) -> ExperimentReport:
    """Run all replicates and estimators; deterministic for a fixed config.

    The design, its trend columns and the estimators' lanes are built and
    checked once; each chunk of replicates is then sampled, replicate r
    from the stream keyed by (seed, r), and searched in one call, so the
    report does not depend on execution order or chunking. The chunks run
    one after the other in this thread; ``max_workers`` is accepted for
    compatibility and ignored. Failed replicates are recorded with a
    failure flag and excluded from the moments; they never abort the
    experiment or their chunk.
    """
    design = build_design(config.design)
    tau_sq = tau_squared(design)
    tau = math.sqrt(tau_sq)
    F = config.trend.design_matrix(design) if config.trend is not None else None
    params = CovarianceParams(theta=config.theta0, sigma2=config.sigma0_sq)
    product0 = config.theta0 * config.sigma0_sq
    fixed = {"sigma2": config.sigma1_sq, "theta": config.theta2, "trend": F}
    lanes = _lanes(config.estimators, design, config.box, fixed)

    def record(r: int, res) -> ReplicateRecord:
        """The record of replicate r's result, or of its failure."""
        if isinstance(res, OucvError):
            return ReplicateRecord(
                replicate=r,
                seed=config.seed,
                theta_hat=math.nan,
                sigma2_hat=math.nan,
                product=math.nan,
                std_stat=math.nan,
                objective=math.nan,
                flags=f"failed:{type(res).__name__}",
            )
        return ReplicateRecord(
            replicate=r,
            seed=config.seed,
            theta_hat=res.theta_hat,
            sigma2_hat=res.sigma2_hat,
            product=res.product,
            std_stat=standardized_statistic(res.product, product0, design.n, tau),
            objective=res.objective_value,
            flags="|".join(res.boundary_flags) if res.boundary_flags else "-",
        )

    chunk = replicate_chunk(design.n)
    records = {name: [] for name in config.estimators}
    for start in range(1, config.replicates + 1, chunk):
        replicates = range(start, min(start + chunk, config.replicates + 1))
        Y = np.stack([sample_path(design, params, (config.seed, r)) for r in replicates])
        data = Y if F is None else F @ config.trend.beta + Y
        for name, results in zip(config.estimators, _search_lanes(design, data, lanes)):
            records[name].extend(map(record, replicates, results))

    panels = {}
    for name in config.estimators:
        panel_records = tuple(records[name])
        edges, counts = _histogram_from_records(panel_records, tau_sq)
        panels[name] = EstimatorPanel(
            name=name,
            records=panel_records,
            summary=_summary_from_records(panel_records, tau_sq),
            histogram_edges=edges,
            histogram_counts=counts,
        )
    return ExperimentReport(
        config=config,
        n=design.n,
        tau_sq=tau_sq,
        regime=_clt_regime(config.box, config.theta0 * config.sigma0_sq),
        panels=panels,
    )


def summarize(report: ExperimentReport) -> dict[str, dict]:
    """Recompute every panel summary from its records (idempotent)."""
    return {
        name: _summary_from_records(panel.records, report.tau_sq)
        for name, panel in report.panels.items()
    }


# the versions that produce a run, read once at import, not on every export
_PROVENANCE = {"oucv": __version__, "numpy": np.__version__, "python": platform.python_version()}


def _format_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def export(report: ExperimentReport, path) -> None:
    """Write records.csv, summary.json and histogram.csv into a run directory.

    With several estimators the per-panel files carry an estimator
    suffix; floats are written with full round-trip precision.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    multi = len(report.panels) > 1
    for name, panel in report.panels.items():
        suffix = f"-{name}" if multi else ""
        with open(out / f"records{suffix}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_RECORD_FIELDS)
            for rec in panel.records:
                writer.writerow([_format_value(getattr(rec, f)) for f in _RECORD_FIELDS])
        with open(out / f"histogram{suffix}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", "count"])
            for k in range(panel.histogram_counts.size):
                writer.writerow(
                    [
                        repr(float(panel.histogram_edges[k])),
                        repr(float(panel.histogram_edges[k + 1])),
                        int(panel.histogram_counts[k]),
                    ]
                )
    cfg = report.config
    summary = {
        "design": cfg.design,
        "n": report.n,
        "theta0": cfg.theta0,
        "sigma0_sq": cfg.sigma0_sq,
        "replicates": cfg.replicates,
        "box": [cfg.box.a, cfg.box.A, cfg.box.b, cfg.box.B],
        "seed": cfg.seed,
        "estimators": list(cfg.estimators),
        "trend_p": cfg.trend.p if cfg.trend is not None else 0,
        "tau_sq": report.tau_sq,
        "regime": report.regime,
        "panels": {name: panel.summary for name, panel in report.panels.items()},
        "provenance": _PROVENANCE,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def read_records(path) -> tuple[ReplicateRecord, ...]:
    """Read back a records CSV written by :func:`export`."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(
                ReplicateRecord(
                    replicate=int(row["replicate"]),
                    seed=int(row["seed"]),
                    theta_hat=float(row["theta_hat"]),
                    sigma2_hat=float(row["sigma2_hat"]),
                    product=float(row["product"]),
                    std_stat=float(row["std_stat"]),
                    objective=float(row["objective"]),
                    flags=row["flags"],
                )
            )
    return tuple(records)
