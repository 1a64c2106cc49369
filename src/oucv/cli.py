"""Single entry point exposing design, simulate, score, estimate and experiment.

All numerical output is machine readable: CSV cells carry 17
significant digits, results and errors are JSON (errors as one line on
stderr). Exit codes: 0 success, 1 domain error, 2 I/O error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from .designs import Design, from_points, maximal_design, minimal_design, regular_design, tau_squared
from .errors import (
    ConditioningError,
    InvalidDesignError,
    InvalidParameterError,
    LinearDependenceError,
    NumericalFailureError,
    OucvError,
)
from .estimation import (
    ParameterBox,
    estimate_cv_fixed_sigma,
    estimate_cv_fixed_theta,
    estimate_cv_joint,
    estimate_ml_joint,
)
from .montecarlo import ExperimentConfig, export, make_preset, run_experiment
from .regression import estimate_cv_reg, reg_log_score
from .scoring import dense_oracle_ml, dense_oracle_score, log_score, ml_neg2loglik, score_decomposition
from .simulate import CovarianceParams, TrendSpec, polynomial_basis, sample_path, sample_with_trend

_DOMAIN_ERRORS = (InvalidDesignError, InvalidParameterError, LinearDependenceError)
_NUMERICAL_ERRORS = (ConditioningError, NumericalFailureError)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit_error(err: Exception) -> None:
    line = json.dumps({"error": type(err).__name__, "message": str(err)})
    print(line, file=sys.stderr)


def _read_rows(path: str) -> Iterator[list[float]]:
    """The numeric rows of a comma-separated file, one at a time.

    Blank lines and lines starting with '#' are skipped. The first other
    line may be a header: it is skipped when it does not parse. Any later
    row that does not parse raises an InvalidParameterError naming its
    line.
    """
    header_allowed = True
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = list(map(float, line.split(",")))
            except ValueError:
                if not header_allowed:
                    raise InvalidParameterError(
                        f"{path}, line {lineno}: cannot parse row {line!r}"
                    ) from None
                header_allowed = False
                continue
            header_allowed = False
            yield row


def _read_point_file(path: str) -> np.ndarray:
    return np.asarray([row[0] for row in _read_rows(path)], dtype=float)


def _design_from_spec(spec: str) -> Design:
    parts = spec.split(":")
    kind = parts[0]
    if kind == "regular":
        return regular_design(int(parts[1]))
    if kind == "maximal":
        return maximal_design(int(parts[1]), float(parts[2]))
    if kind == "minimal":
        return minimal_design(int(parts[1]), float(parts[2]))
    if kind == "file":
        return from_points(_read_point_file(parts[1]))
    raise InvalidParameterError(f"unknown design spec {spec!r}")


def _read_data_csv(path: str) -> tuple[Design, np.ndarray]:
    """Read an (index,s,value) or (s,value) CSV into a design and data vector."""
    s_vals, y_vals = [], []
    for row in _read_rows(path):
        if len(row) >= 3:
            s_vals.append(row[1])
            y_vals.append(row[2])
        elif len(row) == 2:
            s_vals.append(row[0])
            y_vals.append(row[1])
        else:
            raise InvalidParameterError(f"cannot parse data row {row!r} in {path}")
    return from_points(np.asarray(s_vals)), np.asarray(y_vals)


def _trend_from_config(path: str, need_beta: bool) -> tuple[TrendSpec | None, np.ndarray | None]:
    """Load a trend config: a named basis (plus coefficients) or an F column file."""
    with open(path) as fh:
        cfg = json.load(fh)
    if "columns" in cfg:
        rows = list(_read_rows(cfg["columns"]))
        if len({len(row) for row in rows}) > 1:
            raise InvalidParameterError(f"rows of {cfg['columns']} differ in length")
        return None, np.asarray(rows, dtype=float)
    basis_name = cfg["basis"]
    if not basis_name.startswith("polynomial:"):
        raise InvalidParameterError(f"unknown basis {basis_name!r}")
    degree = int(basis_name.split(":")[1])
    basis = polynomial_basis(degree)
    beta = cfg.get("beta")
    if beta is None:
        if need_beta:
            raise InvalidParameterError("trend config needs 'beta' for simulation")
        beta = [0.0] * len(basis)
    return TrendSpec(beta=np.asarray(beta, dtype=float), basis=basis), None


def _parse_box(text: str) -> ParameterBox:
    values = [float(v) for v in text.split(",")]
    if len(values) != 4:
        raise InvalidParameterError(f"box must be 'a,A,b,B', got {text!r}")
    return ParameterBox(a=values[0], A=values[1], b=values[2], B=values[3])


def _cmd_design(args) -> int:
    if args.kind == "file":
        if not args.points:
            raise InvalidParameterError("--kind file needs --points <path>")
        design = from_points(_read_point_file(args.points))
    elif args.kind == "regular":
        design = regular_design(args.n)
    elif args.kind == "maximal":
        design = maximal_design(args.n, args.gamma)
    else:
        design = minimal_design(args.n, args.alpha)
    print("index,s,delta")
    for i in range(design.n):
        delta = "" if i == 0 else _fmt(design.gaps[i - 1])
        print(f"{i + 1},{_fmt(design.points[i])},{delta}")
    tau = tau_squared(design) if design.n >= 5 else math.nan
    print(f"tau_squared={_fmt(tau)}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    design = _design_from_spec(args.design)
    params = CovarianceParams(theta=args.theta, sigma2=args.sigma2)
    if args.trend:
        trend, columns = _trend_from_config(args.trend, need_beta=True)
        if trend is None:
            raise InvalidParameterError("simulation needs a named basis with coefficients, not a column file")
        data = sample_with_trend(design, params, trend, args.seed)
        label = "z"
    else:
        data = sample_path(design, params, args.seed)
        label = "y"
    print(f"index,s,{label}")
    for i in range(design.n):
        print(f"{i + 1},{_fmt(design.points[i])},{_fmt(data[i])}")
    return 0


def _cmd_score(args) -> int:
    design, y = _read_data_csv(args.data)
    result = {"objective": args.objective}
    if args.objective == "cv":
        if args.oracle:
            result["score"] = dense_oracle_score(design, y, args.theta, args.sigma2)
        else:
            result["score"] = log_score(design, y, args.theta, args.sigma2)
        decomp = score_decomposition(design, y, args.theta)
        result["L"] = decomp.L
        result["Q"] = decomp.Q
    else:
        if args.oracle:
            result["score"] = dense_oracle_ml(design, y, args.theta, args.sigma2)
        else:
            result["score"] = ml_neg2loglik(design, y, args.theta, args.sigma2)
    print(json.dumps(result))
    return 0


def _cmd_estimate(args) -> int:
    design, data = _read_data_csv(args.data)
    box = _parse_box(args.box)
    if args.trend:
        trend, columns = _trend_from_config(args.trend, need_beta=False)
        F = columns if columns is not None else trend.design_matrix(design)
        res = estimate_cv_reg(design, data, F, box)
        mode = "cv-regression"
    elif args.mode == "joint":
        if args.objective == "ml":
            res = estimate_ml_joint(design, data, box)
        else:
            res = estimate_cv_joint(design, data, box)
        mode = f"{args.objective}-joint"
    elif args.mode == "fixed-sigma":
        if args.sigma1 is None:
            raise InvalidParameterError("--mode fixed-sigma needs --sigma1")
        res = estimate_cv_fixed_sigma(design, data, args.sigma1, box.theta_range)
        mode = "cv-fixed-sigma"
    else:
        if args.theta2 is None:
            raise InvalidParameterError("--mode fixed-theta needs --theta2")
        res = estimate_cv_fixed_theta(design, data, args.theta2, box.sigma2_range)
        mode = "cv-fixed-theta"
    print(
        json.dumps(
            {
                "mode": mode,
                "theta_hat": res.theta_hat,
                "sigma2_hat": res.sigma2_hat,
                "product": res.product,
                "objective_value": res.objective_value,
                "gradient_at_opt": res.gradient_at_opt,
                "boundary_flags": list(res.boundary_flags),
                "iterations": res.iterations,
            }
        )
    )
    return 0


def _flat_config_to_dict(text: str) -> dict:
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        node = out
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value.strip()
    return out


def _config_from_dict(raw: dict) -> ExperimentConfig:
    design = dict(raw["design"])
    design["kind"] = str(design["kind"])
    box_raw = raw["box"]
    if isinstance(box_raw, str):
        box_raw = [float(v) for v in box_raw.split(",")]
    estimators = raw["estimators"]
    if isinstance(estimators, str):
        estimators = [e.strip() for e in estimators.split(",")]
    trend = None
    if "trend" in raw and raw["trend"]:
        tcfg = raw["trend"]
        degree = int(str(tcfg["basis"]).split(":")[1])
        beta = tcfg["beta"]
        if isinstance(beta, str):
            beta = [float(v) for v in beta.split(",")]
        trend = TrendSpec(beta=np.asarray(beta, dtype=float), basis=polynomial_basis(degree))
    return ExperimentConfig(
        design=design,
        theta0=float(raw["theta0"]),
        sigma0_sq=float(raw["sigma0_sq"]),
        replicates=int(raw["replicates"]),
        box=ParameterBox(*[float(v) for v in box_raw]),
        estimators=tuple(estimators),
        seed=int(raw["seed"]),
        sigma1_sq=float(raw["sigma1_sq"]) if raw.get("sigma1_sq") else None,
        theta2=float(raw["theta2"]) if raw.get("theta2") else None,
        trend=trend,
    )


def _cmd_experiment(args) -> int:
    if args.preset:
        config = make_preset(args.preset)
        default_out = f"run-{args.preset}"
    else:
        text = Path(args.config).read_text()
        stripped = text.lstrip()
        raw = json.loads(text) if stripped.startswith("{") else _flat_config_to_dict(text)
        config = _config_from_dict(raw)
        default_out = f"run-{Path(args.config).stem}"
    if args.replicates is not None:
        config = ExperimentConfig(
            design=config.design,
            theta0=config.theta0,
            sigma0_sq=config.sigma0_sq,
            replicates=args.replicates,
            box=config.box,
            estimators=config.estimators,
            seed=config.seed,
            sigma1_sq=config.sigma1_sq,
            theta2=config.theta2,
            trend=config.trend,
        )
    report = run_experiment(config, max_workers=args.threads)
    outdir = args.output or default_out
    export(report, outdir)
    print(json.dumps({"output": str(outdir), "tau_sq": report.tau_sq, "regime": report.regime,
                      "panels": {k: p.summary for k, p in report.panels.items()}}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oucv",
        description="Cross-validation estimation of the microergodic parameter of a"
        " one-dimensional exponential-covariance Gaussian process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="emit a design as CSV and print its variance functional")
    p.add_argument("--kind", required=True, choices=["regular", "maximal", "minimal", "file"])
    p.add_argument("--n", type=int, default=0, help="number of points")
    p.add_argument("--gamma", type=float, default=0.5, help="alternating-gap parameter (maximal)")
    p.add_argument("--alpha", type=float, default=0.5, help="cluster exponent (minimal)")
    p.add_argument("--points", help="point file for --kind file (one value per line)")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("simulate", help="sample one exact path at a design")
    p.add_argument("--design", required=True, help="regular:N | maximal:N:GAMMA | minimal:N:ALPHA | file:PATH")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trend", help="JSON trend config with basis and beta")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("score", help="evaluate the CV or ML objective on a data CSV")
    p.add_argument("--data", required=True, help="CSV written by the simulate subcommand")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--objective", choices=["cv", "ml"], default="cv")
    p.add_argument("--oracle", action="store_true", help="force the dense O(n^3) path")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("estimate", help="minimize an objective over the parameter box")
    p.add_argument("--data", required=True)
    p.add_argument("--box", required=True, help="a,A,b,B")
    p.add_argument("--mode", choices=["joint", "fixed-sigma", "fixed-theta"], default="joint")
    p.add_argument("--objective", choices=["cv", "ml"], default="cv")
    p.add_argument("--sigma1", type=float, help="fixed variance for --mode fixed-sigma")
    p.add_argument("--theta2", type=float, help="fixed theta for --mode fixed-theta")
    p.add_argument("--trend", help="JSON trend config (named basis or F column file)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a replicated simulate-estimate experiment")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="one of the shipped reproduction panels")
    group.add_argument("--config", help="JSON or key=value experiment config file")
    p.add_argument("--output", help="run directory (default derived from the preset/config name)")
    p.add_argument("--threads", type=int, default=None, help="replicate-level thread cap")
    p.add_argument("--replicates", type=int, default=None, help="override the configured replicate count")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as err:
        _emit_error(err)
        return 1
    except OSError as err:
        _emit_error(err)
        return 2
    except _NUMERICAL_ERRORS as err:
        _emit_error(err)
        return 3
    except OucvError as err:  # any future domain error defaults to 1
        _emit_error(err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
