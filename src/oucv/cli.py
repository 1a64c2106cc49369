"""Single entry point exposing design, simulate, score, estimate and experiment.

All numerical output is machine readable: CSV cells carry 17
significant digits, results and errors are JSON (errors as one line on
stderr). Exit codes: 0 success, 1 domain error, 2 I/O error, 3
numerical failure.

:func:`main` parses with one parser per process, built on its first
call: argparse keeps no state in a parser between parses, and building
the five subcommands costs about a millisecond, as much as a small-n
command's own work. :func:`build_parser` returns a new parser on every
call, so no caller can change the shared one.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import stat
import sys
from array import array
from pathlib import Path

import numpy as np

from .designs import Design, from_points, tau_squared
from .errors import (
    ConditioningError,
    InvalidDesignError,
    InvalidParameterError,
    LinearDependenceError,
    NumericalFailureError,
    OucvError,
    integer,
)
from .estimation import ESTIMATOR_TABLE, ParameterBox, _single, estimate_batch
from .montecarlo import (_DESIGN_KINDS, ExperimentConfig, _field, _json_summary, _known_keys, build_design,
                         export, make_preset, run_experiment)
from .numerics import _ELEMENT_BUDGET
from .scoring import (_score_and_decomposition, dense_oracle_ml, dense_oracle_score, ml_neg2loglik,
                      score_decomposition)
from .simulate import CovarianceParams, TrendSpec, polynomial_basis, sample_path, sample_with_trend

_DOMAIN_ERRORS = (InvalidDesignError, InvalidParameterError, LinearDependenceError)
_NUMERICAL_ERRORS = (ConditioningError, NumericalFailureError)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_rows(start: int, *columns: np.ndarray) -> None:
    """Write CSV rows of an index counting from ``start`` and the floats
    of equal-length ``columns`` to stdout, each float formatted as
    :func:`_fmt` does (``%.17g``). The rows go out in blocks of
    ``_ELEMENT_BUDGET``, one format of the block's cells each, so the
    Python objects alive at a time stay few at any n."""
    n, width = len(columns[0]), len(columns) + 1
    row = "%d" + ",%.17g" * len(columns) + "\n"
    for lo in range(0, n, _ELEMENT_BUDGET):
        m = min(_ELEMENT_BUDGET, n - lo)
        cells = [None] * (m * width)
        cells[0::width] = range(start + lo, start + lo + m)
        for k, column in enumerate(columns, 1):
            cells[k::width] = column[lo:lo + m].tolist()
        sys.stdout.write(row * m % tuple(cells))


def _emit_error(err: Exception) -> None:
    line = json.dumps({"error": type(err).__name__, "message": str(err)}, allow_nan=False)
    print(line, file=sys.stderr)


def _fields(line: str) -> list[float] | None:
    """The comma-separated fields of ``line`` as numbers, or None when one
    is not a number as the C parser reads one: ASCII, with optional
    surrounding whitespace, a decimal or exponent number, or inf,
    infinity or nan in any case, each with an optional sign. Python's
    ``float`` also takes digit-group underscores and non-ASCII digits;
    those are refused."""
    values = []
    for field in line.split(","):
        field = field.strip()
        if not field.isascii() or "_" in field:
            return None
        try:
            values.append(float(field))
        except ValueError:
            return None
    return values


def _skipped(line: str) -> bool:
    """Whether ``line`` is blank or a '#' comment."""
    return line.lstrip()[:1] in ("", "#")


# suffixes numpy's path opener decompresses, where ``open`` reads the bytes;
# it also fetches a scheme://netloc name as a URL
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_rows(path: str, widths: tuple[int, ...] | None = None) -> np.ndarray:
    """The numeric rows of a comma-separated file as one (rows, width) array.

    Lines that are blank or start with '#' are dropped. The first other
    line may be a header: it is dropped when it does not parse. Every row
    must have the width of the first data row, which must be one of
    ``widths`` when given. A later row that does not parse, a row of
    another width, a file with no data rows, or one that is not text,
    raises an InvalidParameterError naming the line or the file at fault.

    Python reads the head of a regular file, the lines before its first
    data row, and ``numpy.loadtxt`` reads the rest by path, in C. A file
    that parse refuses, one that is not a regular file, and a name numpy
    would open otherwise than ``open`` does go to :func:`_parse_lines`,
    which gives the same rows or names the fault.
    """
    with open(path) as fh:
        plain_name = "://" not in path and not path.endswith(_COMPRESSED_SUFFIXES)
        if plain_name and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe cannot be read twice
            try:
                head = _head_length(fh)
                if head is not None:
                    rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=head)
                    if widths is None or rows.shape[1] in widths:
                        return rows
            except ValueError:  # a field or row the parser refuses, or bytes that do not decode
                pass
            fh.seek(0)
        return _parse_lines(fh, path, widths)


def _head_length(fh) -> int | None:
    """The number of lines before the first data row: blank and '#'
    lines, and the first other line when it does not parse (a header).
    None when no line follows them."""
    header = False
    for head, line in enumerate(fh):
        if _skipped(line):
            continue
        if header or _fields(line) is not None:
            return head
        header = True
    return None


def _parse_lines(fh, path: str, widths: tuple[int, ...] | None) -> np.ndarray:
    """The rows of :func:`_read_rows`, read line by line in Python from
    the open file ``fh``, or the error naming its first line at fault.
    The reference for the C parse, and the reader of what it refuses."""
    values, width = array("d"), None  # width of the first data row; 0 after a header
    try:
        for lineno, line in enumerate(fh, 1):
            if _skipped(line):
                continue
            row = _fields(line)
            if row is None:
                if width is not None:
                    raise InvalidParameterError(f"{path}, line {lineno}: cannot parse row {line.strip()!r}")
                width = 0
                continue
            width = width or len(row)
            expected = (width,) if widths is None or width in widths else widths
            if len(row) not in expected:
                raise InvalidParameterError(
                    f"{path}, line {lineno}: {len(row)} fields where rows need {' or '.join(map(str, expected))}"
                )
            values.extend(row)
    except UnicodeDecodeError as err:
        raise InvalidParameterError(f"{path} is not text: {err}") from None
    if not width:
        raise InvalidParameterError(f"{path} holds no data rows")
    return np.array(values).reshape(-1, width)


def _read_point_file(path: str) -> np.ndarray:
    return _read_rows(path, (1,))[:, 0]


# the fields of a design spec's text form, kind:FIELD:FIELD; a point
# file is spelled file:PATH instead
_SPEC_FIELDS = {kind: tuple(key for key, _ in fields)
                for kind, (_, fields) in _DESIGN_KINDS.items() if kind != "points"}
_SPEC_FORMS = "regular:N | maximal:N:GAMMA | minimal:N:ALPHA | file:PATH"


def _design_from_spec(spec: str) -> Design:
    """The design of a spec in one of the forms of ``_SPEC_FORMS``."""
    kind, _, rest = spec.partition(":")
    if kind == "file":
        return build_design({"kind": "points", "points": _read_point_file(rest)})
    values = rest.split(":")
    if len(values) != len(_SPEC_FIELDS.get(kind, ())):
        raise InvalidParameterError(
            f"design spec {spec!r} is not regular:N, maximal:N:GAMMA, minimal:N:ALPHA or file:PATH"
        )
    return build_design({"kind": kind, **dict(zip(_SPEC_FIELDS[kind], values))})


def _read_data_csv(path: str) -> tuple[Design, np.ndarray]:
    """Read an (index,s,value) or (s,value) CSV into a design and data vector."""
    s, y = np.array(_read_rows(path, (2, 3))[:, -2:].T)  # contiguous copies
    return from_points(s), y


def _json_object(path: str) -> dict:
    """The JSON object in the file at ``path``."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as err:  # not JSON, or bytes that do not decode
        raise InvalidParameterError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise InvalidParameterError(f"{path} must hold a JSON object")
    return raw


def _floats(value, what: str) -> list[float]:
    """A list of floats from comma-separated text or a sequence."""
    try:
        return [float(v) for v in (value.split(",") if isinstance(value, str) else value)]
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(f"{what} must be numbers, got {value!r}") from None


def _trend_spec(cfg: dict, need_beta: bool) -> TrendSpec:
    """A trend mapping: 'basis' is 'polynomial:K', the monomials up to
    degree K; 'beta' (a list or comma-separated text) holds the
    coefficients, zero when absent and not ``need_beta``."""
    _known_keys(cfg, ("basis", "beta"), "trend config")
    basis_name = _field(cfg, "basis", str, "trend config")
    kind, _, degree = basis_name.partition(":")
    if kind != "polynomial" or not degree.isdecimal():
        raise InvalidParameterError(f"unknown trend basis {basis_name!r}; expected 'polynomial:K'")
    basis = polynomial_basis(int(degree))
    beta = cfg.get("beta")
    if beta is None and need_beta:
        raise InvalidParameterError("trend config needs 'beta' for simulation")
    return TrendSpec(beta=np.zeros(len(basis)) if beta is None else _floats(beta, "trend beta"), basis=basis)


def _trend_columns(path: str, design: Design) -> np.ndarray:
    """The trend matrix F of a trend config: a named basis evaluated on
    the design, or the rows of its 'columns' file."""
    cfg = _json_object(path)
    if "columns" not in cfg:
        return _trend_spec(cfg, need_beta=False).design_matrix(design)
    _known_keys(cfg, ("columns",), "trend config with 'columns'")
    if not isinstance(cfg["columns"], str):  # open() would take a number as a file descriptor
        raise InvalidParameterError(f"trend config has a bad 'columns': {cfg['columns']!r}")
    return _read_rows(cfg["columns"])


def _parse_box(value) -> ParameterBox:
    """A box from 'a,A,b,B' text or a sequence of four numbers."""
    values = _floats(value, "box")
    if len(values) != 4:
        raise InvalidParameterError(f"box must be 'a,A,b,B', got {value!r}")
    return ParameterBox(*values)


def _cmd_design(args) -> int:
    design = _design_from_spec(args.design)
    print("index,s,delta")
    print(f"1,{_fmt(design.points[0])},")  # the first point has no gap
    _write_rows(2, design.points[1:], design.gaps)
    # tau^2 is undefined below five points, and written as summary.json writes an undefined moment
    print(f"tau_squared={_fmt(tau_squared(design)) if design.n >= 5 else 'null'}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    design = _design_from_spec(args.design)
    params = CovarianceParams(theta=args.theta, sigma2=args.sigma2)
    if args.trend:
        cfg = _json_object(args.trend)
        if "columns" in cfg:
            raise InvalidParameterError("simulation needs a named basis with coefficients, not a column file")
        data = sample_with_trend(design, params, _trend_spec(cfg, need_beta=True), args.seed)
        label = "z"
    else:
        data = sample_path(design, params, args.seed)
        label = "y"
    print(f"index,s,{label}")
    _write_rows(1, design.points, data)
    return 0


def _cmd_score(args) -> int:
    design, y = _read_data_csv(args.data)
    result = {"objective": args.objective}
    if args.objective == "cv":
        if args.oracle:
            result["score"] = dense_oracle_score(design, y, args.theta, args.sigma2)
            decomp = score_decomposition(design, y, args.theta)
        else:
            result["score"], decomp = _score_and_decomposition(design, y, args.theta, args.sigma2)
        result["L"] = decomp.L
        result["Q"] = decomp.Q
    else:
        if args.oracle:
            result["score"] = dense_oracle_ml(design, y, args.theta, args.sigma2)
        else:
            result["score"] = ml_neg2loglik(design, y, args.theta, args.sigma2)
    print(json.dumps(result, allow_nan=False))
    return 0


# the estimator behind each (--objective, --mode, --trend given) combination
_ESTIMATOR_FLAGS = {
    ("cv", "joint", False): "cv-joint",
    ("ml", "joint", False): "ml-joint",
    ("cv", "fixed-sigma", False): "cv-fixed-sigma",
    ("cv", "fixed-theta", False): "cv-fixed-theta",
    ("cv", "joint", True): "cv-regression",
}


def _estimator_name(args) -> str:
    """The estimator the estimate flags name; a combination with no
    estimator behind it, or a flag it would ignore, is an error."""
    name = _ESTIMATOR_FLAGS.get((args.objective, args.mode, bool(args.trend)))
    if name is None:
        trend = " --trend" if args.trend else ""
        raise InvalidParameterError(
            f"no estimator for --objective {args.objective} --mode {args.mode}{trend}"
        )
    fixes = ESTIMATOR_TABLE[name].fixes
    for fixed, flag, value in (("sigma2", "--sigma1", args.sigma1), ("theta", "--theta2", args.theta2)):
        if (value is not None) != (fixes == fixed):
            raise InvalidParameterError(f"{name} needs {flag}" if value is None else f"{flag} does not apply to {name}")
    return name


def _cmd_estimate(args) -> int:
    name = _estimator_name(args)
    design, data = _read_data_csv(args.data)
    box = _parse_box(args.box)
    F = _trend_columns(args.trend, design) if args.trend else None
    value = {"sigma2": args.sigma1, "theta": args.theta2, "trend": F}.get(ESTIMATOR_TABLE[name].fixes)
    res = _single(estimate_batch(name, design, data[None, :], box, value))
    fields = {k: v for k, v in dataclasses.asdict(res).items() if k not in ("evaluations", "grid_minima")}
    print(json.dumps({"mode": name, **fields}, allow_nan=False))
    return 0


def _names(value) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",")) if isinstance(value, str) else tuple(value)


def _config_from_dict(raw: dict) -> ExperimentConfig:
    def get(key, cast):
        return _field(raw, key, cast, "experiment config")

    _known_keys(raw, [f.name for f in dataclasses.fields(ExperimentConfig)], "experiment config")
    return ExperimentConfig(
        design=get("design", dict),
        theta0=get("theta0", float),
        sigma0_sq=get("sigma0_sq", float),
        replicates=get("replicates", integer),
        box=get("box", _parse_box),
        estimators=get("estimators", _names),
        seed=get("seed", integer),
        sigma1_sq=get("sigma1_sq", float) if "sigma1_sq" in raw else None,
        theta2=get("theta2", float) if "theta2" in raw else None,
        trend=_trend_spec(get("trend", dict), need_beta=True) if "trend" in raw else None,
    )


def _cmd_experiment(args) -> int:
    if args.preset:
        config = make_preset(args.preset)
        default_out = f"run-{args.preset}"
    else:
        config = _config_from_dict(_json_object(args.config))
        default_out = f"run-{Path(args.config).stem}"
    if args.replicates is not None:
        config = dataclasses.replace(config, replicates=args.replicates)
    report = run_experiment(config)
    outdir = args.output or default_out
    export(report, outdir)
    print(json.dumps({"output": str(outdir), "tau_sq": report.tau_sq, "regime": report.regime,
                      "panels": {k: _json_summary(p.summary) for k, p in report.panels.items()}}, allow_nan=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oucv",
        description="Cross-validation estimation of the microergodic parameter of a"
        " one-dimensional exponential-covariance Gaussian process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="emit a design as CSV and print its variance functional")
    p.add_argument("--design", required=True, help=_SPEC_FORMS)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("simulate", help="sample one exact path at a design")
    p.add_argument("--design", required=True, help=_SPEC_FORMS)
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
    group.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--output", help="run directory (default derived from the preset/config name)")
    p.add_argument("--replicates", type=int, default=None, help="override the configured replicate count")
    p.set_defaults(func=_cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: each parse makes a new namespace,
    and no default is mutable."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
