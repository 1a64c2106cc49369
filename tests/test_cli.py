"""Entry-point behavior: exit codes, output schemas, determinism."""

import csv
import gzip
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oucv
from oucv import (CovarianceParams, from_points, log_score, maximal_design, minimal_design, ml_neg2loglik,
                  regular_design, sample_path)
from oucv import cli
from oucv.cli import build_parser, main


def run_cli(argv):
    """``main`` in this process: the exit code, an argparse exit's
    included, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the flags or printed help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestDesignCommand:
    def test_regular_csv_and_tau(self):
        code, out, err = run_cli(["design", "--design", "regular:12"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "s", "delta"]
        assert len(rows) == 13
        assert rows[1][2] == ""  # first point has no gap
        assert float(rows[-1][1]) == 1.0
        assert err.startswith("tau_squared=")
        assert float(err.split("=")[1]) == pytest.approx(2.25, rel=1e-12)

    def test_minimal_overflow_guard_exits_1(self):
        code, out, err = run_cli(["design", "--design", "minimal:200:0.5"])
        assert code == 1
        payload = json.loads(err.strip())
        assert payload["error"] == "FactorialOverflowError"

    def test_file_kind_round_trip(self, tmp_path):
        points = tmp_path / "pts.txt"
        points.write_text("0.0\n0.25\n0.7\n1.0\n")
        code, out, _ = run_cli(["design", "--design", f"file:{points}"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [float(r[1]) for r in rows] == [0.0, 0.25, 0.7, 1.0]

    @pytest.mark.parametrize("spec, exit_code", [("regular:2", 1), ("regular:3", 0), ("regular:4", 0),
                                                 ("maximal:4:0.25", 0)])
    def test_an_undefined_tau_squared_is_written_as_null(self, spec, exit_code):
        # below five points tau^2 is undefined; two points are no design
        code, out, err = run_cli(["design", "--design", spec])
        assert code == exit_code and "nan" not in err.lower()
        if exit_code == 0:
            assert err == "tau_squared=null\n"
            assert len(out.splitlines()) == 1 + int(spec.split(":")[1])

    def test_missing_points_file_exits_2(self):
        code, _, err = run_cli(["design", "--design", "file:/nonexistent/p.txt"])
        assert code == 2
        assert json.loads(err.strip())["error"] == "FileNotFoundError"


class TestSimulateCommand:
    def test_deterministic_per_seed(self):
        argv = ["simulate", "--design", "regular:20", "--theta", "3", "--sigma2", "1", "--seed", "9"]
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_matches_library_sampler(self):
        code, out, _ = run_cli(
            ["simulate", "--design", "regular:15", "--theta", "2.5", "--sigma2", "1.5", "--seed", "31"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        got = np.array([float(r[2]) for r in rows])
        expected = sample_path(regular_design(15), CovarianceParams(2.5, 1.5), 31)
        assert np.allclose(got, expected, rtol=0, atol=1e-16)

    def test_trend_config(self, tmp_path):
        cfg = tmp_path / "trend.json"
        cfg.write_text(json.dumps({"basis": "polynomial:1", "beta": [1.0, 2.0]}))
        code, out, _ = run_cli(
            ["simulate", "--design", "regular:10", "--theta", "3", "--sigma2", "1",
             "--seed", "4", "--trend", str(cfg)]
        )
        assert code == 0
        assert out.splitlines()[0] == "index,s,z"


class TestRowsAtScale:
    """At n = 1e5 the rows go out in blocks; the bytes are those of one
    ``format(x, ".17g")`` per cell, row by row."""

    @staticmethod
    def _rows(start, *columns):
        return "".join(",".join([str(i)] + [format(float(c), ".17g") for c in cells]) + "\n"
                       for i, cells in enumerate(zip(*columns), start))

    def test_simulate_stdout(self):
        code, out, _ = run_cli(["simulate", "--design", "regular:100000", "--theta", "3", "--sigma2", "1",
                                "--seed", "5"])
        assert code == 0
        d = regular_design(100_000)
        y = sample_path(d, CovarianceParams(3.0, 1.0), 5)
        assert out == "index,s,y\n" + self._rows(1, d.points, y)

    @pytest.mark.parametrize("spec, design", [
        ("regular:100000", regular_design(100_000)),
        ("maximal:100000:1e-05", maximal_design(100_000, 1e-5)),
    ], ids=["regular", "maximal"])
    def test_design_stdout(self, spec, design):
        code, out, _ = run_cli(["design", "--design", spec])
        assert code == 0
        first = f"1,{format(float(design.points[0]), '.17g')},\n"  # no gap before the first point
        assert out == "index,s,delta\n" + first + self._rows(2, design.points[1:], design.gaps)


class TestScoreCommand:
    @pytest.fixture
    def data_file(self, tmp_path):
        argv = ["simulate", "--design", "regular:25", "--theta", "3", "--sigma2", "1", "--seed", "77"]
        _, out, _ = run_cli(argv)
        path = tmp_path / "data.csv"
        path.write_text(out)
        return path

    def test_cv_score_with_decomposition(self, data_file):
        code, out, _ = run_cli(
            ["score", "--data", str(data_file), "--theta", "2.0", "--sigma2", "1.3"]
        )
        assert code == 0
        payload = json.loads(out)
        d = regular_design(25)
        y = sample_path(d, CovarianceParams(3.0, 1.0), 77)
        assert payload["score"] == pytest.approx(log_score(d, y, 2.0, 1.3), rel=1e-12)
        assert payload["score"] == pytest.approx(
            25 * np.log(1.3) + payload["L"] + payload["Q"] / 1.3, rel=1e-10
        )

    def test_ml_score_and_oracle_flag(self, data_file):
        code, out, _ = run_cli(
            ["score", "--data", str(data_file), "--theta", "2.0", "--sigma2", "1.3",
             "--objective", "ml"]
        )
        assert code == 0
        d = regular_design(25)
        y = sample_path(d, CovarianceParams(3.0, 1.0), 77)
        assert json.loads(out)["score"] == pytest.approx(
            ml_neg2loglik(d, y, 2.0, 1.3), rel=1e-12
        )
        code, out_oracle, _ = run_cli(
            ["score", "--data", str(data_file), "--theta", "2.0", "--sigma2", "1.3", "--oracle"]
        )
        assert code == 0
        fast = json.loads(run_cli(["score", "--data", str(data_file), "--theta", "2.0", "--sigma2", "1.3"])[1])
        assert json.loads(out_oracle)["score"] == pytest.approx(fast["score"], rel=1e-8)


class TestEstimateCommand:
    @pytest.fixture
    def data_file(self, tmp_path):
        _, out, _ = run_cli(
            ["simulate", "--design", "regular:60", "--theta", "3", "--sigma2", "1", "--seed", "13"]
        )
        path = tmp_path / "data.csv"
        path.write_text(out)
        return path

    def test_joint_json_result(self, data_file):
        code, out, _ = run_cli(
            ["estimate", "--data", str(data_file), "--box", "0.1,10,0.3,30"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "cv-joint"
        assert payload["product"] == pytest.approx(
            payload["theta_hat"] * payload["sigma2_hat"], rel=1e-12
        )
        assert set(payload) >= {"objective_value", "gradient_at_opt", "boundary_flags", "iterations"}

    def test_fixed_modes_require_their_flag(self, data_file):
        code, _, err = run_cli(
            ["estimate", "--data", str(data_file), "--box", "0.1,10,0.3,30", "--mode", "fixed-sigma"]
        )
        assert code == 1
        assert json.loads(err.strip())["error"] == "InvalidParameterError"

    def test_ml_objective(self, data_file):
        code, out, _ = run_cli(
            ["estimate", "--data", str(data_file), "--box", "0.1,10,0.3,30", "--objective", "ml"]
        )
        assert code == 0
        assert json.loads(out)["mode"] == "ml-joint"

    def test_trend_estimation(self, data_file, tmp_path):
        cfg = tmp_path / "trend.json"
        cfg.write_text(json.dumps({"basis": "polynomial:1"}))
        code, out, _ = run_cli(
            ["estimate", "--data", str(data_file), "--box", "0.1,10,0.3,30", "--trend", str(cfg)]
        )
        assert code == 0
        assert json.loads(out)["mode"] == "cv-regression"


class TestEstimatorDispatch:
    """``oucv estimate`` runs the library estimator its flags name, and
    refuses a flag combination with no estimator behind it."""

    @pytest.fixture
    def files(self, tmp_path):
        _, out, _ = run_cli(
            ["simulate", "--design", "regular:50", "--theta", "3", "--sigma2", "1", "--seed", "21"]
        )
        data = tmp_path / "data.csv"
        data.write_text(out)
        trend = tmp_path / "trend.json"
        trend.write_text(json.dumps({"basis": "polynomial:1"}))
        return data, trend

    def test_cli_equals_library_for_every_estimator(self, files):
        data, trend = files
        rows = list(csv.reader(io.StringIO(data.read_text())))[1:]
        d = from_points([float(r[1]) for r in rows])
        y = np.array([float(r[2]) for r in rows])
        F = np.column_stack([np.ones(d.n), d.points])
        box = oucv.ParameterBox(0.1, 10.0, 0.3, 30.0)
        cases = {
            "cv-joint": ([], lambda: oucv.estimate_cv_joint(d, y, box)),
            "ml-joint": (["--objective", "ml"], lambda: oucv.estimate_ml_joint(d, y, box)),
            "cv-fixed-sigma": (["--mode", "fixed-sigma", "--sigma1", "2"],
                               lambda: oucv.estimate_cv_fixed_sigma(d, y, 2.0, box.theta_range)),
            "cv-fixed-theta": (["--mode", "fixed-theta", "--theta2", "1.5"],
                               lambda: oucv.estimate_cv_fixed_theta(d, y, 1.5, box.sigma2_range)),
            "cv-regression": (["--trend", str(trend)], lambda: oucv.estimate_cv_reg(d, y, F, box)),
        }
        for name, (flags, library) in cases.items():
            code, out, _ = run_cli(["estimate", "--data", str(data), "--box", "0.1,10,0.3,30"] + flags)
            assert code == 0
            res = library()
            expected = {"mode": name, "theta_hat": res.theta_hat, "sigma2_hat": res.sigma2_hat,
                        "product": res.product, "objective_value": res.objective_value,
                        "gradient_at_opt": res.gradient_at_opt,
                        "boundary_flags": list(res.boundary_flags), "iterations": res.iterations}
            assert repr(json.loads(out)) == repr(expected)

    @pytest.mark.parametrize("flags", [
        ["--objective", "ml", "--mode", "fixed-sigma", "--sigma1", "2"],
        ["--objective", "ml", "--mode", "fixed-theta", "--theta2", "1.5"],
        ["--objective", "ml", "--trend", "TREND"],
        ["--mode", "fixed-sigma", "--sigma1", "2", "--trend", "TREND"],
        ["--mode", "fixed-theta", "--theta2", "1.5", "--trend", "TREND"],
        ["--mode", "fixed-theta"],
        ["--sigma1", "2"],
        ["--theta2", "1.5"],
        ["--mode", "fixed-sigma", "--sigma1", "2", "--theta2", "1.5"],
        ["--trend", "TREND", "--sigma1", "2"],
    ])
    def test_flags_without_an_estimator_exit_1(self, files, flags):
        data, trend = files
        flags = [str(trend) if f == "TREND" else f for f in flags]
        code, out, err = run_cli(["estimate", "--data", str(data), "--box", "0.1,10,0.3,30"] + flags)
        assert code == 1 and out == ""
        assert json.loads(err.strip())["error"] == "InvalidParameterError"


class TestExperimentCommand:
    def test_config_file_run(self, tmp_path):
        cfg = {
            "design": {"kind": "regular", "n": 20},
            "theta0": 3.0,
            "sigma0_sq": 1.0,
            "replicates": 5,
            "box": [0.1, 10.0, 0.3, 30.0],
            "estimators": ["cv-joint"],
            "seed": 99,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "run"
        code, out, _ = run_cli(
            ["experiment", "--config", str(cfg_path), "--output", str(outdir)]
        )
        assert code == 0
        assert (outdir / "records.csv").exists()
        assert (outdir / "summary.json").exists()
        assert (outdir / "histogram.csv").exists()
        payload = json.loads(out)
        assert payload["panels"]["cv-joint"]["replicates"] == 5

    def test_preset_with_replicate_override(self, tmp_path):
        outdir = tmp_path / "preset-run"
        code, out, _ = run_cli(
            ["experiment", "--preset", "fig2-n12-regular", "--replicates", "6",
             "--output", str(outdir)]
        )
        assert code == 0
        assert (outdir / "records.csv").exists()
        assert json.loads(out)["panels"]["cv-joint"]["replicates"] == 6

    def test_an_undefined_moment_is_written_as_null(self, tmp_path):
        # one replicate has no variance, so its z_mean is undefined
        outdir = tmp_path / "run"
        code, out, _ = run_cli(["experiment", "--preset", "fig2-n12-regular", "--replicates", "1",
                                "--output", str(outdir)])
        assert code == 0

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        for text in (out, (outdir / "summary.json").read_text()):
            summary = json.loads(text, parse_constant=refuse)["panels"]["cv-joint"]
            assert summary["z_mean"] is None and summary["variance"] == 0.0


class TestMalformedInput:
    """Only the first non-comment line may be a header; a later row that
    does not parse, or has another width than the first data row, is a
    domain error naming its line, never skipped."""

    @staticmethod
    def _error(err):
        payload = json.loads(err.strip())
        assert payload["error"] == "InvalidParameterError"
        return payload["message"]

    def test_data_csv_bad_row_exits_1(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("index,s,y\n1,0.0,0.3\n2,0.25,0.1\n3,0.5,oops\n4,0.75,0.2\n5,1.0,0.4\n")
        code, out, err = run_cli(["score", "--data", str(data), "--theta", "2", "--sigma2", "1"])
        assert code == 1 and out == ""
        assert "line 4" in self._error(err)

    def test_data_csv_comment_then_header_is_accepted(self, tmp_path):
        data = tmp_path / "ok.csv"
        data.write_text("# a path\n\ns,y\n0.0,0.3\n0.5,0.1\n# middle\n1.0,0.4\n")
        code, out, _ = run_cli(["score", "--data", str(data), "--theta", "2", "--sigma2", "1"])
        assert code == 0
        d, y = from_points([0.0, 0.5, 1.0]), np.array([0.3, 0.1, 0.4])
        assert json.loads(out)["score"] == log_score(d, y, 2.0, 1.0)

    def test_data_csv_second_header_exits_1(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("s,y\ns,y\n0.0,0.3\n0.5,0.1\n1.0,0.4\n")
        code, _, err = run_cli(["estimate", "--data", str(data), "--box", "0.1,10,0.3,30"])
        assert code == 1
        assert "line 2" in self._error(err)

    def test_point_file_bad_row_exits_1(self, tmp_path):
        points = tmp_path / "pts.txt"
        points.write_text("0.0\n0.25\nzero point seven\n1.0\n")
        code, out, err = run_cli(["design", "--design", f"file:{points}"])
        assert code == 1 and out == ""
        assert "line 3" in self._error(err)
        code, _, err = run_cli(["simulate", "--design", f"file:{points}", "--theta", "3",
                                "--sigma2", "1", "--seed", "1"])
        assert code == 1

    @pytest.mark.parametrize("text,line", [
        ("index,s,y\n1,0.0,0.3\n0.5,0.1\n3,1.0,0.4\n", 3),  # (s,value) among (index,s,value)
        ("s,y\n0.0,0.3\n2,0.5,0.1\n1.0,0.4\n", 3),  # (index,s,value) among (s,value)
        ("index,s,y\n1,0.0,0.3\n2,0.5,0.1,9\n3,1.0,0.4\n", 3),  # a 4-field row
        ("index,s,y,w\n1,0.0,0.3,1\n2,0.5,0.1,1\n3,1.0,0.4,1\n", 2),  # 4 fields throughout
        ("y\n0.3\n0.1\n0.4\n", 2),  # one field
    ], ids=["short-row", "long-row", "four-field-row", "four-field-file", "one-field-file"])
    def test_data_csv_row_width_exits_1(self, tmp_path, text, line):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        for argv in (["score", "--theta", "2", "--sigma2", "1"], ["estimate", "--box", "0.1,10,0.3,30"]):
            code, out, err = run_cli(argv + ["--data", str(data)])
            assert code == 1 and out == ""
            assert f"line {line}" in self._error(err)

    def test_point_file_needs_one_field(self, tmp_path):
        points = tmp_path / "pts.txt"
        points.write_text("0.0,1\n0.25,1\n0.7,1\n1.0,1\n")
        code, out, err = run_cli(["design", "--design", f"file:{points}"])
        assert code == 1 and out == ""
        assert "line 1" in self._error(err)

    def test_trend_column_file_ragged_row_exits_1(self, tmp_path):
        _, out, _ = run_cli(["simulate", "--design", "regular:6", "--theta", "3", "--sigma2", "1", "--seed", "2"])
        data = tmp_path / "data.csv"
        data.write_text(out)
        columns = tmp_path / "F.csv"
        columns.write_text("1,0.0\n1,0.2\n1\n1,0.6\n1,0.8\n1,1.0\n")
        cfg = tmp_path / "trend.json"
        cfg.write_text(json.dumps({"columns": str(columns)}))
        code, out, err = run_cli(["estimate", "--data", str(data), "--box", "0.1,10,0.3,30", "--trend", str(cfg)])
        assert code == 1 and out == ""
        assert "line 3" in self._error(err)

    def test_crlf_line_endings_are_accepted(self, tmp_path):
        text = "# a path\n\ns,y\n0.0,0.3\n0.5,0.1\n1.0,0.4\n"
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        argv = ["score", "--theta", "2", "--sigma2", "1", "--data"]
        code, out, _ = run_cli(argv + [str(crlf)])
        assert code == 0
        assert out == run_cli(argv + [str(lf)])[1]

    @pytest.mark.parametrize("text", ["index,s,y\n", "# only a comment\n\n", ""], ids=["header", "comment", "empty"])
    def test_file_without_data_rows_exits_1(self, tmp_path, text):
        data = tmp_path / "empty.csv"
        data.write_text(text)
        code, out, err = run_cli(["score", "--data", str(data), "--theta", "2", "--sigma2", "1"])
        assert code == 1 and out == ""
        assert "no data rows" in self._error(err)

    @pytest.mark.parametrize("row", ["0.5,0.2 # note", "0.5,0.2,", "0.5,1_0", "0.5,\u0661", "0.5,0x1p-3"],
                             ids=["inline-comment", "trailing-comma", "underscore", "arabic-digit", "hex"])
    def test_data_row_the_parser_refuses_exits_1(self, tmp_path, row):
        data = tmp_path / "bad.csv"
        data.write_text(f"s,y\n0.0,0.3\n{row}\n1.0,0.4\n", encoding="utf-8")
        code, out, err = run_cli(["score", "--data", str(data), "--theta", "2", "--sigma2", "1"])
        assert code == 1 and out == ""
        assert "line 3" in self._error(err)

    def test_file_that_is_not_text_exits_1(self, tmp_path):
        data = tmp_path / "binary.csv"
        data.write_bytes(b"s,y\n0.0,0.3\n0.5,\xc0\xff\n1.0,0.4\n")
        code, out, err = run_cli(["score", "--data", str(data), "--theta", "2", "--sigma2", "1"])
        assert code == 1 and out == ""
        assert "is not text" in self._error(err)

    def test_bad_row_of_a_long_file_is_named(self, tmp_path):
        _, out, _ = run_cli(["simulate", "--design", "regular:100000", "--theta", "3", "--sigma2", "1",
                             "--seed", "1"])
        lines = out.splitlines()
        index, s, _ = lines[50_000].split(",")
        lines[50_000] = f"{index},{s},oops"  # line 50 001 of the file
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["estimate", "--data", str(data), "--box", "0.1,10,0.3,30"])
        assert code == 1 and out == ""
        assert "line 50001:" in self._error(err)

    def test_trend_column_file_bad_row_exits_1(self, tmp_path):
        _, out, _ = run_cli(["simulate", "--design", "regular:6", "--theta", "3", "--sigma2", "1", "--seed", "2"])
        data = tmp_path / "data.csv"
        data.write_text(out)
        columns = tmp_path / "F.csv"
        columns.write_text("one,t\n1,0.0\n1,0.2\n1,0.4\n1,x\n1,0.8\n1,1.0\n")
        cfg = tmp_path / "trend.json"
        cfg.write_text(json.dumps({"columns": str(columns)}))
        code, out, err = run_cli(["estimate", "--data", str(data), "--box", "0.1,10,0.3,30", "--trend", str(cfg)])
        assert code == 1 and out == ""
        assert "line 5" in self._error(err)

    def test_trend_column_file_nonfinite_value_exits_1(self, tmp_path):
        # 'nan' parses as a number; the basis rank check refuses it
        _, out, _ = run_cli(["simulate", "--design", "regular:6", "--theta", "3", "--sigma2", "1", "--seed", "2"])
        data = tmp_path / "data.csv"
        data.write_text(out)
        columns = tmp_path / "F.csv"
        columns.write_text("1,0.0\n1,0.2\n1,nan\n1,0.6\n1,0.8\n1,1.0\n")
        cfg = tmp_path / "trend.json"
        cfg.write_text(json.dumps({"columns": str(columns)}))
        code, out, err = run_cli(["estimate", "--data", str(data), "--box", "0.1,10,0.3,30", "--trend", str(cfg)])
        assert code == 1 and out == ""
        assert "basis matrix must be finite" in self._error(err)


_NUMBERS = st.one_of(st.floats(width=64).map(repr),
                     st.sampled_from(["inf", "-Infinity", "NaN", "1e400", " .5 ", "1.", "-0", "\t2E-3"]))
_SKIPPED = st.sampled_from(["", "   ", "\t", "# a comment", "  # indented", "#"])
_BAD_FIELDS = st.sampled_from(["oops", "1_0", "0.2 # note", ""])


@st.composite
def _csv_files(draw):
    """Text of a comma-separated file of 1-3 fields a row, and the widths
    to read it with: leading and interior blank, whitespace-only and '#'
    lines, a header, \\r\\n line ends, and (when not clean) bad fields,
    trailing commas and rows of another width."""
    width = draw(st.integers(1, 3))
    row = st.lists(_NUMBERS, min_size=width, max_size=width)
    lines = draw(st.lists(_SKIPPED, max_size=2))
    if draw(st.booleans()):
        lines.append(",".join(["s", "y", "z"][:width]))
    clean = draw(st.booleans())
    for kind in draw(st.lists(st.sampled_from(["row"] * 4 + ["skipped", "bad", "ragged"]), max_size=8)):
        if kind == "row" or clean:
            lines.append(",".join(draw(row)))
        elif kind == "skipped":
            lines.append(draw(_SKIPPED))
        elif kind == "bad":
            fields = draw(row)
            fields[draw(st.integers(0, width - 1))] = draw(_BAD_FIELDS)
            lines.append(",".join(fields))
        else:
            lines.append(",".join(draw(st.lists(_NUMBERS, min_size=1, max_size=4))))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, draw(st.sampled_from([None, (1,), (2, 3)]))


class TestReaderRoutes:
    """``_read_rows`` reads a regular file in one C parse by path. A file
    that parse refuses, a pipe, and a name numpy's path opener would not
    read as ``open`` does are read line by line by ``_parse_lines``; the
    two give the same rows, or the same error."""

    @staticmethod
    def _outcome(read):
        try:
            rows = read()
        except oucv.InvalidParameterError as err:
            return str(err)
        return rows.shape, rows.tobytes()  # bit for bit, nan included

    @settings(max_examples=400)
    @given(_csv_files())
    def test_the_two_routes_agree(self, tmp_path_factory, case):
        text, widths = case
        path = tmp_path_factory.getbasetemp() / "routes.csv"
        path.write_bytes(text.encode())
        with open(path) as fh:
            expected = self._outcome(lambda: cli._parse_lines(fh, str(path), widths))
        assert self._outcome(lambda: cli._read_rows(str(path), widths)) == expected

    def test_normal_files_take_the_c_route(self, tmp_path, monkeypatch):
        _, out, _ = run_cli(["simulate", "--design", "regular:200", "--theta", "3", "--sigma2", "1", "--seed", "5"])
        path = tmp_path / "data.csv"
        path.write_text(out)
        with open(path) as fh:
            expected = cli._parse_lines(fh, str(path), (2, 3))

        def refuse(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(cli, "_parse_lines", refuse)
        for text in (out, "# a path\n" + out, out.replace("\n", "\r\n")):
            path.write_bytes(text.encode())
            rows = cli._read_rows(str(path), (2, 3))
            assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()

    _TEXT = "s,y\n0.0,0.3\n0.5,0.1\n1.0,0.4\n"
    _SCORE = ["score", "--theta", "2", "--sigma2", "1", "--data"]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_compressed_suffix_on_plain_text_reads_as_text(self, tmp_path, suffix):
        plain, named = tmp_path / "plain.csv", tmp_path / f"plain.csv{suffix}"
        plain.write_text(self._TEXT)
        named.write_text(self._TEXT)
        code, out, _ = run_cli(self._SCORE + [str(named)])
        assert code == 0 and out == run_cli(self._SCORE + [str(plain)])[1]

    def test_gzip_bytes_are_not_text(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        path.write_bytes(gzip.compress(self._TEXT.encode()))
        code, out, err = run_cli(self._SCORE + [str(path)])
        assert code == 1 and out == ""
        assert "is not text" in json.loads(err)["message"]

    def test_a_url_like_name_is_a_local_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a:").mkdir()
        (tmp_path / "a:" / "b.csv").write_text(self._TEXT)
        (tmp_path / "plain.csv").write_text(self._TEXT)
        code, out, _ = run_cli(self._SCORE + ["a://b.csv"])
        assert code == 0 and out == run_cli(self._SCORE + ["plain.csv"])[1]

    def test_a_pipe_is_read_once(self, tmp_path):
        (tmp_path / "plain.csv").write_text(self._TEXT)
        proc = TestProcess._run(self._SCORE + ["/dev/stdin"], stdin=self._TEXT)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli(self._SCORE + [str(tmp_path / "plain.csv")])[1]


_EXPERIMENT = {
    "design": {"kind": "regular", "n": 20}, "theta0": 3.0, "sigma0_sq": 1.0, "replicates": 2,
    "box": [0.1, 10.0, 0.3, 30.0], "estimators": ["cv-joint"], "seed": 1,
}
_TREND_EXPERIMENT = dict(_EXPERIMENT, estimators=["cv-regression"])
_SIMULATE = ["simulate", "--theta", "3", "--sigma2", "1", "--seed", "1", "--design"]
_ESTIMATE = ["estimate", "--data", "DATA", "--box"]


@pytest.mark.parametrize("argv, config, named", [
    (_SIMULATE + ["maximal:20"], None, "maximal:20"),
    (_SIMULATE + ["regular:x"], None, "'x'"),
    (_SIMULATE + ["spiral:20"], None, "spiral:20"),
    (_ESTIMATE + ["0.1,10,x,30"], None, "0.1,10,x,30"),
    (_ESTIMATE + ["0.1,10,30"], None, "0.1,10,30"),
    (_ESTIMATE + ["0.1,10,0.3,30", "--trend", "CONFIG"], {"beta": [1.0, 2.0]}, "'basis'"),
    (_ESTIMATE + ["0.1,10,0.3,30", "--trend", "CONFIG"], {"basis": "polynomial:x"}, "polynomial:x"),
    (["experiment", "--config", "CONFIG"], {k: v for k, v in _EXPERIMENT.items() if k != "box"}, "'box'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, theta0="abc"), "'abc'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, design={"kind": "maximal", "n": 20}), "'gamma'"),
    (["experiment", "--config", "CONFIG"],
     dict(_TREND_EXPERIMENT, trend={"basis": "const", "beta": [1.0]}), "'const'"),
    (["experiment", "--config", "CONFIG"],
     dict(_TREND_EXPERIMENT, trend={"basis": "spline:1", "beta": [1.0, 2.0]}), "'spline:1'"),
    (["experiment", "--config", "CONFIG"], "{not json", "CONFIG"),
    # integers are not truncated, and booleans are not integers
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, design={"kind": "regular", "n": 20.9}), "'n'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, replicates=3.7), "'replicates'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, seed=1.5), "'seed'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, seed=True), "'seed'"),
    # a fixed parameter is checked when the config is read, and a zero is a bad value, not a missing one
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, estimators=["cv-fixed-theta"], theta2=-1.5), "'theta2'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, estimators=["cv-fixed-theta"], theta2=0), "'theta2'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, estimators=["cv-fixed-sigma"], sigma1_sq="inf"),
     "'sigma1_sq'"),
    # a seed the random generator refuses
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, seed=-5), "'seed'"),
    (["simulate", "--theta", "3", "--sigma2", "1", "--seed", "-1", "--design", "regular:8"], None, "seed -1"),
    # a generating parameter is checked when the config is read, not at the first sampled path
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, theta0="inf"), "'theta0'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, sigma0_sq="inf"), "'sigma0_sq'"),
    # a trend column file is named by a string, not opened as a file descriptor
    (_ESTIMATE + ["0.1,10,0.3,30", "--trend", "CONFIG"], {"columns": 0}, "'columns'"),
    # a trend config is a JSON object; simulation needs a named basis and its coefficients
    (_ESTIMATE + ["0.1,10,0.3,30", "--trend", "CONFIG"], [1.0, 2.0], "CONFIG"),
    (_SIMULATE + ["regular:8", "--trend", "CONFIG"], {"basis": "polynomial:1"}, "'beta'"),
    (_SIMULATE + ["regular:8", "--trend", "CONFIG"], {"columns": "F.csv"}, "column file"),
    (["design", "--design", "maximal:200"], None, "maximal:200"),
    # an estimator listed twice would give one panel of both runs' records
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, estimators=["cv-joint", "cv-joint"]), "'cv-joint'"),
    # an integer literal past the float range is a bad value, not a traceback
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, box=[0.1, 10**400, 0.3, 30.0]), "box"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, theta0=10**400), "'theta0'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, design={"kind": "maximal", "n": 20, "gamma": 10**400}),
     "'gamma'"),
    # a key that nothing reads is refused, not ignored
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, sigmal_sq=2), "'sigmal_sq'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, replicate=100), "'replicate'"),
    (_ESTIMATE + ["0.1,10,0.3,30", "--trend", "CONFIG"], {"basis": "polynomial:1", "columns_typo": "F.csv"},
     "'columns_typo'"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, design={"kind": "regular", "n": 20, "gamma": 0.3}),
     "regular design takes no 'gamma'"),
    # a config that is not text is refused as malformed, not with a traceback
    (["experiment", "--config", "CONFIG"], b"\xc0\xff{}", "CONFIG"),
    # each generating parameter is checked when the config is read, and so is
    # their product, which each replicate's statistic divides by
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, theta0=1e-200, sigma0_sq=1e-200),
     "'theta0' * 'sigma0_sq' must be positive and finite, got 0.0"),
    (["experiment", "--config", "CONFIG"], dict(_EXPERIMENT, theta0=1e200, sigma0_sq=1e200),
     "'theta0' * 'sigma0_sq' must be positive and finite, got inf"),
])
def test_malformed_spec_or_config_exits_1_naming_it(tmp_path, argv, config, named):
    _, out, _ = run_cli(_SIMULATE + ["regular:8"])
    data = tmp_path / "data.csv"
    data.write_text(out)
    path = tmp_path / "config.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    argv = [{"DATA": str(data), "CONFIG": str(path)}.get(a, a) for a in argv]
    if argv[0] == "experiment":
        argv += ["--output", str(tmp_path / "run")]
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    payload = json.loads(err.strip())
    assert payload["error"] == "InvalidParameterError"
    assert {"CONFIG": str(path)}.get(named, named) in payload["message"]


def test_an_unfittable_trend_is_refused_before_the_run(tmp_path):
    # six trend columns on six points are refused before any replicate
    # is sampled, so no run directory is written
    config = dict(_EXPERIMENT, design={"kind": "regular", "n": 6}, replicates=3,
                  estimators=["cv-joint", "cv-regression"], trend={"basis": "polynomial:5", "beta": [0.0] * 6})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(["experiment", "--config", str(path), "--output", str(tmp_path / "run")])
    assert code == 1 and out == ""
    payload = json.loads(err.strip())
    assert payload["error"] == "InvalidParameterError"
    assert "fewer columns (6) than observations (6)" in payload["message"]
    assert not (tmp_path / "run").exists()


def test_the_readme_command_lines_run(tmp_path, monkeypatch):
    # each oucv line of the README's command-line block exits 0, on the
    # data its own simulate line writes and the configs of its JSON snippets
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("## Command line\n")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    commands = [argv for argv in map(partial(shlex.split, comments=True), block.splitlines()) if argv[:1] == ["oucv"]]
    monkeypatch.chdir(tmp_path)
    Path("trend.json").write_text(re.search(r"A trend config is JSON: `(.*?)`", section)[1])
    experiment = section.split("An experiment config is JSON:")[1]
    Path("experiment.json").write_text(experiment.split("```json\n")[1].split("```")[0])
    commands.sort(key=lambda argv: argv[1] != "simulate")  # data.csv first
    assert commands[0][1] == "simulate" and len(commands) == 13
    for argv in commands:
        argv, target = (argv[1:-2], argv[-1]) if argv[-2:-1] == [">"] else (argv[1:], None)
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        if target:
            Path(target).write_text(out)


class TestHelp:
    def test_help_exits_zero_and_documents_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for sub in ("design", "simulate", "score", "estimate", "experiment"):
            assert sub in text

    @pytest.mark.parametrize("sub", ["design", "simulate", "score", "estimate", "experiment"])
    def test_subcommand_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0

    def test_experiment_has_no_threads_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        assert "--threads" not in capsys.readouterr().out


class TestParser:
    """``main`` parses with one parser per process; ``build_parser`` still
    returns a new one on every call."""

    def test_main_builds_at_most_one_parser(self, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            simulate = ["simulate", "--design", "regular:8", "--theta", "3", "--sigma2", "1", "--seed", "4"]
            for argv in [simulate] * 5 + [["estimate", "--data", "x.csv"], ["--help"]]:
                run_cli(argv)
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()

    def test_build_parser_returns_a_new_parser(self):
        parser = build_parser()
        assert parser is not build_parser() and parser is not cli._parser()
        parser.add_argument("--required-here", required=True)  # changing one does not reach main
        assert run_cli(["design", "--design", "regular:6"])[0] == 0


class TestProcess:
    """``python -m oucv`` in a child process: each failing exit code
    leaves exactly one JSON line on stderr and no traceback."""

    @staticmethod
    def _run(argv, stdin=None):
        src = str(Path(oucv.__file__).resolve().parents[1])  # the package under test
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "oucv", *argv], input=stdin, capture_output=True, text=True,
                              env=env, timeout=120)

    @pytest.mark.parametrize("argv, code, error, named", [
        (["simulate", "--design", "regular:8", "--theta", "3", "--sigma2", "1", "--seed", "-1"], 1,
         "InvalidParameterError", ()),
        (["design", "--design", "file:MISSING"], 2, "FileNotFoundError", ()),
        (["score", "--data", "INF", "--theta", "2", "--sigma2", "1"], 3, "NumericalFailureError", ()),
        (["estimate", "--data", "HUGE", "--box", "0.1,10,0.3,30"], 3, "NumericalFailureError", ()),
        (["estimate", "--data", "EDGE", "--box", "0.1,10,0.3,30"], 3, "NumericalFailureError", ()),
        # a minimal design past n = 20 always underflows, and says so in one line, with no warning
        (["design", "--design", "minimal:25:0.5"], 1, "InvalidDesignError", ()),
        (["simulate", "--design", "minimal:25:0.5", "--theta", "3", "--sigma2", "1", "--seed", "1"], 1,
         "InvalidDesignError", ()),
        # the dense likelihood refuses a covariance too ill-conditioned to factor accurately
        (["score", "--data", "MINIMAL", "--theta", "0.1", "--sigma2", "1", "--objective", "ml", "--oracle"], 3,
         "ConditioningError", ()),
        # a bad fixed value is named with its estimator
        (["estimate", "--data", "MINIMAL", "--box", "0.1,10,0.3,30", "--mode", "fixed-sigma", "--sigma1", "nan"], 1,
         "InvalidParameterError", ("cv-fixed-sigma", "sigma1")),
        (["estimate", "--data", "MINIMAL", "--box", "0.1,10,0.3,30", "--mode", "fixed-theta", "--theta2", "-1"], 1,
         "InvalidParameterError", ("cv-fixed-theta", "theta2")),
        # a dense oracle whose value is not finite fails as the kernels do, and prints no NaN or Infinity
        (["score", "--data", "PATH8", "--theta", "1", "--sigma2", "5e-324", "--oracle"], 3, "NumericalFailureError",
         ("logarithmic score",)),
        (["score", "--data", "PATH8", "--theta", "1", "--sigma2", "5e-324", "--oracle", "--objective", "ml"], 3,
         "NumericalFailureError", ("likelihood objective",)),
    ], ids=["domain", "io", "numerical", "numerical-on-the-whole-grid", "numerical-increment-overflow",
            "design-underflow", "simulate-design-underflow", "ml-oracle-ill-conditioned", "fixed-sigma-nan",
            "fixed-theta-negative", "cv-oracle-not-finite", "ml-oracle-not-finite"])
    def test_exit_code_contract(self, tmp_path, argv, code, error, named):
        inf = tmp_path / "inf.csv"
        inf.write_text("index,s,y\n1,0.0,0.1\n2,0.5,inf\n3,1.0,0.2\n")
        # a path whose objective overflows at every theta of the grid
        d = regular_design(200)
        y = 1e200 * sample_path(d, CovarianceParams(3.0, 1.0), 4)
        rows = enumerate(zip(d.points.tolist(), y.tolist()), 1)
        huge = tmp_path / "huge.csv"
        huge.write_text("index,s,y\n" + "".join(f"{i},{s!r},{v!r}\n" for i, (s, v) in rows))
        edge = tmp_path / "edge.csv"  # an increment beyond the float range
        edge.write_text("index,s,y\n1,0.0,1.5e308\n2,0.5,-1.5e308\n3,1.0,0.2\n")
        minimal = tmp_path / "minimal.csv"  # a pivot ratio of 1e-8 at theta = 0.1
        d = minimal_design(18, 0.5)
        rows = enumerate(zip(d.points.tolist(), sample_path(d, CovarianceParams(3.0, 1.0), 4).tolist()), 1)
        minimal.write_text("index,s,y\n" + "".join(f"{i},{s!r},{v!r}\n" for i, (s, v) in rows))
        path8 = tmp_path / "path8.csv"
        path8.write_text(run_cli(_SIMULATE + ["regular:8"])[1])
        files = {"file:MISSING": f"file:{tmp_path / 'missing.txt'}", "INF": str(inf), "HUGE": str(huge),
                 "EDGE": str(edge), "MINIMAL": str(minimal), "PATH8": str(path8)}
        proc = self._run([files.get(a, a) for a in argv])
        assert proc.returncode == code
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        payload = json.loads(line)
        assert payload["error"] == error
        assert all(name in payload["message"] for name in named)
        assert "Traceback" not in proc.stderr

    def test_one_parser_serves_a_sequence_of_commands(self, tmp_path, monkeypatch):
        # a rejection, help, a domain error, then a simulate -> score ->
        # estimate pass, all on this process's one parser, print what each
        # prints in a process of its own
        monkeypatch.setenv("COLUMNS", "80")  # the help text's width, here and in the child
        data = tmp_path / "data.csv"
        commands = [
            ["estimate", "--data", str(data)],
            ["--help"],
            ["simulate", "--design", "regular:8", "--theta", "3", "--sigma2", "1", "--seed", "-1"],
            ["simulate", "--design", "regular:30", "--theta", "3", "--sigma2", "1", "--seed", "4"],
            ["score", "--data", str(data), "--theta", "2", "--sigma2", "1"],
            ["estimate", "--data", str(data), "--box", "0.1,10,0.3,30"],
        ]
        here = []
        for argv in commands:
            here.append(run_cli(argv))
            if argv[0] == "simulate" and here[-1][0] == 0:
                data.write_text(here[-1][1])
        assert [code for code, _, _ in here] == [2, 0, 1, 0, 0, 0]
        for argv, result in zip(commands, here):
            proc = self._run(argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == result

    def test_a_theta_at_the_bottom_of_the_float_range_fails_without_a_warning(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(run_cli(_SIMULATE + ["regular:8"])[1])
        proc = self._run(["score", "--data", str(data), "--theta", "5e-324", "--sigma2", "1"])
        assert proc.returncode == 3 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "NumericalFailureError"

    def test_success_exits_0(self):
        argv = ["simulate", "--design", "regular:8", "--theta", "3", "--sigma2", "1", "--seed", "4"]
        proc = self._run(argv)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == run_cli(argv)[1]

    def test_runtime_loads_no_scipy(self, tmp_path):
        # the package, the entry point, and a simulate -> trend estimate
        # pass through the basis rank check, run on numpy alone
        (tmp_path / "trend.json").write_text(json.dumps({"basis": "polynomial:1"}))
        script = """
import contextlib, io, sys
from pathlib import Path
import oucv, oucv.cli
loaded = [sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]
tmp = Path(sys.argv[1])
with open(tmp / "data.csv", "w") as fh, contextlib.redirect_stdout(fh):
    code = [oucv.cli.main(["simulate", "--design", "regular:60", "--theta", "3", "--sigma2", "1", "--seed", "13"])]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code.append(oucv.cli.main(["estimate", "--data", str(tmp / "data.csv"), "--box", "0.1,10,0.3,30",
                               "--trend", str(tmp / "trend.json")]))
loaded.append(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
print(code, loaded, out.getvalue().count("cv-regression"))
"""
        src = str(Path(oucv.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "[0, 0] [[], []] 1\n"
