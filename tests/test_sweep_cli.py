import csv
import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nophase.cli
import nophase.problem
import nophase.sweep
from conftest import make_constant_coefficient, sech2
from helpers import fit_slope
from nophase.cli import (EXIT_CERTIFICATION, EXIT_NUMERICAL, EXIT_OK,
                         _tests_dir, build_parser, main)
from nophase.problem import Coefficient, build_problem
from nophase.solver import BoundsReport, solve_problem
from nophase.sweep import CSV_COLUMNS, run_sweep, sweep_point


def table_problem(knots):
    """The sech problem with q = 1 + sech(t)^2 given as a table."""
    return {"q": np.stack([knots, sech2(knots)], axis=1).tolist(),
            "a": -3.0, "b": 3.0, "extension_width": 4.0}


@pytest.fixture
def constant_problem(tmp_path):
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({
        "q": "1", "dq": "0*t", "d2q": "0*t", "a": 0.0, "b": 1.0,
    }))
    return str(path)


@pytest.fixture
def narrow_problem(tmp_path):
    # a fixed grid too coarse for the cutoff at lambda = 100 or 500
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({
        "q": "1", "dq": "0*t", "d2q": "0*t", "a": 0.0, "b": 1.0,
        "grid": {"L": 4.0, "N": 64},
    }))
    return str(path)


@pytest.fixture
def sech_problem(tmp_path):
    path = tmp_path / "sech.json"
    path.write_text(json.dumps({
        "q": "1 + sech(t)**2", "a": -3.0, "b": 3.0, "extension_width": 4.0,
    }))
    return str(path)


class TestSweepPoint:
    def test_constant_coefficient_row(self):
        row = sweep_point(make_constant_coefficient(1.0, 0.0, 1.0), 20.0)
        assert row.iterations == 1
        assert row.nu_inf == 0.0
        assert row.cheb_degree <= 2
        assert row.floor_limited
        assert row.error is None
        assert row.err_u <= 1e-10 and row.err_v <= 1e-10


class TestRunSweep:
    def test_csv_layout(self, constant_problem, tmp_path):
        out = tmp_path / "sweep.csv"
        report = run_sweep(constant_problem, [10.0, 20.0], out)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 3
        for row in rows[1:]:
            assert len(row) == len(CSV_COLUMNS)
            float(row[0])  # lambda parses
            assert int(row[1]) == 1
        assert len(report.rows) == 2

    def test_json_alongside(self, constant_problem, tmp_path):
        out = tmp_path / "sweep.csv"
        run_sweep(constant_problem, [10.0], out)
        payload = json.load(open(tmp_path / "sweep.json"))
        assert [r["lam"] for r in payload["rows"]] == [10.0]
        assert payload["rows"][0]["error"] is None

    def test_deterministic_excluding_wall_time(self, constant_problem,
                                               tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_sweep(constant_problem, [10.0, 20.0], out1)
        run_sweep(constant_problem, [10.0, 20.0], out2)
        strip = lambda path: [line.rsplit(",", 1)[0]
                              for line in open(path).read().splitlines()]
        assert strip(out1) == strip(out2)

    def test_failures_recorded_not_raised(self, narrow_problem, tmp_path):
        out = tmp_path / "sweep.csv"
        report = run_sweep(narrow_problem, [1.0, 500.0], out)
        assert report.rows[0].error is None
        assert report.rows[1].error is not None
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[2][1] == "-1"
        assert np.isnan(float(rows[2][2]))


class TestFitSlope:
    def test_recovers_exponential_rate(self):
        lams = np.array([10.0, 20.0, 40.0, 80.0])
        vals = 3.0 * np.exp(-0.5 * lams)
        assert fit_slope(lams, vals) == pytest.approx(-0.5, abs=1e-12)

    def test_ignores_zero_entries(self):
        lams = np.array([10.0, 20.0, 40.0, 80.0])
        vals = np.exp(-0.25 * lams)
        vals[-1] = 0.0
        assert fit_slope(lams, vals) == pytest.approx(-0.25, abs=1e-12)


class TestCliSolve:
    def test_report_mirrors_bounds_report(self, constant_problem, tmp_path):
        out = tmp_path / "report.json"
        code = main(["solve", constant_problem, "--lambda", "10",
                     "--out", str(out)])
        assert code == EXIT_OK
        payload = json.load(open(out))
        field_names = set(BoundsReport.__dataclass_fields__)
        assert set(payload) == field_names
        assert payload["lam"] == 10.0
        assert payload["certified"] is True
        assert payload["iterations"] == 1

    def test_stdout_report(self, constant_problem, capsys):
        code = main(["solve", constant_problem, "--lambda", "10"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["nu_bound_ok"] is True

    @pytest.mark.filterwarnings("ignore:solvability hypotheses")
    def test_uncertified_exit_code(self, sech_problem, tmp_path):
        out = tmp_path / "report.json"
        code = main(["solve", sech_problem, "--lambda", "2",
                     "--out", str(out)])
        assert code == EXIT_CERTIFICATION
        assert json.load(open(out))["certified"] is False

    def test_missing_lambda_is_numerical_failure(self, constant_problem):
        assert main(["solve", constant_problem]) == EXIT_NUMERICAL

    def test_unresolvable_grid_is_numerical_failure(self, narrow_problem):
        code = main(["solve", narrow_problem, "--lambda", "100"])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("text", [
        None,
        '{"q": "1", "a": 0.0,',
        '{"q": "1 + foo(t)", "a": 0.0, "b": 1.0}',
        '{"q": "1", "a": 0.0}',
        '{"q": "-1", "a": 0.0, "b": 1.0}',
        '{"q": "1", "a": null, "b": 1.0}',
        '{"q": "1", "a": 0.0, "b": 1.0, "extension_width": "4"}',
        '{"q": "1", "a": 0.0, "b": 1.0, "extension_width": 0}',
        '{"q": "1", "a": 0.0, "b": 1.0, "extension_width": -2}',
        '{"q": "1", "a": 0.0, "b": 1.0, "grid": {"L": [1]}}',
        '{"q": "1", "a": 0.0, "b": 1.0, "grid": 5}',
        '{"q": "1", "a": 0.0, "b": 1.0, "lambda": null}',
        '{"q": "1", "dq": 5, "a": 0.0, "b": 1.0}',
        '5',
        '{"q": "1 + 1/0", "a": 0.0, "b": 1.0}',
        '{"q": "1 + 2.0**5000", "a": 0.0, "b": 1.0}',
        '{"q": [[1, 1], [1.5, 1.2], [2, 1.1]], "a": 1, "b": 2}',
        '{"q": [[-1, 1], [2, 1.2], [1, 1.1], [4, 1]], "a": 1, "b": 2}',
        '{"q": [[-1, 1], [1, 1.2], [1, 1.1], [4, 1]], "a": 1, "b": 2}',
        '{"q": [[-1, 1], [1, NaN], [2, 1.1], [4, 1]], "a": 1, "b": 2}',
        '{"q": [[1, 1]], "a": 1, "b": 2}',
        '{"q": [[-1, 1], [1, {}], [4, 1]], "a": 1, "b": 2}',
        '{"q": [[-1, 1], [1], [4, 1]], "a": 1, "b": 2}',
        json.dumps({"q": "1 + " + "+".join(["0.001*t**2"] * 500),
                    "a": 0.0, "b": 1.0}),
        json.dumps({"q": "1 + " + "+".join(["0.001*t**2"] * 5000),
                    "a": 0.0, "b": 1.0}),
        '{"q": "1", "a": 0.0, "b": 1.0, "extension_width": 1e200}',
        '{"q": "1", "a": 0.0, "b": 1e160}',
        '{"q": "1", "a": 0.0, "b": 1.0, "grid": {"L": 1e308}}',
        '{"q": "1", "a": 0.0, "b": 1.0, "grid": {"L": -1}}',
        '{"q": "1", "a": 0.0, "b": 1.0, "grid": {"L": 0}}',
        '{"q": "1", "a": 0.0, "b": 1.0, "grid": {"N": 100}}',
    ], ids=["missing-file", "malformed-json", "unknown-function",
            "missing-key", "nonpositive-q", "null-a", "string-width",
            "zero-width", "negative-width", "list-grid-L", "number-grid",
            "null-lambda", "number-dq", "not-an-object", "zero-division",
            "overflowing-constant", "table-short-of-the-extension",
            "table-unsorted", "table-duplicate-knot", "table-nan-value",
            "table-one-knot", "table-non-numeric", "table-ragged",
            "sum-of-500-terms", "sum-of-5000-terms", "huge-width",
            "huge-interval", "huge-grid-L", "negative-grid-L", "zero-grid-L",
            "grid-N-not-a-power-of-two"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", str(path), "--lambda", "10"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("grid, lam, named", [
        ({"L": 1e308}, "10", ["lambda=10", "L=1e+308"]),
        ({"L": -1}, "10", ["grid L", "-1"]),
        ({"L": 0}, "10", ["grid L", "0"]),
        ({"N": 100}, "10", ["grid N", "100"]),
        ({"N": 8}, "10", ["grid N", "8"]),
        ({}, "1e308", ["lambda=1e+308", "L=3.6"]),
    ], ids=["huge-L", "negative-L", "zero-L", "N-not-a-power-of-two",
            "N-below-16", "huge-lambda"])
    def test_grid_that_cannot_be_built_is_named(self, tmp_path, capsys,
                                                grid, lam, named):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"q": "1", "a": 0.0, "b": 1.0,
                                    "grid": grid}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", str(path), "--lambda", lam])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "Error:" not in err[0]
        assert all(part in err[0] for part in named), err[0]

    @pytest.mark.parametrize("lam", ["1e154", "1e200"])
    def test_lambda_too_large_is_named(self, tmp_path, capsys, lam):
        # 4 lambda^2 overflows from about 6.7e153 on
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"q": "1", "a": 0.0, "b": 1.0}))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code = main(["solve", str(path), "--lambda", lam])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"lambda={float(lam):g}" in err[0], err[0]

    @pytest.mark.parametrize("lam", ["1e-160", "1e-200"])
    def test_lambda_too_small_is_named(self, tmp_path, capsys, lam):
        # the band multiplier 1/(4 lambda^2) at xi = 0 overflows below
        # about 3.73e-155; 4 lambda^2 underflows to 0 at 1e-200
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"q": "1", "a": 0.0, "b": 1.0}))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code = main(["solve", str(path), "--lambda", lam])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"lambda={float(lam):g}" in err[0], err[0]

    def test_smallest_lambda_reaches_the_solve(self, tmp_path, capsys):
        # just above the bound the solve runs, and its exp guard refuses
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"q": "1 + 0.1*exp(-t**2)", "a": -1.0,
                                    "b": 1.0}))
        code = main(["solve", str(path), "--lambda", "3.8e-155"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == "error: space-domain magnitude too large for exp"

    @pytest.mark.parametrize("lam", ["3.8e-155", "5e-155"])
    def test_tiny_lambda_overflow_is_named(self, tmp_path, capsys, lam):
        # Wb w, 1/(4 lambda^2) ~ 1e308 times w near xi = 0, would overflow
        # in the first iteration's `inverse` (which divides by dx), as a
        # numpy warning naming nothing
        path = tmp_path / "sech.json"
        path.write_text(json.dumps({
            "q": "1 + sech(t)**2", "dq": "-(exp(t) - exp(-t))*sech(t)**3",
            "d2q": "((exp(t) - exp(-t))**2 - 2)*sech(t)**4",
            "a": -3.0, "b": 3.0, "extension_width": 4.0,
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code = main(["solve", str(path), "--lambda", lam])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error: ") and f"lambda={lam}" in err[-1]
        assert not any("warning: overflow" in line for line in err), err

    def test_largest_lambda_still_solves(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"q": "1", "a": 0.0, "b": 1.0}))
        assert main(["solve", str(path), "--lambda", "6e153"]) == EXIT_OK

    def test_largest_width_still_solves(self, tmp_path):
        # w = 1.3e154 is the width just below the one whose square
        # overflows (test_problem's test_width_too_large_is_named)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"q": "1", "a": 0.0, "b": 1.0,
                                    "extension_width": 1.3e154}))
        assert main(["solve", str(path), "--lambda", "10"]) == EXIT_OK

    def test_nan_q_is_not_positive(self, tmp_path, capsys):
        # sqrt(t) is NaN on [a - 3w, 0) = [-0.5, 0), inside the extension
        path = tmp_path / "sqrt.json"
        path.write_text(json.dumps({"q": "sqrt(t)", "a": 1, "b": 2}))
        code = main(["solve", str(path), "--lambda", "20"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert all(line.startswith(("warning: ", "error: ")) for line in err)
        assert err[-1] == ("error: coefficient is not finite and strictly "
                           "positive on [a - 3w, b + 3w] = [-0.5, 3.5]")

    def test_out_never_overwrites_problem(self, constant_problem, capsys):
        problem = pathlib.Path(constant_problem)
        before = problem.read_bytes()
        code = main(["solve", constant_problem, "--lambda", "10",
                     "--out", constant_problem])
        assert code == EXIT_NUMERICAL
        assert problem.read_bytes() == before
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "problem file" in err[0]

    def test_missing_output_directory_checked_before_the_solve(
            self, constant_problem, tmp_path, monkeypatch, capsys):
        calls = []
        original = nophase.cli.build_problem
        monkeypatch.setattr(nophase.cli, "build_problem",
                            lambda *args, **kw: calls.append(args)
                            or original(*args, **kw))
        (tmp_path / "out_dir").mkdir()
        cases = ((tmp_path / "missing_dir" / "report.json", "missing_dir"),
                 (tmp_path / "out_dir", str(tmp_path / "out_dir")))
        for out, named in cases:
            code = main(["solve", constant_problem, "--lambda", "10",
                         "--out", str(out)])
            assert code == EXIT_NUMERICAL
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert named in err[0], err[0]
        assert calls == []

    def test_warning_on_one_line(self, sech_problem, capsys):
        code = main(["solve", sech_problem, "--lambda", "4"])
        assert code == EXIT_CERTIFICATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("warning: solvability hypotheses not "
                                 "satisfied")
        assert err[1].startswith("solve: ")

    def test_constant_expression_needs_no_derivatives(self, tmp_path):
        # finite differences of a constant must give d2q = 0, not round-off
        reports = []
        for extra in ({}, {"dq": "0*t", "d2q": "0*t"}):
            path = tmp_path / "constant.json"
            path.write_text(json.dumps({"q": "2", "a": -1, "b": 1,
                                        "lambda": 10, **extra}))
            out = tmp_path / "report.json"
            assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        assert reports[0] == reports[1]
        assert reports[0]["certified"] is True

    def test_constant_table_is_exact(self, tmp_path):
        # finite differences of the interpolant must give d2q = 0 too
        reports = []
        for q in ([[-4, 2], [4, 2]], "2"):
            path = tmp_path / "constant.json"
            path.write_text(json.dumps({"q": q, "a": -1, "b": 1,
                                        "lambda": 10}))
            out = tmp_path / "report.json"
            assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("lam", [10.0, 100.0])
    def test_constant_callable_reports_as_the_file(self, tmp_path, lam):
        # neither route is told that q is constant; the finite
        # differences must give both the same exact zeros
        path = tmp_path / "constant.json"
        path.write_text(json.dumps({"q": "2", "a": -1, "b": 1}))
        out = tmp_path / "report.json"
        assert main(["solve", str(path), "--lambda", repr(lam),
                     "--out", str(out)]) == EXIT_OK
        coeff = Coefficient.make(
            lambda t: np.full_like(np.asarray(t, dtype=float), 2.0), -1, 1)
        result, _ = solve_problem(build_problem(coeff, lam))
        assert dataclasses.asdict(result.bounds_report) \
            == json.loads(out.read_text())

    @pytest.mark.parametrize("command", [
        ["solve", "--lambda", "10"], ["verify", "--lambda", "10"]],
        ids=["solve", "verify"])
    def test_memory_error_exits_2_with_one_line(
            self, constant_problem, tmp_path, monkeypatch, capsys, command):
        # numpy's MemoryError for an array it cannot allocate, as when
        # the levels of forcing_transform double at --lambda 1e300; raised
        # here without allocating anything
        def refuse(*args):
            raise MemoryError("Unable to allocate 8.25 GiB for an array")

        monkeypatch.setattr(nophase.problem, "forcing_transform", refuse)
        monkeypatch.chdir(tmp_path)
        code = main(command[:1] + [constant_problem] + command[1:])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: MemoryError: Unable to allocate 8.25 GiB for an array"]

    def test_nonuniform_table_is_certified(self, tmp_path):
        t = 15.0 * np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, 141))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table_problem(t)))
        assert main(["solve", str(path), "--lambda", "40"]) == EXIT_OK

    def test_difference_stencil_stays_in_the_extension(self, tmp_path):
        # q = sqrt(t + 2) + 1 is defined from a - 3w = -2 on; a stencil
        # reaching past it read NaN
        problem = {"q": "sqrt(t + 2) + 1", "a": 0, "b": 1,
                   "extension_width": 2 / 3}
        nu = []
        for extra in ({}, {"dq": "0.5/sqrt(t + 2)",
                           "d2q": "-0.25/(t + 2)**1.5"}):
            path = tmp_path / "sqrt.json"
            path.write_text(json.dumps({**problem, **extra}))
            out = tmp_path / "report.json"
            code = main(["solve", str(path), "--lambda", "80",
                         "--out", str(out)])
            assert code == EXIT_OK
            nu.append(json.loads(out.read_text())["nu_inf"])
        assert nu[0] == pytest.approx(nu[1], rel=1e-8)

    # a flag that parses as inf or nan names itself, on one line
    @pytest.mark.parametrize("argv", [
        ["solve", "--lambda", "inf"],
        ["solve", "--lambda", "nan"],
        ["verify", "--lambda", "inf"],
        ["verify", "--lambda", "nan"],
        ["verify", "--lambda", "10", "--oracle-tol", "inf"],
        ["verify", "--lambda", "10", "--oracle-tol", "nan"],
    ], ids=["solve-lambda-inf", "solve-lambda-nan", "verify-lambda-inf",
            "verify-lambda-nan", "verify-oracle-tol-inf",
            "verify-oracle-tol-nan"])
    def test_non_finite_flag_exits_2_with_one_line(self, constant_problem,
                                                   capsys, argv):
        code = main([argv[0], constant_problem] + argv[1:])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "finite" in err[0]


class TestCliVerify:
    def test_constant_coefficient_passes(self, constant_problem, capsys):
        code = main(["verify", constant_problem, "--lambda", "10"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_sech_passes(self, sech_problem):
        code = main(["verify", sech_problem, "--lambda", "40"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("lam", ["20", "80"])
    def test_sech_table_passes(self, tmp_path, lam):
        # q'' must be smooth: where it jumps, delta's Chebyshev fit fails
        path = tmp_path / "table.json"
        path.write_text(json.dumps(
            table_problem(np.linspace(-15.0, 15.0, 141))))
        assert main(["verify", str(path), "--lambda", lam]) == EXIT_OK

    @pytest.mark.parametrize("tol", ["1e-15", "inf"])
    def test_oracle_tol_checked_before_the_solve(self, constant_problem,
                                                 monkeypatch, capsys, tol):
        # a bad --oracle-tol is reported before the problem file is read
        calls = []
        for module, name in ((nophase.cli, "load_problem_file"),
                             (nophase.sweep, "build_problem")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, f=original, **kw:
                                calls.append(args) or f(*args, **kw))
        code = main(["verify", constant_problem, "--lambda", "10",
                     "--oracle-tol", tol])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "--oracle-tol" in err[0]
        assert calls == []

    def test_oracle_failure_exits_2_with_one_line(self, sech_problem,
                                                  monkeypatch, capsys):
        # the oracle alone sees a q that is NaN past t = 0.5; a problem
        # file with such a q would fail in setup instead
        basis_error = nophase.sweep.basis_error

        def nan_past_half(s):
            return np.where(s > 0.5, np.nan, 1.0 + 1.0 / np.cosh(s) ** 2)

        def failing(phase, prob, tol):
            coeff = dataclasses.replace(prob.coefficient, q=nan_past_half)
            return basis_error(phase, dataclasses.replace(prob,
                                                          coefficient=coeff),
                               tol=tol)

        monkeypatch.setattr(nophase.sweep, "basis_error", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", sech_problem, "--lambda", "40"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: reference integrator failed: "
                       "error estimate is not a number"]


class TestCliSweep:
    def test_success(self, constant_problem, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", constant_problem, "--lambdas", "10,20",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_partial_failure_exit_code(self, narrow_problem, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", narrow_problem, "--lambdas", "1,500",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL

    def test_rows_say_whether_they_are_certified(self, sech_problem,
                                                 tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", sech_problem, "--lambdas", "40,300,319.9",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert [row["certified"] for row in rows] == [True, False, False]
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning: ")]
        assert [line.split(";")[0] for line in warned] == [
            "warning: solvability hypotheses not satisfied at lambda=300",
            "warning: solvability hypotheses not satisfied at lambda=319.9"]

    def test_ball_warning_on_every_row(self, tmp_path, capsys):
        # ||p-hat||_1 = 3.57 exceeds (pi/2) lambda^2 at every lambda here
        # (0.39, 0.57, 0.77); the text names lambda, so the warnings
        # registry, which shows a text once, shows one per row
        path = tmp_path / "sech.json"
        path.write_text(json.dumps({
            "q": "1 + sech(t)**2", "dq": "-(exp(t) - exp(-t))*sech(t)**3",
            "d2q": "((exp(t) - exp(-t))**2 - 2)*sech(t)**4",
            "a": -3.0, "b": 3.0, "extension_width": 4.0,
        }))
        main(["sweep", str(path), "--lambdas", "0.5,0.6,0.7",
              "--out", str(tmp_path / "sweep.csv")])
        ball = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: ||w||_1")]
        assert len(ball) == 3, ball
        assert [line.split(": convergence")[0] for line in ball] == [
            f"warning: ||w||_1 = 3.57 exceeds (pi/2) lambda^2 = {side} at "
            f"lambda={lam}" for lam, side in
            (("0.5", "0.393"), ("0.6", "0.565"), ("0.7", "0.77"))]

    def test_non_finite_lambda_is_a_failed_row(self, constant_problem,
                                               tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", constant_problem, "--lambdas", "inf,20",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert "lambda must be a finite number" in rows[0]["error"]
        assert rows[1]["lam"] == 20.0 and rows[1]["error"] is None
        assert rows[1]["iterations"] >= 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["sweep: lambda=inf failed: lambda must be a finite "
                       "number, not inf"]

    def test_lambda_without_a_grid_is_a_named_failed_row(
            self, constant_problem, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", constant_problem, "--lambdas", "1e308,20",
                         "--out", str(out)])
        assert code == EXIT_NUMERICAL
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert rows[0]["error"].startswith("no grid for lambda=1e+308 on "
                                           "[-L, L] with L=")
        assert rows[1]["lam"] == 20.0 and rows[1]["error"] is None
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("sweep: lambda=1e+308 failed: no grid")

    def test_memory_error_is_a_failed_row(self, constant_problem, tmp_path,
                                          monkeypatch, capsys):
        # numpy's MemoryError at the first lambda, raised without
        # allocating anything, as in TestCliSolve; the sweep goes on
        forcing_transform = nophase.problem.forcing_transform
        calls = []

        def refuse_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise MemoryError("Unable to allocate 8.25 GiB for an array")
            return forcing_transform(*args)

        monkeypatch.setattr(nophase.problem, "forcing_transform",
                            refuse_first)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", constant_problem, "--lambdas", "10,20",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert rows[0]["error"] == ("MemoryError: Unable to allocate "
                                    "8.25 GiB for an array")
        assert rows[1]["lam"] == 20.0 and rows[1]["error"] is None
        assert rows[1]["iterations"] >= 1
        with open(out) as handle:
            assert len(list(csv.reader(handle))) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["sweep: lambda=10 failed: MemoryError: Unable to "
                       "allocate 8.25 GiB for an array"]

    def test_json_mirror_never_overwrites_problem(self, constant_problem,
                                                  capsys):
        problem = pathlib.Path(constant_problem)
        before = problem.read_bytes()
        out = str(problem.with_suffix(".csv"))
        code = main(["sweep", constant_problem, "--lambdas", "10",
                     "--out", out])
        assert code == EXIT_NUMERICAL
        assert problem.read_bytes() == before
        assert not os.path.exists(out)
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_missing_output_directory_checked_before_the_solve(
            self, constant_problem, tmp_path, monkeypatch, capsys):
        calls = []
        original = nophase.sweep.build_problem
        monkeypatch.setattr(nophase.sweep, "build_problem",
                            lambda *args, **kw: calls.append(args)
                            or original(*args, **kw))
        # an existing directory as the CSV, or as its JSON mirror
        (tmp_path / "out_dir").mkdir()
        (tmp_path / "rows.json").mkdir()
        cases = ((tmp_path / "missing_dir" / "rows.csv", "missing_dir"),
                 (tmp_path / "out_dir", str(tmp_path / "out_dir")),
                 (tmp_path / "rows.csv", str(tmp_path / "rows.json")))
        for out, named in cases:
            code = main(["sweep", constant_problem, "--lambdas", "10,20",
                         "--out", str(out)])
            assert code == EXIT_NUMERICAL
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert named in err[0], err[0]
        assert calls == []
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("lambdas", ["", ","])
    def test_empty_lambda_list_is_bad_input(self, constant_problem,
                                            tmp_path, capsys, lambdas):
        out = tmp_path / "rows.csv"
        code = main(["sweep", constant_problem, "--lambdas", lambdas,
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert list(tmp_path.iterdir()) == [pathlib.Path(constant_problem)]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestCliPlumbing:
    def test_selftest_registered(self):
        args = build_parser().parse_args(["selftest"])
        assert args.command == "selftest"

    def test_tests_directory_found(self):
        assert os.path.isdir(_tests_dir())

    @pytest.mark.parametrize("layout", ["bare", "stray-tests"])
    def test_selftest_outside_a_checkout(self, tmp_path, layout):
        # an installed package has no tests/ beside it; a copy of the
        # package outside the checkout stands in for one.  A tests/
        # directory above the copy is not its suite either: only
        # <root>/src/nophase beside <root>/tests/test_acceptance.py is
        site = tmp_path
        if layout == "stray-tests":
            site = tmp_path / "site"
            (tmp_path / "tests").mkdir()
            (tmp_path / "tests" / "test_unrelated.py").write_text(
                "def test_unrelated():\n    pass\n")
        shutil.copytree(pathlib.Path(nophase.sweep.__file__).parent,
                        site / "nophase",
                        ignore=shutil.ignore_patterns("__pycache__"))
        # the copy, not the checkout, must be imported, or selftest would
        # run this suite again
        script = ("import sys, nophase, nophase.cli; "
                  "assert nophase.__file__.startswith(sys.argv[1]); "
                  "sys.exit(nophase.cli.main(['selftest']))")
        done = subprocess.run(
            [sys.executable, "-c", script, str(site)], cwd=site,
            env={**os.environ, "PYTHONPATH": str(site)},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_NUMERICAL
        assert done.stderr.splitlines() == [
            "error: test suite not found alongside the package"]

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
