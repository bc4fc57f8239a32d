import csv
import json
import os
import pathlib

import numpy as np
import pytest

from conftest import make_constant_coefficient
from nophase.cli import (EXIT_CERTIFICATION, EXIT_NUMERICAL, EXIT_OK,
                         _tests_dir, build_parser, main)
from nophase.solver import BoundsReport
from nophase.sweep import CSV_COLUMNS, fit_slope, run_sweep, sweep_point


@pytest.fixture
def constant_problem(tmp_path):
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({
        "q": "1", "dq": "0*t", "d2q": "0*t", "a": 0.0, "b": 1.0,
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

    def test_failures_recorded_not_raised(self, tmp_path):
        # the fixed grid cannot resolve the cutoff at the larger lambda
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({
            "q": "1", "dq": "0*t", "d2q": "0*t", "a": 0.0, "b": 1.0,
            "grid": {"L": 4.0, "N": 64},
        }))
        out = tmp_path / "sweep.csv"
        report = run_sweep(str(path), [1.0, 500.0], out)
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

    def test_grid_overrides(self, constant_problem, tmp_path):
        out = tmp_path / "report.json"
        code = main(["solve", constant_problem, "--lambda", "10",
                     "--grid-L", "16", "--grid-N", "512",
                     "--out", str(out)])
        assert code == EXIT_OK

    @pytest.mark.filterwarnings("ignore:solvability hypotheses")
    def test_uncertified_exit_code(self, sech_problem, tmp_path):
        out = tmp_path / "report.json"
        code = main(["solve", sech_problem, "--lambda", "2",
                     "--out", str(out)])
        assert code == EXIT_CERTIFICATION
        assert json.load(open(out))["certified"] is False

    def test_missing_lambda_is_numerical_failure(self, constant_problem):
        assert main(["solve", constant_problem]) == EXIT_NUMERICAL

    def test_unresolvable_grid_is_numerical_failure(self, constant_problem):
        code = main(["solve", constant_problem, "--lambda", "100",
                     "--grid-L", "4", "--grid-N", "64"])
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("text", [
        None,
        '{"q": "1", "a": 0.0,',
        '{"q": "1 + foo(t)", "a": 0.0, "b": 1.0}',
        '{"q": "1", "a": 0.0}',
        '{"q": "-1", "a": 0.0, "b": 1.0}',
    ], ids=["missing-file", "malformed-json", "unknown-function",
            "missing-key", "nonpositive-q"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        code = main(["solve", str(path), "--lambda", "10"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestCliVerify:
    def test_constant_coefficient_passes(self, constant_problem, capsys):
        code = main(["verify", constant_problem, "--lambda", "10"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_sech_passes(self, sech_problem):
        code = main(["verify", sech_problem, "--lambda", "40"])
        assert code == EXIT_OK


class TestCliSweep:
    def test_success(self, constant_problem, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", constant_problem, "--lambdas", "10,20",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_partial_failure_exit_code(self, tmp_path):
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({
            "q": "1", "dq": "0*t", "d2q": "0*t", "a": 0.0, "b": 1.0,
            "grid": {"L": 4.0, "N": 64},
        }))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(path), "--lambdas", "1,500",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL

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


class TestCliPlumbing:
    def test_selftest_registered(self):
        args = build_parser().parse_args(["selftest"])
        assert args.command == "selftest"

    def test_tests_directory_found(self):
        assert os.path.isdir(_tests_dir())

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
