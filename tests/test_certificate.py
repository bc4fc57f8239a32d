"""The verdict of a solve: `BoundsReport.certified` holds when every
check named in `CHECKS` holds, `nophase solve` exits on it and names the
checks that fail, a sweep row carries the same verdict, and a bound that
overflows fails its check without a numpy warning."""

import dataclasses
import json
import warnings

import pytest

import nophase.cli
import nophase.sweep
from conftest import make_sech_coefficient
from nophase.cli import EXIT_CERTIFICATION, EXIT_OK, main
from nophase.problem import build_problem
from nophase.solver import (CHECKS, BoundsReport, extract_solution,
                            fixed_point_solve, make_bump, solve_problem)

SECH = {"q": "1 + sech(t)**2", "a": -3.0, "b": 3.0, "extension_width": 4.0}


@pytest.fixture(scope="module")
def sech_problem():
    return build_problem(make_sech_coefficient(), 40.0)


@pytest.fixture(scope="module")
def report(sech_problem):
    report = solve_problem(sech_problem)[0].bounds_report
    assert report.certified and report.failed_checks == []
    return report


def write_problem(tmp_path, data):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return str(path)


def failing_nu_bound(solve):
    """`solve_problem` with the report's nu_bound_ok set False."""
    def solve_failing(prob):
        result, state = solve(prob)
        report = dataclasses.replace(result.bounds_report, nu_bound_ok=False)
        return dataclasses.replace(result, bounds_report=report), state
    return solve_failing


class TestVerdict:
    @pytest.mark.parametrize("name", CHECKS)
    def test_each_check_decides_alone(self, report, name):
        failed = dataclasses.replace(report, **{name: False})
        assert failed.certified is False
        assert failed.failed_checks == [name]

    def test_verdict_is_not_an_argument(self, report):
        kwargs = {field.name: getattr(report, field.name)
                  for field in dataclasses.fields(report)
                  if field.name != "certified"}
        assert BoundsReport(**kwargs) == report
        with pytest.raises(TypeError, match="certified"):
            BoundsReport(**kwargs, certified=True)

    def test_report_is_frozen(self, report):
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.nu_bound_ok = False


class TestCommandsReadTheVerdict:
    def test_solve_exits_on_it_and_names_the_check(self, tmp_path,
                                                   monkeypatch, capsys):
        problem = write_problem(tmp_path, SECH)
        assert main(["solve", problem, "--lambda", "40"]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(nophase.cli, "solve_problem",
                            failing_nu_bound(nophase.cli.solve_problem))
        code = main(["solve", problem, "--lambda", "40"])
        captured = capsys.readouterr()
        assert code == EXIT_CERTIFICATION
        assert json.loads(captured.out)["certified"] is False
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("solve: "), err
        assert err[0].endswith("certified=False nu_bound_ok=False")

    def test_sweep_row_carries_it(self, tmp_path, monkeypatch):
        problem = write_problem(tmp_path, SECH)
        monkeypatch.setattr(nophase.sweep, "solve_problem",
                            failing_nu_bound(nophase.sweep.solve_problem))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", problem, "--lambdas", "40",
                     "--out", str(out)]) == EXIT_OK
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert [row["certified"] for row in rows] == [False]


class TestBoundsThatOverflow:
    def test_solve_names_the_checks_without_a_warning(self, tmp_path,
                                                      capsys):
        # finite differences inflate Gamma to 2.9e156 here, and both
        # bounds overflow; they read inf and passed before
        problem = write_problem(
            tmp_path, {"q": "1 + 0.5*sin(3*t)", "a": -1, "b": 2})
        code = main(["solve", problem, "--lambda", "2560"])
        captured = capsys.readouterr()
        assert code == EXIT_CERTIFICATION
        assert "overflow" not in captured.err
        assert json.loads(captured.out)["nu_bound_ok"] is False
        solve_line = captured.err.splitlines()[-1]
        assert solve_line.startswith("solve: ")
        assert "sigma_decay_ok=False" in solve_line
        assert "nu_bound_ok=False" in solve_line

    @pytest.mark.parametrize("gamma", [1e200, float("inf")])
    def test_extraction_fails_the_bounds_quietly(self, sech_problem, gamma):
        state = fixed_point_solve(sech_problem.p_hat,
                                  make_bump(sech_problem.grid, 40.0))
        prob = dataclasses.replace(sech_problem, gamma_fit=gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = extract_solution(state, prob).bounds_report
        assert report.failed_checks == ["lambda_hypothesis_ok",
                                        "sigma_decay_ok", "nu_bound_ok"]
