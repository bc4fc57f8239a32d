"""The record scripts run against the package as it is: scripts/stage_times.py
prints every stage row with its keys, scripts/digests.py the six
digests, and scripts/surface.py its six lines, so an API change cannot
silently break them."""

import json
import os
import pathlib
import subprocess
import sys

import nophase

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SRC = os.path.dirname(os.path.dirname(nophase.__file__))

LADDER_ROWS = ("20", "80", "320", "1280")
LADDER_KEYS = {
    "build_problem_ms", "bump_ms", "fixed_point_ms", "fixed_point_iter_ms",
    "extract_ms", "build_phase_ms", "checks_ms", "oracle_ms", "grid_n",
    "iterations", "increment_ratios", "q_points", "oracle_q_points",
    "evaluator_points", "ffts", "hermitian_checks", "fit_rounds",
    "clenshaw_passes", "delta_degree", "r_len", "alpha_len",
    "oracle_us_per_q_point", "build_problem_peak_kb", "build_phase_peak_kb"}
DIGESTS = ("solve-ladder", "verify-oracle", "sweep-cli",
           "constant-expression", "constant-table", "constant-callable")


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC}).stdout


def test_stage_times_prints_every_row():
    out = json.loads(run_script("stage_times.py", "--passes", "1"))
    stages = out["stages"]
    assert out["passes"] == 1
    assert list(stages) == [*LADDER_ROWS, "320-expression", "640-fd"]
    for row in LADDER_ROWS:
        assert set(stages[row]) == LADDER_KEYS, row
    assert set(stages["320-expression"]) == {
        "oracle_ms", "oracle_q_points", "q_us", "oracle_us_per_q_point"}
    assert set(stages["640-fd"]) == {
        "build_problem_peak_kb", "build_phase_peak_kb", "grid_n"}
    assert stages["640-fd"]["grid_n"] == 32768
    for row in (*LADDER_ROWS, "640-fd"):
        assert stages[row]["build_problem_peak_kb"] > 0
        assert stages[row]["build_phase_peak_kb"] > 0


def test_digests_prints_the_six():
    lines = [line.split() for line in
             run_script("digests.py").splitlines()]
    assert [name for name, _ in lines] == list(DIGESTS)
    assert all(len(value) == 64 and int(value, 16) >= 0
               for _, value in lines)


def test_surface_prints_its_six_lines():
    lines = run_script("surface.py").splitlines()
    counts = ("lines", "definitions", "defaulted parameters", "cli options")
    assert len(lines) == 6
    for line, name in zip(lines, counts):
        label, value = line.rsplit(" ", 1)
        assert label == name and int(value) > 0, line
    assert lines[4:] == ["scipy modules none",
                         "numpy.polynomial modules none"]
