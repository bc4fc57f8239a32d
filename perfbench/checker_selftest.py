"""Tests of the benchmark's own checker: it must reject wrong answers.

    python3 perfbench/checker_selftest.py          # or: python3 -m pytest perfbench/checker_selftest.py

The main wrong answer is a phase solved for a slightly perturbed q
(q = 1 + (1 + EPS) sech^2 t), judged against the true q.  The file name
keeps the repository's own test run from collecting it.
"""

import json
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import CSV_COLUMNS, Pass, SweepCli  # noqa: E402

EPS = 1e-6
LAM = 20.0


def _phase(eps):
    import nophase

    coeff = nophase.Coefficient.make(
        lambda t: 1.0 + (1.0 + eps) * (ref.q(t) - 1.0), ref.A, ref.B,
        dq=lambda t: (1.0 + eps) * ref.dq(t),
        d2q=lambda t: (1.0 + eps) * ref.d2q(t), extension_width=ref.WIDTH)
    prob = nophase.build_problem(coeff, LAM)
    result, _ = nophase.solve_problem(prob)
    return nophase.build_phase(result, prob), result.bounds_report


def _kummer_ok(phase, report):
    res = np.max(np.abs(ref.kummer_residual(phase, LAM, ref.interior_nodes())))
    return res <= ref.kummer_bound(LAM, report.nu_inf)


def test_kummer_check_accepts_true_phase_and_rejects_perturbed_q():
    assert _kummer_ok(*_phase(0.0))
    assert not _kummer_ok(*_phase(EPS))


def test_integration_check_rejects_perturbed_q():
    good, _ = _phase(0.0)
    bad, _ = _phase(EPS)
    assert ref.integration_error(good, LAM, ref.A, ref.B) <= ref.BASIS_TOL
    assert ref.integration_error(bad, LAM, ref.A, ref.B) > ref.BASIS_TOL


def test_expressions_match_closed_forms():
    assert ref.expression_error() < 1e-13


def _sweep_case(tmp, rows, clobber=False):
    problem = tmp / "problem.json"
    problem.write_text(json.dumps({"q": ref.Q_EXPR, "a": ref.A, "b": ref.B}))
    lams = [row[0] for row in rows]
    sweep = SweepCli({"problem": str(problem), "nominal": lams}, tmp, {})
    csv_path = tmp / "rows.csv"
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(f"{x:g}" if i == 0 else repr(x) for i, x in enumerate(row))
              for row in rows]
    csv_path.write_text("\n".join(lines) + "\n")
    mirror = json.dumps({"rows": [{"error": None} for _ in rows]})
    csv_path.with_suffix(".json").write_text(mirror)
    if clobber:
        problem.write_text(mirror)
    ops, problems = sweep._read(0, lams, 0, csv_path)
    record = Pass(index=0, traced=False, wall_s=1.0, ops=ops, problems=problems)
    return ops, problems + sweep.check([record])


#        lambda iterations gamma  mu   nu_inf res_kummer err_u  err_v  degree wall_ms
GOOD = [20.0, 4, 1.5, 0.2, 2e-6, 6e-10, 6e-13, 6e-13, 126, 100.0]


def test_sweep_checker_flags_bad_rows_and_clobber():
    tmp = run.STATE / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        ops, problems = _sweep_case(tmp, [GOOD])
        assert not problems and not ops[0].failed
        wrong = list(GOOD)
        wrong[6] = 1e-6                       # basis error above verify's tolerance
        assert _sweep_case(tmp, [wrong])[1]
        lost = list(GOOD)
        lost[3] = 0.05                        # 2/mu = 40 >= lambda: no certificate
        assert _sweep_case(tmp, [lost])[0][0].failed
        assert _sweep_case(tmp, [GOOD], clobber=True)[1]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_inputs_follow_the_seed():
    a = inputs.schedule("sweep-cli", 3)
    assert a == inputs.schedule("sweep-cli", 3)
    assert a != inputs.schedule("sweep-cli", 4)
    nominal = np.asarray(inputs.WORKLOADS["sweep-cli"]["nominal"])
    assert np.all(np.abs(np.asarray(a) / nominal - 1.0) <= inputs.JITTER)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name} {exc}")
    sys.exit(1 if failures else 0)
