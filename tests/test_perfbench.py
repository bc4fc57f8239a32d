"""The benchmark's workloads, one pass each: a change to the library that
breaks what perfbench/ drives fails here.  Only reads perfbench/."""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["solve-ladder", "verify-oracle"])
def test_in_process_workload_passes_its_check(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import workloads

    spec = inputs.generate(name, 1, tmp_path)
    workload = workloads.WORKLOADS[name](spec, tmp_path, {})
    p = workload.run_pass(0, inputs.schedule(name, 1)[0], None)
    assert [op.failed for op in p.ops if op.failed] == []
    assert workload.check([p]) == []


def test_sweep_cli_pass_fails_only_where_the_certificate_is_lost(
        tmp_path, monkeypatch):
    # the CLI child imports nophase from src, as the benchmark runs it;
    # the finite-difference route loses the certificate at high lambda,
    # and no row may end in an error
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import run
    import workloads

    spec = inputs.generate("sweep-cli", 1, tmp_path)
    workload = workloads.WORKLOADS["sweep-cli"](spec, tmp_path,
                                                run.child_env())
    p = workload.run_pass(0, inputs.schedule("sweep-cli", 1)[0], None)
    assert p.problems == []
    assert workload.check([p]) == []
    assert len(p.ops) == 5
    failed = [op.failed for op in p.ops if op.failed]
    assert all(cause.startswith("certificate lost:") for cause in failed), \
        failed
