"""The benchmark's in-process workloads, one pass each: a change to the
library that breaks what perfbench/ drives fails here.  Only reads
perfbench/; the subprocess workload (sweep-cli) is left to the benchmark."""

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
