"""nophase benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]   # every workload

One workload run, from the root of a checkout: generate the inputs from
the seed, time SETUP_REPEATS fresh processes that import nophase and load
them, run one untimed warm-up pass, then run passes one after another
until S seconds have gone (at least one), check every output, and
print as the last line of standard output

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
timed passes alternate between untraced and traced, and the metrics are
the per-layer ones, read from the traced passes, with the tracing
overhead against the untraced passes; the spans go to
.perfbench/traces/<workload>-seed<N>.json.

nophase is imported from the checkout's `src`; without it the benchmark
exits with code 2 and prints no result.
"""

import argparse
import ctypes
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from inputs import generate
from tracer import PER_LAMBDA, Tracer, self_times, subtree, summarize
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
    "delta_degree": "count", "kummer_rel": "1", "basis_err": "1",
}
LADDER_LAMBDAS = (20, 80, 320, 1280)


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    def unit(name):
        if name.endswith("_ms") or name == "expr.ms":
            return "ms"
        if name.endswith("_ns"):
            return "ns"
        if name == "grid.bytes_computed":
            return "B"
        if name.split(".")[-1] in ("mu", "gamma", "nu_inf", "nu_bound", "err_u",
                                   "err_v", "overlap"):
            return "1"
        return "count"

    units = {name: unit(name) for name in summarize([])}
    for lam in LADDER_LAMBDAS:
        units.update({f"{name}.lam{lam}": unit(name) for name in PER_LAMBDA})
    units["setup.import_ms"] = "ms"
    units["trace.overhead"] = "1"
    return units


def blas_setting():
    """The BLAS library numpy uses and its thread setting."""
    import numpy as np

    info = {k: os.environ.get(k) for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["threads"] = None
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
    except OSError:
        pass
    info["nproc"] = os.cpu_count()
    return info


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(workload, inputs_path, env):
    """Wall time of fresh processes that import nophase and load the
    inputs; returns (median wall s, median import s)."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "child.py"), "setup",
                               workload, str(inputs_path)],
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr}")
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    print(f"# set-up wall s: {[round(w, 4) for w in walls]}")
    return statistics.median(walls), statistics.median(imports)


def import_program():
    if not (SRC / "nophase" / "__init__.py").is_file():
        print(f"error: no nophase package under {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nophase

    if pathlib.Path(nophase.__file__).resolve().parent != SRC / "nophase":
        print(f"error: imported nophase from {nophase.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _finite(x):
    x = float(x)
    return x if math.isfinite(x) else 0.0


def run_workload(name, seed, seconds, trace):
    import_program()
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=STATE / "work"))
    try:
        inputs = generate(name, seed, work)
        env = child_env()
        setup_s, import_s = measure_setup(name, work / "inputs.json", env)
        workload = WORKLOADS[name](inputs, work, env)
        tracer = Tracer() if trace else None
        schedule = inputs["passes"]
        passes = []

        def one(index, traced):
            hook = traced and workload.in_process
            if hook:
                tracer.install()
            try:
                record = workload.run_pass(index, schedule[index],
                                           tracer if traced else None)
            finally:
                if hook:
                    tracer.uninstall()
            if hook:
                record.spans, record.loose = tracer.take()
            passes.append(record)

        if workload.warmup:
            one(0, False)
        first = len(passes)
        start = time.perf_counter()
        # at least one timed pass, and one traced and one untraced with --trace 1
        min_passes = 2 if trace else 1
        while len(passes) < len(schedule):
            k = len(passes) - first
            one(len(passes), bool(trace) and k % 2 == 1)
            if k + 1 >= min_passes and time.perf_counter() - start >= seconds:
                break
        timed = passes[first:]
        peak_rss = workload.peak_rss_mb(timed)
        problems = [msg for p in passes for msg in p.problems]
        problems += workload.check(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.failed]
    causes = {}
    for op in failed:
        causes.setdefault(op.nominal, op.failed)
    plain = [p for p in timed if not p.traced]
    pass_s = statistics.median(p.wall_s for p in plain)
    blas = blas_setting()
    print(f"# {name} seed={seed}: {len(timed)} timed passes "
          f"({sum(p.traced for p in timed)} traced), blas={json.dumps(blas)}")
    print(f"# pass wall s: {[round(p.wall_s, 4) for p in passes]}")
    for nominal, cause in causes.items():
        count = sum(op.nominal == nominal for op in failed)
        print(f"# failed: {count} operations at lambda~{nominal:g}, e.g. {cause}")
    for msg in problems[:20]:
        print(f"# check failed: {msg}", file=sys.stderr)

    if not trace:
        # accuracy does not depend on warm state, so the warm-up pass counts
        acc = [workload.accuracy(p) for p in passes]
        values = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "peak_rss_mb": peak_rss,
            "delta_degree": statistics.median(a["delta_degree"] for a in acc),
            "kummer_rel": statistics.median(a["kummer_rel"] for a in acc),
            "basis_err": workload.basis_err(passes),
        }
        units = END_TO_END
    else:
        traced = [p for p in timed if p.traced]
        per_pass = []
        for p in traced:
            row = summarize(p.spans, p.loose)
            if name == "solve-ladder":
                for lam in LADDER_LAMBDAS:
                    roots = [s.id for s in p.spans if s.name == "bench.op"
                             and s.attrs.get("lam_nominal") == lam]
                    part = summarize(subtree(p.spans, roots))
                    row.update({f"{k}.lam{lam}": part[k] for k in PER_LAMBDA})
            per_pass.append(row)
        units = per_layer_units()
        values = {k: statistics.median(r.get(k, 0) for r in per_pass) for k in units}
        values["setup.import_ms"] = 1e3 * import_s
        values["trace.overhead"] = statistics.median(p.wall_s for p in traced) / pass_s - 1.0
        write_trace(name, seed, blas, passes, tracer)
        for err in tracer.observer_errors:
            print(f"# tracer observer error: {err}", file=sys.stderr)
        if tracer.missing:
            print(f"# traced functions not found: {tracer.missing}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": _finite(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return result


def write_trace(name, seed, blas, passes, tracer):
    out = STATE / "traces" / f"{name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": name, "seed": seed, "blas": blas,
               "missing": tracer.missing,
               "observer_errors": dict(tracer.observer_errors), "passes": []}
    for p in passes:
        own = self_times(p.spans)
        payload["passes"].append({
            "index": p.index, "traced": p.traced, "wall_s": p.wall_s,
            "loose_counts": dict(p.loose),
            "spans": [dict(s.as_dict(), self=own[s.id]) for s in p.spans]})
    out.write_text(json.dumps(payload))
    print(f"# spans written to {out.relative_to(ROOT)}")


def run_all(seed, seconds, trace):
    """Every workload in its own process; a table of the results."""
    rows = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        for line in lines[:-1]:
            print(line)
        rows[name] = json.loads(lines[-1])
    for name, res in rows.items():
        print(f"\n{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(rows))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="one of solve-ladder, verify-oracle, sweep-cli "
                             "(default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        import_program()
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
