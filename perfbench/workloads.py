"""The three workloads.  Each runs one pass at a time (a closed loop with
one client) and returns, per pass, its wall time and one `Op` per
(q, lambda) solve; `check` then judges the outputs with the benchmark's
own code in `reference.py`.

An operation *fails* when it ends without the method's certificate or
with an error; the checks speak of the operations that did not fail.
"""

import contextlib
import csv
import dataclasses
import hashlib
import json
import pathlib
import subprocess
import sys
import time

import numpy as np

import reference as ref
from child import peak_rss_mb
from tracer import Span

CSV_COLUMNS = ["lambda", "iterations", "gamma", "mu", "nu_inf", "res_kummer",
               "err_u", "err_v", "cheb_degree", "wall_ms"]
CLI_TIMEOUT_S = 170.0
HERE = pathlib.Path(__file__).resolve().parent


@dataclasses.dataclass
class Op:
    nominal: float
    lam: float
    failed: str = None          # cause, when the operation failed
    values: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Pass:
    index: int
    traced: bool
    wall_s: float
    ops: list
    spans: list = dataclasses.field(default_factory=list)
    loose: dict = dataclasses.field(default_factory=dict)
    rss_mb: float = None
    problems: list = dataclasses.field(default_factory=list)


def _op_span(tracer, nominal):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span("bench.op", lam_nominal=nominal)


class _Workload:
    in_process = True
    warmup = True

    def measures(self, op):
        """(delta degree, max |Kummer residual|, basis error) of an
        operation that did not fail."""
        raise NotImplementedError

    def accuracy(self, p):
        """The worst of each measure over the operations of a pass that
        did not fail, the residual relative to lambda^2 ||q||."""
        rows = [(op.lam,) + self.measures(op) for op in p.ops if not op.failed]
        return {
            "delta_degree": max((deg for _, deg, _, _ in rows), default=0),
            "kummer_rel": max((res / (lam ** 2 * ref.Q_SUP) for lam, _, res, _ in rows),
                              default=0.0),
            "basis_err": max((err for _, _, _, err in rows), default=0.0),
        }

    def basis_err(self, passes):
        return float(np.median([self.accuracy(p)["basis_err"] for p in passes]))

    def peak_rss_mb(self, timed):
        return peak_rss_mb()


class SolveLadder(_Workload):
    """Library calls at lambda ~ 20, 80, 320, 1280 with exact derivatives."""

    def __init__(self, inputs, work, env):
        import nophase
        import nophase.phase

        self.nophase = nophase
        self.inputs = inputs
        self.a, self.b = inputs["a"], inputs["b"]
        self.width = inputs["extension_width"]
        self.nodes = nophase.phase.interior_nodes(self.a, self.b)

    def run_pass(self, index, lams, tracer):
        nph = self.nophase
        ops = []
        start = time.perf_counter()
        coeff = nph.Coefficient.make(ref.q, self.a, self.b, dq=ref.dq,
                                     d2q=ref.d2q, extension_width=self.width)
        for nominal, lam in zip(self.inputs["nominal"], lams):
            op = Op(nominal=nominal, lam=lam)
            try:
                with _op_span(tracer, nominal):
                    prob = nph.build_problem(coeff, lam)
                    result, _ = nph.solve_problem(prob)
                    phase = nph.build_phase(result, prob)
                    report = result.bounds_report
                    res = float(np.max(np.abs(
                        nph.kummer_residual(phase, coeff.q, self.nodes))))
                    u, v = nph.eval_basis(phase, self.nodes)
                op.values = {"report": report, "phase": phase, "res": res,
                             "grid_n": prob.grid.n_points,
                             "basis_finite": bool(np.all(np.isfinite(u))
                                                  and np.all(np.isfinite(v)))}
            except nph.NophaseError as exc:
                op.failed = f"{type(exc).__name__}: {exc}"
            ops.append(op)
        return Pass(index=index, traced=tracer is not None,
                    wall_s=time.perf_counter() - start, ops=ops)

    def check(self, passes):
        problems = []
        grid_n = {}
        for p in passes:
            degrees = []
            for op in p.ops:
                if op.failed:
                    continue
                v = op.values
                tag = f"pass {p.index} lambda={op.lam:.6g}"
                bad = ref.certificate_problems(v["report"])
                if bad:
                    problems.append(f"{tag}: certificate flags false: {bad}")
                own = float(np.max(np.abs(ref.kummer_residual(
                    v["phase"], op.lam, ref.interior_nodes(self.a, self.b)))))
                bound = ref.kummer_bound(op.lam, v["report"].nu_inf)
                if not own <= bound:
                    problems.append(f"{tag}: Kummer residual {own:.3e} > {bound:.3e}")
                if not v["basis_finite"]:
                    problems.append(f"{tag}: eval_basis returned non-finite values")
                if grid_n.setdefault(op.nominal, v["grid_n"]) != v["grid_n"]:
                    problems.append(f"{tag}: grid N {v['grid_n']} differs from "
                                    f"{grid_n[op.nominal]} at the same nominal lambda")
                if op.nominal >= 80.0:
                    degrees.append(v["phase"].delta_degree)
            if degrees and max(degrees) - min(degrees) > ref.DEGREE_SPREAD:
                problems.append(f"pass {p.index}: delta degree spread "
                                f"{max(degrees) - min(degrees)} over lambda >= 80")
        self.integration = self._integration(passes, problems)
        return problems

    def _integration(self, passes, problems):
        """The benchmark's own ODE integration: over [a, b] at the lowest
        lambda of every pass, and over a short window at the highest
        lambda of the last one."""
        low = []
        for p in passes:
            op = p.ops[0]
            if not op.failed:
                low.append(ref.integration_error(op.values["phase"], op.lam,
                                                 self.a, self.b))
        top = passes[-1].ops[-1]
        window = 0.0
        if not top.failed:
            window = ref.integration_error(top.values["phase"], top.lam,
                                           *ref.WINDOW)
        worst = max(low + [window])
        if not worst <= ref.BASIS_TOL:
            problems.append(f"basis differs from the reference integration by "
                            f"{worst:.3e} > {ref.BASIS_TOL:.1e}")
        return {"low": low, "window": window}

    def measures(self, op):
        # no oracle runs here; basis_err comes from the integration below
        return op.values["phase"].delta_degree, op.values["res"], 0.0

    def basis_err(self, passes):
        low = self.integration["low"]
        return max(float(np.median(low)) if low else 0.0,
                   self.integration["window"])


class VerifyOracle(_Workload):
    """The `nophase verify` path through the library at lambda ~ 320, on a
    problem file whose q, dq and d2q are expressions."""

    def __init__(self, inputs, work, env):
        import nophase
        import nophase.phase

        self.nophase = nophase
        self.inputs = inputs

    def run_pass(self, index, lams, tracer):
        nph = self.nophase
        start = time.perf_counter()
        op = Op(nominal=self.inputs["nominal"][0], lam=lams[0])
        try:
            with _op_span(tracer, op.nominal):
                config = nph.load_problem_file(self.inputs["problem"])
                prob = nph.build_problem(config.coefficient, op.lam,
                                         L=config.grid_L, N=config.grid_N)
                result, _ = nph.solve_problem(prob)
                phase = nph.build_phase(result, prob)
                nodes = nph.phase.interior_nodes(phase.a, phase.b)
                res = float(np.max(np.abs(nph.kummer_residual(
                    phase, prob.coefficient.q, nodes))))
                err_u, err_v = nph.basis_error(phase, prob, tol=ref.ORACLE_TOL)
            op.values = {"report": result.bounds_report, "phase": phase,
                         "res": res, "err": max(err_u, err_v)}
            bad = ref.certificate_problems(result.bounds_report)
            if bad:
                op.failed = f"certificate flags false: {bad}"
        except nph.NophaseError as exc:
            op.failed = f"{type(exc).__name__}: {exc}"
        return Pass(index=index, traced=tracer is not None,
                    wall_s=time.perf_counter() - start, ops=[op])

    def check(self, passes):
        problems = []
        for p in passes:
            for op in p.ops:
                if op.failed:
                    continue
                v = op.values
                own = float(np.max(np.abs(ref.kummer_residual(
                    v["phase"], op.lam, ref.interior_nodes()))))
                problems += [f"pass {p.index} lambda={op.lam:.6g}: {msg}" for msg in
                             ref.verify_problems(op.lam, v["err"], max(v["res"], own))]
        return problems

    def measures(self, op):
        return op.values["phase"].delta_degree, op.values["res"], op.values["err"]


class SweepCli(_Workload):
    """`nophase sweep` as a subprocess at lambda ~ 20 .. 320 on an
    expression q with no derivatives given."""

    in_process = False
    # every pass is a fresh process, so a warm-up pass would warm nothing
    # the set-up processes have not already warmed
    warmup = False

    def __init__(self, inputs, work, env):
        self.inputs = inputs
        self.work = pathlib.Path(work)
        self.env = env
        self.problem = pathlib.Path(inputs["problem"])
        self.digest = hashlib.sha256(self.problem.read_bytes()).hexdigest()

    def _run(self, argv, out_dir):
        """Run a child to its end; return (exit code, wall s)."""
        with open(out_dir / "stdout.txt", "wb") as out, \
                open(out_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            done = subprocess.run(argv, stdout=out, stderr=err, env=self.env,
                                  stdin=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S,
                                  check=False)
            return done.returncode, time.perf_counter() - start

    def run_pass(self, index, lams, tracer):
        out_dir = self.work / f"pass-{index}"
        out_dir.mkdir()
        # a CSV stem that no input file has: run_sweep writes its JSON
        # mirror next to the CSV under the same stem
        csv_path = out_dir / "rows.csv"
        report_path = out_dir / "report.json"
        argv = [sys.executable, str(HERE / "child.py"), "cli", str(report_path),
                "0" if tracer is None else "1", "--",
                "sweep", str(self.problem), "--lambdas",
                ",".join(repr(float(x)) for x in lams), "--out", str(csv_path)]
        code, wall = self._run(argv, out_dir)
        ops, exit_problems = self._read(index, lams, code, csv_path)
        record = Pass(index=index, traced=tracer is not None, wall_s=wall,
                      ops=ops, problems=exit_problems)
        if not report_path.is_file():
            record.problems.append(f"pass {index}: the CLI child wrote no report")
            return record
        data = json.loads(report_path.read_text())
        record.rss_mb = data["rss_mb"]
        if tracer is not None:
            record.spans = [Span.from_dict(s) for s in data["spans"]]
            record.loose = data["loose"]
            tracer.missing = data["missing"]
            tracer.observer_errors.update(data["observer_errors"])
        return record

    def _read(self, index, lams, code, csv_path):
        problems = []
        ops = [Op(nominal=n, lam=x) for n, x in zip(self.inputs["nominal"], lams)]
        if not csv_path.is_file():
            for op in ops:
                op.failed = f"sweep exited with {code} and wrote no CSV"
            return ops, problems
        with open(csv_path, newline="") as handle:
            table = list(csv.reader(handle))
        mirror = csv_path.with_suffix(".json")
        rows_json = json.loads(mirror.read_text())["rows"] if mirror.is_file() else None
        if table[0] != CSV_COLUMNS:
            problems.append(f"pass {index}: CSV columns {table[0]}")
        rows = [dict(zip(table[0], r)) for r in table[1:]]
        if len(rows) != len(ops) or rows_json is None or len(rows_json) != len(ops):
            problems.append(f"pass {index}: expected {len(ops)} rows in the CSV "
                            f"and its JSON mirror")
            return ops, problems
        errors = 0
        for op, row, full in zip(ops, rows, rows_json):
            lam = float(row["lambda"])
            if abs(lam - op.lam) > 1e-5 * op.lam:
                problems.append(f"pass {index}: row lambda {lam} for {op.lam}")
            vals = {k: float(row[k]) for k in CSV_COLUMNS}
            op.values = vals
            if full.get("error"):
                op.failed = f"error: {full['error']}"
                errors += 1
            elif not ref.lambda_hypothesis_holds(op.lam, vals["gamma"], vals["mu"]):
                op.failed = (f"certificate lost: lambda={op.lam:.6g} <= "
                             f"2 max(1/mu, Gamma) = "
                             f"{2 * max(1 / vals['mu'], vals['gamma']):.4g}")
        if code != (2 if errors else 0):
            problems.append(f"pass {index}: sweep exited with {code} "
                            f"for {errors} failed rows")
        if hashlib.sha256(self.problem.read_bytes()).hexdigest() != self.digest:
            problems.append(f"pass {index}: the sweep overwrote its problem file")
        return ops, problems

    def check(self, passes):
        problems = []
        for p in passes:
            for op in p.ops:
                if op.failed:
                    continue
                v = op.values
                tag = f"pass {p.index} lambda={op.lam:.6g}"
                _, res, err = self.measures(op)
                problems += [f"{tag}: {msg}" for msg in ref.verify_problems(op.lam, err, res)]
                if not v["iterations"] >= 1:
                    problems.append(f"{tag}: {v['iterations']} iterations")
        return problems

    def measures(self, op):
        v = op.values
        return int(v["cheb_degree"]), v["res_kummer"], max(v["err_u"], v["err_v"])

    def peak_rss_mb(self, timed):
        rss = [p.rss_mb for p in timed if not p.traced and p.rss_mb is not None]
        return float(np.median(rss)) if rss else 0.0


WORKLOADS = {"solve-ladder": SolveLadder, "verify-oracle": VerifyOracle,
             "sweep-cli": SweepCli}
