"""Spans and counts recorded around nophase's public functions.

`Tracer.install()` replaces each function named in TARGETS, in every
loaded `nophase` module that holds it, by a wrapper that records a span
(name, start, end, parent, thread) and, through an observer, a few
figures read off its arguments and result.  The coefficient callables
that `Coefficient.make` and `compile_expression` return are replaced by
counting ones.  `uninstall()` puts the originals back, so untraced passes
run the program as it is.  A target that no longer exists is listed in
`missing` and otherwise ignored.

`summarize()` turns the spans of one pass into the per-layer metrics.
"""

import contextlib
import dataclasses
import importlib
import itertools
import sys
import threading
import time
from collections import Counter

import numpy as np


@dataclasses.dataclass
class Span:
    id: int
    parent: int
    name: str
    thread: int
    t0: float = 0.0
    t1: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)
    counts: Counter = dataclasses.field(default_factory=Counter)

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "thread": self.thread, "t0": self.t0, "t1": self.t1,
                "attrs": self.attrs, "counts": dict(self.counts)}

    @classmethod
    def from_dict(cls, d):
        return cls(id=d["id"], parent=d["parent"], name=d["name"],
                   thread=d["thread"], t0=d["t0"], t1=d["t1"],
                   attrs=d["attrs"], counts=Counter(d["counts"]))


class Tracer:
    def __init__(self):
        self.spans = []
        self.loose = Counter()       # counts made outside any span
        self.missing = []
        self.observer_errors = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        rec = Span(id=next(self._ids), parent=stack[-1].id if stack else None,
                   name=name, thread=threading.get_ident(), attrs=attrs)
        stack.append(rec)
        rec.t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec.t1 = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def call(self, name, fn, args, kwargs, observe=None):
        with self.span(name) as rec:
            out = fn(*args, **kwargs)
        if observe is not None:
            try:
                out = observe(self, rec, args, kwargs, out)
            except Exception as exc:  # an observer must never end the run
                self.observer_errors[f"{name}: {type(exc).__name__}"] += 1
        return out

    def counts_here(self):
        """The counts of this thread's innermost open span."""
        stack = getattr(self._local, "stack", None)
        return stack[-1].counts if stack else self.loose

    def take(self):
        """Spans and loose counts recorded since the last take."""
        spans, loose = self.spans, self.loose
        self.spans, self.loose = [], Counter()
        return spans, loose

    # -- patching ----------------------------------------------------------

    def install(self):
        self.missing = []
        for module_name, path, observe in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            short = module_name.rsplit(".", 1)[-1]
            if "." in path:
                self._patch_method(module, short, path, observe)
            else:
                self._patch_function(module, short, path, observe)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, observe)

        traced.__wrapped__ = fn
        return traced

    def _patch_function(self, module, short, attr, observe):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{short}.{attr}")
            return
        traced = self._wrap(f"{short}.{attr}", original, observe)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "nophase" or name.startswith("nophase.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def _patch_method(self, module, short, path, observe):
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(f"{short}.{path}")
            return
        name = f"{short}.{path}"
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(name, raw.__func__, observe))
        else:
            replacement = self._wrap(name, raw, observe)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)


# -- observers: read figures off arguments and results -----------------------

def _counted(tracer, fn, key):
    # the oracle calls q once per scalar, so this path is kept short
    calls, points = key + ".calls", key + ".points"

    def call(t, *args, **kwargs):
        counts = tracer.counts_here()
        counts[calls] = counts.get(calls, 0) + 1
        counts[points] = counts.get(points, 0) + getattr(t, "size", 1)
        return fn(t, *args, **kwargs)

    return call


def _obs_coefficient(tracer, span, args, kwargs, out):
    return dataclasses.replace(out, q=_counted(tracer, out.q, "coef.q"),
                               dq=_counted(tracer, out.dq, "coef.dq"),
                               d2q=_counted(tracer, out.d2q, "coef.d2q"))


def _obs_expression(tracer, span, args, kwargs, out):
    clock = time.perf_counter

    def call(t):
        start = clock()
        try:
            return out(t)
        finally:
            counts = tracer.counts_here()
            counts["expr.calls"] = counts.get("expr.calls", 0) + 1
            counts["expr.seconds"] = counts.get("expr.seconds", 0) + clock() - start

    return call


def _obs_problem(tracer, span, args, kwargs, out):
    span.attrs.update(grid_n=int(out.grid.n_points),
                      p_hat_support=int(np.count_nonzero(out.p_hat.values)),
                      mu=float(out.mu_fit), gamma=float(out.gamma_fit))
    return out


def _obs_transform(tracer, span, args, kwargs, out):
    span.attrs["bytes"] = int(sum(a.values.nbytes for a in args)
                              + out.values.nbytes)
    return out


def _obs_fixed_point(tracer, span, args, kwargs, out):
    span.attrs["iterations"] = int(out.iteration)
    return out


def _obs_extract(tracer, span, args, kwargs, out):
    span.attrs.update(
        sigma_support=int(np.count_nonzero(out.sigma_hat.values)),
        nu_inf=float(out.bounds_report.nu_inf),
        nu_bound=float(out.bounds_report.nu_bound))
    return out


def _obs_evaluator(tracer, span, args, kwargs, out):
    support = int(np.count_nonzero(args[0].values))

    def evaluate(x):
        counts = tracer.counts_here()
        counts["phase.evaluator_work"] = (counts.get("phase.evaluator_work", 0)
                                          + np.size(x) * support)
        return out(x)

    return evaluate


def _obs_phase(tracer, span, args, kwargs, out):
    span.attrs.update(delta_degree=int(out.delta_degree),
                      r_degree=int(out.r_degree))
    return out


def _obs_points(tracer, span, args, kwargs, out):
    span.attrs["points"] = int(np.size(args[1]))
    return out


def _obs_fit(tracer, span, args, kwargs, out):
    span.attrs["points"] = int(out.coef.size)
    return out


def _obs_basis_error(tracer, span, args, kwargs, out):
    span.attrs.update(err_u=float(out[0]), err_v=float(out[1]))
    return out


def _obs_sweep(tracer, span, args, kwargs, out):
    walls = [r.wall_ms for r in out.rows if np.isfinite(r.wall_ms)]
    span.attrs.update(rows=len(out.rows), row_ms=float(sum(walls)))
    return out


TARGETS = [
    ("nophase.problem", "Coefficient.make", _obs_coefficient),
    ("nophase.problem", "load_problem_file", None),
    ("nophase.problem", "build_problem", _obs_problem),
    ("nophase.problem", "build_map", None),
    ("nophase.problem", "choose_grid", None),
    ("nophase.problem", "schwarzian_p", None),
    ("nophase.problem", "fit_decay", None),
    ("nophase.problem", "check_hypotheses", None),
    ("nophase.problem", "CoordinateMap.x_of_t", None),
    ("nophase.problem", "CoordinateMap.t_of_x", None),
    ("nophase.grid", "forward", _obs_transform),
    ("nophase.grid", "inverse", _obs_transform),
    ("nophase.grid", "convolve", _obs_transform),
    ("nophase.convexp", "exp1_star", None),
    ("nophase.convexp", "exp2_star", None),
    ("nophase.solver", "make_bump", None),
    ("nophase.solver", "solve_problem", None),
    ("nophase.solver", "fixed_point_solve", _obs_fixed_point),
    ("nophase.solver", "apply_R", None),
    ("nophase.solver", "extract_solution", _obs_extract),
    ("nophase.solver", "apply_T", None),
    ("nophase.phase", "build_phase", _obs_phase),
    ("nophase.phase", "band_limited_evaluator", _obs_evaluator),
    ("nophase.phase", "kummer_residual", None),
    ("nophase.phase", "eval_basis", _obs_points),
    ("nophase.phase", "basis_derivatives", _obs_points),
    ("nophase.chebseries", "ChebSeries.fit", _obs_fit),
    ("nophase.chebseries", "ChebSeries.adaptive_fit", None),
    ("nophase.chebseries", "ChebSeries.deriv", None),
    ("nophase.chebseries", "ChebSeries.antideriv", None),
    ("nophase.oracle", "basis_error", _obs_basis_error),
    ("nophase.oracle", "ode_oracle", None),
    ("nophase.expr", "compile_expression", _obs_expression),
    ("nophase.sweep", "run_sweep", _obs_sweep),
    ("nophase.sweep", "sweep_point", None),
    ("nophase.sweep", "SweepReport.write_csv", None),
    ("nophase.sweep", "SweepReport.write_json", None),
    ("nophase.cli", "main", None),
    ("nophase.cli", "cmd_sweep", None),
]


# -- analysis ----------------------------------------------------------------

def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, end = 0.0, s.t0
        for c in sorted(children.get(s.id, ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s.id] = (s.t1 - s.t0) - covered
    return out


def subtree(spans, root_ids):
    """Spans descending from (and including) the given ids."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out, todo = [], list(root_ids)
    by_id = {s.id: s for s in spans}
    while todo:
        sid = todo.pop()
        if sid in by_id:
            out.append(by_id[sid])
        todo.extend(c.id for c in children.get(sid, ()))
    return out


def summarize(spans, loose=None):
    """Per-layer metrics of one group of spans (a pass, or one operation)."""
    by_id = {s.id: s for s in spans}

    def named(name):
        # outermost spans of this name only, so recursion is not counted twice
        found = []
        for s in spans:
            if s.name != name:
                continue
            p = by_id.get(s.parent)
            while p is not None and p.name != name:
                p = by_id.get(p.parent)
            if p is None:
                found.append(s)
        return found

    def ms(*names):
        return 1e3 * sum(s.t1 - s.t0 for n in names for s in named(n))

    def attr(name, key, how):
        vals = [s.attrs[key] for s in named(name) if key in s.attrs]
        return how(vals) if vals else 0

    counts = Counter(loose or {})
    for s in spans:
        counts.update(s.counts)
    oracle = subtree(spans, [s.id for s in named("oracle.basis_error")])
    oracle_q = sum(s.counts.get("coef.q.calls", 0) for s in oracle)
    transforms = named("grid.forward") + named("grid.inverse") + named("grid.convolve")
    basis_ms = ms("phase.eval_basis", "phase.basis_derivatives")
    basis_points = attr("phase.eval_basis", "points", sum) \
        + attr("phase.basis_derivatives", "points", sum)
    sweep_ms = ms("sweep.run_sweep")
    return {
        "problem.build_problem_ms": ms("problem.build_problem"),
        "problem.build_map_ms": ms("problem.build_map"),
        "problem.schwarzian_p_ms": ms("problem.schwarzian_p"),
        "problem.decay_fit_ms": ms("problem.fit_decay"),
        "problem.q_points": sum(counts[f"coef.{k}.points"] for k in ("q", "dq", "d2q")),
        "problem.grid_n": attr("problem.build_problem", "grid_n", max),
        "problem.p_hat_support": attr("problem.build_problem", "p_hat_support", max),
        "problem.mu": attr("problem.build_problem", "mu", min),
        "problem.gamma": attr("problem.build_problem", "gamma", max),
        "grid.transforms": len(transforms),
        "grid.bytes_computed": sum(s.attrs.get("bytes", 0) for s in transforms),
        "convexp.exp2_star_calls": len(named("convexp.exp2_star")),
        "convexp.exp2_star_ms": ms("convexp.exp2_star"),
        "solver.fixed_point_ms": ms("solver.fixed_point_solve"),
        "solver.extract_ms": ms("solver.extract_solution"),
        "solver.iterations": attr("solver.fixed_point_solve", "iterations", sum),
        "solver.sigma_support": attr("solver.extract_solution", "sigma_support", max),
        "solver.nu_inf": attr("solver.extract_solution", "nu_inf", max),
        "solver.nu_bound": attr("solver.extract_solution", "nu_bound", max),
        "phase.build_phase_ms": ms("phase.build_phase"),
        "phase.kummer_ms": ms("phase.kummer_residual"),
        "phase.evaluator_work": counts["phase.evaluator_work"],
        "phase.cheb_fit_points": attr("chebseries.ChebSeries.fit", "points", sum),
        "phase.delta_degree": attr("phase.build_phase", "delta_degree", max),
        "phase.r_degree": attr("phase.build_phase", "r_degree", max),
        "phase.eval_basis_ns": 1e6 * basis_ms / basis_points if basis_points else 0,
        "oracle.basis_error_ms": ms("oracle.basis_error"),
        "oracle.q_calls": oracle_q,
        "oracle.err_u": attr("oracle.basis_error", "err_u", max),
        "oracle.err_v": attr("oracle.basis_error", "err_v", max),
        "expr.calls": counts["expr.calls"],
        "expr.ms": 1e3 * counts["expr.seconds"],
        "sweep.rows": attr("sweep.run_sweep", "rows", sum),
        "sweep.overlap": (attr("sweep.run_sweep", "row_ms", sum) / sweep_ms
                          if sweep_ms else 0),
        "cli.load_ms": ms("problem.load_problem_file"),
        "cli.write_ms": ms("sweep.SweepReport.write_csv", "sweep.SweepReport.write_json"),
    }


# Per-lambda breakdown on solve-ladder, suffixed .lam<nominal>.
PER_LAMBDA = [
    "problem.build_problem_ms", "problem.build_map_ms",
    "problem.schwarzian_p_ms", "problem.decay_fit_ms", "problem.q_points",
    "problem.grid_n", "grid.transforms", "convexp.exp2_star_ms",
    "solver.fixed_point_ms", "solver.extract_ms", "solver.iterations",
    "solver.sigma_support", "phase.build_phase_ms", "phase.evaluator_work",
    "phase.delta_degree",
]
