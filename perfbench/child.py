"""Child processes of the benchmark.

    child.py setup WORKLOAD INPUTS_JSON
        Import nophase and load the workload's inputs as a fresh process
        would before its first solve; print {"import_s": ...} and exit.

    child.py cli REPORT_JSON TRACE -- ARGS...
        Run `nophase ARGS...` in this process, with the tracer installed
        when TRACE is 1, then write this process's peak RSS (and the
        spans, when traced) to REPORT_JSON and exit with the CLI's code.

nophase is found on PYTHONPATH, which the benchmark points at the
checkout's `src`.
"""

import json
import sys
import time


def setup(workload, inputs_path):
    start = time.perf_counter()
    if workload == "sweep-cli":
        import nophase.cli  # noqa: F401 - the CLI imports this much
    import nophase
    import_s = time.perf_counter() - start
    with open(inputs_path) as handle:
        inputs = json.load(handle)
    if inputs["problem"] is not None:
        nophase.load_problem_file(inputs["problem"])
    else:
        import reference as ref
        nophase.Coefficient.make(ref.q, inputs["a"], inputs["b"], dq=ref.dq,
                                 d2q=ref.d2q,
                                 extension_width=inputs["extension_width"])
    print(json.dumps({"import_s": import_s}))
    return 0


def peak_rss_mb():
    """This process's peak RSS (VmHWM).  Unlike ru_maxrss, it starts afresh
    at exec, so it does not carry the footprint of the process that
    spawned this one."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cli(report_path, trace, argv):
    import nophase.cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = nophase.cli.main(argv)
    finally:
        report = {"rss_mb": peak_rss_mb()}
        if tracer is not None:
            tracer.uninstall()
            spans, loose = tracer.take()
            report.update(spans=[s.as_dict() for s in spans], loose=dict(loose),
                          missing=tracer.missing,
                          observer_errors=dict(tracer.observer_errors))
        with open(report_path, "w") as handle:
            json.dump(report, handle)
    return code


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 3:
        return setup(argv[1], argv[2])
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[2] in ("0", "1") \
            and argv[3] == "--":
        return cli(argv[1], argv[2] == "1", argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
