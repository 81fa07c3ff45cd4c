"""Fresh-interpreter helper for run.py; not meant to be run by hand.

    python3 perfbench/probe.py setup <workload> <seed>
        Imports the package, runs the workload's first operation and prints
        {"import_s": ..., "first_op_s": ...} as one JSON line.

    python3 perfbench/probe.py cli <chargeqfi arguments...>
        Runs the CLI with the per-layer tracer installed. The CLI's own output
        comes first; the tracer's counts follow on a last line that starts
        with the trace marker. The exit code is the CLI's.

Both expect PYTHONPATH to name the checkout's ``src`` directory.
"""

import json
import sys
import time

T_START = time.perf_counter()


def main(argv):
    mode = argv[0]
    if mode == "setup" and argv[1] != "cli_oneshot":
        import chargeqfi  # noqa: F401  (library users import the package, not the CLI)
    else:
        import chargeqfi.cli  # noqa: F401
    import_s = time.perf_counter() - T_START
    if mode == "setup":
        import workloads
        wl = workloads.WORKLOADS[argv[1]](int(argv[2]))
        t0 = time.perf_counter()
        wl.first_op()
        first_op_s = time.perf_counter() - t0
        print(json.dumps({"import_s": import_s, "first_op_s": first_op_s}))
        return 0
    from tracer import TRACE_MARKER, Tracer
    tracer = Tracer()
    tracer.install()
    code = chargeqfi.cli.cli_main(argv[1:])
    stats = tracer.snapshot()
    stats["cli.import"] = [1, import_s, import_s]
    sys.stdout.write(TRACE_MARKER + json.dumps(stats) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
