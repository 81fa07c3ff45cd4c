"""chargeqfi benchmark: one workload per run, correctness-gated.

Run from the repository root:

    python3 perfbench/run.py --workload figure_time --seed 1 --seconds 10 --trace 0

Workloads: figure_time, param_axis, crosscheck, cli_oneshot (see
perfbench/README.md for why each exists and which metrics it should move).

A run first starts a few fresh interpreters that import the package and
evaluate the workload's first operation (set-up time), then builds the gate's
reference values, then issues requests in a closed loop for --seconds,
ending on a whole cycle of distinct inputs. Every output is checked; a miss
counts as a failed operation.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half with the per-layer tracer installed, then times the
public functions in isolation, and prints the per-layer metrics. Either way
the second-to-last stdout line is a JSON report (environment, gate details,
latency tail, per-layer detail) and the last line is the result object.
"""

import os
import sys

# Cap BLAS/OpenMP before numpy loads, here and in every child process, so
# the param_axis thread pool is the only parallelism in a run.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
SETUP_PROBES = 11
CALL_BUDGET_S = 0.2
CALL_MIN_SAMPLES = 11
TAIL_BEYOND = 10
DEFAULT_T = 1.0

# Per-layer metrics printed by --trace 1, in BENCHMARK.json order (the
# isolated timings follow the order of isolated_calls).
COUNTED = ("model.build_hamiltonian", "model.DensityMatrix", "dynamics.build_liouvillian",
           "dynamics.propagate_expm", "dynamics.expm", "spectral.spectral_decompose",
           "dynamics.propagate_rk")
SELF_TIMED = ("model.build_hamiltonian", "model.DensityMatrix", "dynamics.build_liouvillian",
              "dynamics.propagate_expm", "dynamics.expm")


def environment(workloads):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": workloads.NPROC, "blas": blas,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "machine": platform.machine()}


def measure_setup(workloads, name, seed):
    """Median wall time of fresh interpreters that import and run the first operation."""
    walls, imports, firsts = [], [], []
    cmd = [sys.executable, str(HERE / "probe.py"), "setup", name, str(seed)]
    for _ in range(SETUP_PROBES):
        out, code, wall, _ = workloads.run_child(cmd, workloads.child_env())
        if code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}:\n{out}")
        info = json.loads(out.strip().splitlines()[-1])
        walls.append(wall)
        imports.append(info["import_s"])
        firsts.append(info["first_op_s"])
    return {"runs": SETUP_PROBES, "wall_s": walls, "import_s": imports, "first_op_s": firsts}


def run_requests(wl, seconds, traced=False):
    """Closed loop from request 0 until the deadline has passed on a cycle boundary."""
    reqs = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        reqs.append(wl.request(i, traced))
        i += 1
        if i % wl.cycle == 0 and time.perf_counter() >= deadline:
            return reqs


def summarize(reqs):
    ops = sum(r.ops for r in reqs)
    seconds = sum(r.seconds for r in reqs)
    lat = sorted(x for r in reqs for x in r.latencies)
    summary = {
        "requests": len(reqs),
        "ops": ops,
        "failed": sum(r.failed for r in reqs),
        "expected_error_rows": sum(r.expected_errors for r in reqs),
        "misses": [m for r in reqs for m in r.misses][:10],
        # median of the per-request rates: a burst of contention from other
        # tenants of the host slows a few requests, and a mean over the run
        # would carry it
        "ops_per_s": statistics.median(r.ops / r.seconds for r in reqs),
        "ops_per_s_mean": ops / seconds,
        "latency_samples": len(lat),
        "latency_ms_p50": 1e3 * statistics.median(lat),
    }
    if len(lat) >= 2 * TAIL_BEYOND:
        # highest percentile with TAIL_BEYOND samples beyond it (nearest rank)
        rank = len(lat) - TAIL_BEYOND
        summary["latency_ms_tail"] = {"value": 1e3 * lat[rank - 1],
                                      "percentile": 100.0 * rank / len(lat),
                                      "samples": len(lat)}
    rss = [x for r in reqs for x in r.rss_mb]
    summary["peak_rss_mb"] = (statistics.median(rss) if rss else
                              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return summary


def time_call(fn):
    fn()
    samples = []
    end = time.perf_counter() + CALL_BUDGET_S
    while len(samples) < CALL_MIN_SAMPLES or time.perf_counter() < end:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return {"median": 1e6 * q2, "iqr": 1e6 * (q3 - q1), "n": len(samples)}


def isolated_calls():
    """Per-call timings at the default working point (e = 0.1, gamma = 0.4, t = 1)."""
    from scipy.linalg import expm
    from chargeqfi import dynamics, model, qfi, spectral
    p = model.SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)
    eta = qfi.EstimandTag.GAMMA
    rho0 = model.bell_state_psi_plus()
    rho = dynamics.propagate_expm(rho0, p, DEFAULT_T)
    gen = dynamics.build_liouvillian(p).matrix * DEFAULT_T
    cases = {
        "model.build_hamiltonian": lambda: model.build_hamiltonian(p),
        "model.DensityMatrix": lambda: model.DensityMatrix(rho.mat),
        "dynamics.build_liouvillian": lambda: dynamics.build_liouvillian(p),
        "scipy.expm16": lambda: expm(gen),
        "dynamics.propagate_expm": lambda: dynamics.propagate_expm(rho0, p, DEFAULT_T),
        "dynamics.lindblad_rhs": lambda: dynamics.lindblad_rhs(rho, p),
        "dynamics.propagate_rk": lambda: dynamics.propagate_rk(rho0, p, DEFAULT_T),
        "spectral.spectral_decompose": lambda: spectral.spectral_decompose(rho),
        "qfi.qfi_components": lambda: qfi.qfi_components(p, DEFAULT_T, eta),
        "qfi.qfi_sld": lambda: qfi.qfi_sld(p, DEFAULT_T, eta),
    }
    return {name: time_call(fn) for name, fn in cases.items()}


def layer_detail(stats, ops):
    """Every traced name that was called: calls per operation, self and total time per call."""
    out = {}
    for name, (calls, total, self_s) in sorted(stats.items()):
        if calls:
            out[name] = {"calls": calls, "calls_per_op": calls / ops,
                         "self_us": 1e6 * self_s / calls, "total_us": 1e6 * total / calls}
    return out


def per_layer_metrics(stats, ops, calls, setup, slowdown):
    def count(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_us(name):
        n, _, self_s = stats.get(name, [0, 0.0, 0.0])
        return 1e6 * self_s / n if n else 0.0

    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls_per_op"] = (count(name) / ops, "count")
    rk = count("dynamics.propagate_rk")
    metrics["dynamics.lindblad_rhs.calls_per_rk"] = (
        count("dynamics.lindblad_rhs") / rk if rk else 0.0, "count")
    for name in SELF_TIMED:
        metrics[f"{name}.self_us"] = (self_us(name), "us")
    for name, timing in calls.items():
        metrics[f"{name}.call_us"] = (timing["median"], "us")
    metrics["chargeqfi.import_s"] = (statistics.median(setup["import_s"]), "s")
    metrics["trace.slowdown"] = (slowdown, "x")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chargeqfi" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/chargeqfi not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer, merge

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2

    setup = measure_setup(workloads, args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare()

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "unit": wl.unit, "env": environment(workloads), "setup": setup}
    if args.trace:
        plain = summarize(run_requests(wl, args.seconds / 2))
        tracer = Tracer()
        tracer.install()
        try:
            traced_reqs = run_requests(wl, args.seconds / 2, traced=True)
        finally:
            tracer.uninstall()
        traced = summarize(traced_reqs)
        stats = tracer.snapshot()
        for r in traced_reqs:
            if r.trace:
                merge(stats, r.trace)
        calls = isolated_calls()
        slowdown = plain["ops_per_s"] / traced["ops_per_s"]
        metrics = per_layer_metrics(stats, traced["ops"], calls, setup, slowdown)
        report.update(untraced=plain, traced=traced, layers=layer_detail(stats, traced["ops"]),
                      call_us=calls)
        attempted = plain["ops"] + traced["ops"]
        failed = plain["failed"] + traced["failed"]
    else:
        s = summarize(run_requests(wl, args.seconds))
        metrics = {
            "ops_per_s": (s["ops_per_s"], "1/s"),
            "latency_ms_p50": (s["latency_ms_p50"], "ms"),
            "setup_s": (statistics.median(setup["wall_s"]), "s"),
            "peak_rss_mb": (s["peak_rss_mb"], "MB"),
        }
        report["run"] = s
        attempted, failed = s["ops"], s["failed"]

    for key in ("run", "untraced", "traced"):
        for miss in report.get(key, {}).get("misses", []):
            print(f"perfbench: gate miss: {miss}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
