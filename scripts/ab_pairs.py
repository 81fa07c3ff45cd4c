"""Paired A/B runs of perfbench between a parent and a change checkout.

Run from the repository root:

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_11.json \
        [--pairs 10] [--first-seed 1101]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository, for example
made with `git worktree add` or `git archive`. The workloads, the run length
S and the end-to-end metrics come from the change checkout's BENCHMARK.json.
For each workload and each pair k, both sides run

    python3 perfbench/run.py --workload W --seed (first_seed + k) --seconds S --trace 0

in their own checkout with the same seed, one after the other; the side that
runs first alternates from pair to pair (the parent goes first in pair 0).
The output file holds, per workload and metric, both sides' runs with median
and quartiles, the pairs the change won, its fractional worsening against
the metric's bound and the parent's own spread, followed by every raw run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def git_rev(checkout: Path) -> str:
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else checkout.name


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One perfbench run; returns (wall seconds, return code, result object or None)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(checkout / "src")})
    wall = round(time.perf_counter() - start, 1)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None:
        print(f"ab_pairs: {workload} seed {seed} in {checkout} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return wall, proc.returncode, result


def quartiles(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarize(raw: list, metrics: list, workload: str) -> dict:
    rows = [r for r in raw if r["workload"] == workload]
    results = {side: [r["result"] for r in rows if r["side"] == side] for side in SIDES}
    pairs = sorted({r["pair"] for r in rows})
    out = {
        "pairs": len(pairs),
        "attempted": {side: sum(res["attempted"] for res in results[side] if res)
                      for side in SIDES},
        "failed": {side: sum(res["failed"] for res in results[side] if res) for side in SIDES},
        "all_correct": all(r["result"] is not None and r["result"]["correct"] for r in rows),
    }
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        by_pair = {side: {r["pair"]: r["result"]["metrics"][name]["value"]
                          for r in rows if r["side"] == side and r["result"]} for side in SIDES}
        complete = [k for k in pairs if all(k in by_pair[side] for side in SIDES)]
        if len(complete) < 2:
            continue
        stats = {side: quartiles([by_pair[side][k] for k in complete]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        worse_by = (parent - change) / parent if higher else (change - parent) / parent
        wins = sum((by_pair["change"][k] > by_pair["parent"][k]) if higher
                   else (by_pair["change"][k] < by_pair["parent"][k]) for k in complete)
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            **stats,
            "ratio_change_over_parent": change / parent,
            "change_wins_pairs": wins,
            "worse_by": worse_by,
            "within_bound": worse_by <= metric["bound"],
            "parent_iqr_over_median": (stats["parent"]["q3"] - stats["parent"]["q1"]) / parent,
        }
    return out


def host_info() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_threads": 1,
            "note": "perfbench caps BLAS/OpenMP at 1 thread in every run"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 to give quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = [args.first_seed + k for k in range(args.pairs)]
    raw = []
    for workload in workloads:
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                wall, code, result = run_side(checkouts[side], workload, seed, seconds)
                raw.append({"pair": k, "seed": seed, "workload": workload, "side": side,
                            "first": order[0], "wall_s": wall, "returncode": code,
                            "result": result})
                print(f"ab_pairs: {workload} pair {k} {side}: exit {code}, {wall} s",
                      file=sys.stderr)
    doc = {
        "what": f"perfbench A/B: parent vs change, run_seconds {seconds:g}, --trace 0, "
                "alternating order per pair, same seed on both sides",
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} "
                   "--trace 0",
        "parent": git_rev(checkouts["parent"]),
        "change": git_rev(checkouts["change"]),
        "claim": None,
        "seeds": seeds,
        "host": host_info(),
        "reading": "ratio_change_over_parent is median(change)/median(parent) per metric; "
                   "change_wins_pairs counts pairs (same seed, alternating order) in which the "
                   "change was better; worse_by is the fractional worsening of the change's "
                   "median (negative = better), to compare with the BENCHMARK.json bound; "
                   "parent_iqr_over_median is the parent's own spread.",
        "summary": {w: summarize(raw, bench["end_to_end"], w) for w in workloads},
        "raw": raw,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
