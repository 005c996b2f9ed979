"""Reference figures: every workload over several seeds, untraced and traced.

    python3 perfbench/reference.py [--seeds 1 2 ... 10] [--trace-seeds 1 2 3] \
        [--workloads desk_fiber ...] [--seconds 8] [--out perfbench/_results/reference.json]

Runs one workload process at a time, as ``run.py`` does.  For each
end-to-end metric it prints the median over the seeds and the spread, the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median; ``BENCHMARK.json`` bounds are judged
against that spread.  Traced runs give the per-layer medians and the
tracing overhead, the traced over the untraced median of ``run_s``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from run import BENCH_DIR, WORKLOADS, run_workload


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def collect(workload: str, seeds: list[int], seconds: int, trace: int) -> dict:
    runs = []
    for seed in seeds:
        result = run_workload(workload, seed, seconds, trace)
        if "error" in result:
            sys.exit(f"{workload} seed {seed}: {result['error']}")
        runs.append({"seed": seed, **result})
        print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              file=sys.stderr, flush=True)
    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "spread": spread(values) if len(values) > 1 else 0.0,
            "values": values,
        }
    return {
        "runs": runs,
        "metrics": summary,
        "correct": all(r["correct"] for r in runs),
        "failed_share": [r["failed"] / r["attempted"] for r in runs],
        "env": runs[0]["env"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "_results", "reference.json"))
    args = parser.parse_args()

    report = {"seconds": args.seconds, "seeds": args.seeds, "trace_seeds": args.trace_seeds,
              "workloads": {}}
    for workload in args.workloads:
        entry = {"untraced": collect(workload, args.seeds, args.seconds, 0)}
        if args.trace_seeds:
            entry["traced"] = collect(workload, args.trace_seeds, args.seconds, 1)
            untraced = entry["untraced"]["metrics"]["run_s"]["median"]
            traced = entry["traced"]["metrics"]["trace.run_s"]["median"]
            entry["tracing_overhead"] = traced / untraced - 1.0
        report["workloads"][workload] = entry

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"seeds {args.seeds}, {args.seconds} s per run")
    print("| workload | metric | median | spread (IQR/median) |")
    print("|---|---|---|---|")
    for workload, entry in report["workloads"].items():
        for name, m in entry["untraced"]["metrics"].items():
            print(f"| {workload} | {name} ({m['unit']}) | {m['median']:.6g} | {m['spread']:.3f} |")
    if args.trace_seeds:
        print(f"\ntraced, seeds {args.trace_seeds}")
        print("| metric | " + " | ".join(report["workloads"]) + " |")
        print("|---|" + "---|" * len(report["workloads"]))
        first = next(iter(report["workloads"].values()))
        for name, m in first["traced"]["metrics"].items():
            cells = [f"{e['traced']['metrics'][name]['median']:.4g}"
                     for e in report["workloads"].values()]
            print(f"| {name} ({m['unit']}) | " + " | ".join(cells) + " |")
        print("| tracing overhead (traced / untraced run_s - 1) | " + " | ".join(
            f"{e['tracing_overhead']:+.1%}" for e in report["workloads"].values()) + " |")
    return 0 if all(e["untraced"]["correct"] for e in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
