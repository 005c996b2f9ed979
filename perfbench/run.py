"""pastnet benchmark: training, span imputation and CLI-default memory.

    python3 perfbench/run.py --workload desk_fiber|span_impute|cli_defaults|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh process
with BLAS pinned to one thread and the checkout's ``src/`` on PYTHONPATH.
With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 when every check passed, 1 when a check failed and 2 when
the workload could not run at all.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("desk_fiber", "span_impute", "cli_defaults")
CHILD_TIMEOUT_S = 175
PINNED = {
    # one BLAS thread: the system runs on one core
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    # glibc's dynamic mmap threshold made page faults a per-process lottery
    # (0 or ~170k per impute_span call); setting the threshold at glibc's
    # starting value turns the dynamic rise off, so large temporaries are
    # mmapped and faulted in on every call, in every run.  See README.md.
    "MALLOC_MMAP_THRESHOLD_": str(128 << 10),
}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One workload in a fresh process; its result, or an error message."""
    env = dict(os.environ, **PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{name} did not finish within {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{name} exited {proc.returncode} without a result"}
    return json.loads(lines[-1])


def report(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} rounds={result['rounds']}")
    for key, m in result["metrics"].items():
        print(f"   {key:28s} {m['value']:>16.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"   CHECK FAILED: {failure}")
    print(f"   info: {json.dumps(result['info'])}")
    print(f"   env: {json.dumps(result['env'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "pastnet")):
        print(f"error: no src/pastnet under {ROOT}; run from a pastnet checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if "error" in result:
            print(f"error: {result['error']}", file=sys.stderr)
            return 2
        report(name, result)
        results[name] = result

    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
