"""Before/after figures for ``impute_span``, one call at a time.

    python3 scripts/bench_span_impute.py --before PARENT_CHECKOUT [--after .] \
        [--out BENCH_span_scratch.json] [--rounds 3] [--repeats 9]

Measures two pastnet checkouts, typically a clean clone of the parent
commit (``--before``) and this one (``--after``), on the same machine and
writes one JSON file.  Every case runs in a fresh process with the
settings of ``scripts/bench_cgm_slots.py`` (one BLAS thread, glibc's mmap
threshold fixed at 128 KiB, as the benchmark under ``perfbench/`` has) and
imports pastnet from the checkout's ``src/``.  Rounds alternate which
checkout goes first.

Each case builds a desk-size model (N=20, L=96, d=32, n=2, K=2, seed 9;
untrained, which costs the same per call as a trained one) and imputes a
24-day span of the desk series (2304 steps x 20 nodes, 24 windows) under a
block mask, once to warm up and then ``--repeats`` times:

- ``past``: both branches;
- ``past_wo_cgm``: the temporal-graph branch alone;
- ``past_wo_gim``: the calendar branch alone.

Per call it records the CPU time of the process (``impute_ms``,
``time.process_time``), the part of it spent in the kernel (``sys_ms``,
``ru_stime``; under the fixed mmap threshold mostly page faults on freshly
mapped arrays) and its minor page faults (``minor_faults``,
``ru_minflt``); ``rss_mib`` is the case process's peak resident set after
the calls.  Each case also hashes its output, and the report says whether
both checkouts produced the same bytes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

from bench_cgm_slots import DESK, DESK_MODEL, PINNED, _commit, _machine, _summary

CASES = {"past": {}, "past_wo_cgm": {"use_cgm": False}, "past_wo_gim": {"use_gim": False}}
SPAN_DAYS = 24
METRICS = ("impute_ms", "sys_ms", "minor_faults", "rss_mib")


def run_case(case: str, repeats: int) -> dict:
    import pastnet.data as data
    import pastnet.masking as masking
    from pastnet.model import ModelConfig, PastModel, impute_span

    raw = data.synthesize_dataset(n_days=SPAN_DAYS, **DESK)
    adjacency = data.build_spatial_adjacency(raw.n_nodes, raw.edges)
    mask = masking.generate_mask(
        raw.values.shape, masking.ScenarioConfig("block", 0.4, l=48, s=5, seed=1), adjacency
    )
    config = ModelConfig(N=raw.n_nodes, **DESK_MODEL, **CASES[case])
    model = PastModel.build(config, adjacency=adjacency)
    week, hour, bucket = data.time_feature_arrays(raw, 0, raw.n_steps)
    args = (raw.values * mask, mask, week, hour, bucket)
    first = impute_span(model, *args)  # warm-up
    out: dict = {"impute_ms": [], "sys_ms": [], "minor_faults": []}
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.process_time()
        again = impute_span(model, *args)
        out["impute_ms"].append((time.process_time() - t0) * 1e3)
        after = resource.getrusage(resource.RUSAGE_SELF)
        out["sys_ms"].append((after.ru_stime - before.ru_stime) * 1e3)
        out["minor_faults"].append(after.ru_minflt - before.ru_minflt)
        if not np.array_equal(again, first):
            raise RuntimeError(f"{case}: impute_span output differs between identical calls")
    out["rss_mib"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    out["steps_x_nodes"] = int(raw.values.size)
    out["output_sha256"] = hashlib.sha256(first.tobytes()).hexdigest()
    return out


def _run_child(tree: str, case: str, repeats: int) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--case", case, "--repeats", str(repeats)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", help="checkout measured as 'before' (the parent commit)")
    parser.add_argument("--after", default=".", help="checkout measured as 'after'")
    parser.add_argument("--out", default="BENCH_span_scratch.json")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case:
        print(json.dumps(run_case(args.case, args.repeats)))
        return 0
    if not args.before:
        parser.error("--before is required")

    trees = {"before": args.before, "after": args.after}
    samples = {case: {side: {m: [] for m in METRICS} for side in trees} for case in CASES}
    hashes = {case: {side: set() for side in trees} for case in CASES}
    cells = {}
    for r in range(args.rounds):
        sides = list(trees) if r % 2 == 0 else list(reversed(trees))
        for case in CASES:
            for side in sides:
                result = _run_child(trees[side], case, args.repeats)
                print(f"round {r} {case:12s} {side:6s}", file=sys.stderr)
                for m in METRICS:
                    samples[case][side][m].extend(result[m])
                hashes[case][side].add(result["output_sha256"])
                cells[case] = result["steps_x_nodes"]
    cases = {}
    for case in CASES:
        entry = {
            "workload": {"steps_x_nodes": cells[case], **CASES[case]},
            "outputs_identical": len(hashes[case]["before"] | hashes[case]["after"]) == 1,
        }
        for side in trees:
            entry[side] = {m: _summary(v) for m, v in samples[case][side].items()}
        entry["after_over_before"] = {
            m: round(entry["after"][m]["median"] / entry["before"][m]["median"], 3)
            for m in METRICS
        }
        cases[case] = entry
    report = {
        "command": "python3 scripts/bench_span_impute.py --before PARENT --after . "
                   f"--rounds {args.rounds} --repeats {args.repeats}",
        "commits": {side: _commit(tree) for side, tree in trees.items()},
        "machine": _machine(),
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for case, entry in cases.items():
        for m, ratio in entry["after_over_before"].items():
            print(f"{case:12s} {m:13s} before {entry['before'][m]['median']:10.2f}  "
                  f"after {entry['after'][m]['median']:10.2f}  ratio {ratio}")
        print(f"{case:12s} outputs identical: {entry['outputs_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
