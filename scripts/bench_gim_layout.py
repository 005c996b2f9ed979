"""Before/after figures for gim's time-major state layout.

    python3 scripts/bench_gim_layout.py --before PARENT_CHECKOUT [--after .] \
        [--out BENCH_gim_layout.json] [--rounds 2] [--repeats 5]

Measures two pastnet checkouts, typically a clean clone of the parent
commit (``--before``) and this one (``--after``), on the same machine and
writes one JSON file.  Every case runs in a fresh process with one BLAS
thread and imports pastnet from the checkout's ``src/``; rounds alternate
which checkout goes first.  Times are CPU seconds of the measuring process
(``time.process_time``); each case reports the median and quartiles of all
its samples.  The workload helpers are ``scripts/bench_cgm_slots.py``'s.

Cases:

- ``desk_step_default`` and ``desk_step_mmap128k``: training steps
  (``PastModel.objective`` plus ``backward``, dropout on, no Adam step) on
  the desk training windows in shuffled batches of 4 (B=4, N=20, d=32,
  n=2, K=2, L=96), under glibc's default allocator and under the
  benchmark's ``MALLOC_MMAP_THRESHOLD_=131072``.  ``step_ms`` is CPU ms
  and ``step_faults`` the minor page faults (``ru_minflt``) of one step;
- ``cli_step_n4`` and ``cli_step_n16``: one CLI-default training batch
  (B=32, d=64, n=3, K=2, L=96, 32 stride-96 windows of 40 synthetic days)
  on 4 and on 16 nodes; ``step_peak_mib`` is tracemalloc's peak over one
  step, ``step_ms`` its CPU time untraced;
- ``span``: CPU ms per ``impute_span`` call over 24 desk-size days,
  under the benchmark's allocator setting.

``rss_mib`` is the case process's peak resident set.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_cgm_slots as slots_bench  # noqa: E402  (the shared workload helpers)

CASES = ("desk_step_default", "desk_step_mmap128k", "cli_step_n4", "cli_step_n16", "span")
MMAP_THRESHOLD = slots_bench.PINNED["MALLOC_MMAP_THRESHOLD_"]
BLAS_PINNED = {k: v for k, v in slots_bench.PINNED.items() if k != "MALLOC_MMAP_THRESHOLD_"}


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _desk_steps(data, masking, repeats: int) -> dict:
    from pastnet.model import ModelConfig, PastModel

    w, adjacency = slots_bench._windows(data, masking, n_days=20, **slots_bench.DESK)
    model = PastModel.build(
        ModelConfig(N=slots_bench.DESK["n_nodes"], **slots_bench.DESK_MODEL), adjacency=adjacency
    )
    order = np.random.default_rng([0, 0]).permutation(len(w))
    batches = [slots_bench._batch(w, order[lo : lo + 4]) for lo in range(0, len(order), 4)]
    rng = np.random.default_rng(1)
    slots_bench._step(model, batches[0], rng)  # warm-up
    out = {"step_ms": [], "step_faults": []}
    for _ in range(repeats):
        for batch in batches:
            faults = _minor_faults()
            out["step_ms"].append(slots_bench._cpu_ms(lambda: slots_bench._step(model, batch, rng)))
            out["step_faults"].append(float(_minor_faults() - faults))
    out["batches"] = len(batches)
    return out


def _cli_step(data, masking, n_nodes: int) -> dict:
    from pastnet.model import ModelConfig, PastModel

    w, adjacency = slots_bench._windows(data, masking, n_nodes=n_nodes, n_days=40, seed=0)
    model = PastModel.build(ModelConfig(L=96, N=n_nodes), adjacency=adjacency)
    batch = slots_bench._batch(w, np.arange(len(w)))
    rng = np.random.default_rng(1)
    slots_bench._step(model, batch, rng)  # warm-up
    out = {"step_ms": [slots_bench._cpu_ms(lambda: slots_bench._step(model, batch, rng))]}
    tracemalloc.start()
    slots_bench._step(model, batch, rng)
    out["step_peak_mib"] = [tracemalloc.get_traced_memory()[1] / 2**20]
    tracemalloc.stop()
    out["windows"] = len(w)
    return out


def _span(data, masking, repeats: int) -> dict:
    from pastnet.model import ModelConfig, PastModel, impute_span

    raw = data.synthesize_dataset(n_days=24, **slots_bench.DESK)
    adjacency = data.build_spatial_adjacency(raw.n_nodes, raw.edges)
    mask = masking.generate_mask(
        raw.values.shape, masking.ScenarioConfig("block", 0.4, l=48, s=5, seed=1), adjacency
    )
    model = PastModel.build(ModelConfig(N=raw.n_nodes, **slots_bench.DESK_MODEL), adjacency=adjacency)
    week, hour, bucket = data.time_feature_arrays(raw, 0, raw.n_steps)
    args = (raw.values * mask, mask, week, hour, bucket)
    impute_span(model, *args)  # warm-up
    return {
        "impute_ms": [slots_bench._cpu_ms(lambda: impute_span(model, *args)) for _ in range(repeats)],
        "steps_x_nodes": int(raw.values.size),
    }


def run_case(case: str, repeats: int) -> dict:
    import pastnet.data as data
    import pastnet.masking as masking

    if case.startswith("desk_step"):
        out = _desk_steps(data, masking, repeats)
    elif case.startswith("cli_step"):
        out = _cli_step(data, masking, int(case.removeprefix("cli_step_n")))
    else:
        out = _span(data, masking, repeats)
    out["rss_mib"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return out


# ---- driver ----


def _run_child(tree: str, case: str, repeats: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MALLOC_MMAP_THRESHOLD_"}
    env.update(BLAS_PINNED)
    if case != "desk_step_default":
        env["MALLOC_MMAP_THRESHOLD_"] = MMAP_THRESHOLD
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
    parser.add_argument("--out", default="BENCH_gim_layout.json")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case:
        print(json.dumps(run_case(args.case, args.repeats)))
        return 0
    if not args.before:
        parser.error("--before is required")

    trees = {"before": args.before, "after": args.after}
    samples = {case: {side: {} for side in trees} for case in CASES}
    info = {case: {} for case in CASES}
    for r in range(args.rounds):
        sides = list(trees) if r % 2 == 0 else list(reversed(trees))
        for case in CASES:
            for side in sides:
                result = _run_child(trees[side], case, args.repeats)
                print(f"round {r} {case:18s} {side:6s}", file=sys.stderr)
                for key, value in result.items():
                    if key.endswith(("_ms", "_mib", "_faults")):
                        samples[case][side].setdefault(key, []).extend(value)
                    else:
                        info[case][key] = value  # workload shape: same on both sides
    cases = {}
    for case in CASES:
        entry = {"workload": info[case]}
        for side in trees:
            entry[side] = {k: slots_bench._summary(v) for k, v in samples[case][side].items()}
        entry["after_over_before"] = {
            k: round(entry["after"][k]["median"] / entry["before"][k]["median"], 3)
            for k in entry["before"]
        }
        cases[case] = entry
    machine = slots_bench._machine()
    machine["malloc_mmap_threshold"] = f"{MMAP_THRESHOLD} (glibc default for desk_step_default)"
    report = {
        "command": "python3 scripts/bench_gim_layout.py --before PARENT --after . "
                   f"--rounds {args.rounds} --repeats {args.repeats}",
        "commits": {side: slots_bench._commit(tree) for side, tree in trees.items()},
        "machine": machine,
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for case, entry in cases.items():
        for key, ratio in entry["after_over_before"].items():
            print(f"{case:18s} {key:14s} before {entry['before'][key]['median']:10.2f}  "
                  f"after {entry['after'][key]['median']:10.2f}  ratio {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
