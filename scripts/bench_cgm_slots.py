"""Before/after figures for the calendar branch's slot computation.

    python3 scripts/bench_cgm_slots.py --before PARENT_CHECKOUT [--after .] \
        [--out BENCH_cgm_slots.json] [--rounds 2] [--repeats 9]

Measures two pastnet checkouts, typically a clean clone of the parent
commit (``--before``) and this one (``--after``), on the same machine and
writes one JSON file.  Every case runs in a fresh process with one BLAS
thread and glibc's mmap threshold fixed at 128 KiB, as the benchmark under
``perfbench/`` does, and imports pastnet from the checkout's ``src/``.
Rounds alternate which checkout goes first.  Times are CPU seconds of the
measuring process (``time.process_time``); each case reports the median
and quartiles of all its samples.

Cases:

- ``cli_batch``: one CLI-default training batch (B=32, N=4, d=64, n=3,
  K=2, L=96, 32 stride-96 windows of 40 synthetic days): 3072 stamps in
  at most 672 slots;
- ``desk_distinct``: one desk-size batch (B=4, N=20, d=32, n=2, L=96)
  whose 384 stamps are 384 distinct slots, the slot path's worst case;
- ``desk_shuffled``: the desk training windows in shuffled batches of 4,
  as ``train`` draws them; windows 7 days apart share their slots;
- ``span``: ``impute_span`` over 24 desk-size days, one window at a time.

For the batch cases ``cgm_ms`` is the calendar branch's forward (surface
and hidden states) and the backward of its loss on the surface, which is
the gradient training takes through it; ``step_ms`` is
``PastModel.objective`` plus ``backward`` with dropout on (no Adam step);
``step_peak_mib`` is tracemalloc's peak over one such step.  ``rss_mib``
is the case process's peak resident set.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

CASES = ("cli_batch", "desk_distinct", "desk_shuffled", "span")
PINNED = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(128 << 10),
}
DESK = dict(n_nodes=20, step_minutes=15, seed=9, noise_level=0.1)  # plans/desk_plan.json
DESK_MODEL = dict(L=96, d=32, n=2, K=2, p_dropout=0.1, seed=9)


# ---- one case, in its own process ----


def _windows(data, masking, n_nodes, n_days, seed, noise_level=0.2, step_minutes=15):
    raw = data.synthesize_dataset(n_nodes, n_days, step_minutes=step_minutes, seed=seed,
                                  noise_level=noise_level)
    adjacency = data.build_spatial_adjacency(raw.n_nodes, raw.edges)
    mask = masking.generate_mask(
        raw.values.shape, masking.ScenarioConfig("fiber", 0.4, l=32, seed=seed), adjacency
    )
    ds = data.normalize(raw, 0.8, mask)
    train_w, _ = data.window_split(ds, 96, 96, 0.8, mask)
    train_w.values = train_w.values * train_w.masks
    return train_w, adjacency


def _batch(w, idx):
    return w.values[idx], w.masks[idx], w.week[idx], w.hour[idx], w.minute_bucket[idx]


def _cgm_pass(model, masked_mse, batch):
    values, masks, week, hour, bucket = batch
    y, _ = model.cgm.forward(week, hour, bucket)
    masked_mse(y, values, masks).backward()
    model.params.zero_grads()


def _step(model, batch, rng):
    total, _, _ = model.objective(*batch, training=True, rng=rng)
    total.backward()
    model.params.zero_grads()


def _cpu_ms(fn) -> float:
    t0 = time.process_time()
    fn()
    return (time.process_time() - t0) * 1e3


def _n_slots(batch) -> int:
    _, _, week, hour, bucket = batch
    return int(np.unique((week * 24 + hour) * 4 + bucket).size)


def run_case(case: str, repeats: int) -> dict:
    import pastnet.data as data
    import pastnet.masking as masking
    from pastnet.model import ModelConfig, PastModel, impute_span
    from pastnet.numcore import masked_mse

    rng = np.random.default_rng(0)
    out: dict = {}
    if case == "span":
        raw = data.synthesize_dataset(n_days=24, **DESK)
        adjacency = data.build_spatial_adjacency(raw.n_nodes, raw.edges)
        mask = masking.generate_mask(
            raw.values.shape, masking.ScenarioConfig("block", 0.4, l=48, s=5, seed=1), adjacency
        )
        model = PastModel.build(ModelConfig(N=raw.n_nodes, **DESK_MODEL), adjacency=adjacency)
        week, hour, bucket = data.time_feature_arrays(raw, 0, raw.n_steps)
        args = (raw.values * mask, mask, week, hour, bucket)
        impute_span(model, *args)  # warm-up
        out["impute_ms"] = [_cpu_ms(lambda: impute_span(model, *args)) for _ in range(repeats)]
        out["steps_x_nodes"] = int(raw.values.size)
    else:
        if case == "cli_batch":
            w, adjacency = _windows(data, masking, n_nodes=4, n_days=40, seed=0)
            config = ModelConfig(L=96, N=4)
            batches = [np.arange(len(w))]
        else:
            w, adjacency = _windows(data, masking, n_days=20, **DESK)
            config = ModelConfig(N=DESK["n_nodes"], **DESK_MODEL)
            if case == "desk_distinct":
                idx = np.arange(4)
                codes = rng.choice(672, size=(4, 96), replace=False)
                w.week[idx], w.hour[idx], w.minute_bucket[idx] = (
                    codes // 96, codes // 4 % 24, codes % 4)
                batches = [idx]
            else:
                order = np.random.default_rng([0, 0]).permutation(len(w))
                batches = [order[lo:lo + 4] for lo in range(0, len(order), 4)]
        model = PastModel.build(config, adjacency=adjacency)
        batches = [_batch(w, idx) for idx in batches]
        out.update(windows=len(w), batch_sizes=[len(b[0]) for b in batches],
                   slots=[_n_slots(b) for b in batches])
        step_rng = np.random.default_rng(1)
        _step(model, batches[0], step_rng)  # warm-up
        out["cgm_ms"], out["step_ms"] = [], []
        for r in range(repeats):
            for batch in batches:
                out["cgm_ms"].append(_cpu_ms(lambda: _cgm_pass(model, masked_mse, batch)))
                out["step_ms"].append(_cpu_ms(lambda: _step(model, batch, step_rng)))
        tracemalloc.start()
        _step(model, batches[0], step_rng)
        out["step_peak_mib"] = [tracemalloc.get_traced_memory()[1] / 2**20]
        tracemalloc.stop()
    out["rss_mib"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return out


# ---- driver ----


def _summary(samples: list[float]) -> dict:
    q1, med, q3 = (np.percentile(samples, [25, 50, 75]) if len(samples) > 1
                   else (samples[0],) * 3)
    return {"median": round(float(med), 3), "q1": round(float(q1), 3),
            "q3": round(float(q3), 3), "n": len(samples)}


def _commit(tree: str) -> str | None:
    proc = subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "-C", tree, "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("+uncommitted src changes" if dirty else "")


def _run_child(tree: str, case: str, repeats: int) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--case", case, "--repeats", str(repeats)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(PINNED["OPENBLAS_NUM_THREADS"]),
        "malloc_mmap_threshold": int(PINNED["MALLOC_MMAP_THRESHOLD_"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", help="checkout measured as 'before' (the parent commit)")
    parser.add_argument("--after", default=".", help="checkout measured as 'after'")
    parser.add_argument("--out", default="BENCH_cgm_slots.json")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=9)
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
                print(f"round {r} {case:14s} {side:6s}", file=sys.stderr)
                for key, value in result.items():
                    if key.endswith(("_ms", "_mib")):
                        samples[case][side].setdefault(key, []).extend(value)
                    else:
                        info[case][key] = value  # workload shape: same on both sides
    cases = {}
    for case in CASES:
        entry = {"workload": info[case]}
        for side in trees:
            entry[side] = {k: _summary(v) for k, v in samples[case][side].items()}
        entry["after_over_before"] = {
            k: round(entry["after"][k]["median"] / entry["before"][k]["median"], 3)
            for k in entry["before"]
        }
        cases[case] = entry
    report = {
        "command": "python3 scripts/bench_cgm_slots.py --before PARENT --after . "
                   f"--rounds {args.rounds} --repeats {args.repeats}",
        "commits": {side: _commit(tree) for side, tree in trees.items()},
        "machine": _machine(),
        "cases": cases,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for case, entry in cases.items():
        for key, ratio in entry["after_over_before"].items():
            print(f"{case:14s} {key:14s} before {entry['before'][key]['median']:9.2f}  "
                  f"after {entry['after'][key]['median']:9.2f}  ratio {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
