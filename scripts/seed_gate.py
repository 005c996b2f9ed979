"""Seed distribution of the desk plan's fiber and block rows.

    python3 scripts/seed_gate.py --out SEED_GATE.json

Runs ``plans/desk_plan.json``'s fiber and block scenarios with the methods
``past``, ``past_wo_cgm`` and ``linear`` at plan seeds 0, 1, ..., 9.
A plan seed s sets what ``pastnet experiment --seed s`` sets: the dataset,
model and training seeds, and each scenario's mask seed s * 1000 + its
index in the full plan, so every cell equals that cell of
``pastnet experiment --config plans/desk_plan.json --seed s``.  Each seed
runs in its own process, one after another, with the environment
``scripts/ab_bench.py`` gives its cases under glibc's default allocator
(one BLAS thread, this checkout's ``src/``), and takes about 50 s on one
core (2-core host, 10 seeds in 9 minutes).

The JSON file holds, per seed and scenario, each method's online RMSE and
the ratios ``past/linear`` and ``past/past_wo_cgm`` (the second asks
whether the calendar branch pays, the paper's claim for fiber missing),
and per scenario and ratio the median and quartiles over the seeds
(``ab_bench``'s summary, to three decimals).  One
seed is one draw from this distribution (Bouthillier et al., MLSys 2021,
"Accounting for Variance in Machine Learning Benchmarks"); a change that
may move seeded results is judged against the whole of it.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from ab_bench import PINNED, _child_env, _summary

PLAN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "plans", "desk_plan.json")
SCENARIOS = ("fiber", "block")
METHODS = ("past", "past_wo_cgm", "linear")
RATIOS = {"past/linear": ("past", "linear"), "past/past_wo_cgm": ("past", "past_wo_cgm")}
SEEDS = range(10)


def run_seed(seed: int) -> dict:
    """{scenario: {method: online RMSE}} of the desk plan at plan seed ``seed``."""
    from pastnet.harness import plan_from_dict, run_experiment

    with open(PLAN) as fh:
        raw = json.load(fh)
    raw["seed"] = seed
    with tempfile.TemporaryDirectory() as out:
        raw["output_dir"] = out
        plan = plan_from_dict(raw)  # derives the scenario seeds from the full plan
        plan.scenarios = [sc for sc in plan.scenarios if sc.kind in SCENARIOS]
        plan.methods = list(METHODS)
        results = run_experiment(plan)
    rmse = {sc: {} for sc in SCENARIOS}
    for r in results:
        if r.setting == "online":
            rmse[r.scenario.kind][r.method] = r.rmse
    missing = [f"{sc}/{m}" for sc in SCENARIOS for m in METHODS if m not in rmse[sc]]
    if missing:
        raise RuntimeError(f"seed {seed}: no online result for {', '.join(missing)}")
    return rmse


def summarize(runs: dict[int, dict]) -> dict:
    """Per seed the online RMSEs and ratios, per scenario and ratio their spread."""
    seeds = {}
    for seed, rmse in sorted(runs.items()):
        seeds[str(seed)] = {
            sc: {"online_rmse": rmse[sc],
                 **{name: rmse[sc][a] / rmse[sc][b] for name, (a, b) in RATIOS.items()}}
            for sc in SCENARIOS
        }
    spread = {sc: {name: _summary([seeds[s][sc][name] for s in seeds]) for name in RATIOS}
              for sc in SCENARIOS}
    return {"seeds": seeds, "distribution": spread}


def _run_child(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", str(seed)],
        env=_child_env(os.path.join(os.path.dirname(PLAN), ".."), "default"), stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON report to write")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(run_seed(args.child)))
        return 0
    if not args.out:
        parser.error("--out is required")
    runs = {}
    for seed in SEEDS:
        runs[seed] = _run_child(seed)
        print(f"seed {seed}: {json.dumps(runs[seed])}", file=sys.stderr)
    report = {
        "command": "python3 scripts/seed_gate.py",
        "plan": "plans/desk_plan.json",
        "scenarios": list(SCENARIOS),
        "methods": list(METHODS),
        "blas_threads": int(PINNED["OPENBLAS_NUM_THREADS"]),
        **summarize(runs),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
