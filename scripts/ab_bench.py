"""Before/after figures for two pastnet checkouts, from one case table.

    python3 scripts/ab_bench.py --before PARENT_CHECKOUT [--after .] --out BENCH_<topic>.json \
        [--rounds 2] [--repeats 5] [--case NAME ...] [--malloc pinned|default|both]

Measures two checkouts, typically a clean clone of the parent commit
(``--before``) and this one (``--after``), on the same machine and writes
one JSON file.  Every case runs in a fresh process that imports pastnet
from the checkout's ``src/``, with one BLAS thread.  ``--malloc`` picks
glibc's allocator setting: ``pinned`` (the default) fixes the mmap
threshold at 128 KiB, as ``perfbench/run.py`` does; ``default`` leaves
glibc's own adaptive threshold, which the CLI, the demos and the tests run
under; ``both`` runs every case under each.  A case run under the default
setting is reported as ``<case>@default``.  Rounds alternate which
checkout goes first.  Times are CPU ms of the measuring process
(``time.process_time``); the report gives the median and quartiles of each
metric's samples, and ``rss_mib`` is the case process's peak resident
set.  Every metric is better lower.  Each round runs the two checkouts
back to back, so each case also reports ``rounds`` and, per metric,
``after_won``: the number of rounds in which the after side's median of
that round's samples is below the before side's (a tie counts for
neither).  ``--case`` selects cases (repeatable; default: all).

- ``import_cli``: a fresh interpreter that runs ``import pastnet.cli`` and
  exits, the start-up every ``pastnet`` command pays.  Per process:
  ``import_ms`` (user plus system CPU, interpreter start included) and
  ``rss_mib`` (its peak resident set).  Its output is the sorted list of the
  top-level modules the import loads.

Desk size is N=20, L=96, d=32, n=2, K=2, seed 9 (``plans/desk_plan.json``);
the CLI default is d=64, n=3, K=2, L=96.  Models are untrained, which costs
the same per call as trained ones.

- ``span_past``, ``span_wo_cgm``, ``span_wo_gim``: ``impute_span`` over 24
  desk days (2304 steps x 20 nodes, 24 windows) under a block mask, with
  both branches, without the calendar branch and without the temporal-graph
  branch.  Per call: ``impute_ms``, ``sys_ms`` (``ru_stime``; under the fixed
  mmap threshold mostly page faults on freshly mapped arrays) and
  ``minor_faults`` (``ru_minflt``).
- ``span_l100``: ``span_past`` at L=100, which does not divide the 672
  slots of a week: each of the span's 24 windows has its own slot codes,
  so the calendar branch runs once per window (2400 slots, against 672 at
  L=96).
- ``span_n325``: ``impute_span`` of the CLI-default model over 8 synthetic
  days on 325 nodes (768 steps, 8 windows) under the same block mask: the
  time and memory of inference at real graph size.

The training cases run ``train()`` itself, 3 epochs at lr 1e-2 (8 for the
one-batch CLI cases below), each of the ``--repeats`` runs on a freshly
built model:

- ``train_desk``: the first 14 of the 16 desk training windows in batches
  of 4, so every epoch ends with a batch of 2; the model size
  ``perfbench``'s ``desk_fiber`` trains.  Windows 7 days apart share their
  slots.
- ``desk_distinct``: one desk batch of 4 windows whose 384 stamps are 384
  distinct slots, the slot path's worst case.
- ``train_cli``, ``cli_step_n8``, ``cli_step_n16``: one CLI-default batch
  (B=32, 32 stride-96 windows of 40 synthetic days) on 4, 8 and 16 nodes;
  on 4, the model size ``perfbench``'s ``cli_defaults`` trains.  The three
  give the per-node slope of ``rss_mib`` and ``pool_step_mib``.  A batch
  makes one step per epoch, so they train 8 epochs: 7 sampled steps per
  run, 42 per side at ``--rounds 2 --repeats 3``.
- ``real_n80``, ``real_n160``, ``real_n325``: the CLI-default model on a
  synthetic graph of 80, 160 and 325 nodes (325 is PEMS-BAY's size), 4 days
  cut into 3 training windows, in batches of 1: the time and memory of a
  step at real graph sizes.

``train_ms``, ``train_faults`` and ``train_sys_ms`` (``ru_stime``) cover a
whole call; ``step_ms``, ``step_faults`` and ``step_sys_ms`` each full-batch
step after a call's first, cut at every ``adam_step`` return, so an epoch's
smaller last batch trains but is not sampled; ``rss_mib`` is the peak of
the process.  Each of those step ends also reports, from the ``stats()`` of
the pool ``train`` holds, ``pool_step_mib`` (its step buffers),
``arena_mib`` (its arena buffers) and ``arena_peak_mib`` (the most arena
bytes that arrays still viewed at once during the step, as seen at each
request).

Every case hashes its output outside the timed region: the imputed bytes of
a span case, the history and trained parameter bytes of a training case.
``outputs_identical`` says whether every run of both checkouts gave the
same hash.

Every case process also times a fixed host-speed probe at its start and at
its end, as CPU ms: ``host_numpy_ms`` (a 256 x 256 matrix product, eight
times) and ``host_python_ms`` (a pure-Python loop of 300k additions).  A
stretch where another job shares the core shows as a slower probe next to
the slower figures.
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
from functools import partial

import numpy as np

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MALLOC = {"pinned": {"MALLOC_MMAP_THRESHOLD_": str(128 << 10)}, "default": {}}
DESK = dict(n_nodes=20, step_minutes=15, seed=9, noise_level=0.1)  # plans/desk_plan.json
DESK_MODEL = dict(L=96, d=32, n=2, K=2, p_dropout=0.1, seed=9)
METRIC_SUFFIXES = ("_ms", "_mib", "_faults")
CLI_EPOCHS = 8  # the one-batch CLI cases: see the module docstring


# ---- one case, in its own process ----


def _import_cli(repeats: int) -> dict:
    out: dict = {"import_ms": [], "rss_mib": []}
    for run in range(repeats + 1):  # the first run only warms the file cache
        proc = subprocess.Popen([sys.executable, "-c", "import pastnet.cli"])
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"import pastnet.cli exited with {proc.returncode}")
        if run:
            out["import_ms"].append((usage.ru_utime + usage.ru_stime) * 1e3)
            out["rss_mib"].append(usage.ru_maxrss / 1024)
    modules = subprocess.run(
        [sys.executable, "-c",
         "import sys, pastnet.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"],
        stdout=subprocess.PIPE, check=True,
    ).stdout
    out["output_sha256"] = hashlib.sha256(modules).hexdigest()
    return out


def _cpu_ms(fn) -> float:
    t0 = time.process_time()
    fn()
    return (time.process_time() - t0) * 1e3


# each span set-up returns (model, impute_span's arguments, the case's model
# settings that differ from its base model)


def _span_inputs(dataset: dict, base: dict, **variant):
    """An untrained model of ``base`` settings and ``variant`` on a synthetic
    span under a block mask (r=0.4)."""
    import pastnet.data as data
    import pastnet.masking as masking
    from pastnet.model import ModelConfig, PastModel

    raw = data.synthesize_dataset(**dataset)
    adjacency = data.build_spatial_adjacency(raw.n_nodes, raw.edges)
    mask = masking.generate_mask(
        raw.values.shape, masking.ScenarioConfig("block", 0.4, l=48, s=5, seed=1), adjacency
    )
    model = PastModel.build(ModelConfig(N=raw.n_nodes, **{**base, **variant}), adjacency=adjacency)
    week, hour, bucket = data.time_feature_arrays(raw, 0, raw.n_steps)
    return model, (raw.values * mask, mask, week, hour, bucket), variant


def _desk_span(**variant):
    return _span_inputs(dict(DESK, n_days=24), DESK_MODEL, **variant)


def _span_n325():
    return _span_inputs(dict(n_nodes=325, n_days=8, step_minutes=15, seed=0, noise_level=0.2),
                        dict(L=96))


def _span(setup, repeats: int) -> dict:
    from pastnet.model import impute_span

    model, args, variant = setup()
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
            raise RuntimeError("impute_span output differs between identical calls")
    out.update(variant, steps_x_nodes=int(args[0].size),
               output_sha256=hashlib.sha256(first.tobytes()).hexdigest())
    return out


def _windows(n_nodes, n_days, seed, noise_level=0.2, step_minutes=15):
    """Masked training windows (fiber, r=0.4) of a synthetic series, and its adjacency."""
    import pastnet.data as data
    import pastnet.masking as masking

    raw = data.synthesize_dataset(n_nodes, n_days, step_minutes=step_minutes, seed=seed,
                                  noise_level=noise_level)
    adjacency = data.build_spatial_adjacency(raw.n_nodes, raw.edges)
    mask = masking.generate_mask(
        raw.values.shape, masking.ScenarioConfig("fiber", 0.4, l=32, seed=seed), adjacency
    )
    ds = data.normalize(raw, 0.8, mask)
    w, _ = data.window_split(ds, 96, 96, 0.8, mask)
    w.values = w.values * w.masks
    return w, adjacency


# each training set-up returns (windows, adjacency, model config, batch size)


def _train_desk():
    from pastnet.data import WindowBatch
    from pastnet.model import ModelConfig

    w, adjacency = _windows(n_days=20, **DESK)
    w = WindowBatch(*(a[:14] for a in (w.values, w.masks, w.week, w.hour, w.minute_bucket,
                                       w.starts)))
    return w, adjacency, ModelConfig(N=DESK["n_nodes"], **DESK_MODEL), 4


def _desk_distinct():
    from pastnet.data import WindowBatch
    from pastnet.model import ModelConfig

    w, adjacency = _windows(n_days=20, **DESK)
    codes = np.random.default_rng(0).choice(672, size=(4, 96), replace=False)
    w = WindowBatch(w.values[:4], w.masks[:4], codes // 96, codes // 4 % 24, codes % 4,
                    w.starts[:4])
    return w, adjacency, ModelConfig(N=DESK["n_nodes"], **DESK_MODEL), 4


def _cli(n_nodes: int):
    from pastnet.model import ModelConfig

    w, adjacency = _windows(n_nodes=n_nodes, n_days=40, seed=0)
    return w, adjacency, ModelConfig(L=96, N=n_nodes), 32


def _real(n_nodes: int):
    from pastnet.model import ModelConfig

    w, adjacency = _windows(n_nodes=n_nodes, n_days=4, seed=0)
    return w, adjacency, ModelConfig(L=96, N=n_nodes), 1


def _usage() -> tuple[float, int, float]:
    """(CPU s, minor faults, system CPU s) of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return time.process_time(), usage.ru_minflt, usage.ru_stime


def _train(setup, repeats: int, epochs: int = 3) -> dict:
    import pastnet.model as model_mod
    from pastnet.model import PastModel, TrainConfig
    from pastnet.numcore import tensor

    w, adjacency, config, batch_size = setup()
    cfg = TrainConfig(lr=1e-2, batch_size=batch_size, epochs=epochs, seed=9,
                      early_stop_patience=epochs)
    marks = []  # _usage() at the start of train and after every step
    pools = []  # the pool's stats() after every step
    real_step = model_mod.adam_step

    def marked_step(params, state):
        real_step(params, state)
        marks.append(_usage())
        pools.append(tensor._pool.get().stats())

    model_mod.adam_step = marked_step
    out: dict = {"windows": len(w), "batch_size": batch_size, "epochs": epochs}
    sizes = [min(batch_size, len(w) - lo) for lo in range(0, len(w), batch_size)] * epochs
    sampled = [k for k, size in enumerate(sizes) if k and size == batch_size]
    pool_keys = {"pool_step_mib": "step_bytes", "arena_mib": "arena_bytes",
                 "arena_peak_mib": "arena_peak_bytes"}
    for key in ("train_ms", "train_faults", "train_sys_ms", "step_ms", "step_faults",
                "step_sys_ms", *pool_keys):
        out[key] = []
    hashes = set()
    for _ in range(repeats):
        model = PastModel.build(config, adjacency=adjacency)
        marks[:] = [_usage()]
        pools.clear()
        model, history = model_mod.train(model, w, cfg)
        (t0, f0, s0), (t1, f1, s1) = marks[0], marks[-1]
        out["train_ms"].append((t1 - t0) * 1e3)
        out["train_faults"].append(f1 - f0)
        out["train_sys_ms"].append((s1 - s0) * 1e3)
        for k in sampled:  # step k runs from marks[k] to marks[k + 1]
            (ta, fa, sa), (tb, fb, sb) = marks[k], marks[k + 1]
            out["step_ms"].append((tb - ta) * 1e3)
            out["step_faults"].append(fb - fa)
            out["step_sys_ms"].append((sb - sa) * 1e3)
            for key, name in pool_keys.items():
                out[key].append(pools[k][name] / 2**20)
        digest = hashlib.sha256(np.array(history.loss1 + history.loss2).tobytes())
        for path, t in model.params.items():
            digest.update(path.encode() + t.data.tobytes())
        hashes.add(digest.hexdigest())
    if len(hashes) != 1:
        raise RuntimeError("train() gave different parameters between identical runs")
    out["output_sha256"] = hashes.pop()
    return out


CASES = {
    "import_cli": _import_cli,
    "span_past": partial(_span, _desk_span),
    "span_wo_cgm": partial(_span, partial(_desk_span, use_cgm=False)),
    "span_wo_gim": partial(_span, partial(_desk_span, use_gim=False)),
    "span_l100": partial(_span, partial(_desk_span, L=100)),
    "span_n325": partial(_span, _span_n325),
    "train_desk": partial(_train, _train_desk),
    "desk_distinct": partial(_train, _desk_distinct),
    "train_cli": partial(_train, partial(_cli, 4), epochs=CLI_EPOCHS),
    "cli_step_n8": partial(_train, partial(_cli, 8), epochs=CLI_EPOCHS),
    "cli_step_n16": partial(_train, partial(_cli, 16), epochs=CLI_EPOCHS),
    "real_n80": partial(_train, partial(_real, 80)),
    "real_n160": partial(_train, partial(_real, 160)),
    "real_n325": partial(_train, partial(_real, 325)),
}


def _python_loop() -> int:
    total = 0
    for i in range(300_000):
        total += i
    return total


def _host_probe() -> tuple[float, float]:
    """CPU ms of a fixed numpy kernel and of a fixed pure-Python loop."""
    a = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256)
    a @ a  # BLAS sets itself up on its first call: not part of the probe
    return _cpu_ms(lambda: [a @ a for _ in range(8)]), _cpu_ms(_python_loop)


def run_case(case: str, repeats: int) -> dict:
    start = _host_probe()
    out = CASES[case](repeats)
    out.setdefault("rss_mib", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])
    end = _host_probe()
    out["host_numpy_ms"], out["host_python_ms"] = ([s, e] for s, e in zip(start, end))
    return out


# ---- driver ----


def _summary(samples: list[float]) -> dict:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": round(float(med), 3), "q1": round(float(q1), 3),
            "q3": round(float(q3), 3), "n": len(samples)}


def _ratio(after: float, before: float) -> float | None:
    """after / before, or None where the before median is 0 (no system time, no faults)."""
    return round(after / before, 3) if before else None


def _commit(tree: str) -> str | None:
    proc = subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "-C", tree, "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("+uncommitted src changes" if dirty else "")


def _machine(settings: list[str]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(PINNED["OPENBLAS_NUM_THREADS"]),
        "malloc": {setting: MALLOC[setting] for setting in settings},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def _child_env(tree: str, setting: str) -> dict:
    """This environment with one BLAS thread, the checkout's ``src/`` as the
    only ``PYTHONPATH`` and, of glibc's allocator settings, only ``setting``'s."""
    env = {k: v for k, v in os.environ.items()
           if not (k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")}
    env.update(PINNED, **MALLOC[setting], PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    return env


def _run_child(tree: str, case: str, repeats: int, setting: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", case, "--repeats", str(repeats)],
        env=_child_env(tree, setting), stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", help="checkout measured as 'before' (the parent commit)")
    parser.add_argument("--after", default=".", help="checkout measured as 'after'")
    parser.add_argument("--out", help="JSON report to write")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--case", action="append", choices=CASES,
                        help="run only this case; repeat for several (default: all)")
    parser.add_argument("--malloc", choices=("pinned", "default", "both"), default="pinned",
                        help="glibc allocator setting of the case processes (default: pinned)")
    parser.add_argument("--child", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(run_case(args.child, args.repeats)))
        return 0
    if not (args.before and args.out):
        parser.error("--before and --out are required")

    settings = list(MALLOC) if args.malloc == "both" else [args.malloc]
    runs = [(case, setting) for case in args.case or list(CASES) for setting in settings]
    cases = [name if setting == "pinned" else f"{name}@{setting}" for name, setting in runs]
    trees = {"before": args.before, "after": args.after}
    samples = {case: {side: {} for side in trees} for case in cases}
    round_medians = {case: {side: {} for side in trees} for case in cases}
    workload = {case: {} for case in cases}
    hashes = {case: set() for case in cases}
    for r in range(args.rounds):
        sides = list(trees) if r % 2 == 0 else list(reversed(trees))
        for (name, setting), case in zip(runs, cases):
            for side in sides:
                result = _run_child(trees[side], name, args.repeats, setting)
                print(f"round {r} {case:22s} {side:6s}", file=sys.stderr)
                hashes[case].add(result.pop("output_sha256"))
                for key, value in result.items():
                    if key.endswith(METRIC_SUFFIXES):
                        samples[case][side].setdefault(key, []).extend(value)
                        medians = round_medians[case][side].setdefault(key, [])
                        medians.append(float(np.median(value)))
                    else:
                        workload[case][key] = value  # the script's inputs: same on both sides
    report_cases = {}
    for case in cases:
        entry = {"workload": workload[case], "outputs_identical": len(hashes[case]) == 1}
        for side in trees:
            entry[side] = {k: _summary(v) for k, v in samples[case][side].items()}
        entry["after_over_before"] = {  # a metric only one checkout reports has no ratio
            k: _ratio(entry["after"][k]["median"], entry["before"][k]["median"])
            for k in entry["before"] if k in entry["after"]
        }
        medians = round_medians[case]
        entry["rounds"] = args.rounds
        entry["after_won"] = {  # every metric is better lower; a tie counts for neither side
            k: sum(a < b for a, b in zip(medians["after"][k], medians["before"][k]))
            for k in entry["after_over_before"]
        }
        report_cases[case] = entry
    selected = "".join(f" --case {case}" for case in args.case or ())
    if args.malloc != "pinned":
        selected += f" --malloc {args.malloc}"
    report = {
        "command": f"python3 scripts/ab_bench.py --before PARENT --after . --out {args.out} "
                   f"--rounds {args.rounds} --repeats {args.repeats}{selected}",
        "commits": {side: _commit(tree) for side, tree in trees.items()},
        "machine": _machine(settings),
        "cases": report_cases,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for case, entry in report_cases.items():
        for key, ratio in entry["after_over_before"].items():
            print(f"{case:22s} {key:16s} before {entry['before'][key]['median']:10.2f}  "
                  f"after {entry['after'][key]['median']:10.2f}  ratio {ratio}  "
                  f"after won {entry['after_won'][key]}/{entry['rounds']}")
        print(f"{case:22s} outputs identical: {entry['outputs_identical']}  "
              f"{' '.join(sorted(hashes[case]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
