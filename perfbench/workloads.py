"""One benchmark workload in this process: set up, measure, check, report.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this script in a fresh process with BLAS pinned to one
thread and ``src/`` on PYTHONPATH.  The last line of standard output is
one JSON object: the check outcome, the operation counts, the metrics and
the environment.

Times are CPU seconds (user + system) of this process and of the child
processes it waited for: on a shared host a neighbour's load stretches
wall time but not CPU time, and the system time keeps the cost of page
faults in the figures.  Wall times are kept in ``info``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from tracing import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_ROOT = os.path.join(BENCH_DIR, "_work")
SETUP_REPEATS = 3

# desk_fiber: the fiber row of the desk plan (its seed, so its dataset and
# model), shortened to fit a run, under DESK_EXPERIMENTS fiber masks; one
# model's RMSE varies by about 15% between masks, so hidden_rmse is the
# median of the experiments
DESK_PLAN = os.path.join(ROOT, "plans", "desk_plan.json")
DESK_METHODS = ["past", "linear", "knn"]
# 6 epochs (24 steps) at the rate the plan gives its random row, 1e-2: at
# the fiber row's 3e-3 the model needs 10 epochs to reach the same RMSE
DESK_EPOCHS = 6
DESK_LR = 1e-2
DESK_EXPERIMENTS = 5
# the median past online RMSE of the five must stay below this multiple of
# the median np.interp RMSE; see README.md, "Checks"
DESK_PAST_VS_INTERP = 1.1

# cli_defaults: CLI default model and batch on a small graph
CLI_NODES = 4
CLI_DAYS = 40  # 80% of 40 days = 32 windows, one full batch of 32
CLI_EPOCHS = 2
CHILD_TIMEOUT_S = 150


class Run:
    """What one workload run accumulates: operations, failures, round times."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds: list[float] = []
        self.info: dict = {}
        self.hidden_rmse = float("nan")

    def check(self, fails: list[str]) -> None:
        self.failures.extend(fails)


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _median_setup(setup, repeats: int = SETUP_REPEATS):
    """Run ``setup`` several times; return (median CPU seconds, every result)."""
    times, results = [], []
    for _ in range(repeats):
        t0 = cpu_seconds()
        results.append(setup())
        times.append(cpu_seconds() - t0)
    return statistics.median(times), results


def _measure(run: Run, seconds: float, one_round, min_rounds: int = 1) -> None:
    """Repeat whole rounds until ``seconds`` have passed and ``min_rounds`` ran."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    walls = []
    while True:
        t0, w0 = cpu_seconds(), time.perf_counter()
        one_round(len(run.rounds))
        run.rounds.append(cpu_seconds() - t0)
        walls.append(time.perf_counter() - w0)
        if time.perf_counter() - start >= seconds and len(run.rounds) >= min_rounds:
            break
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    run.info["minor_faults_per_round"] = faults / len(run.rounds)
    run.info["run_wall_s"] = statistics.median(walls)


# ---- desk_fiber ----


def _desk_plan(mask_seed: int, out_dir: str):
    from pastnet.harness import plan_from_dict

    with open(DESK_PLAN) as fh:
        raw = json.load(fh)
    row = next(i for i, sc in enumerate(raw["scenarios"]) if sc["kind"] == "fiber")
    # the mask seed the plan loader would give row ``row`` under plan seed
    # ``mask_seed``; the dataset and model keep the plan's own seed
    fiber = dict(raw["scenarios"][row], seed=mask_seed * 1000 + row)
    train = dict(raw["train"], lr=DESK_LR, epochs=DESK_EPOCHS,
                 early_stop_patience=DESK_EPOCHS)
    plan = dict(raw, scenarios=[fiber], methods=DESK_METHODS, train=train,
                output_dir=out_dir, dump_series=False)
    return plan_from_dict(plan)


def _desk_references(plan) -> dict:
    """The benchmark's own np.interp RMSE on the hidden entries, per setting."""
    import pastnet.data as data
    import pastnet.masking as masking

    ds_raw = plan.dataset.realize(plan.seed)
    adjacency = data.build_spatial_adjacency(ds_raw.n_nodes, ds_raw.edges)
    mask = masking.generate_mask(ds_raw.values.shape, plan.scenarios[0], adjacency=adjacency)
    ds = data.normalize(ds_raw, plan.train_fraction, mask)
    boundary = int(np.floor(plan.train_fraction * ds.n_steps))
    refs = {}
    for setting, sl in (("offline", slice(0, boundary)), ("online", slice(boundary, None))):
        m = mask[sl]
        truth = ds.values[sl]
        refs[setting] = checks.rmse(checks.interp_fill(truth * m, m), truth, m == 0.0)
    return refs


def desk_fiber(run: Run, seed: int, seconds: float, work_dir: str) -> float:
    from pastnet.harness import run_experiment

    out_dir = os.path.join(work_dir, "results")
    mask_seeds = [seed * DESK_EXPERIMENTS + j for j in range(DESK_EXPERIMENTS)]
    setup_s, setups = _median_setup(lambda: [_desk_plan(m, out_dir) for m in mask_seeds])
    plans = setups[-1]
    scores: dict[int, dict] = {}

    def one_round(index: int) -> None:
        j = index % DESK_EXPERIMENTS
        run.attempted += 1
        try:
            run_experiment(plans[j])
        except Exception as exc:  # noqa: BLE001 - count the operation as failed
            run.failed += 1
            run.failures.append(f"run_experiment raised {exc!r}")
            return
        with open(os.path.join(out_dir, "results.json")) as fh:
            payload = json.load(fh)
        run.check(checks.check_harness_results(payload, DESK_METHODS))
        scores.setdefault(j, {(r["method"], r["setting"]): r["rmse"] for r in payload["results"]})

    _measure(run, seconds, one_round, min_rounds=DESK_EXPERIMENTS)
    # references after the measured phase, so that setup_s is the program's
    past, interp = [], []
    for j in sorted(scores):
        refs = _desk_references(plans[j])
        for setting in ("offline", "online"):
            if ("linear", setting) in scores[j]:
                run.check(checks.check_linear_cell(scores[j][("linear", setting)], refs[setting]))
        past.append(scores[j].get(("past", "online"), float("nan")))
        interp.append(refs["online"])
    run.info.update(mask_seeds=mask_seeds, past_online_rmse=past, interp_online_rmse=interp,
                    past_vs_interp=[p / i for p, i in zip(past, interp)])
    if len(past) == DESK_EXPERIMENTS:
        run.hidden_rmse = statistics.median(past)
        run.check(checks.check_below(
            "median past online", run.hidden_rmse,
            f"{DESK_PAST_VS_INTERP} x median np.interp",
            DESK_PAST_VS_INTERP * statistics.median(interp)))
    return setup_s


# ---- span_impute ----


def _span_setup(run: Run, seed: int, work_dir: str, index: int) -> dict:
    """Train and save the model in a child process, then load it here."""
    from pastnet.checkpoint import load_checkpoint

    out_dir = os.path.join(work_dir, f"setup{index}")
    os.makedirs(out_dir)
    record = os.path.join(out_dir, "record.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "span_child.py"), "--seed", str(seed),
           "--out-dir", out_dir, "--record", record]
    if run.tracer.full:
        cmd.append("--trace")
        if index == 0:
            cmd.append("--probe")
    subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S)
    with open(record) as fh:
        run.tracer.merge(json.load(fh))
    ckpt = os.path.join(out_dir, "model.ckpt")
    with np.load(os.path.join(out_dir, "span.npz")) as z:
        span = {k: z[k] for k in z.files}
    with open(ckpt, "rb") as fh:
        span["ckpt_bytes"] = fh.read()
    span["model"] = load_checkpoint(ckpt)
    return span


def span_impute(run: Run, seed: int, seconds: float, work_dir: str) -> float:
    import pastnet.model as model_mod

    count = iter(range(SETUP_REPEATS))
    setup_s, setups = _median_setup(lambda: _span_setup(run, seed, work_dir, next(count)))
    if any(x["ckpt_bytes"] != setups[0]["ckpt_bytes"] for x in setups[1:]):
        run.failures.append("identical set-ups wrote different checkpoints")
    s = setups[-1]
    truth, masks = s["truth"], s["masks"]
    inputs = [(truth * m, m, s["week"], s["hour"], s["bucket"]) for m in masks]
    outputs: dict[int, np.ndarray] = {}

    def one_round(index: int) -> None:
        j = index % len(masks)
        run.attempted += 1
        try:
            out = model_mod.impute_span(s["model"], *inputs[j])
        except Exception as exc:  # noqa: BLE001 - count the operation as failed
            run.failed += 1
            run.failures.append(f"impute_span raised {exc!r}")
            return
        if j not in outputs:
            outputs[j] = out
        elif not np.array_equal(out, outputs[j]):
            run.failures.append(f"impute_span output differs between identical calls (mask {j})")

    # one round per mask at least, so that every mask is scored
    _measure(run, seconds, one_round, min_rounds=len(masks))
    if len(outputs) < len(masks):
        return float("nan")
    for j, (values, mask, *_) in enumerate(inputs):
        run.check(checks.check_imputed_span(outputs[j], values, mask))
    # scored over the hidden entries of every mask together
    preds = np.stack([outputs[j] for j in range(len(masks))])
    filled = np.stack([checks.interp_fill(values, mask) for values, mask, *_ in inputs])
    truths = np.broadcast_to(truth, preds.shape)
    hidden = masks == 0.0
    hidden_rmse = checks.rmse(preds, truths, hidden)
    interp = checks.rmse(filled, truths, hidden)
    run.check(checks.check_below("span", hidden_rmse, "np.interp", interp))
    run.info.update(span_rmse=hidden_rmse, interp_rmse=interp, span_vs_interp=hidden_rmse / interp,
                    mask_vs_interp=[checks.rmse(preds[j], truth, hidden[j])
                                    / checks.rmse(filled[j], truth, hidden[j])
                                    for j in range(len(masks))])
    run.hidden_rmse = hidden_rmse
    return setup_s


# ---- cli_defaults ----


def _cli_commands(seed: int, d: str) -> list[tuple[str, list[str]]]:
    values, graph = os.path.join(d, "values.csv"), os.path.join(d, "graph.json")
    mask, ckpt = os.path.join(d, "mask.csv"), os.path.join(d, "model.ckpt")
    imputed = os.path.join(d, "imputed.csv")
    data_args = ["--values", values, "--graph", graph, "--mask", mask]
    return [
        ("synth", ["synth", "--nodes", str(CLI_NODES), "--days", str(CLI_DAYS),
                   "--seed", str(seed), "--out-dir", d]),
        ("mask", ["mask", "--values", values, "--graph", graph, "--kind", "fiber",
                  "--rate", "0.4", "--length", "32", "--seed", str(seed * 1000 + 1),
                  "--out", mask]),
        ("train", ["train", *data_args, "--out", ckpt, "--epochs", str(CLI_EPOCHS),
                   "--seed", str(seed)]),
        ("impute", ["impute", "--checkpoint", ckpt, *data_args, "--out", imputed]),
        ("evaluate", ["evaluate", "--pred", imputed, "--truth", values, "--mask", mask]),
    ]


def cli_defaults(run: Run, seed: int, seconds: float, work_dir: str) -> float:
    t0 = cpu_seconds()
    d = os.path.join(work_dir, "cli")
    os.makedirs(d, exist_ok=True)
    commands = _cli_commands(seed, d)
    child = os.path.join(BENCH_DIR, "cli_child.py")
    record = os.path.join(work_dir, "record.json")
    setup_s = cpu_seconds() - t0
    imputed_first: list[np.ndarray] = []
    rmses: list[float] = []

    def one_round(index: int) -> None:
        codes, stdout = {}, {}
        for name, argv in commands:
            run.attempted += 1
            cmd = [sys.executable, child, "--record", record]
            if run.tracer.full:
                cmd.append("--trace")
                if index == 0:
                    cmd.append("--probe")
            try:
                proc = subprocess.run([*cmd, "--", *argv], capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                codes[name] = -1
            else:
                codes[name] = proc.returncode
                stdout[name] = proc.stdout
                if proc.returncode == 0:
                    with open(record) as fh:
                        run.tracer.merge(json.load(fh))
            if codes[name] != 0:
                run.failed += 1
        run.check(checks.check_exit_codes(codes))
        if any(code != 0 for code in codes.values()):
            return
        values = checks.read_csv_grid(os.path.join(d, "values.csv"))
        mask = checks.read_csv_grid(os.path.join(d, "mask.csv"))
        imputed = checks.read_csv_grid(os.path.join(d, "imputed.csv"))
        own = checks.rmse(imputed, values, mask == 0.0)
        printed, decimals = checks.parse_printed_rmse(stdout["evaluate"])
        run.check(checks.check_observed_passthrough(imputed, values, mask))
        run.check(checks.check_printed_rmse(printed, decimals, own))
        if not imputed_first:
            imputed_first.append(imputed)
        elif not np.array_equal(imputed, imputed_first[0]):
            run.failures.append("imputed CSV differs between identical rounds")
        # in units of the observed values' standard deviation: the scale of
        # a synthesized series differs about threefold between seeds
        rmses.append(own / float(np.std(values[mask == 1.0])))
        run.info.update(raw_rmse=own, printed_rmse=printed)

    # two rounds: one round's single impute_span is too short a sample
    _measure(run, seconds, one_round, min_rounds=2)
    run.hidden_rmse = rmses[0] if rmses else float("nan")
    return setup_s


WORKLOADS = {"desk_fiber": desk_fiber, "span_impute": span_impute, "cli_defaults": cli_defaults}


# ---- environment ----


def _blas_runtime() -> dict:
    """Thread count and build string of the OpenBLAS numpy loaded, if any."""
    info = {"blas_threads": None, "blas_config": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["blas_threads"] = threads()
                    info["blas_config"] = config().decode()
                    return info
    return info


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import pastnet

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **_blas_runtime(),
        "pinned_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_")},
        "pastnet": pastnet.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    tracer = Tracer(full=bool(args.trace), probe=True)
    tracer.install()
    run = Run(tracer)
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    started = time.process_time()  # interpreter start, imports, wrappers
    try:
        setup_s = started + WORKLOADS[args.workload](run, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # cli_defaults runs the program in child processes; the others in this one
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_defaults" else resource.RUSAGE_SELF
    kib = resource.getrusage(who).ru_maxrss
    run_s = statistics.median(run.rounds)
    if args.trace:
        metrics = {**tracer.per_layer(), "trace.run_s": (run_s, "s")}
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "train_windows_per_s": (tracer.rate("model.train"), "windows/s"),
            "impute_cells_per_s": (tracer.rate("model.impute_span"), "cells/s"),
            "hidden_rmse": (run.hidden_rmse, "score"),
            "peak_rss_mib": (kib / 1024.0, "MiB"),
        }
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": run.failures,
        "rounds": len(run.rounds),
        "info": run.info,
        "env": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
