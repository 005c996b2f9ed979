"""End-to-end acceptance checks, one per release gate.

Each test prints a single [PASS]/[FAIL] line on the real stdout so the
gate status is visible even under pytest's capture, then asserts.
"""
import dataclasses
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kernel_check import _batch_interval_dropout, build_temporal_adjacency
from pastnet.data import WindowBatch, build_spatial_adjacency, synthesize_dataset
from pastnet.gim import GimModule, build_spatial_operator, dropout_beta
from pastnet.cgm import CgmModule, cross_gate_layer
from pastnet.harness import load_plan, run_experiment
from pastnet.masking import ScenarioConfig, generate_mask
from pastnet.model import ModelConfig, PastModel, TrainConfig, train
from pastnet.numcore import ParamStore, constant, grad_check
from pastnet.checkpoint import load_checkpoint, save_checkpoint

REPO = Path(__file__).resolve().parent.parent

_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    # lets report() lift pytest's capture so the verdict lines always
    # reach the terminal, -s or not
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f"  ({detail})"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def ring(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def calendar(rng, B, L):
    return (
        rng.integers(0, 7, size=(B, L)),
        rng.integers(0, 24, size=(B, L)),
        rng.integers(0, 4, size=(B, L)),
    )


def test_criterion_1_full_objective_gradients():
    """Analytic gradients of the dual loss match finite differences."""
    t0 = time.perf_counter()
    cfg = ModelConfig(L=8, N=4, d=8, n=2, K=1, p_dropout=0.0, seed=11)
    model = PastModel.build(cfg, adjacency=ring(4))
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 8, 4))
    m = (rng.random((2, 8, 4)) < 0.7).astype(float)
    week, hour, bucket = calendar(rng, 2, 8)

    def loss_fn(_params):
        total, _, _ = model.objective(x, m, week, hour, bucket, sever=False)
        return total

    worst = grad_check(loss_fn, model.params, probe_eps=1e-5)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, "full-objective gradient check", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_dropout_calibration():
    """Mean drop rate equals p analytically; per-edge rate holds in Monte Carlo."""
    p, L = 0.1, 96
    oks, details = [], []
    for alpha in (0.0, 0.1):
        beta = dropout_beta(alpha, p, L)
        idx = np.arange(L)
        prob = np.minimum(1.0, np.exp(-alpha * np.abs(idx[:, None] - idx[None, :]) + beta))
        mean_err = abs(prob.mean() - p)

        # one eligible edge: target slot 10 missing, source slot 13 observed
        col = np.ones(L)
        col[10] = 0.0
        target = min(1.0, np.exp(-alpha * 3 + beta))
        adj = build_temporal_adjacency(col)
        rng = np.random.default_rng(20_000 + int(alpha * 10))
        trials, dropped, chunk = 100_000, 0, 2_000
        for _ in range(trials // chunk):
            cols = np.broadcast_to(col, (chunk, L))
            out = _batch_interval_dropout(
                np.broadcast_to(adj, (chunk, L + 1, L + 1)), cols, alpha, beta, rng
            )
            dropped += int((out[:, 10, 13] == 0.0).sum())
        freq = dropped / trials
        oks.append(mean_err < 1e-9 and abs(freq - target) < 0.005)
        details.append(f"a={alpha}: mean err {mean_err:.1e}, mc {freq:.4f} vs {target:.4f}")
    report(2, "interval dropout calibration", all(oks), "; ".join(details))


def test_criterion_3_temporal_adjacency_rule():
    """Generated graphs match exhaustive enumeration of the wiring rule."""
    ok = True
    for L in range(1, 7):
        for bits in range(2**L):
            col = np.array([(bits >> j) & 1 for j in range(L)], dtype=float)
            ref = np.zeros((L + 1, L + 1))
            for i in range(L):
                for j in range(L):
                    if i != j and col[j] == 1.0:
                        ref[i, j] = 1.0
                ref[i, L] = 1.0
            ok = ok and np.array_equal(build_temporal_adjacency(col), ref)
    report(3, "temporal adjacency vs exhaustive rule", ok, "L=1..6, all mask columns")


def test_criterion_4_spatial_operator_normalization():
    """Normalized adjacency powers agree with dense brute force."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        op = build_spatial_operator(a, K=2)
        for k in range(3):
            m = np.linalg.matrix_power(a, k)
            d = np.sqrt(m.sum(axis=1) + 1e-6)
            ref = m / d[:, None] / d[None, :]
            worst = max(worst, float(np.abs(op.normalized_powers[k] - ref).max()))
    ok = worst < 1e-10
    report(4, "spatial operator normalization", ok, f"max dev {worst:.1e} over 50 graphs")


def test_criterion_5_observed_passthrough():
    """Fused imputation returns observed entries bit-identically."""
    cfg = ModelConfig(L=12, N=5, d=4, n=1, K=1, seed=5)
    adjacency = ring(5)
    model = PastModel.build(cfg, adjacency=adjacency)
    rng = np.random.default_rng(55)
    ok, checked = True, 0
    for i in range(1000):
        kind = ("random", "fiber", "block")[i % 3]
        sc = ScenarioConfig(
            kind,
            r=float(rng.uniform(0.1, 0.6)),
            l=int(rng.integers(1, 13)) if kind != "random" else None,
            s=int(rng.integers(1, 4)) if kind == "block" else None,
            seed=int(i),
        )
        m = generate_mask((12, 5), sc, adjacency=adjacency)
        x = rng.normal(size=(12, 5))
        week, hour, bucket = calendar(rng, 1, 12)
        pred = model.impute((x * m)[None], m[None], week, hour, bucket)[0]
        sel = m == 1.0
        ok = ok and np.array_equal(pred[sel], x[sel])
        checked += int(sel.sum())
    report(5, "observed passthrough", ok, f"1000 instances, {checked} observed entries")


def test_criterion_6_gradient_partition():
    """Each loss moves only its own branch: the other stays bit-identical."""
    rng = np.random.default_rng(6)
    ds = synthesize_dataset(4, 2, seed=6)
    adjacency = build_spatial_adjacency(ds.n_nodes, ds.edges)
    oks = []
    for weights, frozen_prefix in (((1.0, 0.0), "cgm/"), ((0.0, 1.0), "gim/")):
        cfg = ModelConfig(L=8, N=4, d=8, n=2, K=1, seed=61)
        model = PastModel.build(cfg, adjacency=adjacency)
        before = {
            p: t.data.copy() for p, t in model.params.items() if p.startswith(frozen_prefix)
        }
        x = rng.normal(size=(4, 8, 4))
        m = (rng.random((4, 8, 4)) < 0.7).astype(float)
        week, hour, bucket = calendar(rng, 4, 8)
        windows = WindowBatch(x, m, week, hour, bucket, np.arange(4))
        tcfg = TrainConfig(
            lr=1e-2, batch_size=4, epochs=10, seed=61, loss_weights=weights,
            early_stop_patience=10,
        )
        model, _ = train(model, windows, tcfg)
        oks.append(
            all(np.array_equal(model.params[p].data, v) for p, v in before.items())
        )
    ok = all(oks)
    report(6, "gradient partition between branches", ok, "10 seeded steps each direction")


def test_criterion_7_cross_gate_identity_and_size():
    """Zero-weight gating is an exact identity; one layer holds 4d^2 weights."""
    rng = np.random.default_rng(7)
    d = 6
    v_s = constant(rng.normal(size=(3, 4, d)))
    v_t = constant(rng.normal(size=(3, 4, d)))
    zero = constant(np.zeros((d, d)))
    out_s, out_t = cross_gate_layer(v_s, v_t, zero, zero, zero, zero)
    identity_ok = np.array_equal(out_s.data, v_s.data) and np.array_equal(out_t.data, v_t.data)

    params = ParamStore(seed=7)
    CgmModule.build(params, ModelConfig(L=1, N=5, d=d, n=3))
    count_ok = True
    for i in range(3):
        gates = sum(
            params[f"cgm/layer{i}/{name}"].data.size
            for name in ("W_sp", "W_tp", "W_sg", "W_tg")
        )
        count_ok = count_ok and gates == 4 * d * d
    ok = identity_ok and count_ok
    report(7, "cross-gate identity and parameter count", ok, f"4d^2 = {4 * d * d} per layer")


def test_criterion_8_desk_scale_directional(tmp_path):
    """Bundled desk plan reproduces the expected method orderings."""
    t0 = time.perf_counter()
    plan = load_plan(str(REPO / "plans" / "desk_plan.json"))
    plan = dataclasses.replace(plan, output_dir=str(tmp_path / "desk"), dump_series=False)
    results = run_experiment(plan)
    elapsed = time.perf_counter() - t0

    def rmse(kind, method, setting="online"):
        for r in results:
            if r.scenario.kind == kind and r.method == method and r.setting == setting:
                return r.rmse
        raise AssertionError(f"missing cell {kind}/{method}/{setting}")

    a_fiber = rmse("fiber", "past") < 0.9 * rmse("fiber", "linear")
    a_block = rmse("block", "past") < 0.9 * rmse("block", "linear")
    b_fiber = rmse("fiber", "past") < rmse("fiber", "past_wo_cgm")
    c_ratio = abs(rmse("random", "past_wo_cgm") - rmse("random", "past")) <= 0.25 * rmse(
        "random", "past"
    )
    d_random = rmse("random", "past_wo_gim") > rmse("random", "past")
    in_budget = elapsed < 1800.0
    ok = a_fiber and a_block and b_fiber and c_ratio and d_random and in_budget
    detail = (
        f"fiber {rmse('fiber', 'past'):.3f}/{rmse('fiber', 'linear'):.3f}, "
        f"block {rmse('block', 'past'):.3f}/{rmse('block', 'linear'):.3f}, "
        f"wo_cgm ratio {rmse('random', 'past_wo_cgm') / rmse('random', 'past'):.2f}, "
        f"wo_gim {rmse('random', 'past_wo_gim'):.3f}, {elapsed:.0f}s"
    )
    report(8, "desk-scale directional experiment", ok, detail)


def timed_forwards(cases, reps=5):
    """Median CPU seconds per forward for each (L, N); reps interleaved so
    CPU frequency or cache drift hits every configuration equally.  Process
    time, not wall time, so steal time and other processes' load on a
    shared host stay out of the ratios."""
    runs = []
    for L, N in cases:
        op = build_spatial_operator(ring(N), K=1)
        params = ParamStore(seed=9)
        module = GimModule.build(
            params, ModelConfig(L=L, N=N, d=32, n=2, K=1, p_dropout=0.0), op
        )
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, L, N))
        m = (rng.random((1, L, N)) < 0.5).astype(float)
        runs.append((module, x, m))
    gc.collect()
    times = [[] for _ in cases]
    for _ in range(reps):
        for slot, (module, x, m) in zip(times, runs):
            module.forward(x, m, None)  # prime caches for this working set
            t0 = time.process_time()
            module.forward(x, m, None)
            slot.append(time.process_time() - t0)
    return [float(np.median(t)) for t in times]


def timed_forwards_in_child(cases, reps=5):
    """timed_forwards in a fresh interpreter with one BLAS thread and a
    fixed mmap threshold, so the ratios measure the forward's cost and not
    the heap state or BLAS threads that earlier tests leave behind."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_="131072")
    paths = [str(REPO / "src"), str(REPO / "tests"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    code = (
        "import json; from test_acceptance import timed_forwards; "
        f"print(json.dumps(timed_forwards({cases!r}, reps={reps})))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(child.stdout.splitlines()[-1])


def test_criterion_9_forward_cost_scaling():
    """Doubling nodes scales cost linearly; doubling window superlinearly."""
    base, twice_n, twice_l = timed_forwards_in_child([(512, 8), (512, 16), (1024, 8)])
    n_factor = twice_n / base
    l_factor = twice_l / base
    ok = 1.5 <= n_factor <= 2.5 and l_factor >= 3.0
    report(9, "forward cost scaling", ok, f"N x2 -> {n_factor:.2f}, L x2 -> {l_factor:.2f}")


def test_criterion_10_determinism_and_persistence(tmp_path):
    """Same seed, same bits; checkpoints restore the exact model."""
    ds = synthesize_dataset(5, 3, seed=10)
    adjacency = build_spatial_adjacency(ds.n_nodes, ds.edges)
    mask = generate_mask(ds.values.shape, ScenarioConfig("random", 0.3, seed=10))
    rng = np.random.default_rng(10)

    def run():
        cfg = ModelConfig(L=16, N=5, d=8, n=2, K=1, seed=101)
        model = PastModel.build(cfg, adjacency=adjacency)
        starts = np.arange(0, 96, 16)
        week, hour, bucket = calendar(np.random.default_rng(42), len(starts), 16)
        windows = WindowBatch(
            np.stack([(ds.values * mask)[lo : lo + 16] for lo in starts]),
            np.stack([mask[lo : lo + 16] for lo in starts]),
            week,
            hour,
            bucket,
            starts,
        )
        model, hist = train(
            model, windows, TrainConfig(lr=1e-3, batch_size=4, epochs=3, seed=101)
        )
        week, hour, bucket = calendar(np.random.default_rng(3), 1, 16)
        pred = model.impute((ds.values * mask)[None, :16], mask[None, :16], week, hour, bucket)[0]
        return model, hist, pred

    model_a, hist_a, pred_a = run()
    model_b, hist_b, pred_b = run()
    same_hist = hist_a.loss1 == hist_b.loss1 and hist_a.loss2 == hist_b.loss2
    same_pred = np.array_equal(pred_a, pred_b)

    path = tmp_path / "model.ckpt"
    save_checkpoint(model_a, str(path))
    loaded = load_checkpoint(str(path))
    same_params = all(
        np.array_equal(loaded.params[p].data, t.data) for p, t in model_a.params.items()
    )
    week, hour, bucket = calendar(np.random.default_rng(3), 1, 16)
    pred_l = loaded.impute((ds.values * mask)[None, :16], mask[None, :16], week, hour, bucket)[0]
    roundtrip = np.array_equal(pred_l, pred_a)
    ok = same_hist and same_pred and same_params and roundtrip
    report(10, "determinism and persistence", ok, "bitwise history, imputation, checkpoint")
