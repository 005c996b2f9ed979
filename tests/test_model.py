import contextlib
import json
import os
import struct
import subprocess
import sys
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

import pastnet.model as model_module
from kernel_check import param_arrays, poison_returned_buffers, pool_buffers
from pastnet import checkpoint
from pastnet.checkpoint import load_checkpoint, save_checkpoint
from pastnet.data import WindowBatch, synthesize_dataset, window_split
from pastnet.masking import ScenarioConfig, generate_mask
from pastnet.model import (
    ModelConfig,
    PastModel,
    TrainConfig,
    compute_losses,
    fuse,
    impute_span,
    train,
)
from pastnet.numcore import (
    AdamState,
    Tensor,
    adam_step,
    constant,
    grad_check,
    masked_mse,
    no_grad,
)
from pastnet.numcore import tensor
from pastnet.numcore.tensor import ScratchPool, _pool

ROOT = Path(__file__).resolve().parent.parent


def ring_adjacency(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def tiny_config(**kw):
    base = dict(L=12, N=4, d=8, n=2, K=1, p_dropout=0.1, seed=3)
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(**kw):
    cfg = tiny_config(**kw)
    return PastModel.build(cfg, adjacency=ring_adjacency(cfg.N))


def random_window_inputs(cfg, batch=2, seed=0, rate=0.3):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(batch, cfg.L, cfg.N))
    masks = (rng.random((batch, cfg.L, cfg.N)) >= rate).astype(np.float64)
    masks[:, 0, 0] = 1.0  # keep the mask non-empty
    week = rng.integers(0, 7, size=(batch, cfg.L))
    hour = rng.integers(0, 24, size=(batch, cfg.L))
    bucket = rng.integers(0, 4, size=(batch, cfg.L))
    return values, masks, week, hour, bucket


def training_windows(L=12, n_nodes=4, n_days=2, rate=0.3, seed=0):
    ds = synthesize_dataset(n_nodes, n_days, seed=seed)
    mask = generate_mask(ds.values.shape, ScenarioConfig("random", rate, seed=seed))
    train_w, eval_w = window_split(ds, L=L, stride=L, train_fraction=0.75, mask=mask)
    return ds, train_w, eval_w


# ---- fuse ----


def test_fuse_hand_case():
    # row by row: observed 1 passes through; missing slot gets the branch sum 3 + 4 = 7
    out = fuse([1.0, 2.0], [1.0, 0.0], np.add([9.0, 3.0], [9.0, 4.0]))
    assert out.tolist() == [1.0, 7.0]


def test_fuse_observed_passthrough_bitwise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 5)) * 1e3
    m = (rng.random((6, 5)) < 0.5).astype(float)
    out = fuse(x, m, rng.normal(size=(6, 5)) + rng.normal(size=(6, 5)))
    assert np.array_equal(out[m == 1.0], x[m == 1.0])


def test_fuse_observed_passes_through_non_finite_branches():
    m = np.array([1.0, 1.0, 0.0, 1.0])
    x = np.array([1.5, -2.0, 0.0, 3.0])
    out = fuse(x, m, np.array([np.nan, np.inf, 1.0, -np.inf]) + np.array([0.0, 1.0, 2.0, np.nan]))
    assert np.array_equal(out, [1.5, -2.0, 3.0, 3.0])


def test_fuse_validation():
    with pytest.raises(ValueError, match="shape"):
        fuse(np.zeros(3), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="0 or 1"):
        fuse(np.zeros(3), np.full(3, 0.5), np.zeros(3))


# ---- dual losses ----


def test_compute_losses_hand_case():
    # x=2 observed, y_gim=1: loss1 = (1-2)^2 = 1; residual 2-1 = 1, y_cgm=0
    # sits 1 away so loss2 = 1
    x, m = np.array([2.0]), np.array([1.0])
    l1, l2 = compute_losses(x, m, constant(np.array([1.0])), constant(np.array([0.0])))
    assert float(l1.data) == 1.0
    assert float(l2.data) == 1.0


def test_compute_losses_sign_convention():
    # residual x - y_gim = 2-1 = 1: loss2 = (0.5-1)^2 = 0.25
    x, m = np.array([2.0]), np.array([1.0])
    y_gim, y_cgm = constant(np.array([1.0])), constant(np.array([0.5]))
    assert float(compute_losses(x, m, y_gim, y_cgm)[1].data) == 0.25


def test_compute_losses_absent_branch_has_no_loss():
    # the hidden second entry is never read; y sits 1 away from x=2
    x, m = np.array([2.0, 5.0]), np.array([1.0, 0.0])
    y = constant(np.array([1.0, 0.0]))
    l1, l2 = compute_losses(x, m, y, None)
    assert float(l1.data) == 1.0 and l2 is None
    # without gim, loss2's target is x itself
    l1, l2 = compute_losses(x, m, None, y)
    assert l1 is None and float(l2.data) == 1.0


def test_loss2_gradient_stops_at_residual():
    x = np.array([2.0, 4.0])
    m = np.ones(2)
    for sever, expect_zero in ((True, True), (False, False)):
        theta = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        y_gim = theta * 3.0
        y_cgm = constant(np.array([0.5, 0.5]))
        _, l2 = compute_losses(x, m, y_gim, y_cgm, sever_residual=sever)
        l2.backward()
        got_zero = theta.grad is None or np.all(theta.grad == 0.0)
        assert got_zero == expect_zero


def test_loss1_unaffected_by_severing():
    x = np.array([2.0])
    theta = Tensor(np.array([1.0]), requires_grad=True)
    l1, _ = compute_losses(x, np.ones(1), theta * 3.0, constant(np.zeros(1)))
    l1.backward()
    # d/dtheta (3t - 2)^2 = 2(3t-2)*3 = 6 at t=1
    assert np.allclose(theta.grad, 6.0)


# ---- model wiring ----


def test_build_and_forward_shapes():
    model = tiny_model()
    v, m, w, h, b = random_window_inputs(model.config, batch=3)
    y_gim, y_cgm = model.forward(v, m, w, h, b)
    assert y_gim.data.shape == (3, 12, 4)
    assert y_cgm.data.shape == (3, 12, 4)


def test_config_validation():
    with pytest.raises(ValueError, match="at least one branch"):
        ModelConfig(L=4, N=2, use_gim=False, use_cgm=False)
    with pytest.raises(ValueError, match="n must be"):
        ModelConfig(L=4, N=2, n=0)
    with pytest.raises(ValueError, match="operator does not match"):
        PastModel.build(tiny_config(), adjacency=ring_adjacency(7))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("p_dropout", -0.5, "p_dropout must be in"),
        ("p_dropout", 1.0, "p_dropout must be in"),
        ("d", 0, "d must be at least 1"),
        ("alpha", -1.0, "alpha must be finite and non-negative"),
        ("alpha", np.inf, "alpha must be finite and non-negative"),
        ("d", 3, "d must be at least 4"),  # too narrow for cgm's timestamp split
        ("seed", -1, "seed must be a non-negative integer, got -1"),
    ],
)
def test_config_rejects_out_of_range_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig(L=4, N=2, **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("L", 4.0), ("N", "2"), ("d", 8.5), ("n", True), ("K", 2.0), ("seed", None)],
)
def test_config_rejects_non_integer_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ModelConfig(**{"L": 4, "N": 2, field: value})


def test_config_accepts_numpy_integers():
    cfg = ModelConfig(L=np.int64(4), N=np.int32(2), d=np.int64(8), n=np.int16(1), seed=np.int64(3))
    assert PastModel.build(cfg, adjacency=ring_adjacency(2)).cgm is not None


TRAIN_CONFIG_MESSAGES = {
    "lr": "lr, batch_size must be positive",
    "loss_weights": "loss_weights must be two finite non-negative numbers",
    "early_stop_patience": "early_stop_patience must be at least 1",
    "batch_size": "batch_size must be an integer",
    "epochs": "epochs must be an integer",
    "seed": "seed must be a non-negative integer, got -3",
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("lr", float("nan")),
        ("lr", float("inf")),
        ("lr", 0.0),
        ("lr", "0.01"),
        ("loss_weights", (1.0,)),
        ("loss_weights", (1.0, 1.0, 1.0)),
        ("loss_weights", (1.0, float("nan"))),
        ("loss_weights", (-1.0, 1.0)),
        ("loss_weights", (1.0, "1")),
        ("loss_weights", 1.0),
        ("early_stop_patience", 0),
        ("early_stop_patience", -3),
        ("batch_size", 4.5),
        ("batch_size", True),
        ("epochs", 2.0),
        ("seed", -3),
    ],
    ids=[
        "lr-nan", "lr-inf", "lr-zero", "lr-string",
        "weights-one", "weights-three", "weights-nan", "weights-negative", "weights-string",
        "weights-scalar", "patience-zero", "patience-negative",
        "batch-fractional", "batch-bool", "epochs-float", "seed-negative",
    ],
)
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=TRAIN_CONFIG_MESSAGES[field]):
        TrainConfig(**{field: value})


def test_train_config_accepts_numpy_integers_and_list_weights():
    cfg = TrainConfig(batch_size=np.int64(4), epochs=np.int32(2), loss_weights=[1, 0.5])
    assert cfg.batch_size == 4 and cfg.epochs == 2 and cfg.loss_weights == (1, 0.5)


def test_config_narrow_width_needs_no_cgm():
    cfg = ModelConfig(L=4, N=2, d=3, use_cgm=False)
    assert PastModel.build(cfg, adjacency=ring_adjacency(2)).gim.config.d == 3


def test_ablation_builds():
    wo_cgm = tiny_model(use_cgm=False)
    assert wo_cgm.cgm is None and wo_cgm.gim is not None
    assert not wo_cgm.gim.config.use_cgm  # no injection vertex without cgm
    wo_gim = tiny_model(use_gim=False)
    assert wo_gim.gim is None and wo_gim.cgm is not None
    v, m, w, h, b = random_window_inputs(tiny_config(), batch=2)
    y_gim, y_cgm = wo_cgm.forward(v, m, w, h, b)
    assert y_cgm is None and y_gim.data.shape == (2, 12, 4)
    y_gim, y_cgm = wo_gim.forward(v, m, w, h, b)
    assert y_gim is None and y_cgm.data.shape == (2, 12, 4)


def test_objective_matches_manual_losses():
    model = tiny_model()
    v, m, w, h, b = random_window_inputs(model.config)
    total, l1, l2 = model.objective(v, m, w, h, b, loss_weights=(2.0, 0.5))
    y_gim, y_cgm = model.forward(v, m, w, h, b)
    ref1 = float(masked_mse(y_gim, constant(v), m).data)
    ref2 = float(masked_mse(y_cgm, constant(v - y_gim.data), m).data)
    assert l1 == pytest.approx(ref1, rel=1e-12)
    assert l2 == pytest.approx(ref2, rel=1e-12)
    assert float(total.data) == pytest.approx(2.0 * ref1 + 0.5 * ref2, rel=1e-12)


def test_objective_cgm_only_fits_values():
    model = tiny_model(use_gim=False)
    v, m, w, h, b = random_window_inputs(model.config)
    total, l1, l2 = model.objective(v, m, w, h, b)
    _, y_cgm = model.forward(v, m, w, h, b)
    assert np.isnan(l1)
    assert l2 == pytest.approx(float(masked_mse(y_cgm, constant(v), m).data), rel=1e-12)


def masked_mse_until(returned):
    """``masked_mse``, failing if called once ``compute_losses`` has returned."""

    def guarded(*args):
        assert not returned, "masked_mse called outside compute_losses"
        return masked_mse(*args)

    return guarded


@pytest.mark.parametrize(
    "branches", [{}, {"use_cgm": False}, {"use_gim": False}], ids=["past", "wo-cgm", "wo-gim"]
)
def test_objective_weights_the_losses_of_one_compute_losses_call(branches, monkeypatch):
    model = tiny_model(**branches)
    v, m, w, h, b = random_window_inputs(model.config)
    returned = []
    real = model_module.compute_losses

    def recorded(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(model_module, "compute_losses", recorded)
    monkeypatch.setattr(model_module, "masked_mse", masked_mse_until(returned))
    total, l1, l2 = model.objective(v, m, w, h, b, loss_weights=(2.0, 0.5))
    assert len(returned) == 1
    loss1, loss2 = returned[0]
    assert (loss1 is None) == ("use_gim" in branches) and (loss2 is None) == ("use_cgm" in branches)
    raw = [np.nan if loss is None else float(loss.data) for loss in (loss1, loss2)]
    assert np.array_equal([l1, l2], raw, equal_nan=True)
    expected = sum(weight * value for weight, value in zip((2.0, 0.5), raw) if not np.isnan(value))
    assert float(total.data) == expected


# ---- gradient partition ----


def snapshot(params):
    return {p: t.data.copy() for p, t in params.items()}


def changed_paths(params, before):
    return {p for p, t in params.items() if not np.array_equal(t.data, before[p])}


def run_one_step(model, loss_weights):
    from pastnet.numcore import AdamState, adam_step

    v, m, w, h, b = random_window_inputs(model.config, seed=5)
    before = snapshot(model.params)
    total, _, _ = model.objective(
        v, m, w, h, b, loss_weights=loss_weights, training=True, rng=np.random.default_rng(0)
    )
    total.backward()
    adam = AdamState.for_params(model.params, lr=1e-3)
    adam_step(model.params, adam)
    return changed_paths(model.params, before)


def test_gradient_partition_loss1_touches_only_gim():
    # zero gradient means Adam leaves the parameter bitwise unchanged
    changed = run_one_step(tiny_model(), (1.0, 0.0))
    assert changed
    assert all(p.startswith("gim/") for p in changed)


def test_gradient_partition_loss2_touches_only_cgm():
    changed = run_one_step(tiny_model(), (0.0, 1.0))
    assert changed
    assert all(p.startswith("cgm/") for p in changed)


def test_gradient_partition_grads_exactly_zero():
    model = tiny_model()
    v, m, w, h, b = random_window_inputs(model.config, seed=5)
    total, _, _ = model.objective(v, m, w, h, b, loss_weights=(0.0, 1.0))
    total.backward()
    for p, t in model.params.items():
        if p.startswith("gim/"):
            assert np.all(t.grad == 0.0), p
    assert any(np.any(t.grad != 0.0) for p, t in model.params.items() if p.startswith("cgm/"))


def test_full_objective_moves_both_branches():
    changed = run_one_step(tiny_model(), (1.0, 1.0))
    assert any(p.startswith("gim/") for p in changed)
    assert any(p.startswith("cgm/") for p in changed)


def test_unsevered_objective_passes_grad_check():
    model = tiny_model(L=5, N=3, d=4, n=2, K=1, p_dropout=0.0)
    v, m, w, h, b = random_window_inputs(model.config, batch=1, seed=2)

    def loss_fn(_params):
        total, _, _ = model.objective(v, m, w, h, b, sever=False)
        return total

    worst = grad_check(loss_fn, model.params, n_samples=48, seed=0)
    assert worst < 1e-4


# ---- training ----


def test_train_epochs_zero_is_identity():
    model = tiny_model()
    before = snapshot(model.params)
    _, train_w, _ = training_windows()
    model, history = train(model, train_w, TrainConfig(epochs=0))
    assert history.n_epochs == 0 and history.loss1 == [] and history.loss2 == []
    assert changed_paths(model.params, before) == set()


def test_train_loss_decreases():
    _, train_w, _ = training_windows()
    model = tiny_model()
    model, history = train(model, train_w, TrainConfig(lr=1e-2, batch_size=4, epochs=8, seed=0))
    assert history.n_epochs == 8
    assert history.loss1[-1] < history.loss1[0]
    assert history.loss2[-1] < history.loss2[0]


def test_train_deterministic_across_runs():
    _, train_w, _ = training_windows()
    runs = []
    for _ in range(2):
        model, history = train(
            tiny_model(), train_w, TrainConfig(lr=1e-3, batch_size=4, epochs=3, seed=11)
        )
        runs.append((snapshot(model.params), history))
    params_a, hist_a = runs[0]
    params_b, hist_b = runs[1]
    assert hist_a.loss1 == hist_b.loss1
    assert hist_a.loss2 == hist_b.loss2
    assert all(np.array_equal(params_a[p], params_b[p]) for p in params_a)


# trains a model at N=20, d=64, n=3, large enough that OpenBLAS splits its
# GEMMs between threads, and prints the history and each parameter's digest
BLAS_CHILD = """
import hashlib, json
from pastnet.data import build_spatial_adjacency, synthesize_dataset, window_split
from pastnet.masking import ScenarioConfig, generate_mask
from pastnet.model import ModelConfig, PastModel, TrainConfig, train

ds = synthesize_dataset(20, 4, seed=0)
mask = generate_mask(ds.values.shape, ScenarioConfig("random", 0.3, seed=0))
windows, _ = window_split(ds, L=96, stride=96, train_fraction=0.75, mask=mask)
model = PastModel.build(ModelConfig(L=96, N=20, d=64, n=3, K=2, seed=0),
                        adjacency=build_spatial_adjacency(ds.n_nodes, ds.edges))
model, history = train(model, windows, TrainConfig(lr=1e-2, batch_size=2, epochs=2, seed=0))
print(json.dumps({"loss1": history.loss1, "loss2": history.loss2,
                  "params": {p: hashlib.sha256(t.data.tobytes()).hexdigest()
                             for p, t in model.params.items()}}))
"""


def test_train_gives_the_same_bits_with_one_and_two_blas_threads():
    # the tests run with OpenBLAS's default thread count and the benchmarks
    # with one thread; their figures compare only if the bits agree
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(ROOT / "src"))
        child = subprocess.run([sys.executable, "-c", BLAS_CHILD], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr[-2000:]
        runs.append(json.loads(child.stdout))
    assert len(runs[0]["loss1"]) == 2 and len(runs[0]["params"]) > 0
    assert runs[0] == runs[1]


def test_train_seed_changes_history():
    _, train_w, _ = training_windows()
    _, h0 = train(tiny_model(), train_w, TrainConfig(lr=1e-3, batch_size=4, epochs=3, seed=0))
    _, h1 = train(tiny_model(), train_w, TrainConfig(lr=1e-3, batch_size=4, epochs=3, seed=1))
    assert h0.loss1 != h1.loss1


def test_train_divergence_abort_names_position():
    _, train_w, _ = training_windows()
    model = tiny_model()
    model.params["gim/head/b"].data[:] = np.nan
    with pytest.raises(RuntimeError, match="diverged at epoch 0 batch 0"):
        train(model, train_w, TrainConfig(epochs=1))


@pytest.mark.parametrize("observed", [True, False], ids=["observed", "hidden"])
def test_train_rejects_a_non_finite_value_before_the_first_step(observed):
    # a hidden NaN too: the masked losses weight it by 0, and 0 * NaN is NaN
    _, train_w, _ = training_windows()
    values, masks = train_w.values.copy(), train_w.masks.copy()
    values[1, 3, 2] = np.nan
    masks[1, 3, 2] = 1.0 if observed else 0.0
    values[2, 0, 0] = np.inf  # a later window
    windows = type(train_w)(values, masks, train_w.week, train_w.hour, train_w.minute_bucket,
                            train_w.starts)
    model = tiny_model()
    before = snapshot(model.params)
    with pytest.raises(ValueError, match=r"window 1 holds a non-finite value at step 3, node 2"):
        train(model, windows, TrainConfig(epochs=1))
    assert not changed_paths(model.params, before)


def test_train_skips_a_batch_with_no_observed_entry(monkeypatch):
    # one window per batch, two of them wholly hidden: those batches run no
    # forward pass (so draw no dropout), take no Adam step and have no
    # share in the epoch's mean loss
    _, train_w, _ = training_windows()
    masks = train_w.masks.copy()
    masks[[1, 4]] = 0.0
    windows = type(train_w)(train_w.values, masks, train_w.week, train_w.hour,
                            train_w.minute_bucket, train_w.starts)
    model = tiny_model()
    losses, steps = [], []
    real_objective, real_adam_step = model.objective, model_module.adam_step

    def objective(values, batch_masks, *args, **kwargs):
        assert batch_masks.any()
        total, l1, l2 = real_objective(values, batch_masks, *args, **kwargs)
        losses.append(l1)
        return total, l1, l2

    monkeypatch.setattr(model, "objective", objective)
    monkeypatch.setattr(model_module, "adam_step", lambda *a: steps.append(real_adam_step(*a)))
    epochs, kept = 2, len(windows) - 2
    _, history = train(model, windows, TrainConfig(lr=1e-3, batch_size=1, epochs=epochs))
    assert len(losses) == len(steps) == epochs * kept
    for e in range(epochs):
        assert history.loss1[e] == sum(losses[e * kept : (e + 1) * kept]) / kept


def test_train_rejects_windows_with_no_observed_entry_before_the_first_step():
    _, train_w, _ = training_windows()
    windows = type(train_w)(train_w.values, np.zeros_like(train_w.masks), train_w.week,
                            train_w.hour, train_w.minute_bucket, train_w.starts)
    model = tiny_model()
    before = snapshot(model.params)
    with pytest.raises(ValueError, match="no training window holds an observed entry"):
        train(model, windows, TrainConfig(epochs=1))
    assert not changed_paths(model.params, before)


def test_train_early_stop_on_plateau():
    # zero loss weights freeze the parameters and dropout is off, so the loss
    # cannot improve after epoch 0; duplicating one window makes every batch
    # bit-identical under any shuffle, so the plateau holds exactly
    _, train_w, _ = training_windows()
    rep = type(train_w)(
        values=np.repeat(train_w.values[:1], 8, axis=0),
        masks=np.repeat(train_w.masks[:1], 8, axis=0),
        week=np.repeat(train_w.week[:1], 8, axis=0),
        hour=np.repeat(train_w.hour[:1], 8, axis=0),
        minute_bucket=np.repeat(train_w.minute_bucket[:1], 8, axis=0),
        starts=np.repeat(train_w.starts[:1], 8, axis=0),
    )
    model = tiny_model(p_dropout=0.0)
    _, history = train(
        model,
        rep,
        TrainConfig(epochs=50, batch_size=4, loss_weights=(0.0, 0.0), early_stop_patience=3),
    )
    assert history.n_epochs == 4
    assert history.loss1[1:] == [history.loss1[0]] * 3


def test_train_rejects_empty_batch():
    _, train_w, _ = training_windows()
    empty = type(train_w)(
        values=train_w.values[:0],
        masks=train_w.masks[:0],
        week=train_w.week[:0],
        hour=train_w.hour[:0],
        minute_bucket=train_w.minute_bucket[:0],
        starts=train_w.starts[:0],
    )
    with pytest.raises(ValueError, match="empty"):
        train(tiny_model(), empty, TrainConfig())


def hand_trained(model, windows, cfg):
    """train()'s loop written out, with its rngs, outside any pool; the history."""
    adam = AdamState.for_params(model.params, lr=cfg.lr)
    dropout_rng = np.random.default_rng([cfg.seed, 0xD120])
    loss1, loss2 = [], []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(windows))
        sums, batches = np.zeros(2), 0
        for lo in range(0, len(order), cfg.batch_size):
            assert _pool.get() is None
            idx = order[lo : lo + cfg.batch_size]
            total, l1, l2 = model.objective(
                windows.values[idx], windows.masks[idx], windows.week[idx], windows.hour[idx],
                windows.minute_bucket[idx], loss_weights=cfg.loss_weights, training=True,
                rng=dropout_rng,
            )
            total.backward()
            adam_step(model.params, adam)
            sums += (l1, l2)
            batches += 1
        loss1.append(sums[0] / batches)
        loss2.append(sums[1] / batches)
    return loss1, loss2


@pytest.mark.parametrize(
    "model_kw, data_kw",
    [
        (dict(L=96, N=20, d=32, n=2, K=2, seed=9), dict(n_days=8)),
        (dict(L=24, N=4, d=64, n=3, K=2, seed=2), dict(n_days=2)),
    ],
    ids=["desk-size", "cli-width"],
)
def test_train_matches_a_hand_written_loop_outside_any_pool(model_kw, data_kw):
    # the pool train() holds hands every step the previous step's buffers; the
    # history and the trained parameter bytes must be those of fresh arrays
    config = ModelConfig(p_dropout=0.1, **model_kw)
    _, windows, _ = training_windows(L=config.L, n_nodes=config.N, rate=0.4, **data_kw)
    assert len(windows) % 4 == 2  # every epoch ends with a partial batch of 2
    cfg = TrainConfig(lr=1e-2, batch_size=4, epochs=2, early_stop_patience=2, seed=5)
    adjacency = ring_adjacency(config.N)
    trained, history = train(PastModel.build(config, adjacency=adjacency), windows, cfg)
    by_hand = PastModel.build(config, adjacency=adjacency)
    assert (history.loss1, history.loss2) == hand_trained(by_hand, windows, cfg)
    a, b = param_arrays(trained.params), param_arrays(by_hand.params)
    assert list(a) == list(b) and all(a[p].tobytes() == b[p].tobytes() for p in a)


def test_train_steady_step_adds_no_buffer_to_its_pool(monkeypatch):
    # one batch of four desk-size windows, so every step has the same shapes
    config = ModelConfig(L=96, N=20, d=32, n=2, K=2, p_dropout=0.1, seed=9)
    _, windows, _ = training_windows(L=96, n_nodes=20, rate=0.4, n_days=8)
    four = WindowBatch(
        *(a[:4] for a in (windows.values, windows.masks, windows.week, windows.hour,
                          windows.minute_bucket, windows.starts))
    )
    handed, steps = [], []
    real_take = ScratchPool.take

    def take_and_note(pool, shape, dtype=np.float64):
        view = real_take(pool, shape, dtype)
        handed.append(view.base)
        return view

    def step_and_look(params, state):
        adam_step(params, state)
        pool = _pool.get()
        steps.append((pool_buffers(pool), list(handed), list(pool.idle), pool.viewed))
        handed.clear()

    monkeypatch.setattr(ScratchPool, "take", take_and_note)
    monkeypatch.setattr(model_module, "adam_step", step_and_look)
    train(PastModel.build(config, adjacency=ring_adjacency(config.N)), four,
          TrainConfig(lr=1e-2, batch_size=4, epochs=2, early_stop_patience=2, seed=5))
    (warm, _, _, _), (steady, taken, idle, viewed) = steps
    assert len(steady) == len(warm) and all(any(b is a for a in warm) for b in steady)
    # the step drew from the arena and every buffer it took is idle again
    assert taken and not viewed
    assert all(any(flat is b for b in idle) for flat in taken)


def test_train_keeps_neither_the_temporal_adjacency_nor_the_spatial_aggregations(monkeypatch):
    # the CLI's model and batch on three nodes: the VJPs rebuild both arrays,
    # so no step buffer is the size of either
    config = ModelConfig(L=96, N=3)
    _, windows, _ = training_windows(L=96, n_nodes=3, rate=0.4, n_days=43)
    assert len(windows.values) == 32
    held = []

    def step_and_look(params, state):
        adam_step(params, state)
        held.extend(flat.nbytes for flat in _pool.get().steps)

    monkeypatch.setattr(model_module, "adam_step", step_and_look)
    train(PastModel.build(config, adjacency=ring_adjacency(3)), windows,
          TrainConfig(lr=1e-2, batch_size=32, epochs=1))
    G, L, d, K = 32 * 3, 96, 64, 2
    adjacency = G * L * (L + 1) * 8
    aggregations = L * G * (K + 1) * d * 8
    assert held and max(held) < min(adjacency, aggregations)


def test_train_reads_no_buffer_after_handing_it_back(monkeypatch):
    # desk size, so the dropout draw, the kernels' temporaries and the
    # adjoints are arena memory; two epochs end with a partial batch
    config = ModelConfig(L=96, N=20, d=32, n=2, K=2, p_dropout=0.1, seed=9)
    _, windows, _ = training_windows(L=96, n_nodes=20, rate=0.4, n_days=8)
    cfg = TrainConfig(lr=1e-2, batch_size=4, epochs=2, early_stop_patience=2, seed=5)

    def trained():
        model, history = train(PastModel.build(config, adjacency=ring_adjacency(20)), windows, cfg)
        return (history.loss1, history.loss2), param_arrays(model.params)

    plain_history, plain = trained()
    poison_returned_buffers(monkeypatch)
    history, poisoned = trained()
    assert history == plain_history
    assert all(plain[p].tobytes() == poisoned[p].tobytes() for p in plain)


@pytest.mark.parametrize("heap_bytes", [tensor.HEAP_ADJOINT_BYTES, 0], ids=["heap", "all-arena"])
def test_impute_span_reads_no_buffer_after_handing_it_back(heap_bytes, monkeypatch):
    # desk size over five windows, the last one unaligned
    config = ModelConfig(L=96, N=20, d=32, n=2, K=2, seed=9)
    model = PastModel.build(config, adjacency=ring_adjacency(20))
    T = 4 * 96 + 7
    v, m, _, _, _ = span_inputs(model, T, seed=6)
    plain = impute_span(model, v, m, *weekly_calendar(T, start=5 * 96 + 3))
    monkeypatch.setattr(tensor, "HEAP_ADJOINT_BYTES", heap_bytes)
    poison_returned_buffers(monkeypatch)
    poisoned = impute_span(model, v, m, *weekly_calendar(T, start=5 * 96 + 3))
    assert poisoned.tobytes() == plain.tobytes()


def test_impute_span_pool_holds_the_same_buffers_whatever_the_span(monkeypatch):
    # rewound before each branch pass: a 10-window span leaves the
    # pool holding what a 2-window span does
    model = tiny_model()
    L = model.config.L
    held = []
    real_pool = model_module.buffer_pool

    @contextlib.contextmanager
    def kept_pool():
        with real_pool() as pool:
            yield pool
            held.append(sorted((buf.nbytes, buf.dtype.str) for buf in pool_buffers(pool)))

    monkeypatch.setattr(model_module, "buffer_pool", kept_pool)
    for windows in (2, 10):
        v, m, _, _, _ = span_inputs(model, windows * L, seed=windows)
        impute_span(model, v, m, *weekly_calendar(windows * L))
    assert held[0] and held[0] == held[1]


@pytest.mark.parametrize("raises", [False, True], ids=["return", "raise"])
def test_train_drops_its_pool_when_it_returns_or_raises(raises, monkeypatch):
    _, train_w, _ = training_windows()
    refs = []

    def step_and_watch(params, state):
        adam_step(params, state)
        refs.extend(weakref.ref(buf) for buf in pool_buffers(_pool.get()))
        if raises:
            raise RuntimeError("raised after a step")

    monkeypatch.setattr(model_module, "adam_step", step_and_watch)
    with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
        train(tiny_model(), train_w, TrainConfig(batch_size=4, epochs=2))
    assert refs and all(r() is None for r in refs) and _pool.get() is None


def test_graphs_built_outside_train_keep_their_own_arrays():
    # outside a pool every kernel array is fresh, so a second
    # forward pass cannot overwrite what the first graph's VJPs read
    model = tiny_model()
    first_batch = random_window_inputs(model.config, batch=2, seed=1)
    second_batch = random_window_inputs(model.config, batch=3, seed=2)

    def objective(batch, seed):
        return model.objective(*batch, training=True, rng=np.random.default_rng(seed))[0]

    def grads_of(total):
        total.backward()
        grads = {p: t.grad.copy() for p, t in model.params.items()}
        model.params.zero_grads()
        return grads

    alone = grads_of(objective(first_batch, 0))
    first = objective(first_batch, 0)
    objective(second_batch, 1)
    again = grads_of(first)
    assert all(np.array_equal(alone[p], again[p]) for p in alone)


# ---- inference ----


def test_impute_observed_passthrough_exact():
    model = tiny_model()
    v, m, w, h, b = random_window_inputs(model.config, batch=1, seed=9)
    out = model.impute(v, m, w, h, b)[0]
    assert out.shape == (12, 4)
    assert np.array_equal(out[m[0] == 1.0], v[0][m[0] == 1.0])


def test_impute_batched_matches_single():
    model = tiny_model()
    v, m, w, h, b = random_window_inputs(model.config, batch=3, seed=4)
    batched = model.impute(v, m, w, h, b)
    for i in range(3):
        single = model.impute(v[i, None], m[i, None], w[i, None], h[i, None], b[i, None])[0]
        assert np.array_equal(batched[i], single)


def test_impute_is_deterministic_and_ignores_dropout():
    model = tiny_model(p_dropout=0.9)
    v, m, w, h, b = random_window_inputs(model.config, batch=1)
    a = model.impute(v, m, w, h, b)[0]
    assert np.array_equal(a, model.impute(v, m, w, h, b)[0])


def test_impute_ablation_without_cgm():
    model = tiny_model(use_cgm=False)
    v, m, w, h, b = random_window_inputs(model.config, batch=1)
    out = model.impute(v, m, w, h, b)[0]
    y_gim = model.gim.forward(v, m, None).data[0]
    assert np.allclose(out, m[0] * v[0] + (1 - m[0]) * y_gim, atol=1e-15)


def test_impute_ablation_without_gim():
    model = tiny_model(use_gim=False)
    v, m, w, h, b = random_window_inputs(model.config, batch=1)
    out = model.impute(v, m, w, h, b)[0]
    y_cgm = model.cgm.forward(w, h, b)[0].data[0]
    assert np.allclose(out, m[0] * v[0] + (1 - m[0]) * y_cgm, atol=1e-15)


def span_inputs(model, T, seed=0):
    rng = np.random.default_rng(seed)
    N = model.config.N
    values = rng.normal(size=(T, N))
    mask = (rng.random((T, N)) < 0.7).astype(float)
    week = rng.integers(0, 7, size=T)
    hour = rng.integers(0, 24, size=T)
    bucket = rng.integers(0, 4, size=T)
    return values, mask, week, hour, bucket


def reference_window(model, v, m, w, h, b):
    """One (L, N) window imputed by the training forward at B=1 and ``fuse``.

    Independent of ``impute_span``: the calendar branch runs the batched
    ``CgmModule.forward`` rather than the span's slot rows, and an absent
    branch contributes zeros.
    """
    with no_grad():
        branches = model.forward(v[None], m[None], w[None], h[None], b[None])
    y_gim, y_cgm = (np.zeros((1, *v.shape)) if y is None else y.data for y in branches)
    return fuse(v[None], m[None], y_cgm + y_gim)[0]


def test_impute_span_aligned_matches_windows():
    model = tiny_model()
    L = model.config.L
    v, m, w, h, b = span_inputs(model, 2 * L)
    out = impute_span(model, v, m, w, h, b)
    first = reference_window(model, v[:L], m[:L], w[:L], h[:L], b[:L])
    second = reference_window(model, v[L:], m[L:], w[L:], h[L:], b[L:])
    assert np.array_equal(out, np.concatenate([first, second], axis=0))


def test_impute_span_overlap_averages():
    model = tiny_model()
    L = model.config.L
    T = L + 3  # windows start at 0 and at T-L, overlapping on L-3 rows
    v, m, w, h, b = span_inputs(model, T, seed=1)
    out = impute_span(model, v, m, w, h, b)
    a = reference_window(model, v[:L], m[:L], w[:L], h[:L], b[:L])
    c = reference_window(model, v[3:], m[3:], w[3:], h[3:], b[3:])
    assert np.array_equal(out[:3], a[:3])
    assert np.array_equal(out[L:], c[-3:])
    assert np.allclose(out[3:L], (a[3:] + c[: L - 3]) / 2.0, atol=1e-15)
    assert np.array_equal(out[m == 1.0], v[m == 1.0])


def weekly_calendar(T, start=0):
    """Consecutive 15-minute stamps from ``start`` (Monday 00:00 = 0)."""
    t = np.arange(start, start + T)
    return t // 96 % 7, t // 4 % 24, t % 4


@pytest.mark.parametrize(
    "branches", [{}, {"use_cgm": False}, {"use_gim": False}], ids=["past", "wo-cgm", "wo-gim"]
)
def test_impute_span_longer_than_a_week_matches_per_window_impute(branches):
    # 8 days and 5 steps from a Sunday-evening start: every slot of the week
    # occurs, the stamps wrap from week day 6 to 0, and the tail window is
    # unaligned; the per-window cache must reproduce window-by-window imputation
    model = tiny_model(**branches)
    L = model.config.L
    T = 8 * 96 + 5
    v, m, _, _, _ = span_inputs(model, T, seed=5)
    w, h, b = weekly_calendar(T, start=6 * 96 + 70)
    out = impute_span(model, v, m, w, h, b)
    acc, counts = np.zeros_like(v), np.zeros((T, 1))
    for s in [*range(0, T - L + 1, L), T - L]:
        sl = slice(s, s + L)
        acc[sl] += reference_window(model, v[sl], m[sl], w[sl], h[sl], b[sl])
        counts[sl] += 1.0
    assert np.array_equal(out, acc / counts)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda a: {**a, "values": a["values"][:, :, None]}, r"values must be a \(T, N\) array"),
        (lambda a: {**a, "values": a["values"][:, :3], "mask": a["mask"][:, :3]},
         r"values has 3 nodes \(columns\), the model has N=4"),
        (lambda a: {**a, "mask": np.ones((a["mask"].shape[0] + 5, 4))},
         r"mask must have the values' \(T, N\) shape \(24, 4\), got \(29, 4\)"),
        (lambda a: {**a, "week": np.zeros(31, int)}, r"week must have shape \(T,\) = \(24,\)"),
        (lambda a: {**a, "hour": np.zeros((24, 1), int)}, r"hour must have shape \(T,\)"),
        (lambda a: {**a, "minute_bucket": np.zeros(23, int)}, r"minute_bucket must have shape"),
        (lambda a: {**a, "mask": np.where(np.arange(24)[:, None] == 23, 0.5, a["mask"])},
         r"mask entries must be 0 or 1"),
        (lambda a: {**a, "mask": np.where(np.arange(24)[:, None] == 23, np.nan, a["mask"])},
         r"mask entries must be 0 or 1"),
    ],
    ids=["values-3d", "wrong-N", "mask-longer", "week-longer", "hour-2d", "minute-shorter",
         "mask-half", "mask-nan"],
)
def test_impute_span_rejects_inputs_that_do_not_fit(change, message):
    model = tiny_model()
    v, m, w, h, b = span_inputs(model, 2 * model.config.L)
    args = change({"values": v, "mask": m, "week": w, "hour": h, "minute_bucket": b})

    def branch_ran(*_args, **_kwargs):
        raise AssertionError("a branch ran before the inputs were checked")

    model.gim.forward = model.cgm.slot_rows = branch_ran
    with pytest.raises(ValueError, match=message):
        impute_span(model, **args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_impute_span_rejects_a_non_finite_observed_value(bad):
    model = tiny_model()
    v, m, w, h, b = span_inputs(model, 2 * model.config.L)
    m[5, 2] = m[9, 1] = 1.0
    v[9, 1] = v[5, 2] = bad  # the first in step order is named

    def branch_ran(*_args, **_kwargs):
        raise AssertionError("a branch ran before the inputs were checked")

    model.gim.forward = model.cgm.slot_rows = branch_ran
    with pytest.raises(ValueError, match=r"observed value at step 5, node 2 is not finite"):
        impute_span(model, v, m, w, h, b)


@pytest.mark.parametrize(
    "branches", [{}, {"use_cgm": False}, {"use_gim": False}], ids=["past", "wo-cgm", "wo-gim"]
)
def test_impute_span_reads_no_hidden_value(branches):
    # a NaN under mask 0 imputes exactly as a 0 there
    model = tiny_model(**branches)
    v, m, w, h, b = span_inputs(model, 2 * model.config.L + 3, seed=2)
    assert (m == 0.0).any()
    out = impute_span(model, np.where(m == 1.0, v, np.nan), m, w, h, b)
    assert np.array_equal(out, impute_span(model, np.where(m == 1.0, v, 0.0), m, w, h, b))
    assert np.isfinite(out).all()


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda a: {**a, "masks": np.where(np.arange(12)[:, None] == 11, 0.5, a["masks"])},
         r"mask entries must be 0 or 1"),
        (lambda a: {**a, "masks": np.where(np.arange(12)[:, None] == 11, np.nan, a["masks"])},
         r"mask entries must be 0 or 1"),
        (lambda a: {**a, "masks": a["masks"][:, :11]},
         r"masks must have the values' shape \(3, 12, 4\), got \(3, 11, 4\)"),
        (lambda a: {k: x[:, :11] for k, x in a.items()},
         r"values must be a \(B, L, N\) = \(B, 12, 4\) array, got shape \(3, 11, 4\)"),
        (lambda a: {**a, "values": a["values"][..., :3], "masks": a["masks"][..., :3]},
         r"values must be a \(B, L, N\) = \(B, 12, 4\) array, got shape \(3, 12, 3\)"),
        (lambda a: {**a, "hour": a["hour"].T},
         r"hour must have shape \(B, L\) = \(3, 12\), got \(12, 3\)"),
        (lambda a: {**a, "values": a["values"][0], "masks": a["masks"][0]},
         r"values must be a \(B, L, N\) .* got shape \(12, 4\)"),
    ],
    ids=["mask-half", "mask-nan", "masks-shorter", "L-not-config", "N-not-config",
         "hour-transposed", "values-2d"],
)
def test_impute_rejects_inputs_that_do_not_fit(change, message, monkeypatch):
    model = tiny_model()
    v, m, w, h, b = random_window_inputs(model.config, batch=3)
    args = change({"values": v, "masks": m, "week": w, "hour": h, "minute_bucket": b})

    def branch_ran(*_args, **_kwargs):
        raise AssertionError("a branch ran before the inputs were checked")

    model.gim.forward = model.cgm.slot_rows = branch_ran
    monkeypatch.setattr(PastModel, "forward", branch_ran)
    with pytest.raises(ValueError, match=message):
        model.impute(**args)


@pytest.mark.parametrize("field", ["week", "hour", "minute_bucket"])
@pytest.mark.parametrize("entry", ["impute_span", "impute", "train"])
def test_fractional_calendar_raises_naming_the_field(field, entry):
    L = tiny_config().L
    v, m, w, h, b = span_inputs(tiny_model(), 2 * L)
    calendar = {"week": w, "hour": h, "minute_bucket": b}
    as_float = {k: a.astype(float) for k, a in calendar.items()}
    fractional = {**as_float, field: as_float[field] + np.where(np.arange(2 * L) == 5, 0.5, 0.0)}

    def call(cal):
        model = tiny_model()  # fresh: train moves the parameters
        if entry == "impute_span":
            return impute_span(model, v, m, **cal)
        windows = {k: a.reshape(2, L) for k, a in cal.items()}
        if entry == "impute":
            return model.impute(v.reshape(2, L, -1), m.reshape(2, L, -1), **windows)
        batch = WindowBatch(v.reshape(2, L, -1), m.reshape(2, L, -1), starts=np.arange(2), **windows)
        return train(model, batch, TrainConfig(epochs=1, batch_size=2))[1].loss1

    with pytest.raises(ValueError, match=f"{field} must hold integer values, got "):
        call(fractional)
    # integer values in a float array keep working, with the integer calendar's result
    assert np.array_equal(call(as_float), call(calendar))


def test_forward_under_no_grad_builds_no_graph():
    model = tiny_model()
    v, m, w, h, b = random_window_inputs(model.config, batch=2, seed=2)
    with no_grad():
        y_gim, y_cgm = model.forward(v, m, w, h, b)
    for y in (y_gim, y_cgm):
        assert y._parents == () and y._vjp is None and not y.requires_grad
    recorded = model.forward(v, m, w, h, b)
    assert np.array_equal(y_gim.data, recorded[0].data)
    assert np.array_equal(y_cgm.data, recorded[1].data)


def test_train_interleaved_with_impute_span_is_bit_identical(monkeypatch):
    # impute_span after every optimizer step must leave training's tape,
    # gradients and random streams exactly as they were
    _, train_w, _ = training_windows()
    cfg = TrainConfig(lr=1e-2, batch_size=4, epochs=3, seed=1)
    plain, plain_history = train(tiny_model(), train_w, cfg)

    model = tiny_model()
    span = span_inputs(model, 3 * model.config.L + 2, seed=4)
    calls = []

    def step_then_impute(params, state):
        adam_step(params, state)
        calls.append(impute_span(model, *span))

    monkeypatch.setattr(model_module, "adam_step", step_then_impute)
    model, history = train(model, train_w, cfg)
    assert len(calls) > 1 and not np.array_equal(calls[0], calls[-1])
    assert history.loss1 == plain_history.loss1 and history.loss2 == plain_history.loss2
    a, b = param_arrays(plain.params), param_arrays(model.params)
    assert all(np.array_equal(a[p], b[p]) for p in a)


def test_impute_span_rejects_short_series():
    model = tiny_model()
    v, m, w, h, b = span_inputs(model, model.config.L - 1)
    with pytest.raises(ValueError, match="shorter than the window length"):
        impute_span(model, v, m, w, h, b)


# ---- checkpoints ----


def test_fresh_models_identically_seeded_are_identical():
    a, b = tiny_model(), tiny_model()
    sa, sb = param_arrays(a.params), param_arrays(b.params)
    assert sorted(sa) == sorted(sb)
    assert all(np.array_equal(sa[p], sb[p]) for p in sa)


def test_checkpoint_round_trip_bitwise(tmp_path):
    _, train_w, _ = training_windows()
    model = tiny_model()
    model.norm_stats = (1.5, 2.25)
    model, _ = train(model, train_w, TrainConfig(lr=1e-3, batch_size=4, epochs=2))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)

    assert loaded.config == model.config
    assert loaded.norm_stats == model.norm_stats
    orig, back = param_arrays(model.params), param_arrays(loaded.params)
    assert sorted(orig) == sorted(back)
    assert all(np.array_equal(orig[p], back[p]) for p in orig)
    for p0, p1 in zip(model.spatial_op.normalized_powers, loaded.spatial_op.normalized_powers):
        assert np.array_equal(p0, p1)

    v, m, w, h, b = random_window_inputs(model.config, batch=1, seed=7)
    assert np.array_equal(model.impute(v, m, w, h, b)[0], loaded.impute(v, m, w, h, b)[0])


def test_checkpoint_without_norm_stats_or_cgm(tmp_path):
    model = tiny_model(use_cgm=False)
    path = str(tmp_path / "fresh.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.norm_stats is None
    assert loaded.cgm is None


def write_legacy_checkpoint(model, path):
    """A checkpoint as files written with optimizer state still carry it:
    a version 1 file (no CRC trailer) with has_optimizer and optim_* config
    lines and adam/m|v arrays."""
    lines = [f"{k}={json.dumps(getattr(model.config, k))}" for k in checkpoint._CONFIG_FIELDS]
    lines.append("has_optimizer=true")
    for k, v in (("lr", 1e-3), ("beta1", 0.9), ("beta2", 0.999), ("epsilon", 1e-8),
                 ("step_count", 7)):
        lines.append(f"optim_{k}={json.dumps(v)}")
    lines.append(f"has_norm_stats={json.dumps(model.norm_stats is not None)}")
    block = ("\n".join(lines) + "\n").encode("utf-8")
    rng = np.random.default_rng(0)
    arrays = []
    for p in model.params.paths():
        data = model.params[p].data
        arrays.append((f"param/{p}", data))
        arrays.append((f"adam/m/{p}", rng.normal(size=data.shape)))
        arrays.append((f"adam/v/{p}", rng.random(data.shape)))
    arrays += [(f"spatial/{k}", mat) for k, mat in enumerate(model.spatial_op.normalized_powers)]
    arrays.append(("norm/stats", np.asarray(model.norm_stats)))
    with open(path, "wb") as out:
        out.write(checkpoint.MAGIC + struct.pack("<IQ", 1, len(block)) + block)
        out.write(struct.pack("<I", len(arrays)))
        for key, arr in arrays:
            checkpoint._write_array(out, key, arr)


def test_checkpoint_with_legacy_optimizer_state_loads_bitwise(tmp_path):
    _, train_w, _ = training_windows()
    model = tiny_model()
    model.norm_stats = (1.5, 2.25)
    model, _ = train(model, train_w, TrainConfig(lr=1e-3, batch_size=4, epochs=1))
    legacy, fresh = str(tmp_path / "legacy.ckpt"), str(tmp_path / "fresh.ckpt")
    write_legacy_checkpoint(model, legacy)
    loaded = load_checkpoint(legacy)

    assert loaded.config == model.config and loaded.norm_stats == model.norm_stats
    orig, back = param_arrays(model.params), param_arrays(loaded.params)
    assert sorted(orig) == sorted(back)
    assert all(np.array_equal(orig[p], back[p]) for p in orig)
    v, m, w, h, b = random_window_inputs(model.config, batch=2, seed=7)
    assert np.array_equal(model.impute(v, m, w, h, b), loaded.impute(v, m, w, h, b))
    # saved again, the optimizer state is gone and nothing else changed
    save_checkpoint(model, fresh)
    resaved = str(tmp_path / "resaved.ckpt")
    save_checkpoint(loaded, resaved)
    assert open(resaved, "rb").read() == open(fresh, "rb").read()
    assert b"adam/" not in open(fresh, "rb").read()


def test_checkpoint_huge_config_length_raises(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(tiny_model(), path)
    blob = bytearray(open(path, "rb").read())
    blob[12:20] = struct.pack("<Q", 0xFFFF_FFFF_FFFF_FFFF)  # the u64 config length
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def resealed(blob):
    """An edited version 2 file with its CRC trailer recomputed, so that the
    loader's checks after the CRC see the edit."""
    body = blob[8:-4]
    return blob[:8] + body + struct.pack("<I", zlib.crc32(body))


def test_checkpoint_config_value_of_wrong_type_raises(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(tiny_model(), path)
    blob = open(path, "rb").read()
    (cfg_len,) = struct.unpack("<Q", blob[12:20])
    block = blob[20 : 20 + cfg_len].replace(b"\nd=8\n", b"\nd=[]\n")
    with open(path, "wb") as f:
        f.write(resealed(blob[:12] + struct.pack("<Q", len(block)) + block + blob[20 + cfg_len :]))
    with pytest.raises(ValueError, match="bad config value"):
        load_checkpoint(path)


def same_model(a, b):
    sa, sb = param_arrays(a.params), param_arrays(b.params)
    return (
        a.config == b.config
        and a.norm_stats == b.norm_stats
        and sorted(sa) == sorted(sb)
        and all(np.array_equal(sa[p], sb[p]) for p in sa)
        and len(a.spatial_op.normalized_powers) == len(b.spatial_op.normalized_powers)
        and all(
            np.array_equal(p, q)
            for p, q in zip(a.spatial_op.normalized_powers, b.spatial_op.normalized_powers)
        )
    )


def test_checkpoint_corruption_fuzz_raises_only_value_error(tmp_path):
    # 1-3 random bytes overwritten in the header, config block and first
    # arrays: each file must raise ValueError and nothing else, or load a
    # model bit-identical to the saved one (a byte overwritten by its own
    # value); the CRC trailer leaves no silently different load
    model = tiny_model()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    rng = np.random.default_rng(3)
    corrupt = str(tmp_path / "corrupt.ckpt")
    outcomes = {"raised": 0, "identical": 0, "different": 0}
    for _ in range(400):
        b = bytearray(blob)
        for _ in range(rng.integers(1, 4)):
            b[rng.integers(0, 400)] = rng.integers(0, 256)
        with open(corrupt, "wb") as f:
            f.write(b)
        try:
            loaded = load_checkpoint(corrupt)
        except ValueError:
            outcomes["raised"] += 1
            continue
        outcomes["identical" if same_model(model, loaded) else "different"] += 1
    assert outcomes["different"] == 0, outcomes
    assert outcomes["raised"] > 390, outcomes


def test_checkpoint_crc_mismatch_raises(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(tiny_model(), path)
    blob = bytearray(open(path, "rb").read())
    blob[-10] ^= 0x01  # the low bit of a byte of the last array's last value
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(ValueError, match="CRC-32 does not match"):
        load_checkpoint(path)


def test_checkpoint_version_1_file_loads_bitwise(tmp_path):
    # version 1 is version 2 without the CRC trailer
    model = tiny_model()
    model.norm_stats = (1.5, 2.25)
    path, old = str(tmp_path / "model.ckpt"), str(tmp_path / "v1.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    assert struct.unpack("<I", blob[8:12]) == (2,)
    with open(old, "wb") as f:
        f.write(blob[:8] + struct.pack("<I", 1) + blob[12:-4])
    assert same_model(model, load_checkpoint(old))


def test_checkpoint_non_finite_arrays_raise_and_impute_keeps_observed(tmp_path):
    # a model whose spatial power is all NaN and whose gim head bias is inf:
    # imputing with it in memory still passes observed entries through, and
    # a file saved from it does not load
    model = tiny_model()
    model.spatial_op.normalized_powers[1][:] = np.nan
    model.params["gim/head/b"].data[:] = np.inf
    v, m, w, h, b = random_window_inputs(model.config, batch=1, seed=9)
    out = model.impute(v, m, w, h, b)
    assert np.array_equal(out[m == 1.0], v[m == 1.0])
    assert not np.isfinite(out[m == 0.0]).any()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    with pytest.raises(
        ValueError, match=r"corrupt checkpoint: NaN or inf in param/gim/head/b, spatial/1$"
    ):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "spatial, norm_stats, message",
    [
        ((1, np.zeros((16, 1))), (1.5, 2.25),
         r"spatial/1 has shape \(16, 1\), expected \(4, 4\)"),
        ((0, ring_adjacency(4)), (1.5, 2.25), r"spatial/0 is not a multiple of the identity"),
        (None, (1.0, 0.0), r"norm/stats needs a finite mean and std > 0, got \(1.0, 0.0\)"),
        (None, (np.nan, 2.0), r"norm/stats needs a finite mean and std > 0, got \(nan, 2.0\)"),
        (None, (1.0, 2.0, 3.0), r"norm/stats has shape \(3,\), expected \(2,\)"),
    ],
    ids=["spatial-shape", "spatial-0-not-identity", "zero-std", "nan-mean", "three-stats"],
)
def test_checkpoint_malformed_arrays_raise(tmp_path, spatial, norm_stats, message):
    # a well-formed container whose arrays no model of its config can use;
    # the spatial kernel takes P_0's product as a product with its diagonal entry
    model = tiny_model()
    if spatial is not None:
        k, matrix = spatial
        model.spatial_op.normalized_powers[k] = matrix
    model.norm_stats = norm_stats
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="corrupt checkpoint: " + message):
        load_checkpoint(path)


def test_checkpoint_truncated_raises(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    cut = str(tmp_path / "cut.ckpt")
    with open(cut, "wb") as f:
        f.write(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(cut)


def test_checkpoint_bad_magic_raises(tmp_path):
    path = str(tmp_path / "junk.ckpt")
    with open(path, "wb") as f:
        f.write(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage_raises(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    with open(path, "ab") as f:
        f.write(b"xx")
    with pytest.raises(ValueError, match="trailing data"):
        load_checkpoint(path)
