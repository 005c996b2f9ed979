"""Checks for the autodiff core: op adjoints against central differences,
hand-computed values for the losses and one Adam step, store invariants."""
import ast
import contextlib
import math
import pathlib
import threading
import warnings
import weakref

import numpy as np
import pytest

import pastnet.numcore
from kernel_check import (
    broadcast_to,
    divide,
    mean,
    poison_returned_buffers,
    pool_buffers,
    relu,
    sigmoid,
    softplus,
    tanh,
)
from pastnet.numcore import (
    AdamState,
    EmptyMaskError,
    NonDeterministicObjectiveError,
    NonFiniteGradientError,
    ParamStore,
    Tensor,
    adam_step,
    buffer_pool,
    concat,
    constant,
    embedding,
    grad_check,
    masked_mse,
    matmul,
    no_grad,
    scratch,
    step_buffer,
)
from pastnet.numcore import tensor as tensor_module
from pastnet.numcore.tensor import ScratchPool, _pool


def numeric_grad(f, x, eps=1e-6):
    # central differences on the raw buffer; independent of the tape
    g = np.zeros_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + eps
        f_plus = f()
        x.flat[i] = orig - eps
        f_minus = f()
        x.flat[i] = orig
        g.flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return g


def check_op(build, *shapes, seed=0, tol=5e-7):
    """Compare tape gradients of scalar build(*tensors) with differences."""
    rng = np.random.default_rng(seed)
    buffers = [rng.normal(size=s) for s in shapes]
    tensors = [Tensor(b, requires_grad=True) for b in buffers]
    out = build(*tensors)
    out.backward()
    for t, b in zip(tensors, buffers):
        num = numeric_grad(lambda: float(build(*[Tensor(x) for x in buffers]).data), b)
        assert t.grad is not None
        assert np.max(np.abs(t.grad - num)) < tol


def test_add_mul_sub_div_adjoints():
    check_op(lambda a, b: ((a + b) * a).sum(), (3, 4), (3, 4))
    check_op(lambda a, b: ((a - b) * (a - b)).sum(), (5,), (5,))
    check_op(lambda a, b: divide(a, b * b + 3.0).sum(), (4, 2), (4, 2))
    check_op(lambda a: (a * -2.5 + 1.0).sum(), (6,))


def test_broadcast_adjoints_sum_to_operand_shape():
    check_op(lambda a, b: (a * b).sum(), (3, 4), (4,))
    check_op(lambda a, b: (a + b).sum(), (2, 1, 4), (3, 1))
    check_op(lambda a, b: divide(a, b).sum(), (2, 3), (1, 3))
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.full((3,), 2.0), requires_grad=True)
    (a * b).sum().backward()
    assert a.grad.shape == (2, 3) and b.grad.shape == (3,)
    assert np.array_equal(b.grad, np.full((3,), 2.0))  # summed over broadcast rows


def test_matmul_adjoints_including_batch_broadcast():
    check_op(lambda a, b: matmul(a, b).sum(), (3, 4), (4, 2))
    check_op(lambda a, b: (matmul(a, b) * matmul(a, b)).sum(), (2, 3, 4), (2, 4, 2))
    # (N, N) operand broadcast against a batch, as the spatial step uses it
    check_op(lambda a, b: matmul(a, b).sum(), (4, 4), (5, 4, 3))
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_folded_matmul_matches_numpy_and_broadcast_vjps():
    rng = np.random.default_rng(8)
    cases = [
        # 4-d a against a 2-d b, whose adjoint folds a's rows; a is a strided view
        (rng.normal(size=(4, 3, 2, 5)).transpose(2, 1, 0, 3), rng.normal(size=(5, 6))),
        # 2-d a broadcast against a 3-d b (the batched path)
        (rng.normal(size=(4, 5)), rng.normal(size=(3, 5, 6))),
    ]
    for a0, b0 in cases:
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        out = matmul(a, b)
        expected = np.matmul(a0, b0)
        assert out.shape == expected.shape
        assert np.max(np.abs(out.data - expected)) < 1e-12
        g = rng.normal(size=expected.shape)
        (out * constant(g)).sum().backward()
        # reference adjoints: full broadcast products summed over leading axes
        ga = np.matmul(g, np.swapaxes(b0, -1, -2))
        gb = np.matmul(np.swapaxes(a0, -1, -2), g)
        ga = ga.reshape((-1,) + a0.shape).sum(axis=0)
        gb = gb.reshape((-1,) + b0.shape).sum(axis=0)
        assert np.max(np.abs(a.grad - ga)) < 1e-12
        assert np.max(np.abs(b.grad - gb)) < 1e-12


def test_matmul_against_einsum():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 4, 5))
    b = rng.normal(size=(6, 5, 2))
    out = matmul(Tensor(a), Tensor(b))
    assert np.allclose(out.data, np.einsum("bij,bjk->bik", a, b), atol=1e-12)


def test_reductions_and_shape_moves():
    check_op(lambda a: a.sum(axis=1).sum(), (3, 4))
    check_op(lambda a: (a.sum(axis=0, keepdims=True) * a).sum(), (3, 4))
    check_op(lambda a: mean(a, axis=1).sum(), (3, 5))
    check_op(lambda a: (mean(a) * mean(a)).sum(), (4, 2))
    check_op(lambda a: (a.reshape(6, 2) * 3.0).sum(), (3, 4))
    check_op(lambda a: a.transpose((1, 0, 2)).sum(axis=2).sum(), (2, 3, 4))
    check_op(lambda a: (broadcast_to(a, (5, 3, 4)) * 2.0).sum(), (3, 4))


def test_concat_adjoints():
    check_op(lambda a, b: (concat([a, b], axis=1) * 1.5).sum(), (2, 3), (2, 4))
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    concat([a, b], axis=1).sum().backward()
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.ones((2, 2)))


def test_activation_values():
    x = Tensor(np.array([0.0]))
    assert sigmoid(x).data[0] == 0.5
    assert tanh(x).data[0] == 0.0
    assert softplus(x).data[0] == pytest.approx(np.log(2.0), abs=1e-15)
    grid = np.linspace(-5.0, 5.0, 100)  # grid avoids 0 exactly
    r = relu(Tensor(grid))
    assert np.array_equal(r.data, np.maximum(grid, 0.0))


def test_activation_adjoints():
    check_op(lambda a: sigmoid(a).sum(), (7,))
    check_op(lambda a: tanh(a * 0.7).sum(), (7,))
    check_op(lambda a: softplus(a).sum(), (7,))
    check_op(lambda a: (relu(a) * a).sum(), (9,), seed=3)
    # relu derivative is the indicator of positivity away from the kink
    grid = np.linspace(-5.0, 5.0, 100)
    t = Tensor(grid, requires_grad=True)
    relu(t).sum().backward()
    assert np.array_equal(t.grad, (grid > 0).astype(float))


def test_softplus_stable_and_positive_across_range():
    x = np.array([-600.0, -50.0, 0.0, 50.0, 600.0])
    y = softplus(Tensor(x)).data
    assert np.all(np.isfinite(y))
    assert np.all(y > 0.0)
    assert y[-1] == pytest.approx(600.0, abs=1e-9)
    assert y[0] == pytest.approx(np.exp(-600.0), rel=1e-12)


def test_embedding_gather_and_scatter_adjoint():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([[0, 2], [2, 2]])
    out = embedding(table, idx)
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out.data[0, 1], np.array([6.0, 7.0, 8.0]))
    (out * 2.0).sum().backward()
    expected = np.zeros((4, 3))
    expected[0] = 2.0
    expected[2] = 6.0  # row 2 gathered three times
    assert np.array_equal(table.grad, expected)
    with pytest.raises(TypeError):
        embedding(table, np.array([0.5]))


def test_detach_blocks_gradient():
    a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    out = (a.detach() * a).sum()
    out.backward()
    assert np.array_equal(a.grad, np.array([2.0, 3.0]))  # only the live branch


def test_backward_requires_scalar_and_accumulates():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (a * 2.0).backward()
    s = (a * 3.0).sum()
    s.backward()
    first = a.grad.copy()
    (a * 3.0).sum().backward()
    assert np.array_equal(a.grad, 2.0 * first)


def test_grad_check_through_shared_adjoint_views():
    # y fans out through ops whose adjoints are views of their input adjoint
    # (reshape, transpose, read-only broadcasts, concat pieces, u + v and
    # y + y hand one buffer to both parents), so several parents receive
    # views of one buffer; none may be written into
    store = ParamStore(seed=4)
    store.add("x", (2, 3, 4), init="normal", std=1.0)
    store.add("w", (4, 4), init="uniform_fan_in")

    def loss_fn(params):
        y = tanh(params["x"] @ params["w"])
        flat = y.reshape(6, 4)
        swapped = y.transpose((1, 0, 2))
        spread = broadcast_to(y, (5, 2, 3, 4))
        joined = concat([y, y + y, swapped.transpose((1, 0, 2))], axis=2)
        u, v = sigmoid(y), tanh(y)
        return (
            ((u + v) * y).sum()
            + (u * v * v).sum()
            + (sigmoid(flat) * flat).sum()
            + (swapped * swapped).sum() * 0.5
            + mean(spread * y)
            + (joined * joined).sum() * 0.25
            + (y + y).sum()
        )

    assert grad_check(loss_fn, store, n_samples=64) < 1e-8


def test_leaf_accumulators_keep_identity_and_add_up():
    store = ParamStore(seed=5)
    w = store.add("w", (3, 2), init="uniform_fan_in")
    accumulator = w.grad
    x = constant(np.arange(24.0).reshape(2, 4, 3))

    def loss():
        # the reshape path hands the leaf a read-only broadcast view
        return (x @ w).sum() + w.reshape(6).sum()

    loss().backward()
    assert w.grad is accumulator
    first = accumulator.copy()
    assert np.allclose(first, x.data.reshape(-1, 3).sum(axis=0)[:, None] + 1.0, atol=1e-12)
    loss().backward()
    assert w.grad is accumulator
    assert np.array_equal(accumulator, 2.0 * first)
    adam_step(store, AdamState.for_params(store, lr=1e-3))
    assert w.grad is accumulator
    assert np.array_equal(accumulator, np.zeros((3, 2)))
    # a bare leaf gets its own writable accumulator on first contact
    b = Tensor(np.ones(3), requires_grad=True)
    b.reshape(3, 1).sum().backward()
    b.reshape(3, 1).sum().backward()
    assert np.array_equal(b.grad, np.full(3, 2.0))


def test_constant_branches_are_pruned_from_tape():
    out = (constant(np.ones(4)) * 2.0).sum()
    assert out._parents == () and out._vjp is None


def test_no_grad_records_nothing_and_keeps_values():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    first_two = constant(np.eye(3, 2))  # selects a's first two columns
    recorded = (concat([a @ w, a @ first_two], axis=1) * 2.0 + 1.0).sum()
    with no_grad():
        plain = (concat([a @ w, a @ first_two], axis=1) * 2.0 + 1.0).sum()
    assert plain._parents == () and plain._vjp is None and not plain.requires_grad
    assert np.array_equal(plain.data, recorded.data)
    recorded.backward()  # recording is back on after the block
    assert a.grad is not None and w.grad is not None


def test_no_grad_restores_recording_after_an_exception():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with no_grad():
            raise RuntimeError("raised inside no_grad")
    out = (a * 2.0).sum()
    assert out._parents and out.requires_grad
    with no_grad():
        with no_grad():
            pass
        assert (a * 2.0)._parents == ()  # an inner block restores the outer state
    assert (a * 2.0)._parents


def test_no_grad_holds_for_the_current_thread_only():
    a = Tensor(np.ones(2), requires_grad=True)
    recorded = []
    worker = threading.Thread(target=lambda: recorded.append(bool((a * 2.0)._parents)))
    with no_grad():
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive() and recorded == [True]


def test_scratch_outside_no_grad_is_a_new_array_every_call():
    first, second = scratch((3, 4)), scratch((3, 4))
    assert first.shape == second.shape == (3, 4) and first.dtype == np.float64
    assert first is not second and not np.shares_memory(first, second)


def test_no_grad_opens_no_pool():
    # no_grad only switches recording off: outside a pool every buffer is fresh
    with no_grad():
        assert _pool.get() is None
        a, b = scratch((128, 128)), scratch((128, 128))
        s, t = step_buffer((3, 4)), step_buffer((3, 4))
        assert a.base is None and not np.shares_memory(a, b) and not np.shares_memory(s, t)
    with buffer_pool() as pool:
        with no_grad():
            assert _pool.get() is pool  # ... and inside one, it keeps that pool
        assert _pool.get() is pool


def test_scratch_inside_a_pool_is_arena_memory_until_the_next_node():
    x = Tensor(np.ones(3), requires_grad=True)
    with buffer_pool() as pool:
        small = scratch((3, 4))  # below HEAP_ADJOINT_BYTES: a plain array
        assert small.base is None and not pool.viewed
        draw = scratch((128, 128))
        mask = scratch((256, 1024), bool)
        assert draw.base is not None and mask.base is not None
        assert not np.shares_memory(draw, mask)  # both in use: two buffers
        assert pool.stats() == {"step_bytes": 0, "arena_bytes": 3 << 17, "arena_peak_bytes": 3 << 17}
        y = x * 2.0  # making the kernel's node hands its scratch back
        assert not pool.viewed and pool.live == 0
        assert [flat.nbytes for flat in pool.idle] == [1 << 17, 1 << 18]
        again = scratch((128, 128))  # the smallest idle buffer that fits
        assert again.base is draw.base
        out = step_buffer((128, 128))  # step buffers are not arena memory
        assert not any(np.shares_memory(out, flat) for flat in pool.arena_buffers())
        pool.rewind()
        stats = pool.stats()
        assert stats["step_bytes"] == 1 << 17 and stats["arena_bytes"] == 3 << 17
        assert stats["arena_peak_bytes"] == 1 << 17  # what is still handed out
        y.sum()
        assert pool.live == 0


@pytest.mark.parametrize("raises", [False, True], ids=["exit", "exception"])
def test_scratch_pool_is_dropped_when_the_outermost_block_exits(raises):
    refs = []
    with pytest.raises(RuntimeError) if raises else no_grad():
        with buffer_pool(), no_grad():
            refs.append(weakref.ref(scratch((128, 128)).base))
            with buffer_pool():
                refs.append(weakref.ref(scratch((256, 128)).base))
            assert refs[0]() is not None  # the outer pool's arena still holds its buffer
            if raises:
                raise RuntimeError("raised inside buffer_pool")
    assert all(r() is None for r in refs) and _pool.get() is None
    fresh = scratch((128, 128))
    assert fresh.base is None and scratch((128, 128)) is not fresh  # outside again: a new array


def test_scratch_pool_is_per_thread():
    seen = []

    def worker():
        seen.append(_pool.get())  # a thread starts outside any pool
        seen.append(scratch((128, 128)))
        with buffer_pool():
            seen.append(scratch((128, 128)))

    with buffer_pool() as pool:
        mine = scratch((128, 128))
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive() and len(seen) == 3 and seen[0] is None
        assert seen[1].base is None and seen[2].base is not None
        assert all(not np.shares_memory(mine, b) for b in seen[1:])
        assert [flat for flat, _ in pool.viewed.values()] == [mine.base]


def test_step_buffers_are_per_occurrence_and_come_back_after_a_rewind():
    # by position: after a rewind the k-th request gets the k-th buffer
    with buffer_pool() as pool:
        first, second = step_buffer((3, 4)), step_buffer((3, 4))
        assert not np.shares_memory(first, second)  # two requests in one step
        pool.rewind()
        assert step_buffer((3, 4)).base is first.base is pool.steps[0]
        assert step_buffer((3, 4)).base is second.base is pool.steps[1]
        third = step_buffer((3, 4))  # a third request gets a buffer of its own
        assert len(pool.steps) == 3 and third.base is pool.steps[2]
        assert not any(np.shares_memory(third, b) for b in (first, second))


def test_step_buffers_of_any_dtype_share_one_flat_buffer_by_position():
    with buffer_pool() as pool:
        values = step_buffer((2, 3))
        pool.rewind()
        mask = step_buffer((6,), bool)  # the same position, as bool
        assert mask.dtype == bool and mask.base is values.base and len(pool.steps) == 1
        assert pool.steps[0].dtype == np.float64 and pool.steps[0].size == 6
        pool.rewind()
        mask = step_buffer((9,), bool)  # still fits the buffer's 48 bytes
        assert mask.base is values.base and mask.shape == (9,)
        assert pool.stats()["step_bytes"] == 48


def test_step_buffer_grows_only_when_a_request_is_too_small_for_it():
    with buffer_pool() as pool:
        big = step_buffer((4, 4))
        pool.rewind()
        small = step_buffer((2, 5))  # a smaller request: a view of the same pages
        assert small.shape == (2, 5) and small.base is big.base
        pool.rewind()
        larger = step_buffer((5, 4))  # too small for this one: the buffer grows
        assert larger.base is not big.base and larger.base is pool.steps[0]
        assert pool.steps[0].size == 20 and len(pool.steps) == 1
        pool.rewind()
        assert step_buffer((4, 4)).base is larger.base  # and keeps its larger size


def test_step_buffers_outside_a_training_pool_are_fresh(monkeypatch):
    import pastnet.model as model_module
    from pastnet.data import WindowBatch
    from pastnet.model import ModelConfig, PastModel, TrainConfig, impute_span, train

    def fresh(shape):
        a, b = step_buffer(shape), step_buffer(shape)
        return a.shape == shape and not np.shares_memory(a, b)

    assert _pool.get() is None and fresh((3, 4))
    with no_grad():
        assert fresh((3, 4))

    # imputing mid-run: impute_span's own pool leaves every byte of train's alone
    L, N = 16, 6
    model = PastModel.build(
        ModelConfig(L=L, N=N, d=8, n=2, K=1), adjacency=np.ones((N, N)) - np.eye(N)
    )
    rng = np.random.default_rng(3)
    values, masks = rng.normal(size=(4 * L, N)), (rng.random((4 * L, N)) > 0.3).astype(float)
    stamp = np.arange(4 * L)
    calendar = dict(week=stamp // 96 % 7, hour=stamp // 4 % 24, minute_bucket=stamp % 4)
    windows = WindowBatch(
        values.reshape(4, L, N), masks.reshape(4, L, N), starts=np.arange(0, 4 * L, L),
        **{k: a.reshape(4, L) for k, a in calendar.items()},
    )
    intact = []

    def impute_then_step(params, state):
        pool = _pool.get()
        held = [(buf, buf.tobytes()) for buf in pool_buffers(pool)]
        impute_span(model, values, masks, **calendar)
        now = pool_buffers(pool)
        intact.append(
            _pool.get() is pool and len(now) == len(held)
            and all(a is buf and a.tobytes() == data for a, (buf, data) in zip(now, held))
        )
        adam_step(params, state)

    monkeypatch.setattr(model_module, "adam_step", impute_then_step)
    train(model, windows, TrainConfig(batch_size=2, epochs=1))
    assert intact == [True, True]


def test_training_pool_is_per_thread():
    seen = []

    def worker():
        seen.extend([step_buffer((2,)), scratch((2,))])
        with buffer_pool():
            seen.append(step_buffer((2,)))

    with buffer_pool() as pool:
        mine = step_buffer((2,))
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive() and len(seen) == 3
        assert all(not np.shares_memory(mine, b) for b in seen)
        pool.rewind()
        assert step_buffer((2,)).base is mine.base


@pytest.mark.parametrize("raises", [False, True], ids=["exit", "exception"])
def test_training_pool_is_dropped_when_its_block_exits(raises):
    refs = []
    with pytest.raises(RuntimeError) if raises else buffer_pool():
        with buffer_pool():
            step_buffer((64, 64))
            scratch((128, 128))
            refs.extend(weakref.ref(buf) for buf in pool_buffers(_pool.get()))
            if raises:
                raise RuntimeError("raised inside buffer_pool")
    assert len(refs) == 2 and all(r() is None for r in refs) and _pool.get() is None


# ---- adjoint ownership: pooled adjoints give the bits of fresh ones ----
# Shapes are chosen so the adjoints are 128 KiB or more and come from the
# pool's arena; a buffer that went idle while an adjoint
# still viewed it would be handed to a later VJP and overwritten.


def split_between_parents(x1, x2, w, v):
    # concat's adjoint is one buffer split into two views for two parents; one
    # parent is reached through reshapes and has a second consumer
    y1, y2 = x1 @ w, x2 @ w
    flat = y2.reshape(512, 48)
    joined = concat([y1, flat.reshape(8, 64, 48)], axis=2)
    return (joined @ v).sum() + (flat @ w).sum()


def doubled(x, w, v):
    # h + h hands one view to the same parent twice
    h, k = x @ w, (x @ w) @ w
    return ((h + h) @ v).sum() + ((h + k) @ v).sum() + (h @ w @ v).sum()


def shared_then_added(x, w, v):
    # h + k hands one view to two parents; h then takes a second contribution
    # while k still holds the view, so adding it in place would change k's
    h, k = x @ w, (x @ w) @ w
    return ((h + k) @ v).sum() + ((h * k) @ v).sum()


def summed_and_broadcast(x, w, q):
    # sum's adjoint is a read-only broadcast of a pooled buffer, then a
    # second contribution reaches the same parent
    h = x @ w
    return (h.sum(axis=0) @ q).sum() + (h @ q).sum()


def three_consumers(x, w, v):
    h = x @ w
    ht = h.transpose((0, 2, 1)).reshape(8, 48, 64)
    return (h @ v).sum() + ((h @ w) @ v).sum() + (ht @ x).sum()


OWNERSHIP_GRAPHS = {
    "reshape-concat-split": (split_between_parents, [(8, 64, 48), (8, 64, 48), (48, 48), (96, 32)]),
    "x-plus-x": (doubled, [(8, 64, 48), (48, 48), (48, 32)]),
    "shared-view": (shared_then_added, [(8, 64, 48), (48, 48), (48, 32)]),
    "sum-broadcast": (summed_and_broadcast, [(4, 256, 48), (48, 64), (64, 8)]),
    "three-consumers": (three_consumers, [(8, 64, 48), (48, 48), (48, 32)]),
}


def leaf_grads(build, values, runs, pool_context):
    leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
    with pool_context as pool:
        out = build(*leaves)
        for _ in range(runs):
            out.backward()
    return [t.grad for t in leaves], pool


@pytest.mark.parametrize("runs", [1, 2], ids=["once", "twice"])
@pytest.mark.parametrize("graph", list(OWNERSHIP_GRAPHS))
def test_gradients_in_a_training_pool_are_the_bits_of_fresh_adjoints(graph, runs):
    build, shapes = OWNERSHIP_GRAPHS[graph]
    rng = np.random.default_rng(7)
    values = [rng.normal(size=s) for s in shapes]
    plain, _ = leaf_grads(build, values, runs, contextlib.nullcontext())
    pooled, pool = leaf_grads(build, values, runs, buffer_pool())
    assert all(a.tobytes() == b.tobytes() for a, b in zip(plain, pooled))
    assert pool.idle and not pool.viewed  # every buffer came back once consumed
    assert pool.live == 0


def test_adjoint_arena_reuses_the_smallest_idle_buffer_that_fits():
    pool = ScratchPool()
    small, large = pool.take((4, 8)), pool.take((100,))
    assert len(pool.viewed) == 2 and pool.peak == 132 * 8
    pool.settle()  # the tape kept neither
    assert [flat.size for flat in pool.idle] == [32, 100] and pool.live == 0
    view = pool.take((5, 5))  # fits both: the smaller buffer serves it, as a view
    assert view.base is small.base and view.shape == (5, 5)
    mask = pool.take((6, 50), bool)  # 300 bytes in the 100-element buffer
    assert mask.base is large.base and mask.dtype == bool
    pool.settle()
    bigger = pool.take((200,))  # fits no idle buffer: they are dropped, not kept beside
    assert pool.idle == [] and not any(np.shares_memory(bigger, b) for b in (small, large))


def test_adjoint_arena_counts_the_views_the_tape_holds():
    pool = ScratchPool()
    g = pool.take((4, 6))
    left, right = np.split(g, [3], axis=1)
    pool.hold(left)
    pool.hold(right.T)  # a transposed piece views the same buffer
    pool.settle()  # held: not idle
    assert not pool.idle
    pool.release(right.T)
    assert not pool.idle  # left still views the buffer
    pool.release(left)  # the last view: the buffer goes idle
    assert [flat.base for flat in pool.idle] == [None] and pool.idle[0] is g.base
    plain = np.ones(3)
    pool.hold(plain)  # arrays the pool never handed out are not counted
    assert not pool.viewed


def test_adjoint_buffers_come_from_the_arena_inside_any_pool():
    # a VJP takes the adjoints it returns from scratch, like its temporaries
    def fresh():
        a, b = scratch((128, 128)), scratch((128, 128))
        return a.base is None and not np.shares_memory(a, b)

    assert _pool.get() is None and fresh()
    with no_grad():
        assert fresh()
    with buffer_pool() as pool, no_grad():
        a, b = scratch((128, 128)), scratch((128, 128))
        assert not np.shares_memory(a, b)
        assert {id(a.base), id(b.base)} == set(pool.viewed)
        pool.settle()  # what no tape node keeps goes back
        assert scratch((128, 128)).base in (a.base, b.base)


def test_backward_that_raises_leaves_no_buffer_counted():
    x = Tensor(np.ones((8, 64, 48)), requires_grad=True)
    w = Tensor(np.ones((48, 48)), requires_grad=True)

    def raising(g):
        raise RuntimeError("raised inside a VJP")

    with buffer_pool() as pool:
        h = x @ w
        broken = Tensor._make(h.data.sum(), (h,), raising)
        with pytest.raises(RuntimeError, match="inside a VJP"):
            ((broken + (h @ w).sum()) * 1.0).backward()
        assert not pool.viewed and pool.live == 0


# ---- a kernel node with two outputs ----


def matmul_and_tanh(x, w, calls):
    """(x @ w, tanh(x)) as one tape node with two outputs, built as a fused
    kernel builds its node; each VJP call appends the adjoints it got to
    ``calls``."""
    y0 = np.matmul(x.data, w.data, out=step_buffer(x.shape[:-1] + w.shape[-1:]))
    y1 = np.tanh(x.data, out=step_buffer(x.shape))

    def vjp(g0, g1):
        calls.append((g0, g1))
        gx = gw = None
        if g0 is not None:
            gx = np.matmul(g0, w.data.T, out=scratch(x.shape))
            gw = x.data.reshape(-1, x.shape[-1]).T @ g0.reshape(-1, g0.shape[-1])
        if g1 is not None:
            d_tanh = np.multiply(y1, y1, out=scratch(x.shape))
            np.subtract(1.0, d_tanh, out=d_tanh)
            d_tanh *= g1
            gx = d_tanh if gx is None else np.add(gx, d_tanh, out=gx)
        return gx, gw

    return Tensor._make((y0, y1), (x, w), vjp)


def composed_matmul_and_tanh(x, w, calls):
    return x @ w, tanh(x)


TWO_OUTPUT_SHAPES = [(8, 64, 48), (48, 32)]  # adjoints of 128 KiB and more


def two_output_grads(kernel, reached, runs=1, calls=None):
    """Leaf gradients of a loss over the outputs in ``reached`` (0, 1 or both);
    output 0 has two consumers, so its adjoint adds two contributions."""
    rng = np.random.default_rng(21)
    x, w = (Tensor(rng.normal(size=s), requires_grad=True) for s in TWO_OUTPUT_SHAPES)
    c0, c1 = rng.normal(size=(8, 64, 32)), rng.normal(size=(8, 64, 48))
    y0, y1 = kernel(x, w, [] if calls is None else calls)
    passes = []
    for _ in range(runs):  # each pass builds its own loss on the one kernel node
        terms = {0: [(y0 * constant(c0)).sum(), (y0 @ constant(c0[0].T)).sum()],
                 1: [(y1 * constant(c1)).sum()]}
        loss, *rest = [t for k in reached for t in terms[k]]
        for term in rest:
            loss = loss + term
        loss.backward()
        passes.append([x.grad, w.grad])
        x.grad = w.grad = None
    return passes


@pytest.mark.parametrize("reached", [(0, 1), (0,), (1,)], ids=["both", "first", "second"])
def test_two_output_node_hands_its_vjp_each_complete_adjoint_once(reached):
    calls = []
    (got,) = two_output_grads(matmul_and_tanh, reached, calls=calls)
    (expected,) = two_output_grads(composed_matmul_and_tanh, reached)
    assert len(calls) == 1
    # an output no consumer reached gets None: no zeros are made for it
    assert [g is not None for g in calls[0]] == [k in reached for k in (0, 1)]
    for g, e in zip(got, expected, strict=True):
        if 0 not in reached and e is None:
            assert g is None  # tanh(x) does not depend on w
        else:
            assert np.allclose(g, e, rtol=1e-12, atol=1e-12), np.max(np.abs(g - e))


def test_two_output_node_gives_the_same_bits_on_a_second_backward():
    calls = []
    first, second = two_output_grads(matmul_and_tanh, (0, 1), runs=2, calls=calls)
    assert len(calls) == 2
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second, strict=True))


def test_two_output_node_under_no_grad_returns_plain_tensors():
    rng = np.random.default_rng(22)
    x, w = (Tensor(rng.normal(size=s), requires_grad=True) for s in TWO_OUTPUT_SHAPES)
    recorded = matmul_and_tanh(x, w, [])
    with no_grad():
        plain = matmul_and_tanh(x, w, [])
    assert isinstance(plain, tuple) and len(plain) == 2
    for p, r in zip(plain, recorded, strict=True):
        assert p._parents == () and p._vjp is None and not p.requires_grad
        assert np.array_equal(p.data, r.data)
    (node,) = recorded[0]._parents
    assert recorded[1]._parents == (node,) and node._parents == (x, w)


def test_two_output_node_in_a_poisoned_pool_gives_the_bits_of_no_pool(monkeypatch):
    # every buffer is poisoned as it is handed back and every temporary comes
    # from the arena: an adjoint handed to the kernel node that went back to
    # the arena before its VJP ran would read NaN
    plain = two_output_grads(matmul_and_tanh, (0, 1), runs=2)
    monkeypatch.setattr(tensor_module, "HEAP_ADJOINT_BYTES", 0)
    poison_returned_buffers(monkeypatch)
    with buffer_pool() as pool:
        pooled = two_output_grads(matmul_and_tanh, (0, 1), runs=2)
        assert not pool.viewed and pool.live == 0
    for p, q in zip(plain, pooled, strict=True):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(p, q, strict=True))


def test_masked_mse_hand_value():
    pred = np.array([1.0, 2.0, 3.0])
    target = np.array([0.0, 2.0, 5.0])
    mask = np.array([1.0, 0.0, 1.0])
    # (1^2 + 2^2) / 2
    assert float(masked_mse(pred, target, mask).data) == pytest.approx(2.5, abs=1e-15)


def test_masked_mse_empty_and_invalid_mask():
    with pytest.raises(EmptyMaskError, match="empty mask"):
        masked_mse(np.ones(3), np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        masked_mse(np.ones(3), np.ones(3), np.array([1.0, 0.5, 0.0]))


def test_masked_mse_gradient():
    pred = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    target = np.array([0.0, 2.0, 5.0])
    mask = np.array([1.0, 0.0, 1.0])
    masked_mse(pred, target, mask).backward()
    # d/dpred = 2 * mask * (pred - target) / sum(mask)
    assert np.allclose(pred.grad, np.array([1.0, 0.0, -2.0]), atol=1e-15)


def test_param_store_ordering_and_init():
    store = ParamStore(seed=11)
    store.add("b/weight", (4, 2), init="uniform_fan_in")
    store.add("a/bias", (2,), init="zeros")
    store.add("c/table", (5, 3), init="normal")
    assert store.paths() == ["a/bias", "b/weight", "c/table"]
    assert np.array_equal(store["a/bias"].data, np.zeros(2))
    w = store["b/weight"].data
    assert np.all(np.abs(w) <= 1.0 / np.sqrt(4))
    assert store.count_parameters() == 8 + 2 + 15
    assert store.count_parameters("b/") == 8
    with pytest.raises(ValueError):
        store.add("a/bias", (2,))
    # same seed and construction order, same values
    twin = ParamStore(seed=11)
    twin.add("b/weight", (4, 2), init="uniform_fan_in")
    twin.add("a/bias", (2,), init="zeros")
    twin.add("c/table", (5, 3), init="normal")
    assert np.array_equal(twin["b/weight"].data, w)
    assert np.array_equal(twin["c/table"].data, store["c/table"].data)


def test_param_store_fan_in_override_and_grads():
    store = ParamStore(seed=0)
    t = store.add("e/w", (8,), init="uniform_fan_in", fan_in=1)
    assert np.all(np.abs(t.data) <= 1.0)
    assert t.grad is not None and np.array_equal(t.grad, np.zeros(8))
    t.grad += 3.0
    store.zero_grads()
    assert np.array_equal(t.grad, np.zeros(8))


def test_param_store_load_state_validation():
    store = ParamStore(seed=0)
    store.add("x", (2,))
    with pytest.raises(ValueError):
        store.load_state_arrays({"y": np.zeros(2)})
    with pytest.raises(ValueError):
        store.load_state_arrays({"x": np.zeros(3)})
    store.load_state_arrays({"x": np.array([1.5, -2.0])})
    assert np.array_equal(store["x"].data, np.array([1.5, -2.0]))


def test_adam_single_step_hand_value():
    store = ParamStore(seed=0)
    p = store.add("theta", (1,))
    p.data[...] = 1.0
    p.grad[...] = 0.5
    state = AdamState.for_params(store, lr=1e-4)
    adam_step(store, state)
    # worked by hand: m=0.05, v=0.00025, mhat=0.5, vhat=0.25
    expected = 1.0 - 1e-4 * 0.5 / (np.sqrt(0.25) + 1e-8)
    assert p.data[0] == pytest.approx(expected, abs=1e-18)
    assert state.step_count == 1
    assert np.array_equal(p.grad, np.zeros(1))  # accumulator cleared


def test_adam_matches_reference_over_steps():
    rng = np.random.default_rng(5)
    store = ParamStore(seed=1)
    p = store.add("w", (3, 2), init="uniform_fan_in")
    start = p.data.copy()
    state = AdamState.for_params(store, lr=1e-2)
    grads = [rng.normal(size=(3, 2)) for _ in range(7)]
    for g in grads:
        p.grad[...] = g
        adam_step(store, state)
    # independent reference: textbook update equations
    theta = start.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 1e-2 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert np.allclose(p.data, theta, atol=1e-15)


def test_adam_zero_gradient_leaves_parameter_bitwise_unchanged():
    store = ParamStore(seed=2)
    p = store.add("w", (4,), init="uniform_fan_in")
    q = store.add("z", (4,), init="uniform_fan_in")
    before = p.data.tobytes()
    state = AdamState.for_params(store, lr=0.1)
    q.grad[...] = 1.0
    for _ in range(5):
        adam_step(store, state)
        q.grad[...] = 1.0
    assert p.data.tobytes() == before


def test_adam_rejects_non_finite_gradient():
    store = ParamStore(seed=0)
    p = store.add("block/w", (2,))
    p.grad[...] = np.array([1.0, np.nan])
    state = AdamState.for_params(store)
    with pytest.raises(NonFiniteGradientError, match="block/w"):
        adam_step(store, state)


def _quadratic_params():
    store = ParamStore(seed=3)
    store.add("a", (3, 3), init="uniform_fan_in")
    store.add("b", (3,), init="uniform_fan_in", fan_in=1)
    return store


def test_grad_check_accepts_correct_gradients():
    target = np.arange(9.0).reshape(3, 3) / 10.0

    def loss_fn(params):
        z = matmul(params["a"], params["a"]) + params["b"]
        d = z - constant(target)
        return (d * d).sum() + sigmoid(params["b"]).sum() * 0.3

    err = grad_check(loss_fn, _quadratic_params(), probe_eps=1e-5, n_samples=64)
    assert err < 1e-8


def test_grad_check_flags_a_broken_gradient():
    def loss_fn(params):
        a = params["a"]
        # second term reads the buffer outside the tape, so its gradient
        # contribution is invisible to backward but not to differences
        hidden = constant(a.data * a.data)
        return (a * a).sum() + hidden.sum()

    err = grad_check(loss_fn, _quadratic_params(), n_samples=32)
    assert err > 1e-2


def test_grad_check_rejects_nondeterministic_objective():
    def loss_fn(params):
        noise = np.random.random()
        return (params["a"] * noise).sum()

    with pytest.raises(NonDeterministicObjectiveError, match="non-deterministic"):
        grad_check(loss_fn, _quadratic_params())


def _math_sigmoid(v: float) -> float:
    """1 / (1 + e^-v) from the math module, one float at a time."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # e^-v past the float range: the value is 0 to the last bit
        return 0.0


def test_sigmoid_matches_a_math_exp_reference():
    rng = np.random.default_rng(16)
    x = np.concatenate([rng.uniform(-750.0, 750.0, 20000), rng.uniform(-40.0, 40.0, 20000),
                        rng.normal(size=20000)])
    reference = np.array([_math_sigmoid(v) for v in x])
    assert np.abs(pastnet.numcore.sigmoid(x) - reference).max() <= 2.3e-16


def test_sigmoid_saturates_and_keeps_nan_without_warnings():
    x = np.array([-800.0, 800.0, -np.inf, np.inf, np.nan])
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        y = pastnet.numcore.sigmoid(x)
    assert y[:4].tolist() == [0.0, 1.0, 0.0, 1.0]
    assert np.isnan(y[4])


def test_sigmoid_in_place_and_on_strided_views():
    rng = np.random.default_rng(17)
    x = rng.normal(scale=30.0, size=(64, 80))
    expected = pastnet.numcore.sigmoid(x.copy())
    for view in (x[::3, 1::2], x[:, 40:], x.T):
        dense = np.ascontiguousarray(view)
        assert pastnet.numcore.sigmoid(view).tobytes() == pastnet.numcore.sigmoid(dense).tobytes()
    y = x.copy()
    assert pastnet.numcore.sigmoid(y, out=y) is y
    assert y.tobytes() == expected.tobytes()
    gate = x.copy()[:, 40:]  # cgm's gate: the right half of the projection, in place
    pastnet.numcore.sigmoid(gate, out=gate)
    assert gate.tobytes() == np.ascontiguousarray(expected[:, 40:]).tobytes()


def test_numcore_exports_only_what_the_library_imports():
    # matmul is reached through @; grad_check and the error classes are the
    # package's verification API, which callers use to check their models
    exempt = {
        "matmul",
        "grad_check",
        "EmptyMaskError",
        "NonDeterministicObjectiveError",
        "NonFiniteGradientError",
    }
    package = pathlib.Path(pastnet.numcore.__file__).parents[1]
    imported = set()
    for path in package.glob("*.py"):  # the library outside numcore/
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module is not None:
                if node.module.removeprefix("pastnet.").split(".")[0] == "numcore":
                    imported.update(alias.name for alias in node.names)
    unused = sorted(set(pastnet.numcore.__all__) - imported - exempt)
    assert not unused, f"numcore exports names the library never imports: {unused}"
