"""Cross-gated branch: gating arithmetic against hand cases and a composite
reference, lookups and hidden export through the batched forward, and the
slot-path forward against the full (B, L, N, d) grid it replaces."""
import numpy as np
import pytest

from kernel_check import (
    TOL,
    check_kernel,
    logistic,
    mean,
    poison_returned_buffers,
    sigmoid,
    tanh,
)
from pastnet import cgm
from pastnet.cgm import CgmModule, cross_gate_layer, default_partition
from pastnet.model import ModelConfig, PastModel, impute_span
from pastnet.numcore import (
    ParamStore,
    Tensor,
    concat,
    constant,
    embedding,
    grad_check,
    buffer_pool,
    masked_mse,
    no_grad,
)
from pastnet.numcore import tensor


def build_module(N=3, d=4, n=2, seed=0, L=1):
    params = ParamStore(seed=seed)
    module = CgmModule.build(params, ModelConfig(L=L, N=N, d=d, n=n))
    return module, params


def test_default_partition():
    assert default_partition(64) == (16, 32, 16)
    assert default_partition(4) == (1, 2, 1)
    assert sum(default_partition(10)) == 10
    with pytest.raises(ValueError):
        default_partition(3)


def gate_args(d, rng=None, zeros=False):
    if zeros:
        return [constant(np.zeros((d, d))) for _ in range(4)]
    return [constant(rng.normal(size=(d, d))) for _ in range(4)]


def test_cross_gate_zero_weights_identity():
    rng = np.random.default_rng(0)
    v_s = rng.normal(size=(5, 3))
    v_t = rng.normal(size=(5, 3))
    out_s, out_t = cross_gate_layer(v_s, v_t, *gate_args(3, zeros=True))
    assert np.array_equal(out_s.data, v_s)
    assert np.array_equal(out_t.data, v_t)


def test_cross_gate_tanh_gate_off():
    rng = np.random.default_rng(1)
    d = 4
    w_sp, w_tp, w_sg = (constant(rng.normal(size=(d, d))) for _ in range(3))
    w_tg = constant(np.zeros((d, d)))
    v_s = rng.normal(size=(6, d))
    v_t = rng.normal(size=(6, d))
    out_s, out_t = cross_gate_layer(v_s, v_t, w_sp, w_tp, w_sg, w_tg)
    # tanh(v_t W_tg) = 0 zeroes the spatial update entirely
    assert np.array_equal(out_s.data, v_s)
    # the temporal update survives through sigmoid(0) = 0.5
    assert not np.array_equal(out_t.data, v_t)


def test_cross_gate_hand_case_unit_weights():
    eye = constant(np.eye(2))
    v_s = np.array([1.0, 0.0])
    v_t = np.array([0.0, 1.0])
    out_s, out_t = cross_gate_layer(v_s, v_t, eye, eye, eye, eye)
    # every update coordinate carries a tanh(0) factor here, so both
    # streams pass through unchanged
    assert np.allclose(out_s.data, [1.0, 0.0], atol=1e-15)
    assert np.allclose(out_t.data, [0.0, 1.0], atol=1e-15)


def test_cross_gate_hand_case_all_ones():
    eye = constant(np.eye(2))
    ones = np.array([1.0, 1.0])
    out_s, out_t = cross_gate_layer(ones, ones, eye, eye, eye, eye)
    lift = 1.0 + logistic(1.0) * np.tanh(1.0)
    assert np.allclose(out_s.data, [lift, lift], atol=1e-15)
    assert np.allclose(out_t.data, [lift, lift], atol=1e-15)


def test_cross_gate_hand_case_mixed_gates():
    # W_sg = 0 freezes the sigmoid at 0.5; W_tg = I keeps tanh live
    d = 2
    eye = constant(np.eye(d))
    zero = constant(np.zeros((d, d)))
    rng = np.random.default_rng(2)
    v_s = rng.normal(size=(3, d))
    v_t = rng.normal(size=(3, d))
    out_s, out_t = cross_gate_layer(v_s, v_t, eye, eye, zero, eye)
    assert np.allclose(out_s.data, v_s + 0.5 * v_s * np.tanh(v_t), atol=1e-14)
    # temporal side: sigma(v_t) * tanh(0) = 0
    assert np.array_equal(out_t.data, v_t)


def test_cross_gate_pre_gate_term_linear_in_stream():
    # gates held fixed (W_sg = 0, v_t fixed): doubling v_s doubles the update
    d = 3
    eye = constant(np.eye(d))
    zero = constant(np.zeros((d, d)))
    rng = np.random.default_rng(3)
    v_t = rng.normal(size=(4, d))
    v_s = rng.normal(size=(4, d))
    up1 = cross_gate_layer(v_s, v_t, eye, eye, zero, eye)[0].data - v_s
    up2 = cross_gate_layer(2.0 * v_s, v_t, eye, eye, zero, eye)[0].data - 2.0 * v_s
    assert np.allclose(up2, 2.0 * up1, atol=1e-12)


def test_cross_gate_matches_per_pair_loop():
    rng = np.random.default_rng(4)
    d = 3
    weights = gate_args(d, rng)
    v_s = rng.normal(size=(2, 5, d))
    v_t = rng.normal(size=(2, 5, d))
    out_s, out_t = cross_gate_layer(v_s, v_t, *weights)
    for i in range(2):
        for j in range(5):
            es, et = cross_gate_layer(v_s[i, j], v_t[i, j], *weights)
            assert np.allclose(out_s.data[i, j], es.data, atol=1e-12)
            assert np.allclose(out_t.data[i, j], et.data, atol=1e-12)


def test_cross_gate_broadcast_streams_match_full_streams():
    rng = np.random.default_rng(7)
    d = 3
    w0 = [rng.normal(size=(d, d)) for _ in range(4)]
    node = rng.normal(size=(1, 1, 4, d))
    stamp = rng.normal(size=(2, 5, 1, d))
    full = (2, 5, 4, d)
    results = []
    for v_s, v_t in ((node, stamp), (np.broadcast_to(node, full), np.broadcast_to(stamp, full))):
        weights = [Tensor(w, requires_grad=True) for w in w0]
        out_s, out_t = cross_gate_layer(v_s, v_t, *weights)
        assert out_s.shape == out_t.shape == full
        (out_s * out_t).sum().backward()
        results.append((out_s.data, out_t.data, [w.grad for w in weights]))
    (s_b, t_b, g_b), (s_f, t_f, g_f) = results
    assert np.allclose(s_b, s_f, atol=1e-12) and np.allclose(t_b, t_f, atol=1e-12)
    for a, b in zip(g_b, g_f):
        assert np.allclose(a, b, atol=1e-12)
    with pytest.raises(ValueError):
        cross_gate_layer(np.zeros((2, d)), np.zeros((3, d)), *map(constant, w0))


def test_cross_gate_outputs_never_alias_the_scratch_pool(monkeypatch):
    # slot_rows' pattern: a broadcast first layer feeding full-shape layers,
    # in a pool without a tape, every temporary taken from the arena
    monkeypatch.setattr(tensor, "HEAP_ADJOINT_BYTES", 0)
    rng = np.random.default_rng(8)
    d = 3
    weights = [[constant(rng.normal(size=(d, d))) for _ in range(4)] for _ in range(3)]
    node, stamp = rng.normal(size=(1, 4, d)), rng.normal(size=(5, 1, d))
    streams = []
    real_gated = cgm._gated

    def recorded_stream(stream, *args):
        streams.append(stream)
        return real_gated(stream, *args)

    monkeypatch.setattr(cgm, "_gated", recorded_stream)

    def layers():
        outs, s, t = [], node, stamp
        for w in weights:
            s, t = cross_gate_layer(s, t, *w)
            outs += [s.data, t.data]
        return outs

    recorded = layers()
    streams.clear()
    with buffer_pool() as pool, no_grad():
        outs = layers()
        arena = pool.arena_buffers()
        steps = pool.steps
    assert len(streams) == 2 * len(weights)
    # the gate keeps nothing but its outputs: they are the pool's step buffers
    assert len(steps) == len(outs)
    assert all(out.base is buf for out, buf in zip(outs, steps))
    for i, out in enumerate(outs):
        assert np.array_equal(out, recorded[i])
        assert all(not np.shares_memory(out, buf) for buf in arena)
        assert all(not np.shares_memory(out, other) for other in outs[i + 1 :])


def cross_gate_reference(v_s, v_t, w_sp, w_tp, w_sg, w_tg):
    """The cross gate composed from numcore primitives."""
    shape = np.broadcast_shapes(v_s.shape, v_t.shape)
    s = v_s.reshape(1, -1) if v_s.ndim == 1 else v_s
    t = v_t.reshape(1, -1) if v_t.ndim == 1 else v_t
    v_sg = s @ w_sg
    v_tg = t @ w_tg
    out_s = s + (s @ w_sp) * sigmoid(v_sg) * tanh(v_tg)
    out_t = t + (t @ w_tp) * sigmoid(v_tg) * tanh(v_sg)
    return out_s.reshape(shape), out_t.reshape(shape)


@pytest.mark.parametrize(
    "s_shape, t_shape",
    [((1, 1, 4, 3), (2, 5, 1, 3)), ((2, 5, 3), (2, 5, 3)), ((3,), (3,))],
    ids=["broadcast", "equal", "one-d"],
)
def test_cross_gate_kernel_matches_composite(s_shape, t_shape):
    rng = np.random.default_rng(len(s_shape))
    d = s_shape[-1]
    arrays = [rng.normal(size=s_shape), rng.normal(size=t_shape)]
    arrays += [rng.normal(size=(d, d)) for _ in range(4)]
    check_kernel(cross_gate_layer, cross_gate_reference, arrays, seed=len(s_shape))


@pytest.mark.parametrize("differentiable", ["s", "t", "both"])
@pytest.mark.parametrize("streams", ["broadcast", "full"])
def test_cross_gate_vjps_recompute_from_inputs_alone(monkeypatch, streams, differentiable):
    # two gate layers in a pool that poisons every buffer handed back, every
    # temporary from the arena: the forward keeps only its outputs and hands
    # its projections, sigmoids, tanhs and updates back when the layer's
    # node is made, so a VJP that read one instead of recomputing it would
    # see NaN.
    # Only one stream's input and weights, or both streams', take adjoints,
    # so the VJP also passes back through each stream alone.  Two backward
    # passes give the bits of the same layers outside any pool, and both
    # match the composite reference.
    monkeypatch.setattr(tensor, "HEAP_ADJOINT_BYTES", 0)
    rng = np.random.default_rng(43)
    d = 3
    shapes = {"broadcast": [(1, 4, d), (5, 1, d)], "full": [(5, 4, d), (5, 4, d)]}[streams]
    arrays = [rng.normal(size=shape) for shape in shapes]
    arrays += [rng.normal(size=(d, d)) for _ in range(4)]  # w_sp, w_tp, w_sg, w_tg
    wanted = {"s": (0, 2, 4), "t": (1, 3, 5), "both": range(6)}[differentiable]
    cotangents = [rng.normal(size=(5, 4, d)) for _ in range(2)]

    def two_layers(gate):
        tensors = [Tensor(a.copy(), requires_grad=i in wanted) for i, a in enumerate(arrays)]
        v_s, v_t, *weights = tensors
        out_s, out_t = gate(*gate(v_s, v_t, *weights), *weights)
        passes = []
        for _ in range(2):
            loss = (out_s * constant(cotangents[0])).sum() + (out_t * constant(cotangents[1])).sum()
            loss.backward()
            passes.append([t.grad for t in tensors if t.requires_grad])
            for t in tensors:
                t.grad = None
        return passes

    plain, again = two_layers(cross_gate_layer)
    reference, _ = two_layers(cross_gate_reference)
    poison_returned_buffers(monkeypatch)
    with buffer_pool():
        pooled = two_layers(cross_gate_layer)
    assert len(plain) == len(wanted)
    for grads in (again, *pooled):
        assert all(g.tobytes() == p.tobytes() for g, p in zip(grads, plain, strict=True))
    for g, r in zip(plain, reference, strict=True):
        assert np.allclose(g, r, rtol=TOL, atol=TOL), np.max(np.abs(g - r))


@pytest.mark.parametrize("read", ["s", "t"])
@pytest.mark.parametrize("streams", ["broadcast", "full"])
def test_cross_gate_vjp_of_a_loss_that_reads_one_output(streams, read):
    # a loss that reads one output leaves the other unreached: the VJP takes
    # zeros for its adjoint and still returns one for every input
    rng = np.random.default_rng(44)
    d = 3
    shapes = {"broadcast": [(1, 4, d), (5, 1, d)], "full": [(5, 4, d), (5, 4, d)]}[streams]
    arrays = [rng.normal(size=shape) for shape in shapes]
    arrays += [rng.normal(size=(d, d)) for _ in range(4)]
    cotangent = constant(rng.normal(size=(5, 4, d)))

    def grads(gate):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out_s, out_t = gate(*tensors)
        ((out_s if read == "s" else out_t) * cotangent).sum().backward()
        return [t.grad for t in tensors]

    kernel, reference = grads(cross_gate_layer), grads(cross_gate_reference)
    # the composite never reaches the other stream's W_p; the kernel returns its zeros
    unreached = 3 if read == "s" else 2
    assert reference[unreached] is None and not np.any(kernel[unreached])
    reference[unreached] = np.zeros((d, d))
    for g, r in zip(kernel, reference, strict=True):
        assert np.allclose(g, r, rtol=TOL, atol=TOL), np.max(np.abs(g - r))


def test_a_train_step_runs_each_gate_stream_twice_and_one_vjp_per_layer(monkeypatch):
    # each cross-gate layer is one tape node with two outputs: over one
    # train() step each stream's projection and gate product run over each
    # of its rows once forward and once in the layer's one VJP call, which
    # returns exactly one adjoint for each of the layer's six inputs
    from pastnet.data import WindowBatch
    from pastnet.model import TrainConfig, train

    L, N, n = 12, 3, 3
    model = PastModel.build(ModelConfig(L=L, N=N, d=8, n=n, K=1, seed=4),
                            adjacency=np.ones((N, N)) - np.eye(N))
    gated = []  # per call: the stream's projection weight and the values it gated
    real_gated = cgm._gated

    def counted(stream, rows, buffers):
        v, w_p, _ = stream
        gated.append((w_p, v[rows].size))
        return real_gated(stream, rows, buffers)

    adjoints = []  # per gate VJP call: the node's inputs and what it returned for each
    real_layer = cgm.cross_gate_layer

    inputs_of = []  # each layer's two stream inputs

    def recorded_layer(*args):
        inputs_of.append(args[:2])
        out_s, out_t = real_layer(*args)
        (node,) = out_s._parents
        assert out_t._parents == (node,)
        real_vjp = node._vjp

        def vjp(*gs):
            grads = real_vjp(*gs)
            adjoints.append(list(zip(node._parents, grads, strict=True)))
            return grads

        node._vjp = vjp
        return out_s, out_t

    monkeypatch.setattr(cgm, "_gated", counted)
    monkeypatch.setattr(cgm, "cross_gate_layer", recorded_layer)
    rng = np.random.default_rng(0)
    values = rng.normal(size=(2, L, N))
    t = np.arange(2 * L).reshape(2, L)
    windows = WindowBatch(values, (rng.random((2, L, N)) < 0.7).astype(float),
                          t // 96 % 7, t // 4 % 24, t % 4, np.array([0, L]))
    train(model, windows, TrainConfig(lr=1e-2, batch_size=2, epochs=1))
    p = model.params
    for i, (s_in, t_in) in enumerate(inputs_of):
        for name, stream in (("W_sp", s_in), ("W_tp", t_in)):
            runs = sum(size for w, size in gated if w is p[f"cgm/layer{i}/{name}"].data)
            assert runs == 2 * stream.data.size  # once forward, once in the VJP
    assert sum(size for _, size in gated) == 2 * sum(s.data.size + t.data.size for s, t in inputs_of)
    assert len(adjoints) == n
    inputs = [parent for call in adjoints for parent, g in call if g is not None]
    assert len(inputs) == 6 * n and len({id(x) for x in inputs}) == 6 * n


def test_forward_shapes_and_determinism():
    module, _ = build_module(N=4, d=8, n=3)
    rng = np.random.default_rng(5)
    B, L = 2, 6
    week = rng.integers(0, 7, size=(B, L))
    hour = rng.integers(0, 24, size=(B, L))
    bucket = rng.integers(0, 4, size=(B, L))
    y, hiddens = module.forward(week, hour, bucket)
    assert y.shape == (B, L, 4)
    assert len(hiddens) == 3
    assert all(h.shape == (B, 4, 8) for h in hiddens)
    y2, hiddens2 = module.forward(week, hour, bucket)
    assert np.array_equal(y.data, y2.data)
    for h, h2 in zip(hiddens, hiddens2):
        assert np.array_equal(h.data, h2.data)


def test_forward_zero_gates_is_layer0_broadcast():
    module, params = build_module(N=3, d=4, n=2)
    for i in range(2):
        for name in ("W_sp", "W_tp", "W_sg", "W_tg"):
            params[f"cgm/layer{i}/{name}"].data[...] = 0.0
    params["cgm/head/W"].data[...] = 0.0
    params["cgm/head/b"].data[...] = 0.42
    week = np.array([[0, 1, 2]])
    hour = np.array([[3, 4, 5]])
    bucket = np.array([[0, 1, 2]])
    y, hiddens = module.forward(week, hour, bucket)
    assert np.allclose(y.data, 0.42, atol=1e-15)
    # hidden vectors reduce to proj(mean of the layer-0 concat) + bias
    node = params["cgm/embed/node"].data
    stamp = np.concatenate(
        [
            params["cgm/embed/week"].data[week[0]],
            params["cgm/embed/hour"].data[hour[0]],
            params["cgm/embed/minute"].data[bucket[0]],
        ],
        axis=1,
    )
    t_mean = stamp.mean(axis=0)
    for i in range(2):
        w = params[f"cgm/layer{i}/hidden/W"].data
        b = params[f"cgm/layer{i}/hidden/b"].data
        for u in range(3):
            expected = np.concatenate([node[u], t_mean]) @ w + b
            assert np.allclose(hiddens[i].data[0, u], expected, atol=1e-12)


def layer0_pairs(week, hour, bucket, d=8):
    """Embed node and calendar features and read the layer-0 pairs back.

    Zero gates leave every (t, u) pair at concat(node row u, stamp row t);
    a one-hot head reads one coordinate of that pair back out per forward.
    Returns the (L, N, 2d) readout and the parameters it came from.
    """
    module, params = build_module(N=3, d=d, n=1, seed=1)
    for name in ("W_sp", "W_tp", "W_sg", "W_tg"):
        params[f"cgm/layer0/{name}"].data[...] = 0.0
    head = params["cgm/head/W"].data
    readout = []
    for j in range(2 * d):
        head[...] = 0.0
        head[j, 0] = 1.0
        y, _ = module.forward(week, hour, bucket)
        readout.append(y.data[0])  # (L, N)
    return np.stack(readout, axis=-1), params


def test_embed_external_structure():
    week = np.array([[2, 2, 6]])
    hour = np.array([[13, 13, 0]])
    bucket = np.array([[0, 3, 1]])
    readout, params = layer0_pairs(week, hour, bucket)
    node = params["cgm/embed/node"].data
    stamp = np.concatenate(
        [
            params["cgm/embed/week"].data[week[0]],
            params["cgm/embed/hour"].data[hour[0]],
            params["cgm/embed/minute"].data[bucket[0]],
        ],
        axis=1,
    )
    assert readout.shape == (3, 3, 16)
    for t in range(3):
        for u in range(3):
            assert np.array_equal(readout[t, u], np.concatenate([node[u], stamp[t]]))
    again, _ = layer0_pairs(week, hour, bucket)
    assert np.array_equal(again, readout)


def test_embed_external_minute_change_touches_only_tail():
    # steps 0 and 1 differ in minute bucket only
    readout, _ = layer0_pairs(np.array([[1, 1]]), np.array([[5, 5]]), np.array([[0, 2]]))
    d_week, d_hour, _ = default_partition(8)
    head_end = 8 + d_week + d_hour
    assert np.array_equal(readout[0, :, :head_end], readout[1, :, :head_end])
    assert not np.array_equal(readout[0, :, head_end:], readout[1, :, head_end:])


def test_embed_external_range_errors():
    module, _ = build_module()
    zeros = np.zeros((1, 2), int)
    for bad in ([[0, 7]], [[0, -1]]):
        with pytest.raises(ValueError, match="week index"):
            module.forward(np.array(bad), zeros, zeros)
    for bad in ([[24, 0]], [[-1, 0]]):
        with pytest.raises(ValueError, match="hour index"):
            module.forward(zeros, np.array(bad), zeros)
    for bad in ([[0, 4]], [[-1, 0]]):
        with pytest.raises(ValueError, match="minute_bucket index"):
            module.forward(zeros, zeros, np.array(bad))


def test_forward_identical_node_embeddings_identical_columns():
    module, params = build_module(N=3, d=4, n=2, seed=9)
    params["cgm/embed/node"].data[2] = params["cgm/embed/node"].data[0]
    rng = np.random.default_rng(6)
    week = rng.integers(0, 7, size=(1, 5))
    hour = rng.integers(0, 24, size=(1, 5))
    bucket = rng.integers(0, 4, size=(1, 5))
    y, hiddens = module.forward(week, hour, bucket)
    assert np.allclose(y.data[0, :, 0], y.data[0, :, 2], atol=1e-12)
    for h in hiddens:
        assert np.allclose(h.data[0, 0], h.data[0, 2], atol=1e-12)


@pytest.mark.parametrize(
    "field, stamp, alias",
    [
        ("hour", (3, 24, 0), (4, 0, 0)),
        ("minute_bucket", (3, 5, 4), (3, 6, 0)),
        ("hour", (2, -1, 1), (1, 23, 1)),
        ("minute_bucket", (3, 5, -1), (3, 4, 3)),
    ],
    ids=["hour-24", "minute-4", "hour-neg", "minute-neg"],
)
def test_out_of_range_stamp_raises_instead_of_aliasing_a_slot(field, stamp, alias):
    # each bad stamp encodes to the slot code of a valid stamp, so only the
    # range check keeps it from silently reading that other slot
    def code(week, hour, minute):
        return (week * 24 + hour) * 4 + minute

    assert code(*stamp) == code(*alias)
    module, _ = build_module()
    week, hour, bucket = (np.array([[v, a]]) for v, a in zip(stamp, alias))
    with pytest.raises(ValueError, match=f"{field} index"):
        module.forward(week, hour, bucket)


def test_forward_validation():
    module, _ = build_module()
    with pytest.raises(ValueError):
        module.forward(np.array([[0, 7]]), np.zeros((1, 2), int), np.zeros((1, 2), int))
    with pytest.raises(ValueError):
        module.forward(np.zeros((1, 2), int), np.zeros((1, 3), int), np.zeros((1, 2), int))
    with pytest.raises(ValueError):
        module.forward(np.array([0, 1]), np.array([0, 1]), np.array([0, 1]))  # 1-d


def test_gate_matrices_count_exactly_4d2():
    d = 8
    module, params = build_module(N=3, d=d, n=2)
    for i in range(2):
        gate_paths = [
            p
            for p, _ in params.items()
            if p.startswith(f"cgm/layer{i}/") and p.split("/")[-1].startswith("W_")
        ]
        assert len(gate_paths) == 4
        total = sum(params[p].data.size for p in gate_paths)
        assert total == 4 * d * d


def test_cgm_gradients_pass_finite_difference_check():
    module, params = build_module(N=3, d=4, n=2, seed=4)
    rng = np.random.default_rng(8)
    week = rng.integers(0, 7, size=(2, 5))
    hour = rng.integers(0, 24, size=(2, 5))
    bucket = rng.integers(0, 4, size=(2, 5))
    target = rng.normal(size=(2, 5, 3))
    mask = (rng.random((2, 5, 3)) > 0.4).astype(float)
    probe = [constant(rng.normal(size=(2, 3, 4))) for _ in range(2)]

    def loss_fn(p):
        y, hiddens = module.forward(week, hour, bucket)
        loss = masked_mse(y, target, mask)
        for h, c in zip(hiddens, probe):
            loss = loss + (h * c).sum() * 0.1  # route gradients through hiddens
        return loss

    err = grad_check(loss_fn, params, probe_eps=1e-5, n_samples=48, seed=2)
    assert err < 1e-4


def full_grid_forward(module, week, hour, bucket):
    """Reference cgm forward: every layer over the full (B, L, N, d) grid.

    Layer 0 gates a (1, 1, N, d) node stream against a (B, L, 1, d) stamp
    stream; the surface is the head over every (b, l, u) pair and each
    hidden state projects the time-mean of its layer's pairs.
    """
    cfg, p = module.config, module.params
    B, L = week.shape
    N, d = cfg.N, cfg.d
    s_stream = embedding(p["cgm/embed/node"], np.arange(N)).reshape(1, 1, N, d)
    stamp = concat(
        [
            embedding(p["cgm/embed/week"], week),
            embedding(p["cgm/embed/hour"], hour),
            embedding(p["cgm/embed/minute"], bucket),
        ],
        axis=2,
    )
    t_stream = stamp.reshape(B, L, 1, d)
    hiddens = []
    for i in range(cfg.n):
        prefix = f"cgm/layer{i}"
        s_stream, t_stream = cross_gate_layer(
            s_stream, t_stream, *(p[f"{prefix}/{w}"] for w in ("W_sp", "W_tp", "W_sg", "W_tg"))
        )
        pair = concat([s_stream, t_stream], axis=3)
        pooled = mean(pair, axis=1)
        hiddens.append(pooled @ p[f"{prefix}/hidden/W"] + p[f"{prefix}/hidden/b"])
    y = (pair @ p["cgm/head/W"] + p["cgm/head/b"]).reshape(B, L, N)
    return y, hiddens


def whole_days(days, L=96):
    """Calendar of one stride-L window per day index, 15-minute steps from midnight."""
    step = np.arange(L)
    week = np.repeat(np.asarray(days)[:, None] % 7, L, axis=1)
    hour = np.broadcast_to(step // 4 % 24, week.shape)
    bucket = np.broadcast_to(step % 4, week.shape)
    return week, hour, bucket


def random_calendar(B, L, seed, cards=(7, 24, 4)):
    rng = np.random.default_rng(seed)
    return tuple(rng.integers(0, c, size=(B, L)) for c in cards)


def distinct_slots(B, L, seed):
    codes = np.random.default_rng(seed).choice(672, size=(B, L), replace=False)
    return codes // 96, codes // 4 % 24, codes % 4


def _outputs_and_grads(forward, module, params, calendar, cotangents):
    params.zero_grads()
    y, hiddens = forward(module, *calendar)
    total = (y * cotangents[0]).sum()
    for h, c in zip(hiddens, cotangents[1:]):
        total = total + (h * c).sum()
    total.backward()
    grads = {path: t.grad.copy() for path, t in params.items()}
    return y.data, [h.data for h in hiddens], grads


@pytest.mark.parametrize(
    "calendar, n_slots",
    [
        # days 0-8: windows 7 and 8 repeat the slots of windows 0 and 1
        (whole_days(np.arange(9)), 672),
        # three weekdays and four hours: slots repeat within each window
        (random_calendar(3, 40, seed=10, cards=(3, 4, 4)), None),
        (distinct_slots(4, 24, seed=11), 96),  # S = B * L
    ],
    ids=["across-windows", "within-window", "all-distinct"],
)
def test_slot_forward_matches_full_grid(calendar, n_slots):
    module, params = build_module(N=3, d=8, n=3, seed=12)
    week, hour, bucket = calendar
    codes = (week * 24 + hour) * 4 + bucket
    if n_slots is None:
        assert all(np.unique(row).size < row.size for row in codes)
    else:
        assert np.unique(codes).size == n_slots
    B, L = week.shape
    rng = np.random.default_rng(13)
    cotangents = [rng.normal(size=(B, L, 3))] + [rng.normal(size=(B, 3, 8)) for _ in range(3)]
    y, hiddens, grads = _outputs_and_grads(
        lambda m, *c: m.forward(*c), module, params, calendar, cotangents
    )
    y_ref, hiddens_ref, grads_ref = _outputs_and_grads(
        full_grid_forward, module, params, calendar, cotangents
    )
    assert np.array_equal(y, y_ref)
    for h, h_ref in zip(hiddens, hiddens_ref, strict=True):
        assert np.allclose(h, h_ref, rtol=0.0, atol=1e-15)
    assert grads.keys() == grads_ref.keys()
    for path, g_ref in grads_ref.items():
        assert path.startswith("cgm/")
        assert np.max(np.abs(grads[path] - g_ref)) <= 1e-12 * np.max(np.abs(g_ref)), path


@pytest.mark.parametrize("tail", [0, 5], ids=["aligned", "unaligned-tail"])
def test_impute_span_runs_forward_once_per_distinct_window(tail, monkeypatch):
    """``impute_span`` runs ``CgmModule.forward`` at B=1 once per distinct
    window of slot codes, and every window gets that window's outputs.

    24 days at L=96 on a 15-minute clock start their windows on 7 distinct
    days of the week; an unaligned tail window adds one call.  The reference
    runs the full grid on each window alone, so it checks which cached
    surface and hiddens each window gets.
    """
    L, N, T = 96, 3, 24 * 96 + tail
    model = PastModel.build(ModelConfig(L=L, N=N, d=8, n=3, K=1, seed=14),
                            adjacency=np.ones((N, N)) - np.eye(N))
    t = np.arange(T)
    calendar = (t // 96 % 7, t // 4 % 24, t % 4)
    calls = []
    real_forward = CgmModule.forward

    def counted(self, *window):
        calls.append(window[0].shape)
        return real_forward(self, *window)

    monkeypatch.setattr(CgmModule, "forward", counted)
    injected, y_gim = [], []
    real_gim = model.gim.forward

    def recorded_gim(values, mask, hiddens):
        injected.append([np.array(h) for h in hiddens])
        y_gim.append(real_gim(values, mask, hiddens).data.copy())
        return constant(y_gim[-1])

    model.gim.forward = recorded_gim
    zeros = np.zeros((T, N))  # every entry missing: the output is the branch sum
    out = impute_span(model, zeros, zeros, *calendar)
    assert calls == [(1, L)] * (7 + (tail > 0))
    starts = [*range(0, T - L + 1, L), *([T - L] if tail else [])]
    y_ref, hiddens_ref = full_grid_forward(
        model.cgm, *(np.stack([c[s : s + L] for s in starts]) for c in calendar)
    )
    acc, counts = np.zeros((T, N)), np.zeros((T, 1))
    for k, s in enumerate(starts):
        acc[s : s + L] += y_ref.data[k] + y_gim[k][0]
        counts[s : s + L] += 1.0
        for h, h_ref in zip(injected[k], hiddens_ref, strict=True):
            assert np.allclose(h, h_ref.data[k : k + 1], rtol=0.0, atol=1e-12), s
    assert np.allclose(out, acc / counts, rtol=0.0, atol=1e-12)

@pytest.mark.parametrize("use_gim", [False, True], ids=["wo-gim", "past"])
def test_hiddens_are_pooled_only_for_gim(use_gim, monkeypatch):
    """Only gim reads the hiddens: without it neither ``impute_span`` nor a
    ``train`` step pools them, and ``forward`` returns none; with it both pool."""
    from pastnet.data import WindowBatch
    from pastnet.model import TrainConfig, train

    L, N, T = 12, 3, 3 * 12 + 5
    model = PastModel.build(ModelConfig(L=L, N=N, d=8, n=2, K=1, seed=4, use_gim=use_gim),
                            adjacency=np.ones((N, N)) - np.eye(N))
    calls = []
    real_pooled = CgmModule.pooled_hiddens

    def counted(self, share, streams):
        calls.append(share.shape)
        return real_pooled(self, share, streams)

    monkeypatch.setattr(CgmModule, "pooled_hiddens", counted)
    rng = np.random.default_rng(0)
    values = rng.normal(size=(T, N))
    mask = (rng.random((T, N)) < 0.7).astype(float)
    t = np.arange(T)
    calendar = (t // 96 % 7, t // 4 % 24, t % 4)
    impute_span(model, values, mask, *calendar)
    span_calls = len(calls)
    windows = WindowBatch(values[: 2 * L].reshape(2, L, N), mask[: 2 * L].reshape(2, L, N),
                          *(c[: 2 * L].reshape(2, L) for c in calendar), np.array([0, L]))
    train(model, windows, TrainConfig(lr=1e-2, batch_size=2, epochs=1))
    _, hiddens = model.cgm.forward(*(c[None, :L] for c in calendar))
    if use_gim:
        assert span_calls > 0 and len(calls) > span_calls + 1
        assert len(hiddens) == 2
    else:
        assert calls == [] and hiddens == []
