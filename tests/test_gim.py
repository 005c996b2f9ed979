"""Temporal-graph branch: adjacency rules, dropout calibration, forward
operators against hand arithmetic, composite references and an independent
dense reference."""
import contextlib
import sys
import threading

import numpy as np
import pytest

from kernel_check import (
    TOL,
    _batch_interval_dropout,
    _batch_temporal_adjacency,
    arena_in_use,
    build_temporal_adjacency,
    check_kernel,
    divide,
    poison_returned_buffers,
    relu,
    softplus,
    vertex_embedding_reference,
)
from pastnet.cgm import cross_gate_layer
from pastnet.gim import (
    DEGREE_EPS,
    GimModule,
    build_spatial_operator,
    dropout_beta,
    interval_dropout_mask,
    spatial_forward,
    temporal_forward,
    vertex_embedding,
)
from pastnet.model import ModelConfig
from pastnet.numcore import (
    ParamStore,
    Tensor,
    concat,
    constant,
    grad_check,
    masked_mse,
    buffer_pool,
    no_grad,
)
from pastnet.numcore import tensor


def test_adjacency_hand_cases():
    # L=2 both observed: mutual edges plus injection into each data vertex
    both = build_temporal_adjacency(np.array([1.0, 1.0]))
    assert np.array_equal(both, np.array([[0, 1, 1], [1, 0, 1], [0, 0, 0]], dtype=float))
    # L=2 both missing: only injection edges remain
    none = build_temporal_adjacency(np.array([0.0, 0.0]))
    assert np.array_equal(none, np.array([[0, 0, 1], [0, 0, 1], [0, 0, 0]], dtype=float))
    # L=3 mask [1,0,1]: middle vertex receives from both neighbors,
    # observed ends receive from each other but not from the missing middle
    mixed = build_temporal_adjacency(np.array([1.0, 0.0, 1.0]))
    expected = np.array(
        [
            [0, 0, 1, 1],
            [1, 0, 1, 1],
            [1, 0, 0, 1],
            [0, 0, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(mixed, expected)


def test_adjacency_without_injection():
    adj = build_temporal_adjacency(np.array([1.0, 0.0, 1.0]), include_injection=False)
    assert np.all(adj[:, 3] == 0.0)
    assert np.all(adj[3, :] == 0.0)
    assert np.array_equal(adj[:3, :3], np.array([[0, 0, 1], [1, 0, 1], [1, 0, 0]], dtype=float))


def test_adjacency_validation():
    with pytest.raises(ValueError):
        build_temporal_adjacency(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        build_temporal_adjacency(np.ones((2, 2)))


def test_batch_adjacency_matches_single():
    rng = np.random.default_rng(0)
    cols = (rng.random((20, 7)) > 0.4).astype(float)
    batched = _batch_temporal_adjacency(cols, True)
    for g in range(20):
        assert np.array_equal(batched[g], build_temporal_adjacency(cols[g]))


def test_dropout_beta_alpha_zero_collapses_to_log_p():
    assert dropout_beta(0.0, 0.1, 96) == pytest.approx(np.log(0.1), abs=1e-12)
    assert dropout_beta(0.0, 0.1, 96) == pytest.approx(-2.302585, abs=1e-6)


def test_dropout_beta_against_direct_double_sum():
    alpha, p, L = 0.1, 0.1, 96
    total = 0.0
    for i in range(L):
        for j in range(L):
            total += np.exp(-alpha * abs(i - j))
    expected = np.log(p * L * L / total)
    got = dropout_beta(alpha, p, L)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-0.625, abs=1e-3)


def test_dropout_beta_mean_pair_probability_is_p():
    alpha, p, L = 0.1, 0.1, 96
    beta = dropout_beta(alpha, p, L)
    idx = np.arange(L)
    probs = np.minimum(1.0, np.exp(-alpha * np.abs(idx[:, None] - idx[None, :]) + beta))
    assert np.max(probs) < 1.0  # no clamping at this calibration
    assert probs.mean() == pytest.approx(p, abs=1e-9)


def test_dropout_beta_validation():
    with pytest.raises(ValueError):
        dropout_beta(-0.1, 0.1, 96)
    with pytest.raises(ValueError):
        dropout_beta(0.1, 0.0, 96)
    with pytest.raises(ValueError):
        dropout_beta(0.1, 0.1, 0)


def drop_one(adj, col, alpha, beta, seed):
    """Edge dropout on one graph through the batched sampler (G=1)."""
    return _batch_interval_dropout(adj[None], col[None, :], alpha, beta, np.random.default_rng(seed))[0]


def test_interval_dropout_eval_passthrough():
    # eval mode samples no dropout: it matches a dropout-free module in
    # training mode bit for bit and leaves the generator untouched
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 8, 3))
    m = (rng.random((1, 8, 3)) > 0.5).astype(float)
    module, _ = build_module(L=8, N=3, n=2, d=4, K=1, seed=3, p_dropout=0.5)
    free, _ = build_module(L=8, N=3, n=2, d=4, K=1, seed=3, p_dropout=0.0)
    gen = np.random.default_rng(7)
    state = gen.bit_generator.state
    out = module.forward(x, m, None, training=False, rng=gen).data
    assert gen.bit_generator.state == state
    assert np.array_equal(out, free.forward(x, m, None, training=True, rng=gen).data)


def test_interval_dropout_only_hits_observed_to_missing():
    col = np.array([1.0, 0.0, 1.0])
    adj = build_temporal_adjacency(col)
    # beta so large every eligible edge has drop probability 1
    out = drop_one(adj, col, 0.1, 50.0, seed=0)
    expected = adj.copy()
    expected[1, 0] = 0.0  # observed 0 -> missing 1
    expected[1, 2] = 0.0  # observed 2 -> missing 1
    assert np.array_equal(out, expected)
    # missing vertex keeps its injection edge: the graph stays valid
    assert out[1, 3] == 1.0


def test_interval_dropout_deterministic_per_seed():
    col = (np.random.default_rng(1).random(24) > 0.5).astype(float)
    adj = build_temporal_adjacency(col)
    a = drop_one(adj, col, 0.05, -0.2, seed=9)
    b = drop_one(adj, col, 0.05, -0.2, seed=9)
    c = drop_one(adj, col, 0.05, -0.2, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_interval_dropout_single_edge_monte_carlo():
    # one eligible edge (observed 0 -> missing 1), drop prob exactly 0.1
    col = np.array([1.0, 0.0])
    adj = build_temporal_adjacency(col)
    beta = np.log(0.1)
    trials = 10_000
    dropped = 0
    for seed in range(trials):
        out = drop_one(adj, col, 0.0, beta, seed=seed)
        dropped += int(out[1, 0] == 0.0)
    assert abs(dropped / trials - 0.1) < 0.01


def test_interval_dropout_mask_draws_one_block_of_the_stream():
    # the draw goes into scratch: the same numbers, and the generator
    # left where a fresh rng.random((G, L, L)) leaves it
    L, G, alpha, beta = 9, 5, 0.2, -0.5
    cols = (np.random.default_rng(2).random((L, G)) > 0.4).astype(float)
    ref_rng = np.random.default_rng(11)
    idx = np.arange(L)
    prob = np.minimum(1.0, np.exp(-alpha * np.abs(idx[:, None] - idx[None, :]) + beta))
    eligible = (cols.T[:, :, None] == 0.0) & (cols.T[:, None, :] == 1.0)
    expected = [eligible & (ref_rng.random((G, L, L)) < prob) for _ in range(2)]
    for pool in (no_grad, buffer_pool):
        rng = np.random.default_rng(11)
        with pool():
            masks = [interval_dropout_mask(cols, alpha, beta, rng) for _ in range(2)]
            assert not np.shares_memory(masks[0], masks[1])  # the first survives the second
            assert all(np.array_equal(a, b) for a, b in zip(masks, expected))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_temporal_forward_single_edge_is_source_state():
    # v1's only source is v0; normalization cancels the edge weight
    columns = np.array([[1.0], [0.0]])  # (L, G): one graph, no injection vertex
    s0 = np.array([0.4, 0.7])
    states = np.array([[s0], [[0.0, 0.0]]])
    outs = []
    for logit in (1.7, -1.0):
        logits = np.zeros((3, 3))
        logits[1, 0] = logit
        out = temporal_forward(states, None, columns, None, logits, np.eye(2), np.zeros(2))
        outs.append(out.data)
        assert np.allclose(out.data[1, 0], s0, atol=1e-5)
    assert np.allclose(outs[0][1], outs[1][1], atol=1e-5)  # weight-independent


def test_temporal_forward_zero_linear_gives_zero():
    columns = np.array([[1.0], [1.0], [0.0]])
    vertices = np.random.default_rng(2).normal(size=(4, 3))
    states, injection = vertices[:3, None], vertices[3:]
    out = temporal_forward(
        states, injection, columns, None, np.ones((4, 4)), np.zeros((3, 3)), np.zeros(3)
    )
    assert np.array_equal(out.data, np.zeros((3, 1, 3)))


def test_temporal_forward_hand_case_single_vertex_plus_injection():
    # L=1 observed vertex fed only by the injection state
    columns = np.array([[1.0]])  # adjacency [[0,1],[0,0]]
    h = np.array([1.0, 2.0])
    states = np.array([[[0.2, -0.3]]])
    w = np.array([[0.5, -1.0], [0.25, 1.0]])
    b = np.array([0.1, -0.2])
    out = temporal_forward(states, h[None], columns, None, np.zeros((2, 2)), w, b)
    # hand arithmetic: edge weight softplus(0)=log 2 cancels up to eps
    c = np.log(2.0) / (np.log(2.0) + 1e-6)
    expected = np.maximum(c * h @ w + b, 0.0)
    assert np.allclose(out.data[0, 0], expected, atol=1e-14)


def test_temporal_forward_rows_are_stochastic():
    rng = np.random.default_rng(5)
    col = (rng.random(12) > 0.4).astype(float)
    adj = build_temporal_adjacency(col)
    logits = rng.normal(size=(13, 13))
    # identity readout of all-ones states exposes the row sums of D^-1 A
    out = temporal_forward(
        np.ones((12, 1, 2)), np.ones((1, 2)), col[:, None], None, logits, np.eye(2), np.zeros(2)
    )
    degrees = (adj * np.logaddexp(0.0, logits)).sum(axis=1)[:12]
    fed = degrees > 0
    assert np.allclose(out.data[fed, 0], 1.0, atol=2e-6)
    assert np.allclose(out.data[~fed, 0], 0.0)


def test_spatial_operator_identity_cases():
    op0 = build_spatial_operator(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)
    assert len(op0.normalized_powers) == 1
    assert np.allclose(op0.normalized_powers[0], np.eye(2), atol=2e-6)
    op_eye = build_spatial_operator(np.eye(3), 2)
    for p in op_eye.normalized_powers:
        assert np.allclose(p, np.eye(3), atol=2e-6)


def test_spatial_operator_path_graph_against_brute_force():
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    op = build_spatial_operator(a, 2)
    for k in range(3):
        m_k = np.linalg.matrix_power(a, k)
        d_k = m_k.sum(axis=1)
        scale = np.diag(1.0 / np.sqrt(d_k + 1e-6))
        expected = scale @ m_k @ scale
        assert np.allclose(op.normalized_powers[k], expected, atol=1e-12)
        assert np.allclose(op.normalized_powers[k], op.normalized_powers[k].T, atol=1e-12)


def test_spatial_operator_validation():
    with pytest.raises(ValueError):
        build_spatial_operator(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)  # asymmetric
    with pytest.raises(ValueError):
        build_spatial_operator(np.array([[0.0, -1.0], [-1.0, 0.0]]), 1)
    with pytest.raises(ValueError):
        build_spatial_operator(np.eye(2), -1)


def test_spatial_forward_k0_identity_weights_is_relu():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(4, 3))
    op = build_spatial_operator(np.ones((4, 4)) - np.eye(4), 0)
    out = spatial_forward(h, op, np.eye(3), np.zeros(3))
    assert np.allclose(out.data, np.maximum(h, 0.0), atol=1e-5)


def test_spatial_forward_constant_rows_on_regular_graph():
    # 4-cycle, unit weights; constant node features stay constant
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
    op = build_spatial_operator(a, 2)
    h = np.tile(np.array([0.3, -0.2]), (4, 1))
    rng = np.random.default_rng(4)
    w = rng.normal(size=(6, 2))
    out = spatial_forward(h, op, w, np.array([0.05, 0.05])).data
    for row in out[1:]:
        assert np.allclose(row, out[0], atol=1e-12)


def test_spatial_forward_two_node_hand_case():
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    op = build_spatial_operator(a, 1)
    h = np.array([[1.0, -2.0], [3.0, 0.5]])
    rng = np.random.default_rng(6)
    w = rng.normal(size=(4, 2))
    b = np.array([0.1, -0.1])
    # straight-line reference with explicit normalization
    p0 = np.eye(2) / np.sqrt((1.0 + 1e-6) * (1.0 + 1e-6))
    scale = 1.0 / np.sqrt(0.5 + 1e-6)
    p1 = np.array([[0.0, 0.5], [0.5, 0.0]]) * scale * scale
    expected = np.maximum(np.concatenate([p0 @ h, p1 @ h], axis=1) @ w + b, 0.0)
    out = spatial_forward(h, op, w, b)
    assert np.allclose(out.data, expected, atol=1e-12)


def dense_temporal(adj, vertices, logits, w, b):
    """The temporal layer on (G, L+1, d) per-graph vertex states and a dense
    (G, L+1, L+1) adjacency, composed from numcore primitives."""
    a = constant(adj) * softplus(logits)
    degree = a.sum(axis=a.ndim - 1, keepdims=True)
    return relu(divide(a @ vertices, degree + DEGREE_EPS) @ w + b)


def temporal_reference(adj):
    """``temporal_forward``'s contract through ``dense_temporal``: time-major
    data states in, the injection row appended and selected away again."""

    def reference(states, injection, logits, w, b):
        L, G, d = states.shape
        row = constant(np.zeros((G, d))) if injection is None else constant(injection)
        vertices = concat([states.transpose((1, 0, 2)), row.reshape(G, 1, d)], axis=1)
        data_rows = constant(np.eye(L, L + 1)) @ dense_temporal(adj, vertices, logits, w, b)
        return data_rows.transpose((1, 0, 2))

    return reference


def spatial_reference(op):
    """The spatial layer composed from numcore primitives."""

    def reference(h, w, b):
        parts = [constant(p) @ h for p in op.normalized_powers]
        return relu(concat(parts, axis=h.ndim - 1) @ w + b)

    return reference


def temporal_case(
    cols, include_injection, dropped=False, injection_input=False, d_in=4, d_out=3, seed=0
):
    """check_kernel on (G, L) mask columns; the reference reads the dense
    adjacency, the kernel the (L, G) columns and the bool drop mask."""
    G, L = cols.shape
    adj = _batch_temporal_adjacency(cols, include_injection)
    drop = None
    if dropped:
        drop = interval_dropout_mask(cols.T, 0.1, 0.0, np.random.default_rng(5))
        dense = _batch_interval_dropout(adj, cols, 0.1, 0.0, np.random.default_rng(5))
        assert dense.sum() < adj.sum()
        adj = dense
    rng = np.random.default_rng(seed)
    vertices = rng.normal(size=(G, L + 1, d_in))
    states = np.ascontiguousarray(vertices[:, :L].transpose(1, 0, 2))
    injection = vertices[:, L] if include_injection else None
    arrays = [
        states,
        rng.normal(size=(L + 1, L + 1)),
        rng.normal(scale=0.5, size=(d_in, d_out)),
        rng.normal(scale=0.1, size=d_out),
    ]
    reference = temporal_reference(adj)
    if injection_input:
        arrays.insert(1, injection)
        check_kernel(
            lambda s, i, lg, w, b: temporal_forward(s, i, cols.T, drop, lg, w, b),
            reference,
            arrays,
            seed=seed,
        )
        return
    check_kernel(
        lambda s, lg, w, b: temporal_forward(s, injection, cols.T, drop, lg, w, b),
        lambda s, lg, w, b: reference(s, injection, lg, w, b),
        arrays,
        seed=seed,
    )


def test_temporal_kernel_matches_composite_batched_with_zero_degree_row():
    rng = np.random.default_rng(21)
    cols = (rng.random((3, 6)) > 0.4).astype(float)
    cols[2] = 0.0
    cols[2, 4] = 1.0  # the lone observed vertex has no source without injection
    assert _batch_temporal_adjacency(cols, include_injection=False)[2, 4].sum() == 0.0
    temporal_case(cols, include_injection=False, seed=1)


def test_temporal_kernel_matches_composite_unbatched():
    # one graph (G=1)
    temporal_case(np.array([[1.0, 0.0, 1.0, 1.0, 0.0]]), include_injection=True, seed=2)


def test_temporal_kernel_matches_composite_with_dropped_edges():
    rng = np.random.default_rng(22)
    cols = (rng.random((4, 7)) > 0.5).astype(float)
    temporal_case(cols, include_injection=True, dropped=True, seed=3)


def test_temporal_kernel_matches_composite_with_differentiable_injection():
    rng = np.random.default_rng(24)
    cols = (rng.random((4, 7)) > 0.5).astype(float)
    temporal_case(cols, include_injection=True, dropped=True, injection_input=True, seed=4)


@pytest.mark.parametrize("K", [0, 2])
@pytest.mark.parametrize("lead", [(), (5,)])
def test_spatial_kernel_matches_composite(K, lead):
    rng = np.random.default_rng(23 + K)
    a = rng.random((4, 4))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    op = build_spatial_operator(a, K)
    d = 3
    arrays = [
        rng.normal(size=lead + (4, d)),
        rng.normal(scale=0.5, size=((K + 1) * d, 2)),
        rng.normal(scale=0.1, size=2),
    ]
    check_kernel(
        lambda h, w, b: spatial_forward(h, op, w, b), spatial_reference(op), arrays, seed=K
    )


@pytest.mark.parametrize("K", [0, 2])
def test_spatial_kernel_gives_the_bits_of_the_p0_gemm(K):
    # P_0 = I / (1 + eps): the kernel multiplies by its diagonal entry where
    # the stacked path multiplies by the matrix, in the forward stack and in
    # the adjoint stack G = [P_k^T gz]; out, gh and gw keep every bit of the
    # GEMM path, with both adjoints read from G
    rng = np.random.default_rng(40 + K)
    a = rng.random((7, 7))
    op = build_spatial_operator((a + a.T) / 2.0, K)
    d, e = 5, 4
    h = rng.normal(size=(12, 7, d))
    w = rng.normal(scale=0.5, size=((K + 1) * d, e))
    b = rng.normal(scale=0.1, size=e)
    cotangent = rng.normal(size=(12, 7, e))
    leaf, weight = Tensor(h.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
    out = spatial_forward(leaf, op, weight, b)
    (out * constant(cotangent)).sum().backward()

    powers = op.normalized_powers
    expected = np.maximum(np.concatenate([p @ h for p in powers], axis=-1) @ w + b, 0.0)
    gz = cotangent * (expected > 0.0)
    stack = np.concatenate([p.T @ gz for p in powers], axis=-1)
    gw = h.reshape(-1, d).T @ stack.reshape(-1, (K + 1) * e)
    gw = gw.reshape(d, K + 1, e).transpose(1, 0, 2).reshape(w.shape)
    w_t = np.concatenate([w[k * d : (k + 1) * d].T for k in range(K + 1)])
    gh = stack @ w_t
    assert out.data.tobytes() == expected.tobytes()
    assert leaf.grad.tobytes() == gh.tobytes()
    assert weight.grad.tobytes() == gw.tobytes()


def embedding_case(seed=0, lead=(5, 2, 3)):
    rng = np.random.default_rng(seed)
    m = (rng.random(lead + (1,)) > 0.4).astype(float)
    xz = np.where(m == 1.0, rng.normal(size=m.shape), 0.0)
    return xz, m, [rng.normal(size=4) for _ in range(3)]


def test_vertex_embedding_matches_the_composite_bit_for_bit():
    xz, m, arrays = embedding_case()
    cotangent = np.random.default_rng(1).normal(size=xz.shape[:-1] + (4,))
    results = []
    for fn in (vertex_embedding, vertex_embedding_reference):
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(xz, m, *params)
        (out * constant(cotangent)).sum().backward()
        results.append([out.data] + [p.grad for p in params])
    assert all(np.array_equal(a, b) for a, b in zip(*results))
    check_kernel(
        lambda w, b, t: vertex_embedding(xz, m, w, b, t),
        lambda w, b, t: vertex_embedding_reference(xz, m, w, b, t),
        arrays,
    )


@pytest.fixture
def arena_for_all(monkeypatch):
    """Every temporary inside a pool comes from the arena, whatever its size."""
    monkeypatch.setattr(tensor, "HEAP_ADJOINT_BYTES", 0)


@pytest.mark.usefixtures("arena_for_all")
def test_kernels_match_composites_inside_a_training_pool():
    # step buffers and arena scratch give the same values and adjoints as
    # fresh arrays, over many calls and repeated backward passes
    rng = np.random.default_rng(25)
    cols = (rng.random((4, 7)) > 0.5).astype(float)
    a = rng.random((4, 4))
    op = build_spatial_operator((a + a.T) / 2.0, 2)
    xz, m, arrays = embedding_case(seed=2)
    with buffer_pool():
        temporal_case(cols, include_injection=True, dropped=True, injection_input=True, seed=5)
        check_kernel(
            lambda h, w, b: spatial_forward(h, op, w, b),
            spatial_reference(op),
            [rng.normal(size=(5, 4, 3)), rng.normal(size=(9, 2)), rng.normal(size=2)],
        )
        check_kernel(
            lambda w, b, t: vertex_embedding(xz, m, w, b, t),
            lambda w, b, t: vertex_embedding_reference(xz, m, w, b, t),
            arrays,
        )


@pytest.mark.usefixtures("arena_for_all")
def test_kernel_vjps_rebuild_only_from_inputs_that_outlive_the_forward(monkeypatch):
    # the temporal kernel feeding the spatial one, as in a layer, in a pool
    # that poisons every arena buffer it hands out.  No arena buffer is in
    # use once the forward is done, so the VJPs keep neither the forward's
    # adjacency nor its aggregations: they rebuild from the drop mask, the
    # columns and the temporal output.  Two backward passes give the bits of
    # the same kernels outside any pool, and both match the composite
    # references.
    rng = np.random.default_rng(41)
    B, N, L, d = 2, 4, 7, 3
    cols = (rng.random((B * N, L)) > 0.5).astype(float)
    a = rng.random((N, N))
    op = build_spatial_operator((a + a.T) / 2.0, 2)
    dense = _batch_interval_dropout(
        _batch_temporal_adjacency(cols, True), cols, 0.1, 0.0, np.random.default_rng(5)
    )
    arrays = [
        rng.normal(size=(L, B * N, d)),
        rng.normal(size=(B * N, d)),
        rng.normal(size=(L + 1, L + 1)),
        rng.normal(scale=0.5, size=(d, d)),
        rng.normal(scale=0.1, size=d),
        rng.normal(scale=0.5, size=(3 * d, d)),
        rng.normal(scale=0.1, size=d),
    ]
    cotangent = rng.normal(size=(L * B, N, d))

    def layer(temporal, spatial):
        tensors = [Tensor(x.copy(), requires_grad=True) for x in arrays]
        states, injection, logits, wt, bt, ws, bs = tensors
        h = temporal(states, injection, logits, wt, bt).reshape(L * B, N, d)
        out = spatial(h, ws, bs)
        pool = tensor._pool.get()
        assert pool is None or not arena_in_use(pool)
        passes = []
        for _ in range(2):
            (out * constant(cotangent)).sum().backward()
            passes.append([t.grad for t in tensors])
            for t in tensors:
                t.grad = None
        return passes

    def kernels():
        drop = interval_dropout_mask(cols.T, 0.1, 0.0, np.random.default_rng(5))
        return layer(
            lambda *args: temporal_forward(args[0], args[1], cols.T, drop, *args[2:]),
            lambda h, w, b: spatial_forward(h, op, w, b),
        )

    plain, _ = kernels()
    reference, _ = layer(temporal_reference(dense), spatial_reference(op))
    poison_returned_buffers(monkeypatch)
    with buffer_pool():
        pooled = kernels()
    for grads in pooled:
        assert all(g.tobytes() == p.tobytes() for g, p in zip(grads, plain, strict=True))
    for g, r in zip(plain, reference, strict=True):
        assert np.allclose(g, r, rtol=TOL, atol=TOL), np.max(np.abs(g - r))


def assert_outputs_stay_apart(kernel, inputs):
    """Two kernel calls in one pool without a tape, every temporary taken
    from the arena: the first result survives the second and shares memory
    with neither it nor any arena buffer, and both equal the recorded
    results bit for bit."""
    recorded = [kernel(*args).data for args in inputs]
    with buffer_pool() as pool, no_grad():
        first = kernel(*inputs[0]).data
        kept = first.copy()
        second = kernel(*inputs[1]).data
        arena = list(pool.arena)
    assert arena, "the kernel took no temporary from the arena"
    assert np.array_equal(first, kept) and np.array_equal(first, recorded[0])
    assert np.array_equal(second, recorded[1])
    for out in (first, second):
        assert all(not np.shares_memory(out, buf) for buf in arena)
    assert not np.shares_memory(first, second)


@pytest.mark.usefixtures("arena_for_all")
def test_temporal_kernel_outputs_never_alias_the_scratch_pool():
    rng = np.random.default_rng(31)
    L, G, d = 6, 3, 4
    cols = (rng.random((L, G)) > 0.4).astype(float)

    def args(seed):
        r = np.random.default_rng(seed)
        return (
            r.normal(size=(L, G, d)),
            r.normal(size=(G, d)),
            cols,
            None,
            r.normal(size=(L + 1, L + 1)),
            r.normal(size=(d, d)),
            r.normal(size=d),
        )

    assert_outputs_stay_apart(temporal_forward, [args(1), args(2)])


@pytest.mark.usefixtures("arena_for_all")
def test_spatial_kernel_outputs_never_alias_the_scratch_pool():
    rng = np.random.default_rng(32)
    a = rng.random((4, 4))
    a = (a + a.T) / 2.0
    op = build_spatial_operator(a, 2)

    def args(seed):
        r = np.random.default_rng(seed)
        return r.normal(size=(5, 4, 3)), op, r.normal(size=(9, 3)), r.normal(size=3)

    assert_outputs_stay_apart(spatial_forward, [args(1), args(2)])


def test_kernels_save_step_buffers_under_no_grad_too():
    # a kernel's requests do not depend on the tape: what it saves for its
    # VJP (the temporal degrees and aggregate) is a step buffer in a pool
    # under no_grad as well; the cross gate saves nothing but its outputs
    rng = np.random.default_rng(33)
    L, G, d = 5, 3, 4
    temporal = (
        rng.normal(size=(L, G, d)), rng.normal(size=(G, d)),
        (rng.random((L, G)) > 0.4).astype(float), None,
        rng.normal(size=(L + 1, L + 1)), rng.normal(size=(d, d)), rng.normal(size=d),
    )
    gate = (rng.normal(size=(1, 4, d)), rng.normal(size=(3, 1, d)),
            *(rng.normal(size=(d, d)) for _ in range(4)))
    # the saved arrays plus the outputs: 2 + 1, and the gate's two outputs
    for kernel, args, requests in ((temporal_forward, temporal, 3), (cross_gate_layer, gate, 2)):
        for tape in (contextlib.nullcontext(), no_grad()):
            with buffer_pool() as pool, tape:
                kernel(*args)
            assert len(pool.steps) == requests


@pytest.mark.usefixtures("arena_for_all")
def test_threads_imputing_at_once_keep_their_own_scratch():
    # more workers than cores, switching often, each in its own pool: a pool
    # shared between threads would let one thread's window overwrite
    # another's temporaries or outputs
    module, _ = build_module(L=8, N=5, n=2, d=6, K=2)
    rng = np.random.default_rng(33)
    inputs = [
        (rng.normal(size=(1, 8, 5)), (rng.random((1, 8, 5)) > 0.3).astype(float),
         [rng.normal(size=(1, 5, 6)) for _ in range(2)])
        for _ in range(6)
    ]
    expected = [module.forward(*args).data for args in inputs]
    results = {i: [] for i in range(len(inputs))}

    def worker(i):
        with buffer_pool() as pool, no_grad():
            for _ in range(20):
                pool.rewind()
                results[i].append(module.forward(*inputs[i]).data.copy())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, outs in results.items():
        assert len(outs) == 20 and all(np.array_equal(y, expected[i]) for y in outs)


def build_module(L, N, n, d, K, seed=0, use_cgm=True, p_dropout=0.1):
    rng = np.random.default_rng(seed + 100)
    a = rng.random((N, N))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    op = build_spatial_operator(a, K)
    params = ParamStore(seed=seed)
    cfg = ModelConfig(L=L, N=N, d=d, n=n, K=K, p_dropout=p_dropout, use_cgm=use_cgm)
    module = GimModule.build(params, cfg, op)
    return module, params


def test_gim_forward_shape_contract():
    module, _ = build_module(L=96, N=20, n=3, d=64, K=2)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(96, 20))
    m = (rng.random((96, 20)) > 0.4).astype(float)
    hiddens = [rng.normal(size=(20, 64)) for _ in range(3)]
    y = module.forward(x[None], m[None], [h[None] for h in hiddens])
    assert y.shape == (1, 96, 20)
    assert np.all(np.isfinite(y.data))


def test_gim_forward_zero_params_give_head_bias():
    module, params = build_module(L=8, N=3, n=2, d=4, K=1)
    for path, t in params.items():
        t.data[...] = 0.0
    params["gim/head/b"].data[...] = 0.7
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 3))
    m = (rng.random((8, 3)) > 0.5).astype(float)
    y = module.forward(x[None], m[None], [rng.normal(size=(1, 3, 4)) for _ in range(2)])
    assert np.allclose(y.data, 0.7, atol=1e-15)


def dense_reference(x, m, hidden, a_s, K, arrays):
    """Per-node, per-step straight-line reimplementation of one layer."""
    L, N = x.shape
    w_e, b_e, tok = arrays["embed/w"], arrays["embed/b"], arrays["embed/mask_token"]
    d = w_e.size
    H = np.zeros((L, N, d))
    for t in range(L):
        for u in range(N):
            H[t, u] = x[t, u] * w_e + b_e if m[t, u] == 1 else tok
    el = arrays["layer0/edge_logits"]
    w_t_mat, b_t = arrays["layer0/temporal/W"], arrays["layer0/temporal/b"]
    after = np.zeros((L, N, d))
    for u in range(N):
        adj = np.zeros((L + 1, L + 1))
        for i in range(L):
            for j in range(L):
                if i != j and m[j, u] == 1:
                    adj[i, j] = 1.0
        for i in range(L):
            adj[i, L] = 1.0
        weights = adj * np.logaddexp(0.0, el)
        vertices = np.vstack([H[:, u, :], hidden[u][None, :]])
        degree = weights.sum(axis=1)
        h_prime = (weights @ vertices) / (degree + 1e-6)[:, None]
        h_second = np.maximum(h_prime @ w_t_mat + b_t, 0.0)
        after[:, u, :] = h_second[:L]
    powers = []
    for k in range(K + 1):
        m_k = np.linalg.matrix_power(a_s, k)
        scale = np.diag(1.0 / np.sqrt(m_k.sum(axis=1) + 1e-6))
        powers.append(scale @ m_k @ scale)
    w_s, b_s = arrays["layer0/spatial/W"], arrays["layer0/spatial/b"]
    mixed = np.zeros((L, N, d))
    for t in range(L):
        parts = np.concatenate([p @ after[t] for p in powers], axis=1)
        mixed[t] = np.maximum(parts @ w_s + b_s, 0.0)
    return (mixed @ arrays["head/W"] + arrays["head/b"])[..., 0]


def test_gim_forward_matches_dense_reference():
    L, N, n, d, K = 4, 2, 1, 4, 1
    a_s = np.array([[0.0, 0.8], [0.8, 0.0]])
    op = build_spatial_operator(a_s, K)
    params = ParamStore(seed=5)
    module = GimModule.build(params, ModelConfig(L=L, N=N, d=d, n=n, K=K), op)
    rng = np.random.default_rng(8)
    # randomize everything, including logits that start at zero
    for path, t in params.items():
        t.data[...] = rng.normal(scale=0.5, size=t.data.shape)
    x = rng.normal(size=(L, N))
    m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    hidden = rng.normal(size=(N, d))
    got = module.forward(x[None], m[None], [hidden[None]]).data[0]
    arrays = {p.removeprefix("gim/"): t.data for p, t in params.items()}
    expected = dense_reference(x, m, hidden, a_s, K, arrays)
    assert np.allclose(got, expected, atol=1e-10)


def dense_layout_forward(module, x, m, hiddens, rng):
    """The branch in the per-graph layout: (B*N, L+1, d) vertex states with
    the injection row appended, a dense adjacency per layer with edges
    dropped by ``_batch_interval_dropout``, and the composite layers."""
    cfg, p = module.config, module.params
    B, L, N = x.shape
    G, d = B * N, cfg.d
    xz = np.where(m == 1.0, x, 0.0)[..., None]
    m4 = m[..., None]
    h = constant(m4) * (constant(xz) * p["gim/embed/w"] + p["gim/embed/b"]) + constant(
        1.0 - m4
    ) * p["gim/embed/mask_token"]
    columns = np.ascontiguousarray(m.transpose(0, 2, 1)).reshape(G, L)
    base = _batch_temporal_adjacency(columns, True)
    for i in range(cfg.n):
        prefix = f"gim/layer{i}"
        adj = _batch_interval_dropout(base, columns, cfg.alpha, module.beta, rng)
        states = h.transpose((0, 2, 1, 3)).reshape(G, L, d)
        vertices = concat([states, constant(hiddens[i]).reshape(G, 1, d)], axis=1)
        after = dense_temporal(
            adj,
            vertices,
            p[f"{prefix}/edge_logits"],
            p[f"{prefix}/temporal/W"],
            p[f"{prefix}/temporal/b"],
        )
        data_rows = constant(np.eye(L, L + 1)) @ after
        per_step = data_rows.reshape(B, N, L, d).transpose((0, 2, 1, 3)).reshape(B * L, N, d)
        mixed = spatial_reference(module.spatial_op)(
            per_step, p[f"{prefix}/spatial/W"], p[f"{prefix}/spatial/b"]
        )
        h = mixed.reshape(B, L, N, d)
    return (h @ p["gim/head/W"] + p["gim/head/b"]).reshape(B, L, N)


def test_gim_training_forward_matches_dense_layout_reference():
    module, params = build_module(L=10, N=3, n=2, d=4, K=1, seed=6, p_dropout=0.3)
    rng = np.random.default_rng(13)
    for path, t in params.items():  # logits too, which start at zero
        t.data[...] = rng.normal(scale=0.5, size=t.data.shape)
    x = rng.normal(size=(2, 10, 3))
    m = (rng.random((2, 10, 3)) > 0.4).astype(float)
    hiddens = [rng.normal(size=(2, 3, 4)) for _ in range(2)]
    cotangent = rng.normal(size=(2, 10, 3))

    def run(forward, gen):
        y = forward(gen)
        (y * cotangent).sum().backward()
        grads = {path: t.grad.copy() for path, t in params.items()}
        params.zero_grads()
        return y.data, grads

    gen_kernel, gen_dense = np.random.default_rng(17), np.random.default_rng(17)
    got, got_grads = run(lambda g: module.forward(x, m, hiddens, training=True, rng=g), gen_kernel)
    ref, ref_grads = run(lambda g: dense_layout_forward(module, x, m, hiddens, g), gen_dense)
    assert np.max(np.abs(got - ref)) <= 1e-12
    for path in ref_grads:
        assert np.max(np.abs(got_grads[path] - ref_grads[path])) <= 1e-12, path
    assert gen_kernel.bit_generator.state == gen_dense.bit_generator.state
    # the dropout must have removed edges for this test to cover it
    free = module.forward(x, m, hiddens).data
    assert not np.allclose(got, free)


def test_gim_forward_ignores_values_at_missing_positions():
    module, _ = build_module(L=10, N=4, n=2, d=6, K=1, seed=3)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(10, 4))
    m = (rng.random((10, 4)) > 0.5).astype(float)
    hiddens = [rng.normal(size=(1, 4, 6)) for _ in range(2)]
    y1 = module.forward(x[None], m[None], hiddens).data
    x_junk = x.copy()
    x_junk[m == 0.0] = 1e6  # garbage where nothing is observed
    y2 = module.forward(x_junk[None], m[None], hiddens).data
    assert np.array_equal(y1, y2)


def test_gim_forward_eval_deterministic_training_seeded():
    module, _ = build_module(L=12, N=3, n=2, d=4, K=1, seed=1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 12, 3))
    m = (rng.random((2, 12, 3)) > 0.5).astype(float)
    a = module.forward(x, m, None).data
    b = module.forward(x, m, None).data
    assert np.array_equal(a, b)
    t1 = module.forward(x, m, None, training=True, rng=np.random.default_rng(7)).data
    t2 = module.forward(x, m, None, training=True, rng=np.random.default_rng(7)).data
    t3 = module.forward(x, m, None, training=True, rng=np.random.default_rng(8)).data
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, t3)
    with pytest.raises(ValueError):
        module.forward(x, m, None, training=True)  # rng required


def test_gim_hidden_injection_matters_only_when_enabled():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 3))
    m = (rng.random((8, 3)) > 0.5).astype(float)
    hiddens = [rng.normal(size=(1, 3, 4)) for _ in range(2)]
    x, m = x[None], m[None]
    with_inj, _ = build_module(L=8, N=3, n=2, d=4, K=1, seed=2)
    y_zero = with_inj.forward(x, m, None).data
    y_hidden = with_inj.forward(x, m, hiddens).data
    assert not np.array_equal(y_zero, y_hidden)
    without, _ = build_module(L=8, N=3, n=2, d=4, K=1, seed=2, use_cgm=False)
    y_off_zero = without.forward(x, m, None).data
    y_off_hidden = without.forward(x, m, hiddens).data
    assert np.array_equal(y_off_zero, y_off_hidden)


def test_gim_forward_shape_validation():
    module, _ = build_module(L=8, N=3, n=1, d=4, K=1)
    with pytest.raises(ValueError):
        module.forward(np.zeros((2, 9, 3)), np.zeros((2, 9, 3)), None)
    with pytest.raises(ValueError):
        module.forward(np.zeros((2, 8, 4)), np.zeros((2, 8, 4)), None)
    with pytest.raises(ValueError):
        module.forward(np.zeros((2, 8, 3)), np.zeros((2, 8, 2)), None)
    with pytest.raises(ValueError):
        module.forward(np.zeros((2, 8, 3)), np.zeros((2, 8, 3)), [np.zeros((2, 3, 4))] * 3)


def test_gim_gradients_pass_finite_difference_check():
    L, N, n, d, K = 5, 3, 2, 4, 1
    rng = np.random.default_rng(12)
    a = rng.random((N, N))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    op = build_spatial_operator(a, K)
    params = ParamStore(seed=7)
    module = GimModule.build(params, ModelConfig(L=L, N=N, d=d, n=n, K=K, p_dropout=0.0), op)
    x = rng.normal(size=(2, L, N))
    m = (rng.random((2, L, N)) > 0.4).astype(float)
    hiddens = [rng.normal(size=(2, N, d)) for _ in range(n)]

    def loss_fn(p):
        y = module.forward(x, m, hiddens)
        return masked_mse(y, x, m)

    err = grad_check(loss_fn, params, probe_eps=1e-5, n_samples=48, seed=1)
    assert err < 1e-4
