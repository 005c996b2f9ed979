"""Graph-integrated imputation branch.

Each node's window becomes a directed temporal graph over L data vertices
plus one injection vertex carrying summary context from the companion
branch.  Observed vertices form a bidirectional clique, observed vertices
point into missing ones, missing vertices emit nothing, and the injection
vertex points one way into every data vertex.  Edges from observed into
missing vertices are sampled away during training with probability
min(1, exp(-alpha*dt + beta)), beta calibrated so the expected drop rate
over all vertex pairs is p.  Aggregation is row-normalized (in-degree) with
learned positive edge weights shared across graphs, followed per time step
by a multi-order spatial convolution over the road graph and a linear head.

State layout: ``GimModule.forward`` transposes its (B, L, N) inputs once
and keeps every vertex state time-major, as one (L, B*N, d) buffer from the
embedding to the head; graph g = b*N + n is node n of window b.  The same
buffer read as (L*B, N, d) is the per-step layout the spatial kernel mixes,
so every hop between the two kernels is a free view.  The temporal kernel
reads and writes each graph's rows as strided (L, d) views of that buffer,
takes the injection state as its own (G, d) input and the dropped edges as
a bool mask, and returns only the L data rows: the injection vertex has no
incoming edge, so its row is never computed.  The output is a transposed
view back to (B, L, N).

Buffers (see ``numcore.tensor``): each kernel's output, what a kernel
saves for its VJP (the temporal degrees and aggregate) and the dropout
mask are step buffers, with or without a tape; their temporaries and the
state adjoints a VJP returns (the temporal ``gx``, the spatial ``gh``) are
scratch.  A layer's two largest arrays, the weighted (G, L, L+1) temporal
adjacency and the (L*B, N, (K+1)d) spatial stack, are scratch and not
kept for backward.  The temporal VJP rebuilds the adjacency with the
forward's numpy calls from the edge weights, the columns and the dropout
mask, so it gets the same bits, and once it has read it writes the
adjacency's adjoint into the same buffer.  The spatial VJP reads both of
its adjoints from a stack of its own, the output adjoint's products with
the transposed powers, and from ``h``.  Inside a pool (``train``,
``impute_span``) step buffers go by position, so a step's k-th request
reuses the previous step's k-th buffer, and scratch shares the pool's
arena: forward scratch goes back when the kernel's node is made, and
``backward`` hands each returned adjoint's buffer on to a later VJP once
the adjoint is consumed.  Outside any pool every array is fresh.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numcore import ParamStore, Tensor, constant, scratch, sigmoid, step_buffer
from .numcore.tensor import _unbroadcast, _wrap

if TYPE_CHECKING:
    from .model import ModelConfig

DEGREE_EPS = 1e-6


# ---- edge dropout ----


def dropout_beta(alpha: float, p: float, L: int) -> float:
    """Offset making the mean pair drop probability equal p before clamping.

    beta = log(p * L^2 / sum_{i,j in 1..L} exp(-alpha * |i - j|)).
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    if L < 1:
        raise ValueError("L must be at least 1")
    idx = np.arange(L)
    total = np.exp(-alpha * np.abs(idx[:, None] - idx[None, :])).sum()
    return float(np.log(p * L * L / total))


def interval_dropout_mask(
    columns: np.ndarray, alpha: float, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample the dropped observed->missing data edges of every graph.

    ``columns`` is the (L, G) time-major mask.  Returns a (G, L, L) bool
    array, True where edge j -> i of graph g is dropped: a step buffer,
    valid until its pool's next rewind.  Draws one (G, L, L) block of
    ``rng.random`` into scratch, indexed [g, i, j].
    """
    L, G = columns.shape
    idx = np.arange(L)
    delta = np.abs(idx[:, None] - idx[None, :])
    prob = np.minimum(1.0, np.exp(-alpha * delta + beta))
    per_graph = columns.T
    eligible = np.bitwise_and(
        per_graph[:, :, None] == 0.0,
        per_graph[:, None, :] == 1.0,
        out=scratch((G, L, L), bool),
    )
    draw = rng.random(out=scratch((G, L, L)))
    drop = np.less(draw, prob, out=step_buffer((G, L, L), bool))
    drop &= eligible
    return drop


# ---- forward operators ----


def temporal_forward(states, injection, columns, drop, edge_logits, w, b) -> Tensor:
    """Row-normalized aggregation over every node-window graph, then linear
    + relu, as one tape node.

    ``states`` are the time-major (L, G, d) data vertex states,
    ``injection`` the (G, d) injection vertex states (None: the graphs have
    no injection vertex), ``columns`` the (L, G) 0/1 observation mask and
    ``drop`` an optional (G, L, L) bool mask of dropped data edges (i <- j).
    ``edge_logits`` is the shared (L+1, L+1) logit matrix, row/column L
    the injection vertex.

    A = softplus(logits) on the graph's edges: j -> i for j != i with j
    observed and not dropped, and injection -> i.  Each data vertex averages
    its sources by incoming weight, H' = (D + eps I)^-1 A H, and the output
    is relu(H' W + b), (L, G, d_out).  Zero-degree rows (fully dropped
    vertices) give H' = 0 and hence relu(b).  The injection vertex receives
    nothing, so its row is not returned.

    Saved for backward: the row degrees plus eps, the aggregate H' and the
    output, whose sign is relu's mask, all step buffers.  The weighted
    (G, L, L+1) adjacency, whose nonzero entries are the edges, is scratch
    in the forward pass; the VJP rebuilds it from the edge weights,
    ``columns`` and ``drop``, which the caller keeps until backward.  The
    VJP's intermediates are scratch.
    """
    x, logits, w, b = (_wrap(t) for t in (states, edge_logits, w, b))
    inj = None if injection is None else _wrap(injection)
    cols = np.asarray(columns, dtype=np.float64)
    L, G, d = x.shape
    if cols.shape != (L, G):
        raise ValueError(f"columns must be (L, G) = ({L}, {G}), got {cols.shape}")
    if inj is not None and inj.shape != (G, d):
        raise ValueError(f"injection must be (G, d) = ({G}, {d}), got {inj.shape}")
    if drop is not None and drop.shape != (G, L, L):
        raise ValueError(f"drop must be (G, L, L) = ({G}, {L}, {L}), got {drop.shape}")
    width = L if inj is None else L + 1  # source columns; column L is the injection vertex
    idx = np.arange(L)
    weight = np.logaddexp(0.0, logits.data[:L, :width])
    weight[idx, idx] = 0.0  # no self edges
    a = _weighted_adjacency(weight, cols, drop, scratch((G, L, width)))
    denom = step_buffer((L, G, 1))
    np.add(a.sum(axis=-1).T, DEGREE_EPS, out=denom[..., 0])
    agg = step_buffer((L, G, d))
    np.matmul(a[..., :L], x.data.transpose(1, 0, 2), out=agg.transpose(1, 0, 2))
    if inj is not None:
        agg += np.multiply(
            weight[:, L, None, None], inj.data, out=scratch((L, G, d))
        )
    agg /= denom
    out = np.matmul(agg, w.data, out=step_buffer((L, G, w.shape[1])))
    out += b.data
    np.maximum(out, 0.0, out=out)
    parents = (x, logits, w, b) if inj is None else (x, logits, w, b, inj)

    def vjp(g):
        gz = _relu_adjoint(g, out)
        gw = agg.reshape(-1, d).T @ gz.reshape(-1, gz.shape[-1])
        gb = _summed_to(gz, b.shape)
        g_agg = np.matmul(gz, w.data.T, out=scratch((L, G, d)))
        # agg = num / denom, so d/d(denom) = -sum over d of g_agg * agg / denom
        spare = gz if gz.shape == agg.shape else None  # gz is spent
        g_denom = np.multiply(g_agg, agg, out=spare).sum(axis=-1)
        g_denom /= denom[..., 0]
        g_agg /= denom  # now the adjoint of num = A @ H
        a = _weighted_adjacency(weight, cols, drop, scratch((G, L, width)))
        gx = scratch((L, G, d))
        np.matmul(
            a[..., :L].transpose(0, 2, 1), g_agg.transpose(1, 0, 2), out=gx.transpose(1, 0, 2)
        )
        gi = None
        if inj is not None and inj.requires_grad:  # only when forward runs with sever=False
            gi = (weight[:, L] @ g_agg.reshape(L, G * d)).reshape(G, d)
        # the graph's edges, where A holds softplus > 0; then A's buffer is spent
        edges = np.not_equal(a, 0.0, out=scratch(a.shape, bool))
        ga = a
        per_graph = g_agg.transpose(1, 0, 2)
        np.matmul(per_graph, x.data.transpose(1, 2, 0), out=ga[..., :L])
        if inj is not None:
            np.matmul(per_graph, inj.data[:, :, None], out=ga[..., L:])
        ga -= g_denom.T[:, :, None]  # every entry of a row feeds that row's degree
        ga *= edges
        gl = np.zeros(logits.shape)
        np.sum(ga, axis=0, out=gl[:L, :width])
        gl[:L, :width] *= sigmoid(logits.data[:L, :width])
        return (gx, gl, gw, gb, gi)[: len(parents)]

    return Tensor._make(out, parents, vjp)


def _weighted_adjacency(weight, cols, drop, a: np.ndarray) -> np.ndarray:
    """Write every graph's weighted (L, width) adjacency into ``a`` and return it.

    ``weight`` is softplus of the (L, width) logits with a zero diagonal,
    ``cols`` the (L, G) observation mask, ``drop`` the (G, L, L) dropped
    edges or None; column L, when ``a`` has it, is the injection vertex.
    The forward pass and the VJP both build it here, so they get the same bits.
    """
    L = cols.shape[0]
    np.multiply(weight[:, :L], cols.T[:, None, :], out=a[..., :L])  # observed sources only
    if drop is not None:
        np.copyto(a[..., :L], 0.0, where=drop)
    if a.shape[-1] > L:
        a[..., L] = weight[:, L]
    return a


def _relu_adjoint(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g * (out > 0) in scratch: the adjoint through relu.

    The 0/1 mask goes straight into the adjoint's float buffer and is
    multiplied by g in place, which gives the products of g * mask.
    """
    gz = np.greater(out, 0.0, out=scratch(out.shape))
    gz *= g
    return gz


def _summed_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A scratch adjoint summed down to a parent's shape, as a fresh array."""
    out = _unbroadcast(g, shape)
    return out.copy() if out is g else out


@dataclass
class SpatialOperator:
    """Symmetrically normalized powers (D_k + eps)^-1/2 A^k (D_k + eps)^-1/2."""

    normalized_powers: list[np.ndarray]

    @property
    def order(self) -> int:
        return len(self.normalized_powers) - 1

    @property
    def n_nodes(self) -> int:
        return self.normalized_powers[0].shape[0]


def build_spatial_operator(a_s: np.ndarray, K: int) -> SpatialOperator:
    a_s = np.asarray(a_s, dtype=np.float64)
    if K < 0:
        raise ValueError("K must be non-negative")
    if a_s.ndim != 2 or a_s.shape[0] != a_s.shape[1]:
        raise ValueError("A_S must be square")
    if np.any(a_s < 0) or not np.allclose(a_s, a_s.T):
        raise ValueError("A_S must be symmetric and non-negative")
    powers = []
    for k in range(K + 1):
        m_k = np.linalg.matrix_power(a_s, k)
        scale = 1.0 / np.sqrt(m_k.sum(axis=1) + DEGREE_EPS)
        powers.append(scale[:, None] * m_k * scale[None, :])
    return SpatialOperator(normalized_powers=powers)


def _stacked_aggregations(powers, x: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """Write each P_k @ x into its slice of ``stacked`` and return it.

    P_0 is (1 + eps)^-1 I, so its product is ``x`` times P_0[0, 0]: the
    GEMM's bits for finite ``x``, without its flops.  The spatial forward
    stacks the powers' products with the states, its VJP the transposed
    powers' products with the output adjoint.
    """
    d = x.shape[-1]
    np.multiply(x, powers[0][0, 0], out=stacked[..., :d])
    for k in range(1, len(powers)):
        np.matmul(powers[k], x, out=stacked[..., k * d : (k + 1) * d])
    return stacked


def spatial_forward(h_nodes, op: SpatialOperator, w, b) -> Tensor:
    """Concatenate every normalized-power aggregation, then linear + relu.

    One tape node: out = relu(sum_k (P_k h) W_k + b), W_k the k-th row block
    of W.  Each P_k @ h is written into its slice of a scratch stack, P_0's
    as a product with a scalar; the output, whose sign is relu's mask, is a
    step buffer.  The VJP stacks G = [P_0^T gz | ... | P_K^T gz] for the
    adjoint gz through relu and reads both adjoints from G and ``h``, which
    the caller keeps until backward: W_k's is h^T G_k and h's is
    sum_k G_k W_k^T, one GEMM each.  Its intermediates are scratch.
    """
    h, w, b = (_wrap(t) for t in (h_nodes, w, b))
    x = h.data
    rows, d = x.shape[:-1], x.shape[-1]
    powers = op.normalized_powers
    orders = len(powers)
    stacked = _stacked_aggregations(powers, x, scratch(rows + (orders * d,)))
    out = np.matmul(stacked, w.data, out=step_buffer(rows + w.shape[1:]))
    out += b.data
    np.maximum(out, 0.0, out=out)

    def vjp(g):
        gz = _relu_adjoint(g, out)
        gb = _summed_to(gz, b.shape)
        e = gz.shape[-1]
        stack = _stacked_aggregations([p.T for p in powers], gz, scratch(rows + (orders * e,)))
        # (d, (K+1)e): column block k is W_k's adjoint
        gw = x.reshape(-1, d).T @ stack.reshape(-1, orders * e)
        gw = gw.reshape(d, orders, e).transpose(1, 0, 2).reshape(w.shape)
        # W^T's column blocks W_k^T moved to row blocks
        w_t = w.data.T.reshape(e, orders, d).transpose(1, 0, 2).reshape(orders * e, d)
        gh = np.matmul(stack, w_t, out=scratch(h.shape))
        return gh, gw, gb

    return Tensor._make(out, (h, w, b), vjp)


def vertex_embedding(xz, m, w, b, mask_token) -> Tensor:
    """m * (xz * w + b) + (1 - m) * mask_token as one tape node.

    ``xz`` holds the values with zeros where missing and ``m`` the 0/1
    mask, both (..., 1) arrays; ``w``, ``b`` and ``mask_token`` are (d,).
    An observed vertex embeds its value linearly and a missing one takes
    the learned mask token; the output, (..., d), is a step buffer.  The
    forward products and the VJP's (g * m) * xz, g * m and g * (1 - m),
    reduced by ``_unbroadcast``, are those of the five-product composite,
    so values and gradients are its bits.
    """
    w, b, tok = (_wrap(t) for t in (w, b, mask_token))
    xz = np.asarray(xz, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    shape = np.broadcast_shapes(xz.shape, m.shape, w.shape)
    out = np.multiply(xz, w.data, out=step_buffer(shape))
    out += b.data
    out *= m
    unset = 1.0 - m
    out += np.multiply(unset, tok.data, out=scratch(shape))

    def vjp(g):
        g_set = np.multiply(g, m, out=scratch(shape))
        prod = scratch(shape)
        gw = _summed_to(np.multiply(g_set, xz, out=prod), w.shape)
        gb = _summed_to(g_set, b.shape)
        gt = _summed_to(np.multiply(g, unset, out=prod), tok.shape)
        return gw, gb, gt

    return Tensor._make(out, (w, b, tok), vjp)


# ---- full branch ----


class GimModule:
    """Owns the branch parameters inside a shared store under ``gim/``."""

    def __init__(self, params: ParamStore, config: ModelConfig, spatial_op: SpatialOperator):
        self.params = params
        self.config = config
        self.spatial_op = spatial_op
        self.beta = (
            dropout_beta(config.alpha, config.p_dropout, config.L)
            if config.p_dropout > 0.0
            else 0.0
        )

    @classmethod
    def build(cls, params: ParamStore, config: ModelConfig, spatial_op: SpatialOperator) -> "GimModule":
        d, K = config.d, config.K
        params.add("gim/embed/w", (d,), init="uniform_fan_in", fan_in=1)
        params.add("gim/embed/b", (d,))
        params.add("gim/embed/mask_token", (d,), init="normal")
        for i in range(config.n):
            prefix = f"gim/layer{i}"
            # zero logits start every edge at softplus(0) = log 2
            params.add(f"{prefix}/edge_logits", (config.L + 1, config.L + 1))
            params.add(f"{prefix}/temporal/W", (d, d), init="uniform_fan_in")
            params.add(f"{prefix}/temporal/b", (d,))
            params.add(f"{prefix}/spatial/W", ((K + 1) * d, d), init="uniform_fan_in")
            params.add(f"{prefix}/spatial/b", (d,))
        params.add("gim/head/W", (d, 1), init="uniform_fan_in")
        params.add("gim/head/b", (1,))
        return cls(params, config, spatial_op)

    def forward(
        self,
        x: np.ndarray,
        m: np.ndarray,
        hiddens: list | None,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Impute every entry of a (B, L, N) batch; returns a (B, L, N) tensor.

        ``hiddens`` supplies one (B, N, d) injection state per layer (tensor
        or array); None or a None entry means a zero injection state.
        """
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        m = np.asarray(m, dtype=np.float64)
        if x.ndim != 3 or x.shape != m.shape:
            raise ValueError("x and m must both be (B, L, N)")
        B, L, N = x.shape
        if L != cfg.L:
            raise ValueError(f"window length {L} does not match configured {cfg.L}")
        if N != self.spatial_op.n_nodes:
            raise ValueError("node count does not match the spatial operator")
        if hiddens is not None and len(hiddens) != cfg.n:
            raise ValueError("need one hidden state per layer")
        use_dropout = training and cfg.p_dropout > 0.0
        if use_dropout and rng is None:
            raise ValueError("training with dropout requires an rng")

        p = self.params
        d, G = cfg.d, B * N
        m_t = np.ascontiguousarray(m.transpose(1, 0, 2))  # (L, B, N), the only transposes
        xz = np.where(m_t == 1.0, x.transpose(1, 0, 2), 0.0)[..., None]
        embedded = vertex_embedding(
            xz, m_t[..., None], p["gim/embed/w"], p["gim/embed/b"], p["gim/embed/mask_token"]
        )
        columns = m_t.reshape(L, G)

        h = embedded.reshape(L, G, d)
        for i in range(cfg.n):
            drop = None
            if use_dropout:
                drop = interval_dropout_mask(columns, cfg.alpha, self.beta, rng)
            # the injection vertex exists only when a cgm branch supplies its context
            inj = None
            if cfg.use_cgm:
                hidden = None if hiddens is None else hiddens[i]
                inj = np.zeros((G, d)) if hidden is None else constant(hidden).reshape(G, d)
            prefix = f"gim/layer{i}"
            after_temporal = temporal_forward(
                h,
                inj,
                columns,
                drop,
                p[f"{prefix}/edge_logits"],
                p[f"{prefix}/temporal/W"],
                p[f"{prefix}/temporal/b"],
            )
            h = spatial_forward(
                after_temporal.reshape(L * B, N, d),
                self.spatial_op,
                p[f"{prefix}/spatial/W"],
                p[f"{prefix}/spatial/b"],
            ).reshape(L, G, d)

        y = h @ p["gim/head/W"] + p["gim/head/b"]
        return y.reshape(L, B, N).transpose((1, 0, 2))
