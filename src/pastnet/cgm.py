"""Cross-gated auxiliary branch.

Consumes no measurements at all: node identities and calendar features
(week, hour, minute bucket) are embedded into a spatial and a temporal
stream, and n gating layers let each stream modulate the other through
sigmoid/tanh products with a residual pass-through.  The branch emits its
own imputation surface plus, per layer, one context vector per node
(time-mean of the concatenated streams, linearly projected) that the
temporal-graph branch injects into its per-node graphs.

Because no measurement enters, every value at (window b, step l, node u)
depends only on u and on the time-of-week slot of stamp (b, l), one of
7 * 24 * 4 = 672.  The forward pass therefore runs its layers on the
batch's S distinct slots, as (S, N, d) streams: the (B, L, N) surface is a
row gather of the (S, N) slot surface, and each window's context vector is
a count-weighted mean of slot rows, one numcore ``matmul`` per stream
against the (B, S) matrix of slot shares.  S <= min(B * L, 672).
``slot_rows`` is that layer stack alone.  For the same reason
``model.impute_span`` runs ``forward`` once per distinct window of slot
codes and reuses its output for every window with those codes: 7 windows
plus the tail at L=96 on a 15-minute clock, but up to 672 / gcd(L, 672)
windows of L slots each when L does not divide the 672 slots of a week.

Each layer owns exactly four d x d matrices (no biases); biases exist only
in the per-layer hidden projection and the output head.

Buffers (see ``numcore.tensor``): inside a pool (``train``,
``impute_span``) the last layer's pair rows (numcore ``concat``), the head
and pooling products (numcore ``matmul``) and the gates' outputs are step
buffers, handed out by position and valid until the pool's next rewind,
under ``no_grad`` too.  A gate saves nothing else: each layer is one tape
node with two outputs, it computes its projections, gates, sigmoids, tanhs
and updates a block of slot rows at a time in views of one scratch request,
and its one VJP recomputes them once per stream from the gate's inputs,
which the tape keeps anyway, and returns an adjoint for every input.  The
stream adjoints the gates and the head return are scratch, as is the work
request, and an arena buffer serves a later request once no array views
it; a gate's weight adjoints are new (d, d) arrays.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .numcore import (
    ParamStore,
    Tensor,
    concat,
    constant,
    embedding,
    scratch,
    sigmoid,
    step_buffer,
)
from .numcore.tensor import _unbroadcast, _wrap

if TYPE_CHECKING:
    from .model import ModelConfig

WEEK_CARD = 7
HOUR_CARD = 24
MINUTE_CARD = 4


def default_partition(d: int) -> tuple[int, int, int]:
    """Split d into (week, hour, minute) widths, hour taking the largest share."""
    if d < 4:
        raise ValueError("d must be at least 4 to partition the timestamp embedding")
    quarter = d // 4
    return quarter, d - 2 * quarter, quarter


def _calendar_field(name: str, values, cardinality: int) -> np.ndarray:
    """``values`` as int64 indices, raising unless each is an integer in [0, cardinality)."""
    idx = np.asarray(values)
    if idx.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold integer values, got dtype {idx.dtype}")
    if idx.dtype.kind == "f":
        fractional = idx != np.floor(idx)  # NaN included
        if fractional.any():
            raise ValueError(f"{name} must hold integer values, got {float(idx[fractional][0])}")
    if idx.size and (idx.min() < 0 or idx.max() >= cardinality):
        raise ValueError(f"{name} index out of range [0, {cardinality})")
    return idx.astype(np.int64)


def slot_codes(week, hour, minute_bucket) -> np.ndarray:
    """Time-of-week slot code (week * 24 + hour) * 4 + minute of each stamp.

    The fields are checked first: a fractional value would be truncated
    and an out-of-range one would alias another slot.  The three arrays
    must share one shape.
    """
    week = _calendar_field("week", week, WEEK_CARD)
    hour = _calendar_field("hour", hour, HOUR_CARD)
    minute_bucket = _calendar_field("minute_bucket", minute_bucket, MINUTE_CARD)
    if week.shape != hour.shape or week.shape != minute_bucket.shape:
        raise ValueError("week, hour, minute_bucket must share one shape")
    return (week * HOUR_CARD + hour) * MINUTE_CARD + minute_bucket


def cross_gate_layer(v_s, v_t, w_sp, w_tp, w_sg, w_tg) -> tuple[Tensor, Tensor]:
    """One bidirectional gating step on (..., d) streams.

    Projections v_sp = v_s W_sp, v_tp = v_t W_tp and gates v_sg = v_s W_sg,
    v_tg = v_t W_tg; each projection is scaled by sigmoid of its own gate
    and tanh of the opposite gate, then added back onto its stream.  The two
    streams broadcast against each other: each is projected at its own shape
    and both outputs take the broadcast shape, so a (1, 1, N, d) node stream
    and a (B, L, 1, d) timestamp stream cost N and B*L rows of projection.

    Each stream's projection and gate are two GEMMs at the stream's own
    batching into contiguous arrays; at the model's shapes they have the
    bits of one GEMM against [W_p | W_g].  Streams of one shape run a block
    of leading rows at a time (``_row_blocks``), so the layer's temporaries
    are a few block-sized arrays.  The layer is one tape node with two
    outputs, and the outputs are all it keeps, with or without a tape.  Its
    one VJP receives both outputs' adjoints (zeros of the output's shape
    for an output no consumer reached), recomputes each stream's
    projection, gate, sigmoid, tanh and update once from the inputs, which
    the tape keeps anyway (selective recompute, Chen et al. 2016,
    arXiv:1604.06174), and returns an adjoint for every input.
    """
    s, t, w_sp, w_tp, w_sg, w_tg = (_wrap(x) for x in (v_s, v_t, w_sp, w_tp, w_sg, w_tg))
    shape = np.broadcast_shapes(s.shape, t.shape)  # ValueError if they do not broadcast
    streams = ((s.data, w_sp.data, w_sg.data), (t.data, w_tp.data, w_tg.data))
    blocks, block = _row_blocks(streams, shape)
    buffers = _work_arrays(streams, block)
    out_s, out_t = step_buffer(shape), step_buffer(shape)
    for rows in blocks:
        ((update_s, _), tanh_s), ((update_t, _), tanh_t) = (
            _gated(x, rows, b) for x, b in zip(streams, buffers)
        )
        o_s = np.multiply(update_s, tanh_t, out=out_s[rows])
        o_s += s.data[rows]
        o_t = np.multiply(update_t, tanh_s, out=out_t[rows])
        o_t += t.data[rows]

    def vjp(*adjoints):
        g_s, g_t = (np.zeros(shape) if g is None else g for g in adjoints)
        (gs, gw_sp, gw_sg), (gt, gw_tp, gw_tg) = _gate_adjoints(streams, shape, (g_s, g_t))
        return gs, gt, gw_sp, gw_tp, gw_sg, gw_tg

    return Tensor._make((out_s, out_t), (s, t, w_sp, w_tp, w_sg, w_tg), vjp)


def _gated(stream, rows: slice, buffers) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """((update, sigmoid(v W_g)), tanh(v W_g)) of the ``rows`` of a stream
    (v, W_p, W_g), in ``buffers``; update = (v W_p) * sigmoid(v W_g)."""
    v, w_p, w_g = stream
    v = v[rows]
    proj, gate, tanh = (b[: v.shape[0]] for b in buffers)
    np.matmul(v, w_p, out=proj)
    np.matmul(v, w_g, out=gate)
    np.tanh(gate, out=tanh)
    sig = sigmoid(gate, out=gate)
    np.multiply(proj, sig, out=proj)
    return (proj, sig), tanh


def _stream_adjoints(stream, g, d_p, d_g, blocks, buffers):
    """(adjoint of v, of W_p, of W_g) of a stream (v, W_p, W_g) from g, the
    adjoint of its output, and those of v W_p and v W_g.  The stream's
    adjoint goes into ``d_g``, a block of rows at a time through two of
    ``buffers``."""
    v, w_p, w_g = stream
    gw_p = _fold(v).T @ _fold(d_p)
    gw_g = _fold(v).T @ _fold(d_g)
    for rows in blocks:
        block = d_g[rows]
        gv, prod = (b[: block.shape[0]] for b in buffers[:2])
        np.matmul(block, w_g.T, out=gv)
        gv += np.matmul(d_p[rows], w_p.T, out=prod)
        gv += _unbroadcast(g[rows], gv.shape)
        block[...] = gv
    return d_g, gw_p, gw_g


_BLOCK_ELEMENTS = 8192  # elements per row block (64 KiB), or one row if a row is larger


def _row_blocks(streams, shape) -> tuple[list[slice], tuple[int, ...] | None]:
    """The slices of leading rows a gate runs one at a time, and a block's shape.

    Streams of one shape meet row by row, and np.matmul on a block of leading
    rows gives the bits of the batched product, so they run in blocks of
    about ``_BLOCK_ELEMENTS``; a broadcast stream, or a 1-d one, runs whole
    (shape None).
    """
    if streams[0][0].shape != streams[1][0].shape or len(shape) < 2:
        return [slice(None)], None
    step = max(1, _BLOCK_ELEMENTS // math.prod(shape[1:]))
    blocks = [slice(lo, lo + step) for lo in range(0, shape[0], step)]
    return blocks, (min(step, shape[0]),) + shape[1:]


def _work_arrays(streams, block, *more) -> tuple[list[np.ndarray], ...]:
    """Each stream's three arrays for ``_gated`` (of one row block, or of the
    stream's shape when ``block`` is None), then an array of each shape in
    ``more``: views of one ``scratch`` request.

    One request takes at most one arena buffer, free again whole once the
    call drops its views; separate plain arrays of a few hundred KiB would
    be mapped and faulted in again on every call under a fixed mmap
    threshold.
    """
    shapes = [v.shape if block is None else block for v, _, _ in streams for _ in range(3)]
    shapes += more
    flat = scratch((sum(math.prod(x) for x in shapes),))
    arrays, lo = [], 0
    for x in shapes:
        arrays.append(flat[lo : lo + math.prod(x)].reshape(x))
        lo += math.prod(x)
    return (arrays[:3], arrays[3:6], *arrays[6:])


def _gate_adjoints(streams, shape, adjoints):
    """Each stream's (adjoint of v, of W_p, of W_g) from the adjoints of the
    gate's two outputs of ``shape``.

    Recomputes each stream's update, sigmoid and tanh a row block at a time
    (``_row_blocks``), ``_pass_back`` turns them into the adjoints of v W_p
    and v W_g in place, and those go into one array each of the stream's
    shape: the VJP holds 4 such arrays.  ``_pass_back``'s temporary has the
    output's shape when a stream broadcasts, since its terms are then sums
    over the output.
    """
    blocks, block = _row_blocks(streams, shape)
    d_p = [scratch(v.shape) for v, _, _ in streams]
    d_g = [scratch(v.shape) for v, _, _ in streams]
    *buffers, tmp = _work_arrays(streams, block, shape if block is None else block)
    for rows in blocks:
        gated = [_gated(x, rows, b) for x, b in zip(streams, buffers)]
        for x, y in ((0, 1), (1, 0)):
            g = adjoints[x][rows]
            (u, sig), tanh_y = gated[x][0], gated[y][1]
            _pass_back(g, u, sig, tanh_y, tmp[: g.shape[0]])
        for x in (0, 1):
            (u, sig), tanh = gated[x]
            d_p[x][rows] = sig
            np.add(u, tanh, out=d_g[x][rows])
    return [
        _stream_adjoints(x, g, p, q, blocks, b)
        for x, g, p, q, b in zip(streams, adjoints, d_p, d_g, buffers)
    ]


def _pass_back(g, u, sig, tanh_y, tmp):
    """What out_x = v_x + u * tanh_y passes back from its adjoint g, in place.

    u = (v_x W_p) * sig with sig = sigmoid(v_x W_g), and du = g * tanh_y.
    sig becomes v_x W_p's adjoint du * sig, u v_x W_g's adjoint through u,
    du * u * (1 - sig), and tanh_y v_y W_g's adjoint through tanh_y,
    (1 - tanh_y^2) * g * u.  A product is summed down to the shape of the
    array it goes into, through ``tmp`` (of g's shape).  g is only read.
    """
    summed = tanh_y.shape != g.shape
    if summed:  # before tmp holds du
        g_u = _unbroadcast(np.multiply(g, u, out=tmp), tanh_y.shape)
    du = _unbroadcast(np.multiply(g, tanh_y, out=tmp), u.shape)
    np.multiply(tanh_y, tanh_y, out=tanh_y)
    np.subtract(1.0, tanh_y, out=tanh_y)
    if summed:
        tanh_y *= g_u
    else:
        tanh_y *= g
        tanh_y *= u
    sig *= du
    du -= sig  # du * (1 - sig)
    u *= du


def _fold(a: np.ndarray) -> np.ndarray:
    """Fold every leading axis into rows: (..., k) -> (rows, k)."""
    return a.reshape(-1, a.shape[-1])


def _window_shares(code: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, L) slot codes -> (distinct codes (S,), (B, L) indices into them, (B, S) shares).

    share[b, s] is the fraction of window b's L stamps that fall in slot s.
    """
    B, L = code.shape
    slots, inverse = np.unique(code, return_inverse=True)
    inverse = inverse.reshape(B, L)
    S = slots.size
    counts = np.bincount((np.arange(B)[:, None] * S + inverse).ravel(), minlength=B * S)
    return slots, inverse, counts.reshape(B, S) / L


class CgmModule:
    """Owns the branch parameters inside a shared store under ``cgm/``."""

    def __init__(self, params: ParamStore, config: ModelConfig):
        self.params = params
        self.config = config

    @classmethod
    def build(cls, params: ParamStore, config: ModelConfig) -> "CgmModule":
        d = config.d
        d_week, d_hour, d_minute = default_partition(d)
        params.add("cgm/embed/node", (config.N, d), init="normal")
        params.add("cgm/embed/week", (WEEK_CARD, d_week), init="normal")
        params.add("cgm/embed/hour", (HOUR_CARD, d_hour), init="normal")
        params.add("cgm/embed/minute", (MINUTE_CARD, d_minute), init="normal")
        for i in range(config.n):
            prefix = f"cgm/layer{i}"
            for name in ("W_sp", "W_tp", "W_sg", "W_tg"):
                params.add(f"{prefix}/{name}", (d, d), init="uniform_fan_in")
            params.add(f"{prefix}/hidden/W", (2 * d, d), init="uniform_fan_in")
            params.add(f"{prefix}/hidden/b", (d,))
        params.add("cgm/head/W", (2 * d, 1), init="uniform_fan_in")
        params.add("cgm/head/b", (1,))
        return cls(params, config)

    def forward(
        self, week: np.ndarray, hour: np.ndarray, minute_bucket: np.ndarray
    ) -> tuple[Tensor, list[Tensor]]:
        """(B, L) calendar indices -> ((B, L, N) surface, n x (B, N, d) hiddens).

        The layers run once per distinct slot of the batch (``slot_rows``).
        The surface gathers each stamp's slot row, and window b's hidden
        state pools the slot rows weighted by their share of b's L stamps,
        which is the time-mean over the window's stamps.  Only gim reads
        the hiddens: without it (``config.use_gim`` false) the list is empty.
        """
        code = slot_codes(week, hour, minute_bucket)
        if code.ndim != 2:
            raise ValueError("week, hour, minute_bucket must share a (B, L) shape")
        slots, inverse, share = _window_shares(code)
        streams, surface = self.slot_rows(slots)
        hiddens = self.pooled_hiddens(share, streams) if self.config.use_gim else []
        return embedding(surface, inverse), hiddens

    def slot_rows(self, slots: np.ndarray) -> tuple[list[tuple[Tensor, Tensor]], Tensor]:
        """Sorted distinct slot codes (S,) -> (n x ((S, N, d), (S, N, d)) spatial
        and temporal stream rows, (S, N) surface).

        Layer 0 takes the node embedding as a (1, N, d) stream and the slot
        embedding as an (S, 1, d) stream; its gating broadcasts them to
        (S, N, d) and makes every (slot, node) pair distinct.  Every GEMM
        here is batched over the slot axis, so a slot's rows do not depend
        on which other slots are computed with it.  Only the last layer's
        streams are joined into (S, N, 2d) pair rows, for the head.
        """
        cfg = self.config
        N, d = cfg.N, cfg.d
        p = self.params
        S = slots.size
        s_stream = p["cgm/embed/node"].reshape(1, N, d)
        stamp = concat(
            [
                embedding(p["cgm/embed/week"], slots // (HOUR_CARD * MINUTE_CARD)),
                embedding(p["cgm/embed/hour"], slots // MINUTE_CARD % HOUR_CARD),
                embedding(p["cgm/embed/minute"], slots % MINUTE_CARD),
            ],
            axis=1,
        )
        t_stream = stamp.reshape(S, 1, d)

        streams: list[tuple[Tensor, Tensor]] = []
        for i in range(cfg.n):
            prefix = f"cgm/layer{i}"
            s_stream, t_stream = cross_gate_layer(
                s_stream,
                t_stream,
                p[f"{prefix}/W_sp"],
                p[f"{prefix}/W_tp"],
                p[f"{prefix}/W_sg"],
                p[f"{prefix}/W_tg"],
            )
            streams.append((s_stream, t_stream))

        # only the head joins the streams: its VJP reads the pair rows
        pair = concat([s_stream, t_stream], axis=2)
        surface = (pair @ p["cgm/head/W"] + p["cgm/head/b"]).reshape(S, N)
        return streams, surface

    def pooled_hiddens(self, share: np.ndarray, streams: list[tuple[Tensor, Tensor]]) -> list[Tensor]:
        """(B, S) slot shares and n x ((S, N, d), (S, N, d)) stream rows ->
        n x (B, N, d) hiddens.

        Each stream is pooled on its own and the two (B, N, d) means are
        joined, which gives the bits of pooling the (S, N, 2d) pair rows
        without making them.
        """
        p = self.params
        B, S = share.shape
        w = constant(share)
        return [
            concat([(w @ v.reshape(S, -1)).reshape(B, *v.shape[1:]) for v in pair], axis=2)
            @ p[f"cgm/layer{i}/hidden/W"]
            + p[f"cgm/layer{i}/hidden/b"]
            for i, pair in enumerate(streams)
        ]
