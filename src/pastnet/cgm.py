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
under ``no_grad`` too.  A gate saves nothing else: its projections,
sigmoids, tanhs and updates are scratch, and its VJPs recompute what they
read from the gate's inputs, which the tape keeps anyway.  The stream
adjoints the gates and the head return are scratch; ``_GateSide`` lists
its own.
"""
from __future__ import annotations

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

    Each stream's [projection | gate] comes from one GEMM against its
    concatenated weights.  The two outputs are two tape nodes sharing one
    forward pass, and the outputs are all it keeps, with or without a tape:
    the projections, sigmoids, tanhs and updates are scratch, and both
    outputs go into step buffers before either node is made, since making
    a node hands the scratch back.  Each node's VJP recomputes what it reads
    (selective recompute, Chen et al. 2016, arXiv:1604.06174): its own
    stream's [projection | sigmoid] and update, and the other stream's tanh,
    each from that stream's full GEMM with the forward's numpy calls, so the
    gradients have the bits of keeping them.  The tape keeps both streams'
    inputs anyway.
    """
    s, t, w_sp, w_tp, w_sg, w_tg = (_wrap(x) for x in (v_s, v_t, w_sp, w_tp, w_sg, w_tg))
    shape = np.broadcast_shapes(s.shape, t.shape)  # ValueError if they do not broadcast
    side_s, side_t = _GateSide(s, w_sp, w_sg), _GateSide(t, w_tp, w_tg)
    (update_s, tanh_s), (update_t, tanh_t) = side_s.gated(), side_t.gated()
    out_s = np.multiply(update_s, tanh_t, out=step_buffer(shape))
    out_s += s.data
    out_t = np.multiply(update_t, tanh_s, out=step_buffer(shape))
    out_t += t.data
    return side_s.node(out_s, side_t), side_t.node(out_t, side_s)


class _GateSide:
    """One stream's half of a cross gate: v and its weights [W_p | W_g].

    It keeps nothing of the forward pass but the concatenated weights.
    What ``gated`` and the VJP compute, and the stream adjoints the VJP
    returns, ``gv`` and ``go``, are scratch; the weight adjoints are fresh
    arrays that the tape adds into the parameters' accumulators.
    """

    def __init__(self, v: Tensor, w_p: Tensor, w_g: Tensor):
        self.v, self.w_p, self.w_g = v, w_p, w_g
        self.w_cat = np.concatenate([w_p.data, w_g.data], axis=1)

    def projected(self, out: np.ndarray | None = None) -> np.ndarray:
        """[v W_p | v W_g]: one GEMM into ``out``, or into new scratch."""
        if out is None:
            out = scratch(self.v.shape[:-1] + (2 * self.v.shape[-1],))
        return np.matmul(self.v.data, self.w_cat, out=out)

    def tanh(self, proj_gate: np.ndarray) -> np.ndarray:
        """tanh(v W_g) into new scratch, from ``projected``'s array."""
        return np.tanh(proj_gate[..., self.v.shape[-1] :], out=scratch(self.v.shape))

    def sigmoid(self, proj_gate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(v W_p, sigmoid(v W_g)), views of ``projected``'s array; the gate is overwritten."""
        d = self.v.shape[-1]
        return proj_gate[..., :d], sigmoid(proj_gate[..., d:], out=proj_gate[..., d:])

    def gated(self) -> tuple[np.ndarray, np.ndarray]:
        """(update (v W_p) * sigmoid(v W_g), tanh(v W_g)), both in scratch."""
        proj_gate = self.projected()
        tanh = self.tanh(proj_gate)
        proj, sig = self.sigmoid(proj_gate)
        return np.multiply(proj, sig, out=proj), tanh

    def node(self, out: np.ndarray, other: "_GateSide") -> Tensor:
        """The tape node of ``out`` = v + update * tanh(other's gate)."""
        v, d, shape = self.v, self.v.shape[-1], out.shape

        def vjp(g):
            # g is only read; every array written below is scratch or
            # allocated here, and a spent one is written again at its shape
            gv = go = gw_p = gw_g = gw_og = None
            spent = other.projected()
            tanh_o = other.tanh(spent)
            proj_sig = self.projected(spent if spent.shape[:-1] == v.shape[:-1] else None)
            proj, sig = self.sigmoid(proj_sig)
            prod = np.multiply(g, tanh_o, out=scratch(shape))
            g_update = _unbroadcast(prod, v.shape)
            own = scratch(v.shape)  # the update, then the gate's adjoint, then gv
            if other.v.requires_grad or other.w_g.requires_grad:
                update = np.multiply(proj, sig, out=own)
                full = update if v.shape == shape else prod  # prod is spent once reduced away
                g_tanh = _unbroadcast(np.multiply(g, update, out=full), other.v.shape)
                dtanh = np.multiply(tanh_o, tanh_o, out=tanh_o)  # tanh_o is spent
                g_tanh *= np.subtract(1.0, dtanh, out=dtanh)
                if other.v.requires_grad:
                    go = np.matmul(g_tanh, other.w_g.data.T, out=dtanh)
                if other.w_g.requires_grad:
                    gw_og = _fold(other.v.data).T @ _fold(g_tanh)
            if v.requires_grad or self.w_p.requires_grad or self.w_g.requires_grad:
                # proj_sig becomes [g_update * sig | g_update * proj * sig * (1 - sig)],
                # each half written once its own values are read
                g_gate = np.multiply(g_update, proj, out=own)
                g_gate *= sig
                np.multiply(g_update, sig, out=proj)
                one_minus_sig = np.subtract(1.0, sig, out=g_update)  # g_update is spent
                np.multiply(g_gate, one_minus_sig, out=sig)
                if v.requires_grad:
                    gv = np.matmul(proj_sig, self.w_cat.T, out=own)  # the gate's adjoint is spent
                    gv += _unbroadcast(g, v.shape)
                if self.w_p.requires_grad or self.w_g.requires_grad:
                    gw = _fold(v.data).T @ _fold(proj_sig)
                    gw_p, gw_g = gw[:, :d], gw[:, d:]
            return gv, go, gw_p, gw_g, gw_og

        return Tensor._make(out, (v, other.v, self.w_p, self.w_g, other.w_g), vjp)


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
