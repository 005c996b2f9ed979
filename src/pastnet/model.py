"""Primary-auxiliary imputation model.

The temporal-graph branch (gim) fits observed values directly; the
cross-gated branch (cgm) fits whatever residual the first branch leaves
behind.  Their sum fills the missing entries and observed entries pass
through untouched:

    Y = M * X + (1 - M) * (Y_cgm + Y_gim)

Training keeps the two objectives partitioned GBDT-style: the residual
target X - Y_gim is a constant to the second loss, and the context vectors
handed from cgm to gim are constants to the first, so loss1 gradients touch
only gim parameters and loss2 gradients only cgm parameters.  Both losses
are averaged over observed entries only and optimized together by one Adam
instance.  The severing can be switched off to make the composite objective
fully differentiable for finite-difference validation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .cgm import CgmModule, default_partition, slot_codes
from .data import check_seed
from .gim import GimModule, SpatialOperator, build_spatial_operator
from .numcore import (
    AdamState,
    ParamStore,
    Tensor,
    adam_step,
    buffer_pool,
    constant,
    masked_mse,
    no_grad,
)


@dataclass
class ModelConfig:
    L: int
    N: int
    d: int = 64
    n: int = 3
    K: int = 2
    alpha: float = 0.1
    p_dropout: float = 0.1
    use_gim: bool = True
    use_cgm: bool = True
    seed: int = 0

    def __post_init__(self):
        _check_integers(self, "L", "N", "d", "n", "K", "seed")
        check_seed(self.seed)
        if self.L < 1 or self.N < 1:
            raise ValueError("L and N must be positive")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.K < 0:
            raise ValueError("K must be non-negative")
        if not (_is_number(self.alpha) and 0.0 <= self.alpha < np.inf):
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")
        if not (_is_number(self.p_dropout) and 0.0 <= self.p_dropout < 1.0):
            raise ValueError(f"p_dropout must be in [0, 1), got {self.p_dropout}")
        if not (self.use_gim or self.use_cgm):
            raise ValueError("at least one branch must be enabled")
        if self.use_cgm:
            default_partition(self.d)  # raises when d is too small to split


def _check_integers(config, *names: str) -> None:
    """Raise naming the first field that is not an integer (bool is not one)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _first_non_finite(values: np.ndarray, mask: np.ndarray | None = None) -> tuple[int, ...] | None:
    """Index of the first non-finite entry of ``values``, of those where
    ``mask`` is 1 if a mask is given; None when there is none."""
    bad = ~np.isfinite(values)
    if mask is not None:
        bad &= mask == 1.0
    return tuple(int(i) for i in np.argwhere(bad)[0]) if bad.any() else None


def fuse(x: np.ndarray, m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """M * X + (1 - M) * Y for the branch sum Y = Y_cgm + Y_gim, shapes equal, M binary.

    The one observed-entry pass-through (``impute_span``, ``pastnet impute``),
    computed as a selection, so an observed entry passes through exactly
    even where Y is not finite.
    """
    x, m, y = (np.asarray(a, dtype=np.float64) for a in (x, m, y))
    if not (x.shape == m.shape == y.shape):
        raise ValueError("fuse inputs must share one shape")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask entries must be 0 or 1")
    return np.where(m == 1.0, x, y)


def compute_losses(
    x,
    m,
    y_gim: Tensor | None,
    y_cgm: Tensor | None,
    sever_residual: bool = True,
) -> tuple[Tensor | None, Tensor | None]:
    """Dual objectives on observed entries; an absent branch (None) has no loss.

    loss1 = masked_mse(y_gim, x, m).  loss2 = masked_mse(y_cgm, r, m) with
    r = x - y_gim; by default y_gim enters r as a constant so loss2 cannot
    move the first branch.  Without a gim branch r = x: cgm alone fits the
    values directly.
    """
    x_c = constant(np.asarray(x, dtype=np.float64))
    loss1 = None if y_gim is None else masked_mse(y_gim, x_c, m)
    target = x_c if y_gim is None else x_c - (y_gim.detach() if sever_residual else y_gim)
    loss2 = None if y_cgm is None else masked_mse(y_cgm, target, m)
    return loss1, loss2


class PastModel:
    """Both branches over one shared parameter store plus fusion/inference."""

    def __init__(
        self,
        config: ModelConfig,
        params: ParamStore,
        gim: GimModule | None,
        cgm: CgmModule | None,
        spatial_op: SpatialOperator,
        norm_stats: tuple[float, float] | None = None,
    ):
        self.config = config
        self.params = params
        self.gim = gim
        self.cgm = cgm
        self.spatial_op = spatial_op
        self.norm_stats = norm_stats

    @classmethod
    def build(
        cls,
        config: ModelConfig,
        adjacency: np.ndarray | None = None,
        spatial_op: SpatialOperator | None = None,
        norm_stats: tuple[float, float] | None = None,
    ) -> "PastModel":
        if spatial_op is None:
            if adjacency is None:
                raise ValueError("need an adjacency matrix or a prebuilt operator")
            spatial_op = build_spatial_operator(adjacency, config.K)
        if spatial_op.n_nodes != config.N or spatial_op.order != config.K:
            raise ValueError("spatial operator does not match the configuration")
        params = ParamStore(seed=config.seed)
        # cgm first: the store draws initial values in the order parameters are added
        cgm = CgmModule.build(params, config) if config.use_cgm else None
        gim = GimModule.build(params, config, spatial_op) if config.use_gim else None
        return cls(config, params, gim, cgm, spatial_op, norm_stats)

    # ---- forward passes ----

    def forward(
        self,
        values: np.ndarray,
        masks: np.ndarray,
        week: np.ndarray,
        hour: np.ndarray,
        minute_bucket: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        sever: bool = True,
    ) -> tuple[Tensor | None, Tensor | None]:
        """Branch outputs for a (B, L, N) batch; either side may be None."""
        y_cgm = None
        hiddens = None
        if self.cgm is not None:
            y_cgm, hiddens = self.cgm.forward(week, hour, minute_bucket)
        y_gim = None
        if self.gim is not None:
            passed = None
            if hiddens is not None:
                passed = [h.detach() if sever else h for h in hiddens]
            y_gim = self.gim.forward(values, masks, passed, training=training, rng=rng)
        return y_gim, y_cgm

    def objective(
        self,
        values: np.ndarray,
        masks: np.ndarray,
        week: np.ndarray,
        hour: np.ndarray,
        minute_bucket: np.ndarray,
        loss_weights: tuple[float, float] = (1.0, 1.0),
        training: bool = False,
        rng: np.random.Generator | None = None,
        sever: bool = True,
    ) -> tuple[Tensor, float, float]:
        """Weighted sum of the losses ``compute_losses`` returns, plus the two
        raw loss values (nan for an absent branch)."""
        y_gim, y_cgm = self.forward(
            values, masks, week, hour, minute_bucket, training=training, rng=rng, sever=sever
        )
        losses = compute_losses(values, masks, y_gim, y_cgm, sever_residual=sever)
        weighted = [loss * w for loss, w in zip(losses, loss_weights) if loss is not None]
        loss1, loss2 = (float("nan") if loss is None else float(loss.data) for loss in losses)
        return sum(weighted[1:], weighted[0]), loss1, loss2

    def impute(
        self,
        values: np.ndarray,
        masks: np.ndarray,
        week: np.ndarray,
        hour: np.ndarray,
        minute_bucket: np.ndarray,
    ) -> np.ndarray:
        """Fused output for a (B, L, N) batch of windows with (B, L) calendars.

        The windows are laid end to end and imputed by ``impute_span``, the
        one tape-free inference path.  Its windows then start at 0, L, ...,
        (B-1)L, with no overlap and no tail, so each window comes out bit for
        bit as if imputed alone.  Shapes and the mask are checked before any
        branch runs.
        """
        values = np.asarray(values, dtype=np.float64)
        L, N = self.config.L, self.config.N
        if values.ndim != 3 or values.shape[1:] != (L, N):
            raise ValueError(
                f"values must be a (B, L, N) = (B, {L}, {N}) array, got shape {values.shape}"
            )
        B = values.shape[0]
        if np.shape(masks) != values.shape:
            raise ValueError(
                f"masks must have the values' shape {values.shape}, got {np.shape(masks)}"
            )
        calendar = {"week": week, "hour": hour, "minute_bucket": minute_bucket}
        for name, arr in calendar.items():
            if np.shape(arr) != (B, L):
                raise ValueError(f"{name} must have shape (B, L) = ({B}, {L}), got {np.shape(arr)}")
        rows = {name: np.reshape(arr, B * L) for name, arr in calendar.items()}
        span = impute_span(self, values.reshape(B * L, N), np.reshape(masks, (B * L, N)), **rows)
        return span.reshape(B, L, N)


def impute_span(
    model: PastModel,
    values: np.ndarray,
    mask: np.ndarray,
    week: np.ndarray,
    hour: np.ndarray,
    minute_bucket: np.ndarray,
) -> np.ndarray:
    """Impute a (T, N) span with (T,) calendar arrays by tiling length-L windows.

    Windows start at 0, L, 2L, ...; an unaligned tail gets one extra window
    ending exactly at the span end.  Each window adds its branch sum
    Y_cgm + Y_gim to an accumulator, overlapping sums are averaged, and
    ``fuse`` runs once at the end: observed entries pass through exactly.
    Hidden entries are never read, so NaN may mark them; a non-finite
    observed value raises ``ValueError`` naming its step and node before
    any window runs.

    The calendar branch reads no measurements, so a window's surface and
    hiddens depend only on its L time-of-week slot codes: each distinct
    window runs ``CgmModule.forward`` at B=1 once, and windows with the same
    codes reuse copies of its (L, N) surface and n (1, N, d) hiddens (none
    without gim, which alone reads them).  On a 15-minute clock the
    stride-L windows repeat after 672 / gcd(L, 672) windows: 7 at L=96, so
    a span of any length costs cgm at most 8 passes (672 slots plus the
    tail's L).  An L that does not divide 672, the slots of a week, costs
    up to L slots per window instead: 168 distinct windows at L=100, about
    25 times the work of L=96 on a span of 25 weeks or more.
    The output equals that of imputing each window on its own, bit for bit.
    Runs without a tape, in one ``numcore.buffer_pool`` rewound before each
    branch pass, so the pool holds one window's buffers whatever the span's
    length.
    """
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    L, N = model.config.L, model.config.N
    if values.ndim != 2:
        raise ValueError(f"values must be a (T, N) array, got shape {values.shape}")
    T = values.shape[0]
    if values.shape[1] != N:
        raise ValueError(f"values has {values.shape[1]} nodes (columns), the model has N={N}")
    if mask.shape != values.shape:
        raise ValueError(
            f"mask must have the values' (T, N) shape {values.shape}, got {mask.shape}"
        )
    if not np.all((mask == 0.0) | (mask == 1.0)):  # NaN included
        raise ValueError("mask entries must be 0 or 1")
    at = _first_non_finite(values, mask)
    if at is not None:
        t, u = at
        raise ValueError(f"observed value at step {t}, node {u} is not finite: {values[at]}")
    calendar = {"week": week, "hour": hour, "minute_bucket": minute_bucket}
    for name, arr in calendar.items():
        if np.shape(arr) != (T,):
            raise ValueError(f"{name} must have shape (T,) = ({T},), got {np.shape(arr)}")
    if T < L:
        raise ValueError(f"span of {T} steps is shorter than the window length {L}")
    starts = list(range(0, T - L + 1, L))
    if starts[-1] != T - L:
        starts.append(T - L)

    if model.cgm is not None:
        codes = slot_codes(**calendar)  # a bad calendar fails before any window runs
    cgm_windows = {}  # a window's slot codes -> its cgm surface and hiddens, out of the pool
    with buffer_pool() as pool, no_grad():
        acc = np.zeros_like(values)
        counts = np.zeros((T, 1))
        for s in starts:
            sl = slice(s, s + L)
            y_cgm = injected = None
            if model.cgm is not None:
                key = codes[sl].tobytes()
                if key not in cgm_windows:
                    pool.rewind()
                    window = (np.asarray(a)[None, sl] for a in calendar.values())
                    y, hiddens = model.cgm.forward(*window)
                    cgm_windows[key] = y.data[0].copy(), [h.data.copy() for h in hiddens]
                y_cgm, injected = cgm_windows[key]
            pool.rewind()
            if model.gim is None:
                acc[sl] += y_cgm
            else:
                y_gim = model.gim.forward(values[None, sl], mask[None, sl], injected).data[0]
                acc[sl] += y_gim if y_cgm is None else y_cgm + y_gim
            counts[sl] += 1.0
    acc /= counts
    return fuse(values, mask, acc)


# ---- training ----


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0
    loss_weights: tuple[float, float] = (1.0, 1.0)
    early_stop_patience: int = 10

    def __post_init__(self):
        _check_integers(self, "batch_size", "epochs", "seed", "early_stop_patience")
        check_seed(self.seed)
        lr_ok = _is_number(self.lr) and 0.0 < self.lr < np.inf
        if not lr_ok or self.batch_size < 1 or self.epochs < 0:
            raise ValueError(
                "lr, batch_size must be positive and epochs non-negative, lr finite; "
                f"got lr={self.lr!r}, batch_size={self.batch_size}, epochs={self.epochs}"
            )
        weights = self.loss_weights
        if not (
            isinstance(weights, (tuple, list))
            and len(weights) == 2
            and all(_is_number(w) and 0.0 <= w < np.inf for w in weights)
        ):
            raise ValueError(
                f"loss_weights must be two finite non-negative numbers, got {weights!r}"
            )
        self.loss_weights = tuple(weights)  # plans give a JSON list
        if self.early_stop_patience < 1:
            raise ValueError(
                f"early_stop_patience must be at least 1, got {self.early_stop_patience}"
            )


@dataclass
class TrainHistory:
    loss1: list[float] = field(default_factory=list)
    loss2: list[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.loss1)


def train(model: PastModel, windows, cfg: TrainConfig) -> tuple[PastModel, TrainHistory]:
    """Mini-batch Adam over shuffled windows; deterministic given cfg.seed.

    The shuffle is reseeded per epoch from (seed, epoch) and one dropout
    stream seeded from cfg.seed spans the whole run, so two identically
    configured runs produce bit-identical histories.  Stops early when the
    first branch's epoch loss fails to improve for early_stop_patience
    epochs.  Before the first step, raises ``ValueError`` naming the
    window, step and node of the first non-finite value, observed or
    hidden: the masked losses weight a hidden entry by 0, and 0 * NaN is
    NaN.  Raises on non-finite losses, naming the epoch and batch.  A batch
    with no observed entry gives the masked losses nothing to average, so
    it is skipped: no forward pass, no dropout draw, no Adam step and no
    share in the epoch's mean loss.  When no window has an observed entry,
    ``ValueError`` is raised before the first step.

    The run holds one ``numcore.buffer_pool`` and rewinds it at the start
    of every optimizer step, so each step's kernels write into the previous
    step's buffers instead of mapping fresh pages.  Forward scratch (the
    dropout draw among it) and the VJPs' scratch and adjoints share the
    pool's arena: scratch goes back once its kernel's node is made, and
    ``backward`` reuses each adjoint's buffer once the adjoint is consumed.
    A step's kernel outputs and saved arrays are therefore valid only until
    the next step; nothing that outlives a step (parameters, gradients,
    moments, history) is one.
    """
    if len(windows) == 0:
        raise ValueError("cannot train on an empty window batch")
    at = _first_non_finite(windows.values)
    if at is not None:
        w, t, u = at
        raise ValueError(
            f"window {w} holds a non-finite value at step {t}, node {u}: "
            f"{windows.values[at]} (the losses read hidden entries too)"
        )
    # any nonzero entry counts, so a mask that is not 0/1 still reaches masked_mse's check
    observed = (windows.masks != 0.0).reshape(len(windows), -1).any(axis=1)
    if not observed.any():
        raise ValueError("no training window holds an observed entry: the losses average over none")
    history = TrainHistory()
    if cfg.epochs == 0:
        return model, history
    adam = AdamState.for_params(model.params, lr=cfg.lr)
    dropout_rng = np.random.default_rng([cfg.seed, 0xD120])
    best = np.inf
    stall = 0
    with buffer_pool() as pool:
        for epoch in range(cfg.epochs):
            order = np.random.default_rng([cfg.seed, epoch]).permutation(len(windows))
            sums = np.zeros(2)
            batches = 0
            for lo in range(0, len(order), cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                if not observed[idx].any():
                    continue
                pool.rewind()
                total, l1, l2 = model.objective(
                    windows.values[idx],
                    windows.masks[idx],
                    windows.week[idx],
                    windows.hour[idx],
                    windows.minute_bucket[idx],
                    loss_weights=cfg.loss_weights,
                    training=True,
                    rng=dropout_rng,
                )
                if not np.isfinite(float(total.data)):
                    raise RuntimeError(
                        f"training diverged at epoch {epoch} batch {lo // cfg.batch_size}: "
                        f"loss1={l1:g} loss2={l2:g}"
                    )
                total.backward()
                del total  # free the step's tape before the next step's forward
                adam_step(model.params, adam)
                sums += (0.0 if np.isnan(l1) else l1, 0.0 if np.isnan(l2) else l2)
                batches += 1
            epoch_l1 = sums[0] / batches
            epoch_l2 = sums[1] / batches
            history.loss1.append(epoch_l1)
            history.loss2.append(epoch_l2)
            tracked = epoch_l1 if model.config.use_gim else epoch_l2
            if tracked < best:
                best = tracked
                stall = 0
            else:
                stall += 1
                if stall >= cfg.early_stop_patience:
                    break
    return model, history
