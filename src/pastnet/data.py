"""Datasets for traffic-network imputation.

Synthetic generation, CSV/JSON ingestion, z-score normalization, calendar
feature extraction, distance-kernel spatial adjacency, and windowing into
fixed-length training slices.

Ground truth stays complete: every "missing" value exists in ``values`` and
missingness lives only in mask matrices, so simulated gaps can be scored
exactly against known truth.
"""
from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

MINUTES_PER_DAY = 24 * 60
STD_FLOOR = 1e-8


@dataclass(frozen=True)
class StartTime:
    """Calendar anchor of a series: weekday 0-6 (0 = Monday), hour, minute."""

    week: int = 0
    hour: int = 0
    minute: int = 0

    def __post_init__(self):
        if not (0 <= self.week <= 6 and 0 <= self.hour <= 23 and 0 <= self.minute <= 59):
            raise ValueError(f"invalid start time {self}")


@dataclass
class TrafficDataset:
    """Complete measurement grid plus road-graph metadata.

    values: (T, N) float64, no NaN.  edges: (i, j, distance) triples with
    indices into node_ids.  norm_stats is (mean, std) once normalized.
    """

    values: np.ndarray
    start_time: StartTime = field(default_factory=StartTime)
    step_minutes: int = 15
    node_ids: list[str] = field(default_factory=list)
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    norm_stats: tuple[float, float] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a (T, N) array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite; missingness belongs in masks")
        if self.step_minutes <= 0:
            raise ValueError("step_minutes must be positive")
        n = self.values.shape[1]
        if not self.node_ids:
            self.node_ids = [f"node_{i}" for i in range(n)]
        if len(self.node_ids) != n or len(set(self.node_ids)) != n:
            raise ValueError("node_ids must be unique and match the value columns")
        for i, j, d in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
            if not (np.isfinite(d) and d >= 0):  # NaN compares False both ways
                raise ValueError(
                    f"edge ({i}, {j}) distance must be finite and non-negative, got {d}"
                )

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]


@dataclass
class WindowBatch:
    """Fixed-length windows cut from one split of a dataset.

    All arrays share the leading window axis: values/masks are (W, L, N),
    the calendar features week/hour/minute_bucket are (W, L) ints, starts
    holds each window's absolute step index.
    """

    values: np.ndarray
    masks: np.ndarray
    week: np.ndarray
    hour: np.ndarray
    minute_bucket: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]


def build_spatial_adjacency(n_nodes: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """Gaussian distance kernel a_ij = exp(-d_ij^2 / sigma^2) on listed edges.

    sigma is the population standard deviation of all edge distances.  The
    result is symmetric with zero diagonal and zeros for unlisted pairs.
    When every distance is equal, connected pairs get weight 1.  Distinct
    distances whose spread leaves float64's range (sigma^2 overflows or
    underflows to 0, or a weight is not finite) raise.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be at least 1")
    if not edges:
        raise ValueError("at least one edge is required")
    dists = np.array([d for _, _, d in edges], dtype=np.float64)
    if (dists == dists[0]).all():  # not sigma == 0: std of equal values may round above 0
        warnings.warn("all edge distances equal; using unit weights", RuntimeWarning)
        weights = np.ones_like(dists)
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
            sigma = float(dists.std())
            weights = np.exp(-(dists**2) / sigma**2)
        if not (0.0 < sigma**2 < np.inf and np.isfinite(weights).all()):
            raise ValueError(
                f"edge distances up to {dists.max():g} leave float64's range in the Gaussian "
                f"kernel exp(-d^2 / sigma^2) (sigma = {sigma:g}); rescale the distances"
            )
    a = np.zeros((n_nodes, n_nodes))
    for (i, j, _), w in zip(edges, weights):
        a[i, j] = w
        a[j, i] = w
    np.fill_diagonal(a, 0.0)
    return a


def _connected(n: int, edges: list[tuple[int, int, float]]) -> bool:
    """Whether the undirected graph on nodes 0..n-1 with these edges is connected.

    A breadth-first search from node 0 that moves the whole frontier along
    the edge list at once.
    """
    ends = np.array([e[:2] for e in edges], dtype=np.intp).reshape(-1, 2)
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        reached = np.zeros(n, dtype=bool)
        reached[dst[frontier[src]]] = True
        frontier = reached & ~seen
        seen |= frontier
    return bool(seen.all())


def check_seed(seed, name: str = "seed") -> None:
    """Raise naming ``name`` unless ``seed`` is a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")


def check_recipe(n_nodes, n_days, step_minutes, noise_level) -> None:
    """Raise naming the first ``synthesize_dataset`` argument it cannot use."""
    if n_nodes < 2 or n_days < 2:
        raise ValueError(f"n_nodes and n_days must be at least 2, got {n_nodes} and {n_days}")
    if step_minutes < 1 or MINUTES_PER_DAY % step_minutes != 0:
        raise ValueError(f"step_minutes must be a positive divisor of 1440, got {step_minutes!r}")
    if not 0.0 <= noise_level < np.inf:  # NaN fails too
        raise ValueError(f"noise_level must be finite and non-negative, got {noise_level!r}")


def synthesize_dataset(
    n_nodes: int,
    n_days: int,
    step_minutes: int = 15,
    seed: int = 0,
    noise_level: float = 0.2,
) -> TrafficDataset:
    """Random geometric road graph plus daily-periodic node series.

    Node positions land on the unit square and pairs within a radius tuned
    for average degree about 4 become edges (Euclidean distances).  Each
    series is a shared base level, a node offset drawn from a neighbor-
    smoothed field, a two-harmonic daily curve with weekday/weekend
    amplitude and neighbor-correlated phase, and AR(1) noise scaled by
    noise_level.  Deterministic in seed; noise_level 0 gives exact
    weekly-class periodicity.
    """
    check_recipe(n_nodes, n_days, step_minutes, noise_level)
    check_seed(seed)
    rng = np.random.default_rng(seed)

    positions = rng.uniform(size=(n_nodes, 2))
    radius = np.sqrt(4.0 / ((n_nodes - 1) * np.pi))
    edges: list[tuple[int, int, float]] = []
    for attempt in range(10):
        edges = []
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                d = float(np.hypot(*(positions[i] - positions[j])))
                if d <= radius:
                    edges.append((i, j, d))
        if _connected(n_nodes, edges):
            break
        radius *= 1.3
    else:
        raise RuntimeError("could not draw a connected geometric graph in 10 attempts")

    # neighbor-smoothed offsets so nearby nodes sit at correlated levels
    binary = np.zeros((n_nodes, n_nodes))
    for i, j, _ in edges:
        binary[i, j] = binary[j, i] = 1.0
    binary += np.eye(n_nodes)
    smooth = binary / binary.sum(axis=1, keepdims=True)
    offsets = smooth @ (smooth @ rng.normal(size=n_nodes))
    offsets = 2.0 * (offsets - offsets.mean()) / max(offsets.std(), 1e-12)

    steps_per_day = MINUTES_PER_DAY // step_minutes
    theta = np.arange(steps_per_day) * step_minutes / MINUTES_PER_DAY
    # rush hours align across the network: one shared phase per harmonic,
    # plus a neighbor-smoothed jitter so nearby nodes peak minutes apart
    phase1 = rng.uniform(0.0, 2.0 * np.pi) + 0.3 * (smooth @ (smooth @ rng.normal(size=n_nodes)))
    phase2 = rng.uniform(0.0, 2.0 * np.pi) + 0.3 * (smooth @ (smooth @ rng.normal(size=n_nodes)))
    # one day of curve per node, tiled so equal clock times reuse the exact
    # same floats (bitwise periodicity when noise is off)
    day_curve = np.sin(2.0 * np.pi * theta[:, None] - phase1[None, :]) + 0.5 * np.sin(
        4.0 * np.pi * theta[:, None] - phase2[None, :]
    )

    values = np.empty((n_days * steps_per_day, n_nodes))
    for day in range(n_days):
        weekday = day % 7  # start anchor is Monday 00:00
        amp = 0.6 if weekday >= 5 else 1.0
        block = 5.0 + offsets[None, :] + amp * day_curve
        values[day * steps_per_day : (day + 1) * steps_per_day] = block

    if noise_level > 0.0:
        rho = 0.8
        # congestion-style fluctuations: shocks are spatially smoothed so
        # neighbors share most of their noise, each node stays unit-variance
        # AR(1) marginally
        s2 = smooth @ smooth
        shared = rng.normal(size=values.shape) @ s2.T
        shared /= np.linalg.norm(s2, axis=1)[None, :]
        shocks = 0.9 * shared + np.sqrt(1.0 - 0.81) * rng.normal(size=values.shape)
        ar = np.empty_like(shocks)
        ar[0] = shocks[0]
        scale = np.sqrt(1.0 - rho**2)
        for t in range(1, ar.shape[0]):
            ar[t] = rho * ar[t - 1] + scale * shocks[t]
        values += noise_level * ar

    return TrafficDataset(
        values=values,
        start_time=StartTime(0, 0, 0),
        step_minutes=step_minutes,
        node_ids=[f"node_{i}" for i in range(n_nodes)],
        edges=edges,
    )


def normalize(ds: TrafficDataset, train_fraction: float, mask: np.ndarray) -> TrafficDataset:
    """Z-score the whole grid using observed entries of the training span.

    Statistics come only from entries with mask 1 inside the first
    floor(train_fraction * T) steps, shared across all nodes.  std is
    clamped to 1e-8 before dividing.
    """
    if not (0.0 < train_fraction <= 1.0):
        raise ValueError("train_fraction must be in (0, 1]")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != ds.values.shape:
        raise ValueError("mask shape must match values")
    boundary = int(np.floor(train_fraction * ds.n_steps))
    observed = ds.values[:boundary][mask[:boundary] == 1.0]
    if observed.size == 0:
        raise ValueError("no observed entries in the training span")
    mean = float(observed.mean())
    std = max(float(observed.std()), STD_FLOOR)
    return replace(ds, values=(ds.values - mean) / std, norm_stats=(mean, std))


def time_feature_arrays(
    ds: TrafficDataset, start_index: int, length: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weekday (0 = Monday), hour and 15-minute bucket of each step in
    [start_index, start_index + length), on a cyclic 7-day clock."""
    start = ds.start_time
    idx = np.arange(start_index, start_index + length, dtype=np.int64)
    total = start.hour * 60 + start.minute + idx * ds.step_minutes
    week = (start.week + total // MINUTES_PER_DAY) % 7
    minute_of_day = total % MINUTES_PER_DAY
    return week, minute_of_day // 60, minute_of_day % 60 // 15


def _cut_windows(
    ds: TrafficDataset, mask: np.ndarray, lo: int, hi: int, L: int, stride: int, side: str
) -> WindowBatch:
    starts = list(range(lo, hi - L + 1, stride))
    if not starts:
        warnings.warn(f"{side} span shorter than window length; no windows", RuntimeWarning)
    n = ds.n_nodes
    values = np.empty((len(starts), L, n))
    masks = np.empty((len(starts), L, n))
    week = np.empty((len(starts), L), dtype=np.int64)
    hour = np.empty_like(week)
    bucket = np.empty_like(week)
    for w, s in enumerate(starts):
        values[w] = ds.values[s : s + L]
        masks[w] = mask[s : s + L]
        week[w], hour[w], bucket[w] = time_feature_arrays(ds, s, L)
    return WindowBatch(values, masks, week, hour, bucket, np.array(starts, dtype=np.int64))


def window_split(
    ds: TrafficDataset, L: int, stride: int, train_fraction: float, mask: np.ndarray
) -> tuple[WindowBatch, WindowBatch]:
    """Cut stride-spaced length-L windows on each side of the time split.

    The time axis splits at floor(train_fraction * T); windows never
    straddle the boundary.  A side shorter than L yields an empty batch
    with a warning.
    """
    if L > ds.n_steps:
        raise ValueError("window length exceeds the series")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != ds.values.shape:
        raise ValueError("mask shape must match values")
    boundary = int(np.floor(train_fraction * ds.n_steps))
    train = _cut_windows(ds, mask, 0, boundary, L, stride, "train")
    test = _cut_windows(ds, mask, boundary, ds.n_steps, L, stride, "test")
    return train, test


# ---- file formats ----


def save_values_csv(path: str, values: np.ndarray, node_ids: list[str]) -> None:
    values = np.asarray(values)
    with open(path, "w") as fh:
        fh.write(",".join(node_ids) + "\n")
        np.savetxt(fh, values, delimiter=",", fmt="%.17g")


def load_values_csv(path: str) -> tuple[np.ndarray, list[str]]:
    """A header of node ids, then a (T, N) grid; the mask CSV shares this layout."""
    with open(path) as fh:
        header = fh.readline().strip()
        node_ids = header.split(",") if header else []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data": raised below, naming the file
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if values.size == 0:
        raise ValueError(f"{path} has no data rows after its header")
    if values.shape[1] != len(node_ids):
        raise ValueError(
            f"{path}: column count {values.shape[1]} does not match header ({len(node_ids)} ids)"
        )
    return values, node_ids


def save_graph_json(path: str, ds: TrafficDataset) -> None:
    payload = {
        "step_minutes": ds.step_minutes,
        "start": {
            "week": ds.start_time.week,
            "hour": ds.start_time.hour,
            "minute": ds.start_time.minute,
        },
        "nodes": ds.node_ids,
        "edges": [[i, j, d] for i, j, d in ds.edges],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _whole(x) -> bool:
    """A JSON integer, or a float with an integer value (bool is not one)."""
    return (isinstance(x, int) and not isinstance(x, bool)) or (
        isinstance(x, float) and x.is_integer()
    )


def _number(x) -> bool:
    """A JSON number that fits a float64 (bool is not one)."""
    return isinstance(x, float) or (_whole(x) and abs(x) <= sys.float_info.max)


def load_dataset(values_path: str, graph_path: str) -> TrafficDataset:
    values, node_ids = load_values_csv(values_path)
    with open(graph_path) as fh:
        meta = json.load(fh)

    def require(ok: bool, field: str, want: str) -> None:
        if not ok:
            raise ValueError(f"graph JSON {graph_path}: {field} must be {want}")

    require(isinstance(meta, dict), "the top level", "an object")
    for key in ("nodes", "start", "step_minutes", "edges"):
        require(key in meta, f"field {key!r}", "present")
    if meta["nodes"] != node_ids:
        raise ValueError(f"graph JSON {graph_path}: node list does not match values header")
    start = meta["start"]
    require(
        isinstance(start, dict) and all(_whole(start.get(k)) for k in ("week", "hour", "minute")),
        "'start'",
        'an object with integer "week", "hour" and "minute"',
    )
    require(_whole(meta["step_minutes"]), "'step_minutes'", "an integer")
    require(isinstance(meta["edges"], list), "'edges'", "a list")
    for k, edge in enumerate(meta["edges"]):
        require(
            isinstance(edge, list) and len(edge) == 3 and _whole(edge[0]) and _whole(edge[1])
            and _number(edge[2]),
            f"edges[{k}]",
            f"an [i, j, distance] triple of two integers and a number, got {edge!r}",
        )
    return TrafficDataset(
        values=values,
        start_time=StartTime(int(start["week"]), int(start["hour"]), int(start["minute"])),
        step_minutes=int(meta["step_minutes"]),
        node_ids=list(node_ids),
        edges=[(int(i), int(j), float(d)) for i, j, d in meta["edges"]],
    )
