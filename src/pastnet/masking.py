"""Missing-data scenario generators.

Three mechanisms drive every experiment: independent point drops (random),
per-node temporal segments (fiber), and segments spanning a connected group
of nodes (block).  Masks are (T, N) arrays of exactly 0/1 with 1 meaning
observed.  Segment and block placement may overlap earlier draws; the
generators keep drawing until the global missing fraction reaches the
target r, so the achieved rate lands in [r, r + max_draw_size/(T*N)].
All draws come from one seeded PCG64 stream, making every mask a pure
function of (shape, config, seed).  Fiber and block share one draw loop:
node, start, length, then the group the segment covers, which for fiber is
the drawn node alone (a block of s = 1).
"""
from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import check_seed, load_values_csv

SCENARIO_KINDS = ("random", "fiber", "block")


@dataclass(frozen=True)
class ScenarioConfig:
    """One missing-data scenario; fields beyond r apply per kind.

    l is the maximum segment length (fiber/block), s the block node span.
    uniform_span switches block spans from exactly s nodes to uniform{1..s}.
    """

    kind: str
    r: float
    l: int | None = None
    s: int | None = None
    seed: int = 0
    uniform_span: bool = False

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"kind must be one of {SCENARIO_KINDS}")
        if not (0.0 < self.r < 1.0):
            raise ValueError("r must be in (0, 1)")
        check_seed(self.seed)
        if self.kind in ("fiber", "block"):
            if self.l is None or self.l < 1:
                raise ValueError("fiber/block scenarios need l >= 1")
        if self.kind == "block":
            if self.s is None or self.s < 1:
                raise ValueError("block scenarios need s >= 1")

    @property
    def label(self) -> str:
        if self.kind == "random":
            return f"random_r{self.r:g}"
        if self.kind == "fiber":
            return f"fiber_r{self.r:g}_l{self.l}"
        return f"block_r{self.r:g}_l{self.l}_s{self.s}"


@dataclass
class MaskStats:
    missing_rate: float
    per_node_max_run: np.ndarray
    mean_run_length: float


def gen_random(shape: tuple[int, int], r: float, seed: int) -> np.ndarray:
    """Each entry missing independently with probability r."""
    if not (0.0 < r < 1.0):
        raise ValueError("r must be in (0, 1)")
    rng = np.random.default_rng(seed)
    return (rng.random(shape) >= r).astype(np.float64)


def _draw_segments(shape: tuple[int, int], r: float, l: int, seed: int, kind: str, group_of):
    """Knock out segments until the missing fraction reaches r: (mask, segments).

    Each draw takes a node, a start and a uniform{1..l} length from one
    stream, then ``group_of(node, rng)`` names the nodes the segment covers
    (it may draw more from ``rng``).  Each segment is (group, start, length).
    """
    T, N = shape
    if not (0.0 < r < 1.0):
        raise ValueError("r must be in (0, 1)")
    if not (1 <= l <= T):
        raise ValueError("l must be in [1, T]")
    rng = np.random.default_rng(seed)
    mask = np.ones(shape)
    target = r * T * N
    missing = 0.0
    segments: list[tuple[list[int], int, int]] = []
    for _ in range(10_000 + 20 * T * N):
        if missing >= target:
            return mask, segments
        node = int(rng.integers(N))
        t0 = int(rng.integers(T))
        length = int(rng.integers(1, l + 1))
        group = group_of(node, rng)
        rows = mask[t0 : t0 + length]
        missing += float(rows[:, group].sum())
        rows[:, group] = 0.0
        segments.append((group, t0, length))
    raise RuntimeError(f"{kind} generator failed to reach the target rate")


def gen_fiber(shape: tuple[int, int], r: float, l: int, seed: int) -> np.ndarray:
    """Per-node missing segments of uniform{1..l} length until rate >= r."""
    return _draw_segments(shape, r, l, seed, "fiber", lambda node, rng: [node])[0]


def _bfs_group(adjacency: np.ndarray, start: int, span: int) -> list[int]:
    """Collect up to ``span`` nodes expanding from start, ties by index."""
    n = adjacency.shape[0]
    picked: list[int] = []
    seen = {start}
    queue = deque([start])
    while queue and len(picked) < span:
        u = queue.popleft()
        picked.append(u)
        neighbors = [v for v in range(n) if adjacency[u, v] > 0 and v not in seen]
        for v in sorted(neighbors):
            seen.add(v)
            queue.append(v)
    return picked


def gen_block(
    shape: tuple[int, int],
    r: float,
    l: int,
    s: int,
    adjacency: np.ndarray,
    seed: int,
    uniform_span: bool = False,
    return_blocks: bool = False,
):
    """Connected node groups x time segments missing until rate >= r.

    Each draw picks a seed node, gathers s connected nodes breadth-first
    (ascending-index tie-break), then knocks out a uniform{1..l} segment on
    all of them.  With uniform_span the group size is itself uniform{1..s}.
    A connected component smaller than the requested span is used whole,
    with a warning.
    """
    N = shape[1]
    if not (1 <= s <= N):
        raise ValueError("s must be in [1, N]")
    adjacency = np.asarray(adjacency)
    if adjacency.shape != (N, N):
        raise ValueError("adjacency shape must be (N, N)")
    warned_small = False

    def group_of(center: int, rng: np.random.Generator) -> list[int]:
        nonlocal warned_small
        span = int(rng.integers(1, s + 1)) if uniform_span else s
        group = _bfs_group(adjacency, center, span)
        if len(group) < span and not warned_small:
            warnings.warn(
                "connected component smaller than block span; using whole component",
                RuntimeWarning,
            )
            warned_small = True
        return group

    mask, blocks = _draw_segments(shape, r, l, seed, "block", group_of)
    return (mask, blocks) if return_blocks else mask


def generate_mask(
    shape: tuple[int, int], config: ScenarioConfig, adjacency: np.ndarray | None = None
) -> np.ndarray:
    if config.kind == "random":
        return gen_random(shape, config.r, config.seed)
    if config.kind == "fiber":
        return gen_fiber(shape, config.r, config.l, config.seed)
    if adjacency is None:
        raise ValueError("block scenario requires an adjacency matrix")
    return gen_block(
        shape, config.r, config.l, config.s, adjacency, config.seed, config.uniform_span
    )


def validate_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise ValueError("mask must be a (T, N) array")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("mask entries must be exactly 0 or 1")
    return mask


def mask_stats(mask: np.ndarray) -> MaskStats:
    """Missing rate plus per-node max and global mean missing-run lengths."""
    mask = validate_mask(mask)
    T, N = mask.shape
    missing = mask == 0.0
    rate = float(missing.mean())
    max_runs = np.zeros(N, dtype=np.int64)
    run_lengths: list[int] = []
    for u in range(N):
        run = 0
        for t in range(T):
            if missing[t, u]:
                run += 1
            elif run:
                run_lengths.append(run)
                max_runs[u] = max(max_runs[u], run)
                run = 0
        if run:
            run_lengths.append(run)
            max_runs[u] = max(max_runs[u], run)
    mean_run = float(np.mean(run_lengths)) if run_lengths else 0.0
    return MaskStats(missing_rate=rate, per_node_max_run=max_runs, mean_run_length=mean_run)


def save_mask_csv(path: str, mask: np.ndarray, node_ids: list[str]) -> None:
    mask = validate_mask(mask)
    with open(path, "w") as fh:
        fh.write(",".join(node_ids) + "\n")
        np.savetxt(fh, mask, delimiter=",", fmt="%d")


def load_mask_csv(path: str) -> np.ndarray:
    return validate_mask(load_values_csv(path)[0])
