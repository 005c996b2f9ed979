"""Classical imputation baselines.

Both operate on a (T, N) grid with a binary mask and leave observed entries
untouched.  They carry no trained state, so offline and online evaluation
call the same functions.
"""
from __future__ import annotations

import warnings

import numpy as np

# node pairs sharing fewer co-observed steps than this are never neighbors
MIN_CO_OBSERVED = 10


def _check_inputs(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if x.ndim != 2 or x.shape != m.shape:
        raise ValueError("values and mask must be one 2-d grid")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask entries must be 0 or 1")
    return x, m


def baseline_linear(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Per-node straight lines between adjacent observations.

    Leading and trailing gaps take the nearest observed value.  A node with
    no observations at all is filled with 0 (the normalized-space mean) and
    warned about.
    """
    x, m = _check_inputs(x, m)
    t_axis = np.arange(x.shape[0], dtype=np.float64)
    out = x.copy()
    for u in range(x.shape[1]):
        obs = m[:, u] == 1.0
        if not obs.any():
            warnings.warn(f"node {u} has no observed steps; filling with 0")
            out[:, u] = 0.0
            continue
        gaps = ~obs
        out[gaps, u] = np.interp(t_axis[gaps], t_axis[obs], x[obs, u])
    return out


def _similarity_ranking(x: np.ndarray, m: np.ndarray) -> list[np.ndarray]:
    """Per node: other nodes ordered by mean squared difference, closest first.

    Pairs with fewer than MIN_CO_OBSERVED shared steps are dropped from the
    ranking entirely.
    """
    xm = x * m
    co = m.T @ m
    a = (xm**2).T @ m
    sq = a + a.T - 2.0 * (xm.T @ xm)
    with np.errstate(invalid="ignore", divide="ignore"):
        msd = sq / co
    n = x.shape[1]
    rankings = []
    for u in range(n):
        ok = (co[u] >= MIN_CO_OBSERVED) & (np.arange(n) != u)
        cand = np.flatnonzero(ok)
        rankings.append(cand[np.argsort(msd[u, cand], kind="stable")])
    return rankings


def baseline_knn(x: np.ndarray, m: np.ndarray, k: int) -> np.ndarray:
    """Average of the k most value-similar nodes observed at the same step.

    Similarity is the mean squared difference over co-observed steps; the
    road-graph adjacency plays no role.  Entries with no ranked neighbor
    observed at their step fall back to the linear baseline.
    """
    x, m = _check_inputs(x, m)
    if k < 1:
        raise ValueError("k must be at least 1")
    fallback = baseline_linear(x, m)
    out = x.copy()
    rankings = _similarity_ranking(x, m)
    for u in range(x.shape[1]):
        gaps = m[:, u] == 0.0
        if not gaps.any():
            continue
        ranked = rankings[u]
        if ranked.size == 0:
            out[gaps, u] = fallback[gaps, u]
            continue
        obs = m[:, ranked] == 1.0
        # keep each step's first k observed neighbors in similarity order
        within_k = np.cumsum(obs, axis=1) <= k
        sel = obs & within_k
        counts = sel.sum(axis=1)
        sums = (np.where(sel, x[:, ranked], 0.0)).sum(axis=1)
        filled = np.where(counts > 0, sums / np.maximum(counts, 1), fallback[:, u])
        out[gaps, u] = filled[gaps]
    return out
