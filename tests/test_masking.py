"""Scenario generators: determinism, rate bounds, run structure, stats."""
import hashlib
import re

import numpy as np
import pytest

from pastnet.masking import (
    MaskStats,
    ScenarioConfig,
    gen_block,
    gen_fiber,
    gen_random,
    generate_mask,
    load_mask_csv,
    mask_stats,
    save_mask_csv,
    validate_mask,
)


def line_adjacency(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def test_scenario_config_validation_and_labels():
    with pytest.raises(ValueError):
        ScenarioConfig(kind="weird", r=0.2)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="random", r=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="fiber", r=0.2)  # missing l
    with pytest.raises(ValueError):
        ScenarioConfig(kind="block", r=0.2, l=4)  # missing s
    assert ScenarioConfig(kind="random", r=0.2).label == "random_r0.2"
    assert ScenarioConfig(kind="fiber", r=0.4, l=48).label == "fiber_r0.4_l48"
    assert ScenarioConfig(kind="block", r=0.2, l=24, s=5).label == "block_r0.2_l24_s5"


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "fraction", "bool"])
def test_scenario_config_rejects_a_seed_numpy_cannot_take(seed):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed}$"):
        ScenarioConfig("random", 0.2, seed=seed)


def test_gen_random_deterministic_and_binary():
    m1 = gen_random((40, 5), 0.3, seed=6)
    m2 = gen_random((40, 5), 0.3, seed=6)
    m3 = gen_random((40, 5), 0.3, seed=7)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, m3)
    assert np.all((m1 == 0.0) | (m1 == 1.0))


def test_gen_random_tiny_rate_all_observed():
    m = gen_random((100, 100), 1e-9, seed=0)
    assert np.all(m == 1.0)


def test_gen_random_binomial_band():
    # three-sigma band around the expected missing count
    T, N, r = 480, 20, 0.4
    m = gen_random((T, N), r, seed=11)
    missing = (m == 0.0).sum()
    expected = T * N * r
    band = 3.0 * np.sqrt(T * N * r * (1 - r))
    assert abs(missing - expected) <= band


def test_gen_fiber_rate_bound_and_determinism():
    T, N, r, l = 240, 8, 0.4, 24
    m = gen_fiber((T, N), r, l, seed=4)
    assert np.array_equal(m, gen_fiber((T, N), r, l, seed=4))
    rate = (m == 0.0).mean()
    assert r <= rate <= r + l / (T * N)


def test_gen_fiber_sparse_runs_bounded_by_l():
    # sparse fill: segments unlikely to merge, seed pinned to a clean draw
    T, N, l = 500, 4, 5
    m = gen_fiber((T, N), 0.05, l, seed=0)
    stats = mask_stats(m)
    assert np.all(stats.per_node_max_run <= l)


def test_gen_fiber_unit_length_degenerates():
    m = gen_fiber((60, 3), 0.3, 1, seed=5)
    rate = (m == 0.0).mean()
    assert 0.3 <= rate <= 0.3 + 1 / 180


def test_gen_block_blocks_are_connected_and_sized():
    n = 6
    adj = line_adjacency(n)
    T, r, l, s = 96, 0.3, 12, 3
    mask, blocks = gen_block((T, n), r, l, s, adj, seed=8, return_blocks=True)
    assert len(blocks) >= 1
    for group, t0, length in blocks:
        assert len(group) == s
        assert len(set(group)) == s
        # connectivity of the group checked by an independent reachability walk
        members = set(group)
        seen = {group[0]}
        frontier = [group[0]]
        while frontier:
            u = frontier.pop()
            for v in range(n):
                if adj[u, v] > 0 and v in members and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        assert seen == members
        assert 0 <= t0 < T and 1 <= length <= l
    rate = (mask == 0.0).mean()
    assert r <= rate <= r + s * l / (T * n)


def test_gen_block_small_component_warns_and_uses_whole():
    adj = np.zeros((5, 5))
    adj[0, 1] = adj[1, 0] = 1.0  # component {0,1}; nodes 2..4 isolated
    with pytest.warns(RuntimeWarning):
        mask, blocks = gen_block((50, 5), 0.2, 8, 3, adj, seed=3, return_blocks=True)
    assert all(len(g) <= 3 for g, _, _ in blocks)
    assert any(len(g) < 3 for g, _, _ in blocks)


def test_gen_block_bfs_tie_break_ascending():
    # star graph: center 0 linked to 1..4; from 0 with span 3 the two
    # neighbors taken must be the smallest indices
    n = 5
    adj = np.zeros((n, n))
    for v in range(1, n):
        adj[0, v] = adj[v, 0] = 1.0
    from pastnet.masking import _bfs_group

    assert _bfs_group(adj, 0, 3) == [0, 1, 2]
    assert _bfs_group(adj, 2, 3) == [2, 0, 1]


def test_gen_block_uniform_span_variant():
    adj = line_adjacency(6)
    _, blocks = gen_block(
        (96, 6), 0.4, 12, 4, adj, seed=9, uniform_span=True, return_blocks=True
    )
    sizes = {len(g) for g, _, _ in blocks}
    assert sizes <= {1, 2, 3, 4}
    assert len(sizes) > 1  # actually varies


def test_generate_mask_dispatch():
    adj = line_adjacency(4)
    shape = (60, 4)
    m = generate_mask(shape, ScenarioConfig(kind="random", r=0.2, seed=1), adjacency=adj)
    assert m.shape == shape
    assert abs((m == 0.0).mean() - 0.2) < 0.1  # binomial, no hard bound
    for cfg in (
        ScenarioConfig(kind="fiber", r=0.2, l=6, seed=1),
        ScenarioConfig(kind="block", r=0.2, l=6, s=2, seed=1),
    ):
        m = generate_mask(shape, cfg, adjacency=adj)
        assert m.shape == shape
        assert (m == 0.0).mean() >= 0.2  # threshold generators overshoot only
    with pytest.raises(ValueError):
        generate_mask(shape, ScenarioConfig(kind="block", r=0.2, l=6, s=2))


def test_mask_stats_trivial_cases():
    stats = mask_stats(np.ones((10, 3)))
    assert stats.missing_rate == 0.0
    assert np.all(stats.per_node_max_run == 0)
    assert stats.mean_run_length == 0.0
    m = np.ones((96, 2))
    m[:, 0] = 0.0
    stats = mask_stats(m)
    assert stats.missing_rate == 0.5
    assert list(stats.per_node_max_run) == [96, 0]
    assert stats.mean_run_length == 96.0


def test_mask_stats_hand_case():
    # node 0 missing at rows 0-1, node 1 missing at rows 1-2
    m = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    stats = mask_stats(m)
    assert stats.missing_rate == pytest.approx(4.0 / 6.0)
    assert list(stats.per_node_max_run) == [2, 2]
    assert stats.mean_run_length == 2.0
    # interleaved runs: lengths 1, 1 and 1
    m2 = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    stats2 = mask_stats(m2)
    assert stats2.missing_rate == 0.5
    assert list(stats2.per_node_max_run) == [1, 1]
    assert stats2.mean_run_length == 1.0


def test_mask_csv_roundtrip_and_validation(tmp_path):
    path = str(tmp_path / "mask.csv")
    m = gen_random((30, 4), 0.4, seed=1)
    save_mask_csv(path, m, [f"node_{i}" for i in range(4)])
    loaded = load_mask_csv(path)
    assert np.array_equal(loaded, m)
    with pytest.raises(ValueError):
        validate_mask(np.array([[0.5, 1.0]]))


@pytest.mark.parametrize("header", ["node_0", "node_0,node_1"], ids=["one-node", "two-nodes"])
def test_mask_csv_without_data_rows_raises_naming_the_file(tmp_path, header):
    path = tmp_path / "mask.csv"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} has no data rows after its header")):
        load_mask_csv(str(path))


def test_mask_csv_column_count_must_match_header(tmp_path):
    path = tmp_path / "mask.csv"
    path.write_text("node_0,node_1\n1,0,1\n0,1,1\n")
    with pytest.raises(ValueError, match=r"column count 3 does not match header \(2 ids\)"):
        load_mask_csv(str(path))


# sha256 of the generate_mask bytes of each kind over shapes (48, 5) and (120, 12)
# and seeds 0, 1, 2, recorded before fiber and block shared one draw loop.  They
# belong to numpy's PCG64 ``Generator`` stream (numpy 2.4); every seeded result in
# the library depends on it, so a change here changes every mask-dependent figure.
MASK_STREAM_SHA256 = {
    "random": "1b0a3dca08e6ab8991434bf39edffe93081945ec80d09e351e5ec9e1d40c50e4",
    "fiber": "ba8109fb1264bbb21a72728487a23d2ae89dfe8037cd20b001480b97335e52dd",
    "block": "4a7b7c96cc7973009993f2b6fc067fee22e3b67bb156acf02f757d8ced7202b3",
    "block-uniform-span": "75c182661b9527f813b0f19dfd3201f5d9d7d04c87082fbe6ced4b3007f94e21",
}
MASK_STREAM_FIELDS = {
    "random": dict(kind="random", r=0.3),
    "fiber": dict(kind="fiber", r=0.3, l=8),
    "block": dict(kind="block", r=0.3, l=8, s=3),
    "block-uniform-span": dict(kind="block", r=0.3, l=8, s=3, uniform_span=True),
}


@pytest.mark.parametrize("name", sorted(MASK_STREAM_SHA256))
def test_mask_stream_is_pinned(name):
    digest = hashlib.sha256()
    for shape in ((48, 5), (120, 12)):
        for seed in (0, 1, 2):
            config = ScenarioConfig(seed=seed, **MASK_STREAM_FIELDS[name])
            digest.update(generate_mask(shape, config, line_adjacency(shape[1])).tobytes())
    assert digest.hexdigest() == MASK_STREAM_SHA256[name]
