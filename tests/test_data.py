"""Dataset construction, transforms, calendar features, windowing, file IO."""
import hashlib
import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from pastnet.data import (
    MINUTES_PER_DAY,
    _connected,
    StartTime,
    TrafficDataset,
    build_spatial_adjacency,
    load_dataset,
    load_values_csv,
    normalize,
    save_graph_json,
    save_values_csv,
    synthesize_dataset,
    time_feature_arrays,
    window_split,
)


def make_ds(T=8, N=3, step=15):
    values = np.arange(T * N, dtype=float).reshape(T, N)
    return TrafficDataset(values=values, step_minutes=step, edges=[(0, 1, 1.0)])


def test_dataset_validation():
    with pytest.raises(ValueError):
        TrafficDataset(values=np.array([1.0, 2.0]))  # not 2-d
    with pytest.raises(ValueError):
        TrafficDataset(values=np.array([[np.nan]]))
    with pytest.raises(ValueError):
        TrafficDataset(values=np.ones((2, 2)), step_minutes=0)
    with pytest.raises(ValueError):
        TrafficDataset(values=np.ones((2, 2)), edges=[(0, 5, 1.0)])
    with pytest.raises(ValueError):
        TrafficDataset(values=np.ones((2, 2)), edges=[(0, 1, -1.0)])
    with pytest.raises(ValueError):
        StartTime(week=7)
    ds = make_ds()
    assert ds.node_ids == ["node_0", "node_1", "node_2"]


def test_spatial_adjacency_kernel_values():
    # distances {1, 3}: sigma = 1, so a = exp(-d^2)
    a = build_spatial_adjacency(3, [(0, 1, 1.0), (1, 2, 3.0)])
    assert a[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert a[1, 2] == pytest.approx(np.exp(-9.0), abs=1e-12)
    assert a[0, 2] == 0.0  # unlisted pair
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0.0)
    assert np.all((a >= 0.0) & (a <= 1.0))


def test_spatial_adjacency_hand_sigma():
    # distances {1,2,3}: population variance 2/3, so a(d=1) = exp(-3/2)
    a = build_spatial_adjacency(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
    assert a[0, 1] == pytest.approx(np.exp(-1.5), rel=1e-12)


def test_spatial_adjacency_degenerate_and_errors():
    with pytest.warns(RuntimeWarning):
        a = build_spatial_adjacency(3, [(0, 1, 2.0), (1, 2, 2.0)])
    assert a[0, 1] == 1.0 and a[1, 2] == 1.0
    # three 0.1s: their float mean is 0.10000000000000002, so std reads 1.4e-17, not 0
    with pytest.warns(RuntimeWarning, match="all edge distances equal"):
        a = build_spatial_adjacency(4, [(0, 1, 0.1), (1, 2, 0.1), (2, 3, 0.1)])
    assert a[0, 1] == a[1, 2] == a[2, 3] == 1.0
    with pytest.raises(ValueError):
        build_spatial_adjacency(0, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        build_spatial_adjacency(3, [])


def test_spatial_adjacency_overflowing_distances_raise_naming_the_cause():
    # finite distances, but std and d^2 overflow: the kernel would compute inf / inf = NaN
    with pytest.raises(ValueError, match=r"leave float64's range .*\(sigma = inf\)"):
        build_spatial_adjacency(3, [(0, 1, 1e300), (1, 2, 1.0)])


@pytest.mark.parametrize(
    "edges",
    [[(0, 1, 1e-170), (1, 2, 0.0)], [(0, 1, 1e-150), (1, 2, 1e-150 + 1e-165)]],
    ids=["tiny-distances", "tiny-spread"],
)
def test_spatial_adjacency_underflowing_sigma_raises_for_distinct_distances(edges):
    # the distances differ, but the squared deviations underflow and sigma reads 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "all edge distances equal" warning either
        with pytest.raises(ValueError, match=r"\(sigma = 0\); rescale the distances"):
            build_spatial_adjacency(3, edges)


def test_synthesize_deterministic_and_seed_sensitive():
    a = synthesize_dataset(n_nodes=5, n_days=2, seed=42)
    b = synthesize_dataset(n_nodes=5, n_days=2, seed=42)
    c = synthesize_dataset(n_nodes=5, n_days=2, seed=43)
    assert np.array_equal(a.values, b.values)
    assert a.edges == b.edges
    assert not np.array_equal(a.values, c.values)
    assert a.values.shape == (2 * 96, 5)


def _union_find_connected(n, edges):
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j, _ in edges:
        parent[root(i)] = root(j)
    return len({root(i) for i in range(n)}) == 1


@pytest.mark.parametrize("n, edges, connected", [
    (1, [], True),
    (2, [], False),
    (3, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0)], True),  # duplicate edge
    (3, [(0, 0, 0.0), (1, 2, 1.0)], False),  # self-loop; node 0 alone
    (3, [(0, 0, 0.0), (2, 2, 0.0), (0, 2, 1.0), (1, 2, 1.0)], True),
    (6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)], False),  # two components
    (6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (2, 5, 1.0)], True),
])
def test_connected_hand_cases(n, edges, connected):
    assert _connected(n, edges) is connected
    assert _union_find_connected(n, edges) is connected


def test_connected_agrees_with_union_find_on_seeded_edge_lists():
    rng = np.random.default_rng(16)
    decisions = set()
    for _ in range(400):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, 2 * n + 1))
        edges = [(int(i), int(j), 1.0) for i, j in rng.integers(0, n, size=(m, 2))]
        expected = _union_find_connected(n, edges)
        assert _connected(n, edges) is expected, (n, edges)
        decisions.add(expected)
    assert decisions == {True, False}


def test_synthesize_draws_the_graphs_it_drew_before():
    # sha256 of the values and edges as drawn at 08f39d6, when connectivity
    # was decided by scipy.sparse.csgraph; seed 9 rejects two disconnected
    # draws before it keeps the third
    ds = synthesize_dataset(n_nodes=20, n_days=20, seed=9)
    assert hashlib.sha256(ds.values.tobytes()).hexdigest() == (
        "b36ffdc94d0789fd13ea1a10de00a0d0b5136a454eff1d67dfd8273d5fd1831b"
    )
    assert hashlib.sha256(np.array(ds.edges).tobytes()).hexdigest() == (
        "ed8dd031b3ad98c82c43f6c7e272cf91282e3e257f890a51858fbc8922da8d7e"
    )


def test_synthesize_connected_graph():
    ds = synthesize_dataset(n_nodes=12, n_days=2, seed=1)
    # reachability check independent of the generator's own test
    n = ds.n_nodes
    neighbors = {i: set() for i in range(n)}
    for i, j, _ in ds.edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in neighbors[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    assert seen == set(range(n))


def test_synthesize_noise_free_weekly_periodicity():
    ds = synthesize_dataset(n_nodes=4, n_days=9, seed=3, noise_level=0.0)
    spd = 96
    v = ds.values
    # Monday day 0 vs Monday day 7: bitwise equal
    assert np.array_equal(v[:spd], v[7 * spd : 8 * spd])
    # Monday vs Tuesday share the weekday amplitude class: equal as well
    assert np.array_equal(v[:spd], v[spd : 2 * spd])
    # Friday vs Saturday cross the class boundary: different
    assert not np.array_equal(v[4 * spd : 5 * spd], v[5 * spd : 6 * spd])


def test_synthesize_daily_autocorrelation_dominates():
    ds = synthesize_dataset(n_nodes=6, n_days=14, seed=7)
    spd = 96
    lag_day = spd
    lag_7h = 7 * 4
    for u in range(ds.n_nodes):
        x = ds.values[:, u]
        r_day = np.corrcoef(x[:-lag_day], x[lag_day:])[0, 1]
        r_7h = np.corrcoef(x[:-lag_7h], x[lag_7h:])[0, 1]
        assert r_day > r_7h


def test_synthesize_preconditions():
    with pytest.raises(ValueError):
        synthesize_dataset(n_nodes=1, n_days=2)
    with pytest.raises(ValueError):
        synthesize_dataset(n_nodes=3, n_days=1)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"step_minutes": 0}, "step_minutes must be a positive divisor of 1440, got 0"),
        ({"step_minutes": -15}, "step_minutes must be a positive divisor of 1440, got -15"),
        ({"step_minutes": 7}, "step_minutes must be a positive divisor of 1440, got 7"),
        ({"noise_level": -0.1}, "noise_level must be finite and non-negative, got -0.1"),
        ({"noise_level": float("nan")}, "noise_level must be finite and non-negative, got nan"),
    ],
    ids=["seed-negative", "step-zero", "step-negative", "step-not-dividing", "noise-negative",
         "noise-nan"],
)
def test_synthesize_rejects_bad_seed_step_and_noise_naming_them(kw, message):
    # a negative seed failed inside numpy, step 0 divided by zero, step -15
    # and a negative or NaN noise level gave a series
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synthesize_dataset(n_nodes=3, n_days=2, **kw)


def test_normalize_statistics_and_roundtrip():
    rng = np.random.default_rng(0)
    values = rng.normal(50.0, 9.0, size=(100, 4))
    ds = TrafficDataset(values=values, edges=[(0, 1, 1.0)])
    mask = (rng.random(values.shape) > 0.3).astype(float)
    out = normalize(ds, 0.8, mask)
    boundary = 80
    observed = out.values[:boundary][mask[:boundary] == 1.0]
    assert abs(observed.mean()) < 1e-9
    assert abs(observed.std() - 1.0) < 1e-9
    mean, std = out.norm_stats
    back = out.values * std + mean
    assert np.max(np.abs(back - values)) < 1e-9


def test_normalize_constant_series_clamps():
    ds = TrafficDataset(values=np.full((10, 2), 7.0))
    out = normalize(ds, 1.0, np.ones((10, 2)))
    assert np.array_equal(out.values, np.zeros((10, 2)))
    assert out.norm_stats[1] == 1e-8


def test_normalize_errors():
    ds = make_ds()
    with pytest.raises(ValueError):
        normalize(ds, 0.0, np.ones_like(ds.values))
    with pytest.raises(ValueError):
        normalize(ds, 0.5, np.zeros_like(ds.values))  # nothing observed


def features_at(ds, step_index):
    """(week, hour, minute bucket) of one step, read through the batched path."""
    return tuple(int(f[0]) for f in time_feature_arrays(ds, step_index, 1))


def scalar_time_features(ds, step_index):
    """Reference: the calendar features of one step, one step at a time."""
    start = ds.start_time
    total = start.hour * 60 + start.minute + step_index * ds.step_minutes
    week = (start.week + total // MINUTES_PER_DAY) % 7
    minute_of_day = total % MINUTES_PER_DAY
    return week, minute_of_day // 60, minute_of_day % 60 // 15


def test_time_features_hand_values():
    ds = TrafficDataset(values=np.zeros((96 * 8, 2)), step_minutes=15)
    assert features_at(ds, 0) == (0, 0, 0)
    assert features_at(ds, 5) == (0, 1, 1)  # 75 minutes in
    assert features_at(ds, 96 * 7)[0] == 0


def test_time_features_midweek_start_and_periodicity():
    ds = TrafficDataset(
        values=np.zeros((96 * 15, 1)), step_minutes=15, start_time=StartTime(4, 23, 45)
    )
    assert features_at(ds, 1) == (5, 0, 0)  # crosses midnight into Saturday
    period = 7 * 96
    for idx in (0, 13, 250):
        assert features_at(ds, idx) == features_at(ds, idx + period)


def test_time_feature_arrays_match_scalar():
    ds = TrafficDataset(
        values=np.zeros((500, 1)), step_minutes=5, start_time=StartTime(2, 7, 35)
    )
    week, hour, bucket = time_feature_arrays(ds, 3, 400)
    for k in range(400):
        assert (week[k], hour[k], bucket[k]) == scalar_time_features(ds, 3 + k)


def test_window_split_counts():
    ds = TrafficDataset(values=np.zeros((480, 2)), step_minutes=15)
    mask = np.ones((480, 2))
    train, test = window_split(ds, L=96, stride=96, train_fraction=0.8, mask=mask)
    assert len(train) == 4 and len(test) == 1
    assert list(train.starts) == [0, 96, 192, 288]
    assert list(test.starts) == [384]


def test_window_split_dense_stride_and_empty_side():
    ds = TrafficDataset(values=np.zeros((100, 2)), step_minutes=15)
    mask = np.ones((100, 2))
    with pytest.warns(RuntimeWarning):
        train, test = window_split(ds, L=96, stride=1, train_fraction=1.0, mask=mask)
    assert len(train) == 5 and len(test) == 0


def test_window_split_never_straddles_boundary():
    T = 333
    ds = TrafficDataset(values=np.zeros((T, 2)), step_minutes=15)
    mask = np.ones((T, 2))
    train, test = window_split(ds, L=48, stride=7, train_fraction=0.8, mask=mask)
    boundary = int(np.floor(0.8 * T))
    assert np.all(train.starts + 48 <= boundary)
    assert np.all(test.starts >= boundary)
    assert np.all(test.starts + 48 <= T)


def test_window_split_aligns_masks_and_features():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(200, 3))
    ds = TrafficDataset(values=values, step_minutes=15)
    mask = (rng.random((200, 3)) > 0.4).astype(float)
    train, _ = window_split(ds, L=32, stride=16, train_fraction=0.9, mask=mask)
    w = 2
    s = int(train.starts[w])
    assert np.array_equal(train.values[w], values[s : s + 32])
    assert np.array_equal(train.masks[w], mask[s : s + 32])
    week, hour, bucket = time_feature_arrays(ds, s, 32)
    assert np.array_equal(train.week[w], week)
    assert np.array_equal(train.hour[w], hour)
    assert np.array_equal(train.minute_bucket[w], bucket)


def test_values_csv_roundtrip(tmp_path):
    path = str(tmp_path / "values.csv")
    values = np.random.default_rng(2).normal(size=(50, 3))
    save_values_csv(path, values, ["node_0", "node_1", "node_2"])
    with open(path) as fh:
        assert fh.readline().strip() == "node_0,node_1,node_2"
    loaded, ids = load_values_csv(path)
    assert ids == ["node_0", "node_1", "node_2"]
    assert np.array_equal(loaded, values)  # %.17g preserves float64 exactly


@pytest.mark.parametrize("header", ["node_0", "node_0,node_1"], ids=["one-node", "two-nodes"])
def test_values_csv_without_data_rows_raises_naming_the_file(tmp_path, header):
    path = tmp_path / "values.csv"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} has no data rows after its header")):
        load_values_csv(str(path))


def test_graph_json_roundtrip(tmp_path):
    ds = synthesize_dataset(n_nodes=5, n_days=2, seed=9)
    vpath = str(tmp_path / "v.csv")
    gpath = str(tmp_path / "g.json")
    save_values_csv(vpath, ds.values, ds.node_ids)
    save_graph_json(gpath, ds)
    loaded = load_dataset(vpath, gpath)
    assert np.array_equal(loaded.values, ds.values)
    assert loaded.edges == [(i, j, d) for i, j, d in ds.edges]
    assert loaded.start_time == ds.start_time
    assert loaded.step_minutes == ds.step_minutes
    with open(gpath) as fh:
        meta = json.load(fh)
    meta["nodes"] = ["x"] * 5
    with open(gpath, "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(ValueError):
        load_dataset(vpath, gpath)


def saved_dataset_files(tmp_path):
    ds = synthesize_dataset(n_nodes=5, n_days=2, seed=9)
    vpath, gpath = str(tmp_path / "v.csv"), str(tmp_path / "g.json")
    save_values_csv(vpath, ds.values, ds.node_ids)
    save_graph_json(gpath, ds)
    with open(gpath) as fh:
        return vpath, gpath, json.load(fh)


@pytest.mark.parametrize("distance", [np.nan, np.inf])
def test_non_finite_edge_distance_raises_naming_the_edge(tmp_path, distance):
    with pytest.raises(ValueError, match=r"edge \(0, 1\) distance must be finite and non-neg"):
        TrafficDataset(values=np.ones((2, 2)), edges=[(0, 1, distance)])
    vpath, gpath, meta = saved_dataset_files(tmp_path)
    i, j, _ = meta["edges"][0]
    meta["edges"][0][2] = distance
    with open(gpath, "w") as fh:
        json.dump(meta, fh)  # writes the NaN / Infinity literals that json reads back
    with pytest.raises(ValueError, match=rf"edge \({i}, {j}\) distance must be finite"):
        load_dataset(vpath, gpath)


def without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def with_field(key, value):
    return lambda meta: {**meta, key: value}


EDGE = r"edges\[0\] must be an \[i, j, distance\] triple"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: list(meta.values()), r"the top level must be an object"),
        (without("nodes"), r"field 'nodes' must be present"),
        (without("start"), r"field 'start' must be present"),
        (without("step_minutes"), r"field 'step_minutes' must be present"),
        (without("edges"), r"field 'edges' must be present"),
        (with_field("start", {"week": 0, "hour": 0}), r"'start' must be an object with integer"),
        (with_field("start", [0, 0, 0]), r"'start' must be an object with integer"),
        (with_field("step_minutes", "15"), r"'step_minutes' must be an integer"),
        (with_field("edges", {"0": [0, 1, 1.0]}), r"'edges' must be a list"),
        (with_field("edges", [[0, 1, 1.0], [0, 1]]), r"edges\[1\] must be an \[i, j, distance\]"),
        (with_field("edges", [[0, 1, 1.0, 2.0]]), EDGE),
        (with_field("edges", [[0, 1.5, 1.0]]), EDGE),
        (with_field("edges", [[0, 1, "far"]]), EDGE),
        (with_field("edges", [[0, 1, 10**400]]), EDGE),
        (with_field("nodes", ["x"] * 5), r"node list does not match values header"),
    ],
    ids=["list", "no-nodes", "no-start", "no-step", "no-edges", "start-no-minute", "start-list",
         "step-string", "edges-object", "edge-pair", "edge-quad", "edge-fractional-index",
         "edge-string-distance", "edge-huge-distance", "nodes-mismatch"],
)
def test_graph_json_structure_errors_name_file_and_field(tmp_path, edit, message):
    vpath, gpath, meta = saved_dataset_files(tmp_path)
    with open(gpath, "w") as fh:
        json.dump(edit(meta), fh)
    with pytest.raises(ValueError, match=f"graph JSON {re.escape(gpath)}: {message}"):
        load_dataset(vpath, gpath)


def test_graph_json_integer_valued_floats_still_load(tmp_path):
    vpath, gpath, meta = saved_dataset_files(tmp_path)
    expected = load_dataset(vpath, gpath)
    meta["step_minutes"] = float(meta["step_minutes"])
    meta["edges"] = [[float(i), float(j), d] for i, j, d in meta["edges"]]
    with open(gpath, "w") as fh:
        json.dump(meta, fh)
    loaded = load_dataset(vpath, gpath)
    assert loaded.step_minutes == expected.step_minutes and loaded.edges == expected.edges


# ---- text formats under mutation ----

FUZZ_TOKENS = (b"nan", b"inf", b"-inf", b"null", b"[]", b"NaN", b"1e999")


def mutations(blob: bytes, count: int, seed: int):
    """``count`` mutated copies of ``blob``: 1-3 byte flips, a truncation, a
    deleted run of 1-8 bytes, or one of ``FUZZ_TOKENS`` inserted or written
    over the bytes at a random position."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        b = bytearray(blob)
        kind = rng.integers(5)
        at = int(rng.integers(len(b)))
        if kind == 0:
            for _ in range(rng.integers(1, 4)):
                b[rng.integers(len(b))] = rng.integers(256)
        elif kind == 1:
            del b[at:]
        elif kind == 2:
            del b[at : at + rng.integers(1, 9)]
        else:
            token = FUZZ_TOKENS[rng.integers(len(FUZZ_TOKENS))]
            b[at : at + (len(token) if kind == 3 else 0)] = token
        yield bytes(b)


JSON_VALUES = (None, "x", [], {}, True, math.inf, -math.inf, -1, 1.5, 10**30)


def json_mutations(blob: bytes, count: int, seed: int):
    """``count`` copies of the JSON document ``blob``, each with one object
    key or list item deleted or its value set to one of ``JSON_VALUES``
    (infinities written as ``1e999`` and ``-1e999``)."""
    rng = np.random.default_rng(seed)
    paths = list(json_paths(json.loads(blob)))
    for _ in range(count):
        doc = json.loads(blob)
        *parents, last = paths[rng.integers(len(paths))]
        node = doc
        for key in parents:
            node = node[key]
        choice = int(rng.integers(len(JSON_VALUES) + 1))
        if choice == len(JSON_VALUES):
            del node[last]
        else:
            node[last] = JSON_VALUES[choice]
        yield json.dumps(doc).replace("Infinity", "1e999").encode()


def json_paths(node, path=()):
    """The key path of every object member and list item under ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


def load_checked(kind: str, paths: dict) -> None:
    """Load one file set as the CLI and harness do and check what the model
    relies on; a ValueError passes through."""
    from pastnet.harness import _model_config, _train_config, load_plan
    from pastnet.masking import load_mask_csv

    if kind == "mask":
        mask = load_mask_csv(paths["mask"])
        assert mask.ndim == 2 and np.isin(mask, (0.0, 1.0)).all()
    elif kind == "plan":
        plan = load_plan(paths["plan"])
        for method in plan.methods:
            _model_config(plan, 4, method)
        for scenario in plan.scenarios:
            _train_config(plan, scenario)
    else:
        ds = load_dataset(paths["values"], paths["graph"])
        assert ds.values.ndim == 2 and np.isfinite(ds.values).all()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # "all edge distances equal"
            adjacency = build_spatial_adjacency(ds.n_nodes, ds.edges)
        assert np.isfinite(adjacency).all() and (adjacency >= 0).all()


@pytest.mark.parametrize("kind", ["values", "mask", "graph", "plan"])
def test_mutated_text_files_raise_value_error_or_load_checked_data(kind, tmp_path):
    # no checksum guards these formats, so a mutated file may load other
    # values; it must then still pass every check the model relies on
    from pastnet.masking import save_mask_csv

    ds = synthesize_dataset(4, 2, step_minutes=240, seed=1)  # 12 steps
    paths = {k: str(tmp_path / f"{k}.txt") for k in ("values", "mask", "graph", "plan")}
    save_values_csv(paths["values"], ds.values, ds.node_ids)
    save_mask_csv(paths["mask"], np.random.default_rng(0).random(ds.values.shape) < 0.7,
                  ds.node_ids)
    save_graph_json(paths["graph"], ds)
    plan = pathlib.Path(__file__).resolve().parents[1] / "plans" / "desk_plan.json"
    pathlib.Path(paths["plan"]).write_bytes(plan.read_bytes())
    load_checked(kind, paths)  # the intact files load
    with open(paths[kind], "rb") as fh:
        blob = fh.read()
    outcomes = {"raised": 0, "loaded": 0}
    mutated_files = list(mutations(blob, 400, seed=len(kind)))
    if kind in ("graph", "plan"):  # and key-level edits that keep the JSON well-formed
        mutated_files += json_mutations(blob, 400, seed=len(kind))
    for mutated in mutated_files:
        with open(paths[kind], "wb") as fh:
            fh.write(mutated)
        try:
            load_checked(kind, paths)
        except ValueError:
            outcomes["raised"] += 1
        else:
            outcomes["loaded"] += 1
    assert outcomes["raised"] > 0 and outcomes["loaded"] > 0, outcomes
