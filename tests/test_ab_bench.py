"""scripts/ab_bench.py runs against the current API and writes its report schema."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_bench_smallest_case_runs(tmp_path):
    out = tmp_path / "ab.json"
    child = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_bench.py"), "--before", str(ROOT),
         "--after", str(ROOT), "--rounds", "1", "--repeats", "1", "--case", "span_wo_gim",
         "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    report = json.loads(out.read_text())
    assert set(report) == {"command", "commits", "machine", "cases"}
    assert list(report["cases"]) == ["span_wo_gim"]
    entry = report["cases"]["span_wo_gim"]
    assert set(entry) == {"workload", "before", "after", "after_over_before", "outputs_identical",
                          "rounds", "after_won"}
    assert entry["outputs_identical"] is True
    assert entry["rounds"] == 1
    assert entry["workload"] == {"use_gim": False, "steps_x_nodes": 2304 * 20}
    metrics = {"impute_ms", "sys_ms", "minor_faults", "rss_mib", "host_numpy_ms", "host_python_ms"}
    assert set(entry["before"]) == set(entry["after"]) == set(entry["after_over_before"]) == metrics
    assert set(entry["after_won"]) == metrics and set(entry["after_won"].values()) <= {0, 1}
    # the host-speed probe runs at the case process's start and end
    assert entry["after"]["host_numpy_ms"]["n"] == entry["after"]["host_python_ms"]["n"] == 2
    assert 0 < entry["after"]["host_numpy_ms"]["q1"] and 0 < entry["after"]["host_python_ms"]["q1"]


def test_ab_bench_train_case_reports_system_time_and_the_adjoint_arena():
    # its pool's stats() and the host-speed probe, next to the step figures
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_bench.py"), "--child", "train_desk",
         "--repeats", "1"],
        capture_output=True, text=True, env=env,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    result = json.loads(child.stdout.strip().splitlines()[-1])
    per_call = {"train_ms", "train_faults", "train_sys_ms"}
    per_step = {"step_ms", "step_faults", "step_sys_ms", "pool_step_mib", "arena_mib",
                "arena_peak_mib"}
    workload = {"windows", "batch_size", "epochs"}
    probe = {"host_numpy_ms", "host_python_ms"}
    assert set(result) == per_call | per_step | workload | probe | {"output_sha256", "rss_mib"}
    assert all(len(result[k]) == 1 for k in per_call)
    assert all(len(result[k]) == 2 and min(result[k]) > 0 for k in probe)
    # 14 windows in batches of 4, 3 epochs: 9 full batches, less the first step
    steps = len(result["step_ms"])
    assert steps == 8 and all(len(result[k]) == steps for k in per_step)
    # step buffers only grow (a batch with more distinct slots), and every step used the arena
    held = result["pool_step_mib"]
    assert 0 < held[0] and all(a <= b for a, b in zip(held, held[1:]))
    assert all(a > 0 for k in ("arena_mib", "arena_peak_mib") for a in result[k])


def test_ab_bench_import_case_under_both_allocator_settings(tmp_path):
    out = tmp_path / "ab.json"
    child = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_bench.py"), "--before", str(ROOT),
         "--after", str(ROOT), "--rounds", "1", "--repeats", "1", "--case", "import_cli",
         "--malloc", "both", "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    report = json.loads(out.read_text())
    assert report["command"].endswith("--case import_cli --malloc both")
    assert report["machine"]["malloc"] == {
        "pinned": {"MALLOC_MMAP_THRESHOLD_": str(128 << 10)}, "default": {},
    }
    assert list(report["cases"]) == ["import_cli", "import_cli@default"]
    for entry in report["cases"].values():
        assert entry["outputs_identical"] is True
        assert entry["workload"] == {}
        assert set(entry["before"]) == set(entry["after"]) == {
            "import_ms", "rss_mib", "host_numpy_ms", "host_python_ms",
        }
        # one fresh interpreter per repeat: its own CPU and peak, not the case process's
        assert entry["after"]["import_ms"]["n"] == entry["after"]["rss_mib"]["n"] == 1
        assert 0 < entry["after"]["import_ms"]["median"]
        assert 0 < entry["after"]["rss_mib"]["median"]


def test_ab_bench_child_environment_carries_only_the_chosen_allocator_setting(monkeypatch):
    ab_bench = _ab_bench()
    monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "1")
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1")
    pinned = ab_bench._child_env(str(ROOT), "pinned")
    default = ab_bench._child_env(str(ROOT), "default")
    assert pinned["MALLOC_MMAP_THRESHOLD_"] == str(128 << 10)
    for env in (pinned, default):
        assert env["OPENBLAS_NUM_THREADS"] == "1"
        assert env["PYTHONPATH"] == str(ROOT / "src")
        assert "MALLOC_ARENA_MAX" not in env and "GLIBC_TUNABLES" not in env
    assert not any(key.startswith("MALLOC_") for key in default)


def test_ab_bench_counts_the_rounds_the_after_side_wins(tmp_path, monkeypatch):
    # stubbed case runs, no child process: each round's median is the middle
    # sample; after wins rounds 0 and 2, ties round 1 and loses round 3
    ab_bench = _ab_bench()
    medians = {"before": [10.0, 10.0, 10.0, 10.0], "after": [9.0, 10.0, 8.0, 11.0]}
    runs = []

    def run_child(tree, case, repeats, setting):
        side = "before" if tree == "B" else "after"
        x = medians[side][runs.count(side)]
        runs.append(side)
        return {"impute_ms": [x - 1.0, x, x + 5.0], "rss_mib": [50.0], "use_gim": False,
                "output_sha256": "same"}

    out = tmp_path / "ab.json"
    monkeypatch.setattr(ab_bench, "_run_child", run_child)
    monkeypatch.setattr(sys, "argv", [
        "ab_bench.py", "--before", "B", "--after", "A", "--rounds", "4", "--repeats", "3",
        "--case", "span_wo_gim", "--out", str(out),
    ])
    assert ab_bench.main() == 0
    # rounds alternate which side goes first
    assert runs == ["before", "after", "after", "before"] * 2
    entry = json.loads(out.read_text())["cases"]["span_wo_gim"]
    assert entry["rounds"] == 4
    assert entry["after_won"] == {"impute_ms": 2, "rss_mib": 0}
    assert entry["after"]["impute_ms"]["n"] == 12 and entry["outputs_identical"] is True


def test_ab_bench_ratio_of_a_zero_before_median_is_none():
    # under glibc's default allocator a step's system time reads 0 ms
    ab_bench = _ab_bench()
    assert ab_bench._ratio(0.0, 0.0) is None
    assert ab_bench._ratio(1.5, 0.0) is None
    assert ab_bench._ratio(1.0, 3.0) == 0.333


def test_ab_bench_cli_cases_train_the_cli_batch_on_4_8_and_16_nodes():
    # three node counts, one CLI-default model and batch: the per-node slope
    ab_bench = _ab_bench()
    for case, nodes in (("train_cli", 4), ("cli_step_n8", 8), ("cli_step_n16", 16)):
        train, setup = ab_bench.CASES[case].func, ab_bench.CASES[case].args[0]
        assert train is ab_bench._train
        windows, adjacency, config, batch_size = setup()
        assert (config.N, config.d, config.n, config.K, config.L) == (nodes, 64, 3, 2, 96)
        assert batch_size == len(windows) == 32 and adjacency.shape == (nodes, nodes)
        # one step per epoch, the first not sampled: at least 40 steps per side
        # from --rounds 2 --repeats 3
        epochs = ab_bench.CASES[case].keywords["epochs"]
        assert (epochs - 1) * 2 * 3 >= 40


def test_ab_bench_real_cases_train_the_cli_model_one_window_at_a_time_on_80_160_and_325_nodes():
    # real graph sizes: 4 synthetic days give 3 training windows, in batches
    # of 1, and a held-out span shorter than a window, which no case reads
    ab_bench = _ab_bench()
    for case, nodes in (("real_n80", 80), ("real_n160", 160), ("real_n325", 325)):
        train, setup = ab_bench.CASES[case].func, ab_bench.CASES[case].args[0]
        assert train is ab_bench._train
        with pytest.warns(RuntimeWarning, match="test span shorter than window length"):
            windows, adjacency, config, batch_size = setup()
        assert (config.N, config.d, config.n, config.K, config.L) == (nodes, 64, 3, 2, 96)
        assert batch_size == 1 and len(windows) == 3
        assert windows.values.shape == (3, 96, nodes) and adjacency.shape == (nodes, nodes)


@pytest.mark.parametrize(
    "case, nodes, steps, model, variant",
    [
        ("span_past", 20, 2304, (32, 2, 2, 96), {}),
        ("span_l100", 20, 2304, (32, 2, 2, 100), {"L": 100}),
        ("span_n325", 325, 768, (64, 3, 2, 96), {}),
    ],
    ids=["span_past", "span_l100", "span_n325"],
)
def test_ab_bench_span_cases_impute_a_blocked_span(case, nodes, steps, model, variant):
    # the set-up alone: span_l100 is span_past at L=100, span_n325 the CLI
    # model over 8 days on 325 nodes
    ab_bench = _ab_bench()
    span, setup = ab_bench.CASES[case].func, ab_bench.CASES[case].args[0]
    assert span is ab_bench._span
    net, args, workload = setup()
    values, mask, week, hour, bucket = args
    config = net.config
    assert (config.N, config.d, config.n, config.K, config.L) == (nodes, *model)
    assert config.use_cgm and config.use_gim and workload == variant
    assert values.shape == mask.shape == (steps, nodes)
    assert week.shape == hour.shape == bucket.shape == (steps,)
    assert 0.3 < 1.0 - mask.mean() < 0.5 and np.all(values[mask == 0.0] == 0.0)
