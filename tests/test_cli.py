import json
import os

import numpy as np
import pytest

from pastnet.cli import main
from pastnet.data import load_values_csv, save_values_csv
from pastnet.masking import load_mask_csv, save_mask_csv


def synth(tmp_path, name="data", **kw):
    out = tmp_path / name
    argv = ["synth", "--out-dir", str(out), "--nodes", "6", "--days", "2", "--seed", "1"]
    for flag, value in kw.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    return str(out / "values.csv"), str(out / "graph.json")


def test_synth_writes_files_and_is_deterministic(tmp_path):
    va, ga = synth(tmp_path, "a")
    vb, gb = synth(tmp_path, "b")
    assert open(va, "rb").read() == open(vb, "rb").read()
    assert open(ga, "rb").read() == open(gb, "rb").read()
    values, node_ids = load_values_csv(va)
    assert values.shape == (192, 6) and len(node_ids) == 6


def test_synth_seed_changes_output(tmp_path):
    va, _ = synth(tmp_path, "a")
    vb, _ = synth(tmp_path, "b", seed=2)
    assert open(va).read() != open(vb).read()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["synth", "--bogus-flag"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["mask", "--kind", "diagonal", "--rate", "0.2", "--values", "x", "--out", "y"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        (["--step-minutes", "0"], "step_minutes must be a positive divisor of 1440, got 0"),
        (["--noise", "nan"], "noise_level must be finite and non-negative, got nan"),
    ],
    ids=["seed-negative", "step-zero", "noise-nan"],
)
def test_synth_rejects_what_it_cannot_draw_naming_the_field(tmp_path, capsys, flags, message):
    # these printed numpy's "expected non-negative integer", "integer modulo
    # by zero", or wrote a noise-free series
    assert main(["synth", "--out-dir", str(tmp_path / "out"), *flags]) == 2
    assert capsys.readouterr().err == f"pastnet: error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_mask_random(tmp_path):
    values_path, _ = synth(tmp_path)
    out = str(tmp_path / "mask.csv")
    code = main(["mask", "--values", values_path, "--kind", "random",
                 "--rate", "0.4", "--seed", "0", "--out", out])
    assert code == 0
    mask = load_mask_csv(out)
    assert mask.shape == (192, 6)
    assert abs((1.0 - mask.mean()) - 0.4) < 0.1


def test_mask_block_requires_graph(tmp_path, capsys):
    values_path, graph_path = synth(tmp_path)
    out = str(tmp_path / "mask.csv")
    code = main(["mask", "--values", values_path, "--kind", "block",
                 "--rate", "0.2", "--length", "8", "--span-nodes", "3", "--out", out])
    assert code == 2
    assert "--graph" in capsys.readouterr().err
    code = main(["mask", "--values", values_path, "--graph", graph_path, "--kind", "block",
                 "--rate", "0.2", "--length", "8", "--span-nodes", "3", "--out", out])
    assert code == 0
    assert (1.0 - load_mask_csv(out).mean()) >= 0.2


def trained_checkpoint(tmp_path):
    values_path, graph_path = synth(tmp_path)
    mask_path = str(tmp_path / "mask.csv")
    assert main(["mask", "--values", values_path, "--kind", "random",
                 "--rate", "0.3", "--seed", "0", "--out", mask_path]) == 0
    ckpt = str(tmp_path / "model.ckpt")
    code = main(["train", "--values", values_path, "--graph", graph_path,
                 "--mask", mask_path, "--out", ckpt,
                 "--window", "24", "--dim", "8", "--layers", "1", "--order", "1",
                 "--epochs", "2", "--batch-size", "8", "--lr", "1e-3", "--seed", "0"])
    assert code == 0
    return values_path, graph_path, mask_path, ckpt


def test_train_impute_evaluate_round_trip(tmp_path, capsys):
    values_path, graph_path, mask_path, ckpt = trained_checkpoint(tmp_path)
    imputed_path = str(tmp_path / "imputed.csv")
    assert main(["impute", "--checkpoint", ckpt, "--values", values_path,
                 "--graph", graph_path, "--mask", mask_path, "--out", imputed_path]) == 0

    truth, _ = load_values_csv(values_path)
    imputed, _ = load_values_csv(imputed_path)
    mask = load_mask_csv(mask_path)
    assert imputed.shape == truth.shape
    # observed entries pass through bit for bit, not via the normalization
    assert np.array_equal(imputed[mask == 1.0], truth[mask == 1.0])

    capsys.readouterr()
    assert main(["evaluate", "--pred", imputed_path, "--truth", values_path,
                 "--mask", mask_path]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("rmse=") and "mae=" in line


def test_impute_shape_mismatch_exits_2(tmp_path, capsys):
    values_path, graph_path, mask_path, ckpt = trained_checkpoint(tmp_path)
    truth, node_ids = load_values_csv(values_path)
    short_path = str(tmp_path / "short.csv")
    save_values_csv(short_path, truth[:50], node_ids)
    code = main(["impute", "--checkpoint", ckpt, "--values", short_path,
                 "--graph", graph_path, "--mask", mask_path, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_evaluate_hand_numbers(tmp_path, capsys):
    # hidden errors {1, -3}: rmse = sqrt(5), mae = 2
    truth = np.zeros((2, 2))
    pred = np.array([[1.0, 0.0], [0.0, -3.0]])
    mask = np.array([[0.0, 1.0], [1.0, 0.0]])
    tp, pp, mp = (str(tmp_path / f) for f in ("t.csv", "p.csv", "m.csv"))
    save_values_csv(tp, truth, ["a", "b"])
    save_values_csv(pp, pred, ["a", "b"])
    save_mask_csv(mp, mask, ["a", "b"])
    json_out = str(tmp_path / "metrics.json")
    assert main(["evaluate", "--pred", pp, "--truth", tp, "--mask", mp,
                 "--json-out", json_out]) == 0
    metrics = json.load(open(json_out))
    assert metrics["rmse"] == pytest.approx(np.sqrt(5.0))
    assert metrics["mae"] == pytest.approx(2.0)


def experiment_plan_file(tmp_path, out_dir):
    plan = {
        "dataset": {"kind": "synthetic", "n_nodes": 6, "n_days": 2},
        "scenarios": [{"kind": "random", "r": 0.4}],
        "methods": ["linear", "knn"],
        "knn_k": 2,
        "output_dir": str(out_dir),
        "seed": 3,
        "dump_series": False,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return str(path)


def test_experiment_cli_runs_plan(tmp_path, capsys):
    plan_path = experiment_plan_file(tmp_path, tmp_path / "out")
    assert main(["experiment", "--config", plan_path]) == 0
    out = capsys.readouterr().out
    assert "linear,offline" in out and "knn,online" in out
    header = open(tmp_path / "out" / "results.csv").readline().strip()
    assert header == "scenario,method,setting,rmse,mae,runtime_seconds"


def test_experiment_cli_seed_override(tmp_path):
    plan_path = experiment_plan_file(tmp_path, tmp_path / "a")
    assert main(["experiment", "--config", plan_path, "--output-dir", str(tmp_path / "b"),
                 "--seed", "11"]) == 0
    assert main(["experiment", "--config", plan_path]) == 0
    rows_a = open(tmp_path / "a" / "results.csv").read().splitlines()[1:]
    rows_b = open(tmp_path / "b" / "results.csv").read().splitlines()[1:]
    score_cols = [",".join(r.split(",")[:5]) for r in rows_a]
    score_cols_b = [",".join(r.split(",")[:5]) for r in rows_b]
    assert score_cols != score_cols_b


def test_experiment_cli_seed_matches_plan_seed(tmp_path):
    # --seed 5 is the plan file with "seed": 5, so a scenario's own seed stays
    plan = {
        "dataset": {"kind": "synthetic", "n_nodes": 6, "n_days": 2},
        "scenarios": [{"kind": "fiber", "r": 0.4, "l": 8, "seed": 77}],
        "methods": ["linear"],
        "seed": 3,
        "dump_series": False,
    }
    flagged, edited = tmp_path / "plan.json", tmp_path / "plan_seed5.json"
    flagged.write_text(json.dumps(plan))
    edited.write_text(json.dumps({**plan, "seed": 5}))
    assert main(["experiment", "--config", str(flagged), "--seed", "5",
                 "--output-dir", str(tmp_path / "a")]) == 0
    assert main(["experiment", "--config", str(edited), "--output-dir", str(tmp_path / "b")]) == 0
    rows_a = open(tmp_path / "a" / "results.csv").read().splitlines()[1:]
    rows_b = open(tmp_path / "b" / "results.csv").read().splitlines()[1:]
    assert len(rows_a) == 2
    assert [r.split(",")[:5] for r in rows_a] == [r.split(",")[:5] for r in rows_b]


def test_experiment_cli_plan_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps([{"methods": ["linear"]}]))
    assert main(["experiment", "--config", str(path), "--seed", "5",
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert "plan must be an object, got list" in capsys.readouterr().err


def test_experiment_cli_missing_config_exits_2(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_experiment_cli_bad_model_value_exits_2(tmp_path, capsys):
    plan = {
        "dataset": {"kind": "synthetic", "n_nodes": 5, "n_days": 2},
        "scenarios": [{"kind": "random", "r": 0.3}],
        "methods": ["linear", "past"],
        "model": {"L": 24, "d": 3, "n": 1},
        "output_dir": str(tmp_path / "out"),
        "dump_series": False,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["experiment", "--config", str(path)]) == 2
    assert "d must be at least 4" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_train_out_of_range_dropout_exits_2(tmp_path, capsys):
    values_path, graph_path = synth(tmp_path)
    mask_path = str(tmp_path / "mask.csv")
    assert main(["mask", "--values", values_path, "--kind", "random",
                 "--rate", "0.3", "--out", mask_path]) == 0
    ckpt = tmp_path / "model.ckpt"
    code = main(["train", "--values", values_path, "--graph", graph_path,
                 "--mask", mask_path, "--out", str(ckpt), "--window", "24",
                 "--p-dropout", "-0.5"])
    assert code == 2
    assert "p_dropout must be in [0, 1)" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_skips_windows_with_no_observed_entry(tmp_path, capsys):
    # a 200-step block over all 4 nodes hides 7 of the 19 training windows
    # whole; at one window per batch their batches used to stop the run
    # with "empty mask"
    out = tmp_path / "d"
    assert main(["synth", "--nodes", "4", "--days", "6", "--out-dir", str(out)]) == 0
    values, graph, mask = (str(out / f) for f in ("values.csv", "graph.json", "mask.csv"))
    assert main(["mask", "--values", values, "--graph", graph, "--kind", "block",
                 "--rate", "0.5", "--length", "200", "--span-nodes", "4", "--seed", "1",
                 "--out", mask]) == 0
    ckpt = tmp_path / "model.ckpt"
    code = main(["train", "--values", values, "--graph", graph, "--mask", mask,
                 "--out", str(ckpt), "--window", "24", "--dim", "8", "--layers", "1",
                 "--epochs", "2", "--batch-size", "1"])
    assert code == 0, capsys.readouterr().err
    assert ckpt.exists()
