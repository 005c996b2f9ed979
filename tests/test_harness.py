import json
import os
import re

import numpy as np
import pytest

from pastnet.baselines import baseline_linear
from pastnet.data import build_spatial_adjacency, normalize
from pastnet.harness import (
    RESULTS_HEADER,
    DatasetSpec,
    ExperimentPlan,
    load_plan,
    plan_from_dict,
    _window_stride,
    run_experiment,
)
from pastnet.masking import ScenarioConfig, generate_mask
from pastnet.metrics import rmse_mae


def tiny_plan(out_dir, methods=("linear",), seed=3, **kw):
    base = dict(
        dataset=DatasetSpec(kind="synthetic", n_nodes=6, n_days=2),
        scenarios=[ScenarioConfig("random", 0.4, seed=seed * 1000)],
        methods=list(methods),
        output_dir=str(out_dir),
        seed=seed,
        dump_series=False,
    )
    base.update(kw)
    return ExperimentPlan(**base)


def read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], lines[1:]


def strip_runtime(rows):
    return [",".join(r.split(",")[:-1]) for r in rows]


# ---- plan plumbing ----


def test_plan_validation():
    ds = DatasetSpec()
    sc = [ScenarioConfig("random", 0.2)]
    with pytest.raises(ValueError, match="at least one scenario"):
        ExperimentPlan(dataset=ds, scenarios=[], methods=["linear"])
    with pytest.raises(ValueError, match="at least one method"):
        ExperimentPlan(dataset=ds, scenarios=sc, methods=[])
    with pytest.raises(ValueError, match="unknown methods"):
        ExperimentPlan(dataset=ds, scenarios=sc, methods=["mice"])
    with pytest.raises(ValueError, match="train_fraction"):
        ExperimentPlan(dataset=ds, scenarios=sc, methods=["linear"], train_fraction=1.0)
    with pytest.raises(ValueError, match="unknown dataset kind"):
        DatasetSpec(kind="parquet")
    with pytest.raises(ValueError, match="values_path and graph_path"):
        DatasetSpec(kind="files")


def test_plan_from_dict_defaults_scenario_seeds():
    plan = plan_from_dict(
        {
            "dataset": {"kind": "synthetic", "n_nodes": 6, "n_days": 2},
            "scenarios": [{"kind": "random", "r": 0.2}, {"kind": "fiber", "r": 0.2, "l": 8}],
            "methods": ["linear"],
            "seed": 5,
        }
    )
    assert [sc.seed for sc in plan.scenarios] == [5000, 5001]
    assert plan.scenarios[1].l == 8


@pytest.mark.parametrize(
    "section, value, key",
    [
        ("model", {"d_wek": 2}, "d_wek"),
        ("model", {"residual_literal_sign": True}, "residual_literal_sign"),
        ("train", {"epoch": 3}, "epoch"),
        ("train_overrides", {"fiber": {"lr": 1e-2, "stride": 24}}, "stride"),
        # the dataset sets N and the method picks the branches
        ("model", {"use_cgm": False}, "use_cgm"),
        ("model", {"use_gim": True}, "use_gim"),
        ("model", {"N": 6}, "N"),
    ],
)
def test_plan_from_dict_rejects_unknown_config_keys(section, value, key):
    raw = {
        "dataset": {"kind": "synthetic", "n_nodes": 6, "n_days": 2},
        "scenarios": [{"kind": "random", "r": 0.2}],
        "methods": ["past"],
        section: value,
    }
    with pytest.raises(ValueError, match=re.escape(f"keys [{key!r}]")):
        plan_from_dict(raw)


def plan_with(**changes):
    raw = {
        "dataset": {"kind": "synthetic", "n_nodes": 6, "n_days": 2},
        "scenarios": [{"kind": "random", "r": 0.2}],
        "methods": ["past"],
    }
    raw.update(changes)
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        ([plan_with()], "plan must be an object, got list"),
        (plan_with(epochs=3), "unknown plan keys ['epochs']"),
        (plan_with(dataset=[{"kind": "synthetic"}]), "dataset must be an object, got list"),
        (plan_with(dataset={"kind": "synthetic", "days": 2}), "unknown dataset keys ['days']"),
        (plan_with(scenarios=3), "scenarios must be a list of objects, got int"),
        (plan_with(scenarios=[{"kind": "fiber", "r": 0.2, "l": 8, "span": 2}]),
         "unknown scenarios[0] keys ['span']"),
        (plan_with(scenarios=["fiber"]), "scenarios[0] must be an object, got str"),
        (plan_with(train_overrides=["fiber"]), "train_overrides must be an object, got list"),
    ],
    ids=["top-list", "top-key", "dataset-list", "dataset-key", "scenarios-int",
         "scenario-key", "scenario-str", "overrides-list"],
)
def test_plan_from_dict_rejects_bad_sections_naming_them(raw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        plan_from_dict(raw)


def without(raw, key, scenario=None):
    """``raw`` without the plan key, or without the key of scenario ``scenario``."""
    raw = json.loads(json.dumps(raw))
    del (raw if scenario is None else raw["scenarios"][scenario])[key]
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        (without(plan_with(), "methods"), "plan is missing the required key 'methods'"),
        (without(plan_with(), "kind", scenario=0),
         "scenarios[0] is missing the required key 'kind'"),
        (without(plan_with(), "r", scenario=0), "scenarios[0] is missing the required key 'r'"),
        (plan_with(methods=5), "plan key 'methods' must be a list of method names, got int"),
    ],
    ids=["no-methods", "no-kind", "no-r", "methods-int"],
)
def test_plan_from_dict_rejects_missing_or_wrong_typed_keys_naming_them(raw, message):
    # these raised TypeError from a dataclass constructor or a loop over an int
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        plan_from_dict(raw)


def changed(section, **values):
    """A valid plan with ``values`` set in ``section`` ("plan", "dataset", "scenarios[0]", ...)."""
    raw = plan_with(scenarios=[{"kind": "fiber", "r": 0.2, "l": 8}], model={"d": 8},
                    train={"epochs": 1}, train_overrides={"fiber": {"lr": 0.01}})
    if section == "plan":
        raw.update(values)
    elif section == "scenarios[0]":
        raw["scenarios"][0].update(values)
    elif section == "train_overrides.fiber":
        raw["train_overrides"]["fiber"].update(values)
    else:
        raw[section].update(values)
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        (changed("plan", seed="9"), "plan key 'seed' must be an integer, got '9'"),
        (changed("plan", seed=True), "plan key 'seed' must be an integer, got True"),
        (changed("plan", train_fraction="0.8"),
         "plan key 'train_fraction' must be a number, got '0.8'"),
        (changed("plan", raw_space="yes"), "plan key 'raw_space' must be true or false, got 'yes'"),
        (changed("plan", output_dir=5), "plan key 'output_dir' must be a string, got 5"),
        (changed("dataset", n_nodes="20"), "dataset key 'n_nodes' must be an integer, got '20'"),
        (changed("dataset", n_days=2.5), "dataset key 'n_days' must be an integer, got 2.5"),
        (changed("dataset", values_path=3),
         "dataset key 'values_path' must be a string or null, got 3"),
        (changed("scenarios[0]", r="0.4"), "scenarios[0] key 'r' must be a number, got '0.4'"),
        (changed("scenarios[0]", l="8"), "scenarios[0] key 'l' must be an integer or null, got '8'"),
        (changed("model", d="32"), "model key 'd' must be an integer, got '32'"),
        (changed("train", epochs="5"), "train key 'epochs' must be an integer, got '5'"),
        (changed("train", loss_weights="1,1"),
         "train key 'loss_weights' must be a list of 2 numbers, got '1,1'"),
        (changed("train_overrides.fiber", lr="0.01"),
         "train_overrides.fiber key 'lr' must be a number, got '0.01'"),
    ],
    ids=["seed-str", "seed-bool", "fraction-str", "raw-space-str", "output-dir-int",
         "nodes-str", "days-float", "values-path-int", "r-str", "l-str", "model-d-str",
         "epochs-str", "loss-weights-str", "override-lr-str"],
)
def test_plan_from_dict_rejects_wrong_typed_values_naming_section_and_key(raw, message):
    # a string seed, train_fraction or r raised TypeError inside the loader;
    # the other values loaded and failed only when the run or a cell started
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        plan_from_dict(raw)
    assert plan_from_dict(changed("plan")).train == {"epochs": 1}  # the valid base loads


@pytest.mark.parametrize(
    "raw, message",
    [
        (changed("plan", seed=-1), "plan key 'seed' must be a non-negative integer, got -1"),
        (changed("scenarios[0]", seed=-1), "seed must be a non-negative integer, got -1"),
        (changed("dataset", step_minutes=0),
         "step_minutes must be a positive divisor of 1440, got 0"),
        (changed("dataset", step_minutes=7),
         "step_minutes must be a positive divisor of 1440, got 7"),
        (changed("dataset", noise_level=-0.5),
         "noise_level must be finite and non-negative, got -0.5"),
    ],
    ids=["plan-seed", "scenario-seed", "step-zero", "step-not-dividing", "noise-negative"],
)
def test_plan_with_a_negative_seed_or_a_bad_step_fails_to_load(raw, message):
    # each of these loaded; the run then failed in numpy, by a division by
    # zero or (step 7) when the data was drawn, or drew no noise
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        plan_from_dict(raw)


def stride_override(kind, stride):
    return {"train_overrides": {kind: {"window_stride": stride}}}


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"window_stride": 0}, "window_stride"),
        ({"window_stride": -3}, "window_stride"),
        ({"window_stride": 2.5}, "window_stride"),
        (stride_override("fiber", 0), "train_overrides.fiber.window_stride"),
        (stride_override("block", -3), "train_overrides.block.window_stride"),
        (stride_override("random", 2.5), "train_overrides.random.window_stride"),
        ({"knn_k": 0}, "knn_k"),
        ({"knn_k": 2.5}, "knn_k"),
    ],
    ids=["stride-0", "stride-neg", "stride-frac", "fiber-0", "block-neg", "random-frac",
         "knn-0", "knn-frac"],
)
def test_plan_from_dict_rejects_bad_stride_and_knn_k(extra, key):
    raw = {
        "dataset": {"kind": "synthetic", "n_nodes": 6, "n_days": 2},
        "scenarios": [{"kind": "random", "r": 0.2}],
        "methods": ["past", "knn"],
        **extra,
    }
    with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be a positive integer"):
        plan_from_dict(raw)


def test_plan_null_stride_means_window_length():
    plan = plan_from_dict(
        {
            "dataset": {"kind": "synthetic", "n_nodes": 6, "n_days": 2},
            "scenarios": [{"kind": "random", "r": 0.2}, {"kind": "fiber", "r": 0.2, "l": 8}],
            "methods": ["past"],
            "window_stride": None,
            "train_overrides": {"fiber": {"window_stride": None}, "random": {"window_stride": 24}},
        }
    )
    random, fiber = plan.scenarios
    assert _window_stride(plan, fiber, 96) == 96
    assert _window_stride(plan, random, 96) == 24


def test_load_plan_round_trip(tmp_path):
    raw = {
        "dataset": {"kind": "synthetic", "n_nodes": 6, "n_days": 2},
        "scenarios": [{"kind": "random", "r": 0.3}],
        "methods": ["linear", "knn"],
        "knn_k": 2,
        "output_dir": str(tmp_path / "out"),
        "seed": 9,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(raw))
    plan = load_plan(str(path))
    assert plan.knn_k == 2 and plan.methods == ["linear", "knn"]


# ---- the pipeline ----


def test_run_experiment_linear_two_settings(tmp_path):
    plan = tiny_plan(tmp_path)
    results = run_experiment(plan)
    assert [(r.method, r.setting) for r in results] == [
        ("linear", "offline"),
        ("linear", "online"),
    ]
    for r in results:
        assert r.rmse >= r.mae >= 0.0
        assert r.runtime_seconds >= 0.0
    header, rows = read_rows(os.path.join(plan.output_dir, "results.csv"))
    assert header == RESULTS_HEADER == "scenario,method,setting,rmse,mae,runtime_seconds"
    assert len(rows) == 2
    payload = json.loads(open(os.path.join(plan.output_dir, "results.json")).read())
    assert payload["errors"] == []
    assert payload["plan"]["seed"] == 3
    assert len(payload["results"]) == 2


def test_run_experiment_matches_manual_pipeline(tmp_path):
    # replay the documented pipeline by hand and demand identical scores
    plan = tiny_plan(tmp_path)
    results = run_experiment(plan)

    ds_raw = plan.dataset.realize(plan.seed)
    adjacency = build_spatial_adjacency(ds_raw.n_nodes, ds_raw.edges)
    mask = generate_mask(ds_raw.values.shape, plan.scenarios[0], adjacency=adjacency)
    ds = normalize(ds_raw, plan.train_fraction, mask)
    boundary = int(np.floor(plan.train_fraction * ds.n_steps))
    hidden = ds.values * mask
    for r, (lo, hi) in zip(results, [(0, boundary), (boundary, ds.n_steps)]):
        pred = baseline_linear(hidden[lo:hi], mask[lo:hi])
        rmse, mae = rmse_mae(pred, ds.values[lo:hi], 1.0 - mask[lo:hi])
        assert r.rmse == rmse and r.mae == mae


def test_run_experiment_deterministic_apart_from_runtime(tmp_path):
    plan_a = tiny_plan(tmp_path / "a", methods=("linear", "knn"))
    plan_b = tiny_plan(tmp_path / "b", methods=("linear", "knn"))
    run_experiment(plan_a)
    run_experiment(plan_b)
    _, rows_a = read_rows(os.path.join(plan_a.output_dir, "results.csv"))
    _, rows_b = read_rows(os.path.join(plan_b.output_dir, "results.csv"))
    assert strip_runtime(rows_a) == strip_runtime(rows_b)


def test_run_experiment_seed_changes_scores(tmp_path):
    res_a = run_experiment(tiny_plan(tmp_path / "a", seed=3))
    res_b = run_experiment(tiny_plan(tmp_path / "b", seed=4))
    assert [r.rmse for r in res_a] != [r.rmse for r in res_b]


def test_run_experiment_raw_space_rescales(tmp_path):
    norm = run_experiment(tiny_plan(tmp_path / "n"))
    raw = run_experiment(tiny_plan(tmp_path / "r", raw_space=True))
    ds = DatasetSpec(kind="synthetic", n_nodes=6, n_days=2).realize(3)
    mask = generate_mask(ds.values.shape, ScenarioConfig("random", 0.4, seed=3000))
    std = normalize(ds, 0.8, mask).norm_stats[1]
    for rn, rr in zip(norm, raw):
        assert rr.rmse == pytest.approx(rn.rmse * std, rel=1e-9)
        assert rr.mae == pytest.approx(rn.mae * std, rel=1e-9)


def test_run_experiment_trains_past_and_dumps_series(tmp_path):
    plan = tiny_plan(
        tmp_path,
        methods=("past", "linear"),
        dump_series=True,
        model={"L": 24, "d": 8, "n": 1, "K": 1},
        train={"epochs": 2, "batch_size": 8, "lr": 1e-3},
    )
    results = run_experiment(plan)
    assert {(r.method, r.setting) for r in results} == {
        ("past", "offline"), ("past", "online"), ("linear", "offline"), ("linear", "online"),
    }
    label = plan.scenarios[0].label
    for method in ("past", "linear"):
        for setting in ("offline", "online"):
            dump = os.path.join(plan.output_dir, f"imputed_{label}_{method}_{setting}.csv")
            assert os.path.exists(dump)
    assert os.path.exists(os.path.join(plan.output_dir, f"mask_{label}.csv"))
    payload = json.loads(open(os.path.join(plan.output_dir, "results.json")).read())
    assert len(payload["histories"][label]["past"]["loss1"]) == 2
    assert payload["train_seconds"][label]["past"] > 0.0


def test_run_experiment_failed_cell_records_error(tmp_path):
    # online span is 39 steps, shorter than the 96-step window: the learned
    # method cannot tile it and must fail without killing the linear rows
    plan = tiny_plan(
        tmp_path,
        methods=("past", "linear"),
        model={"L": 96, "d": 8, "n": 1, "K": 1},
        train={"epochs": 1, "batch_size": 8},
    )
    with pytest.warns(UserWarning, match="cell"):
        results = run_experiment(plan)
    assert [(r.method, r.setting) for r in results] == [
        ("linear", "offline"), ("linear", "online"),
    ]
    payload = json.loads(open(os.path.join(plan.output_dir, "results.json")).read())
    assert len(payload["errors"]) == 1
    assert payload["errors"][0]["method"] == "past"
    assert "shorter than the window length" in payload["errors"][0]["error"]


def test_run_experiment_bad_model_value_fails_before_any_cell(tmp_path):
    # d=3 cannot partition cgm's timestamp embedding: the whole run fails
    # before the linear cells run or any report is written
    plan = tiny_plan(
        tmp_path / "out",
        methods=("linear", "past"),
        model={"L": 24, "d": 3, "n": 1, "K": 1},
        train={"epochs": 1},
    )
    with pytest.raises(ValueError, match="d must be at least 4"):
        run_experiment(plan)
    assert not os.path.exists(plan.output_dir)


def test_run_experiment_bad_train_value_fails_before_any_cell(tmp_path):
    plan = tiny_plan(tmp_path / "out", methods=("linear", "past"), train={"lr": -1.0})
    with pytest.raises(ValueError, match="lr, batch_size must be positive"):
        run_experiment(plan)
    assert not os.path.exists(plan.output_dir)


@pytest.mark.parametrize(
    "section, values, message",
    [
        ("train", {"lr": float("nan")}, "lr, batch_size must be positive"),
        ("train", {"loss_weights": [1.0]}, "loss_weights must be two"),
        ("model", {"L": 24, "d": 8.5, "n": 1, "K": 1}, "d must be an integer"),
    ],
    ids=["lr-nan", "one-loss-weight", "d-fractional"],
)
def test_run_experiment_non_finite_or_fractional_value_fails_before_any_cell(
    tmp_path, section, values, message
):
    plan = tiny_plan(tmp_path / "out", methods=("linear", "past"), **{section: values})
    with pytest.raises(ValueError, match=message):
        run_experiment(plan)
    assert not os.path.exists(plan.output_dir)
