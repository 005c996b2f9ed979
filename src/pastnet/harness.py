"""End-to-end evaluation: scenarios x methods, offline and online.

One experiment fixes a dataset, then for every missing scenario it hides
entries over the whole time span, fits each learned method on the first
80% of time (observed entries only), and scores every method on the hidden
entries of the training span (offline) and of the held-out span (online,
same trained model).  Scores live in normalized space unless the plan asks
for raw units.  Everything is a pure function of the plan and its seed;
only the runtime columns vary between identical runs.
"""
from __future__ import annotations

import functools
import json
import os
import time
import types
import typing
import warnings
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from . import __version__
from .baselines import baseline_knn, baseline_linear
from .data import (
    TrafficDataset,
    build_spatial_adjacency,
    check_recipe,
    check_seed,
    load_dataset,
    normalize,
    save_values_csv,
    synthesize_dataset,
    time_feature_arrays,
    window_split,
)
from .masking import ScenarioConfig, generate_mask, save_mask_csv
from .metrics import rmse_mae
from .model import ModelConfig, PastModel, TrainConfig, impute_span, train

METHOD_NAMES = ("past", "past_wo_cgm", "past_wo_gim", "linear", "knn")
LEARNED_METHODS = ("past", "past_wo_cgm", "past_wo_gim")
RESULTS_HEADER = "scenario,method,setting,rmse,mae,runtime_seconds"


@dataclass
class EvalResult:
    scenario: ScenarioConfig
    method: str
    setting: str  # offline | online
    rmse: float
    mae: float
    runtime_seconds: float

    def csv_row(self) -> str:
        return (
            f"{self.scenario.label},{self.method},{self.setting},"
            f"{self.rmse:.17g},{self.mae:.17g},{self.runtime_seconds:.6f}"
        )


@dataclass
class DatasetSpec:
    """Either a synthetic recipe or a pair of files."""

    kind: str = "synthetic"
    n_nodes: int = 8
    n_days: int = 4
    step_minutes: int = 15
    noise_level: float = 0.2
    values_path: str | None = None
    graph_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("synthetic", "files"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "files" and not (self.values_path and self.graph_path):
            raise ValueError("file datasets need values_path and graph_path")
        if self.kind == "synthetic":
            check_recipe(self.n_nodes, self.n_days, self.step_minutes, self.noise_level)

    def realize(self, seed: int) -> TrafficDataset:
        if self.kind == "files":
            return load_dataset(self.values_path, self.graph_path)
        return synthesize_dataset(
            self.n_nodes,
            self.n_days,
            step_minutes=self.step_minutes,
            seed=seed,
            noise_level=self.noise_level,
        )


@dataclass
class ExperimentPlan:
    dataset: DatasetSpec
    scenarios: list[ScenarioConfig]
    methods: list[str]
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    # per-scenario-kind training tweaks, e.g. {"random": {"lr": 1e-2}};
    # values override plan.train (and window_stride) for that kind's cells
    train_overrides: dict = field(default_factory=dict)
    knn_k: int = 5
    window_stride: int | None = None  # None: non-overlapping windows (stride = L)
    train_fraction: float = 0.8
    output_dir: str = "results"
    seed: int = 0
    raw_space: bool = False
    dump_series: bool = True

    def __post_init__(self):
        if not self.scenarios:
            raise ValueError("plan needs at least one scenario")
        if not isinstance(self.methods, (list, tuple)):
            raise ValueError(
                f"plan key 'methods' must be a list of method names, "
                f"got {type(self.methods).__name__}"
            )
        if not self.methods:
            raise ValueError("plan needs at least one method")
        unknown = [m for m in self.methods if m not in METHOD_NAMES]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHOD_NAMES}")
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must be in (0, 1)")
        _check_keys("train_overrides", self.train_overrides, {"random", "fiber", "block"})
        # the dataset sets N and the method picks the branches
        model_keys = {f.name for f in fields(ModelConfig)} - {"N", "use_gim", "use_cgm"}
        train_keys = {f.name for f in fields(TrainConfig)}
        _check_keys("model", self.model, model_keys)
        _check_keys("train", self.train, train_keys)
        _check_positive_int("knn_k", self.knn_k)
        strides = {"window_stride": self.window_stride}
        for kind, override in self.train_overrides.items():
            _check_keys(f"train_overrides.{kind}", override, train_keys | {"window_stride"})
            strides[f"train_overrides.{kind}.window_stride"] = override.get("window_stride")
        for key, stride in strides.items():
            if stride is not None:  # null falls back to the plan stride, then to L
                _check_positive_int(key, stride)


def _check_keys(section: str, given: dict, allowed: set[str], required=()) -> None:
    if not isinstance(given, dict):
        raise ValueError(f"{section} must be an object, got {type(given).__name__}")
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ValueError(f"unknown {section} keys {unknown}; choose from {sorted(allowed)}")
    for key in required:
        if key not in given:
            raise ValueError(f"{section} is missing the required key {key!r}")


def _check_positive_int(key: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{key} must be a positive integer, got {value!r}")


_SCALAR_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _fits(value, kind) -> bool:
    if kind in (int, float):  # JSON true/false is not a number
        number = Integral if kind is int else Real
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, kind)


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)  # evaluates the string annotations: slow, so once


def _check_types(section: str, given: dict, cls, skip=()) -> None:
    """Raise naming the section and key of the first value whose JSON type
    does not fit ``cls``'s field: a number, integer, string, true/false,
    null where the field is optional, or a list of numbers for a tuple.
    Other fields (objects, lists, ``skip``) are checked elsewhere."""
    hints = _field_types(cls)
    for key, value in given.items():
        hint = hints.get(key)
        if key in skip or hint is None:
            continue
        nullable = typing.get_origin(hint) in (typing.Union, types.UnionType)
        if nullable:
            if value is None:
                continue
            hint = next(a for a in typing.get_args(hint) if a is not type(None))
        if typing.get_origin(hint) is tuple:
            parts = typing.get_args(hint)
            ok = isinstance(value, (list, tuple)) and len(value) == len(parts)
            ok = ok and all(_fits(v, kind) for v, kind in zip(value, parts))
            wanted = f"a list of {len(parts)} numbers"
        elif hint in _SCALAR_NAMES:
            ok, wanted = _fits(value, hint), _SCALAR_NAMES[hint]
        else:
            continue
        if not ok:
            wanted += " or null" if nullable else ""
            raise ValueError(f"{section} key {key!r} must be {wanted}, got {value!r}")


def plan_from_dict(raw: dict) -> ExperimentPlan:
    # a missing dataset is the synthetic default; missing scenarios fail as empty ones
    _check_keys("plan", raw, {f.name for f in fields(ExperimentPlan)}, ("methods",))
    # knn_k and window_stride have their own positive-integer checks
    _check_types("plan", raw, ExperimentPlan, skip=("knn_k", "window_stride"))
    check_seed(raw.get("seed", 0), "plan key 'seed'")  # before the scenarios' seeds
    raw = dict(raw)
    dataset = raw.pop("dataset", {})
    _check_keys("dataset", dataset, {f.name for f in fields(DatasetSpec)})
    _check_types("dataset", dataset, DatasetSpec)
    entries = raw.pop("scenarios", [])
    if not isinstance(entries, list):
        raise ValueError(f"scenarios must be a list of objects, got {type(entries).__name__}")
    scenarios = []
    for i, sc in enumerate(entries):
        _check_keys(f"scenarios[{i}]", sc, {f.name for f in fields(ScenarioConfig)}, ("kind", "r"))
        _check_types(f"scenarios[{i}]", sc, ScenarioConfig)
        sc = dict(sc)
        sc.setdefault("seed", raw.get("seed", 0) * 1000 + i)
        scenarios.append(ScenarioConfig(**sc))
    plan = ExperimentPlan(dataset=DatasetSpec(**dataset), scenarios=scenarios, **raw)
    # the plan has checked that these sections are objects with known keys
    _check_types("model", plan.model, ModelConfig)
    _check_types("train", plan.train, TrainConfig)
    for kind, override in plan.train_overrides.items():
        _check_types(f"train_overrides.{kind}", override, TrainConfig)
    return plan


def load_plan(path: str) -> ExperimentPlan:
    with open(path) as fh:
        return plan_from_dict(json.load(fh))


def _model_config(plan: ExperimentPlan, n_nodes: int, method: str) -> ModelConfig:
    kw = dict(plan.model)
    kw.setdefault("L", 96)
    kw["N"] = n_nodes
    kw.setdefault("seed", plan.seed)
    kw["use_cgm"] = method != "past_wo_cgm"
    kw["use_gim"] = method != "past_wo_gim"
    return ModelConfig(**kw)


def _train_config(plan: ExperimentPlan, scenario: ScenarioConfig) -> TrainConfig:
    kw = dict(plan.train)
    kw.update(plan.train_overrides.get(scenario.kind, {}))
    kw.pop("window_stride", None)
    kw.setdefault("seed", plan.seed)
    return TrainConfig(**kw)


def _window_stride(plan: ExperimentPlan, scenario: ScenarioConfig, L: int) -> int:
    override = plan.train_overrides.get(scenario.kind, {}).get("window_stride")
    return override or plan.window_stride or L


@dataclass
class _Span:
    setting: str
    lo: int
    hi: int


def _score_grid(pred, truth, obs_mask, span: _Span, raw_space, norm_stats):
    eval_mask = 1.0 - obs_mask[span.lo : span.hi]
    p = pred
    t = truth[span.lo : span.hi]
    if raw_space:
        mean, std = norm_stats
        p = p * std + mean
        t = t * std + mean
    return rmse_mae(p, t, eval_mask)


def run_experiment(plan: ExperimentPlan) -> list[EvalResult]:
    ds_raw = plan.dataset.realize(plan.seed)
    # every config is built before any cell runs, so a bad value fails the run
    model_cfgs = {
        m: _model_config(plan, ds_raw.n_nodes, m) for m in plan.methods if m in LEARNED_METHODS
    }
    train_cfgs = {sc.kind: _train_config(plan, sc) for sc in plan.scenarios}
    os.makedirs(plan.output_dir, exist_ok=True)
    adjacency = build_spatial_adjacency(ds_raw.n_nodes, ds_raw.edges)
    results: list[EvalResult] = []
    errors: list[dict] = []
    histories: dict = {}
    train_seconds: dict = {}

    for scenario in plan.scenarios:
        mask = generate_mask(ds_raw.values.shape, scenario, adjacency=adjacency)
        ds = normalize(ds_raw, plan.train_fraction, mask)
        boundary = int(np.floor(plan.train_fraction * ds.n_steps))
        spans = [_Span("offline", 0, boundary), _Span("online", boundary, ds.n_steps)]
        masked_values = ds.values * mask  # hidden entries must not leak

        for method in plan.methods:
            try:
                preds = _impute_all_spans(
                    plan, ds, mask, masked_values, adjacency, scenario, method, spans,
                    model_cfgs.get(method), train_cfgs[scenario.kind], histories, train_seconds,
                )
            except Exception as exc:  # noqa: BLE001 - cell failure must not kill the run
                errors.append(
                    {"scenario": scenario.label, "method": method, "error": f"{exc}"}
                )
                continue
            for span, (pred, seconds) in zip(spans, preds):
                rmse, mae = _score_grid(
                    pred, ds.values, mask, span, plan.raw_space, ds.norm_stats
                )
                results.append(EvalResult(scenario, method, span.setting, rmse, mae, seconds))
                if plan.dump_series:
                    name = f"imputed_{scenario.label}_{method}_{span.setting}.csv"
                    save_values_csv(os.path.join(plan.output_dir, name), pred, ds.node_ids)
        if plan.dump_series:
            save_mask_csv(
                os.path.join(plan.output_dir, f"mask_{scenario.label}.csv"), mask, ds.node_ids
            )

    results.sort(key=lambda r: (r.scenario.label, r.method, r.setting))
    _write_reports(plan, results, errors, histories, train_seconds)
    return results


def _impute_all_spans(
    plan, ds, mask, masked_values, adjacency, scenario, method, spans,
    model_cfg, train_cfg, histories, train_seconds,
):
    """One method on one scenario: returns [(pred, seconds), ...] per span."""
    if method in LEARNED_METHODS:
        stride = _window_stride(plan, scenario, model_cfg.L)
        train_w, _ = window_split(ds, model_cfg.L, stride, plan.train_fraction, mask)
        model = PastModel.build(model_cfg, adjacency=adjacency, norm_stats=ds.norm_stats)
        t0 = time.perf_counter()
        model, history = train(model, train_w, train_cfg)
        train_seconds.setdefault(scenario.label, {})[method] = time.perf_counter() - t0
        histories.setdefault(scenario.label, {})[method] = {
            "loss1": [float(v) for v in history.loss1],
            "loss2": [float(v) for v in history.loss2],
        }
    out = []
    for span in spans:
        sl = slice(span.lo, span.hi)
        t0 = time.perf_counter()
        if method == "linear":
            pred = baseline_linear(masked_values[sl], mask[sl])
        elif method == "knn":
            pred = baseline_knn(masked_values[sl], mask[sl], plan.knn_k)
        else:
            week, hour, bucket = time_feature_arrays(ds, span.lo, span.hi - span.lo)
            pred = impute_span(model, masked_values[sl], mask[sl], week, hour, bucket)
        out.append((pred, time.perf_counter() - t0))
    return out


def _write_reports(plan, results, errors, histories, train_seconds):
    csv_path = os.path.join(plan.output_dir, "results.csv")
    with open(csv_path, "w") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for r in results:
            fh.write(r.csv_row() + "\n")
    payload = {
        "version": __version__,
        "numpy_version": np.__version__,
        "plan": asdict(plan),
        "results": [
            {
                "scenario": r.scenario.label,
                "method": r.method,
                "setting": r.setting,
                "rmse": r.rmse,
                "mae": r.mae,
                "runtime_seconds": r.runtime_seconds,
            }
            for r in results
        ],
        "errors": errors,
        "train_seconds": train_seconds,
        "histories": histories,
    }
    with open(os.path.join(plan.output_dir, "results.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    if errors:
        warnings.warn(f"{len(errors)} experiment cell(s) failed; see results.json")
