"""Command-line front end.

Exit codes: 0 success, 1 usage error (bad flags/arguments), 2 runtime
failure (bad files, shape mismatches, training blow-ups).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
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
from .masking import ScenarioConfig, generate_mask, load_mask_csv, save_mask_csv
from .metrics import rmse_mae
from .model import ModelConfig, PastModel, TrainConfig, fuse, impute_span, train


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="pastnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit a synthetic dataset (values CSV + graph JSON)")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--days", type=int, default=4)
    p.add_argument("--step-minutes", type=int, default=15)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("mask", help="emit a missing-scenario mask for a dataset")
    p.add_argument("--values", required=True)
    p.add_argument("--graph", help="graph JSON; required for block scenarios")
    p.add_argument("--kind", choices=("random", "fiber", "block"), required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--length", type=int, help="max run length for fiber/block")
    p.add_argument("--span-nodes", type=int, help="connected group size for block")
    p.add_argument("--uniform-span", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train on masked data and write a checkpoint")
    p.add_argument("--values", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=96)
    p.add_argument("--dim", type=int, default=ModelConfig.d)
    p.add_argument("--layers", type=int, default=ModelConfig.n)
    p.add_argument("--order", type=int, default=ModelConfig.K)
    p.add_argument("--alpha", type=float, default=ModelConfig.alpha)
    p.add_argument("--p-dropout", type=float, default=ModelConfig.p_dropout)
    p.add_argument("--no-cgm", action="store_true")
    p.add_argument("--no-gim", action="store_true")
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.early_stop_patience)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("impute", help="apply a checkpoint to a masked values file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="RMSE/MAE of an imputed file on hidden entries")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--mask", required=True, help="observation mask; zeros are scored")
    p.add_argument("--json-out")

    p = sub.add_parser("experiment", help="run an experiment plan from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the plan's seed")
    p.add_argument("--output-dir", help="override the plan's output directory")
    return parser


def _cmd_synth(args) -> int:
    ds = synthesize_dataset(
        args.nodes, args.days, step_minutes=args.step_minutes,
        seed=args.seed, noise_level=args.noise,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    values_path = os.path.join(args.out_dir, "values.csv")
    graph_path = os.path.join(args.out_dir, "graph.json")
    save_values_csv(values_path, ds.values, ds.node_ids)
    save_graph_json(graph_path, ds)
    print(f"wrote {values_path} ({ds.n_steps} steps x {ds.n_nodes} nodes) and {graph_path}")
    return 0


def _cmd_mask(args) -> int:
    values, node_ids = load_values_csv(args.values)
    config = ScenarioConfig(
        kind=args.kind, r=args.rate, l=args.length, s=args.span_nodes,
        seed=args.seed, uniform_span=args.uniform_span,
    )
    adjacency = None
    if args.kind == "block":
        if not args.graph:
            raise ValueError("block scenarios need --graph for the adjacency")
        ds = load_dataset(args.values, args.graph)
        adjacency = build_spatial_adjacency(ds.n_nodes, ds.edges)
    mask = generate_mask(values.shape, config, adjacency=adjacency)
    save_mask_csv(args.out, mask, node_ids)
    print(f"wrote {args.out} (missing rate {1.0 - mask.mean():.4f})")
    return 0


def _cmd_train(args) -> int:
    ds = load_dataset(args.values, args.graph)
    mask = load_mask_csv(args.mask)
    if mask.shape != ds.values.shape:
        raise ValueError("mask shape does not match values")
    ds = normalize(ds, args.train_fraction, mask)
    train_w, _ = window_split(ds, args.window, args.window, args.train_fraction, mask)
    adjacency = build_spatial_adjacency(ds.n_nodes, ds.edges)
    config = ModelConfig(
        L=args.window, N=ds.n_nodes, d=args.dim, n=args.layers, K=args.order,
        alpha=args.alpha, p_dropout=args.p_dropout,
        use_cgm=not args.no_cgm, use_gim=not args.no_gim, seed=args.seed,
    )
    model = PastModel.build(config, adjacency=adjacency, norm_stats=ds.norm_stats)
    cfg = TrainConfig(
        lr=args.lr, batch_size=args.batch_size, epochs=args.epochs,
        seed=args.seed, early_stop_patience=args.patience,
    )
    model, history = train(model, train_w, cfg)
    save_checkpoint(model, args.out)
    last = history.n_epochs - 1
    if last >= 0:
        print(f"epoch {last}: loss1={history.loss1[last]:.6f} loss2={history.loss2[last]:.6f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_impute(args) -> int:
    model = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.values, args.graph)
    mask = load_mask_csv(args.mask)
    if mask.shape != ds.values.shape:
        raise ValueError("mask shape does not match values")
    if ds.n_nodes != model.config.N:
        raise ValueError("node count does not match the checkpoint")
    values = ds.values
    if model.norm_stats is not None:
        mean, std = model.norm_stats
        values = (values - mean) / std
    week, hour, bucket = time_feature_arrays(ds, 0, ds.n_steps)
    out = impute_span(model, values * mask, mask, week, hour, bucket)
    if model.norm_stats is not None:
        out = out * std + mean
    # denormalizing can move an observed value by an ulp; pass the input through
    out = fuse(ds.values, mask, out)
    save_values_csv(args.out, out, ds.node_ids)
    print(f"wrote {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    pred, _ = load_values_csv(args.pred)
    truth, _ = load_values_csv(args.truth)
    mask = load_mask_csv(args.mask)
    rmse, mae = rmse_mae(pred, truth, 1.0 - mask)
    print(f"rmse={rmse:.6f} mae={mae:.6f}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"rmse": rmse, "mae": mae}, fh, indent=2)
    return 0


def _cmd_experiment(args) -> int:
    from .harness import plan_from_dict, run_experiment

    with open(args.config) as fh:
        raw = json.load(fh)
    # the plan loader derives the scenario seeds, so a --seed override follows its rule;
    # a plan that is not an object is left for the loader to reject
    if args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed
    if args.output_dir is not None and isinstance(raw, dict):
        raw["output_dir"] = args.output_dir
    plan = plan_from_dict(raw)
    results = run_experiment(plan)
    for r in results:
        print(r.csv_row())
    print(f"wrote {os.path.join(plan.output_dir, 'results.csv')}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "mask": _cmd_mask,
    "train": _cmd_train,
    "impute": _cmd_impute,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit 2
        print(f"pastnet: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
