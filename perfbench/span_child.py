"""Set-up of the ``span_impute`` workload in its own process.

    python3 perfbench/span_child.py --seed N --out-dir DIR --record FILE [--trace] [--probe]

Synthesizes the series, draws the masks, trains the desk-size model and
writes ``DIR/model.ckpt`` (pastnet's checkpoint format) and ``DIR/span.npz``
(the held-out span's truth, calendar features and SPAN_MASKS masks), then
the wrappers' counts and times to FILE as JSON.  Training here keeps its
memory out of the measuring process's peak RSS.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from tracing import Tracer
from workloads import DESK_PLAN

SPAN_DAYS = 40
SPAN_TRAIN_DAYS = 16
# 3 epochs of 8 steps of 2 windows: as good against np.interp as the desk
# plan's batch of 4 for 6 epochs, at half the set-up time
SPAN_BATCH = 2
SPAN_EPOCHS = 3
SPAN_LR = 1e-2
# held-out masks per run: the trained model's RMSE on one block mask is
# 0.69 to 1.14 times np.interp's (10 of mask seeds 0-399 above 1.0); on
# the hidden entries of five masks together it stays below 1.0
SPAN_MASKS = 5


def train_and_save(seed: int, out_dir: str) -> None:
    """Series, block mask, a briefly trained desk-size model, held-out span.

    The series, the training span's mask and the model's seeds are the desk
    plan's, the same for every run; ``seed`` draws the SPAN_MASKS block
    masks of the held-out span, the inputs of the measured phase.
    """
    import pastnet.data as data
    import pastnet.masking as masking
    import pastnet.model as model_mod
    from pastnet.checkpoint import save_checkpoint

    with open(DESK_PLAN) as fh:
        desk = json.load(fh)
    spec, model_kw, fixed = desk["dataset"], desk["model"], desk["seed"]
    row = next(i for i, sc in enumerate(desk["scenarios"]) if sc["kind"] == "block")
    block = desk["scenarios"][row]
    raw = data.synthesize_dataset(spec["n_nodes"], SPAN_DAYS, step_minutes=spec["step_minutes"],
                                  seed=fixed, noise_level=spec["noise_level"])
    adjacency = data.build_spatial_adjacency(raw.n_nodes, raw.edges)
    frac = SPAN_TRAIN_DAYS / SPAN_DAYS
    lo = int(np.floor(frac * raw.n_steps))
    train_mask = masking.generate_mask(
        raw.values.shape, masking.ScenarioConfig(**block, seed=fixed * 1000 + row), adjacency
    )
    # the mask seeds the plan loader would give row ``row`` under plan seeds
    # seed * SPAN_MASKS + j
    held_masks = np.stack([
        masking.generate_mask(
            (raw.n_steps - lo, raw.n_nodes),
            masking.ScenarioConfig(**block, seed=(seed * SPAN_MASKS + j) * 1000 + row), adjacency,
        )
        for j in range(SPAN_MASKS)
    ])
    # normalization and the training windows read only the first ``lo`` steps
    ds = data.normalize(raw, frac, train_mask)
    L = model_kw["L"]
    train_w, _ = data.window_split(ds, L, L, frac, train_mask)
    train_w.values = train_w.values * train_w.masks  # hidden entries must not leak
    model = model_mod.PastModel.build(
        model_mod.ModelConfig(N=ds.n_nodes, seed=fixed, **model_kw),
        adjacency=adjacency, norm_stats=ds.norm_stats,
    )
    cfg = model_mod.TrainConfig(lr=SPAN_LR, batch_size=SPAN_BATCH,
                                epochs=SPAN_EPOCHS, seed=fixed, early_stop_patience=SPAN_EPOCHS)
    model, _ = model_mod.train(model, train_w, cfg)
    save_checkpoint(model, os.path.join(out_dir, "model.ckpt"))
    week, hour, bucket = data.time_feature_arrays(ds, lo, ds.n_steps - lo)
    truth = ds.values[lo:]
    np.savez(os.path.join(out_dir, "span.npz"), truth=truth, masks=held_masks,
             week=week, hour=hour, bucket=bucket)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    tracer = Tracer(full=args.trace, probe=args.probe)
    tracer.install()
    train_and_save(args.seed, args.out_dir)
    with open(args.record, "w") as fh:
        json.dump(tracer.dump(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
