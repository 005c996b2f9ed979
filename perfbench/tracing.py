"""Timing wrappers that the benchmark installs around pastnet's functions.

Nothing under ``src/`` knows about them: ``install`` replaces each public
function or method by a wrapper in every loaded ``pastnet`` module that
holds it, so calls made through ``from .model import train`` are timed
too.  Two depths exist:

- untraced runs time only ``train`` and ``impute_span``, which the
  end-to-end throughputs need (two clock reads per call);
- traced runs time every layer listed in ``LAYERS`` and take one
  tracemalloc probe of a training step and of an ``impute_span`` call.

Times are CPU seconds of the calling process (``time.process_time``) and
inclusive (a layer's time contains the layers it calls).  Calls
made while a tracemalloc probe runs are counted but not timed, because
tracemalloc slows every allocation.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
import tracemalloc

MIB = float(1 << 20)

# end-to-end: (metric key, module, attribute, class or None)
ALWAYS = [
    ("model.train", "pastnet.model", "train", None),
    ("model.impute_span", "pastnet.model", "impute_span", None),
]
LAYERS = [
    ("numcore.backward", "pastnet.numcore.tensor", "backward", "Tensor"),
    ("numcore.adam", "pastnet.numcore.optim", "adam_step", None),
    ("numcore.masked_mse", "pastnet.numcore.losses", "masked_mse", None),
    ("model.objective", "pastnet.model", "objective", "PastModel"),
    ("model.impute", "pastnet.model", "impute", "PastModel"),
    ("gim.forward", "pastnet.gim", "forward", "GimModule"),
    ("gim.temporal", "pastnet.gim", "temporal_forward", None),
    ("gim.spatial", "pastnet.gim", "spatial_forward", None),
    ("cgm.forward", "pastnet.cgm", "forward", "CgmModule"),
    ("cgm.cross_gate", "pastnet.cgm", "cross_gate_layer", None),
    ("data.synthesize", "pastnet.data", "synthesize_dataset", None),
    ("masking.generate_mask", "pastnet.masking", "generate_mask", None),
    ("data.window_split", "pastnet.data", "window_split", None),
    ("data.csv", "pastnet.data", "load_values_csv", None),
    ("data.csv", "pastnet.data", "save_values_csv", None),
    ("data.csv", "pastnet.masking", "load_mask_csv", None),
    ("data.csv", "pastnet.masking", "save_mask_csv", None),
    ("checkpoint.save", "pastnet.checkpoint", "save_checkpoint", None),
    ("checkpoint.load", "pastnet.checkpoint", "load_checkpoint", None),
    ("baselines.linear", "pastnet.baselines", "baseline_linear", None),
    ("baselines.knn", "pastnet.baselines", "baseline_knn", None),
]
MODULES = [
    "pastnet", "pastnet.numcore", "pastnet.numcore.tensor", "pastnet.numcore.optim",
    "pastnet.numcore.losses", "pastnet.model", "pastnet.gim", "pastnet.cgm", "pastnet.data",
    "pastnet.masking", "pastnet.checkpoint", "pastnet.baselines", "pastnet.harness",
    "pastnet.cli",
]


def _work(name: str, args, out) -> float:
    """Units of work of one call, for the metrics that are rates or sizes."""
    if name == "model.train":  # windows x epochs actually run
        return float(len(args[1]) * out[1].n_epochs)
    if name == "model.impute_span":  # steps x nodes
        return float(args[1].shape[0] * args[1].shape[1])
    if name == "checkpoint.save":
        return float(os.path.getsize(args[1]))
    return 0.0


class Tracer:
    """Per-name call counts, timed calls, seconds and work, plus memory probes."""

    def __init__(self, full: bool = False, probe: bool = False):
        self.full = full
        # name -> [calls, timed calls, seconds, work]
        self.stats: dict[str, list[float]] = {}
        self.peaks: dict[str, list[float]] = {"step": [], "impute": []}
        self._pending = {"step": full and probe, "impute": full and probe}
        self._probing: str | None = None

    # ---- recording ----

    def _record(self, name: str, seconds: float, work: float) -> None:
        row = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        row[0] += 1
        row[3] += work
        if self._probing is None:
            row[1] += 1
            row[2] += seconds

    def _start_probe(self, kind: str) -> None:
        if self._pending[kind] and self._probing is None:
            self._pending[kind] = False
            self._probing = kind
            tracemalloc.start()

    def _end_probe(self, kind: str) -> None:
        if self._probing == kind:
            self.peaks[kind].append(tracemalloc.get_traced_memory()[1] / MIB)
            tracemalloc.stop()
            self._probing = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if name == "model.objective":
                self._start_probe("step")
            elif name == "model.impute_span":
                self._start_probe("impute")
            t0 = time.process_time()
            out = fn(*args, **kwargs)
            seconds = time.process_time() - t0
            self._record(name, seconds, _work(name, args, out))
            if name == "numcore.adam":
                self._end_probe("step")
            elif name == "model.impute_span":
                self._end_probe("impute")
            return out

        return timed

    # ---- installation ----

    def install(self) -> None:
        for mod in MODULES:
            importlib.import_module(mod)
        loaded = [m for k, m in sys.modules.items() if k == "pastnet" or k.startswith("pastnet.")]
        for name, module, attr, cls in ALWAYS + (LAYERS if self.full else []):
            owner = sys.modules[module]
            if cls is not None:
                klass = getattr(owner, cls)
                setattr(klass, attr, self.wrap(name, getattr(klass, attr)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # ---- exchange with child processes ----

    def dump(self) -> dict:
        return {"stats": self.stats, "peaks": self.peaks}

    def merge(self, record: dict) -> None:
        for name, row in record["stats"].items():
            mine = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
            for i, v in enumerate(row):
                mine[i] += v
        for kind, values in record["peaks"].items():
            self.peaks[kind].extend(values)

    # ---- summaries ----

    def calls(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0.0, 0.0])[2]

    def work(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0.0, 0.0])[3]

    def rate(self, name: str) -> float:
        """Work per second spent inside ``name``; 0 when it never ran."""
        seconds = self.seconds(name)
        return self.work(name) / seconds if seconds > 0 else 0.0

    def ms(self, name: str, per: str | None = None) -> float:
        """Milliseconds in ``name`` per timed call of ``per`` (itself by default)."""
        timed = self.stats.get(per or name, [0, 0, 0.0, 0.0])[1]
        return 1e3 * self.seconds(name) / timed if timed else 0.0

    def per_layer(self) -> dict[str, tuple[float, str]]:
        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def median(values: list[float]) -> float:
            return statistics.median(values) if values else 0.0

        saves = self.calls("checkpoint.save")
        gim_other = self.ms("gim.forward") - self.ms("gim.temporal", "gim.forward") - self.ms(
            "gim.spatial", "gim.forward"
        )
        return {
            "numcore.backward_ms": (self.ms("numcore.backward"), "ms"),
            "numcore.adam_ms": (self.ms("numcore.adam"), "ms"),
            "numcore.masked_mse_ms": (self.ms("numcore.masked_mse"), "ms"),
            "model.steps": (ratio(self.calls("numcore.adam"), self.calls("model.train")), "count"),
            "model.objective_ms": (self.ms("model.objective"), "ms"),
            "model.impute_calls": (
                ratio(self.calls("model.impute"), self.calls("model.impute_span")), "count"
            ),
            "model.impute_ms": (self.ms("model.impute"), "ms"),
            "model.step_peak_mib": (median(self.peaks["step"]), "MiB"),
            "model.impute_peak_mib": (median(self.peaks["impute"]), "MiB"),
            "gim.forward_ms": (self.ms("gim.forward"), "ms"),
            "gim.temporal_ms": (self.ms("gim.temporal", "gim.forward"), "ms"),
            "gim.spatial_ms": (self.ms("gim.spatial", "gim.forward"), "ms"),
            "gim.other_ms": (gim_other, "ms"),
            "cgm.forward_ms": (self.ms("cgm.forward"), "ms"),
            "cgm.cross_gate_ms": (self.ms("cgm.cross_gate", "cgm.forward"), "ms"),
            "data.synthesize_ms": (self.ms("data.synthesize"), "ms"),
            "masking.generate_mask_ms": (self.ms("masking.generate_mask"), "ms"),
            "data.window_split_ms": (self.ms("data.window_split"), "ms"),
            "data.csv_ms": (self.ms("data.csv"), "ms"),
            "checkpoint.save_ms": (self.ms("checkpoint.save"), "ms"),
            "checkpoint.load_ms": (self.ms("checkpoint.load"), "ms"),
            "checkpoint.mib": (ratio(self.work("checkpoint.save"), saves) / MIB, "MiB"),
            "baselines.linear_ms": (self.ms("baselines.linear"), "ms"),
            "baselines.knn_ms": (self.ms("baselines.knn"), "ms"),
        }
