"""Binary model checkpoints.

Single-file container, little-endian throughout:

    bytes 0..7   magic b"PASTCKPT"
    u32          format version (currently 1)
    u64          byte length of the config block
    ...          config block: UTF-8 text, one "key=<json>" per line
    u32          array count
    per array:
        u16      byte length of the key
        ...      key, UTF-8 (namespaced: param/, adam/m/, adam/v/,
                 spatial/<k>, norm/stats)
        u8       ndim
        ndim*u32 dimensions
        ...      raw float64 data, C order

Covers everything inference and resumed training need: model config,
every parameter, Adam moments and step count when training state exists,
the normalized spatial powers, and normalization statistics.  Loading a
file that is truncated, has the wrong magic, or carries trailing bytes
fails with a descriptive error before any model is built.
"""
from __future__ import annotations

import io
import json
import struct

import numpy as np

from .gim import SpatialOperator
from .model import ModelConfig, PastModel
from .numcore import AdamState

MAGIC = b"PASTCKPT"
VERSION = 1

_CONFIG_FIELDS = [
    "L", "N", "d", "n", "K", "alpha", "p_dropout", "use_gim", "use_cgm", "seed",
]


def _write_array(out, key: str, arr: np.ndarray):
    kb = key.encode("utf-8")
    out.write(struct.pack("<H", len(kb)))
    out.write(kb)
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    out.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        out.write(struct.pack("<I", dim))
    out.write(arr.astype("<f8", copy=False).tobytes())


def save_checkpoint(model: PastModel, path: str):
    cfg = model.config
    lines = [f"{k}={json.dumps(getattr(cfg, k))}" for k in _CONFIG_FIELDS]
    opt = model.optimizer_state
    lines.append(f"has_optimizer={json.dumps(opt is not None)}")
    if opt is not None:
        for k in ("lr", "beta1", "beta2", "epsilon", "step_count"):
            lines.append(f"optim_{k}={json.dumps(getattr(opt, k))}")
    lines.append(f"has_norm_stats={json.dumps(model.norm_stats is not None)}")
    config_block = ("\n".join(lines) + "\n").encode("utf-8")

    arrays: list[tuple[str, np.ndarray]] = []
    for p in model.params.paths():
        arrays.append((f"param/{p}", model.params[p].data))
    if opt is not None:
        for p in model.params.paths():
            arrays.append((f"adam/m/{p}", opt.first_moment[p]))
            arrays.append((f"adam/v/{p}", opt.second_moment[p]))
    for k, mat in enumerate(model.spatial_op.normalized_powers):
        arrays.append((f"spatial/{k}", mat))
    if model.norm_stats is not None:
        arrays.append(("norm/stats", np.asarray(model.norm_stats, dtype=np.float64)))

    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(struct.pack("<I", VERSION))
        out.write(struct.pack("<Q", len(config_block)))
        out.write(config_block)
        out.write(struct.pack("<I", len(arrays)))
        for key, arr in arrays:
            _write_array(out, key, arr)


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError(f"truncated checkpoint: wanted {n} bytes, got {len(buf)}")
    return buf


def load_checkpoint(path: str) -> PastModel:
    with open(path, "rb") as f:
        raw = f.read()
    f = io.BytesIO(raw)
    if _read_exact(f, len(MAGIC)) != MAGIC:
        raise ValueError("not a pastnet checkpoint (bad magic)")
    (version,) = struct.unpack("<I", _read_exact(f, 4))
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<Q", _read_exact(f, 8))
    config_block = _read_exact(f, cfg_len).decode("utf-8")
    kv: dict = {}
    for line in config_block.splitlines():
        if not line:
            continue
        key, _, value = line.partition("=")
        kv[key] = json.loads(value)

    (count,) = struct.unpack("<I", _read_exact(f, 4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (key_len,) = struct.unpack("<H", _read_exact(f, 2))
        key = _read_exact(f, key_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", _read_exact(f, 1))
        shape = tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(ndim))
        n_items = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(_read_exact(f, 8 * n_items), dtype="<f8")
        arrays[key] = data.reshape(shape).astype(np.float64)
    if f.read(1):
        raise ValueError("corrupt checkpoint: trailing data after the last array")

    missing = [k for k in _CONFIG_FIELDS if k not in kv]
    if missing:
        raise ValueError(f"corrupt checkpoint: config lacks {missing}")
    config = ModelConfig(**{k: kv[k] for k in _CONFIG_FIELDS})

    powers = []
    for k in range(config.K + 1):
        key = f"spatial/{k}"
        if key not in arrays:
            raise ValueError(f"corrupt checkpoint: missing {key}")
        powers.append(arrays[key])
    spatial_op = SpatialOperator(normalized_powers=powers)

    norm_stats = None
    if kv.get("has_norm_stats"):
        if "norm/stats" not in arrays:
            raise ValueError("corrupt checkpoint: missing norm/stats")
        mean, std = arrays["norm/stats"]
        norm_stats = (float(mean), float(std))

    model = PastModel.build(config, spatial_op=spatial_op, norm_stats=norm_stats)
    params = {
        key[len("param/"):]: arr for key, arr in arrays.items() if key.startswith("param/")
    }
    model.params.load_state_arrays(params)

    if kv.get("has_optimizer"):
        first = {p: None for p in model.params.paths()}
        second = {p: None for p in model.params.paths()}
        for p in model.params.paths():
            mk, vk = f"adam/m/{p}", f"adam/v/{p}"
            if mk not in arrays or vk not in arrays:
                raise ValueError(f"corrupt checkpoint: missing optimizer moments for {p}")
            first[p] = arrays[mk].copy()
            second[p] = arrays[vk].copy()
        model.optimizer_state = AdamState(
            lr=kv["optim_lr"],
            beta1=kv["optim_beta1"],
            beta2=kv["optim_beta2"],
            epsilon=kv["optim_epsilon"],
            step_count=kv["optim_step_count"],
            first_moment=first,
            second_moment=second,
        )
    return model
