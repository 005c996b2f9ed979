"""Binary model checkpoints.

Single-file container, little-endian throughout:

    bytes 0..7   magic b"PASTCKPT"
    u32          format version (currently 2)
    u64          byte length of the config block
    ...          config block: UTF-8 text, one "key=<json>" per line
    u32          array count
    per array:
        u16      byte length of the key
        ...      key, UTF-8 (namespaced: param/, spatial/<k>, norm/stats)
        u8       ndim
        ndim*u32 dimensions
        ...      raw float64 data, C order
    u32          zlib.crc32 of the bytes from the version to the last array
                 (version 2 only)

Version 1 files, which end after the last array, still load.

Covers everything inference needs: every ModelConfig field, every
parameter, the normalized spatial powers and normalization statistics.
No optimizer state is stored, as training starts a fresh one; config lines
and arrays the loader does not know, such as older files' Adam moments,
are ignored.  A file that is truncated, has the wrong magic, a config
value of the wrong type, a CRC that does not match, a parameter or spatial
power that holds NaN or inf, a spatial power that is not (N, N),
normalization statistics that are not a finite mean and a positive std, or
trailing bytes fails with a descriptive ValueError before any model is
built.  The structure is read first, so truncation and trailing bytes are
reported as such; the CRC is checked before the config is decoded or any
array is checked.
"""
from __future__ import annotations

import io
import json
import math
import struct
import zlib
from dataclasses import fields

import numpy as np

from .gim import SpatialOperator
from .model import ModelConfig, PastModel

MAGIC = b"PASTCKPT"
VERSION = 2  # 2 added the CRC trailer

_CONFIG_FIELDS = [f.name for f in fields(ModelConfig)]


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
    lines.append(f"has_norm_stats={json.dumps(model.norm_stats is not None)}")
    config_block = ("\n".join(lines) + "\n").encode("utf-8")

    arrays: list[tuple[str, np.ndarray]] = []
    for p in model.params.paths():
        arrays.append((f"param/{p}", model.params[p].data))
    for k, mat in enumerate(model.spatial_op.normalized_powers):
        arrays.append((f"spatial/{k}", mat))
    if model.norm_stats is not None:
        arrays.append(("norm/stats", np.asarray(model.norm_stats, dtype=np.float64)))

    body = io.BytesIO()
    body.write(struct.pack("<I", VERSION))
    body.write(struct.pack("<Q", len(config_block)))
    body.write(config_block)
    body.write(struct.pack("<I", len(arrays)))
    for key, arr in arrays:
        _write_array(body, key, arr)
    payload = body.getbuffer()
    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(payload)
        out.write(struct.pack("<I", zlib.crc32(payload)))


def _read_exact(f: io.BytesIO, n: int) -> bytes:
    # a corrupt length can exceed what read() accepts; never ask for more than is left
    buf = f.read(min(n, f.getbuffer().nbytes - f.tell()))
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
    if version not in (1, VERSION):
        raise ValueError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<Q", _read_exact(f, 8))
    config_bytes = _read_exact(f, cfg_len)
    (count,) = struct.unpack("<I", _read_exact(f, 4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (key_len,) = struct.unpack("<H", _read_exact(f, 2))
        key = _read_exact(f, key_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", _read_exact(f, 1))
        shape = tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(ndim))
        data = np.frombuffer(_read_exact(f, 8 * math.prod(shape)), dtype="<f8")
        arrays[key] = data.reshape(shape).astype(np.float64)
    body_end = f.tell()
    if version >= 2:
        (crc,) = struct.unpack("<I", _read_exact(f, 4))
    if f.read(1):
        raise ValueError("corrupt checkpoint: trailing data after the last array")
    if version >= 2 and zlib.crc32(raw[len(MAGIC) : body_end]) != crc:
        raise ValueError("corrupt checkpoint: CRC-32 does not match the contents")

    kv: dict = {}
    for line in config_bytes.decode("utf-8").splitlines():
        if not line:
            continue
        key, _, value = line.partition("=")
        kv[key] = json.loads(value)

    missing = [k for k in _CONFIG_FIELDS if k not in kv]
    if missing:
        raise ValueError(f"corrupt checkpoint: config lacks {missing}")
    try:
        config = ModelConfig(**{k: kv[k] for k in _CONFIG_FIELDS})
    except (TypeError, ValueError) as exc:  # a value ModelConfig rejects, e.g. d=[] or d=0
        raise ValueError(f"corrupt checkpoint: bad config value ({exc})") from None

    non_finite = [
        key
        for key, arr in arrays.items()
        if key.startswith(("param/", "spatial/")) and not np.isfinite(arr).all()
    ]
    if non_finite:
        raise ValueError(f"corrupt checkpoint: NaN or inf in {', '.join(non_finite)}")

    powers = []
    for k in range(config.K + 1):
        key = f"spatial/{k}"
        if key not in arrays:
            raise ValueError(f"corrupt checkpoint: missing {key}")
        if arrays[key].shape != (config.N, config.N):
            raise ValueError(
                f"corrupt checkpoint: {key} has shape {arrays[key].shape}, "
                f"expected ({config.N}, {config.N})"
            )
        powers.append(arrays[key])
    if not np.array_equal(powers[0], powers[0][0, 0] * np.eye(config.N)):
        raise ValueError("corrupt checkpoint: spatial/0 is not a multiple of the identity")
    spatial_op = SpatialOperator(normalized_powers=powers)

    norm_stats = None
    if kv.get("has_norm_stats"):
        stats = arrays.get("norm/stats")
        if stats is None:
            raise ValueError("corrupt checkpoint: missing norm/stats")
        if stats.shape != (2,):
            raise ValueError(
                f"corrupt checkpoint: norm/stats has shape {stats.shape}, expected (2,)"
            )
        mean, std = float(stats[0]), float(stats[1])
        if not (math.isfinite(mean) and 0.0 < std < math.inf):
            raise ValueError(
                "corrupt checkpoint: norm/stats needs a finite mean and std > 0, "
                f"got ({mean}, {std})"
            )
        norm_stats = (mean, std)

    model = PastModel.build(config, spatial_op=spatial_op, norm_stats=norm_stats)
    params = {k.removeprefix("param/"): a for k, a in arrays.items() if k.startswith("param/")}
    model.params.load_state_arrays(params)
    return model
