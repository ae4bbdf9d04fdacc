"""Binary container for trained parameters plus run metadata.

Layout (all integers little-endian, data float64 little-endian, row-major):

    magic        4 bytes   b"MWCP"
    version      u32       currently 1
    meta_len     u64       length of the metadata blob
    meta         bytes     UTF-8 JSON: {"model_config": {...}, "train_config":
                           {...}, "dims": {"frame_dim", "vocab", "n_emotions"},
                           "world_hash": str, "step": int,
                           "stores": [store names in order]}
    n_stores     u32
    per store:
        name_len u16, name bytes (UTF-8)
        seed     u64       initialization seed of the store
        n_params u32
        per parameter:
            name_len u16, name bytes (UTF-8)
            ndim     u8
            dims     u32 * ndim
            data     f64 * prod(dims)

The metadata JSON is serialized with sorted keys and compact separators, so
serialize -> deserialize -> serialize is byte-identical.
"""

from __future__ import annotations

import io
import json
import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .autodiff import MelworldError, ParamStore

MAGIC = b"MWCP"
VERSION = 1


class CheckpointError(MelworldError):
    """Raised for malformed or truncated checkpoint data."""


def _write_str(buf: io.BytesIO, s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CheckpointError(f"name too long: {s[:32]}...")
    buf.write(struct.pack("<H", len(raw)))
    buf.write(raw)


def _read_exact(buf: io.BytesIO, n: int) -> bytes:
    # a damaged length may be too large for BytesIO.read to take
    raw = buf.read(n) if n <= sys.maxsize else b""
    if len(raw) != n:
        raise CheckpointError("truncated checkpoint data")
    return raw


def _read_str(buf: io.BytesIO) -> str:
    (n,) = struct.unpack("<H", _read_exact(buf, 2))
    try:
        return _read_exact(buf, n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError("checkpoint name is not UTF-8") from exc


def dump_stores(stores: dict[str, ParamStore], meta: dict) -> bytes:
    """Serialize named parameter stores and a JSON-safe metadata dict."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    meta = dict(meta)
    meta["stores"] = list(stores)
    meta_raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf.write(struct.pack("<Q", len(meta_raw)))
    buf.write(meta_raw)
    buf.write(struct.pack("<I", len(stores)))
    for store_name, store in stores.items():
        _write_str(buf, store_name)
        buf.write(struct.pack("<Q", store.seed))
        params = store.tensors()
        buf.write(struct.pack("<I", len(params)))
        for pname, tensor in params.items():
            _write_str(buf, pname)
            arr = np.ascontiguousarray(tensor.data, dtype="<f8")
            buf.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                buf.write(struct.pack("<I", dim))
            buf.write(arr.tobytes())
    return buf.getvalue()


def load_stores(raw: bytes) -> tuple[dict[str, dict[str, np.ndarray]], dict[str, int], dict]:
    """Parse checkpoint bytes.

    Returns (state dicts per store, init seed per store, metadata dict).
    """
    buf = io.BytesIO(raw)
    if _read_exact(buf, 4) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", _read_exact(buf, 4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<Q", _read_exact(buf, 8))
    try:
        meta = json.loads(_read_exact(buf, meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint metadata is not valid JSON: {exc}") from exc
    (n_stores,) = struct.unpack("<I", _read_exact(buf, 4))
    states: dict[str, dict[str, np.ndarray]] = {}
    seeds: dict[str, int] = {}
    for _ in range(n_stores):
        store_name = _read_str(buf)
        (seed,) = struct.unpack("<Q", _read_exact(buf, 8))
        (n_params,) = struct.unpack("<I", _read_exact(buf, 4))
        state: dict[str, np.ndarray] = {}
        for _ in range(n_params):
            pname = _read_str(buf)
            (ndim,) = struct.unpack("<B", _read_exact(buf, 1))
            dims = struct.unpack(f"<{ndim}I", _read_exact(buf, 4 * ndim)) if ndim else ()
            data = np.frombuffer(_read_exact(buf, 8 * math.prod(dims)), dtype="<f8")
            try:
                state[pname] = data.reshape(dims).astype(np.float64)
            except ValueError as exc:  # more dims than numpy supports
                raise CheckpointError(f"checkpoint parameter '{pname}': {exc}") from exc
        states[store_name] = state
        seeds[store_name] = seed
    if buf.read(1):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return states, seeds, meta
