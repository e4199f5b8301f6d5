"""Checkpoint format: UTF-8 JSON header, a single NUL separator, then the
little-endian float64 tensors back to back in name order, nothing after.

The header is ``{"config": {...}, "tensors": {name: {shape, dtype, byte_offset}}}``
serialized with sorted keys and no whitespace, so identical model state
always produces identical bytes and save -> load -> save round-trips
byte-for-byte. ``config`` always carries the model configuration under
"model" and may carry extra entries (vocabulary, tokenizer kind, prior).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .data import json_object
from .model import Transformer, TransformerConfig, parameter_shapes
from .tensor import Tensor

_DTYPE_TAG = "f64"
_TENSOR_KEYS = ("shape", "dtype", "byte_offset")


def checkpoint_bytes(model: Transformer, extra_config: Optional[dict] = None) -> bytes:
    tensors = {}
    chunks = []
    offset = 0
    for name in sorted(model.params):
        data = np.ascontiguousarray(model.params[name].data, dtype="<f8")
        tensors[name] = {
            "shape": list(data.shape),
            "dtype": _DTYPE_TAG,
            "byte_offset": offset,
        }
        raw = data.tobytes()
        chunks.append(raw)
        offset += len(raw)
    config = {"model": model.config.to_dict()}
    if extra_config:
        config.update(extra_config)
    header = json.dumps({"config": config, "tensors": tensors}, sort_keys=True, separators=(",", ":"))
    return header.encode("utf-8") + b"\x00" + b"".join(chunks)


def write_atomic(path, content: bytes) -> Path:
    """Write ``content`` to a temporary file beside ``path``, then move it
    into place, so a write that fails part-way leaves an earlier file whole."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(f"{p.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(content)
        os.replace(tmp, p)
    finally:
        tmp.unlink(missing_ok=True)
    return p


def save_checkpoint(path, model: Transformer, extra_config: Optional[dict] = None) -> Path:
    return write_atomic(path, checkpoint_bytes(model, extra_config))


def load_checkpoint(path) -> Tuple[Transformer, dict]:
    """Returns the model plus the full header config dict (including extras)."""
    raw = Path(path).read_bytes()
    sep = raw.find(b"\x00")
    if sep < 0:
        raise ValueError(f"checkpoint {path}: missing header separator")
    try:
        header = json.loads(raw[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"checkpoint {path}: malformed header: {e}") from e
    payload = raw[sep + 1 :]
    json_object(header, f"checkpoint {path}: header", ("config", "tensors"), ("config", "tensors"))
    json_object(header["config"], f"checkpoint {path}: header config", required=("model",))
    config = TransformerConfig.from_dict(header["config"]["model"])
    entries = json_object(header["tensors"], f"checkpoint {path}: header tensors")
    if config.layers > len(entries):  # every layer has tensors: reject before naming them all
        raise ValueError(f"checkpoint {path}: config has {config.layers} layers, header {len(entries)} tensors")
    expected = parameter_shapes(config)
    if set(entries) != set(expected):
        missing, extra = sorted(set(expected) - set(entries)), sorted(set(entries) - set(expected))
        raise ValueError(
            f"checkpoint {path}: tensor names do not match the stored config "
            f"({len(missing)} missing, first {missing[:3]}; {len(extra)} extra, first {extra[:3]})"
        )
    params: Dict[str, Tensor] = {}
    offset = 0  # the tensors lie back to back in name order, as checkpoint_bytes writes them
    for name in sorted(entries):
        meta = json_object(entries[name], f"checkpoint {path}: tensor '{name}'", _TENSOR_KEYS, _TENSOR_KEYS)
        if meta["dtype"] != _DTYPE_TAG:
            raise ValueError(f"checkpoint {path}: tensor '{name}' has dtype {meta['dtype']}, expected {_DTYPE_TAG}")
        shape = expected[name]
        if meta["shape"] != list(shape) or not all(type(d) is int for d in meta["shape"]):
            raise ValueError(f"checkpoint {path}: tensor '{name}' has shape {meta['shape']}, expected {list(shape)}")
        if meta["byte_offset"] != offset or type(meta["byte_offset"]) is not int:
            raise ValueError(
                f"checkpoint {path}: tensor '{name}' starts at byte {meta['byte_offset']}, expected {offset} "
                "(tensors lie back to back in name order)"
            )
        count = int(np.prod(shape))
        if offset + 8 * count > len(payload):
            raise ValueError(f"checkpoint {path}: payload ends inside tensor '{name}'")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        params[name] = Tensor(arr.reshape(shape).astype(np.float64), requires_grad=True)
        if not np.all(np.isfinite(params[name].data)):
            raise ValueError(f"checkpoint {path}: tensor '{name}' contains non-finite values")
    if offset != len(payload):
        raise ValueError(f"checkpoint {path}: {len(payload) - offset} trailing bytes after the last tensor")
    return Transformer(config, params), header["config"]
