"""Checkpoint format: UTF-8 JSON header, a single NUL separator, then the
concatenated little-endian float64 tensor payload.

The header is ``{"config": {...}, "tensors": {name: {shape, dtype, byte_offset}}}``
serialized with sorted keys and no whitespace, so identical model state
always produces identical bytes and save -> load -> save round-trips
byte-for-byte. ``config`` always carries the model configuration under
"model" and may carry extra entries (vocabulary, tokenizer kind, prior).
"""

from __future__ import annotations

import json
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


def save_checkpoint(path, model: Transformer, extra_config: Optional[dict] = None) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_bytes(checkpoint_bytes(model, extra_config))
    return p


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
    expected = parameter_shapes(config)
    entries = json_object(header["tensors"], f"checkpoint {path}: header tensors")
    if set(entries) != set(expected):
        raise ValueError(
            f"checkpoint {path}: tensor names do not match the stored config "
            f"(missing={sorted(set(expected) - set(entries))}, "
            f"extra={sorted(set(entries) - set(expected))})"
        )
    params: Dict[str, Tensor] = {}
    for name, meta in entries.items():
        json_object(meta, f"checkpoint {path}: tensor '{name}'", _TENSOR_KEYS, _TENSOR_KEYS)
        if meta["dtype"] != _DTYPE_TAG:
            raise ValueError(f"checkpoint {path}: tensor '{name}' has dtype {meta['dtype']}, expected {_DTYPE_TAG}")
        shape = tuple(meta["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=meta["byte_offset"])
        params[name] = Tensor(arr.reshape(shape).astype(np.float64), requires_grad=True)
        if not np.all(np.isfinite(params[name].data)):
            raise ValueError(f"checkpoint {path}: tensor '{name}' contains non-finite values")
    return Transformer(config, params), header["config"]
