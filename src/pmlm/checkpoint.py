"""Checkpoint format: UTF-8 JSON header, a single NUL separator, then the
little-endian float64 parameters back to back in name order, nothing after.

The header is ``{"config": {...}}`` serialized with sorted keys and no
whitespace, so identical model state always produces identical bytes and
save -> load -> save round-trips byte-for-byte. ``config`` always carries
the model configuration under "model" and may carry extra entries
(vocabulary, tokenizer kind, prior). The model configuration fixes every
parameter's name and shape (``parameter_shapes``), so the header lists none.
"""

from __future__ import annotations

import errno
import json
import math
import os
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .data import json_object
from .model import Transformer, TransformerConfig, parameter_shapes
from .tensor import Tensor


def checkpoint_bytes(model: Transformer, extra_config: Optional[dict] = None) -> bytes:
    config = {"model": model.config.to_dict()}
    if extra_config:
        config.update(extra_config)
    header = json.dumps({"config": config}, sort_keys=True, separators=(",", ":"))
    payload = b"".join(np.asarray(model.params[n].data, dtype="<f8").tobytes() for n in sorted(model.params))
    return header.encode("utf-8") + b"\x00" + payload


def write_atomic(path, content: bytes) -> Path:
    """Write ``content`` to a temporary file beside ``path``, then move it
    into place, so a write that fails part-way leaves an earlier file whole."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(f"{p.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(content)
        os.replace(tmp, p)
    except OSError as e:  # named by the path given, not the temporary file
        raise e if e.filename is None else OSError(e.errno, e.strerror, os.fspath(path))
    finally:
        tmp.unlink(missing_ok=True)
    return p


def check_output_paths(*paths) -> None:
    """Fail on a path that is a directory as a write to it would, before any work."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))


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
    json_object(header, f"checkpoint {path}: header", ("config",), ("config",))
    json_object(header["config"], f"checkpoint {path}: header config", required=("model",))
    try:
        config = TransformerConfig.from_dict(header["config"]["model"])
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: {e}") from e
    # sized from a one-layer table, so a header that claims 10^9 layers is rejected before naming them
    one = {name: math.prod(shape) for name, shape in parameter_shapes(replace(config, layers=1)).items()}
    per_layer = sum(count for name, count in one.items() if name.startswith("layers."))
    expected = 8 * (sum(one.values()) + (config.layers - 1) * per_layer)
    if len(payload) != expected:
        raise ValueError(f"checkpoint {path}: payload has {len(payload)} bytes, its config needs {expected}")
    shapes = parameter_shapes(config)
    params: Dict[str, Tensor] = {}
    offset = 0  # the parameters lie back to back in name order, as checkpoint_bytes writes them
    for name in sorted(shapes):
        count = math.prod(shapes[name])
        data = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shapes[name])
        if not np.isfinite(data).all():
            raise ValueError(f"checkpoint {path}: tensor '{name}' contains non-finite values")
        params[name] = Tensor(data.astype(np.float64), requires_grad=True)
        offset += 8 * count
    return Transformer(config, params), header["config"]
