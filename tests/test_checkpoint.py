"""Checkpoint format: byte-exact round trips and header validation."""

import json
from pathlib import Path

import numpy as np
import pytest

from pmlm.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint

from helpers import tiny_model


def test_save_load_save_is_byte_identical(tmp_path):
    m = tiny_model(seed=0)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, m, {"vocab": ["[PAD]", "[MASK]", "[UNK]", "x"], "tokenizer": "char"})
    loaded, config = load_checkpoint(p1)
    save_checkpoint(p2, loaded, {k: v for k, v in config.items() if k != "model"})
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_parameters_match_bitwise(tmp_path):
    m = tiny_model(seed=1, positional_kind="relative")
    path = save_checkpoint(tmp_path / "m.ckpt", m)
    loaded, _ = load_checkpoint(path)
    assert loaded.config == m.config
    assert set(loaded.params) == set(m.params)
    for name in m.params:
        np.testing.assert_array_equal(loaded.params[name].data, m.params[name].data)


def test_extra_config_round_trips(tmp_path):
    m = tiny_model(seed=2)
    extra = {"vocab": ["[PAD]", "[MASK]", "[UNK]", "a", "b"], "tokenizer": "char",
             "prior": {"kind": "uniform"}}
    path = save_checkpoint(tmp_path / "m.ckpt", m, extra)
    _, config = load_checkpoint(path)
    assert config["vocab"] == extra["vocab"]
    assert config["prior"] == {"kind": "uniform"}
    assert config["tokenizer"] == "char"


def test_header_is_json_then_nul_then_payload(tmp_path):
    m = tiny_model(seed=3)
    raw = checkpoint_bytes(m)
    sep = raw.find(b"\x00")
    header = json.loads(raw[:sep].decode("utf-8"))
    assert set(header) == {"config", "tensors"}
    total = sum(
        int(np.prod(meta["shape"])) * 8 for meta in header["tensors"].values()
    )
    assert len(raw) - sep - 1 == total
    assert all(meta["dtype"] == "f64" for meta in header["tensors"].values())


def test_tampered_tensor_names_rejected(tmp_path):
    m = tiny_model(seed=4)
    raw = checkpoint_bytes(m)
    sep = raw.find(b"\x00")
    header = json.loads(raw[:sep].decode("utf-8"))
    header["tensors"]["bogus"] = header["tensors"].pop("out.b")
    tampered = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + raw[sep:]
    path = tmp_path / "bad.ckpt"
    path.write_bytes(tampered)
    with pytest.raises(ValueError, match="bogus"):
        load_checkpoint(path)


def test_missing_separator_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"{}")
    with pytest.raises(ValueError, match="separator"):
        load_checkpoint(path)


def test_failed_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = save_checkpoint(tmp_path / "m.ckpt", tiny_model(seed=5))
    before = path.read_bytes()
    write_bytes = Path.write_bytes

    def fail_part_way(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", fail_part_way)
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(path, tiny_model(seed=6))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
