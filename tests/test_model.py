"""Backbone tests: attention-mode semantics, positional variants, padding,
incremental decoding against the full-forward oracle."""

import numpy as np
import pytest

from pmlm import tensor as T
from pmlm.data import PAD_ID
from pmlm.model import (
    Transformer,
    TransformerConfig,
    parameter_shapes,
    relative_attention_bias,
)
from pmlm.tensor import Tensor

from helpers import tiny_config, tiny_model


def test_causal_prefix_logits_unchanged_by_suffix():
    m = tiny_model(seed=1, attention_mode="causal")
    rng = np.random.default_rng(0)
    x = rng.integers(3, 12, size=6)
    y = x.copy()
    y[-1] = (y[-1] - 3 + 1) % 9 + 3
    a = m.logits(x)
    b = m.logits(y)
    np.testing.assert_array_equal(a[:-1], b[:-1])
    assert not np.array_equal(a[-1], b[-1])


def test_bidirectional_last_token_changes_first_logits():
    m = tiny_model(seed=2)
    x = np.array([3, 4, 5, 6, 7, 8])
    y = x.copy()
    y[-1] = 9
    assert not np.array_equal(m.logits(x)[0], m.logits(y)[0])


def test_zeroed_attention_and_ffn_is_position_local():
    m = tiny_model(seed=3, layers=1, heads=1)
    for name, p in m.params.items():
        if name.startswith("layers."):
            p.data[:] = 1.0 if name.endswith("gain") else 0.0
    x = np.array([3, 4, 5, 6])
    y = np.array([3, 9, 5, 6])
    lx, ly = m.logits(x), m.logits(y)
    # only the changed position moves; everything else is untouched
    np.testing.assert_array_equal(lx[[0, 2, 3]], ly[[0, 2, 3]])
    assert not np.array_equal(lx[1], ly[1])
    # the whole stack collapses to normalized, output-projected embeddings
    emb = m.params["tok_emb"].data[x] + m.params["pos_emb"].data[:4]
    normed = (emb - emb.mean(-1, keepdims=True)) / np.sqrt(emb.var(-1, keepdims=True) + 1e-12)
    normed = normed * m.params["ln_f.gain"].data + m.params["ln_f.bias"].data
    expected = normed @ m.params["out.w"].data + m.params["out.b"].data
    np.testing.assert_allclose(lx, expected, rtol=0, atol=1e-12)


def test_forward_rejects_long_sequences_and_bad_ids():
    m = tiny_model()
    with pytest.raises(ValueError, match="exceeds max_len"):
        m.logits(np.full(9, 3))
    with pytest.raises(ValueError, match=r"token id 99 at position 2"):
        m.logits(np.array([3, 4, 99]))


def test_pad_keys_do_not_influence_other_positions():
    for mode in ("bidirectional", "causal"):
        m = tiny_model(seed=4, attention_mode=mode)
        x = np.array([3, 4, 5])
        padded = np.array([3, 4, 5, PAD_ID, PAD_ID])
        np.testing.assert_array_equal(m.logits(x), m.logits(padded)[:3])


def test_batched_forward_matches_single():
    m = tiny_model(seed=5)
    rng = np.random.default_rng(1)
    batch = rng.integers(3, 12, size=(4, 7))
    stacked = m.logits(batch)
    for i in range(4):
        np.testing.assert_allclose(stacked[i], m.logits(batch[i]), rtol=0, atol=1e-12)


def test_dropout_off_is_deterministic_and_on_differs():
    m = tiny_model(seed=6, dropout_rate=0.3)
    x = np.array([3, 4, 5, 6])
    np.testing.assert_array_equal(m.logits(x), m.logits(x))
    with T.no_grad():
        a = m.forward(x, train=True, rng=np.random.default_rng(0)).data
        b = m.forward(x, train=True, rng=np.random.default_rng(0)).data
        c = m.forward(x, train=True, rng=np.random.default_rng(1)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError, match="rng"):
        m.forward(x, train=True)


# ---------------------------------------------------------------------------
# incremental decoding
# ---------------------------------------------------------------------------


def test_incremental_single_token_matches_full():
    m = tiny_model(seed=7, attention_mode="causal")
    row, _ = m.forward_incremental(np.array([3]))
    np.testing.assert_allclose(row, m.logits(np.array([3]))[0], rtol=0, atol=1e-10)


@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_incremental_prefix_matches_full_forward(positional):
    m = tiny_model(seed=8, attention_mode="causal", positional_kind=positional, max_len=16)
    rng = np.random.default_rng(2)
    prefix = rng.integers(3, 12, size=8)
    row, _ = m.forward_incremental(prefix)
    np.testing.assert_allclose(row, m.logits(prefix)[-1], rtol=0, atol=1e-10)


def test_incremental_cache_reuse_over_16_steps():
    # a first call of five new positions, then calls of one, two and three, so
    # the new query rows start at 0, at n - 1 and before n - 1
    for positional in ("absolute", "relative"):
        m = tiny_model(seed=9, attention_mode="causal", positional_kind=positional, max_len=16)
        tokens = np.random.default_rng(3).integers(3, 12, size=16)
        cache = None
        worst = 0.0
        for t in (5, 6, 7, 9, 12, 13, 14, 15, 16):
            row, cache = m.forward_incremental(tokens[:t], cache)
            full = m.logits(tokens[:t])[-1]
            worst = max(worst, float(np.abs(row - full).max()))
        assert worst < 1e-9, (positional, worst)


def test_incremental_rejected_for_bidirectional():
    m = tiny_model(seed=10)
    with pytest.raises(ValueError, match="full forward"):
        m.forward_incremental(np.array([3]))


def test_incremental_rejects_non_extending_prefix():
    m = tiny_model(seed=11, attention_mode="causal")
    _, cache = m.forward_incremental(np.array([3, 4]))
    with pytest.raises(ValueError, match="extend"):
        m.forward_incremental(np.array([3, 5, 6]), cache)


# ---------------------------------------------------------------------------
# relative positional bias
# ---------------------------------------------------------------------------


def test_relative_bias_diagonal_is_shared():
    table = Tensor(np.random.default_rng(4).normal(size=(9, 2)))
    bias = relative_attention_bias(table, 5, 4).data
    for h in range(2):
        np.testing.assert_array_equal(np.diag(bias[h]), np.full(5, bias[h, 0, 0]))


def test_relative_bias_clamps_long_distances():
    table = Tensor(np.random.default_rng(5).normal(size=(5, 2)))
    bias = relative_attention_bias(table, 5, 2).data
    # offsets +3 and +4 clamp to +2, so columns 3 and 4 of row 0 agree
    np.testing.assert_array_equal(bias[:, 0, 4], bias[:, 0, 3])
    np.testing.assert_array_equal(bias[:, 0, 3], bias[:, 0, 2])
    np.testing.assert_array_equal(bias[:, 4, 0], bias[:, 4, 1])


def test_relative_bias_translation_invariant_interior():
    table = Tensor(np.random.default_rng(6).normal(size=(7, 3)))
    bias = relative_attention_bias(table, 6, 3).data
    for i in range(5):
        for j in range(5):
            np.testing.assert_array_equal(bias[:, i, j], bias[:, i + 1, j + 1])


def test_positional_variants_differ_only_in_positional_tables():
    absolute = parameter_shapes(tiny_config(positional_kind="absolute"))
    relative = parameter_shapes(tiny_config(positional_kind="relative"))
    assert set(absolute) - set(relative) == {"pos_emb"}
    assert set(relative) - set(absolute) == {"rel_bias"}
    shared = set(absolute) & set(relative)
    assert all(absolute[k] == relative[k] for k in shared)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="divisible"):
        TransformerConfig(vocab_size=10, hidden_size=10, heads=4)
    with pytest.raises(ValueError, match="vocab_size"):
        TransformerConfig(vocab_size=3)
    with pytest.raises(ValueError, match="attention_mode"):
        TransformerConfig(vocab_size=10, attention_mode="diagonal")
    with pytest.raises(ValueError, match="relative_window"):
        TransformerConfig(vocab_size=10, positional_kind="relative", relative_window=0)


def test_transformer_rejects_wrong_parameter_names():
    cfg = tiny_config()
    m = tiny_model()
    params = dict(m.params)
    params.pop("out.b")
    with pytest.raises(ValueError, match="out.b"):
        Transformer(cfg, params)
