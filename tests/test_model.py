"""Backbone tests: attention-mode semantics, positional variants, padding,
incremental decoding against the full-forward oracle."""

import numpy as np
import pytest

import pmlm.model as model_mod
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


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_no_grad_forward_has_the_bits_of_the_recording_forward(mode, positional):
    m = tiny_model(seed=14, attention_mode=mode, positional_kind=positional)
    rng = np.random.default_rng(5)
    ids = rng.integers(3, 12, size=(3, 8))
    ids[2, 6:] = PAD_ID
    for kwargs in ({}, {"rows": [[1, 6], [0, 0], [7, 3]]}, {"flat_rows": [0, 5, 9, 17, 23]}):
        recorded = m.forward(ids, **kwargs)
        assert recorded.requires_grad
        with T.no_grad():
            plain = m.forward(ids, **kwargs)
        np.testing.assert_array_equal(plain.data, recorded.data)
    for kwargs in ({}, {"rows": [4, 0]}):
        np.testing.assert_array_equal(m.logits(ids[0], **kwargs), m.forward(ids[0], **kwargs).data)
    if mode == "causal":
        # the cached decode over a fresh cache runs the same block on arrays
        row, _ = m.forward_incremental(ids[0])
        np.testing.assert_array_equal(row, m.forward(ids[0]).data[-1])


def test_no_grad_forward_builds_no_graph_node(monkeypatch):
    m = tiny_model(seed=15, positional_kind="relative", dropout_rate=0.2)
    calls = []
    node = T._node

    def counted(*args):
        calls.append(args)
        return node(*args)

    monkeypatch.setattr(T, "_node", counted)
    ids = np.array([[3, 4, 5, 6], [7, 8, PAD_ID, PAD_ID]])
    with T.no_grad():
        for kwargs in ({}, {"rows": [1, 0]}, {"flat_rows": [2, 4]}, {"train": True, "rng": np.random.default_rng(0)}):
            out = m.forward(ids, **kwargs)
            assert out._parents == () and out._vjp is None and not out.requires_grad
    assert calls == []
    m.forward(ids)
    assert calls  # the recording forward goes through the graph


def test_no_grad_dropout_draws_the_recording_forwards_mask():
    m = tiny_model(seed=16, dropout_rate=0.3)
    ids = np.array([[3, 4, 5, 6, 7], [8, 9, 10, PAD_ID, PAD_ID]])
    for kwargs in ({}, {"flat_rows": [0, 3, 6]}):
        recorded = m.forward(ids, train=True, rng=np.random.default_rng(7), **kwargs).data
        with T.no_grad():
            plain = m.forward(ids, train=True, rng=np.random.default_rng(7), **kwargs).data
        np.testing.assert_array_equal(plain, recorded)
    assert not np.array_equal(recorded, m.logits(ids).reshape(-1, 12)[[0, 3, 6]])
    x = np.random.default_rng(8).normal(size=(6, 5))
    expected = T.dropout(Tensor(x), 0.3, np.random.default_rng(9)).data
    np.testing.assert_array_equal(T.array_ops.dropout(x, 0.3, np.random.default_rng(9)), expected)
    assert T.array_ops.dropout(x, 0.0, None) is x


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
# row-selected forward
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_selected_rows_match_the_full_forward(mode, positional):
    m = tiny_model(seed=12, attention_mode=mode, positional_kind=positional)
    if positional == "relative":
        # a large distance table, so a bias taken at the wrong query rows shows
        m.params["rel_bias"].data *= 50.0
    rng = np.random.default_rng(4)
    ids = rng.integers(3, 12, size=(3, 8))
    ids[1, 5:] = PAD_ID
    full = m.logits(ids)
    batch = np.arange(3)[:, None]
    cases = [
        np.array([[0, 7, 3], [4, 1, 1], [2, 6, 5]]),
        np.stack([rng.permutation(8) for _ in range(3)]),
        np.array([[6], [0], [7]]),
    ]
    for rows in cases:
        selected = m.logits(ids, rows=rows)
        assert selected.shape == rows.shape + (12,)
        np.testing.assert_allclose(selected, full[batch, rows], rtol=0, atol=1e-12)
    one_per_sequence = m.logits(ids, rows=[5, 2, 0])
    assert one_per_sequence.shape == (3, 12)
    np.testing.assert_allclose(one_per_sequence, full[batch[:, 0], [5, 2, 0]], rtol=0, atol=1e-12)
    single = m.logits(ids[0])
    for rows in ([6], [5, 0, 5], list(range(8))[::-1]):
        np.testing.assert_allclose(m.logits(ids[0], rows=rows), single[rows], rtol=0, atol=1e-12)
    # flat rows of the (3 * 8) batch: ragged across sequences, every
    # non-[PAD] row (skipping the tail of sequence 1), sequence 0 alone, none
    for flat_rows in ([0, 7, 9, 12, 23], np.flatnonzero(ids != PAD_ID), np.arange(8), np.array([], dtype=int)):
        with T.no_grad():
            selected = m.forward(ids, flat_rows=flat_rows).data
        assert selected.shape == (len(flat_rows), 12)
        np.testing.assert_allclose(selected, full.reshape(-1, 12)[flat_rows], rtol=0, atol=1e-12)


def test_rows_must_fit_the_tokens():
    m = tiny_model(seed=13)
    ids = np.full((2, 4), 3)
    with pytest.raises(ValueError, match="outside a sequence of length 4"):
        m.logits(ids, rows=[[0], [4]])
    with pytest.raises(ValueError, match="outside"):
        m.logits(ids[0], rows=[-1])
    with pytest.raises(ValueError, match="do not fit"):
        m.logits(ids, rows=[0, 1, 2])
    with pytest.raises(ValueError, match="do not fit"):
        m.logits(ids[0], rows=[[0]])
    with pytest.raises(ValueError, match="rows or flat_rows, not both"):
        m.forward(ids, rows=[0, 1], flat_rows=[0, 5])
    with pytest.raises(ValueError, match="outside the 8 positions"):
        m.forward(ids, flat_rows=[8])
    with pytest.raises(ValueError, match="one-dimensional"):
        m.forward(ids, flat_rows=[[0], [4]])


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_sliced_logits_have_the_bits_of_one_forward(mode, positional, monkeypatch):
    """Slices of 1, 2 and 3 sequences give the bits of one forward of the
    whole batch, with [PAD] tails, on full rows and on rows of shape (B,)
    and (B, r), and no forward gets more sequences than the slice size."""
    m = tiny_model(seed=14, attention_mode=mode, positional_kind=positional)
    rng = np.random.default_rng(6)
    ids = rng.integers(3, 12, size=(7, 8))
    for b, width in enumerate([3, 8, 2, 5, 1, 8, 4]):
        ids[b, width:] = PAD_ID
    cases = [None, np.array([0, 5, 1, 2, 0, 3, 2]), np.stack([rng.permutation(8)[:3] for _ in range(7)])]
    whole = [m.logits(ids, rows=rows) for rows in cases]
    forward, sizes = m.forward, []

    def spy(tokens, **kwargs):
        sizes.append(len(tokens))
        return forward(tokens, **kwargs)

    monkeypatch.setattr(m, "forward", spy)
    for size in (1, 2, 3):
        monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width: size)
        for rows, expected in zip(cases, whole):
            sizes.clear()
            np.testing.assert_array_equal(m.logits(ids, rows=rows), expected)
            assert sizes == [size] * (7 // size) + [7 % size] * (7 % size > 0)


def test_rows_that_do_not_fit_a_sliced_batch_are_rejected(monkeypatch):
    """A slice loop that cut ``rows`` with the tokens would drop the rows
    past the batch; they are checked against the whole batch instead."""
    m = tiny_model(seed=15)
    monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width: 2)
    ids = np.full((4, 8), 3)
    for rows in ([0, 1, 2, 3, 4], [0, 1, 2], np.zeros((5, 2)), np.zeros((3, 2)), np.zeros((4, 1, 1)), 0):
        with pytest.raises(ValueError, match=r"rows of shape .* do not fit tokens of shape \(4, 8\)"):
            m.logits(ids, rows=rows)


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
    with pytest.raises(ValueError, match="heads and hidden_size must be positive"):
        TransformerConfig(vocab_size=10, heads=0)
    with pytest.raises(ValueError, match="heads and hidden_size must be positive"):
        TransformerConfig(vocab_size=10, hidden_size=0)


def test_transformer_rejects_wrong_parameter_names():
    cfg = tiny_config()
    m = tiny_model()
    params = dict(m.params)
    params.pop("out.b")
    with pytest.raises(ValueError, match="out.b"):
        Transformer(cfg, params)
