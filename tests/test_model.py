"""Backbone tests: attention-mode semantics, positional variants, padding,
incremental decoding against the full-forward oracle."""

import os
import re
import sys
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest

import pmlm.model as model_mod
from pmlm import tensor as T
from pmlm.data import PAD_ID
from pmlm.evaluation import _batched_nll
from pmlm.generation import GenerationConstraints, GenerationOrder, SamplerSpec, generate
from pmlm.model import (
    Transformer,
    TransformerConfig,
    parameter_shapes,
    relative_attention_bias,
)
from pmlm.optim import Adam
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
        a = m.forward(x, rng=np.random.default_rng(0)).data
        b = m.forward(x, rng=np.random.default_rng(0)).data
        c = m.forward(x, rng=np.random.default_rng(1)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_no_grad_forward_has_the_bits_of_the_recording_forward(mode, positional):
    m = tiny_model(seed=14, attention_mode=mode, positional_kind=positional)
    rng = np.random.default_rng(5)
    ids = rng.integers(3, 12, size=(3, 8))
    ids[2, 6:] = PAD_ID
    for kwargs in ({}, {"rows": [1, 6, 8, 8, 23, 19]}, {"rows": [0, 5, 9, 17, 23]}):
        recorded = m.forward(ids, **kwargs)
        assert recorded.requires_grad
        with T.no_grad():
            plain = m.forward(ids, **kwargs)
        np.testing.assert_array_equal(plain.data, recorded.data)
    np.testing.assert_array_equal(m.logits(ids[0]), m.forward(ids[0]).data)
    np.testing.assert_array_equal(selected_rows(m, ids[0], [4, 0]), m.forward(ids[0], rows=[4, 0]).data)
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
        for kwargs in ({}, {"rows": [1, 4]}, {"rows": [2, 4]}, {"rows": [2, 4, 5]}, {"rng": np.random.default_rng(0)}):
            out = m.forward(ids, **kwargs)
            assert out._parents == () and out._vjp is None and not out.requires_grad
    assert calls == []
    m.forward(ids)
    assert calls  # the recording forward goes through the graph


def test_no_grad_dropout_draws_the_recording_forwards_mask():
    m = tiny_model(seed=16, dropout_rate=0.3)
    ids = np.array([[3, 4, 5, 6, 7], [8, 9, 10, PAD_ID, PAD_ID]])
    for kwargs in ({}, {"rows": [0, 3, 6]}):
        recorded = m.forward(ids, rng=np.random.default_rng(7), **kwargs).data
        with T.no_grad():
            plain = m.forward(ids, rng=np.random.default_rng(7), **kwargs).data
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


def test_incremental_checks_the_new_positions_with_the_forward_messages():
    m = tiny_model(seed=11, attention_mode="causal")  # vocab 12, max_len 8
    _, cache = m.forward_incremental(np.array([3, 4]))
    extend = "does not extend the cached prefix"
    bad = [
        ("token id 12 at position 3 outside vocabulary of size 12", [3, 4, 5, 12]),
        ("token id -1 at position 2 outside vocabulary", [3, 4, -1]),
        (r"must not contain \[PAD\]", [3, 4, 5, PAD_ID]),
        ("sequence length 9 exceeds max_len 8", [3, 4, 5, 6, 7, 8, 9, 10, 11]),
        # a rewritten cached token, even one the forward would reject, fails the extension check
        (extend, [3, PAD_ID, 5]),
        (extend, [12, 4, 5]),
        (extend, [3]),
    ]
    for message, prefix in bad:
        with pytest.raises(ValueError, match=message):
            m.forward_incremental(np.array(prefix), cache)
    row, _ = m.forward_incremental(np.array([3, 4, 5]), cache)  # the rejected calls left the cache as it was
    np.testing.assert_allclose(row, m.logits(np.array([3, 4, 5]))[-1], rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "cached, prefix, message",
    [
        (None, [], "forward: empty token sequence"),
        (None, [3] * 9, "forward: sequence length 9 exceeds max_len 8"),
        ([3, 4], [3, 4, -1], "forward: token id -1 at position 2 outside vocabulary of size 12"),
        ([3, 4], [3, 4, 5, 12], "forward: token id 12 at position 3 outside vocabulary of size 12"),
        ([3, 4], [3, 4, 5, PAD_ID], "forward_incremental: prefix must not contain [PAD]"),
        ([3, 4], [3, 4, PAD_ID, 12], "forward: token id 12 at position 3 outside vocabulary of size 12"),
        ([3, 4], [3, 5, 6], "forward_incremental: prefix does not extend the cached prefix"),
        ([3, 4], [3, 4], "forward_incremental: no new positions beyond the cache"),
    ],
    ids=["empty", "past-max-len", "negative-id", "id-past-vocab", "pad", "pad-and-id-past-vocab",
         "not-extending", "no-new-positions"],
)
def test_incremental_rejects_bad_prefixes_with_these_exact_messages(cached, prefix, message):
    m = tiny_model(seed=11, attention_mode="causal")  # vocab 12, max_len 8
    cache = None if cached is None else m.forward_incremental(np.array(cached))[1]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        m.forward_incremental(np.array(prefix, dtype=np.int64), cache)
    assert cache is None or cache.length == len(cached)


def test_incremental_rejects_a_cache_of_another_model_or_of_rebound_parameters():
    m = tiny_model(seed=12, attention_mode="causal")
    twin = tiny_model(seed=13, attention_mode="causal")  # an equal config with other weights
    _, cache = m.forward_incremental(np.array([3, 4]))
    with pytest.raises(ValueError, match="cache filled by another model"):
        twin.forward_incremental(np.array([3, 4, 5]), cache)
    m.params["tok_emb"].data = m.params["tok_emb"].data * 2.0  # rebound, as restoring a training snapshot does
    with pytest.raises(ValueError, match="parameters were rebound"):
        m.forward_incremental(np.array([3, 4, 5]), cache)
    row, _ = m.forward_incremental(np.array([3, 4, 5]))
    np.testing.assert_allclose(row, m.logits(np.array([3, 4, 5]))[-1], rtol=0, atol=1e-10)


def test_incremental_rejects_a_cache_filled_before_an_optimizer_step():
    m = tiny_model(seed=12, attention_mode="causal")
    _, cache = m.forward_incremental(np.array([3, 4]))
    T.backward(T.sum_(m.forward(np.array([3, 4, 5]))))
    Adam(lr=0.05).step(m.params)
    with pytest.raises(ValueError, match="parameters were rebound"):
        m.forward_incremental(np.array([3, 4, 5]), cache)
    row, _ = m.forward_incremental(np.array([3, 4, 5]))
    np.testing.assert_array_equal(row, m.logits(np.array([3, 4, 5]))[-1])


@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_cached_decode_writes_neither_the_prefix_nor_a_parameter(positional):
    """A fresh-cache call, one-position extensions and a multi-position one
    leave the caller's prefix and every parameter array bit for bit as they were."""
    m = tiny_model(seed=25, attention_mode="causal", positional_kind=positional)
    prefix = np.random.default_rng(26).integers(3, 12, size=8)
    arrays = [t.data for t in m.params.values()]
    kept = [a.tobytes() for a in [prefix] + arrays]
    _, cache = m.forward_incremental(prefix[:3])
    for t in (4, 5):
        _, cache = m.forward_incremental(prefix[:t], cache)
    m.forward_incremental(prefix, cache)  # three new positions at once
    assert all(a is t.data for a, t in zip(arrays, m.params.values()))
    assert [a.tobytes() for a in [prefix] + arrays] == kept


# ---------------------------------------------------------------------------
# row-selected forward
# ---------------------------------------------------------------------------


def selected_rows(m, tokens, rows):
    """The no-grad forward's logits at ``rows`` only."""
    with T.no_grad():
        return m.forward(tokens, rows=rows).data


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
        selected = selected_rows(m, ids, (rows + 8 * batch).reshape(-1))
        assert selected.shape == (rows.size, 12)
        np.testing.assert_allclose(selected, full[batch, rows].reshape(-1, 12), rtol=0, atol=1e-12)
    one_per_sequence = selected_rows(m, ids, [5, 10, 16])
    assert one_per_sequence.shape == (3, 12)
    np.testing.assert_allclose(one_per_sequence, full[batch[:, 0], [5, 2, 0]], rtol=0, atol=1e-12)
    single = m.logits(ids[0])
    for rows in ([6], [5, 0, 5], list(range(8))[::-1]):
        np.testing.assert_allclose(selected_rows(m, ids[0], rows), single[rows], rtol=0, atol=1e-12)
    # rows of the (3 * 8) batch: ragged across sequences, every non-[PAD]
    # row (skipping the tail of sequence 1), sequence 0 alone, none
    for rows in ([0, 7, 9, 12, 23], np.flatnonzero(ids != PAD_ID), np.arange(8), np.array([], dtype=int)):
        selected = selected_rows(m, ids, rows)
        assert selected.shape == (len(rows), 12)
        np.testing.assert_allclose(selected, full.reshape(-1, 12)[rows], rtol=0, atol=1e-12)


#: (sequences, rows of the flattened batch, queries per sequence the last block
#: runs): r rows per sequence in sequence order are gathered before the queries,
#: any other layout after the attention context, with all 8 queries run
ROW_LAYOUTS = {
    "rectangular r=1": (3, [2, 13, 17], 1),
    "rectangular r=3": (3, [0, 7, 3, 12, 9, 9, 18, 22, 21], 3),
    "rectangular r=8": (3, list(range(24)), 8),
    "one sequence, unsorted and repeated": (1, [5, 0, 5, 7, 2], 5),
    "ragged": (3, [0, 7, 9, 12, 23], 8),
    "a sequence with no rows": (3, [1, 4, 17], 8),
    "sequences out of order": (3, [16, 8, 0], 8),
    "sequences out of order, rectangular counts": (3, [8, 9, 0, 1, 16, 17], 8),
    "no rows at all": (3, [], 0),
}


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
@pytest.mark.parametrize("recording", [False, True])
@pytest.mark.parametrize("layout", ROW_LAYOUTS)
def test_every_row_layout_matches_the_full_forward(layout, recording, mode, positional, monkeypatch):
    """Each selected row equals the full forward's row, and the layout alone
    picks whether the last block runs its queries on r rows per sequence or on all n."""
    m = tiny_model(seed=25, attention_mode=mode, positional_kind=positional)
    if positional == "relative":
        m.params["rel_bias"].data *= 50.0
    sequences, rows, queries = ROW_LAYOUTS[layout]
    ids = np.random.default_rng(26).integers(3, 12, size=(3, 8))[:sequences]
    ids[-1, 6:] = PAD_ID
    full = m.logits(ids).reshape(-1, 12)
    shapes, split = [], model_mod._split_heads
    monkeypatch.setattr(model_mod, "_split_heads", lambda ops, y, heads: shapes.append(y.shape) or split(ops, y, heads))
    with nullcontext() if recording else T.no_grad():
        selected = m.forward(ids, rows=rows)
    assert selected.requires_grad == recording
    assert selected.shape == (len(rows), 12)
    np.testing.assert_allclose(selected.data, full[rows], rtol=0, atol=1e-12)
    assert shapes[-1] == (sequences, queries, 16)  # the last block's queries


def test_rows_must_fit_the_tokens():
    m = tiny_model(seed=13)
    ids = np.full((2, 4), 3)
    with pytest.raises(ValueError, match="outside the 8 positions of the batch"):
        selected_rows(m, ids, [0, 8])
    with pytest.raises(ValueError, match="outside the 4 positions"):
        selected_rows(m, ids[0], [4])
    with pytest.raises(ValueError, match="outside"):
        selected_rows(m, ids[0], [-1])
    with pytest.raises(ValueError, match="outside"):
        selected_rows(m, ids, [3, -1])
    for rows in ([[0], [4]], [[0]], [[[1]]], 3):
        with pytest.raises(ValueError, match="one-dimensional"):
            selected_rows(m, ids, rows)
    assert selected_rows(m, ids, [0, 1, 2]).shape == (3, 12)  # three rows of sequence 0 fit a batch of 2


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_sliced_logits_have_the_bits_of_one_forward(mode, positional, monkeypatch):
    """Slices of 1, 2 and 3 sequences give the bits of one forward of the
    whole batch, with [PAD] tails, and no forward gets more sequences than
    the slice size. Sliced row scoring is ``_batched_nll``'s, tested with it."""
    m = tiny_model(seed=14, attention_mode=mode, positional_kind=positional)
    ids = np.random.default_rng(6).integers(3, 12, size=(7, 8))
    for b, width in enumerate([3, 8, 2, 5, 1, 8, 4]):
        ids[b, width:] = PAD_ID
    with T.no_grad():
        whole = m.forward(ids).data
    forward, sizes = m.forward, []

    def spy(tokens, **kwargs):
        sizes.append(len(tokens))
        return forward(tokens, **kwargs)

    monkeypatch.setattr(m, "forward", spy)
    for size in (1, 2, 3):
        monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width, workers: size)
        sizes.clear()
        np.testing.assert_array_equal(m.logits(ids), whole)
        assert sizes == [size] * (7 // size) + [7 % size] * (7 % size > 0)


# ---------------------------------------------------------------------------
# no-grad slices on worker threads
# ---------------------------------------------------------------------------


def _padded_batch(seed: int) -> np.ndarray:
    ids = np.random.default_rng(seed).integers(3, 12, size=(7, 8))
    for b, width in enumerate([3, 8, 2, 5, 1, 8, 4]):
        ids[b, width:] = PAD_ID
    return ids


class _ForwardSpy:
    """Wraps ``model.forward``: records each call's thread and batch size,
    runs ``hold()`` before each call (by default a pause, so that a second
    thread gets slices too), and counts calls that have not returned yet."""

    def __init__(self, model, monkeypatch, hold=lambda: time.sleep(0.01)):
        self.forward, self.hold = model.forward, hold
        self.threads, self.sizes, self.running, self.lock = set(), [], 0, threading.Lock()
        monkeypatch.setattr(model, "forward", self)

    def __call__(self, tokens, **kwargs):
        with self.lock:
            self.threads.add(threading.get_ident())
            self.sizes.append(len(tokens))
            self.running += 1
        try:
            self.hold()
            return self.forward(tokens, **kwargs)
        finally:
            with self.lock:
                self.running -= 1


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_two_workers_give_the_logits_of_one_bit_for_bit(mode, positional, monkeypatch):
    """Two workers split the call's budget, so slices of 2 sequences run on
    two threads where one worker runs slices of 4; both give the bits of one
    unsliced forward, on the logits and on ``_batched_nll``'s rows (B,)."""
    m = tiny_model(seed=17, attention_mode=mode, positional_kind=positional)
    ids = _padded_batch(7)
    cases = [lambda: m.logits(ids), lambda: _batched_nll(m, ids, ids, rows=np.array([0, 5, 1, 2, 0, 3, 2]))]
    monkeypatch.setattr(model_mod, "_workers", lambda sequences: 1)
    whole = [case() for case in cases]
    # 4 sequences of width 8 fit, at 8 * 8 * intermediate_size bytes each
    monkeypatch.setattr(model_mod, "_SLICE_BYTES", 4 * 8 * 8 * m.config.intermediate_size)
    spy = _ForwardSpy(m, monkeypatch)
    for workers, size in ((1, 4), (2, 2)):
        monkeypatch.setattr(model_mod, "_workers", lambda sequences: min(workers, sequences))
        spy.threads.clear()
        spy.sizes.clear()
        for case, expected in zip(cases, whole):
            np.testing.assert_array_equal(case(), expected)
        assert sorted(spy.sizes) == sorted(([size] * (7 // size) + [7 % size]) * 2)
        assert len(spy.threads) == workers


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_the_no_grad_path_writes_no_array_the_caller_can_see(mode, positional, monkeypatch):
    """The in-place array kernels get only temporaries: every no-grad entry
    point leaves the tokens, rows, parameter arrays and cached keys and values
    it was handed as they were, and gives the same bits when run again."""
    m = tiny_model(seed=18, attention_mode=mode, positional_kind=positional, dropout_rate=0.2)
    ids = _padded_batch(9)
    rng = np.random.default_rng(10)
    rows, ragged = np.array([0, 5, 1, 2, 0, 3, 2]), np.array([0, 9, 17, 30, 55])
    table = (np.stack([rng.permutation(8)[:3] for _ in range(7)]) + 8 * np.arange(7)[:, None]).reshape(-1)
    arrays = [t.data for t in m.params.values()]
    given = [ids, rows, table, ragged] + arrays
    kept = [a.copy() for a in given]
    monkeypatch.setattr(model_mod, "_SLICE_BYTES", 4 * 8 * 8 * m.config.intermediate_size)

    def scores():
        out = []
        for workers in (1, 2):
            monkeypatch.setattr(model_mod, "_workers", lambda parts: min(workers, parts))
            out += [m.logits(ids), _batched_nll(m, ids, ids, rows=rows)]
        with T.no_grad():
            out.append(m.forward(ids, rows=table).data)
            out.append(m.forward(ids, rows=ragged).data)
            out.append(m.forward(ids, rng=np.random.default_rng(11)).data)
        if m.is_causal:
            _, cache = m.forward_incremental(ids[1, :3])
            earlier = [a[:3].copy() for layer in cache.layers for a in layer[-4:-2]]  # key and value rows
            out.append(m.forward_incremental(ids[1], cache)[0])
            for now, before in zip([a[:3] for layer in cache.layers for a in layer[-4:-2]], earlier):
                np.testing.assert_array_equal(now, before)
        else:
            seq, _ = generate(m, GenerationConstraints(8, {2: 5}), GenerationOrder.random([0, 1, 3, 4, 5, 6, 7],
                              np.random.default_rng(12)), SamplerSpec("top_k", 0.8, 3), np.random.default_rng(13))
            out.append(seq)
        return out

    first = scores()
    for again, expected in zip(scores(), first):
        np.testing.assert_array_equal(again, expected)
    assert all(a is t.data for a, t in zip(arrays, m.params.values()))
    for now, before in zip(given, kept):
        np.testing.assert_array_equal(now, before)


def test_only_forwards_with_large_arrays_run_on_scratch_ops():
    cfg = TransformerConfig(vocab_size=60)  # 64 positions, 4 heads, 256 FFN units
    assert model_mod._array_ops(cfg, 4 * 64, 64) is T.scratch_ops  # a 4 x 64 slice: 512 KiB scores
    assert model_mod._array_ops(cfg, 1, 64) is T.array_ops  # a cached decode step: 2 KiB at most


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_results_the_caller_holds_outlive_later_no_grad_calls(mode, positional, monkeypatch):
    """With every array the array ops make taken from scratch buffers, logits
    the caller still holds keep their values through later forwards on one and
    two workers, with the bits of forwards that allocate every array afresh."""
    m = tiny_model(seed=24, attention_mode=mode, positional_kind=positional, dropout_rate=0.2)
    ids = _padded_batch(15)
    monkeypatch.setattr(model_mod, "_SLICE_BYTES", 4 * 8 * 8 * m.config.intermediate_size)

    def calls():
        out = []
        for workers in (1, 2):
            monkeypatch.setattr(model_mod, "_workers", lambda parts: min(workers, parts))
            out += [m.logits(ids), _batched_nll(m, ids[::-1], ids[::-1], rows=np.arange(7) % 8)]
        with T.no_grad():
            out.append(m.forward(ids, rows=np.array([0, 9, 17, 30, 55])).data)
            out.append(m.forward(ids, rng=np.random.default_rng(16)).data)
        if m.is_causal:
            row, cache = m.forward_incremental(ids[1, :4])
            out += [row, m.forward_incremental(ids[1], cache)[0]]
        return out

    fresh = calls()
    monkeypatch.setattr(T, "_SCRATCH_BYTES", 8)
    held = calls()
    again = calls()
    assert len(held) == len(fresh)
    for a, b, expected in zip(held, again, fresh):
        np.testing.assert_array_equal(a, expected)
        np.testing.assert_array_equal(b, expected)


def test_eight_workers_on_fast_thread_switches_run_each_slice_once(monkeypatch):
    """More workers than cores, switching threads every microsecond: every
    slice runs exactly once and the logits keep the bits of one thread, also
    with every array in scratch buffers and every earlier result still held."""
    m = tiny_model(seed=22, positional_kind="relative")
    ids = np.random.default_rng(11).integers(3, 12, size=(64, 8))
    expected = m.logits(ids)
    monkeypatch.setattr(model_mod, "_CPUS", 8)
    monkeypatch.setattr(model_mod, "_workers", lambda sequences: 8)
    monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width, workers: 1)
    spy = _ForwardSpy(m, monkeypatch, hold=lambda: None)
    model_mod._pool.cache_clear()  # a pool of 7 threads for this test only
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        held = []
        for scratch_bytes in (T._SCRATCH_BYTES, 8):
            monkeypatch.setattr(T, "_SCRATCH_BYTES", scratch_bytes)
            for _ in range(5):
                spy.sizes.clear()
                held.append(m.logits(ids))
                assert spy.sizes == [1] * 64
        for logits in held:
            np.testing.assert_array_equal(logits, expected)
    finally:
        sys.setswitchinterval(interval)
        model_mod._pool().shutdown(wait=True)
        model_mod._pool.cache_clear()
    assert len(spy.threads) > 2


def test_workers_follow_the_blas_thread_variables(monkeypatch):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(model_mod, "_CPUS", 2)
    assert model_mod._workers(64) == 1  # unpinned: BLAS threads already use the cores
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert [model_mod._workers(n) for n in (1, 2, 64)] == [1, 2, 2]
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert model_mod._workers(64) == 1
    for name in names:
        monkeypatch.setenv(name, "1")
    assert model_mod._workers(64) == 2
    monkeypatch.setattr(model_mod, "_CPUS", 1)
    assert model_mod._workers(64) == 1


def test_a_failing_slice_raises_the_first_error_once_every_slice_is_done(monkeypatch):
    """Bad ids in the first two of four slices, run at once on two threads:
    the pool thread's slice ends 0.1 s after the calling thread's. The error is
    the one a single thread meets first, raised once both forwards returned,
    and no slice starts after a failure."""
    m = tiny_model(seed=18)
    ids = np.full((8, 8), 3)
    ids[1, 2], ids[3, 4] = 40, 41
    monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width, workers: 2)
    monkeypatch.setattr(model_mod, "_workers", lambda sequences: 1)
    with pytest.raises(ValueError) as one:
        m.logits(ids)
    assert "token id 40 at position 2" in str(one.value)
    monkeypatch.setattr(model_mod, "_workers", lambda sequences: 2)
    together = threading.Barrier(2, timeout=30)

    def hold():
        together.wait()
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.1)

    spy = _ForwardSpy(m, monkeypatch, hold)
    with pytest.raises(ValueError) as two:
        m.logits(ids)
    assert str(two.value) == str(one.value)
    assert spy.running == 0 and len(spy.threads) == 2 and spy.sizes == [2, 2]


def test_map_runs_each_part_in_the_callers_grad_mode_and_error_state():
    """A pool thread starts recording a graph and warning on invalid values;
    the part it takes runs as the caller's does, in either setting."""
    together = threading.Barrier(2, timeout=30)

    def part(i):
        together.wait()
        return threading.get_ident(), T.grad_enabled(), np.geterr()["invalid"]

    with T.no_grad(), np.errstate(invalid="ignore"):
        quiet = model_mod._map(part, 2, 2)
    loud = model_mod._map(part, 2, 2)
    assert len({ident for ident, _, _ in quiet}) == 2 and len({ident for ident, _, _ in loud}) == 2
    assert [mode for _, *mode in quiet] == [[False, "ignore"]] * 2
    assert [mode for _, *mode in loud] == [[True, "warn"]] * 2


def test_a_map_inside_a_slice_completes(monkeypatch):
    """An inner map on a pool thread may submit to a pool with no free thread;
    its caller drains every part itself and cancels a submission that has not
    started. Each outer part gets its inner results in order. The wait is
    bounded, so a deadlock fails."""
    monkeypatch.setattr(model_mod, "_workers", lambda sequences: 2)
    monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width, workers: 1)
    cfg = tiny_config()

    def outer(sl):
        time.sleep(0.01)
        return threading.get_ident(), model_mod._map_slices(lambda inner: (sl.start, inner.start), cfg, 3, 8)

    result = []
    runner = threading.Thread(target=lambda: result.append(model_mod._map_slices(outer, cfg, 4, 8)), daemon=True)
    runner.start()
    runner.join(timeout=60)
    if runner.is_alive():  # free the stuck pool thread, so the suite can still exit
        model_mod._pool().shutdown(wait=False, cancel_futures=True)
        model_mod._pool.cache_clear()
        pytest.fail("nested map deadlocked")
    (slices,) = result
    assert len({ident for ident, _ in slices}) == 2
    assert [inner for _, inner in slices] == [[(s, 0), (s, 1), (s, 2)] for s in range(4)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_scores_on_its_own_pool(monkeypatch):
    """The parent's pool threads do not exist in a forked child; without a new
    pool the child's first two-worker call would wait forever."""
    m = tiny_model(seed=19)
    ids = _padded_batch(9)
    monkeypatch.setattr(model_mod, "_workers", lambda sequences: 2)
    monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width, workers: 2)
    expected = m.logits(ids)  # starts the parent's pool thread
    parent_pool = model_mod._pool()
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = model_mod._pool() is not parent_pool and np.array_equal(m.logits(ids), expected)
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish scoring")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_no_grad_is_per_thread():
    """A forward in this thread records its graph while another thread is
    inside no_grad around its own scoring, and this thread's no_grad leaves
    the other thread recording once it has left its own."""
    m = tiny_model(seed=20)
    ids = _padded_batch(10)
    inside, recorded, main_inside, left = (threading.Event() for _ in range(4))
    seen = {}

    def score():
        with T.no_grad():
            inside.set()
            recorded.wait(timeout=30)
            seen["inside"], seen["logits"] = T.grad_enabled(), m.logits(ids)
        main_inside.wait(timeout=30)
        seen["after"] = T.grad_enabled()
        left.set()

    scorer = threading.Thread(target=score, daemon=True)
    scorer.start()
    assert inside.wait(timeout=30)
    out = m.forward(ids)
    assert T.grad_enabled() and out.requires_grad and out._vjp is not None
    recorded.set()
    with T.no_grad():
        main_inside.set()
        assert left.wait(timeout=30)
        assert not T.grad_enabled()
    scorer.join(timeout=30)
    assert not scorer.is_alive()
    assert T.grad_enabled() and seen["inside"] is False and seen["after"] is True
    np.testing.assert_array_equal(seen["logits"], out.data)


# ---------------------------------------------------------------------------
# relative positional bias
# ---------------------------------------------------------------------------


def test_relative_bias_diagonal_is_shared():
    table = Tensor(np.random.default_rng(4).normal(size=(9, 2)))
    bias = relative_attention_bias(table, 5).data
    for h in range(2):
        np.testing.assert_array_equal(np.diag(bias[h]), np.full(5, bias[h, 0, 0]))


@pytest.mark.parametrize("rows", [3, 5, 7, 9])
def test_relative_bias_clamps_long_distances(rows):
    window = rows // 2
    n = window + 3
    table = Tensor(np.random.default_rng(5).normal(size=(rows, 2)))
    bias = relative_attention_bias(table, n).data
    # offsets past +-window read the table's last or first row
    for j in range(n):
        np.testing.assert_array_equal(bias[:, 0, j], table.data[min(j, window) + window])
        np.testing.assert_array_equal(bias[:, n - 1, j], table.data[max(j - n + 1, -window) + window])


def test_relative_bias_translation_invariant_interior():
    table = Tensor(np.random.default_rng(6).normal(size=(7, 3)))
    bias = relative_attention_bias(table, 6).data
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
    with pytest.raises(ValueError, match="^heads must be positive, got 0$"):
        TransformerConfig(vocab_size=10, heads=0)
    with pytest.raises(ValueError, match="^hidden_size must be positive, got 0$"):
        TransformerConfig(vocab_size=10, hidden_size=0)
    for width in (0, -1):
        with pytest.raises(ValueError, match=f"^intermediate_size must be positive, got {width}$"):
            TransformerConfig(vocab_size=10, intermediate_size=width)
    with pytest.raises(ValueError, match="^layers must be positive, got 0$"):  # the first field at fault
        TransformerConfig(vocab_size=10, layers=0, heads=0)


def test_transformer_rejects_wrong_parameter_names():
    cfg = tiny_config()
    m = tiny_model()
    params = dict(m.params)
    params.pop("out.b")
    with pytest.raises(ValueError, match="out.b"):
        Transformer(cfg, params)
