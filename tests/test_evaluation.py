"""Perplexity protocols against hand enumeration and cross-module identities,
plus the latency benchmark contract."""

import dataclasses
import math
import threading

import numpy as np
import pytest
from scipy.special import log_softmax as sp_log_softmax

import pmlm.evaluation as evaluation_mod
import pmlm.model as model_mod
from pmlm import tensor as T
from pmlm.data import Corpus, MASK_ID, PAD_ID, Vocabulary
from pmlm.evaluation import (
    _batched_nll,
    _generate_causal_cached,
    bench_latency,
    ppl_bidirectional,
    ppl_causal,
    render_latency_table,
    render_ppl_table,
    score_sequence_bidirectional,
)
from pmlm.generation import EXCLUDED_CANDIDATES, SamplerSpec
from pmlm.model import Transformer, _slice_size
from pmlm.objectives import ar_loss, conditional_log_probs
from pmlm.training import preset

from helpers import tiny_model, uniform_output_model


def make_corpus(sequences, max_len=None):
    vocab = Vocabulary(["[PAD]", "[MASK]", "[UNK]"] + [chr(ord("a") + i) for i in range(9)])
    seqs = [np.asarray(s, dtype=np.int64) for s in sequences]
    return Corpus(sequences=seqs, vocab=vocab, tokenizer_kind="char", split="test",
                  max_len=max_len or max(len(s) for s in seqs))


def test_uniform_model_ppl_is_vocab_size_both_modes():
    m = uniform_output_model(seed=0)
    corpus = make_corpus([[3, 4, 5, 6], [7, 8, 9, 3]])
    for mode in ("sequential", "random"):
        report = ppl_bidirectional(m, corpus, mode, seed=1)
        np.testing.assert_allclose(report.ppl, 12.0, rtol=1e-12)
        assert report.token_count == 8


def test_uniform_model_causal_ppl_is_vocab_size():
    m = uniform_output_model(seed=1, attention_mode="causal")
    corpus = make_corpus([[3, 4, 5]])
    np.testing.assert_allclose(ppl_causal(m, corpus).ppl, 12.0, rtol=1e-12)


def test_single_token_sequences_make_modes_agree():
    m = tiny_model(seed=2)
    corpus = make_corpus([[5], [7], [9]])
    seq = ppl_bidirectional(m, corpus, "sequential", seed=3)
    rnd = ppl_bidirectional(m, corpus, "random", seed=3)
    np.testing.assert_allclose(seq.ppl, rnd.ppl, rtol=0, atol=1e-12)


def test_random_mode_matches_hand_enumerated_conditionals():
    """Recompute the drawn order from its (seed, index) stream and score each
    step with an independent masked forward."""
    m = tiny_model(seed=3)
    x = np.array([3, 8, 5])
    corpus = make_corpus([x])
    report = ppl_bidirectional(m, corpus, "random", seed=7)
    order = np.random.default_rng([7, 0]).permutation(np.array([0, 1, 2]))
    total = 0.0
    for t in range(3):
        inp = x.copy()
        inp[order[t:]] = MASK_ID
        logits = m.logits(inp)
        total += -sp_log_softmax(logits[order[t]])[x[order[t]]]
    np.testing.assert_allclose(report.ppl, math.exp(total / 3), rtol=0, atol=1e-10)


def test_sequential_mode_matches_objectives_conditionals():
    m = tiny_model(seed=4)
    x = np.array([3, 4, 5, 6, 7])
    corpus = make_corpus([x])
    report = ppl_bidirectional(m, corpus, "sequential", seed=0)
    total = 0.0
    for t in range(5):
        total += -conditional_log_probs(m, x, list(range(t, 5)))[0]
    np.testing.assert_allclose(report.ppl, math.exp(total / 5), rtol=0, atol=1e-10)


def test_causal_ppl_equals_exp_ar_loss():
    m = tiny_model(seed=5, attention_mode="causal")
    x = np.array([3, 9, 4, 6])
    report = ppl_causal(m, make_corpus([x]))
    np.testing.assert_allclose(report.ppl, math.exp(ar_loss(m, x).value), rtol=0, atol=1e-12)


def test_causal_rejects_random_mode():
    m = tiny_model(seed=6, attention_mode="causal")
    with pytest.raises(ValueError, match="unsupported|cannot"):
        ppl_causal(m, make_corpus([[3, 4]]), mode="random")
    with pytest.raises(ValueError, match="no scorable tokens"):
        ppl_causal(m, make_corpus([[PAD_ID, PAD_ID], [PAD_ID]]))


def test_bidirectional_rejects_causal_model_and_bad_mode():
    with pytest.raises(ValueError, match="bidirectional"):
        ppl_bidirectional(tiny_model(attention_mode="causal"), make_corpus([[3]]), "sequential")
    with pytest.raises(ValueError, match="mode"):
        ppl_bidirectional(tiny_model(), make_corpus([[3]]), "shuffled")
    for mode in ("sequential", "random"):
        with pytest.raises(ValueError, match="no scorable tokens"):
            ppl_bidirectional(tiny_model(), make_corpus([[PAD_ID, PAD_ID], [PAD_ID]]), mode)


def test_padding_never_changes_ppl():
    """Trailing [PAD] is not scored, and an all-[PAD] sequence is skipped."""
    m = tiny_model(seed=7)
    plain = make_corpus([[3, 4, 5]])
    padded = make_corpus([[3, 4, 5, PAD_ID, PAD_ID], [PAD_ID] * 5])
    for mode in ("sequential", "random"):
        a = ppl_bidirectional(m, plain, mode, seed=5)
        b = ppl_bidirectional(m, padded, mode, seed=5)
        assert a.token_count == b.token_count == 3
        assert [entry["index"] for entry in b.per_sequence] == [0]
        np.testing.assert_allclose(a.ppl, b.ppl, rtol=0, atol=1e-12)
    mc = tiny_model(seed=7, attention_mode="causal")
    c = ppl_causal(mc, padded)
    assert c.token_count == 3 and [entry["index"] for entry in c.per_sequence] == [0]
    np.testing.assert_allclose(ppl_causal(mc, plain).ppl, c.ppl, rtol=0, atol=1e-12)


@pytest.mark.parametrize("chunk", [128, 4])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_one_row_per_snapshot_matches_the_full_forward(positional, chunk, monkeypatch):
    """Scoring reads one logit row per snapshot; a full forward of every
    snapshot gives the same total, whether or not the snapshots are sliced."""
    monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width, workers: chunk)
    m = tiny_model(seed=10, positional_kind=positional)
    ids = np.array([3, 8, 5, 11, 4, PAD_ID, 7, PAD_ID])
    order = np.array([6, 2, 0, 4, 1, 3])
    total, count = score_sequence_bidirectional(m, ids, order)
    snapshots = np.tile(ids, (6, 1))
    for t in range(6):
        snapshots[t, order[t:]] = MASK_ID
    logits = m.logits(snapshots)
    expected = -sum(sp_log_softmax(logits[t, order[t]])[ids[order[t]]] for t in range(6))
    assert count == 6
    np.testing.assert_allclose(total, expected, rtol=1e-12, atol=0)


def test_trimming_the_padded_tail_keeps_ppl(monkeypatch):
    seqs = [
        [3, 4, 5, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
        [6, 7, PAD_ID, 8, 9, PAD_ID, PAD_ID, PAD_ID],
        [4, 4, 10, 11, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
        [5, 3, 6, 7, 8, PAD_ID, 9, PAD_ID],
    ]
    corpus = make_corpus(seqs)
    m = tiny_model(seed=9)
    mc = tiny_model(seed=9, attention_mode="causal")

    def scores():
        return [
            ppl_bidirectional(m, corpus, "sequential", seed=3).ppl,
            ppl_bidirectional(m, corpus, "random", seed=3).ppl,
            ppl_causal(mc, corpus).ppl,
        ]

    trimmed = scores()
    monkeypatch.setattr(evaluation_mod, "used_width", lambda *batches: batches[0].shape[1])
    untrimmed = scores()
    np.testing.assert_allclose(trimmed, untrimmed, rtol=1e-12, atol=0)


@pytest.mark.parametrize("attention", ["bidirectional", "causal"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_sliced_nll_equals_one_unsliced_forward_bit_for_bit(positional, attention, monkeypatch):
    """Slices of 1, 2 and 3 sequences give the bits of one forward of the
    whole batch, on the full-row and the rows= path, though the slices'
    own used widths differ from the batch's."""
    m = tiny_model(seed=11, positional_kind=positional, attention_mode=attention)
    rng = np.random.default_rng(4)
    targets = rng.integers(3, 12, size=(7, 8))
    for b, width in enumerate([3, 8, 2, 5, 1, 6, 4]):
        targets[b, width:] = PAD_ID
    inputs = np.where(rng.random(targets.shape) < 0.3, MASK_ID, targets)
    inputs[targets == PAD_ID] = PAD_ID
    rows = np.array([0, 5, 1, 2, 0, 3, 2])
    full = T.cross_entropy_rows(T.Tensor(m.logits(inputs)), targets).data
    picked = T.cross_entropy_rows(T.Tensor(m.logits(inputs, rows=rows)), targets[np.arange(7), rows]).data
    scored = targets != PAD_ID
    for size in (1, 2, 3):
        monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width, workers: size)
        np.testing.assert_array_equal(_batched_nll(m, inputs, targets)[scored], full[scored])
        np.testing.assert_array_equal(_batched_nll(m, inputs, targets, rows=rows), picked)


@pytest.mark.parametrize("with_rows", [False, True])
def test_batched_nll_slices_once(with_rows, monkeypatch):
    """One ``_map`` per call, and one forward per slice it cuts: the slices
    are not cut again, so no map opens inside another."""
    m = tiny_model(seed=13)
    inputs = np.random.default_rng(6).integers(3, 12, size=(7, 8))
    rows = np.arange(7) if with_rows else None
    maps, sizes, run, forward = [], [], model_mod._map, m.forward

    def map_spy(fn, count, workers):
        maps.append(count)
        return run(fn, count, workers)

    def forward_spy(tokens, **kwargs):
        sizes.append(len(tokens))
        return forward(tokens, **kwargs)

    monkeypatch.setattr(model_mod, "_map", map_spy)
    monkeypatch.setattr(m, "forward", forward_spy)
    monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width, workers: 2)
    _batched_nll(m, inputs, inputs, rows=rows)
    assert maps == [4] and sizes == [2, 2, 2, 1]


def test_reports_are_unchanged_at_one_sequence_per_slice(monkeypatch):
    seqs = [[3, 4, 5, 6, 7, 8, 9, 10], [6, 7, 8, 9, 3], [4, 4, 10, 11, 5, 3, 9, 8], [11, 3], [5, 3, 6]]
    corpus = make_corpus(seqs, max_len=8)
    m = tiny_model(seed=12)
    mc = tiny_model(seed=12, attention_mode="causal")

    def reports():
        return [ppl_bidirectional(m, corpus, "random", seed=4).to_dict(), ppl_causal(mc, corpus).to_dict()]

    whole = reports()
    monkeypatch.setattr(model_mod, "_SLICE_BYTES", 1)
    assert _slice_size(m.config, 1, 1) == 1
    assert reports() == whole


def test_reports_are_the_same_on_one_and_two_workers(monkeypatch):
    """Sequential and random bidirectional reports and causal reports compare
    equal whether one thread scores slices of 2 sequences or two threads
    score slices of 1, and the two-worker runs really use two threads."""
    seqs = [[3, 4, 5, 6, 7, 8, 9, 10], [6, 7, 8, 9, 3], [4, 4, 10, 11, 5, 3, 9, 8], [11, 3], [5, 3, 6]]
    corpus = make_corpus(seqs, max_len=8)
    m = tiny_model(seed=21)
    mc = tiny_model(seed=21, attention_mode="causal")
    # 2 sequences of width 8 fit, at 8 * 8 * intermediate_size bytes each
    monkeypatch.setattr(model_mod, "_SLICE_BYTES", 2 * 8 * 8 * m.config.intermediate_size)
    threads = set()

    def spying(forward):
        def spy(tokens, **kwargs):
            threads.add(threading.get_ident())
            return forward(tokens, **kwargs)
        return spy

    for model in (m, mc):
        monkeypatch.setattr(model, "forward", spying(model.forward))
    reports = {}
    for workers in (1, 2):
        monkeypatch.setattr(model_mod, "_workers", lambda sequences: min(workers, sequences))
        threads.clear()
        reports[workers] = [
            ppl_bidirectional(m, corpus, "sequential", seed=4).to_dict(),
            ppl_bidirectional(m, corpus, "random", seed=4).to_dict(),
            ppl_causal(mc, corpus).to_dict(),
        ]
        assert len(threads) == workers
    assert reports[1] == reports[2]


@pytest.mark.parametrize("name, sequences, forwards, workers", [
    pytest.param("upmlm", 1, 8, 1, id="upmlm-1-8"),
    pytest.param("gpt-like", 32, 4, 1, id="gpt-like-32-4"),
    pytest.param("upmlm", 1, 16, 2, id="upmlm-1-16-two-workers"),
    pytest.param("gpt-like", 32, 8, 2, id="gpt-like-32-8-two-workers"),
])
def test_preset_size_evaluation_runs_at_most_8_sequences_per_forward(name, sequences, forwards, workers, monkeypatch):
    """At preset size the rule gives one worker 8 sequences of width 64 and
    each of two workers 4, so the 64 snapshots of a random-order score and a
    32-sequence causal batch run in forwards of 8 or 4, each scored by its
    own cross-entropy on the thread that ran it."""
    vocab_size = 40
    vocab = Vocabulary(["[PAD]", "[MASK]", "[UNK]"] + [f"t{i}" for i in range(3, vocab_size)])
    seqs = list(np.random.default_rng(5).integers(3, vocab_size, size=(sequences, 64)))
    corpus = Corpus(sequences=seqs, vocab=vocab, tokenizer_kind="char", split="test", max_len=64)
    model = Transformer.init(preset(name, "", "").model_config(vocab_size), seed=0)
    size = 8 // workers
    assert _slice_size(model.config, 64, workers) == size
    monkeypatch.setattr(model_mod, "_workers", lambda n: min(workers, n))
    forward, cross_entropy, events = model.forward, T.array_ops.cross_entropy_rows, []

    def spy(tokens, **kwargs):
        events.append((threading.get_ident(), "forward", len(tokens)))
        return forward(tokens, **kwargs)

    def entropy_spy(logits, targets):
        events.append((threading.get_ident(), "cross_entropy", len(logits)))
        return cross_entropy(logits, targets)

    monkeypatch.setattr(model, "forward", spy)
    monkeypatch.setattr(T.array_ops, "cross_entropy_rows", entropy_spy)
    if model.is_causal:
        ppl_causal(model, corpus)
    else:
        ppl_bidirectional(model, corpus, "random", seed=0)
    assert len(events) == 2 * forwards
    for thread in {ident for ident, _, _ in events}:
        mine = [(kind, n) for ident, kind, n in events if ident == thread]
        assert mine == [("forward", size), ("cross_entropy", size)] * (len(mine) // 2)


def test_slice_size_is_at_least_one_sequence():
    cfg = preset("upmlm", "", "").model_config(1 << 16)
    assert 8 * 64 * cfg.vocab_size > model_mod._SLICE_BYTES
    assert _slice_size(cfg, 64, 1) == _slice_size(cfg, 64, 2) == 1


def test_per_sequence_scores_independent_of_processing_order():
    m = tiny_model(seed=8)
    seqs = [[3, 4, 5], [6, 7, 8, 9], [4, 4]]
    full = ppl_bidirectional(m, make_corpus(seqs, max_len=4), "random", seed=11)
    for entry in full.per_sequence:
        ids = np.asarray(seqs[entry["index"]], dtype=np.int64)
        order = np.random.default_rng([11, entry["index"]]).permutation(np.arange(len(ids)))
        nll, count = score_sequence_bidirectional(m, ids, order)
        np.testing.assert_allclose(entry["nll"], nll, rtol=0, atol=1e-12)
        assert entry["token_count"] == count


def test_ppl_table_rendering_marks_missing_modes_na():
    table = render_ppl_table({"gpt-like": {"sequential": 21.23, "random": None}})
    assert "N/A" in table and "21.23" in table


# ---------------------------------------------------------------------------
# latency benchmark
# ---------------------------------------------------------------------------


def test_bench_latency_minimal_run():
    causal = tiny_model(seed=9, attention_mode="causal")
    bidir = tiny_model(seed=9)
    result = bench_latency(causal, bidir, count=1, length=1)
    assert len(result["sequences"]["causal"][0]) == 1
    assert len(result["sequences"]["bidirectional"][0]) == 1
    assert result["reports"][0]["seconds"] > 0
    assert result["reports"][1]["seconds"] > 0
    table = render_latency_table(result)
    assert "Cost Time" in table and "1.20" in table


@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_greedy_cached_decode_follows_the_full_forward_at_preset_size(positional, monkeypatch):
    """64 greedy cached steps of a preset-size causal model: each step's row is
    the full forward's row within 1e-9, and each token is its argmax."""
    cfg = dataclasses.replace(preset("gpt-like", "", "").model_config(40), positional_kind=positional)
    model = Transformer.init(cfg, seed=3)
    incremental, steps = model.forward_incremental, []

    def spy(prefix, cache=None):
        row, cache = incremental(prefix, cache)
        steps.append((prefix.copy(), row))
        return row, cache

    monkeypatch.setattr(model, "forward_incremental", spy)
    tokens = _generate_causal_cached(model, 64, SamplerSpec(), np.random.default_rng(0))
    prefix = np.concatenate([[MASK_ID], tokens[:-1]])
    full = model.logits(prefix)
    assert len(steps) == 64
    for t, (seen, row) in enumerate(steps):
        np.testing.assert_array_equal(seen, prefix[: t + 1])
        assert np.abs(row - full[t]).max() <= 1e-9
        allowed = full[t].copy()
        allowed[list(EXCLUDED_CANDIDATES)] = -np.inf
        assert tokens[t] == np.argmax(allowed)


def test_cached_decode_rejects_a_length_outside_the_model_before_decoding(monkeypatch):
    model = tiny_model(seed=12, attention_mode="causal")  # max_len 8
    steps = []
    monkeypatch.setattr(model, "forward_incremental", lambda *args: steps.append(args))
    for length, message in ((0, "target_length must be >= 1"), (-1, "target_length must be >= 1"),
                            (9, "target_length 9 exceeds model max_len 8")):
        with pytest.raises(ValueError, match=message):
            _generate_causal_cached(model, length, SamplerSpec(), np.random.default_rng(0))
    assert steps == []
    monkeypatch.undo()
    assert len(_generate_causal_cached(model, 8, SamplerSpec(), np.random.default_rng(0))) == 8


def test_bench_latency_requires_matching_sizes_and_modes():
    causal = tiny_model(seed=10, attention_mode="causal")
    small = tiny_model(seed=10, hidden_size=8, heads=2)
    with pytest.raises(ValueError, match="identical size"):
        bench_latency(causal, small, count=1, length=2)
    with pytest.raises(ValueError, match="one causal"):
        bench_latency(tiny_model(), tiny_model(), count=1, length=2)
    bidir = tiny_model(seed=10)  # max_len 8
    with pytest.raises(ValueError, match="length 9 exceeds model max_len"):
        bench_latency(causal, bidir, count=1, length=9)
    for count, length in ((0, 2), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="count and length must be positive"):
            bench_latency(causal, bidir, count=count, length=length)


def test_bench_latency_outputs_are_seeded():
    causal = tiny_model(seed=11, attention_mode="causal")
    bidir = tiny_model(seed=11)
    a = bench_latency(causal, bidir, count=2, length=6, seed=3)
    b = bench_latency(causal, bidir, count=2, length=6, seed=3)
    assert a["sequences"] == b["sequences"]
