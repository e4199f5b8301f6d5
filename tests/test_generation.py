"""Arbitrary-order generation: the trace protocol, anchor preservation,
sampler behavior, and replay determinism."""

import math
import re
import warnings

import numpy as np
import pytest

from pmlm import tensor as T
from pmlm.data import MASK_ID, PAD_ID, UNK_ID
from pmlm.generation import (
    EXCLUDED_CANDIDATES,
    GenerationConstraints,
    GenerationOrder,
    SamplerSpec,
    TraceStep,
    generate,
    generate_left_to_right,
    replay_trace,
    sample_token,
)
from pmlm.model import Transformer, TransformerConfig, parameter_shapes, relative_attention_bias

from helpers import tiny_model

GREEDY = SamplerSpec()


def test_eight_step_random_order_trace_structure():
    # order 3->7->1->2->4->6->5->8 in 1-based positions
    m = tiny_model(seed=0)
    order = GenerationOrder.explicit([2, 6, 0, 1, 3, 5, 4, 7])
    constraints = GenerationConstraints(target_length=8)
    seq, trace = generate(m, constraints, order, GREEDY)
    assert [s.position for s in trace.steps] == [2, 6, 0, 1, 3, 5, 4, 7]
    for t, step in enumerate(trace.steps):
        revealed = sum(1 for tok in step.snapshot if tok != MASK_ID)
        assert revealed == t + 1
    assert not np.any(seq == MASK_ID)
    assert trace.steps[-1].snapshot == tuple(int(t) for t in seq)


def test_single_position_greedy_is_argmax_of_blank_forward():
    m = tiny_model(seed=1)
    logits = m.logits(np.array([MASK_ID]))[0].copy()
    logits[[PAD_ID, MASK_ID, UNK_ID]] = -np.inf
    seq, _ = generate(m, GenerationConstraints(target_length=1), GenerationOrder.explicit([0]), GREEDY)
    assert seq[0] == int(np.argmax(logits))


@pytest.mark.parametrize("positional", ["absolute", "relative"])
def test_greedy_generation_matches_a_full_forward_loop(positional):
    m = tiny_model(seed=5, positional_kind=positional)
    constraints = GenerationConstraints(target_length=8, anchors={2: 7, 5: 4})
    order = GenerationOrder.explicit([6, 0, 7, 3, 1, 4])
    seq, _ = generate(m, constraints, order, GREEDY)
    expected = np.array([MASK_ID, MASK_ID, 7, MASK_ID, MASK_ID, 4, MASK_ID, MASK_ID])
    for pos in order.sigma:
        expected[pos] = sample_token(m.logits(expected)[pos], GREEDY)
    np.testing.assert_array_equal(seq, expected)


def test_generation_is_deterministic_for_fixed_seed():
    m = tiny_model(seed=2)
    def run():
        rng = np.random.default_rng(123)
        constraints = GenerationConstraints(target_length=8, anchors={3: 5})
        order = GenerationOrder.random(constraints.free_positions, rng)
        return generate(m, constraints, order, SamplerSpec(kind="temperature", temperature=0.8), rng)

    seq_a, trace_a = run()
    seq_b, trace_b = run()
    np.testing.assert_array_equal(seq_a, seq_b)
    assert trace_a.steps == trace_b.steps


def test_anchors_preserved_and_absent_from_order():
    m = tiny_model(seed=3)
    anchors = {0: 7, 4: 9, 7: 3}
    constraints = GenerationConstraints(target_length=8, anchors=anchors)
    rng = np.random.default_rng(5)
    order = GenerationOrder.random(constraints.free_positions, rng)
    seq, trace = generate(m, constraints, order, GREEDY, rng)
    for pos, tok in anchors.items():
        assert seq[pos] == tok
    assert len(trace.steps) == 8 - len(anchors)
    assert set(trace.order).isdisjoint(anchors)


def test_both_end_anchor_pattern():
    # opening and closing tokens fixed, middle filled left to right
    m = tiny_model(seed=4)
    constraints = GenerationConstraints(target_length=6, anchors={0: 4, 5: 8})
    order = GenerationOrder.left_to_right(constraints.free_positions)
    seq, _ = generate(m, constraints, order, GREEDY)
    assert seq[0] == 4 and seq[5] == 8
    assert not np.any(seq == MASK_ID)


def test_left_to_right_wrapper_equals_identity_order_generate():
    m = tiny_model(seed=5)
    prompt = [4, 7]
    via_wrapper = generate_left_to_right(m, prompt, 7, GREEDY)
    constraints = GenerationConstraints(target_length=7, anchors={0: 4, 1: 7})
    order = GenerationOrder.explicit(constraints.free_positions)
    via_generate, _ = generate(m, constraints, order, GREEDY)
    np.testing.assert_array_equal(via_wrapper, via_generate)


def test_left_to_right_rejects_overlong_prompt():
    with pytest.raises(ValueError, match="shorter"):
        generate_left_to_right(tiny_model(), [3, 4, 5], 3, GREEDY)


def test_order_anchor_partition_enforced():
    m = tiny_model(seed=6)
    constraints = GenerationConstraints(target_length=4, anchors={1: 5})
    with pytest.raises(ValueError, match="partition"):
        generate(m, constraints, GenerationOrder.explicit([0, 1, 2, 3]), GREEDY)
    with pytest.raises(ValueError, match="partition"):
        generate(m, constraints, GenerationOrder.explicit([0, 2]), GREEDY)
    with pytest.raises(ValueError, match="repeats"):
        GenerationOrder.explicit([0, 0, 2])


def test_generate_rejects_causal_model_and_bad_anchors():
    causal = tiny_model(attention_mode="causal")
    for constraints, sigma in (
        (GenerationConstraints(target_length=4), [1, 0, 2, 3]),  # not left to right
        (GenerationConstraints(target_length=4, anchors={1: 5}), [0, 2, 3]),  # an anchor past a free position
    ):
        with pytest.raises(ValueError, match="causal model generates only left to right"):
            generate(causal, constraints, GenerationOrder.explicit(sigma), GREEDY)
    with pytest.raises(ValueError, match="MASK"):
        GenerationConstraints(target_length=4, anchors={1: MASK_ID})
    with pytest.raises(ValueError, match="outside"):
        GenerationConstraints(target_length=4, anchors={9: 5})


def _old_generate_causal_cached(model, length, sampler, rng):
    """The causal decoder that lived beside ``generate`` before the two loops
    were one, kept verbatim as an oracle."""
    if not 0 <= length <= model.config.max_len:
        raise ValueError(f"decode length {length} outside 0..{model.config.max_len}, the model's max_len")
    seq = np.full(length + 1, MASK_ID, dtype=np.int64)  # [MASK], then the decoded tokens
    cache = None
    for t in range(length):
        logits, cache = model.forward_incremental(seq[: t + 1], cache)
        seq[t + 1] = sample_token(logits, sampler, rng)
    return seq[1:]


@pytest.mark.parametrize("positional", ["absolute", "relative"])
@pytest.mark.parametrize(
    "sampler", [GREEDY, SamplerSpec(kind="top_k", k=3), SamplerSpec(kind="temperature", temperature=0.9)],
    ids=["greedy", "top_k", "temperature"],
)
def test_causal_generate_matches_the_old_cached_decoder(positional, sampler):
    m = tiny_model(seed=13, attention_mode="causal", positional_kind=positional)  # max_len 8
    draws = 0 if sampler.kind == "greedy" else 1  # rng draws per sampled token
    for seed in range(4):
        expected = _old_generate_causal_cached(m, 8, sampler, np.random.default_rng(seed))
        constraints = GenerationConstraints(target_length=8)
        seq, trace = generate(m, constraints, GenerationOrder.left_to_right(range(8)), sampler,
                              np.random.default_rng(seed))
        np.testing.assert_array_equal(seq, expected)
        assert trace.order == tuple(range(8))
        assert [s.token for s in trace.steps] == expected.tolist()

        # a prompt of the oracle's first three tokens continues as the oracle did
        rng = np.random.default_rng(seed)
        rng.random(3 * draws)
        prompt = GenerationConstraints(8, {i: int(t) for i, t in enumerate(expected[:3])})
        seq, trace = generate(m, prompt, GenerationOrder.left_to_right(range(3, 8)), sampler, rng)
        np.testing.assert_array_equal(seq, expected)
        rng = np.random.default_rng(seed)
        rng.random(3 * draws)
        np.testing.assert_array_equal(replay_trace(m, trace, sampler, rng), expected)


def _checked_generate(model, constraints, order, sampler, rng):
    """generate's loop as it was while every step went through ``logits`` or
    ``forward_incremental``, which check the whole sequence again; kept as an
    oracle. Returns the sequence and the trace steps."""
    n = constraints.target_length
    inputs = np.full(n + 1, MASK_ID, dtype=np.int64)
    seq = inputs[1:]
    for pos, tok in constraints.anchors.items():
        seq[pos] = tok
    steps, cache = [], None
    for pos in order.sigma:
        if model.is_causal:
            row, cache = model.forward_incremental(inputs[: pos + 1], cache)
        else:
            with T.no_grad():
                row = model.forward(seq, rows=[pos]).data[0]
        token = sample_token(row, sampler, rng)
        seq[pos] = token
        steps.append(TraceStep(position=pos, token=token, snapshot=tuple(seq.tolist())))
    return seq, steps


@pytest.mark.parametrize("length", [8, 64])  # at 64 the block runs on tensor.scratch_ops
@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
@pytest.mark.parametrize(
    "sampler", [GREEDY, SamplerSpec(kind="top_k", k=3), SamplerSpec(kind="temperature", temperature=0.9)],
    ids=["greedy", "top_k", "temperature"],
)
def test_generate_matches_a_loop_through_the_checked_entry_points(length, mode, sampler):
    m = tiny_model(seed=17, attention_mode=mode, max_len=length)
    for seed in range(3):
        if mode == "causal":  # a prompt
            constraints = GenerationConstraints(length, {0: 4, 1: 7, 2: 3})
            order = GenerationOrder.left_to_right(constraints.free_positions)
        else:  # anchors, in a random order
            constraints = GenerationConstraints(length, {1: 5, length - 3: 9, length // 2: 11})
            order = GenerationOrder.random(constraints.free_positions, np.random.default_rng(seed))
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        seq, trace = generate(m, constraints, order, sampler, rng)
        expected, steps = _checked_generate(m, constraints, order, sampler, oracle)
        np.testing.assert_array_equal(seq, expected)
        assert trace.steps == steps
        assert rng.bit_generator.state == oracle.bit_generator.state


def _three_projection_extend(model, cache, ids):
    """``Transformer._extend`` as it was while each layer ran separate q, k and
    v products on the parameter arrays, kept as an oracle. Its keys and values
    live in ``cache.oracle``, made at the cache's first step."""
    cfg, p = model.config, cache.arrays
    if cache.length == 0:
        cache.oracle = []
        for i in range(cfg.layers):
            k, v = np.zeros((2, cfg.max_len, cfg.heads, cfg.head_dim))
            params = [p[name] for name in parameter_shapes(cfg) if name.startswith(f"layers.{i}.")]
            cache.oracle.append((*params, k.reshape(cfg.max_len, -1), v.reshape(cfg.max_len, -1),
                                 k.transpose(1, 2, 0), v.transpose(1, 0, 2)))
    start, n = cache.length, ids.shape[0]
    r = n - start
    queries = np.arange(start, n)
    h = p["tok_emb"][ids[start:]]
    bias = None
    if cfg.positional_kind == "absolute":
        h += p["pos_emb"][start:n]
    else:
        bias = relative_attention_bias(p["rel_bias"], n, queries=queries, ops=T.array_ops)
    if r > 1:
        future = np.where(np.arange(n) > queries[:, None], T.NEG_INF, 0.0)
        bias = future if bias is None else bias + future

    norm, scale = T.array_ops.layer_norm, 1.0 / math.sqrt(cfg.head_dim)
    for g1, b1, wq, bq, wk, bk, wv, bv, wo, bo, g2, b2, w_in, b_in, w_out, b_out, k, v, keys, values in cache.oracle:
        x = norm(h, g1, b1)
        k[start:n] = T._matmul(x, wk, bk)
        v[start:n] = T._matmul(x, wv, bv)
        e = T._matmul(x, wq, bq).reshape(r, cfg.heads, -1).transpose(1, 0, 2) @ keys[:, :, :n]
        attn = T._softmax(np.multiply(e, scale, out=e), bias)
        h += T._matmul((attn @ values[:, :n]).transpose(1, 0, 2).reshape(r, cfg.hidden_size), wo, bo)
        h += T._matmul(T._gelu(T._matmul(norm(h, g2, b2), w_in, b_in)), w_out, b_out)
    logits = T._matmul(norm(h, p["ln_f.gain"], p["ln_f.bias"]), p["out.w"], p["out.b"])
    cache.tokens[start:n] = ids[start:]
    cache.length = n
    return logits[-1]


@pytest.mark.parametrize("size", ["test", "preset", "hidden_20"])
@pytest.mark.parametrize("positional", ["absolute", "relative"])
@pytest.mark.parametrize(
    "sampler", [GREEDY, SamplerSpec(kind="top_k", k=5), SamplerSpec(kind="temperature", temperature=0.5)],
    ids=["greedy", "top_k", "temperature"],
)
def test_fused_decode_step_matches_the_three_projection_step(size, positional, sampler, monkeypatch):
    """generate over ``_extend`` and over the oracle gives the same sequence,
    trace, generator state and logit rows: bit for bit at the test and preset
    sizes, where the (hidden, 3·hidden) product has the three products' bits
    on OpenBLAS; at hidden 20 it rounds some entries differently, so there the
    rows agree within 1e-12."""
    config = dict(attention_mode="causal", positional_kind=positional, dropout_rate=0.0)
    if size == "test":
        m = tiny_model(seed=31, max_len=16, **config)
    else:
        hidden = 64 if size == "preset" else 20
        m = Transformer.init(TransformerConfig(vocab_size=60, hidden_size=hidden, intermediate_size=4 * hidden, **config), 31)
    n = m.config.max_len
    for anchors in ({}, {0: 4, 1: 7, 2: 3}):  # one-row steps only; a prompt, whose step runs four rows
        constraints = GenerationConstraints(n, anchors)
        order = GenerationOrder.left_to_right(constraints.free_positions)
        runs = []
        for step in (m._extend, lambda cache, ids: _three_projection_extend(m, cache, ids)):
            rows = []

            def recorded(cache, ids, step=step, rows=rows):
                rows.append(step(cache, ids))
                return rows[-1]

            monkeypatch.setattr(m, "_extend", recorded)
            rng = np.random.default_rng(5)
            seq, trace = generate(m, constraints, order, sampler, rng)
            runs.append((seq, trace.steps, rng.bit_generator.state, np.array(rows)))
            monkeypatch.undo()
        (seq, steps, state, rows), (want_seq, want_steps, want_state, want_rows) = runs
        np.testing.assert_array_equal(seq, want_seq)
        assert steps == want_steps and state == want_state
        assert rows.shape == (len(order.sigma), m.config.vocab_size)
        if size == "hidden_20":
            np.testing.assert_allclose(rows, want_rows, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(rows, want_rows)


@pytest.mark.parametrize(
    "mode, constraints, sigma, message",
    [
        (mode, *case)
        for mode in ("bidirectional", "causal")
        for case in (
            (GenerationConstraints(4, {0: 12}), [1, 2, 3], "anchor token 12 outside vocabulary"),
            (GenerationConstraints(9), range(9), "target_length 9 exceeds model max_len 8"),
            (GenerationConstraints(4, {0: 5}), [1, 2], "generation order and anchors must partition the positions"),
        )
    ]
    + [
        ("causal", GenerationConstraints(4, {1: 5}), [0, 2, 3],
         "a causal model generates only left to right, after anchors that form a prefix (the prompt)"),
    ],
)
def test_generate_rejects_bad_input_before_the_block_runs(monkeypatch, mode, constraints, sigma, message):
    calls = []

    def spy(name):
        original = getattr(Transformer, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(Transformer, name, wrapper)

    spy("_run")
    spy("_extend")
    m = tiny_model(attention_mode=mode)
    with pytest.raises(ValueError, match=re.escape(message)):
        generate(m, constraints, GenerationOrder.explicit(sigma), GREEDY)
    assert calls == []
    generate(m, GenerationConstraints(2), GenerationOrder.explicit([0, 1]), GREEDY)
    assert len(calls) == 2  # the spies see the block's steps


@pytest.mark.parametrize("token", [-4, 12])
def test_anchor_token_outside_the_vocabulary_is_rejected_with_no_position_left_to_fill(token):
    constraints = GenerationConstraints(target_length=3, anchors={0: token, 1: 5, 2: 6})
    with pytest.raises(ValueError, match="outside vocabulary"):
        generate(tiny_model(), constraints, GenerationOrder(()))


def test_trace_replay_reproduces_run():
    m = tiny_model(seed=7)
    constraints = GenerationConstraints(target_length=8, anchors={2: 6})
    rng = np.random.default_rng(11)
    order = GenerationOrder.random(constraints.free_positions, rng)
    seq, trace = generate(m, constraints, order, GREEDY, rng)
    np.testing.assert_array_equal(replay_trace(m, trace, GREEDY), seq)


def test_trace_replay_detects_tampering():
    m = tiny_model(seed=8)
    constraints = GenerationConstraints(target_length=4)
    order = GenerationOrder.explicit([0, 1, 2, 3])
    seq, trace = generate(m, constraints, order, GREEDY)
    bad = trace.steps[2]
    trace.steps[2] = type(bad)(
        position=bad.position, token=(bad.token % 9) + 3 if (bad.token % 9) + 3 != bad.token else 4, snapshot=bad.snapshot
    )
    with pytest.raises(ValueError, match="diverged|snapshot"):
        replay_trace(m, trace, GREEDY)


def test_trace_jsonl_round_trip_fields():
    import json

    m = tiny_model(seed=9)
    seq, trace = generate(
        m, GenerationConstraints(target_length=3), GenerationOrder.explicit([2, 0, 1]), GREEDY
    )
    lines = trace.to_jsonl().strip().split("\n")
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["step"] == 1 and first["position"] == 3
    assert len(first["snapshot_ids"]) == 3


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_greedy_argmax_and_tie_break():
    assert sample_token(np.array([0.0, 0.0, 0.0, 0.0, 5.0, 1.0]), GREEDY) == 4
    # tie: lowest id wins
    assert sample_token(np.array([0.0, 0.0, 0.0, 2.0, 2.0, 2.0]), GREEDY) == 3


def test_top_k_one_equals_greedy():
    rng = np.random.default_rng(0)
    logits = np.random.default_rng(1).normal(size=20)
    top1 = SamplerSpec(kind="top_k", k=1)
    for _ in range(10):
        assert sample_token(logits, top1, rng) == sample_token(logits, GREEDY)


def test_temperature_sampling_frequencies():
    # softmax([ln 1, ln 3]) = [0.25, 0.75]
    logits = np.array([0.0, 0.0, 0.0, math.log(1.0), math.log(3.0)])
    rng = np.random.default_rng(2)
    spec = SamplerSpec(kind="temperature", temperature=1.0)
    draws = [sample_token(logits, spec, rng) for _ in range(10_000)]
    freq = np.mean(np.array(draws) == 4)
    assert abs(freq - 0.75) < 0.02


def test_top_k_restricts_support():
    logits = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(3)
    spec = SamplerSpec(kind="top_k", k=2, temperature=1.0)
    draws = {sample_token(logits, spec, rng) for _ in range(200)}
    assert draws == {6, 7}


def test_tiny_temperature_draws_the_argmax_without_warnings():
    # logits / T overflows at T = 1e-320: the gaps to the best logit must be scaled instead
    row = np.array([0.0, 0.0, 0.0, 1.0, 5.0, 2.0])
    rng = np.random.default_rng(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (SamplerSpec("temperature", 1e-320), SamplerSpec("top_k", 1e-320, 2)):
            assert [sample_token(row, spec, rng) for _ in range(5)] == [4] * 5, spec


def _top_k_by_lexsort(logits, k, temperature, rng):
    """The top-k draw with the ranking sample_token used before: np.lexsort
    on (id, -logit), then the same renormalised draw."""
    scaled = np.where(np.isin(np.arange(len(logits)), (PAD_ID, MASK_ID, UNK_ID)), -np.inf, logits) / temperature
    ranked = np.lexsort((np.arange(len(logits)), -scaled))
    scaled[ranked[min(k, len(logits) - 3):]] = -np.inf
    candidates = np.flatnonzero(np.isfinite(scaled))
    weights = np.exp(scaled[candidates] - scaled[candidates].max())
    cdf = np.cumsum(weights / weights.sum())
    return int(candidates[min(int(np.searchsorted(cdf, rng.random(), side="right")), len(candidates) - 1)])


def test_top_k_ties_go_to_the_lower_ids():
    spec = SamplerSpec(kind="top_k", k=3, temperature=0.7)
    rng = np.random.default_rng(4)
    assert {sample_token(np.zeros(12), spec, rng) for _ in range(200)} == {3, 4, 5}
    row = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 2.0, 1.0, 0.5, 2.0, 1.0, 1.0])
    assert {sample_token(row, SamplerSpec(kind="top_k", k=4), rng) for _ in range(200)} == {4, 6, 9, 3}
    # rounded random rows tie often; the draw matches the lexsort ranking's
    rows = np.round(np.random.default_rng(5).normal(size=(200, 12)), 1)
    for seed, logits in enumerate(rows):
        k = 1 + seed % 6
        got = sample_token(logits, SamplerSpec(kind="top_k", k=k, temperature=0.8), np.random.default_rng(seed))
        assert got == _top_k_by_lexsort(logits, k, 0.8, np.random.default_rng(seed)), seed


def _sample_token_before(logit_row, sampler, rng=None):
    """sample_token as it was written first: mask a copy of the whole row,
    rank the whole row for top-k, then draw among the finite entries."""
    logits = np.asarray(logit_row, dtype=np.float64).copy()
    keep = np.ones(logits.shape[0], dtype=bool)
    keep[[PAD_ID, MASK_ID, UNK_ID]] = False
    logits[~keep] = -np.inf
    if sampler.kind == "greedy":
        return int(np.argmax(logits))
    scaled = logits / sampler.temperature
    if sampler.kind == "top_k":
        ranked = np.argsort(-scaled, kind="stable")
        scaled[ranked[min(sampler.k, int(keep.sum())):]] = -np.inf
    candidates = np.flatnonzero(np.isfinite(scaled))
    weights = np.exp(scaled[candidates] - scaled[candidates].max())
    cdf = np.cumsum(weights / weights.sum())
    return int(candidates[min(int(np.searchsorted(cdf, rng.random(), side="right")), len(candidates) - 1)])


def test_sample_token_makes_the_picks_of_the_first_implementation():
    """Same token and same generator state after every draw, on 2,000 seeded
    rows with ties, per sampler."""
    samplers = [GREEDY, SamplerSpec("temperature", 0.7), SamplerSpec("top_k", 1.0, 5), SamplerSpec("top_k", 0.9, 1),
                SamplerSpec("top_k", 1.3, 60)]
    rows = np.round(np.random.default_rng(19).normal(scale=3.0, size=(2000, 60)), 1)
    for spec in samplers:
        rng, oracle = np.random.default_rng(20), np.random.default_rng(20)
        for i, row in enumerate(rows):
            assert sample_token(row, spec, rng) == _sample_token_before(row, spec, oracle), (spec, i)
            assert rng.bit_generator.state == oracle.bit_generator.state


def _sample_token_over_candidates(logit_row, sampler, rng=None):
    """sample_token as it was while it gathered a copy of the candidate logits
    through an id array of ``0..size-1`` less ``EXCLUDED_CANDIDATES``, kept as an oracle."""
    logits = np.asarray(logit_row, dtype=np.float64)
    ids = np.setdiff1d(np.arange(logits.shape[0]), EXCLUDED_CANDIDATES)
    if not ids.size:
        raise ValueError("sample_token: every candidate token is excluded")
    logits = logits[ids]
    if sampler.kind == "greedy":
        return int(ids[logits.argmax()])
    if sampler.kind == "top_k" and sampler.k < ids.size:
        best = (-logits).argsort(kind="stable")[: sampler.k]
        best.sort()
        ids, logits = ids[best], logits[best]
    with np.errstate(over="ignore"):
        scaled = (logits - logits.max()) / sampler.temperature
    weights = np.exp(scaled)
    cdf = (weights / weights.sum()).cumsum()
    pick = min(int(cdf.searchsorted(rng.random(), side="right")), ids.size - 1)
    return int(ids[pick])


def test_sample_token_matches_the_candidate_array_sampler():
    """Same id and generator state after every draw, with no warning and the
    row left as it was, at vocabulary sizes 4 to 64 on rounded rows that tie
    and on a row of equal logits; rows of three entries or fewer raise."""
    samplers = [GREEDY] + [
        SamplerSpec(kind, temperature, k)
        for temperature in (1.0, 0.5, 2.0, 1e-300)
        for kind, k in (("temperature", 40), ("top_k", 1), ("top_k", 5), ("top_k", 100))
    ]
    data = np.random.default_rng(41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for size in range(4, 65):
            rows = np.round(data.normal(scale=2.0, size=(16, size)), 1)
            rows[0] = 0.5
            kept = rows.copy()
            for spec in samplers:
                rng, oracle = np.random.default_rng(size), np.random.default_rng(size)
                for i, row in enumerate(rows):
                    assert sample_token(row, spec, rng) == _sample_token_over_candidates(row, spec, oracle), (size, spec, i)
                    assert rng.bit_generator.state == oracle.bit_generator.state
            np.testing.assert_array_equal(rows, kept)
    for size in range(4):
        for spec in samplers:
            with pytest.raises(ValueError, match="every candidate token is excluded"):
                sample_token(np.zeros(size), spec, np.random.default_rng(0))


def test_special_tokens_never_sampled():
    # rig the row so the raw argmax is [MASK]
    row = np.zeros(12)
    row[MASK_ID] = 100.0
    row[PAD_ID] = 99.0
    row[UNK_ID] = 98.0
    row[5] = 1.0
    assert sample_token(row, GREEDY) == 5
    with pytest.raises(ValueError, match="excluded"):
        sample_token(np.zeros(3), GREEDY)


def test_sampler_spec_validation():
    with pytest.raises(ValueError, match="temperature"):
        SamplerSpec(kind="temperature", temperature=0.0)
    with pytest.raises(ValueError, match="top-k"):
        SamplerSpec(kind="top_k", k=0)
    with pytest.raises(ValueError, match="kind"):
        SamplerSpec(kind="beam")


def test_stochastic_sampler_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        sample_token(np.zeros(5), SamplerSpec(kind="temperature"), rng=None)


# ---------------------------------------------------------------------------
# randomized invariant harness
# ---------------------------------------------------------------------------


def test_randomized_generation_invariants():
    """200 randomized runs: termination in exactly N - anchors steps, anchors
    intact, no [MASK] residue, greedy replay identical."""
    m = tiny_model(seed=10, max_len=16)
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        n_anchor = int(rng.integers(0, n + 1))
        anchor_pos = rng.choice(n, size=n_anchor, replace=False)
        anchors = {int(p): int(rng.integers(3, 12)) for p in anchor_pos}
        constraints = GenerationConstraints(target_length=n, anchors=anchors)
        order = GenerationOrder.random(constraints.free_positions, rng)
        seq, trace = generate(m, constraints, order, GREEDY, rng)
        assert len(trace.steps) == n - len(anchors)
        assert not np.any(seq == MASK_ID)
        for pos, tok in anchors.items():
            assert seq[pos] == tok
        np.testing.assert_array_equal(replay_trace(m, trace, GREEDY), seq)
