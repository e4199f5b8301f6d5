"""Loss definitions against independent oracles: per-position hand scoring,
exact Fraction-weighted enumeration, full permutation walks, and the
mask/permutation recombination identity."""

import itertools
import math
import threading
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import log_softmax as sp_log_softmax

import pmlm.model as model_mod
import pmlm.objectives as objectives_mod
from pmlm import tensor as T
from pmlm.data import MASK_ID, PAD_ID
from pmlm.masking import MaskingPrior, MaskPattern, mask_matrix
from pmlm.model import Transformer, TransformerConfig
from pmlm.objectives import (
    _order_counts,
    aplm_exact_loss,
    ar_loss,
    audit_duplication_factors,
    causal_batch_loss,
    conditional_log_probs,
    masked_batch_loss,
    mlm_loss,
    pmlm_exact_loss,
    pmlm_training_step,
    verify_equivalence,
)
from pmlm.tensor import NonFiniteLogits, Tensor, backward
from pmlm.training import preset

from helpers import tiny_model, truncated_alpha_fraction, uniform_output_model


def oracle_logp(model, x, masked_positions):
    """Independent conditional oracle: manual masking + scipy log-softmax."""
    inp = np.array(x, dtype=np.int64)
    inp[list(masked_positions)] = MASK_ID
    logits = model.logits(inp)
    return {pos: sp_log_softmax(logits[pos])[x[pos]] for pos in masked_positions}


# ---------------------------------------------------------------------------
# ar_loss
# ---------------------------------------------------------------------------


def test_ar_loss_uniform_model_is_log_vocab():
    m = uniform_output_model(attention_mode="causal")
    loss = ar_loss(m, np.array([3, 4, 5, 6]))
    np.testing.assert_allclose(loss.value, math.log(12), rtol=0, atol=1e-12)
    assert loss.token_count == 4


def test_ar_loss_single_token_is_blank_context_conditional():
    m = tiny_model(seed=1, attention_mode="causal")
    x = np.array([5])
    loss = ar_loss(m, x)
    expected = -oracle_logp(m, x, [0])[0]
    np.testing.assert_allclose(loss.value, expected, rtol=0, atol=1e-12)


def test_ar_loss_matches_per_position_oracle():
    """Each conditional recomputed with its own shorter forward: the row for
    position t of the shifted input equals the last row of the length-t
    forward by causal invariance."""
    m = tiny_model(seed=2, attention_mode="causal")
    rng = np.random.default_rng(0)
    x = rng.integers(3, 12, size=5)
    total = 0.0
    for t in range(5):
        inp = np.concatenate([[MASK_ID], x[:t]])
        logits = m.logits(inp)
        total += -sp_log_softmax(logits[-1])[x[t]]
    np.testing.assert_allclose(ar_loss(m, x).value, total / 5, rtol=0, atol=1e-12)


def test_ar_loss_rejects_bidirectional():
    with pytest.raises(ValueError, match="causal"):
        ar_loss(tiny_model(), np.array([3, 4]))


def test_ar_loss_ignores_padding():
    m = tiny_model(seed=3, attention_mode="causal")
    x = np.array([3, 4, 5])
    padded = np.array([3, 4, 5, 0, 0])
    a, b = ar_loss(m, x), ar_loss(m, padded)
    assert b.token_count == 3
    np.testing.assert_allclose(a.value, b.value, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# mlm_loss
# ---------------------------------------------------------------------------


def test_mlm_loss_uniform_model_any_pattern():
    m = uniform_output_model(seed=4)
    pattern = MaskPattern.from_indices(5, [0, 3])
    loss = mlm_loss(m, np.array([3, 4, 5, 6, 7]), pattern)
    np.testing.assert_allclose(loss.value, math.log(12), rtol=0, atol=1e-12)


def test_mlm_loss_all_masked_averages_every_position():
    m = tiny_model(seed=5)
    x = np.array([3, 4, 5, 6])
    pattern = MaskPattern.from_indices(4, [0, 1, 2, 3])
    oracle = oracle_logp(m, x, [0, 1, 2, 3])
    expected = -sum(oracle.values()) / 4
    np.testing.assert_allclose(mlm_loss(m, x, pattern).value, expected, rtol=0, atol=1e-12)


def test_mlm_loss_single_mask_equals_direct_conditional():
    m = tiny_model(seed=6)
    x = np.array([3, 4, 5, 6, 7, 8])
    for pos in range(6):
        pattern = MaskPattern.from_indices(6, [pos])
        expected = -oracle_logp(m, x, [pos])[pos]
        np.testing.assert_allclose(mlm_loss(m, x, pattern).value, expected, rtol=0, atol=1e-12)


def test_mlm_loss_rejects_empty_mask_and_causal_model():
    with pytest.raises(ValueError, match="K=0"):
        mlm_loss(tiny_model(), np.array([3, 4]), MaskPattern.from_indices(2, []))
    with pytest.raises(ValueError, match="bidirectional"):
        mlm_loss(
            tiny_model(attention_mode="causal"), np.array([3, 4]), MaskPattern.from_indices(2, [0])
        )


def test_mlm_loss_gradient_flows():
    m = tiny_model(seed=7)
    loss = mlm_loss(m, np.array([3, 4, 5, 6]), MaskPattern.from_indices(4, [1, 2]), with_grad=True)
    backward(loss.tensor)
    assert m.params["tok_emb"].grad is not None
    assert np.any(m.params["out.w"].grad != 0.0)


# ---------------------------------------------------------------------------
# pmlm estimator and exact expectation
# ---------------------------------------------------------------------------


def test_training_step_point_mass_one_is_all_masked_mlm():
    m = tiny_model(seed=8)
    x = np.array([3, 4, 5, 6])
    step = pmlm_training_step(m, x, MaskingPrior.point_mass(1.0), np.random.default_rng(0))
    full = mlm_loss(m, x, MaskPattern.from_indices(4, [0, 1, 2, 3]))
    np.testing.assert_allclose(step.value, full.value, rtol=0, atol=1e-15)


def test_training_step_fixed_ratio_matches_replayed_pattern():
    """The fixed-ratio path: replaying the rng reproduces the drawn mask, and
    the step value equals mlm_loss on exactly that pattern."""
    from pmlm.masking import sample_mask, sample_ratio

    m = tiny_model(seed=9)
    x = np.arange(3, 11)
    prior = MaskingPrior.point_mass(0.15)
    step = pmlm_training_step(m, x, prior, np.random.default_rng(42))
    replay_rng = np.random.default_rng(42)
    r = sample_ratio(prior, replay_rng)
    assert r == 0.15
    pattern = sample_mask(8, r, replay_rng, pad_flags=np.zeros(8, dtype=bool))
    if pattern.k == 0:
        assert step.value == 0.0 and step.token_count == 0
    else:
        np.testing.assert_allclose(step.value, mlm_loss(m, x, pattern).value, rtol=0, atol=1e-15)


def exact_pmlm_oracle(model, x, prior):
    """Independent expectation: Fraction alphas (uniform, truncated) or direct
    powers (point mass), conditionals via the scipy oracle, full 2^n walk."""
    n = len(x)
    total = 0.0
    for subset_size in range(1, n + 1):
        for positions in itertools.combinations(range(n), subset_size):
            if prior.kind == "uniform":
                alpha = float(
                    Fraction(
                        math.factorial(n - subset_size) * math.factorial(subset_size),
                        math.factorial(n + 1),
                    )
                )
            elif prior.kind == "truncated_uniform":
                alpha = float(truncated_alpha_fraction(n, subset_size, prior.a, prior.b))
            else:
                alpha = prior.r0**subset_size * (1 - prior.r0) ** (n - subset_size)
            logp = oracle_logp(model, x, positions)
            total += alpha * sum(logp.values()) / subset_size
    return -total


def test_pmlm_exact_single_position():
    m = tiny_model(seed=10)
    x = np.array([5])
    expected = -0.5 * oracle_logp(m, x, [0])[0]
    got = pmlm_exact_loss(m, x, MaskingPrior.uniform())
    np.testing.assert_allclose(got.value, expected, rtol=0, atol=1e-14)


def test_pmlm_exact_point_mass_one_reduces_to_mlm():
    m = tiny_model(seed=11)
    x = np.array([3, 4, 5, 6])
    exact = pmlm_exact_loss(m, x, MaskingPrior.point_mass(1.0))
    full = mlm_loss(m, x, MaskPattern.from_indices(4, [0, 1, 2, 3]))
    np.testing.assert_allclose(exact.value, full.value, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "prior", [MaskingPrior.uniform(), MaskingPrior.point_mass(0.3), MaskingPrior.truncated(0.2, 0.7)]
)
def test_pmlm_exact_matches_independent_enumeration(prior):
    m = tiny_model(seed=12)
    x = np.array([3, 7, 9, 4])
    got = pmlm_exact_loss(m, x, prior)
    np.testing.assert_allclose(got.value, exact_pmlm_oracle(m, x, prior), rtol=0, atol=1e-12)


def test_pmlm_exact_guard():
    with pytest.raises(ValueError, match="n <= 16"):
        pmlm_exact_loss(tiny_model(max_len=17), np.full(17, 3), MaskingPrior.uniform())


def test_training_step_mean_converges_to_exact():
    """Monte-Carlo consistency: the sample mean over 10^4 draws lands within
    three standard errors of the enumerated expectation."""
    m = tiny_model(seed=13)
    x = np.array([3, 8, 5, 10])
    prior = MaskingPrior.uniform()
    exact = pmlm_exact_loss(m, x, prior).value
    rng = np.random.default_rng(99)
    values = np.array([pmlm_training_step(m, x, prior, rng).value for _ in range(10_000)])
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - exact) < 3 * se, (values.mean(), exact, se)


# ---------------------------------------------------------------------------
# order-averaged loss
# ---------------------------------------------------------------------------


def test_aplm_single_position():
    m = tiny_model(seed=14)
    x = np.array([6])
    expected = -oracle_logp(m, x, [0])[0]
    np.testing.assert_allclose(aplm_exact_loss(m, x).value, expected, rtol=0, atol=1e-14)


def test_aplm_two_positions_hand_enumeration():
    # orders (0,1) and (1,0): four conditionals, averaged over 2 orders x 2 steps
    m = tiny_model(seed=15)
    x = np.array([4, 9])
    both = oracle_logp(m, x, [0, 1])
    only0 = oracle_logp(m, x, [0])[0]
    only1 = oracle_logp(m, x, [1])[1]
    total = (both[0] + only1) + (both[1] + only0)
    np.testing.assert_allclose(aplm_exact_loss(m, x).value, -total / 4, rtol=0, atol=1e-13)


@pytest.mark.parametrize("positional", ["absolute", "relative"])
@pytest.mark.parametrize("n", range(1, 7))
def test_aplm_matches_independent_permutation_walk(n, positional):
    """Oracle without memoization: every conditional recomputed directly."""
    m = tiny_model(seed=16, positional_kind=positional)
    rng = np.random.default_rng(n)
    x = rng.integers(3, 12, size=n)
    total = 0.0
    for sigma in itertools.permutations(range(n)):
        remaining = list(range(n))
        for pos in sigma:
            total += oracle_logp(m, x, remaining)[pos]
            remaining.remove(pos)
    expected = -total / (n * math.factorial(n))
    np.testing.assert_allclose(aplm_exact_loss(m, x).value, expected, rtol=0, atol=1e-10)


def test_aplm_guard():
    with pytest.raises(ValueError, match="n <= 16"):
        aplm_exact_loss(tiny_model(max_len=17), np.full(17, 3))


# ---------------------------------------------------------------------------
# equivalence of the two objectives
# ---------------------------------------------------------------------------


def test_equivalence_single_position_gap_is_zero():
    m = tiny_model(seed=17)
    report = verify_equivalence(m, np.array([7]))
    assert report.max_abs_gap < 1e-12
    assert report.passed
    # both sides equal the blank-context log-likelihood
    blank = oracle_logp(m, np.array([7]), [0])[0]
    np.testing.assert_allclose(report.masked_side, 2 * blank / 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.permutation_side, blank, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 10, 12])
def test_equivalence_holds_for_every_length(n):
    m = tiny_model(seed=20 + n, max_len=max(8, n))
    rng = np.random.default_rng(n)
    x = rng.integers(3, 12, size=n)
    report = verify_equivalence(m, x)
    assert report.max_abs_gap < 1e-9, report.max_abs_gap
    assert report.duplication_ok and report.passed
    assert report.constant_c == math.factorial(n + 1)
    assert report.pmlm_exact == pmlm_exact_loss(m, x, MaskingPrior.uniform()).value
    assert report.aplm_mean == aplm_exact_loss(m, x).value


def test_equivalence_relates_the_two_loss_values():
    # (n+1) * unnormalized masked expectation == n * order-averaged mean NLL
    m = tiny_model(seed=30)
    x = np.array([3, 11, 6, 4])
    pm = pmlm_exact_loss(m, x, MaskingPrior.uniform()).value
    ap = aplm_exact_loss(m, x).value
    np.testing.assert_allclose((4 + 1) * pm, 4 * ap, rtol=0, atol=1e-10)


def walk_order_counts(n):
    """Oracle: walk all n! orders and count, at [masked set, position], each
    step that predicts the position with that set still masked."""
    counts = np.zeros((1 << n, n), dtype=np.int64)
    for sigma in itertools.permutations(range(n)):
        bits = (1 << n) - 1
        for pos in sigma:
            counts[bits, pos] += 1
            bits &= ~(1 << pos)
    return counts


@pytest.mark.parametrize("n", range(8))
def test_order_counts_match_the_walk_over_every_order(n):
    got = _order_counts(mask_matrix(n))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, walk_order_counts(n))


def test_duplication_counts_specific_group():
    # n=5, masked set of size 2: each (set, member) pair appears 3! 1! = 6 times
    counts = _order_counts(mask_matrix(5))
    bits = (1 << 1) | (1 << 3)
    assert counts[bits, 1] == 6
    assert counts[bits, 3] == 6
    assert counts[bits, 0] == 0


def test_the_audit_vouches_for_the_permutation_side(monkeypatch):
    """The permutation side weights the conditionals by the audited order
    counts, so one count off by one fails the audit and opens the gap."""
    counts = objectives_mod._order_counts

    def off_by_one(masks):
        out = counts(masks)
        out[-1, 0] += 1  # every position is masked in the last set
        return out

    m = tiny_model(seed=19)
    x = np.array([4, 9, 6])
    assert verify_equivalence(m, x).passed
    monkeypatch.setattr(objectives_mod, "_order_counts", off_by_one)
    report = verify_equivalence(m, x)
    assert not report.duplication_ok
    assert report.max_abs_gap > report.tolerance
    assert not report.passed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_duplication_factors_exact(n):
    audit, ok = audit_duplication_factors(n)
    assert ok
    for k in range(1, n + 1):
        assert audit[k] == math.factorial(n - k) * math.factorial(k - 1)


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------


def _relabeled(model, rho):
    """Clone the model with content-token ids relabeled by the permutation rho
    (specials fixed): new embedding row rho(i) carries old row i."""
    from pmlm.model import Transformer

    params = {name: type(p)(p.data.copy(), requires_grad=True) for name, p in model.params.items()}
    full = np.arange(model.config.vocab_size)
    full[3:] = rho
    inverse = np.argsort(full)
    params["tok_emb"].data = params["tok_emb"].data[inverse]
    params["out.w"].data = params["out.w"].data[:, inverse]
    params["out.b"].data = params["out.b"].data[inverse]
    return Transformer(model.config, params), full


@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
def test_losses_invariant_under_vocabulary_relabeling(mode):
    m = tiny_model(seed=31, attention_mode=mode)
    rng = np.random.default_rng(7)
    rho = rng.permutation(np.arange(3, 12))
    relabeled, mapping = _relabeled(m, rho)
    x = rng.integers(3, 12, size=5)
    x2 = mapping[x]
    if mode == "causal":
        a, b = ar_loss(m, x).value, ar_loss(relabeled, x2).value
    else:
        pattern = MaskPattern.from_indices(5, [1, 4])
        a = mlm_loss(m, x, pattern).value
        b = mlm_loss(relabeled, x2, pattern).value
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_pmlm_exact_invariant_under_relabeling():
    m = tiny_model(seed=32)
    rng = np.random.default_rng(8)
    rho = rng.permutation(np.arange(3, 12))
    relabeled, mapping = _relabeled(m, rho)
    x = rng.integers(3, 12, size=4)
    a = pmlm_exact_loss(m, x, MaskingPrior.uniform()).value
    b = pmlm_exact_loss(relabeled, mapping[x], MaskingPrior.uniform()).value
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# batched losses used by training
# ---------------------------------------------------------------------------


def test_masked_batch_loss_averages_per_sequence_losses():
    m = tiny_model(seed=33)
    rng = np.random.default_rng(9)
    batch = rng.integers(3, 12, size=(3, 6))
    patterns = [
        MaskPattern.from_indices(6, [0, 2]),
        MaskPattern.from_indices(6, [5]),
        MaskPattern.from_indices(6, [1, 3, 4]),
    ]
    got = masked_batch_loss(m, batch, patterns).item()
    expected = np.mean([mlm_loss(m, batch[i], patterns[i]).value for i in range(3)])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_masked_batch_loss_empty_pattern_contributes_zero():
    m = tiny_model(seed=34)
    rng = np.random.default_rng(10)
    batch = rng.integers(3, 12, size=(2, 4))
    patterns = [MaskPattern.from_indices(4, [1]), MaskPattern.from_indices(4, [])]
    got = masked_batch_loss(m, batch, patterns).item()
    expected = mlm_loss(m, batch[0], patterns[0]).value / 2
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    for wrong in (MaskPattern.from_indices(6, [5]), MaskPattern.from_indices(3, [1])):
        with pytest.raises(ValueError, match="length 4 for each of 2 sequences"):
            masked_batch_loss(m, batch, [patterns[0], wrong])


def test_masked_batch_loss_graph_nodes_per_primitive():
    # each bias, layer-norm gain and bias, attention scale and mask is fused
    # into the matmul, layer_norm or softmax node that produces its input;
    # splitting one out again adds an add or mul node here
    cfg = TransformerConfig(vocab_size=20, **preset("upmlm", "corpus.txt", "m.ckpt").model)
    m = Transformer.init(cfg, seed=0)
    batch = np.random.default_rng(13).integers(3, 20, size=(4, 12))
    batch[2, 9:] = PAD_ID
    patterns = [MaskPattern.from_indices(12, idx) for idx in ([1, 5], [], [0, 8], [11])]
    loss = masked_batch_loss(m, batch, patterns, rng=np.random.default_rng(1))
    nodes, seen, stack = Counter(), set(), [loss]
    while stack:
        t = stack.pop()
        if isinstance(t, Tensor) and t._vjp is not None and id(t) not in seen:
            seen.add(id(t))
            nodes[t._vjp.__qualname__.split(".")[0]] += 1
            stack.extend(t._parents)
    assert dict(nodes) == {
        "matmul": 17, "layer_norm": 5, "softmax": 2, "add": 5, "mul": 1, "gelu": 2, "dropout": 7,
        "take": 4, "reshape": 10, "transpose": 10, "cross_entropy_rows": 1, "sum_": 1,
    }
    assert sum(nodes.values()) == 65


def test_causal_batch_loss_averages_ar_losses():
    m = tiny_model(seed=35, attention_mode="causal")
    rng = np.random.default_rng(11)
    batch = rng.integers(3, 12, size=(3, 6))
    batch[1, 4:] = 0  # padded tail
    got = causal_batch_loss(m, batch).item()
    expected = np.mean([ar_loss(m, row).value for row in batch])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_conditional_log_probs_matches_oracle():
    m = tiny_model(seed=36)
    x = np.array([3, 4, 5, 6, 7])
    positions = [1, 3]
    got = conditional_log_probs(m, x, positions)
    oracle = oracle_logp(m, x, positions)
    np.testing.assert_allclose(got, [oracle[1], oracle[3]], rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "enumeration",
    [
        lambda m, x: conditional_log_probs(m, x, [1, 2]),
        lambda m, x: pmlm_exact_loss(m, x, MaskingPrior.uniform()),
        aplm_exact_loss,
        verify_equivalence,
    ],
    ids=["conditional_log_probs", "pmlm_exact_loss", "aplm_exact_loss", "verify_equivalence"],
)
def test_exact_enumerations_reject_a_causal_model_before_any_forward(monkeypatch, enumeration):
    """A causal row does not condition on the later positions, so its table of
    conditionals would pass the identity without being the conditionals."""
    calls, run = [], Transformer._run
    monkeypatch.setattr(Transformer, "_run", lambda *args, **kwargs: calls.append(args) or run(*args, **kwargs))
    with pytest.raises(ValueError, match="conditional_log_probs requires a bidirectional model"):
        enumeration(tiny_model(seed=37, attention_mode="causal"), np.array([3, 4, 5, 6]))
    assert calls == []


# the batch's all-[PAD] tail is cut before the forward; these pin that the
# cut changes neither the loss nor any parameter gradient
TRIM_BATCHES = {
    "interior_pad": [
        [3, 4, PAD_ID, 5, 6, PAD_ID, PAD_ID, PAD_ID],
        [7, PAD_ID, 8, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
        [9, 10, 11, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
    ],
    "no_padding": [
        [3, 4, 5, 6, 7, 8, 9, 10],
        [11, 10, 9, 8, 7, 6, 5, 4],
    ],
    "one_row_sets_width": [
        [3, 4, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
        [5, 6, 7, 8, 9, 10, PAD_ID, PAD_ID],
        [11, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
    ],
    # the shifted causal input of the widest row ends one column before its
    # last target, so the width must come from the targets too
    "pad_before_last_token": [
        [3, PAD_ID, 4, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
        [5, 6, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
    ],
    "one_empty_pattern": [
        [3, 4, 5, 6, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
        [7, 8, 9, 10, 11, PAD_ID, PAD_ID, PAD_ID],
        [4, 5, 6, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
    ],
    "all_patterns_empty": [
        [3, 4, 5, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
        [6, 7, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
    ],
}

# rows whose mask pattern is empty in the masked-loss test: their sequence
# has no loss row, so the gather after attention skips it entirely
EMPTY_PATTERN_ROWS = {"one_empty_pattern": (1,), "all_patterns_empty": (0, 1)}


def _full_width_reference(m, inputs, targets, weights):
    """Loss value and parameter gradients from a forward over every column."""
    m.zero_grad()
    logits = m.forward(inputs)
    loss = T.sum_(T.cross_entropy_rows(logits, targets) * Tensor(weights))
    backward(loss)
    grads = {name: p.grad.copy() for name, p in m.params.items()}
    m.zero_grad()
    return loss.item(), grads


def _assert_matches_reference(m, loss, ref_value, ref_grads):
    backward(loss)
    np.testing.assert_allclose(loss.item(), ref_value, rtol=1e-12, atol=0)
    for name, p in m.params.items():
        np.testing.assert_allclose(p.grad, ref_grads[name], rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("kind", sorted(TRIM_BATCHES))
def test_masked_batch_loss_matches_full_width_forward(kind):
    m = tiny_model(seed=37)
    batch = np.array(TRIM_BATCHES[kind])
    b, n = batch.shape
    rng = np.random.default_rng(12)
    patterns = []
    for s, row in enumerate(batch):
        maskable = np.flatnonzero(row != PAD_ID)
        chosen = rng.choice(maskable, size=max(1, len(maskable) // 2), replace=False)
        if s in EMPTY_PATTERN_ROWS.get(kind, ()):
            chosen = []
        patterns.append(MaskPattern.from_indices(n, sorted(chosen), pad_flags=row == PAD_ID))
    inputs = batch.copy()
    weights = np.zeros((b, n))
    for s, pattern in enumerate(patterns):
        if pattern.k:
            inputs[s, list(pattern.indices)] = MASK_ID
            weights[s, list(pattern.indices)] = 1.0 / (b * pattern.k)
    ref_value, ref_grads = _full_width_reference(m, inputs, batch, weights)
    loss = masked_batch_loss(m, batch, patterns)
    _assert_matches_reference(m, loss, ref_value, ref_grads)
    if all(pattern.k == 0 for pattern in patterns):
        assert loss.item() == 0.0
        assert all(p.grad is None or not p.grad.any() for p in m.params.values())


@pytest.mark.parametrize("kind", sorted(TRIM_BATCHES))
def test_causal_batch_loss_matches_full_width_forward(kind):
    m = tiny_model(seed=38, attention_mode="causal")
    batch = np.array(TRIM_BATCHES[kind])
    pad = batch == PAD_ID
    inputs = np.full_like(batch, MASK_ID)
    inputs[:, 1:] = batch[:, :-1]
    inputs[pad] = PAD_ID
    weights = (~pad) / (batch.shape[0] * (~pad).sum(axis=1, keepdims=True))
    ref_value, ref_grads = _full_width_reference(m, inputs, batch, weights)
    _assert_matches_reference(m, causal_batch_loss(m, batch), ref_value, ref_grads)


# ---------------------------------------------------------------------------
# batches cut into fixed shards on worker threads
# ---------------------------------------------------------------------------


def _shards_on_two_workers(monkeypatch, size: int) -> None:
    monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width, workers: size)
    monkeypatch.setattr(model_mod, "_workers", lambda parts: min(2, parts))


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("kind", sorted(TRIM_BATCHES))
def test_sharded_masked_batch_loss_matches_full_width_forward(kind, size, monkeypatch):
    _shards_on_two_workers(monkeypatch, size)
    test_masked_batch_loss_matches_full_width_forward(kind)


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("kind", sorted(TRIM_BATCHES))
def test_sharded_causal_batch_loss_matches_full_width_forward(kind, size, monkeypatch):
    _shards_on_two_workers(monkeypatch, size)
    test_causal_batch_loss_matches_full_width_forward(kind)


def test_backward_twice_doubles_the_sharded_gradients(monkeypatch):
    _shards_on_two_workers(monkeypatch, 1)
    m = tiny_model(seed=39, attention_mode="causal")
    loss = causal_batch_loss(m, np.array(TRIM_BATCHES["interior_pad"]))
    assert loss._parents == tuple(m.params.values())  # one node joins the three shards
    backward(loss)
    once = {name: p.grad.copy() for name, p in m.params.items()}
    backward(loss)
    for name, p in m.params.items():
        np.testing.assert_array_equal(p.grad, 2 * once[name], err_msg=name)


def test_sharded_loss_records_a_graph_only_with_gradients_on(monkeypatch):
    """Two shards on two workers, held together by a barrier: under no_grad
    neither thread records a node, and with gradients on both record their
    shard's graph and backward fills every parameter's gradient."""
    _shards_on_two_workers(monkeypatch, 2)
    m = tiny_model(seed=40)
    batch = np.random.default_rng(14).integers(3, 12, size=(4, 8))
    patterns = [MaskPattern.from_indices(8, [1, 4])] * 4
    nodes, together = [], threading.Barrier(2, timeout=30)
    node, forward = T._node, m.forward

    def counted(*args):
        out = node(*args)
        nodes.append((threading.get_ident(), out._vjp is not None))
        return out

    def held(*args, **kwargs):
        together.wait()
        return forward(*args, **kwargs)

    monkeypatch.setattr(T, "_node", counted)
    monkeypatch.setattr(m, "forward", held)
    with T.no_grad():
        loss = masked_batch_loss(m, batch, patterns)
    assert not loss.requires_grad
    assert len({ident for ident, _ in nodes}) == 2 and not any(recorded for _, recorded in nodes)
    nodes.clear()
    loss = masked_batch_loss(m, batch, patterns)
    assert loss.requires_grad
    assert len({ident for ident, recorded in nodes if recorded}) == 2
    backward(loss)
    assert all(p.grad is not None and p.grad.any() for p in m.params.values())


def test_non_finite_logits_in_a_later_shard_raise_once_every_started_shard_is_done(monkeypatch):
    """Shards of one sequence on two workers: the second meets a non-finite
    embedding while the first still runs. The error comes once the first is
    done, and the third shard never starts."""
    _shards_on_two_workers(monkeypatch, 1)
    m = tiny_model(seed=41)
    m.params["tok_emb"].data[11] = np.inf
    batch = np.random.default_rng(15).integers(3, 11, size=(3, 8))
    batch[1, 3] = 11
    patterns = [MaskPattern.from_indices(8, [0, 5])] * 3
    forward, started, running = m.forward, [], []

    def slow_when_finite(tokens, **kwargs):
        started.append(len(started))
        running.append(1)
        try:
            if 11 not in tokens:
                time.sleep(0.1)
            return forward(tokens, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(m, "forward", slow_when_finite)
    with pytest.raises(NonFiniteLogits), np.errstate(invalid="ignore"):
        masked_batch_loss(m, batch, patterns, rng=np.random.default_rng(2))
    assert running == [] and len(started) == 2
