"""Training objectives and their exact enumeration counterparts.

Four losses share one convention (negative log-likelihood in nats):

* left-to-right teacher-forced loss for causal models,
* masked-position loss for one fixed mask pattern,
* its sampled-mask training estimator under a masking-ratio prior,
* the exact expectation of that estimator over all 2^n patterns,

plus the order-averaged autoregressive loss over all n! generation orders
and a verifier for the identity tying the uniform-prior expectation to it.
The per-sequence losses are the batch losses on a one-row batch.

Every conditional here is evaluated the same way: reveal a subset of the
ground-truth tokens, place [MASK] everywhere else, run one bidirectional
forward, and read the log-probability of the true token at a masked
position. The causal loss uses [MASK] as the begin-of-sequence filler so
the first token is predicted from an empty context.

The two sides of the identity share one table of conditionals, one row per
masked set, and differ only in their weighting: the masked side is a sum
over the 2^n sets weighted by one alpha per set size, the autoregressive
side a recursion over the sets that averages all n! generation orders.
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import model as M
from . import tensor as T
from .data import MASK_ID, PAD_ID, causal_inputs, used_width
from .masking import MaskingPrior, MaskPattern, mask_matrix, mask_probability, sample_mask, sample_ratio
from .masking import enumerate_masks  # noqa: F401  (perfbench/tracer.py patches it on this module)
from .model import Transformer
from .tensor import Tensor

PMLM_EXACT_LIMIT = 8
APLM_LIMIT = 6


@dataclass
class LossValue:
    """Mean negative log-likelihood in nats plus the number of scored positions."""

    value: float
    token_count: int
    tensor: Optional[Tensor] = field(default=None, repr=False, compare=False)


def _as_ids(x) -> np.ndarray:
    ids = np.asarray(x, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"expected a single token sequence, got shape {ids.shape}")
    return ids


def conditional_log_probs(model: Transformer, x, positions: Sequence[int]) -> np.ndarray:
    """log p(x_pos | ground truth everywhere outside ``positions``) per position.

    The model input carries [MASK] at every position in ``positions`` and the
    true tokens elsewhere; one bidirectional forward scores all of them.
    """
    ids = _as_ids(x)
    pos = list(positions)
    inputs = ids.copy()
    inputs[pos] = MASK_ID
    return -T.array_ops.cross_entropy_rows(model.logits(inputs)[pos], ids[pos])


# ---------------------------------------------------------------------------
# per-sequence losses
# ---------------------------------------------------------------------------


def _loss_value(batch_loss: Callable[..., Tensor], count: int, with_grad: bool, *args, **kwargs) -> LossValue:
    """``batch_loss(*args, **kwargs)``, recording the graph only when ``with_grad`` is set."""
    with nullcontext() if with_grad else T.no_grad():
        loss = batch_loss(*args, **kwargs)
    return LossValue(loss.item(), count, tensor=loss if with_grad else None)


def ar_loss(
    model: Transformer,
    x,
    *,
    with_grad: bool = False,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> LossValue:
    """Teacher-forced left-to-right loss: -(1/N) sum_n log p(x_n | x_<n).

    The input at position n is x_{n-1} (and [MASK] at the first position),
    so the logit row at n conditions only on the strictly earlier tokens.
    [PAD] positions are neither scored nor attended to.
    """
    if not model.is_causal:
        raise ValueError("ar_loss requires a causal model")
    ids = _as_ids(x)
    count = int(np.count_nonzero(ids != PAD_ID))
    if count == 0:
        raise ValueError("ar_loss: sequence is all padding")
    return _loss_value(causal_batch_loss, count, with_grad, model, ids[None, :], train=train, rng=rng)


def mlm_loss(
    model: Transformer,
    x,
    pattern: MaskPattern,
    *,
    with_grad: bool = False,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> LossValue:
    """Masked-position loss: -(1/K) sum over masked positions of log p."""
    if model.is_causal:
        raise ValueError("mlm_loss requires a bidirectional model")
    ids = _as_ids(x)
    if pattern.n != len(ids):
        raise ValueError(f"pattern length {pattern.n} does not match sequence length {len(ids)}")
    if pattern.k == 0:
        raise ValueError("mlm_loss is undefined for an empty mask (K=0)")
    return _loss_value(masked_batch_loss, pattern.k, with_grad, model, ids[None, :], [pattern], train=train, rng=rng)


def pmlm_training_step(
    model: Transformer,
    x,
    prior: MaskingPrior,
    rng: np.random.Generator,
    *,
    with_grad: bool = False,
    train: bool = False,
) -> LossValue:
    """One-sample estimator of the prior-expected masked loss.

    Draws r from the prior, masks i.i.d. at rate r, and scores the masked
    positions. An all-unmasked draw contributes exactly zero (keeping the
    estimator's expectation equal to the enumerated objective); resampling
    on K=0 is a training-loop policy, not part of this estimator.
    """
    ids = _as_ids(x)
    r = sample_ratio(prior, rng)
    pattern = sample_mask(len(ids), r, rng, pad_flags=ids == PAD_ID)
    if pattern.k == 0:
        return LossValue(0.0, 0, tensor=Tensor(0.0) if with_grad else None)
    return mlm_loss(model, ids, pattern, with_grad=with_grad, train=train, rng=rng)


# ---------------------------------------------------------------------------
# exact enumeration oracles
# ---------------------------------------------------------------------------


def _exact_input(x, op: str, limit: int) -> np.ndarray:
    ids = _as_ids(x)
    if len(ids) == 0:
        raise ValueError(f"{op} needs a sequence of at least one token")
    if np.any(ids == PAD_ID):
        raise ValueError(f"{op} does not support padded sequences")
    if len(ids) > limit:
        raise ValueError(f"{op} enumerates every masked set and is capped at n <= {limit}")
    return ids


def _conditional_table(model: Transformer, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``mask_matrix(n)`` and the (2^n, n) table of conditionals read through
    it: row ``bits`` holds log p(x_pos | ground truth outside the set) at the
    set's positions and 0 elsewhere."""
    masks = mask_matrix(len(ids))
    table = np.zeros(masks.shape)
    for bits, m in enumerate(masks[1:], 1):
        table[bits, m] = conditional_log_probs(model, ids, np.flatnonzero(m))
    return masks, table


def _masked_sum(masks: np.ndarray, table: np.ndarray, prior: MaskingPrior) -> float:
    """sum over masks M of alpha_M (1/K) sum_{pos in M} log p, with alpha
    computed once per size K; the K=0 and alpha=0 sets contribute nothing."""
    n = masks.shape[1]
    alpha = np.array([mask_probability(MaskPattern.from_indices(n, range(k)), prior).alpha for k in range(n + 1)])
    sizes = masks.sum(axis=1)
    rows = (sizes > 0) & (alpha[sizes] > 0.0)
    return float(np.sum(alpha[sizes[rows]] * table[rows].sum(axis=1) / sizes[rows]))


def _order_mean(table: np.ndarray) -> float:
    """Mean total log-likelihood over all n! generation orders, each step
    predicting one position with the not-yet-revealed set S masked. A random
    order's first step over S predicts each pos in S with probability 1/|S|, so
    H(S) = (1/|S|) sum_{pos in S} [table[S, pos] + H(S - pos)], H(empty) = 0."""
    n = table.shape[1]
    rows = table.tolist()
    h = [0.0] * len(rows)
    for bits in range(1, len(rows)):
        members = [pos for pos in range(n) if bits >> pos & 1]
        h[bits] = sum(rows[bits][pos] + h[bits & ~(1 << pos)] for pos in members) / len(members)
    return h[-1]


def pmlm_exact_loss(model: Transformer, x, prior: MaskingPrior) -> LossValue:
    """Exact prior expectation: -(sum over all masks M) alpha_M (1/K) sum log p.

    The K=0 pattern contributes zero by definition. Requires 2^n forwards.
    """
    ids = _exact_input(x, "pmlm_exact_loss", PMLM_EXACT_LIMIT)
    return LossValue(-_masked_sum(*_conditional_table(model, ids), prior), len(ids))


def aplm_exact_loss(model: Transformer, x) -> LossValue:
    """Order-averaged autoregressive loss over all n! generation orders.

    Each conditional p(x_{s_t} | x_{s_1}..x_{s_{t-1}}) is evaluated through
    the bidirectional model by masking exactly the not-yet-revealed set, so
    no separate causal model is involved. Value is the mean NLL per token
    per order: -(1/(n n!)) sum over orders and steps.
    """
    ids = _exact_input(x, "aplm_exact_loss", APLM_LIMIT)
    _, table = _conditional_table(model, ids)
    return LossValue(-_order_mean(table) / len(ids), len(ids))


# ---------------------------------------------------------------------------
# equivalence verification
# ---------------------------------------------------------------------------


def count_permutation_conditionals(n: int) -> Dict[Tuple[int, int], int]:
    """Exhaustively count, over all n! orders, how many times each distinct
    (masked set, predicted position) conditional occurs. Keys are
    (bitmask of the masked set, position)."""
    counts: Dict[Tuple[int, int], int] = {}
    for sigma in itertools.permutations(range(n)):
        bits = (1 << n) - 1
        for pos in sigma:
            key = (bits, pos)
            counts[key] = counts.get(key, 0) + 1
            bits &= ~(1 << pos)
    return counts


def audit_duplication_factors(n: int) -> Tuple[Dict[int, int], bool]:
    """Group the permutation counts by masked-set size k and compare every
    group against (n-k)! (k-1)! in exact integer arithmetic.

    Returns ({k: expected factor}, all groups matched).
    """
    counts = count_permutation_conditionals(n)
    expected = {k: math.factorial(n - k) * math.factorial(k - 1) for k in range(1, n + 1)}
    ok = all(count == expected[bin(bits).count("1")] for (bits, _pos), count in counts.items())
    # every (masked set of size k, member position) pair must appear
    return expected, ok and len(counts) == sum(math.comb(n, k) * k for k in range(1, n + 1))


@dataclass
class EquivalenceReport:
    """Numeric check that the uniform-prior masked expectation recombines into
    the order-averaged autoregressive likelihood."""

    n: int
    pmlm_exact: float
    aplm_mean: float
    constant_c: int
    masked_side: float
    permutation_side: float
    max_abs_gap: float
    tolerance: float
    duplication_audit: Dict[str, int]
    duplication_ok: bool
    passed: bool

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pmlm_exact_nats"], d["aplm_mean_nats"] = d.pop("pmlm_exact"), d.pop("aplm_mean")
        return d


def verify_equivalence(model: Transformer, x, tolerance: float = 1e-9) -> EquivalenceReport:
    """Check (n+1) * sum_M alpha_M (1/K) sum_k log p == mean over all orders
    of the total autoregressive log-likelihood, for this model and sequence.

    Both sides read one table of conditionals and weight it differently: the
    left sums it over the 2^n mask patterns with the analytic alpha, the right
    averages it over all n! orders by a recursion over the masked sets. The
    duplication audit counts the orders' conditionals in integers, without it.
    The report records both normalization conventions: the permutation mean
    shown here, and the same sum divided by c = (n+1)!, under which the
    right side equals the left without the (n+1) factor.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"verify_equivalence needs a finite tolerance above 0, got {tolerance}")
    ids = _exact_input(x, "verify_equivalence", APLM_LIMIT)
    n = len(ids)
    masks, table = _conditional_table(model, ids)
    masked_sum = _masked_sum(masks, table, MaskingPrior.uniform())
    perm_mean = _order_mean(table)

    gap = abs((n + 1) * masked_sum - perm_mean)
    audit, audit_ok = audit_duplication_factors(n)
    return EquivalenceReport(
        n=n,
        pmlm_exact=-masked_sum,
        aplm_mean=-perm_mean / n,
        constant_c=math.factorial(n + 1),
        masked_side=(n + 1) * masked_sum,
        permutation_side=perm_mean,
        max_abs_gap=gap,
        tolerance=tolerance,
        duplication_audit={f"n={n},k={k}": v for k, v in audit.items()},
        duplication_ok=audit_ok,
        passed=bool(gap < tolerance and audit_ok),
    )


# ---------------------------------------------------------------------------
# batched training losses
# ---------------------------------------------------------------------------


def _shard_nll(model: Transformer, inputs, targets, weights, *, train: bool, rng) -> Tensor:
    """sum(weights * NLL of targets) from one forward over the shard's used
    width; the all-[PAD] tail carries no loss weight and no attention weight.
    Past its attention, the last block and the head run only on the rows
    with loss weight."""
    w = used_width(inputs, targets)
    weights = weights[:, :w].reshape(-1)
    rows = np.flatnonzero(weights)
    logits = model.forward(inputs[:, :w], flat_rows=rows, train=train, rng=rng)
    nll = T.cross_entropy_rows(logits, targets[:, :w].reshape(-1)[rows])
    return T.sum_(nll * Tensor(weights[rows]))


def _weighted_nll(model: Transformer, inputs, targets, weights, *, train: bool, rng) -> Tensor:
    """``_shard_nll`` summed over fixed shards of ``_slice_size(cfg, max_len, 1)``
    sequences, a function of the config alone, so a seeded run keeps its bits on
    any worker count. A one-shard batch is that shard's loss. Otherwise each
    shard gets a dropout generator seeded from ``rng`` in shard order, the
    shards run forward and backward on ``_workers`` threads, and one node over
    the parameters adds their losses and gradients in shard order."""
    size = M._slice_size(model.config, model.config.max_len, 1)
    shards = [slice(s, s + size) for s in range(0, len(inputs), size)]
    if len(shards) == 1:
        return _shard_nll(model, inputs, targets, weights, train=train, rng=rng)
    rngs = [None] * len(shards) if rng is None else [
        np.random.default_rng(seed) for seed in rng.integers(2**63, size=len(shards))]
    workers = M._workers(len(shards))
    losses = M._map(lambda i: _shard_nll(model, inputs[shards[i]], targets[shards[i]], weights[shards[i]],
                                         train=train, rng=rngs[i]), len(shards), workers)
    params = tuple(model.params.values())

    def vjp(g):
        sums = {}
        for part in M._map(lambda i: T.leaf_grads(losses[i], g), len(losses), workers):
            for leaf, lg in part:
                sums[leaf] = sums[leaf] + lg if leaf in sums else lg
        return tuple(sums.get(p) for p in params)

    return T._node(sum(loss.data for loss in losses), params, vjp)


def masked_batch_loss(
    model: Transformer,
    batch: np.ndarray,
    patterns: List[MaskPattern],
    *,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Mean over sequences of the per-sequence masked loss, from the forwards
    of ``_weighted_nll``'s shards.

    Sequences whose pattern is empty contribute zero but still count toward
    the batch mean. Each shard's forward stops at its used width.
    """
    if model.is_causal:
        raise ValueError("masked_batch_loss requires a bidirectional model")
    b, n = batch.shape
    if len(patterns) != b or any(p.n != n for p in patterns):
        raise ValueError(f"need one mask pattern of length {n} for each of {b} sequences, got "
                         f"{len(patterns)} of lengths {sorted({p.n for p in patterns})}")
    masks = np.stack([p.indicator for p in patterns])
    weights = masks / (b * np.maximum(masks.sum(axis=1, keepdims=True), 1))  # 0 where k = 0
    return _weighted_nll(model, np.where(masks, MASK_ID, batch), batch, weights, train=train, rng=rng)


def causal_batch_loss(
    model: Transformer,
    batch: np.ndarray,
    *,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Mean over sequences of the per-sequence left-to-right loss, from the
    forwards of ``_weighted_nll``'s shards, each stopping at its used width."""
    if not model.is_causal:
        raise ValueError("causal_batch_loss requires a causal model")
    b, n = batch.shape
    pad = batch == PAD_ID
    counts = (~pad).sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("causal_batch_loss: a sequence is all padding")
    weights = (~pad) / (b * counts[:, None])
    return _weighted_nll(model, causal_inputs(batch), batch, weights, train=train, rng=rng)
