"""Perplexity evaluation in sequential or random reveal order, and a
wall-clock benchmark of cached causal decoding vs full-recompute
bidirectional decoding.

Bidirectional scoring of a sequence fixes a reveal order, then scores each
token with the ground-truth tokens revealed at the earlier order positions
and [MASK] everywhere else (teacher forcing; the model never sees its own
samples). Causal models only support the sequential order.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .data import Corpus, MASK_ID, PAD_ID, causal_inputs, used_width
from .generation import GenerationConstraints, GenerationOrder, SamplerSpec, check_length, generate
from .generation import sample_token  # noqa: F401  (perfbench/tracer.py patches it here)
from .model import Transformer, _map_slices

PPL_MODES = ("sequential", "random")

#: Context only: published wall times for generating 100 sequences of 128
#: tokens on one V100 GPU at full model scale (causal cached vs
#: bidirectional full-recompute, ratio ~1.20). CPU ratios differ.
REFERENCE_GPU_SECONDS = {"causal": 105.6, "bidirectional": 126.8}

COST_NOTE = (
    "each bidirectional step recomputes the hidden states of every position; "
    "each causal step updates only the newly generated position via cached keys/values"
)

@dataclass
class PplReport:
    mode: str
    ppl: float
    token_count: int
    seed: Optional[int]
    per_sequence: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _ppl_report(mode: str, seed: Optional[int], scored: List[tuple], total_nll: float) -> PplReport:
    """The report of the ``scored`` (index, token count, NLL) sequences; each
    caller sums ``total_nll`` in its own order, which sets the last bits of ppl."""
    count = sum(c for _, c, _ in scored)
    if count == 0:
        raise ValueError("corpus contains no scorable tokens")
    per_sequence = [{"index": i, "token_count": c, "nll": nll, "ppl": math.exp(nll / c)} for i, c, nll in scored]
    return PplReport(mode, math.exp(total_nll / count), count, seed, per_sequence)


def _batched_nll(
    model: Transformer, inputs: np.ndarray, targets: np.ndarray, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-row NLL of targets under the model, one forward per slice of
    ``_slice_size`` sequences on ``_workers`` threads, each up to the used
    width of the whole batch, so every NLL has the bits of one unsliced
    forward. Rows of the all-[PAD] tail past that width are left at 0 and
    must not be read as scores.
    With ``rows`` (B,), one position per input row, only those logit rows are
    computed and the result is the (B,) NLL of ``targets[b, rows[b]]``.
    """
    w = used_width(inputs, targets)
    out = np.zeros(targets.shape if rows is None else len(rows))

    def score(sl: slice) -> None:
        if rows is None:
            logits = model.forward(inputs[sl, :w]).data
            out[sl, :w] = T.array_ops.cross_entropy_rows(logits, targets[sl, :w])
        else:
            r = rows[sl]
            logits = model.forward(inputs[sl, :w], rows=r).data
            out[sl] = T.array_ops.cross_entropy_rows(logits, targets[sl][np.arange(len(r)), r])

    _map_slices(score, model.config, inputs.shape[0], w)
    return out


def _sequence_order(ids: np.ndarray, mode: str, seed: int, index: int) -> np.ndarray:
    positions = np.flatnonzero(ids != PAD_ID)
    if mode == "sequential":
        return positions
    return np.random.default_rng([seed, index]).permutation(positions)


def score_sequence_bidirectional(
    model: Transformer, ids: np.ndarray, order: Sequence[int]
) -> Tuple[float, int]:
    """Total NLL and token count for one sequence under one reveal order.

    Builds the per-step snapshots (revealed prefix of the order, [MASK] at
    the unrevealed non-pad positions) as one batch and scores them in a
    single forward that computes one logit row per snapshot, at the
    position it predicts.
    """
    order = np.asarray(order, dtype=np.int64)
    steps = len(order)
    snapshots = np.tile(ids, (steps, 1))
    for t in range(steps):
        snapshots[t, order[t:]] = MASK_ID
    pad = ids == PAD_ID
    snapshots[:, pad] = PAD_ID
    nll = _batched_nll(model, snapshots, np.tile(ids, (steps, 1)), rows=order)
    total = float(nll.sum())
    return total, steps


def ppl_bidirectional(
    model: Transformer, corpus: Corpus, mode: str, seed: int = 0
) -> PplReport:
    """Perplexity with identity order per sequence, or one random order per
    sequence drawn from (seed, sequence index)."""
    if model.is_causal:
        raise ValueError("ppl_bidirectional requires a bidirectional model")
    if mode not in PPL_MODES:
        raise ValueError(f"mode must be one of {PPL_MODES}, got '{mode}'")
    total_nll = 0.0
    scored = []
    for idx, ids in enumerate(corpus.sequences):
        order = _sequence_order(ids, mode, seed, idx)
        if len(order) == 0:
            continue
        nll, count = score_sequence_bidirectional(model, ids, order)
        total_nll += nll
        scored.append((idx, count, nll))
    return _ppl_report(mode, seed, scored, total_nll)


def ppl_causal(model: Transformer, corpus: Corpus, mode: str = "sequential") -> PplReport:
    """Standard left-to-right teacher-forced perplexity.

    Random reveal order is rejected: a causal model cannot condition on
    later positions, so the random-order protocol has no defined value.
    """
    if not model.is_causal:
        raise ValueError("ppl_causal requires a causal model")
    if mode != "sequential":
        raise ValueError(
            "random-order perplexity is unsupported for causal models "
            "(attention cannot reach later positions); use a bidirectional model"
        )
    batch = np.stack(
        [
            np.pad(ids, (0, corpus.max_len - len(ids)), constant_values=PAD_ID)
            for ids in corpus.sequences
        ]
    )
    pad = batch == PAD_ID
    nll = _batched_nll(model, causal_inputs(batch), batch)
    nll[pad] = 0.0
    counts = (~pad).sum(axis=1)
    scored = [(i, int(c), float(nll[i].sum())) for i, c in enumerate(counts) if c]
    return _ppl_report("sequential", None, scored, float(nll.sum()))


def render_ppl_table(rows: Dict[str, Dict[str, Optional[float]]]) -> str:
    """Aligned table with one row per model and sequential/random columns."""
    header = f"{'Model':<16}  {'PPL(sequential)':>16}  {'PPL(random)':>12}"
    lines = [header, "-" * len(header)]
    for name, cols in rows.items():
        seq = cols.get("sequential")
        rnd = cols.get("random")
        seq_s = f"{seq:.4f}" if seq is not None else "N/A"
        rnd_s = f"{rnd:.4f}" if rnd is not None else "N/A"
        lines.append(f"{name:<16}  {seq_s:>16}  {rnd_s:>12}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# latency benchmark
# ---------------------------------------------------------------------------


def _generate_causal_cached(
    model: Transformer, length: int, sampler: SamplerSpec, rng: np.random.Generator
) -> np.ndarray:
    """``generate`` left to right over ``length`` positions; kept because
    ``perfbench/workloads.py`` calls it by name."""
    return generate(model, GenerationConstraints(length), GenerationOrder(tuple(range(length))), sampler, rng)[0]


def bench_latency(
    causal_model: Transformer,
    bidirectional_model: Transformer,
    count: int,
    length: int,
    sampler: SamplerSpec = SamplerSpec(),
    seed: int = 0,
) -> dict:
    """Wall-clock comparison: cached causal decoding vs full-recompute
    bidirectional decoding, generating ``count`` sequences of ``length``.

    Single-threaded sequential loops; the two models must share the same
    architecture sizes so the comparison isolates the decode strategy.
    """
    if not causal_model.is_causal or bidirectional_model.is_causal:
        raise ValueError("bench_latency needs one causal and one bidirectional model")
    ca, bi = causal_model.config, bidirectional_model.config
    sizes = ("layers", "heads", "hidden_size", "intermediate_size", "vocab_size")
    if any(getattr(ca, f) != getattr(bi, f) for f in sizes):
        raise ValueError("bench_latency requires models of identical size")
    for model in (causal_model, bidirectional_model):
        check_length(model, length)
    if count < 1 or length < 1:
        raise ValueError("count and length must be positive")

    T._erf()  # scipy's erf loads at the first GELU; load it here so neither timed loop pays the import
    constraints = GenerationConstraints(target_length=length)
    free = constraints.free_positions
    seconds, sequences = {}, {}
    for kind, model in (("causal", causal_model), ("bidirectional", bidirectional_model)):
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        out = []
        for _ in range(count):
            order = GenerationOrder.left_to_right(free) if model.is_causal else GenerationOrder.random(free, rng)
            out.append(generate(model, constraints, order, sampler, rng)[0])
        seconds[kind] = time.perf_counter() - t0
        sequences[kind] = [s.tolist() for s in out]

    return {
        "reports": [
            {"model_kind": kind, "sequence_count": count, "sequence_length": length, "seconds": seconds[kind],
             "ratio_vs_baseline": seconds[kind] / seconds["causal"]}
            for kind in seconds
        ],
        "count": count,
        "length": length,
        "cost_note": COST_NOTE,
        "reference_gpu_seconds": REFERENCE_GPU_SECONDS,
        "reference_gpu_ratio": REFERENCE_GPU_SECONDS["bidirectional"] / REFERENCE_GPU_SECONDS["causal"],
        "sequences": sequences,
    }


def render_latency_table(result: dict) -> str:
    header = f"{'Models':<16}  {'Cost Time':>12}"
    lines = [header, "-" * len(header)]
    for rep in result["reports"]:
        lines.append(f"{rep['model_kind']:<16}  {rep['seconds']:>11.3f}s")
    ratio = result["reports"][1]["seconds"] / result["reports"][0]["seconds"]
    lines.append(f"ratio (bidirectional / causal): {ratio:.3f}")
    lines.append(f"note: {result['cost_note']}")
    ref = result["reference_gpu_seconds"]
    lines.append(
        "context: full-scale GPU reference "
        f"{ref['causal']}s vs {ref['bidirectional']}s (~{result['reference_gpu_ratio']:.2f}x)"
    )
    return "\n".join(lines)
