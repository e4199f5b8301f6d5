"""Arbitrary-order autoregressive generation.

A sequence starts as all [MASK] except for anchor tokens fixed at chosen
positions. Each step samples the next position in the order from its logit
row, writes the token in, and repeats until no [MASK] remains. A causal
model decodes left to right after a prefix of anchors, from a key/value cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import MASK_ID, PAD_ID, UNK_ID, Vocabulary, detokenize
from .model import DecodeCache, Transformer, _array_ops

EXCLUDED_CANDIDATES = (PAD_ID, MASK_ID, UNK_ID)

SAMPLER_KINDS = ("greedy", "temperature", "top_k")


@dataclass(frozen=True)
class SamplerSpec:
    kind: str = "greedy"
    temperature: float = 1.0
    k: int = 40

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"sampler kind must be one of {SAMPLER_KINDS}, got '{self.kind}'")
        if not (np.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")
        if self.k < 1:
            raise ValueError(f"top-k width must be >= 1, got {self.k}")


@dataclass(frozen=True)
class GenerationOrder:
    """Sequence of distinct positions to fill."""

    sigma: Tuple[int, ...]

    def __post_init__(self):
        if len(set(self.sigma)) != len(self.sigma):
            raise ValueError("generation order repeats a position")

    @classmethod
    def left_to_right(cls, positions: Sequence[int]) -> "GenerationOrder":
        return cls(tuple(sorted(int(p) for p in positions)))

    @classmethod
    def random(cls, positions: Sequence[int], rng: np.random.Generator) -> "GenerationOrder":
        perm = rng.permutation(np.asarray(sorted(positions), dtype=np.int64))
        return cls(tuple(int(p) for p in perm))

    @classmethod
    def explicit(cls, sigma: Sequence[int]) -> "GenerationOrder":
        return cls(tuple(int(p) for p in sigma))


@dataclass(frozen=True)
class GenerationConstraints:
    """Anchor tokens pinned at fixed positions plus the target length."""

    target_length: int
    anchors: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.target_length < 1:
            raise ValueError("target_length must be >= 1")
        for pos, tok in self.anchors.items():
            if not 0 <= pos < self.target_length:
                raise ValueError(f"anchor position {pos} outside sequence of length {self.target_length}")
            if tok in (MASK_ID, PAD_ID):
                raise ValueError(f"anchor at position {pos} may not be [MASK] or [PAD]")

    @property
    def free_positions(self) -> List[int]:
        return [p for p in range(self.target_length) if p not in self.anchors]


@dataclass(frozen=True)
class TraceStep:
    position: int
    token: int
    snapshot: Tuple[int, ...]


@dataclass
class GenerationTrace:
    target_length: int
    anchors: Dict[int, int]
    steps: List[TraceStep] = field(default_factory=list)

    @property
    def order(self) -> Tuple[int, ...]:
        return tuple(s.position for s in self.steps)

    def to_jsonl(self, vocab: Optional[Vocabulary] = None, tokenizer_kind: str = "char") -> str:
        """One JSON object per step; positions and steps are 1-based to match
        the tabular rendering."""
        lines = []
        for i, s in enumerate(self.steps):
            rec = {
                "step": i + 1,
                "position": s.position + 1,
                "token": s.token,
                "snapshot_ids": list(s.snapshot),
            }
            if vocab is not None:
                rec["token_text"] = vocab.decode(s.token)
                rec["snapshot"] = snapshot_text(s.snapshot, vocab, tokenizer_kind)
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + "\n"


def snapshot_text(snapshot: Sequence[int], vocab: Vocabulary, tokenizer_kind: str) -> str:
    """Render a snapshot with '_' standing in for [MASK]."""
    toks = ["_" if t == MASK_ID else vocab.decode(int(t)) for t in snapshot]
    return detokenize(toks, tokenizer_kind)


def render_trace_table(trace: GenerationTrace, vocab: Optional[Vocabulary] = None,
                       tokenizer_kind: str = "char") -> str:
    """Aligned step/prediction-index/state table for a generation trace."""
    header = f"{'Step':>4}  {'Index':>5}  State"
    rows = [header, "-" * len(header)]
    for i, s in enumerate(trace.steps):
        state = (
            snapshot_text(s.snapshot, vocab, tokenizer_kind)
            if vocab is not None
            else " ".join("_" if t == MASK_ID else str(t) for t in s.snapshot)
        )
        rows.append(f"{i + 1:>4}  {s.position + 1:>5}  {state}")
    order = "->".join(str(p + 1) for p in trace.order)
    rows.append(f"Generation order: {order}")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# token sampling
# ---------------------------------------------------------------------------


def sample_token(
    logit_row: np.ndarray,
    sampler: SamplerSpec,
    rng: Optional[np.random.Generator] = None,
) -> int:
    """Pick a token id from one logit row.

    greedy takes the argmax (lowest id wins ties); temperature samples from
    softmax(logits / T); top_k renormalizes over the k best after temperature
    scaling. The candidates are the ids past the leading ``EXCLUDED_CANDIDATES``.
    """
    logits = np.asarray(logit_row, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError(f"sample_token expects one logit row, got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise ValueError("sample_token: non-finite logits")
    first = len(EXCLUDED_CANDIDATES)
    logits = logits[first:]  # a view: written to nowhere below
    if not logits.size:
        raise ValueError("sample_token: every candidate token is excluded")

    if sampler.kind == "greedy":
        return first + int(logits.argmax())

    best = None
    if sampler.kind == "top_k" and sampler.k < logits.size:
        # rank by logit descending, ties by lower id; keep the k best in id order
        best = (-logits).argsort(kind="stable")[: sampler.k]
        best.sort()
        logits = logits[best]
    if rng is None:
        raise ValueError(f"sampler kind '{sampler.kind}' requires an rng")
    weights = logits - logits.max()
    if sampler.temperature != 1.0:
        with np.errstate(over="ignore"):  # shifted first: a tiny T sends the gaps to -inf, whose weights are 0
            weights /= sampler.temperature
    np.exp(weights, out=weights)
    cdf = (weights / np.add.reduce(weights)).cumsum()
    pick = min(int(cdf.searchsorted(rng.random(), side="right")), logits.size - 1)
    return first + (pick if best is None else int(best[pick]))


# ---------------------------------------------------------------------------
# generation loops
# ---------------------------------------------------------------------------


def check_length(model: Transformer, n: int) -> None:
    """Reject a target length past the model's max_len, before an order of it is built."""
    if n > model.config.max_len:
        raise ValueError(f"target_length {n} exceeds model max_len {model.config.max_len}")


def generate(
    model: Transformer,
    constraints: GenerationConstraints,
    order: GenerationOrder,
    sampler: SamplerSpec = SamplerSpec(),
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, GenerationTrace]:
    """Fill every non-anchor position in the given order, one per step: a
    bidirectional model by one no-grad run of the block on the current
    snapshot (the last block and the head only at that position), a causal
    model left to right after a prefix of anchors, from one key/value cache.
    The order must cover exactly the non-anchor positions. The inputs are
    checked once, here: with ``sample_token``'s candidate ids, that covers
    every token the steps give the block, so they skip the checks of
    ``forward`` and ``forward_incremental``.
    """
    n = constraints.target_length
    check_length(model, n)
    free = constraints.free_positions
    if sorted(order.sigma) != free:
        raise ValueError(
            "generation order and anchors must partition the positions: "
            f"order covers {sorted(set(order.sigma))}, free positions are {free}"
        )
    if model.is_causal and order.sigma != tuple(range(n - len(free), n)):
        raise ValueError("a causal model generates only left to right, after anchors that form a prefix (the prompt)")
    for pos, tok in constraints.anchors.items():
        if not 0 <= tok < model.config.vocab_size:
            raise ValueError(f"anchor token {tok} outside vocabulary")

    inputs = np.full(n + 1, MASK_ID, dtype=np.int64)  # [MASK], then the sequence: a causal model's inputs
    seq = inputs[1:]
    for pos, tok in constraints.anchors.items():
        seq[pos] = tok
    trace = GenerationTrace(target_length=n, anchors=dict(constraints.anchors))
    ops, arrays = _array_ops(model.config, n, n), model._arrays()
    cache = DecodeCache(model) if model.is_causal else None
    for pos in order.sigma:
        if model.is_causal:
            row = model._extend(cache, inputs[: pos + 1])
        else:
            row = model._run(ops, arrays, seq[None, :], rows=np.array([pos]))[0, 0]
        token = sample_token(row, sampler, rng)
        seq[pos] = token
        trace.steps.append(TraceStep(position=pos, token=token, snapshot=tuple(seq.tolist())))
    return seq, trace


def generate_left_to_right(
    model: Transformer,
    prompt: Sequence[int],
    target_length: int,
    sampler: SamplerSpec = SamplerSpec(),
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Anchor the prompt as a prefix and fill the rest in identity order."""
    prompt = [int(t) for t in prompt]
    if len(prompt) >= target_length:
        raise ValueError(
            f"prompt length {len(prompt)} must be shorter than target_length {target_length}"
        )
    constraints = GenerationConstraints(
        target_length=target_length, anchors={i: t for i, t in enumerate(prompt)}
    )
    order = GenerationOrder.left_to_right(constraints.free_positions)
    seq, _ = generate(model, constraints, order, sampler, rng)
    return seq


def replay_trace(
    model: Transformer,
    trace: GenerationTrace,
    sampler: SamplerSpec = SamplerSpec(),
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Re-run a trace's order and anchors and fail loudly on any divergence.

    With the greedy sampler this is fully deterministic; for stochastic
    samplers pass an rng seeded identically to the original run.
    """
    constraints = GenerationConstraints(trace.target_length, trace.anchors)
    seq, replayed = generate(model, constraints, GenerationOrder.explicit(trace.order), sampler, rng)
    for step, (s, r) in enumerate(zip(trace.steps, replayed.steps)):
        if r.token != s.token:
            raise ValueError(
                f"trace replay diverged at step {step}: recorded token {s.token}, replayed {r.token}"
            )
        if r.snapshot != s.snapshot:
            raise ValueError(f"trace replay snapshot mismatch at step {step}")
    return seq
