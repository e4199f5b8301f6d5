"""Spans around calls into pmlm's modules, recorded from outside the package.

``Tracer.install`` replaces module and class attributes of pmlm with timing
wrappers and ``uninstall`` puts the originals back; nothing under ``src/``
changes. A span holds its name, start, end and the index of its parent span.
Spans stay in memory; the benchmark aggregates them and may write them out
when it ends. Self time is a span's duration minus the time its child spans
cover.

Wrapped: the tensor primitives, the vjp of every graph node they return and
``Tensor.accumulate_grad``; the training loop's loss, backward and mask
sampling calls; ``Adam.step``; ``Transformer.forward`` and
``forward_incremental``; the objectives' enumerations; sampling,
generation and the evaluation entry points.

Tensor-op time is assigned to a transformer sublayer inside a forward: an op
whose operand is a parameter takes that parameter's sublayer, ``layer_norm``
is "norm", and any other op inherits the sublayer of its tensor inputs
(the last tagged input, preferring anything over "embed"). The vjp of a node
is charged to the node's forward sublayer.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import metrics

_SUBLAYER_PREFIXES = (
    ("tok_emb", "embed"),
    ("pos_emb", "embed"),
    ("rel_bias", "embed"),
    ("ln", "norm"),
    ("out.", "head"),
)


def sublayer_of(param_name: str) -> str:
    if ".attn." in param_name:
        return "attn"
    if ".ffn." in param_name:
        return "ffn"
    if ".ln" in param_name:
        return "norm"
    for prefix, sub in _SUBLAYER_PREFIXES:
        if param_name.startswith(prefix):
            return sub
    raise ValueError(f"no sublayer for parameter '{param_name}'")


class Tracer:
    def __init__(self, pmlm):
        self.pmlm = pmlm
        self.active = False
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []
        self._child: List[float] = []
        # name -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.sublayer_s: Counter = Counter()
        self.distinct: Dict[str, set] = defaultdict(set)  # keys seen in the current operation
        self.distinct_total: Counter = Counter()  # distinct keys summed over operations
        self._patches: List[Tuple[object, str, object]] = []
        self._param_sub: Dict[int, str] = {}
        self._tags: Dict[int, Tuple[object, Optional[str]]] = {}
        self._forward_depth = 0

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _open(self) -> Tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)  # filled in by _close
        self._stack.append(idx)
        self._child.append(0.0)
        return idx, perf_counter()

    def _close(self, name: str, idx: int, start: float) -> float:
        end = perf_counter()
        self._stack.pop()
        child = self._child.pop()
        dur = end - start
        if self._child:
            self._child[-1] += dur
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent)
        a = self.agg[name]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        return dur

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """A span around ``fn``; ``hook(args, kwargs, result)`` counts work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, idx, start)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, hook: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, hook))

    # ------------------------------------------------------------------
    # tensor primitives, with sublayer tags and wrapped vjps
    # ------------------------------------------------------------------

    def _tag(self, op: str, args) -> Optional[str]:
        if op == "layer_norm":
            return "norm"
        Tensor = self.pmlm.tensor.Tensor
        inherited: List[str] = []
        for a in args:
            if not isinstance(a, Tensor):
                continue
            sub = self._param_sub.get(id(a))
            if sub is not None:
                return sub
            tagged = self._tags.get(id(a))
            if tagged is not None and tagged[1] is not None:
                inherited.append(tagged[1])
        for sub in reversed(inherited):
            if sub != "embed":
                return sub
        return inherited[-1] if inherited else None

    def _wrap_vjp(self, op: str, vjp: Callable, sub: Optional[str]) -> Callable:
        tracer = self
        name = f"tensor.{op}.vjp"

        def wrapped(g):
            if not tracer.active:
                return vjp(g)
            idx, start = tracer._open()
            try:
                return vjp(g)
            finally:
                dur = tracer._close(name, idx, start)
                if sub is not None:
                    tracer.sublayer_s[sub] += dur

        return wrapped

    def _wrap_tensor_op(self, op: str, fn: Callable) -> Callable:
        tracer = self
        name = f"tensor.{op}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx, start = tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._close(name, idx, start)
            if any(out is a for a in args):
                return out  # dropout at rate 0 hands back its input
            sub = None
            if tracer._forward_depth:
                sub = tracer._tag(op, args)
                tracer._tags[id(out)] = (out, sub)
                if sub is not None:
                    tracer.sublayer_s[sub] += dur
            if out._vjp is not None:
                tracer.counts["tensor.nodes"] += 1
                out._vjp = tracer._wrap_vjp(op, out._vjp, sub)
            return out

        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def install(self) -> None:
        p = self.pmlm
        tracer = self
        counts = self.counts
        for op in metrics.TENSOR_OPS:
            original = getattr(p.tensor, op)
            self._patches.append((p.tensor, op, original))
            setattr(p.tensor, op, self._wrap_tensor_op(op, original))

        original_acc = p.tensor.Tensor.accumulate_grad

        @functools.wraps(original_acc)
        def accumulate_grad(node, g):
            if not tracer.active:
                return original_acc(node, g)
            fresh = node.grad is None
            idx, start = tracer._open()
            try:
                return original_acc(node, g)
            finally:
                tracer._close("tensor.accumulate_grad", idx, start)
                if fresh:
                    counts["tensor.grad_buffers"] += 1
                    counts["tensor.grad_bytes"] += node.grad.nbytes
                    if not node._parents:
                        counts["tensor.leaf_grad_buffers"] += 1

        self._patches.append((p.tensor.Tensor, "accumulate_grad", original_acc))
        p.tensor.Tensor.accumulate_grad = accumulate_grad

        pad = p.data.PAD_ID

        def masked_loss_hook(args, kwargs, result):
            counts["model.rows_used"] += sum(pattern.k for pattern in args[2])

        def causal_loss_hook(args, kwargs, result):
            counts["model.rows_used"] += int(np.count_nonzero(np.asarray(args[1]) != pad))

        def sample_patterns_hook(args, kwargs, result):
            batch = np.asarray(args[0])
            counts["masking.patterns"] += len(result)
            counts["masking.masked"] += sum(pattern.k for pattern in result)
            counts["masking.maskable"] += int(np.count_nonzero(batch != pad))

        def sample_mask_hook(args, kwargs, result):
            counts["masking.sample_mask_calls"] += 1

        self._patch(p.training, "masked_batch_loss", "objectives.masked_batch_loss", masked_loss_hook)
        self._patch(p.training, "causal_batch_loss", "objectives.causal_batch_loss", causal_loss_hook)
        self._patch(p.training, "backward", "tensor.backward")
        self._patch(p.training, "_sample_patterns", "masking.sample", sample_patterns_hook)
        self._patch(p.training, "sample_mask", "masking.sample_mask", sample_mask_hook)
        self._patch(p.training, "ingest", "data.ingest")
        self._patch(p.training, "save_checkpoint", "checkpoint.save")

        def adam_hook(args, kwargs, result):
            opt, params = args[0], args[1]
            total = 0
            for name, param in params.items():
                total += param.data.nbytes + opt.m[name].nbytes + opt.v[name].nbytes
                if param.grad is not None:
                    total += param.grad.nbytes
            counts["optim.adam.bytes"] += total

        self._patch(p.optim.Adam, "step", "optim.adam", adam_hook)

        original_forward = p.model.Transformer.forward

        @functools.wraps(original_forward)
        def forward(model, tokens, **kwargs):
            if not tracer.active:
                return original_forward(model, tokens, **kwargs)
            counts["model.rows_computed"] += int(np.asarray(tokens).size)
            tracer._param_sub = {id(t): sublayer_of(n) for n, t in model.params.items()}
            tracer._forward_depth += 1
            idx, start = tracer._open()
            try:
                return original_forward(model, tokens, **kwargs)
            finally:
                tracer._close("model.forward", idx, start)
                tracer._forward_depth -= 1
                tracer._tags.clear()

        self._patches.append((p.model.Transformer, "forward", original_forward))
        p.model.Transformer.forward = forward
        self._patch(p.model.Transformer, "forward_incremental", "model.forward_incremental")

        def conditional_hook(args, kwargs, result):
            model, x, positions = args[0], np.asarray(args[1]), tuple(args[2])
            counts["model.rows_used"] += len(positions)
            tracer.distinct["conditional"].add((id(model), x.tobytes(), positions))

        def mask_probability_hook(args, kwargs, result):
            pattern, prior = args[0], args[1]
            tracer.distinct["mask_probability"].add((pattern.n_maskable, pattern.k, prior))

        self._patch(p.objectives, "conditional_log_probs", "objectives.conditional_log_probs", conditional_hook)
        self._patch(p.objectives, "mask_probability", "masking.mask_probability", mask_probability_hook)
        self._patch(p.objectives, "enumerate_masks", "masking.enumerate_masks")
        self._patch(p.objectives, "audit_duplication_factors", "objectives.audit")
        self._patch(p.objectives, "verify_equivalence", "objectives.verify")
        self._patch(p.objectives, "pmlm_exact_loss", "objectives.pmlm_exact_loss")

        def generate_hook(args, kwargs, result):
            counts["model.rows_used"] += len(args[2].sigma)

        self._patch(p.generation, "generate", "generation.generate", generate_hook)
        self._patch(p.generation, "sample_token", "generation.sample_token")
        self._patch(p.evaluation, "sample_token", "generation.sample_token")
        self._patch(p.evaluation, "_generate_causal_cached", "generation.decode_cached")

        def score_hook(args, kwargs, result):
            counts["model.rows_used"] += len(args[2])

        def batched_hook(args, kwargs, result):
            counts["evaluation.batched_rows"] += int(np.asarray(args[1]).shape[0])

        def ppl_causal_hook(args, kwargs, result):
            counts["model.rows_used"] += result.token_count

        self._patch(p.evaluation, "score_sequence_bidirectional", "evaluation.score_sequence", score_hook)
        self._patch(p.evaluation, "_batched_nll", "evaluation.batched_nll", batched_hook)
        self._patch(p.evaluation, "ppl_causal", "evaluation.ppl_causal", ppl_causal_hook)
        self._patch(p.evaluation, "ppl_bidirectional", "evaluation.ppl_bidirectional")

    def next_op(self) -> None:
        """Close an operation: distinct keys are counted per operation."""
        for key, seen in self.distinct.items():
            self.distinct_total[key] += len(seen)
            seen.clear()

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def total_ms(self, name: str) -> float:
        return self.agg[name][1] * 1e3 if name in self.agg else 0.0

    def self_ms(self, name: str) -> float:
        return self.agg[name][2] * 1e3 if name in self.agg else 0.0

    def calls(self, name: str) -> int:
        return int(self.agg[name][0]) if name in self.agg else 0

    def covered_s(self, start: float, end: float) -> float:
        """Seconds of [start, end] covered by top-level spans."""
        covered = 0.0
        for span in self.spans:
            if span is None or span[3] != -1:
                continue
            lo, hi = max(span[1], start), min(span[2], end)
            if hi > lo:
                covered += hi - lo
        return covered

    def layer_metrics(self, n_ops: int) -> Dict[str, float]:
        """Per-layer metrics, normalised per operation unless stated."""
        per = 1.0 / max(n_ops, 1)
        c = self.counts
        out: Dict[str, float] = {}
        for op in metrics.TENSOR_OPS:
            out[f"tensor.{op}.calls"] = self.calls(f"tensor.{op}") * per
            out[f"tensor.{op}.fwd_ms"] = self.total_ms(f"tensor.{op}") * per
            out[f"tensor.{op}.vjp_ms"] = self.total_ms(f"tensor.{op}.vjp") * per
        out["tensor.backward.ms"] = self.total_ms("tensor.backward") * per
        out["tensor.nodes"] = c["tensor.nodes"] * per
        out["tensor.grad_buffers"] = c["tensor.grad_buffers"] * per
        out["tensor.grad_bytes"] = c["tensor.grad_bytes"] * per
        out["tensor.leaf_grad_ratio"] = _ratio(c["tensor.leaf_grad_buffers"], c["tensor.grad_buffers"])
        out["optim.adam.calls"] = self.calls("optim.adam") * per
        out["optim.adam.ms"] = self.total_ms("optim.adam") * per
        out["optim.adam.bytes"] = c["optim.adam.bytes"] * per
        out["model.forward.calls"] = self.calls("model.forward") * per
        out["model.forward.ms"] = self.total_ms("model.forward") * per
        out["model.forward.rows"] = c["model.rows_computed"] * per
        out["model.logits.rows_used_ratio"] = _ratio(c["model.rows_used"], c["model.rows_computed"])
        for sub in metrics.SUBLAYERS:
            out[f"model.sublayer.{sub}.ms"] = self.sublayer_s[sub] * 1e3 * per
        incremental = self.calls("model.forward_incremental")
        out["model.forward_incremental.calls"] = incremental * per
        out["model.forward_incremental.ms"] = _ratio(self.total_ms("model.forward_incremental"), incremental)
        out["masking.sample.ms"] = self.total_ms("masking.sample") * per
        out["masking.k0_redraw_ratio"] = _ratio(
            c["masking.sample_mask_calls"] - c["masking.patterns"], c["masking.patterns"]
        )
        out["masking.masked_fraction"] = _ratio(c["masking.masked"], c["masking.maskable"])
        probability_calls = self.calls("masking.mask_probability")
        out["masking.mask_probability.calls"] = probability_calls * per
        out["masking.mask_probability.ms"] = self.total_ms("masking.mask_probability") * per
        out["masking.mask_probability.distinct_ratio"] = _ratio(
            self.distinct_total["mask_probability"], probability_calls
        )
        out["masking.enumerate_masks.ms"] = self.total_ms("masking.enumerate_masks") * per
        out["objectives.masked_batch_loss.self_ms"] = self.self_ms("objectives.masked_batch_loss") * per
        out["objectives.causal_batch_loss.self_ms"] = self.self_ms("objectives.causal_batch_loss") * per
        conditional_calls = self.calls("objectives.conditional_log_probs")
        out["objectives.conditional_log_probs.calls"] = conditional_calls * per
        out["objectives.conditional_log_probs.ms"] = self.total_ms("objectives.conditional_log_probs") * per
        out["objectives.conditional_distinct_ratio"] = _ratio(self.distinct_total["conditional"], conditional_calls)
        out["objectives.audit.ms"] = self.total_ms("objectives.audit") * per
        out["objectives.verify.self_ms"] = self.self_ms("objectives.verify") * per
        tokens = self.calls("generation.sample_token")
        out["generation.steps"] = tokens * per
        out["generation.sample_token.ms"] = _ratio(self.total_ms("generation.sample_token"), tokens)
        out["generation.self_ms"] = _ratio(
            self.self_ms("generation.generate") + self.self_ms("generation.decode_cached"), tokens
        )
        out["evaluation.score_sequence.self_ms"] = self.self_ms("evaluation.score_sequence") * per
        out["evaluation.batched_rows"] = c["evaluation.batched_rows"] * per
        out["evaluation.ppl_causal.ms"] = self.total_ms("evaluation.ppl_causal") * per
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
