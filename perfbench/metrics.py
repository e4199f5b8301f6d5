"""The benchmark's metric catalogue and the statistics it reports.

Every workload prints the same end-to-end metrics; what one "operation" is
depends on the workload (an optimizer step, a scored sequence, a generated
sequence, a verifier call). ``PER_WORKLOAD_NAMES`` maps the per-workload names used
in discussion (``train.upmlm.step_ms``, ``verify.check_s``, ...) onto the
(workload, metric) pair that carries them.

Per-layer metrics come from a separate traced run. Unless the description
says otherwise, a per-layer time or count is a total over the traced phase
divided by the number of timed operations in it (per optimizer step on the
training workloads).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

WORKLOADS: Dict[str, str] = {
    "train.upmlm": "pmlm.training.train on the upmlm preset: the only path with backward, Adam and mask sampling; bidirectional attention",
    "train.gpt-like": "pmlm.training.train on the gpt-like preset: backward and Adam on the causal path, no mask sampling",
    "infer.ppl_random": "random-order ppl_bidirectional: one no-grad forward of 64 snapshots per sequence, BLAS-bound, 1 logit row read per snapshot",
    "infer.ppl_causal": "ppl_causal on 32-sequence batches: one causal no-grad forward, every non-pad logit row read",
    "infer.generate": "any-order generate with anchors and a top-k sampler: one single-sequence forward per token, Python-overhead-bound",
    "infer.decode_cached": "cached causal decode as bench_latency drives it: the only user of forward_incremental",
    "verify.check": "verify_equivalence at n=6 on fresh models: pure-Python 2^n masks, n! orders and the integer audit",
    "verify.exact": "pmlm_exact_loss at n=8 under the point-mass 0.15 and truncated (0.2, 0.7) priors: the scipy quad path",
}

# name -> (unit, better, bound, description)
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "setup_s": ("s", "lower", 0.25, "import time plus the median of repeated set-ups (corpus synthesis and ingest, model init, checkpoint save/load), scaled by a pure-Python reference loop"),
    "peak_rss_mb": ("MB", "lower", 0.1, "peak resident memory of the benchmark process"),
    "op_ms": ("ms", "lower", 0.2, "median time of one operation after warm-up, scaled by the reference kernel"),
    "op_ms.tail": ("ms", "lower", 0.25, "the highest percentile of scaled operation time with at least ten samples beyond it"),
    "tokens_per_s": ("tokens/s", "higher", 0.2, "median over operations of tokens per scaled second"),
    "loss_nats": ("nats", "lower", 0.1, "the mean negative log-likelihood the workload's first checked operation produced"),
}

# What one operation and one token are, per workload.
OPERATION: Dict[str, str] = {
    "train.upmlm": "one optimizer step; tokens = batch x length positions",
    "train.gpt-like": "one optimizer step; tokens = batch x length positions",
    "infer.ppl_random": "ppl_bidirectional on one full-length held-out sequence; tokens = scored tokens",
    "infer.ppl_causal": "ppl_causal on one 32-sequence batch; tokens = scored tokens",
    "infer.generate": "one generated sequence of 64; tokens = generated (non-anchor) tokens",
    "infer.decode_cached": "four cached causal decodes of 64; tokens = decoded tokens",
    "verify.check": "one verify_equivalence call at n=6; tokens = n",
    "verify.exact": "one pmlm_exact_loss call at n=8 (the mean of a point-mass and a truncated call); tokens = n",
}

# The per-workload names used in discussion -> (workload, metric, scale).
PER_WORKLOAD_NAMES: Dict[str, Tuple[str, str, float]] = {
    "train.upmlm.step_ms": ("train.upmlm", "op_ms", 1.0),
    "train.gpt-like.step_ms": ("train.gpt-like", "op_ms", 1.0),
    "train.upmlm.step_ms.tail": ("train.upmlm", "op_ms.tail", 1.0),
    "train.gpt-like.step_ms.tail": ("train.gpt-like", "op_ms.tail", 1.0),
    "train.upmlm.loss_end": ("train.upmlm", "loss_nats", 1.0),
    "train.gpt-like.loss_end": ("train.gpt-like", "loss_nats", 1.0),
    "infer.ppl_random.tokens_per_s": ("infer.ppl_random", "tokens_per_s", 1.0),
    "infer.ppl_causal.tokens_per_s": ("infer.ppl_causal", "tokens_per_s", 1.0),
    "infer.generate.tokens_per_s": ("infer.generate", "tokens_per_s", 1.0),
    "infer.decode_cached.tokens_per_s": ("infer.decode_cached", "tokens_per_s", 1.0),
    "verify.check_s": ("verify.check", "op_ms", 1e-3),
    "verify.exact_s": ("verify.exact", "op_ms", 1e-3),
}

TENSOR_OPS = (
    "matmul", "add", "mul", "softmax", "layer_norm", "gelu",
    "dropout", "take", "cross_entropy_rows", "reshape", "transpose",
)
SUBLAYERS = ("embed", "attn", "ffn", "norm", "head")

_TRAIN = "train.upmlm.step_ms, train.gpt-like.step_ms"
_TRAIN_U = "train.upmlm.step_ms"


def _layer_catalogue() -> Dict[str, Tuple[str, str, str, str]]:
    """name -> (unit, better, end-to-end metric it should move, mostly / little)."""
    cat: Dict[str, Tuple[str, str, str, str]] = {}
    for op in TENSOR_OPS:
        moves = f"{_TRAIN}, peak_rss_mb; forward ops also infer.ppl_*.tokens_per_s"
        cat[f"tensor.{op}.calls"] = ("count", "lower", moves, "train / verify")
        cat[f"tensor.{op}.fwd_ms"] = ("ms", "lower", moves, "train / verify")
        cat[f"tensor.{op}.vjp_ms"] = ("ms", "lower", moves, "train / verify")
    for name, unit, better in (
        ("tensor.backward.ms", "ms", "lower"),
        ("tensor.nodes", "count", "lower"),
        ("tensor.grad_buffers", "count", "lower"),
        ("tensor.grad_bytes", "B", "lower"),
        ("tensor.leaf_grad_ratio", "ratio", "higher"),
    ):
        cat[name] = (unit, better, f"{_TRAIN}, peak_rss_mb", "train / verify")
    for name, unit in (("optim.adam.calls", "count"), ("optim.adam.ms", "ms"), ("optim.adam.bytes", "B")):
        cat[name] = (unit, "lower", _TRAIN, "train / infer (absent)")
    model_moves = (
        "infer.generate.tokens_per_s, infer.ppl_random.tokens_per_s, "
        f"infer.decode_cached.tokens_per_s, {_TRAIN}"
    )
    cat["model.forward.calls"] = ("count", "lower", model_moves, "infer, train / verify")
    cat["model.forward.ms"] = ("ms", "lower", model_moves, "infer, train / verify")
    cat["model.forward.rows"] = ("count", "lower", model_moves, "infer, train / verify")
    cat["model.logits.rows_used_ratio"] = ("ratio", "higher", model_moves, "infer, train / verify")
    for sub in SUBLAYERS:
        cat[f"model.sublayer.{sub}.ms"] = ("ms", "lower", model_moves, "infer, train / verify")
    cat["model.forward_incremental.calls"] = ("count", "lower", "infer.decode_cached.tokens_per_s", "infer / verify")
    cat["model.forward_incremental.ms"] = ("ms", "lower", "infer.decode_cached.tokens_per_s", "infer / verify")
    mask_moves = f"{_TRAIN_U}, verify.exact_s"
    cat["masking.sample.ms"] = ("ms", "lower", mask_moves, "train, verify / infer")
    cat["masking.k0_redraw_ratio"] = ("ratio", "lower", mask_moves, "train, verify / infer")
    cat["masking.masked_fraction"] = ("ratio", "higher", mask_moves, "train, verify / infer")
    cat["masking.mask_probability.calls"] = ("count", "lower", mask_moves, "train, verify / infer")
    cat["masking.mask_probability.ms"] = ("ms", "lower", mask_moves, "train, verify / infer")
    cat["masking.mask_probability.distinct_ratio"] = ("ratio", "higher", mask_moves, "train, verify / infer")
    cat["masking.enumerate_masks.ms"] = ("ms", "lower", mask_moves, "train, verify / infer")
    obj_moves = f"verify.check_s, verify.exact_s, {_TRAIN}"
    cat["objectives.masked_batch_loss.self_ms"] = ("ms", "lower", obj_moves, "verify / infer")
    cat["objectives.causal_batch_loss.self_ms"] = ("ms", "lower", obj_moves, "verify / infer")
    cat["objectives.conditional_log_probs.calls"] = ("count", "lower", obj_moves, "verify / infer")
    cat["objectives.conditional_log_probs.ms"] = ("ms", "lower", obj_moves, "verify / infer")
    cat["objectives.conditional_distinct_ratio"] = ("ratio", "higher", obj_moves, "verify / infer")
    cat["objectives.audit.ms"] = ("ms", "lower", obj_moves, "verify / infer")
    cat["objectives.verify.self_ms"] = ("ms", "lower", obj_moves, "verify / infer")
    gen = "infer.generate.tokens_per_s"
    cat["generation.steps"] = ("count", "lower", gen, "infer / train")
    cat["generation.sample_token.ms"] = ("ms", "lower", gen, "infer / train")
    cat["generation.self_ms"] = ("ms", "lower", gen, "infer / train")
    ev = "infer.ppl_random.tokens_per_s, infer.ppl_causal.tokens_per_s"
    cat["evaluation.score_sequence.self_ms"] = ("ms", "lower", ev, "infer / train")
    cat["evaluation.batched_rows"] = ("count", "lower", ev, "infer / train")
    cat["evaluation.ppl_causal.ms"] = ("ms", "lower", ev, "infer / train")
    cat["training.loop_self_ms"] = ("ms", "lower", _TRAIN, "train")
    for name, unit in (
        ("data.synthesize_s", "s"),
        ("data.ingest_s", "s"),
        ("checkpoint.save_s", "s"),
        ("checkpoint.load_s", "s"),
        ("checkpoint.bytes", "B"),
    ):
        cat[name] = (unit, "lower", "setup_s", "infer, train")
    cat["cli.import_s"] = ("s", "lower", "setup_s", "every workload")
    cat["trace.overhead_ratio"] = ("ratio", "lower", "none: traced op_ms / untraced op_ms - 1 in one process", "every workload")
    cat["trace.step_coverage"] = ("ratio", "higher", "none: share of each training step covered by spans", "train")
    return cat


PER_LAYER = _layer_catalogue()

# Normalisations that differ from "per operation".
PER_TOKEN = {
    "generation.sample_token.ms",
    "generation.self_ms",
    "model.forward_incremental.ms",
}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). With fewer than 11 samples
    the maximum is returned and the percentile reads 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def benchmark_json(run_seconds: int) -> dict:
    """The BENCHMARK.json this catalogue describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound, _) in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b, _, _) in PER_LAYER.items()],
    }


def _per(name: str, unit: str) -> str:
    if name in PER_TOKEN:
        return "token"
    if unit == "ratio":
        return "ratio of totals"
    if name.split(".")[0] in ("data", "checkpoint", "cli"):
        return "median call in set-up"
    return "operation"


def metric_map() -> dict:
    """The contents of metric_map.json: what each metric means and should move."""
    return {
        "workloads": {n: {"why": why, "operation": OPERATION[n]} for n, why in WORKLOADS.items()},
        "end_to_end": {n: {"unit": u, "better": b, "bound": bound, "means": d} for n, (u, b, bound, d) in END_TO_END.items()},
        "named": {n: {"workload": w, "metric": m, "scale": s} for n, (w, m, s) in PER_WORKLOAD_NAMES.items()},
        "per_layer": {
            n: {"unit": u, "better": b, "moves": moves, "mostly / little": where, "per": _per(n, u)}
            for n, (u, b, moves, where) in PER_LAYER.items()
        },
    }
