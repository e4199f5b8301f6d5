"""Command-line surface: corpus synthesis, training, generation, perplexity
evaluation, the equivalence verifier, and the latency benchmark.

Every subcommand that takes --seed is deterministic for a fixed seed on one
build. Reports go to stdout as text; pass --out to also write JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .checkpoint import load_checkpoint, write_atomic
from .data import Vocabulary, detokenize, ingest, write_synthetic_corpus
from .evaluation import (
    PPL_MODES,
    bench_latency,
    ppl_bidirectional,
    ppl_causal,
    render_latency_table,
    render_ppl_table,
)
from .generation import (
    SAMPLER_KINDS,
    GenerationConstraints,
    GenerationOrder,
    SamplerSpec,
    check_length,
    generate,
    render_trace_table,
)
from .model import POSITIONAL_KINDS, Transformer, TransformerConfig
from .objectives import verify_equivalence
from .training import PRESET_NAMES, RunConfig, TrainingDiverged, preset, train


def _write_json(path: Optional[str], payload: dict) -> None:
    if path:
        write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def parse_anchor_file(path: str, vocab: Vocabulary, tokenizer_kind: str, length: int) -> Dict[int, int]:
    """Lines of ``<position>:<token>`` with 1-based positions up to ``length``."""
    anchors: Dict[int, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        head, sep, tok = line.partition(":")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected '<position>:<token>', got '{line}'")
        try:
            pos = int(head)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: position '{head}' is not an integer") from None
        if pos < 1:
            raise ValueError(f"{path}:{lineno}: positions are 1-based, got {pos}")
        if pos > length:
            raise ValueError(f"{path}:{lineno}: position {pos} is past --length {length}")
        if tokenizer_kind == "whitespace":
            tok = tok.strip()
        if tokenizer_kind == "char" and len(tok) != 1:
            raise ValueError(f"{path}:{lineno}: char tokenizer needs a single character, got '{tok}'")
        if not tok:
            raise ValueError(f"{path}:{lineno}: empty anchor token")
        if tok not in vocab.index:
            raise ValueError(f"{path}:{lineno}: token '{tok}' is not in the vocabulary")
        if pos - 1 in anchors:
            raise ValueError(f"{path}:{lineno}: position {pos} appears twice")
        anchors[pos - 1] = vocab.encode(tok)
    return anchors


def parse_order_file(path: str, length: int) -> list[int]:
    """Whitespace-separated 1-based positions up to ``length``, as 0-based ones."""
    text = Path(path).read_text(encoding="utf-8")
    positions = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for field in line.split():
            try:
                pos = int(field)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: order entry '{field}' is not an integer") from None
            if pos < 1:
                raise ValueError(f"{path}:{lineno}: order positions are 1-based, got {pos}")
            if pos > length:
                raise ValueError(f"{path}:{lineno}: position {pos} is past --length {length}")
            positions.append(pos - 1)
    if not positions:
        raise ValueError(f"{path}: order file is empty")
    return positions


def _load_model(path: str):
    model, config = load_checkpoint(path)
    vocab, tokenizer_kind = config.get("vocab"), config.get("tokenizer", "char")
    if vocab is not None:
        size = model.config.vocab_size
        if not (isinstance(vocab, list) and len(vocab) == size and all(isinstance(t, str) for t in vocab)):
            raise ValueError(f"checkpoint {path}: vocab must be a list of {size} strings, one per token id")
        vocab = Vocabulary(vocab)
    if not isinstance(tokenizer_kind, str):
        raise ValueError(f"checkpoint {path}: tokenizer must be a string, got {type(tokenizer_kind).__name__}")
    return model, vocab, tokenizer_kind


def _sampler_from_args(args) -> SamplerSpec:
    return SamplerSpec(kind=args.sampler, temperature=args.temperature, k=args.top_k)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_make_corpus(args) -> int:
    path = write_synthetic_corpus(args.out, n_bytes=args.bytes, seed=args.seed)
    print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


def cmd_train(args) -> int:
    if args.config:
        given = [a.option_strings[0] for a in args.run_flags if getattr(args, a.dest) is not None]
        if given:
            raise ValueError(f"--config holds the whole run and excludes {', '.join(given)}")
        config = RunConfig.from_json_file(args.config)
    else:
        if not (args.preset and args.corpus and args.checkpoint):
            raise ValueError("train needs either --config or --preset with --corpus and --checkpoint")
        keys = ("steps", "batch_size", "learning_rate", "seed", "max_len", "positional_kind", "loss_log_path")
        overrides = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
        config = preset(args.preset, args.corpus, args.checkpoint, **overrides)
    result = train(config, quiet=args.quiet)
    print(f"checkpoint written to {result.checkpoint_path}")
    if result.loss_log_path:
        print(f"loss log written to {result.loss_log_path}")
    print(f"final loss {result.losses[-1]:.6f} over {len(result.losses)} steps")
    return 0


def cmd_generate(args) -> int:
    if args.order_file and args.order:
        raise ValueError(f"--order-file sets the order and excludes --order {args.order}")
    model, vocab, tokenizer_kind = _load_model(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    anchors: Dict[int, int] = {}
    if args.anchors:
        if vocab is None:
            raise ValueError("checkpoint carries no vocabulary; anchors cannot be resolved")
        anchors = parse_anchor_file(args.anchors, vocab, tokenizer_kind, args.length)
    constraints = GenerationConstraints(target_length=args.length, anchors=anchors)
    check_length(model, args.length)
    if args.order_file:
        order = GenerationOrder.explicit(parse_order_file(args.order_file, args.length))
    elif args.order == "ltr":
        order = GenerationOrder.left_to_right(constraints.free_positions)
    else:
        order = GenerationOrder.random(constraints.free_positions, rng)
    sampler = _sampler_from_args(args)
    seq, trace = generate(model, constraints, order, sampler, rng)

    text = None
    if vocab is not None:
        text = detokenize([vocab.decode(int(t)) for t in seq], tokenizer_kind)
        print(text)
    else:
        print(" ".join(str(int(t)) for t in seq))
    if args.show_trace:
        print(render_trace_table(trace, vocab, tokenizer_kind))
    if args.trace:
        write_atomic(args.trace, trace.to_jsonl(vocab, tokenizer_kind).encode("utf-8"))
        print(f"trace written to {args.trace}")
    _write_json(
        args.out,
        {
            "tokens": [int(t) for t in seq],
            "text": text,
            "order": [p + 1 for p in trace.order],
            "anchors": {str(k + 1): int(v) for k, v in anchors.items()},
            "seed": args.seed,
            "sampler": {"kind": sampler.kind, "temperature": sampler.temperature, "k": sampler.k},
        },
    )
    return 0


def cmd_eval_ppl(args) -> int:
    model, vocab, tokenizer_kind = _load_model(args.checkpoint)
    if vocab is None:
        raise ValueError("checkpoint carries no vocabulary; cannot tokenize the corpus")
    corpus = ingest(
        args.corpus,
        tokenizer_kind=tokenizer_kind,
        max_len=model.config.max_len,
        vocab=vocab,
        split="test",
    )
    if model.is_causal:
        report = ppl_causal(model, corpus, mode=args.mode)
    else:
        report = ppl_bidirectional(model, corpus, mode=args.mode, seed=args.seed)
    name = Path(args.checkpoint).stem
    print(render_ppl_table({name: {report.mode: report.ppl}}))
    print(f"tokens scored: {report.token_count}")
    _write_json(args.out, report.to_dict())
    return 0


def cmd_verify_equivalence(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if args.models < 1:
        raise ValueError(f"--models must be at least 1, got {args.models}")
    if args.checkpoint:
        if args.models != 1:
            raise ValueError(f"--models counts fresh models; --checkpoint verifies one, got --models {args.models}")
        model, _, _ = _load_model(args.checkpoint)
        models = [model]
        vocab_size = model.config.vocab_size
    else:
        cfg = TransformerConfig(
            vocab_size=12,
            max_len=max(8, args.n),
            heads=2,
            hidden_size=16,
            intermediate_size=32,
            dropout_rate=0.0,
        )
        models = (Transformer.init(cfg, seed=args.seed + m) for m in range(args.models))  # each built when verified
        vocab_size = cfg.vocab_size
    rng = np.random.default_rng(args.seed)
    runs = []
    worst = 0.0
    all_passed = True
    for model in models:
        x = rng.integers(3, vocab_size, size=args.n)
        report = verify_equivalence(model, x, tolerance=args.tolerance)
        runs.append(report.to_dict())
        worst = max(worst, report.max_abs_gap)
        all_passed = all_passed and report.passed
    print(f"n={args.n}  runs={len(runs)}  max_abs_gap={worst:.3e}  tolerance={args.tolerance:.1e}")
    print("duplication audit: " + ("exact" if all(r["duplication_ok"] for r in runs) else "MISMATCH"))
    print("PASS" if all_passed else "FAIL")
    _write_json(args.out, {"runs": runs, "max_abs_gap": worst, "passed": all_passed})
    return 0 if all_passed else 1


def cmd_bench_latency(args) -> int:
    base = dict(vocab_size=30, max_len=max(args.length, 64), dropout_rate=0.0)  # the other sizes are the presets'
    causal = Transformer.init(TransformerConfig(attention_mode="causal", **base), seed=args.seed)
    bidir = Transformer.init(TransformerConfig(attention_mode="bidirectional", **base), seed=args.seed)
    result = bench_latency(
        causal, bidir, count=args.count, length=args.length, sampler=_sampler_from_args(args), seed=args.seed
    )
    print(render_latency_table(result))
    _write_json(args.out, result)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_sampler_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sampler", choices=SAMPLER_KINDS, default=SamplerSpec.kind)
    p.add_argument("--temperature", type=float, default=SamplerSpec.temperature)
    p.add_argument("--top-k", type=int, default=SamplerSpec.k, dest="top_k")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pmlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-corpus", help="write a synthetic character corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--bytes", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_make_corpus)

    p = sub.add_parser("train", help="train a preset or a JSON run config")
    p.add_argument("--config", help="JSON run config (excludes every flag below but --quiet)")
    run_flags = [
        p.add_argument("--preset", choices=PRESET_NAMES),
        p.add_argument("--corpus"),
        p.add_argument("--checkpoint"),
        p.add_argument("--steps", type=int),
        p.add_argument("--batch-size", type=int, dest="batch_size"),
        p.add_argument("--learning-rate", type=float, dest="learning_rate"),
        p.add_argument("--seed", type=int),
        p.add_argument("--max-len", type=int, dest="max_len"),
        p.add_argument("--positional", choices=POSITIONAL_KINDS, dest="positional_kind"),
        p.add_argument("--loss-log", dest="loss_log_path"),
    ]
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train, run_flags=run_flags)

    p = sub.add_parser("generate", help="generate text in an arbitrary order")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--order", choices=("random", "ltr"), help="random when neither --order nor --order-file is given")
    p.add_argument("--order-file", dest="order_file", help="file of 1-based positions in generation order")
    p.add_argument("--anchors", help="file of '<position>:<token>' lines, 1-based")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write a JSONL trace (one step per line)")
    p.add_argument("--show-trace", action="store_true", dest="show_trace")
    p.add_argument("--out", help="write the generation report JSON here")
    _add_sampler_args(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval-ppl", help="perplexity on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=PPL_MODES, default=PPL_MODES[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_ppl)

    p = sub.add_parser("verify-equivalence", help="check the mask/permutation identity")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models", type=int, default=1, help="number of fresh seeded models")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--checkpoint", help="verify a trained model instead of fresh ones")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_equivalence)

    p = sub.add_parser("bench-latency", help="cached causal vs full-recompute bidirectional decode at preset size")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--length", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    _add_sampler_args(p)
    p.set_defaults(func=cmd_bench_latency)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:  # every subcommand takes --seed
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError, TrainingDiverged, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)  # a list's MemoryError has no text
        return 2


if __name__ == "__main__":
    sys.exit(main())
