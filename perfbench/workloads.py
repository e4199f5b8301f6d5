"""The benchmark's workloads: set-up, one timed operation, and its checks.

Each workload calls the same public functions the ``pmlm`` subcommands call,
through their modules, so the tracer's wrappers see every call. Inputs come
from the workload seed; the training seed is fixed, so a training run
repeats bit for bit on one corpus. Every timed operation is checked, and an
operation that fails a check or raises counts as failed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import pmlm.checkpoint
import pmlm.data
import pmlm.evaluation
import pmlm.generation
import pmlm.masking
import pmlm.model
import pmlm.objectives
import pmlm.optim
import pmlm.training

from . import metrics
from .reference import Reference

perf = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``PRESET`` is the shipped preset size."""

    layers: int = 2
    heads: int = 4
    hidden_size: int = 64
    intermediate_size: int = 256
    max_len: int = 64
    batch_size: int = 16
    train_steps: int = 12  # optimizer steps per train() call
    warmup_steps: int = 2  # step intervals dropped at the start of each call
    loss_end_steps: int = 5  # loss_end is the mean loss of the final steps
    corpus_bytes: int = 20_000
    heldout_bytes: int = 12_000
    ppl_sequences: int = 8  # held-out sequences cycled through by ppl_random
    ppl_batch: int = 32  # sequences per ppl_causal call
    gen_length: int = 64
    gen_anchors: int = 4
    decodes_per_op: int = 4
    top_k: int = 5
    verify_n: int = 6
    exact_n: int = 8
    setup_reps: int = 3
    import_reps: int = 3


PRESET = Sizes()
TINY = Sizes(
    layers=1,
    heads=2,
    hidden_size=16,
    intermediate_size=32,
    max_len=16,
    batch_size=4,
    train_steps=6,
    warmup_steps=1,
    loss_end_steps=2,
    corpus_bytes=3_000,
    heldout_bytes=2_000,
    ppl_sequences=2,
    ppl_batch=4,
    gen_length=16,
    gen_anchors=2,
    decodes_per_op=1,
    verify_n=4,
    exact_n=5,
    setup_reps=1,
    import_reps=1,
)

VERIFY_MODEL = dict(
    vocab_size=12,
    layers=2,
    heads=2,
    hidden_size=16,
    intermediate_size=32,
    dropout_rate=0.0,
    attention_mode="bidirectional",
)
TRAINING_SEED = 0
EXACT_PRIORS = (
    pmlm.masking.MaskingPrior.point_mass(0.15),
    pmlm.masking.MaskingPrior.truncated(0.2, 0.7),
)


@dataclass
class OpResult:
    """One checked operation: its timed samples, output and failed checks."""

    samples_ms: List[float] = field(default_factory=list)
    tokens: List[float] = field(default_factory=list)  # tokens per sample
    output: object = None  # compared across repeats and against a traced run
    loss_nats: Optional[float] = None
    failures: List[str] = field(default_factory=list)
    data: dict = field(default_factory=dict, repr=False)  # what the untimed checks need
    ref_index: List[int] = field(default_factory=list)  # reference measurement before each sample
    scales: List[float] = field(default_factory=list)  # reference scale per sample

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


class Workload:
    name = ""
    kernel = "tiny"  # the reference kernel shape closest to this workload's work
    kernel_per_op = True  # False: the workload times the kernel itself
    intervals: Optional[list] = None  # (start, end) of each optimizer step, training only

    def __init__(self, sizes: Sizes, seed: int, work: Path):
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.reference = Reference(self.kernel)

    def child_seed(self, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def config(self) -> dict:
        return {"operation": metrics.OPERATION[self.name]}

    def setup(self) -> Dict[str, float]:
        """Build the inputs; returns set-up layer timings in seconds."""
        return {}

    def run_checks(self) -> List[OpResult]:
        """Checks made once per run, before the timed operations."""
        return []

    def op(self, i: int) -> OpResult:
        """Operation ``i``: the timed call only."""
        raise NotImplementedError

    def check(self, res: OpResult) -> None:
        """The untimed checks of one operation; they record failures on ``res``."""

    # shared set-up pieces ------------------------------------------------

    def _model_overrides(self) -> dict:
        s = self.sizes
        return dict(
            layers=s.layers,
            heads=s.heads,
            hidden_size=s.hidden_size,
            intermediate_size=s.intermediate_size,
            max_len=s.max_len,
        )

    def _synthesize(self, name: str, n_bytes: int, seed: int, per_line: int = 1) -> Path:
        path = self.work / name
        if per_line == 1:
            pmlm.data.write_synthetic_corpus(path, n_bytes=n_bytes, seed=seed)
        else:
            lines = pmlm.data.synthetic_lines(n_bytes, seed)
            paragraphs = [" ".join(lines[i : i + per_line]) for i in range(0, len(lines), per_line)]
            path.write_text("\n".join(paragraphs) + "\n", encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class StepClock:
    """Times optimizer steps by wrapping ``Adam.step`` for one training run.

    After each update it times the reference kernel, then notes when the
    loop resumes; a step runs from one resume to the next update's end, so
    the kernel's own time is never part of a step.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.ends: List[float] = []
        self.resumes: List[float] = []
        self.ref_index: List[int] = []
        self._original = None

    def clear(self) -> None:
        self.ends.clear()
        self.resumes.clear()
        self.ref_index.clear()

    def __enter__(self) -> "StepClock":
        original = self._original = pmlm.optim.Adam.step

        def step(opt, params):
            result = original(opt, params)
            self.ends.append(perf())
            self.reference.measure()
            self.ref_index.append(len(self.reference.times_ms) - 1)
            self.resumes.append(perf())
            return result

        pmlm.optim.Adam.step = step
        return self

    def __exit__(self, *exc) -> None:
        pmlm.optim.Adam.step = self._original

    def steps(self) -> List[tuple]:
        """(start, end, reference index) of every step after the first."""
        return list(zip(self.resumes[:-1], self.ends[1:], self.ref_index[:-1]))


class Train(Workload):
    kernel = "step"
    kernel_per_op = False

    def __init__(self, preset: str, sizes: Sizes, seed: int, work: Path):
        super().__init__(sizes, seed, work)
        self.name = f"train.{preset}"
        self.preset = preset
        self.clock = StepClock(self.reference)
        self.first_losses: Optional[list] = None
        self.load_s: List[float] = []
        self.intervals = []

    def config(self) -> dict:
        s = self.sizes
        return {
            **super().config(),
            "preset": self.preset,
            "model": self._model_overrides(),
            "dropout_rate": 0.1,
            "batch_size": s.batch_size,
            "steps_per_call": s.train_steps,
            "warmup_steps": s.warmup_steps,
            "training_seed": TRAINING_SEED,
            "corpus_bytes": s.corpus_bytes,
            "corpus_seed": self.child_seed(0),
        }

    def setup(self) -> Dict[str, float]:
        s = self.sizes
        t0 = perf()
        corpus_path = self._synthesize("train.txt", s.corpus_bytes, self.child_seed(0))
        t1 = perf()
        corpus = pmlm.data.ingest(corpus_path, tokenizer_kind="char", max_len=s.max_len)
        t2 = perf()
        self.run_config = pmlm.training.preset(
            self.preset,
            str(corpus_path),
            str(self.work / "train.ckpt"),
            steps=s.train_steps,
            batch_size=s.batch_size,
            seed=TRAINING_SEED,
            **self._model_overrides(),
        )
        pmlm.model.Transformer.init(self.run_config.model_config(len(corpus.vocab)), seed=TRAINING_SEED)
        return {"data.synthesize_s": t1 - t0, "data.ingest_s": t2 - t1}

    def op(self, i: int) -> OpResult:
        s = self.sizes
        self.clock.clear()
        with self.clock:
            result = pmlm.training.train(self.run_config, quiet=True)
        steps = self.clock.steps()
        self.intervals.extend((start, end) for start, end, _ in steps)
        timed = steps[s.warmup_steps :]
        res = OpResult()
        res.samples_ms = [(end - start) * 1e3 for start, end, _ in timed]
        res.ref_index = [index for _, _, index in timed]
        res.tokens = [float(s.batch_size * s.max_len)] * len(timed)
        res.output = tuple(result.losses)
        res.data = {"result": result, "updates": len(self.clock.ends)}
        return res

    def check(self, res: OpResult) -> None:
        s = self.sizes
        result = res.data["result"]
        losses = list(result.losses)
        updates = res.data["updates"]
        res.check(updates == s.train_steps, f"{updates} optimizer updates, expected {s.train_steps}")
        res.check(all(math.isfinite(x) for x in losses), "non-finite training loss")
        loss_end = float(np.mean(losses[-s.loss_end_steps :]))
        res.loss_nats = loss_end
        res.check(loss_end < losses[0], f"loss_end {loss_end} is not below the first loss {losses[0]}")
        t0 = perf()
        reloaded, _ = pmlm.checkpoint.load_checkpoint(result.checkpoint_path)
        self.load_s.append(perf() - t0)
        same = all(
            np.array_equal(reloaded.params[n].data, p.data) for n, p in result.model.params.items()
        )
        res.check(same, "reloaded checkpoint differs from the trained parameters")
        if self.first_losses is None:
            self.first_losses = losses
        res.check(losses == self.first_losses, "training losses differ between identical runs")


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


class Infer(Workload):
    """A preset-size checkpoint saved and loaded in set-up; no gradients."""

    causal = False
    kernel = "batch"

    def config(self) -> dict:
        s = self.sizes
        return {
            **super().config(),
            "model": {**self._model_overrides(), "attention_mode": "causal" if self.causal else "bidirectional"},
            "model_seed": self.child_seed(2),
            "heldout_bytes": s.heldout_bytes,
            "heldout_seed": self.child_seed(1),
            "sampler": {"kind": "top_k", "k": s.top_k},
        }

    def setup(self) -> Dict[str, float]:
        s = self.sizes
        t0 = perf()
        train_path = self._synthesize("train.txt", s.corpus_bytes, self.child_seed(0))
        heldout_path = self._synthesize("heldout.txt", s.heldout_bytes, self.child_seed(1), per_line=8)
        t1 = perf()
        vocab = pmlm.data.ingest(train_path, tokenizer_kind="char", max_len=s.max_len).vocab
        self.heldout = pmlm.data.ingest(
            heldout_path, tokenizer_kind="char", max_len=s.max_len, vocab=vocab, split="test"
        )
        t2 = perf()
        run_config = pmlm.training.preset(
            "gpt-like" if self.causal else "upmlm", str(train_path), "", **self._model_overrides()
        )
        cfg = run_config.model_config(len(vocab))
        model = pmlm.model.Transformer.init(cfg, seed=self.child_seed(2))
        extra = {
            "vocab": vocab.to_list(),
            "tokenizer": "char",
            "prior": run_config.prior.to_dict() if run_config.prior else None,
        }
        ckpt = self.work / "model.ckpt"
        t3 = perf()
        pmlm.checkpoint.save_checkpoint(ckpt, model, extra)
        t4 = perf()
        self.model, header = pmlm.checkpoint.load_checkpoint(ckpt)
        t5 = perf()
        self.vocab = pmlm.data.Vocabulary(header["vocab"])
        self.setup_failures = [
            f"checkpoint round trip changed '{n}'"
            for n, p in model.params.items()
            if not np.array_equal(p.data, self.model.params[n].data)
        ]
        self.sampler = pmlm.generation.SamplerSpec(kind="top_k", k=s.top_k)
        self.seen: Dict[int, tuple] = {}
        return {
            "data.synthesize_s": t1 - t0,
            "data.ingest_s": t2 - t1,
            "checkpoint.save_s": t4 - t3,
            "checkpoint.load_s": t5 - t4,
            "checkpoint.bytes": float(ckpt.stat().st_size),
        }

    def run_checks(self) -> List[OpResult]:
        res = OpResult()
        for message in self.setup_failures:
            res.check(False, message)
        return [res]

    def _corpus(self, sequences) -> "pmlm.data.Corpus":
        return pmlm.data.Corpus(
            sequences=list(sequences),
            vocab=self.vocab,
            tokenizer_kind="char",
            split="test",
            max_len=self.sizes.max_len,
        )

    def _ppl(self, key: int, evaluate) -> OpResult:
        """Time one perplexity call; repeats of one input must agree bit for bit."""
        t0 = perf()
        report = evaluate()
        t1 = perf()
        res = OpResult([(t1 - t0) * 1e3], [float(report.token_count)])
        res.output = (report.ppl, report.token_count)
        res.loss_nats = math.log(report.ppl) if report.ppl > 0 else math.nan
        res.check(math.isfinite(report.ppl) and report.ppl > 0, f"perplexity {report.ppl} is not finite and positive")
        res.check(self.seen.setdefault(key, res.output) == res.output, f"perplexity of input {key} changed on repeat")
        return res


class PplRandom(Infer):
    name = "infer.ppl_random"

    def setup(self) -> Dict[str, float]:
        timings = super().setup()
        full = [seq for seq in self.heldout.sequences if not np.any(seq == pmlm.data.PAD_ID)]
        self.sequences = full[: self.sizes.ppl_sequences]
        return timings

    def op(self, i: int) -> OpResult:
        k = i % len(self.sequences)
        corpus = self._corpus([self.sequences[k]])
        return self._ppl(k, lambda: pmlm.evaluation.ppl_bidirectional(self.model, corpus, "random", seed=self.child_seed(3)))


class PplCausal(Infer):
    name = "infer.ppl_causal"
    causal = True

    def setup(self) -> Dict[str, float]:
        timings = super().setup()
        seqs, b = self.heldout.sequences, self.sizes.ppl_batch
        self.batches = [seqs[j : j + b] for j in range(0, len(seqs) - b + 1, b)]
        return timings

    def op(self, i: int) -> OpResult:
        k = i % len(self.batches)
        corpus = self._corpus(self.batches[k])
        return self._ppl(k, lambda: pmlm.evaluation.ppl_causal(self.model, corpus))


def _top_k_ids(row: np.ndarray, k: int) -> set:
    """The ids sample_token's top-k may draw from one logit row."""
    row = np.array(row, dtype=np.float64)
    row[list(pmlm.generation.EXCLUDED_CANDIDATES)] = -np.inf
    ranked = np.lexsort((np.arange(row.shape[0]), -row))
    return {int(t) for t in ranked[:k] if np.isfinite(row[t])}


def _greedy_id(row: np.ndarray) -> int:
    row = np.array(row, dtype=np.float64)
    row[list(pmlm.generation.EXCLUDED_CANDIDATES)] = -np.inf
    return int(np.argmax(row))


def _mean_nll(logits: np.ndarray, targets: np.ndarray) -> float:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return float(-logp[np.arange(len(targets)), targets].mean())


class Generate(Infer):
    name = "infer.generate"
    kernel = "single"

    def setup(self) -> Dict[str, float]:
        timings = super().setup()
        s = self.sizes
        rng = np.random.default_rng(self.child_seed(4))
        positions = rng.choice(s.gen_length, size=s.gen_anchors, replace=False)
        content = rng.integers(3, len(self.vocab), size=s.gen_anchors)
        self.anchors = {int(p): int(t) for p, t in zip(positions, content)}
        self.constraints = pmlm.generation.GenerationConstraints(s.gen_length, self.anchors)
        return timings

    def _check_output(self, res: OpResult, seq: np.ndarray, trace) -> None:
        seq = [int(t) for t in seq]
        res.check(len(seq) == self.sizes.gen_length, f"generated {len(seq)} tokens")
        res.check(pmlm.data.MASK_ID not in seq, "a [MASK] is left in the generated sequence")
        res.check(all(seq[p] == t for p, t in self.anchors.items()), "an anchor was overwritten")
        free = [t for p, t in enumerate(seq) if p not in self.anchors]
        res.check(
            all(3 <= t < len(self.vocab) for t in free), "a generated token is a special or out of the vocabulary"
        )
        res.check(sorted(trace.order) == self.constraints.free_positions, "the trace does not cover the free positions")
        res.check(
            all(seq[st.position] == st.token for st in trace.steps) and trace.steps[-1].snapshot == tuple(seq),
            "the generated sequence disagrees with its trace",
        )

    def run_checks(self) -> List[OpResult]:
        """Greedy generation, replayed; its mean NLL is the workload's loss."""
        checks = super().run_checks()
        res = OpResult()
        rng = np.random.default_rng(self.child_seed(5))
        order = pmlm.generation.GenerationOrder.random(self.constraints.free_positions, rng)
        greedy = pmlm.generation.SamplerSpec()
        seq, trace = pmlm.generation.generate(self.model, self.constraints, order, greedy)
        self._check_output(res, seq, trace)
        replayed = pmlm.generation.replay_trace(self.model, trace, greedy)
        res.check(np.array_equal(replayed, seq), "greedy replay_trace does not reproduce the sequence")
        before = [tuple(trace.steps[0].snapshot)]
        before[0] = tuple(pmlm.data.MASK_ID if p == trace.steps[0].position else t for p, t in enumerate(before[0]))
        before += [st.snapshot for st in trace.steps[:-1]]
        logits = self.model.logits(np.asarray(before, dtype=np.int64))
        rows = logits[np.arange(len(trace.steps)), list(trace.order)]
        res.loss_nats = _mean_nll(rows, np.asarray([st.token for st in trace.steps]))
        return checks + [res]

    def op(self, i: int) -> OpResult:
        rng = np.random.default_rng([self.child_seed(6), i])
        order = pmlm.generation.GenerationOrder.random(self.constraints.free_positions, rng)
        t0 = perf()
        seq, trace = pmlm.generation.generate(self.model, self.constraints, order, self.sampler, rng)
        t1 = perf()
        res = OpResult([(t1 - t0) * 1e3], [float(len(order.sigma))])
        res.output = tuple(int(t) for t in seq)
        self._check_output(res, seq, trace)
        return res


class DecodeCached(Infer):
    name = "infer.decode_cached"
    causal = True
    kernel = "tiny"

    def _full_logits(self, tokens: np.ndarray) -> np.ndarray:
        prefix = np.concatenate([[pmlm.data.MASK_ID], tokens[:-1]]).astype(np.int64)
        return self.model.logits(prefix)

    def run_checks(self) -> List[OpResult]:
        """Greedy cached decode against the argmax of the full forward."""
        checks = super().run_checks()
        res = OpResult()
        greedy = pmlm.generation.SamplerSpec()
        rng = np.random.default_rng(self.child_seed(5))
        tokens = pmlm.evaluation._generate_causal_cached(self.model, self.sizes.gen_length, greedy, rng)
        logits = self._full_logits(tokens)
        expected = [_greedy_id(row) for row in logits]
        res.check(list(tokens) == expected, "greedy cached decode differs from the full-forward argmax")
        return checks + [res]

    def op(self, i: int) -> OpResult:
        rng = np.random.default_rng([self.child_seed(6), i])
        length, count = self.sizes.gen_length, self.sizes.decodes_per_op
        t0 = perf()
        decoded = [pmlm.evaluation._generate_causal_cached(self.model, length, self.sampler, rng) for _ in range(count)]
        t1 = perf()
        res = OpResult([(t1 - t0) * 1e3], [float(length * count)])
        res.output = tuple(tuple(int(t) for t in tokens) for tokens in decoded)
        return res

    def check(self, res: OpResult) -> None:
        length = self.sizes.gen_length
        for tokens in res.output:
            res.check(len(tokens) == length, f"decoded {len(tokens)} tokens, expected {length}")
            valid = all(3 <= t < len(self.vocab) for t in tokens)
            res.check(valid, "a decoded token is a special or out of the vocabulary")
            if valid and len(tokens) == length:
                logits = self._full_logits(np.asarray(tokens))
                res.check(
                    all(t in _top_k_ids(row, self.sizes.top_k) for t, row in zip(tokens, logits)),
                    "a decoded token is outside the top-k of the full forward",
                )
                if res.loss_nats is None:
                    res.loss_nats = _mean_nll(logits, np.asarray(tokens))


# ---------------------------------------------------------------------------
# exact enumerations
# ---------------------------------------------------------------------------


def _alpha(n: int, k: int, prior) -> float:
    """Pattern probability from an exact rational integral, independent of pmlm.masking."""
    if prior.kind == "uniform":
        return math.factorial(n - k) * math.factorial(k) / math.factorial(n + 1)
    if prior.kind == "point_mass":
        return prior.r0**k * (1.0 - prior.r0) ** (n - k)
    a, b = Fraction(prior.a), Fraction(prior.b)
    total = Fraction(0)
    for j in range(n - k + 1):
        e = k + j + 1
        total += math.comb(n - k, j) * (-1) ** j * (b**e - a**e) / e
    return float(total / (b - a))


def exact_loss_reference(model, x: np.ndarray, prior) -> float:
    """pmlm_exact_loss recomputed with one batched forward over all 2^n - 1 masks."""
    n = len(x)
    masks = [[(bits >> i) & 1 for i in range(n)] for bits in range(1, 1 << n)]
    indicator = np.asarray(masks, dtype=bool)
    inputs = np.where(indicator, pmlm.data.MASK_ID, x[None, :]).astype(np.int64)
    logits = model.logits(inputs)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    true = np.take_along_axis(logp, np.broadcast_to(x, inputs.shape)[..., None], axis=-1)[..., 0]
    total = 0.0
    for row, m in enumerate(indicator):
        k = int(m.sum())
        total += _alpha(n, k, prior) * true[row][m].sum() / k
    return -total


class Verify(Workload):
    def config(self) -> dict:
        return {**super().config(), "model": VERIFY_MODEL}

    def _inputs(self, i: int, n: int):
        cfg = pmlm.model.TransformerConfig(max_len=max(8, n), **VERIFY_MODEL)
        model = pmlm.model.Transformer.init(cfg, seed=self.child_seed(7) + i)
        rng = np.random.default_rng([self.child_seed(8), i])
        return model, rng.integers(3, cfg.vocab_size, size=n)

    def setup(self) -> Dict[str, float]:
        self._inputs(0, self.sizes.verify_n)
        return {}


class VerifyCheck(Verify):
    name = "verify.check"

    def config(self) -> dict:
        return {**super().config(), "n": self.sizes.verify_n, "tolerance": 1e-9}

    def op(self, i: int) -> OpResult:
        model, x = self._inputs(i, self.sizes.verify_n)
        t0 = perf()
        report = pmlm.objectives.verify_equivalence(model, x)
        t1 = perf()
        res = OpResult([(t1 - t0) * 1e3], [float(len(x))])
        res.output = (report.masked_side, report.permutation_side, report.max_abs_gap)
        res.loss_nats = report.aplm_mean
        res.data = {"model": model, "x": x, "report": report}
        return res

    def check(self, res: OpResult) -> None:
        model, x, report = res.data["model"], res.data["x"], res.data["report"]
        res.check(report.passed, "verify_equivalence did not pass")
        res.check(report.duplication_ok, "duplication audit failed")
        res.check(report.max_abs_gap < 1e-9, f"gap {report.max_abs_gap} is not below 1e-9")
        exact = pmlm.objectives.pmlm_exact_loss(model, x, pmlm.masking.MaskingPrior.uniform()).value
        res.check(
            math.isclose(exact, report.pmlm_exact, rel_tol=1e-12, abs_tol=1e-12),
            f"pmlm_exact_loss {exact} differs from the report's pmlm_exact {report.pmlm_exact}",
        )


class VerifyExact(Verify):
    name = "verify.exact"

    def config(self) -> dict:
        return {**super().config(), "n": self.sizes.exact_n, "priors": [p.to_dict() for p in EXACT_PRIORS]}

    def op(self, i: int) -> OpResult:
        model, x = self._inputs(i, self.sizes.exact_n)
        t0 = perf()
        values = [pmlm.objectives.pmlm_exact_loss(model, x, prior).value for prior in EXACT_PRIORS]
        t1 = perf()
        res = OpResult([(t1 - t0) * 1e3 / len(values)], [float(len(x))])
        res.output = tuple(values)
        res.loss_nats = float(np.mean(values))
        res.data = {"model": model, "x": x}
        return res

    def check(self, res: OpResult) -> None:
        model, x = res.data["model"], res.data["x"]
        for prior, value in zip(EXACT_PRIORS, res.output):
            reference = exact_loss_reference(model, x, prior)
            res.check(
                math.isclose(value, reference, rel_tol=1e-9, abs_tol=1e-12),
                f"pmlm_exact_loss under {prior.kind} is {value}, the batched reference gives {reference}",
            )


def make(name: str, sizes: Sizes, seed: int, work: Path) -> Workload:
    if name not in metrics.WORKLOADS:
        raise ValueError(f"unknown workload '{name}'")
    if name.startswith("train."):
        return Train(name.split(".", 1)[1], sizes, seed, work)
    classes = {c.name: c for c in (PplRandom, PplCausal, Generate, DecodeCached, VerifyCheck, VerifyExact)}
    return classes[name](sizes, seed, work)
