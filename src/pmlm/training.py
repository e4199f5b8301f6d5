"""Run configuration, shipped presets, and the training loop.

Three presets mirror the comparative setup used throughout:

* ``upmlm``     bidirectional attention, uniform prior on the masking ratio
* ``bert-like`` bidirectional attention, fixed 15% masking (point mass)
* ``gpt-like``  causal attention, left-to-right teacher forcing (no prior)

Training is plain Adam on batches sampled with replacement; every random
choice flows from the single configured seed, so a rerun of the same config
on one build reproduces the loss log bit for bit.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .checkpoint import save_checkpoint
from .data import TOKENIZER_KINDS, Corpus, PAD_ID, ingest, json_object
from .masking import MaskPattern, MaskingPrior, sample_mask, sample_ratio
from .model import Transformer, TransformerConfig, init_parameters
from .objectives import causal_batch_loss, masked_batch_loss
from .optim import Adam, NonFiniteGradient
from .tensor import NonFiniteLogits, backward

PRESET_NAMES = ("upmlm", "bert-like", "gpt-like")

_MODEL_FIELDS = tuple(f.name for f in fields(TransformerConfig) if f.name != "vocab_size")

#: Steps between the parameter snapshots that a diverged run falls back to.
SNAPSHOT_EVERY = 200


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainingSettings:
    steps: int = 2000
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.seed is None or self.seed < 0:
            raise ValueError(f"training seed must be a non-negative integer, got {self.seed}")
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingSettings":
        return cls(**json_object(d, "run config training", cls))


@dataclass
class RunConfig:
    """Everything one training run needs; JSON-serializable."""

    corpus_path: str
    checkpoint_path: str
    model: Dict = field(default_factory=dict)
    prior: Optional[MaskingPrior] = None
    training: TrainingSettings = field(default_factory=TrainingSettings)
    tokenizer_kind: str = "char"
    loss_log_path: Optional[str] = None

    def __post_init__(self):
        json_object(self.model, "run config model", _MODEL_FIELDS, types=TransformerConfig)
        mode = self.model.get("attention_mode", TransformerConfig.attention_mode)
        if mode == "causal" and self.prior is not None:
            raise ValueError(
                "a masking prior only applies to masked (bidirectional) training; "
                "remove the prior for causal runs"
            )
        if mode == "bidirectional" and self.prior is None:
            raise ValueError("bidirectional training requires a masking prior")
        if self.tokenizer_kind not in TOKENIZER_KINDS:
            raise ValueError(f"unknown tokenizer kind '{self.tokenizer_kind}'")

    def model_config(self, vocab_size: int) -> TransformerConfig:
        return TransformerConfig(vocab_size=vocab_size, **self.model)

    def to_dict(self) -> dict:
        return {**asdict(self), "prior": self.prior.to_dict() if self.prior else None}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(json_object(d, "run config", cls))
        prior, training = d.get("prior"), d.get("training")
        d["prior"] = None if prior is None else MaskingPrior.from_dict(prior)
        d["training"] = TrainingSettings.from_dict({} if training is None else training)
        return cls(**d)

    @classmethod
    def from_json_file(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def preset(name: str, corpus_path: str, checkpoint_path: str, **overrides) -> RunConfig:
    """Build one of the shipped run configurations.

    ``overrides`` may adjust any model field (``model.<field>`` keys are not
    needed; pass e.g. ``layers=1``) or training field.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset '{name}'; choose from {PRESET_NAMES}")
    model = {"attention_mode": "causal"} if name == "gpt-like" else {}
    prior = {"upmlm": MaskingPrior.uniform(), "bert-like": MaskingPrior.point_mass(0.15)}.get(name)
    training_kwargs = {}
    for key, value in overrides.items():
        if key in _MODEL_FIELDS:
            model[key] = value
        else:
            training_kwargs[key] = value
    prior = training_kwargs.pop("prior", prior)
    tokenizer_kind = training_kwargs.pop("tokenizer_kind", "char")
    loss_log_path = training_kwargs.pop("loss_log_path", None)
    return RunConfig(
        corpus_path=corpus_path,
        checkpoint_path=checkpoint_path,
        model=model,
        prior=prior,
        training=TrainingSettings(**training_kwargs),
        tokenizer_kind=tokenizer_kind,
        loss_log_path=loss_log_path,
    )


@dataclass
class TrainResult:
    checkpoint_path: Path
    loss_log_path: Optional[Path]
    losses: List[float]
    model: Transformer
    corpus: Corpus


def _sample_patterns(batch: np.ndarray, prior: MaskingPrior, rng: np.random.Generator) -> List[MaskPattern]:
    """One mask pattern per row; a pattern that masks nothing is redrawn once."""
    patterns = []
    for row in batch:
        pads = row == PAD_ID
        pattern = sample_mask(len(row), sample_ratio(prior, rng), rng, pad_flags=pads)
        if pattern.k == 0:
            pattern = sample_mask(len(row), sample_ratio(prior, rng), rng, pad_flags=pads)
        patterns.append(pattern)
    return patterns


def train(config: RunConfig, quiet: bool = False) -> TrainResult:
    """Run the configured training, streaming the loss log (one JSON line
    per step, flushed as the step ends) and writing the checkpoint.

    On non-finite logits, loss or gradient the most recent snapshot of the
    parameters is written to the checkpoint path before raising
    ``TrainingDiverged``, so a usable model is always retained.
    """
    corpus = ingest(
        config.corpus_path,
        tokenizer_kind=config.tokenizer_kind,
        max_len=config.model.get("max_len", TransformerConfig.max_len),
    )
    model_cfg = config.model_config(len(corpus.vocab))
    seed = config.training.seed
    init_rng, data_rng, mask_rng, drop_rng = (
        np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(4)
    )
    model = Transformer(model_cfg, init_parameters(model_cfg, init_rng))
    extra = {
        "vocab": corpus.vocab.to_list(),
        "tokenizer": config.tokenizer_kind,
        "prior": config.prior.to_dict() if config.prior else None,
    }

    opt = Adam(lr=config.training.learning_rate)
    losses: List[float] = []
    snapshot = {name: p.data.copy() for name, p in model.params.items()}

    def diverged(problem: str, step: int) -> TrainingDiverged:
        for name, p in model.params.items():
            p.data = snapshot[name]
        save_checkpoint(config.checkpoint_path, model, extra)
        return TrainingDiverged(
            f"{problem} at step {step}; last good checkpoint "
            f"(step {max(0, step - step % SNAPSHOT_EVERY)}) retained"
        )

    loss_log_path = Path(config.loss_log_path) if config.loss_log_path else None
    if loss_log_path:
        loss_log_path.parent.mkdir(parents=True, exist_ok=True)
    # each step's line is flushed as the step ends, so a run that stops early
    # keeps the log of the steps it finished. A diverging run overflows on the
    # way to its non-finite logits, loss or gradient; those are caught below, so
    # numpy need not warn first. Every step's rows come from one draw, the same
    # stream as one draw per step, so the loop does little between its calls.
    rows = data_rng.integers(0, len(corpus), size=(config.training.steps, config.training.batch_size))
    with (
        loss_log_path.open("w", encoding="utf-8") if loss_log_path else nullcontext() as log,
        np.errstate(over="ignore", invalid="ignore"),
    ):
        for step, idx in enumerate(rows):
            batch = np.array([corpus.sequences[i] for i in idx])
            try:
                if model.is_causal:
                    loss_t = causal_batch_loss(model, batch, rng=drop_rng)
                else:
                    patterns = _sample_patterns(batch, config.prior, mask_rng)
                    loss_t = masked_batch_loss(model, batch, patterns, rng=drop_rng)
            except NonFiniteLogits as e:
                raise diverged(str(e).removeprefix("cross_entropy: "), step) from e
            loss = loss_t.item()
            if not math.isfinite(loss):
                raise diverged("non-finite loss", step)
            backward(loss_t)
            try:
                opt.step(model.params)
            except NonFiniteGradient as e:
                raise diverged(str(e).removeprefix("adam: "), step) from e
            model.zero_grad()
            losses.append(loss)
            if log:
                log.write(json.dumps({"step": step, "loss": loss}) + "\n")
                log.flush()
            if (step + 1) % SNAPSHOT_EVERY == 0:
                snapshot = {name: p.data.copy() for name, p in model.params.items()}
            if not quiet and (step % 100 == 0 or step == config.training.steps - 1):
                print(f"step {step:>6}  loss {loss:.6f}", flush=True)

    checkpoint_path = save_checkpoint(config.checkpoint_path, model, extra)
    return TrainResult(
        checkpoint_path=checkpoint_path,
        loss_log_path=loss_log_path,
        losses=losses,
        model=model,
        corpus=corpus,
    )
