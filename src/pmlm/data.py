"""Corpus ingestion: tokenizers, vocabulary, padding/chunking, toy corpora.

Special token ids are fixed so checkpoints stay portable:
[PAD]=0, [MASK]=1, [UNK]=2.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

PAD_ID = 0
MASK_ID = 1
UNK_ID = 2
PAD_TOKEN = "[PAD]"
MASK_TOKEN = "[MASK]"
UNK_TOKEN = "[UNK]"
SPECIAL_TOKENS = (PAD_TOKEN, MASK_TOKEN, UNK_TOKEN)

TOKENIZER_KINDS = ("char", "whitespace")


def tokenize(text: str, kind: str) -> List[str]:
    if kind == "char":
        return list(text)
    if kind == "whitespace":
        return text.split()
    raise ValueError(f"unknown tokenizer kind '{kind}'; expected one of {TOKENIZER_KINDS}")


def detokenize(tokens: Sequence[str], kind: str) -> str:
    if kind == "char":
        return "".join(tokens)
    if kind == "whitespace":
        return " ".join(tokens)
    raise ValueError(f"unknown tokenizer kind '{kind}'; expected one of {TOKENIZER_KINDS}")


class Vocabulary:
    """token <-> id map; specials first, then content sorted by frequency
    (descending) with ties broken by codepoint order."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[:3]) != SPECIAL_TOKENS:
            raise ValueError(f"vocabulary must start with {SPECIAL_TOKENS}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    @classmethod
    def build(cls, documents: Iterable[Sequence[str]]) -> "Vocabulary":
        counts: Counter = Counter()
        for doc in documents:
            counts.update(doc)
        for special in SPECIAL_TOKENS:
            counts.pop(special, None)
        content = sorted(counts, key=lambda tok: (-counts[tok], tok))
        return cls(list(SPECIAL_TOKENS) + content)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def decode(self, token_id: int) -> str:
        return self.tokens[token_id]

    def encode_all(self, tokens: Sequence[str]) -> List[int]:
        return [self.encode(t) for t in tokens]

    def to_list(self) -> List[str]:
        return list(self.tokens)


@dataclass
class Corpus:
    sequences: List[np.ndarray]
    vocab: Vocabulary
    tokenizer_kind: str
    split: str = "train"
    max_len: int = field(default=0)

    def __post_init__(self):
        if not self.sequences:
            raise ValueError("corpus has no sequences")
        if self.max_len == 0:
            self.max_len = max(len(s) for s in self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)


def causal_inputs(batch: np.ndarray) -> np.ndarray:
    """Teacher-forcing inputs for the (B, N) causal targets ``batch``: each
    row shifted right by one with [MASK] first, and [PAD] wherever the
    target is [PAD]."""
    inputs = np.empty_like(batch)
    inputs[:, 0] = MASK_ID
    inputs[:, 1:] = batch[:, :-1]
    inputs[batch == PAD_ID] = PAD_ID
    return inputs


def used_width(*batches: np.ndarray) -> int:
    """Index of the last column in which any of the (B, N) batches holds a
    non-[PAD] token, plus one.

    Pass the inputs and the targets of one forward: a causal input is the
    target shifted right, so it can end a column before the last target.
    The all-[PAD] columns after the width change no logit before it, since
    [PAD] keys get exactly zero attention weight. All-[PAD] batches keep
    one column.
    """
    used = np.flatnonzero(np.any([(b != PAD_ID).any(axis=0) for b in batches], axis=0))
    return int(used[-1]) + 1 if used.size else 1


def _chunk(ids: List[int], max_len: int) -> List[np.ndarray]:
    """Split into ceil(len/max_len) chunks, padding the last with [PAD]."""
    out = []
    for start in range(0, len(ids), max_len):
        chunk = ids[start : start + max_len]
        if len(chunk) < max_len:
            chunk = chunk + [PAD_ID] * (max_len - len(chunk))
        out.append(np.asarray(chunk, dtype=np.int64))
    return out


def ingest(
    path,
    tokenizer_kind: str = "char",
    max_len: int = 64,
    vocab: Optional[Vocabulary] = None,
    split: str = "train",
) -> Corpus:
    """Load a UTF-8, newline-delimited text file into padded id sequences.

    When ``vocab`` is None a new vocabulary is built from this file;
    otherwise tokens missing from the supplied vocabulary map to [UNK].
    A token equal to [PAD] or [MASK] is rejected, since it would encode
    to that special id.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ValueError(f"cannot read corpus file {p}: {e}") from e
    if PAD_TOKEN in text or MASK_TOKEN in text:  # one scan of the text; the lines are read only on a hit
        for lineno, line in enumerate(text.splitlines(), start=1):
            reserved = sorted({PAD_TOKEN, MASK_TOKEN}.intersection(tokenize(line, tokenizer_kind)))
            if reserved:
                raise ValueError(f"corpus file {p}:{lineno}: token(s) {reserved} are reserved for special ids")
    docs = [tokenize(line, tokenizer_kind) for line in text.splitlines() if line.strip()]
    docs = [d for d in docs if d]
    if not docs:
        raise ValueError(f"corpus file {p} contains no documents")
    if vocab is None:
        vocab = Vocabulary.build(docs)
    sequences: List[np.ndarray] = []
    for doc in docs:
        sequences.extend(_chunk(vocab.encode_all(doc), max_len))
    return Corpus(sequences=sequences, vocab=vocab, tokenizer_kind=tokenizer_kind, split=split, max_len=max_len)


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

_SUBJECTS = ["the cat", "the dog", "the fox", "the owl", "a hen", "a pig"]
_VERBS = ["sees", "likes", "fears", "follows", "greets", "bites"]
_TAILS = ["in the barn", "by the lake", "at dawn", "under the tree", "on the hill"]


def synthetic_lines(n_bytes: int, seed: int) -> List[str]:
    """Deterministic templated sentences over a small character alphabet."""
    rng = np.random.default_rng(seed)
    lines: List[str] = []
    total = 0
    while total < n_bytes:
        s = _SUBJECTS[rng.integers(len(_SUBJECTS))]
        v = _VERBS[rng.integers(len(_VERBS))]
        o = _SUBJECTS[rng.integers(len(_SUBJECTS))]
        t = _TAILS[rng.integers(len(_TAILS))]
        line = f"{s} {v} {o} {t} ."
        lines.append(line)
        total += len(line) + 1
    return lines


def write_synthetic_corpus(path, n_bytes: int = 100_000, seed: int = 0) -> Path:
    if n_bytes < 1:
        raise ValueError(f"corpus size must be at least 1 byte, got {n_bytes}")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("\n".join(synthetic_lines(n_bytes, seed)) + "\n", encoding="utf-8")
    return p


# the JSON values a field of each annotation takes; fields of any other
# annotation are checked where their values are read
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "Dict": (dict,)}


def json_object(value, what: str, keys=None, required=(), types=None) -> dict:
    """``value`` if it is a JSON object (a dict) that has every key in
    ``required``, no key outside ``keys`` (any key if None) and, for each
    field of the dataclass ``types``, a value of the field's type (true and
    false are not numbers; an Optional field may be null); otherwise a
    ValueError naming ``what``. A dataclass as ``keys`` stands for its
    fields, all of them allowed, those without a default required, and
    their types checked."""
    if dataclasses.is_dataclass(keys):
        fields = dataclasses.fields(keys)
        keys, types = [f.name for f in fields], keys
        none = dataclasses.MISSING
        required = [f.name for f in fields if f.default is none and f.default_factory is none]
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys)) if keys is not None else []
    if unknown:
        raise ValueError(f"{what} has unknown key(s) {unknown}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ValueError(f"{what} lacks key(s) {missing}")
    for f in dataclasses.fields(types) if types is not None else ():
        kind = f.type.removeprefix("Optional[").removesuffix("]")
        item = value.get(f.name)
        if f.name not in value or kind not in _JSON_TYPES or (item is None and kind != f.type):
            continue
        if isinstance(item, bool) or not isinstance(item, _JSON_TYPES[kind]):
            raise ValueError(f"{what}: '{f.name}' must be {f.type}, got {item!r}")
    return value
