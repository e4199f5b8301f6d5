"""Small pre-norm transformer with bidirectional or causal self-attention.

The same backbone serves masked-language training (bidirectional) and
left-to-right baselines (causal). Positions come either from a learned
absolute table or from a learned per-head additive bias on attention scores
indexed by clamped relative distance. Padded key positions are excluded
from attention everywhere.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

from . import tensor as T
from .data import PAD_ID, json_object
from .tensor import Tensor

ATTENTION_MODES = ("bidirectional", "causal")
POSITIONAL_KINDS = ("absolute", "relative")


@dataclass
class TransformerConfig:
    vocab_size: int
    max_len: int = 64
    layers: int = 2
    heads: int = 4
    hidden_size: int = 64
    intermediate_size: int = 256
    dropout_rate: float = 0.1
    attention_mode: str = "bidirectional"
    positional_kind: str = "absolute"
    relative_window: int = 8

    def __post_init__(self):
        if self.vocab_size < 4:
            raise ValueError(f"vocab_size must be at least 4, got {self.vocab_size}")
        if self.hidden_size % self.heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by heads {self.heads}"
            )
        if self.attention_mode not in ATTENTION_MODES:
            raise ValueError(f"attention_mode must be one of {ATTENTION_MODES}")
        if self.positional_kind not in POSITIONAL_KINDS:
            raise ValueError(f"positional_kind must be one of {POSITIONAL_KINDS}")
        if self.positional_kind == "relative" and self.relative_window < 1:
            raise ValueError("relative_window must be >= 1")
        if self.max_len < 1 or self.layers < 1 or self.heads < 1:
            raise ValueError("max_len, layers and heads must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TransformerConfig":
        return cls(**json_object(d, "model config", cls))


def parameter_shapes(cfg: TransformerConfig) -> Dict[str, tuple]:
    """Canonical name -> shape map; the name set is a function of the config."""
    h, inter, v = cfg.hidden_size, cfg.intermediate_size, cfg.vocab_size
    shapes: Dict[str, tuple] = {"tok_emb": (v, h)}
    if cfg.positional_kind == "absolute":
        shapes["pos_emb"] = (cfg.max_len, h)
    else:
        shapes["rel_bias"] = (2 * cfg.relative_window + 1, cfg.heads)
    for i in range(cfg.layers):
        p = f"layers.{i}."
        shapes[p + "ln1.gain"] = (h,)
        shapes[p + "ln1.bias"] = (h,)
        for w in ("q", "k", "v", "o"):
            shapes[p + f"attn.w{w}"] = (h, h)
            shapes[p + f"attn.b{w}"] = (h,)
        shapes[p + "ln2.gain"] = (h,)
        shapes[p + "ln2.bias"] = (h,)
        shapes[p + "ffn.w_in"] = (h, inter)
        shapes[p + "ffn.b_in"] = (inter,)
        shapes[p + "ffn.w_out"] = (inter, h)
        shapes[p + "ffn.b_out"] = (h,)
    shapes["ln_f.gain"] = (h,)
    shapes["ln_f.bias"] = (h,)
    shapes["out.w"] = (h, v)
    shapes["out.b"] = (v,)
    return shapes


def init_parameters(cfg: TransformerConfig, rng: np.random.Generator) -> Dict[str, Tensor]:
    """normal(0, 0.02) weight matrices, unit layer-norm gains, zero biases."""
    params: Dict[str, Tensor] = {}
    for name, shape in parameter_shapes(cfg).items():
        if name.endswith("gain"):
            data = np.ones(shape)
        elif len(shape) == 1:
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, 0.02, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def relative_attention_bias(distance_table, n: int, window: Optional[int] = None, *, start: int = 0, ops=T):
    """Per-head additive attention bias from clamped relative distances.

    distance_table (2*window+1, heads); entry [i][j] of the result is
    table[clamp(j - i, -window, window) + window] for query row i in
    start..n-1 and key j in 0..n-1, so the bias depends only on the clamped
    offset and is translation invariant away from the clamp.
    Returns (heads, n - start, n).
    """
    rows = distance_table.shape[0]
    if window is None:
        window = (rows - 1) // 2
    if window < 1 or rows != 2 * window + 1:
        raise ValueError(
            f"distance table must have 2*window+1 rows with window >= 1, got {rows} rows"
        )
    offsets = np.arange(n)[None, :] - np.arange(start, n)[:, None]
    idx = np.clip(offsets, -window, window) + window
    return ops.transpose(ops.take(distance_table, idx, name="rel_bias"), (2, 0, 1))


class DecodeCache:
    """Per-layer key/value cache for incremental causal decoding:
    (1, heads, max_len, head_dim) arrays whose first ``length`` positions
    hold the keys and values of ``tokens``."""

    def __init__(self, cfg: TransformerConfig):
        self.config = cfg
        self.length = 0
        self.tokens: list[int] = []
        shape = (1, cfg.heads, cfg.max_len, cfg.head_dim)
        self.k = [np.zeros(shape) for _ in range(cfg.layers)]
        self.v = [np.zeros(shape) for _ in range(cfg.layers)]


class Transformer:
    """Config plus a named parameter map, with full and incremental forwards."""

    def __init__(self, config: TransformerConfig, params: Dict[str, Tensor]):
        expected = parameter_shapes(config)
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ValueError(f"parameter names do not match config: missing={missing} extra={extra}")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ValueError(f"parameter '{name}' has shape {params[name].shape}, expected {shape}")
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: TransformerConfig, seed: int = 0) -> "Transformer":
        rng = np.random.default_rng(seed)
        return cls(config, init_parameters(config, rng))

    @property
    def is_causal(self) -> bool:
        return self.config.attention_mode == "causal"

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # ------------------------------------------------------------------
    # full forward
    # ------------------------------------------------------------------

    def _validate_tokens(self, ids: np.ndarray) -> None:
        cfg = self.config
        if ids.shape[-1] == 0:
            raise ValueError("forward: empty token sequence")
        if ids.shape[-1] > cfg.max_len:
            raise ValueError(
                f"forward: sequence length {ids.shape[-1]} exceeds max_len {cfg.max_len}"
            )
        bad = (ids < 0) | (ids >= cfg.vocab_size)
        if np.any(bad):
            b, n = np.argwhere(bad)[0]
            raise ValueError(
                f"forward: token id {int(ids[b, n])} at position {int(n)} "
                f"outside vocabulary of size {cfg.vocab_size}"
            )

    def forward(
        self,
        tokens,
        *,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> Tensor:
        """Logits for every position: (N, vocab) or (B, N, vocab).

        Bidirectional mode lets every position see every non-pad position;
        causal mode restricts attention to positions <= the query. [PAD]
        keys are masked out of attention in both modes.
        """
        cfg = self.config
        ids = np.asarray(tokens, dtype=np.int64)
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        self._validate_tokens(ids)
        drop = cfg.dropout_rate if train else 0.0
        if drop > 0.0 and rng is None:
            raise ValueError("forward: training with dropout requires an rng")
        logits = self._run(T, self.params, ids, drop=drop, rng=rng)
        if single:
            logits = T.reshape(logits, (ids.shape[1], cfg.vocab_size))
        return logits

    def logits(self, tokens) -> np.ndarray:
        """Evaluation-mode forward without graph recording."""
        with T.no_grad():
            return self.forward(tokens).data

    def _run(self, ops, p, ids: np.ndarray, *, start: int = 0, drop: float = 0.0, rng=None, cache=None):
        """Embedding, blocks and head over ``ops``: logits (B, n - start, vocab)
        for query rows start..n-1 of ``ids`` (B, n).

        ``ops`` is ``pmlm.tensor`` with the parameter Tensors as ``p``, or
        ``tensor.array_ops`` with their arrays. Without a cache, start is 0.
        With one, rows start..n-1 write their keys and values into it and
        attend to the cached keys and values of positions 0..start-1.
        """
        cfg = self.config
        batch, n = ids.shape
        rows = n - start
        h = ops.take(p["tok_emb"], ids[:, start:], name="tok_emb")
        if cfg.positional_kind == "absolute":
            h = h + ops.take(p["pos_emb"], np.arange(start, n), name="pos_emb")
        h = ops.dropout(h, drop, rng)

        # additive pre-softmax bias: [PAD] keys, and keys after the query if
        # causal; a term that would be all zero is left out
        bias = None
        pad = ids == PAD_ID
        if pad.any():
            bias = np.where(pad, T.NEG_INF, 0.0)[:, None, None, :]
        if self.is_causal and rows > 1:
            future = np.triu(np.full((rows, n), T.NEG_INF), k=start + 1)
            bias = future if bias is None else bias + future
        rel = None
        if cfg.positional_kind == "relative":
            rel = relative_attention_bias(p["rel_bias"], n, cfg.relative_window, start=start, ops=ops)

        scale = 1.0 / math.sqrt(cfg.head_dim)
        for i in range(cfg.layers):
            pre = f"layers.{i}."
            x = ops.layer_norm(h) * p[pre + "ln1.gain"] + p[pre + "ln1.bias"]
            q, k, v = [
                ops.transpose(
                    ops.reshape(
                        x @ p[pre + f"attn.w{w}"] + p[pre + f"attn.b{w}"],
                        (batch, rows, cfg.heads, cfg.head_dim),
                    ),
                    (0, 2, 1, 3),
                )
                for w in "qkv"
            ]
            if cache is not None:
                cache.k[i][:, :, start:n] = k
                cache.v[i][:, :, start:n] = v
                k, v = cache.k[i][:, :, :n], cache.v[i][:, :, :n]
            scores = (q @ ops.transpose(k, (0, 1, 3, 2))) * scale
            if bias is not None:
                scores = scores + bias
            if rel is not None:
                scores = scores + rel
            attn = ops.dropout(ops.softmax(scores), drop, rng)
            ctx = ops.reshape(ops.transpose(attn @ v, (0, 2, 1, 3)), (batch, rows, cfg.hidden_size))
            h = h + ops.dropout(ctx @ p[pre + "attn.wo"] + p[pre + "attn.bo"], drop, rng)

            x = ops.layer_norm(h) * p[pre + "ln2.gain"] + p[pre + "ln2.bias"]
            f = ops.gelu(x @ p[pre + "ffn.w_in"] + p[pre + "ffn.b_in"])
            h = h + ops.dropout(f @ p[pre + "ffn.w_out"] + p[pre + "ffn.b_out"], drop, rng)

        x = ops.layer_norm(h) * p["ln_f.gain"] + p["ln_f.bias"]
        return x @ p["out.w"] + p["out.b"]

    # ------------------------------------------------------------------
    # incremental forward (causal decode path)
    # ------------------------------------------------------------------

    def forward_incremental(
        self, prefix, cache: Optional[DecodeCache] = None
    ) -> tuple[np.ndarray, DecodeCache]:
        """Logit row for the last prefix position, reusing cached keys/values.

        Only causal attention admits this: later tokens cannot change the
        hidden states of earlier ones, so each call runs the block on just
        the positions the cache has not seen, on plain arrays. Bidirectional
        models must rerun a full forward after every new token and are
        rejected here.
        """
        cfg = self.config
        if cfg.attention_mode != "causal":
            raise ValueError(
                "forward_incremental requires causal attention; bidirectional "
                "models update every hidden state per step and need a full forward"
            )
        ids = np.asarray(prefix, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("forward_incremental: prefix must be one-dimensional")
        self._validate_tokens(ids[None, :])
        if np.any(ids == PAD_ID):
            raise ValueError("forward_incremental: prefix must not contain [PAD]")
        if cache is None:
            cache = DecodeCache(cfg)
        if cache.config is not cfg and cache.config != cfg:
            raise ValueError("forward_incremental: cache built for a different config")
        n = ids.shape[0]
        if n < cache.length or list(ids[: cache.length]) != cache.tokens:
            raise ValueError("forward_incremental: prefix does not extend the cached prefix")
        if n == cache.length:
            raise ValueError("forward_incremental: no new positions beyond the cache")

        params = {name: t.data for name, t in self.params.items()}
        logits = self._run(T.array_ops, params, ids[None, :], start=cache.length, cache=cache)
        cache.length = n
        cache.tokens = list(ids)
        return logits[0, -1], cache
