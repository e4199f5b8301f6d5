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

#: Bytes the largest float64 array of one no-grad slice may hold: half the 2 MiB
#: per-core L2. Preset-size ppl_random ran 57.1 ms at 8 sequences, 64.8 at 16, 84.6 at 64.
_SLICE_BYTES = 1 << 20


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
        if self.max_len < 1 or self.layers < 1 or self.heads < 1 or self.hidden_size < 1:
            raise ValueError("max_len, layers, heads and hidden_size must be positive")
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


def relative_attention_bias(distance_table, n: int, window: Optional[int] = None, *, queries=None, ops=T):
    """Per-head additive attention bias from clamped relative distances.

    distance_table (2*window+1, heads); entry [i][j] of the result is
    table[clamp(j - queries[i], -window, window) + window] for key j in
    0..n-1, so the bias depends only on the clamped offset and is
    translation invariant away from the clamp. ``queries`` holds the query
    positions, (r,) or (B, r), and defaults to 0..n-1.
    Returns (heads, r, n) or (B, heads, r, n).
    """
    rows = distance_table.shape[0]
    if window is None:
        window = (rows - 1) // 2
    if window < 1 or rows != 2 * window + 1:
        raise ValueError(
            f"distance table must have 2*window+1 rows with window >= 1, got {rows} rows"
        )
    queries = np.arange(n) if queries is None else np.asarray(queries)
    idx = np.clip(np.arange(n) - queries[..., None], -window, window) + window
    d = idx.ndim + 1  # heads move from the last axis to just before the query axis
    return ops.transpose(ops.take(distance_table, idx, name="rel_bias"), (*range(d - 3), d - 1, d - 3, d - 2))


def _slice_size(cfg: TransformerConfig, width: int) -> int:
    """Sequences per no-grad slice: as many as fit ``_SLICE_BYTES`` with
    width * max(heads * width, intermediate_size, vocab_size) float64 values
    each, the largest array one sequence makes in a forward; at least one."""
    return max(1, _SLICE_BYTES // (8 * width * max(cfg.heads * width, cfg.intermediate_size, cfg.vocab_size)))


def _split_heads(ops, y, heads: int):
    """(B, r, hidden) -> (B, heads, r, hidden / heads)."""
    batch, rows, hidden = y.shape
    return ops.transpose(ops.reshape(y, (batch, rows, heads, hidden // heads)), (0, 2, 1, 3))


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

    def _arrays(self) -> Dict[str, np.ndarray]:
        """The parameters' current arrays, for ``tensor.array_ops``; built per
        call, since restoring a training snapshot rebinds ``.data``."""
        return {name: t.data for name, t in self.params.items()}

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
        rows=None,
        flat_rows=None,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> Tensor:
        """Logits for every position: (N, vocab) or (B, N, vocab).

        Bidirectional mode lets every position see every non-pad position;
        causal mode restricts attention to positions <= the query. [PAD]
        keys are masked out of attention in both modes.

        ``rows`` limits the logits to the positions it names, per sequence:
        (r,) for one sequence, (B,) or (B, r) for a batch. The result has
        shape ``rows.shape + (vocab,)`` and equals those rows of the full
        forward up to rounding. ``flat_rows`` (R,) instead names positions
        of the flattened (B·n) batch, any number per sequence, and gives
        (R, vocab); training reads its loss rows this way.

        Only a forward with gradients enabled records a graph. Under
        ``no_grad`` the block runs on ``tensor.array_ops`` over the parameter
        arrays, as the cached decode does, and just the logits come back in a
        Tensor, with the bits of the recording forward.
        """
        cfg = self.config
        ids = np.asarray(tokens, dtype=np.int64)
        shape = ids.shape
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        self._validate_tokens(ids)
        drop = cfg.dropout_rate if train else 0.0
        if drop > 0.0 and rng is None:
            raise ValueError("forward: training with dropout requires an rng")
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim > len(shape) or (not single and rows.shape[:1] != shape[:1]):
                raise ValueError(f"forward: rows of shape {rows.shape} do not fit tokens of shape {shape}")
            if np.any((rows < 0) | (rows >= ids.shape[1])):
                raise ValueError(f"forward: a row lies outside a sequence of length {ids.shape[1]}")
            shape, rows = rows.shape, rows.reshape(ids.shape[0], -1)
        if flat_rows is not None:
            if rows is not None:
                raise ValueError("forward: pass rows or flat_rows, not both")
            flat_rows = np.asarray(flat_rows, dtype=np.int64)
            if flat_rows.ndim != 1:
                raise ValueError(f"forward: flat_rows must be one-dimensional, got shape {flat_rows.shape}")
            if np.any((flat_rows < 0) | (flat_rows >= ids.size)):
                raise ValueError(f"forward: a flat row lies outside the {ids.size} positions of the batch")
            shape = flat_rows.shape
        recording = T.grad_enabled()
        ops, p = (T, self.params) if recording else (T.array_ops, self._arrays())
        logits = self._run(ops, p, ids, rows=rows, flat_rows=flat_rows, drop=drop, rng=rng)
        if logits.shape != shape + (cfg.vocab_size,):
            logits = ops.reshape(logits, shape + (cfg.vocab_size,))
        return logits if recording else Tensor(logits)

    def logits(self, tokens, *, rows=None) -> np.ndarray:
        """Evaluation-mode forward on plain arrays, recording no graph: the
        logits array of ``forward(tokens, rows=rows)`` under ``no_grad``, run as
        forwards of at most ``_slice_size`` sequences at the caller's width, so
        every logit has the bits of one unsliced forward. ``rows`` that do not
        fit the whole batch go to one forward of it, which rejects them."""
        ids = np.asarray(tokens, dtype=np.int64)
        rows = None if rows is None else np.asarray(rows, dtype=np.int64)
        misfit = rows is not None and (rows.ndim not in (1, 2) or len(rows) != len(ids))
        with T.no_grad():
            if ids.ndim != 2 or ids.shape[1] == 0 or misfit:
                return self.forward(ids, rows=rows).data
            size = _slice_size(self.config, ids.shape[1])
            parts = [self.forward(ids[s:s + size], rows=None if rows is None else rows[s:s + size]).data
                     for s in range(0, max(len(ids), 1), size)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _attention_bias(self, ops, p, ids: np.ndarray, queries: np.ndarray):
        """Additive pre-softmax term of queries ``queries`` (r,) or (B, r) over
        the keys of ``ids`` (B, n): -1e30 at [PAD] keys and, if causal, at keys
        after the query, plus the relative-position bias. The [PAD] term is left
        out when no key is [PAD], the causal one when the only query is the last
        position (a cached decode step); None stands for no term at all."""
        bias = None
        pad = ids == PAD_ID
        if pad.any():
            bias = np.where(pad, T.NEG_INF, 0.0)[:, None, None, :]
        n = ids.shape[1]
        if self.is_causal and (queries.size != 1 or queries.item() < n - 1):
            future = np.expand_dims(np.where(np.arange(n) > queries[..., None], T.NEG_INF, 0.0), -3)
            bias = future if bias is None else bias + future
        if self.config.positional_kind == "relative":
            rel = relative_attention_bias(p["rel_bias"], n, self.config.relative_window, queries=queries, ops=ops)
            # a mask entry (0 or -1e30) absorbs rel, so rel + mask gives the
            # scores the same bits as adding the mask first, then rel
            bias = rel if bias is None else rel + bias
        return bias

    def _run(
        self, ops, p, ids: np.ndarray, *, start: int = 0, rows=None, flat_rows=None,
        drop: float = 0.0, rng=None, cache=None,
    ):
        """Embedding, blocks and head over ``ops``: logits (B, n - start, vocab)
        for positions start..n-1 of ``ids`` (B, n), (B, r, vocab) for the
        positions ``rows`` (B, r) only, or (R, vocab) for the positions
        ``flat_rows`` (R,) of the flattened (B·n) batch only.

        Past the keys and values, the last block reads a position's own
        residual only, so the rest of it runs on the selected rows: ``rows``
        are gathered before the queries, ``flat_rows``, which may hold a
        different count per sequence, after the attention context.

        ``ops`` is ``pmlm.tensor`` with the parameter Tensors as ``p``, or
        ``tensor.array_ops`` with their arrays. Without a cache, start is 0.
        With one, positions start..n-1 write their keys and values into it
        and attend to the cached keys and values of positions 0..start-1.
        """
        cfg = self.config
        batch, n = ids.shape
        queries = np.arange(start, n)
        h = ops.take(p["tok_emb"], ids[:, start:], name="tok_emb")
        if cfg.positional_kind == "absolute":
            h = h + ops.take(p["pos_emb"], queries, name="pos_emb")
        h = ops.dropout(h, drop, rng)
        bias = self._attention_bias(ops, p, ids, queries)

        flat = flat_rows if rows is None else rows + n * np.arange(batch)[:, None]

        def gather(t):
            return ops.take(ops.reshape(t, (batch * n, cfg.hidden_size)), flat, name="rows")

        scale = 1.0 / math.sqrt(cfg.head_dim)
        for i in range(cfg.layers):
            pre = f"layers.{i}."
            last = i == cfg.layers - 1
            x = ops.layer_norm(h, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
            k, v = [_split_heads(ops, ops.matmul(x, p[pre + f"attn.w{w}"], bias=p[pre + f"attn.b{w}"]), cfg.heads)
                    for w in "kv"]
            if cache is not None:
                cache.k[i][:, :, start:n] = k
                cache.v[i][:, :, start:n] = v
                k, v = cache.k[i][:, :, :n], cache.v[i][:, :, :n]
            if rows is not None and last:
                h, x = gather(h), gather(x)
                bias = self._attention_bias(ops, p, ids, rows)
            q = _split_heads(ops, ops.matmul(x, p[pre + "attn.wq"], bias=p[pre + "attn.bq"]), cfg.heads)
            attn = ops.dropout(ops.softmax(q @ ops.transpose(k, (0, 1, 3, 2)), scale, bias), drop, rng)
            ctx = ops.reshape(ops.transpose(attn @ v, (0, 2, 1, 3)), (batch, q.shape[2], cfg.hidden_size))
            if flat_rows is not None and last:
                h, ctx = gather(h), gather(ctx)
            h = h + ops.dropout(ops.matmul(ctx, p[pre + "attn.wo"], bias=p[pre + "attn.bo"]), drop, rng)

            x = ops.layer_norm(h, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
            f = ops.gelu(ops.matmul(x, p[pre + "ffn.w_in"], bias=p[pre + "ffn.b_in"]))
            h = h + ops.dropout(ops.matmul(f, p[pre + "ffn.w_out"], bias=p[pre + "ffn.b_out"]), drop, rng)

        x = ops.layer_norm(h, p["ln_f.gain"], p["ln_f.bias"])
        return ops.matmul(x, p["out.w"], bias=p["out.b"])

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

        logits = self._run(T.array_ops, self._arrays(), ids[None, :], start=cache.length, cache=cache)
        cache.length = n
        cache.tokens = list(ids)
        return logits[0, -1], cache
