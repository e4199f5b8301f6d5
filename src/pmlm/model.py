"""Small pre-norm transformer with bidirectional or causal self-attention.

The same backbone serves masked-language training (bidirectional) and
left-to-right baselines (causal). Positions come either from a learned
absolute table or from a learned per-head additive bias on attention scores
indexed by clamped relative distance. Padded key positions are excluded
from attention everywhere.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

from . import tensor as T
from .data import PAD_ID, json_object
from .tensor import Tensor

ATTENTION_MODES = ("bidirectional", "causal")
POSITIONAL_KINDS = ("absolute", "relative")

#: Bytes the largest float64 arrays of one no-grad call may hold, split across its workers:
#: half the 2 MiB per-core L2. Preset-size ppl_random ran 57.1 ms at 8 sequences, 64.8 at 16,
#: 84.6 at 64. 1 MiB per worker pushed peak RSS past its bound (ppl_causal 68.2 -> 77.0 MB,
#: generate's 60-snapshot replay 69.1 -> 77.3); split, 70.3 and 69.4. One worker keeps it all:
#: 512 KiB slices ran a random-order score 15-20 % slower on one thread (97-100 -> 115-119 ms).
_SLICE_BYTES = 1 << 20
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
        if min(self.max_len, self.layers, self.intermediate_size, self.heads, self.hidden_size) < 1:
            raise ValueError("max_len, layers, intermediate_size, heads and hidden_size must be positive")
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


def relative_attention_bias(distance_table, n: int, *, queries=None, ops=T):
    """Per-head additive attention bias from clamped relative distances.

    distance_table (2*window+1, heads), so window is rows // 2; entry [i][j]
    of the result is table[clamp(j - queries[i], -window, window) + window]
    for key j in 0..n-1, so the bias depends only on the clamped offset and
    is translation invariant away from the clamp. ``queries`` holds the
    query positions, (r,) or (B, r), and defaults to 0..n-1.
    Returns (heads, r, n) or (B, heads, r, n).
    """
    window = distance_table.shape[0] // 2
    queries = np.arange(n) if queries is None else np.asarray(queries)
    idx = np.clip(np.arange(n) - queries[..., None], -window, window) + window
    d = idx.ndim + 1  # heads move from the last axis to just before the query axis
    return ops.transpose(ops.take(distance_table, idx, name="rel_bias"), (*range(d - 3), d - 1, d - 3, d - 2))


def _largest_array_bytes(cfg: TransformerConfig, queries: int, width: int) -> int:
    """Bytes of the largest array a forward of ``queries`` query positions over
    ``width`` keys makes: queries * max(heads * width, intermediate_size,
    vocab_size) float64 values."""
    return 8 * queries * max(cfg.heads * width, cfg.intermediate_size, cfg.vocab_size)


def _array_ops(cfg: TransformerConfig, queries: int, width: int):
    """``tensor.scratch_ops`` for a no-grad forward whose arrays may reach
    ``tensor._SCRATCH_BYTES``, else ``tensor.array_ops``."""
    return T.scratch_ops if _largest_array_bytes(cfg, queries, width) >= T._SCRATCH_BYTES else T.array_ops


def _slice_size(cfg: TransformerConfig, width: int, workers: int) -> int:
    """Sequences per no-grad slice: as many as fit ``_SLICE_BYTES / workers``
    with the largest array one sequence makes in a forward; at least one."""
    return max(1, _SLICE_BYTES // workers // _largest_array_bytes(cfg, width, width))


def _workers(parts: int) -> int:
    """Threads to run ``parts`` sequences or training shards on: one per CPU, at most one per
    part, if every BLAS thread variable that is set says 1; else one, since scoring threads
    beside BLAS threads ran a random-order score about 30 % slower."""
    blas = {os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return min(_CPUS, parts) if blas == {"1"} else 1


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """Threads that run ``_map`` parts beside the calling one, made on first use."""
    return ThreadPoolExecutor(max(1, _CPUS - 1), "pmlm-worker")


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _map(fn, count: int, workers: int) -> list:
    """``[fn(0), ..., fn(count - 1)]``, each in the caller's grad mode and numpy error state,
    on the calling thread and ``workers - 1`` pool threads that each take the next index when
    free. After a part raises no other starts, and the first failure is raised once every
    started part is done."""
    results, failed, todo, lock = [None] * count, {}, iter(range(count)), threading.Lock()

    def claim():
        with lock:
            return None if failed else next(todo, None)

    def drain():
        for i in iter(claim, None):
            try:
                results[i] = fn(i)
            except BaseException as exc:  # raised below, once every started part is done
                failed[i] = exc

    def drain_as(grad: bool, errors: dict):  # a pool thread would record and warn by default
        with nullcontext() if grad else T.no_grad(), np.errstate(**errors):
            drain()

    futures = [_pool().submit(drain_as, T.grad_enabled(), np.geterr()) for _ in range(min(workers, count) - 1)]
    drain()
    for future in futures:  # a drain that has not started has nothing left to take
        if not future.cancel():
            future.result()
    if failed:
        raise failed[min(failed)]
    return results


def _map_slices(fn, cfg: TransformerConfig, batch: int, width: int) -> list:
    """``fn(sl)`` under ``no_grad`` for each slice ``sl`` of at most ``_slice_size`` of a
    (batch, width) batch, in order, through ``_map`` on ``_workers`` threads."""
    workers = _workers(max(batch, 1))
    size = _slice_size(cfg, width, workers)
    slices = [slice(s, s + size) for s in range(0, max(batch, 1), size)]
    with T.no_grad():
        return _map(lambda i: fn(slices[i]), len(slices), workers)


def _split_heads(ops, y, heads: int):
    """(B, r, hidden) -> (B, heads, r, hidden / heads)."""
    batch, rows, hidden = y.shape
    return ops.transpose(ops.reshape(y, (batch, rows, heads, hidden // heads)), (0, 2, 1, 3))


class DecodeCache:
    """Per-layer key/value cache for incremental causal decoding, bound to the
    model that fills it and to that model's parameter arrays at the time it is
    made. ``layers`` holds per layer what the decode step reads: the parameter
    arrays in ``parameter_shapes`` order, then the keys and values as (max_len,
    hidden) rows and as (heads, head_dim, max_len) and (heads, max_len,
    head_dim) views. Their first ``length`` positions hold the keys and values
    of the int64 ids ``tokens[:length]``."""

    def __init__(self, model: "Transformer"):
        cfg = model.config
        self.model = model
        self.arrays = model._arrays()
        self.length = 0
        self.tokens = np.zeros(cfg.max_len, dtype=np.int64)
        self.layers = []
        for i in range(cfg.layers):
            k, v = np.zeros((2, cfg.max_len, cfg.heads, cfg.head_dim))
            params = [self.arrays[name] for name in parameter_shapes(cfg) if name.startswith(f"layers.{i}.")]
            self.layers.append((*params, k.reshape(cfg.max_len, -1), v.reshape(cfg.max_len, -1),
                                k.transpose(1, 2, 0), v.transpose(1, 0, 2)))


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

    def _validate_tokens(self, ids: np.ndarray, start: int = 0) -> None:
        """Reject an empty (B, n) batch, one longer than max_len, or a token id
        outside the vocabulary at positions start..n-1."""
        cfg = self.config
        if ids.shape[-1] == 0:
            raise ValueError("forward: empty token sequence")
        if ids.shape[-1] > cfg.max_len:
            raise ValueError(
                f"forward: sequence length {ids.shape[-1]} exceeds max_len {cfg.max_len}"
            )
        new = ids[..., start:]
        bad = (new < 0) | (new >= cfg.vocab_size)
        if bad.any():
            b, n = np.argwhere(bad)[0]
            raise ValueError(
                f"forward: token id {int(new[b, n])} at position {start + int(n)} "
                f"outside vocabulary of size {cfg.vocab_size}"
            )

    def forward(
        self,
        tokens,
        *,
        rows=None,
        flat_rows=None,
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

        A forward given ``rng`` trains, with dropout at ``config.dropout_rate``
        drawn from it; without ``rng`` no dropout runs.

        Only a forward with gradients enabled records a graph. Under
        ``no_grad`` the block runs on ``tensor.array_ops`` over the parameter
        arrays (``tensor.scratch_ops`` once its arrays are large), and just
        the logits come back in a Tensor, with the bits of the recording forward.
        """
        cfg = self.config
        ids = np.asarray(tokens, dtype=np.int64)
        shape = ids.shape
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        self._validate_tokens(ids)
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
        ops, p = (T, self.params) if recording else (_array_ops(cfg, ids.size, ids.shape[1]), self._arrays())
        logits = self._run(ops, p, ids, rows=rows, flat_rows=flat_rows, rng=rng)
        if logits.shape != shape + (cfg.vocab_size,):
            logits = ops.reshape(logits, shape + (cfg.vocab_size,))
        return logits if recording else Tensor(logits)

    def logits(self, tokens) -> np.ndarray:
        """Evaluation-mode forward on plain arrays, recording no graph: the
        logits array of ``forward(tokens)`` under ``no_grad``, run as forwards
        of at most ``_slice_size`` sequences at the caller's width on
        ``_workers`` threads, so every logit has the bits of one unsliced forward."""
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] == 0:
            with T.no_grad():
                return self.forward(ids).data
        parts = _map_slices(lambda sl: self.forward(ids[sl]).data, self.config, *ids.shape)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _attention_bias(self, ops, p, ids: np.ndarray, queries: np.ndarray):
        """Additive pre-softmax term of queries ``queries`` (r,) or (B, r) over
        the keys of ``ids`` (B, n): -1e30 at [PAD] keys and, if causal, at keys
        after the query, plus the relative-position bias. The [PAD] term is left
        out when no key is [PAD]; None stands for no term at all."""
        bias = None
        pad = ids == PAD_ID
        if pad.any():
            bias = np.where(pad, T.NEG_INF, 0.0)[:, None, None, :]
        n = ids.shape[1]
        if self.is_causal:
            future = np.expand_dims(np.where(np.arange(n) > queries[..., None], T.NEG_INF, 0.0), -3)
            bias = future if bias is None else bias + future
        if self.config.positional_kind == "relative":
            rel = relative_attention_bias(p["rel_bias"], n, queries=queries, ops=ops)
            # a mask entry (0 or -1e30) absorbs rel, so rel + mask gives the
            # scores the same bits as adding the mask first, then rel
            bias = rel if bias is None else rel + bias
        return bias

    def _run(self, ops, p, ids: np.ndarray, *, rows=None, flat_rows=None, rng=None):
        """The full forward, embedding, blocks and head over ``ops``: logits
        (B, n, vocab) for every position of ``ids`` (B, n), (B, r, vocab) for
        the positions ``rows`` (B, r) only, or (R, vocab) for the positions
        ``flat_rows`` (R,) of the flattened (B·n) batch only. With ``rng``,
        dropout runs at ``config.dropout_rate`` on masks drawn from it.

        Past the keys and values, the last block reads a position's own
        residual only, so the rest of it runs on the selected rows: ``rows``
        are gathered before the queries, ``flat_rows``, which may hold a
        different count per sequence, after the attention context.

        ``ops`` is ``pmlm.tensor`` with the parameter Tensors as ``p``, or
        ``tensor.array_ops`` or ``scratch_ops`` with their arrays, whose
        in-place kernels get only arrays made here: the caller's tokens, rows
        and parameters are never written.
        """
        cfg = self.config
        drop = 0.0 if rng is None else cfg.dropout_rate
        batch, n = ids.shape
        queries = np.arange(n)
        h = ops.take(p["tok_emb"], ids, name="tok_emb")
        if cfg.positional_kind == "absolute":
            h = ops.add(ops.take(p["pos_emb"], queries, name="pos_emb"), h)
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
            if rows is not None and last:
                h, x = gather(h), gather(x)
                bias = self._attention_bias(ops, p, ids, rows)
            q = _split_heads(ops, ops.matmul(x, p[pre + "attn.wq"], bias=p[pre + "attn.bq"]), cfg.heads)
            attn = ops.dropout(ops.softmax(ops.matmul(q, ops.transpose(k, (0, 1, 3, 2))), scale, bias), drop, rng)
            ctx = ops.reshape(ops.transpose(ops.matmul(attn, v), (0, 2, 1, 3)), (batch, q.shape[2], cfg.hidden_size))
            if flat_rows is not None and last:
                h, ctx = gather(h), gather(ctx)
            h = ops.add(h, ops.dropout(ops.matmul(ctx, p[pre + "attn.wo"], bias=p[pre + "attn.bo"]), drop, rng))

            x = ops.layer_norm(h, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
            f = ops.gelu(ops.matmul(x, p[pre + "ffn.w_in"], bias=p[pre + "ffn.b_in"]))
            h = ops.add(h, ops.dropout(ops.matmul(f, p[pre + "ffn.w_out"], bias=p[pre + "ffn.b_out"]), drop, rng))

        x = ops.layer_norm(h, p["ln_f.gain"], p["ln_f.bias"])
        return ops.matmul(x, p["out.w"], bias=p["out.b"])

    def _extend(self, cache: DecodeCache, ids: np.ndarray) -> np.ndarray:
        """Logit row for the last position of the prefix ``ids`` (n,). The
        positions past the cache's attend to its keys and values and add their
        own, which the cache then holds: the block of ``_run`` on (rows, hidden)
        arrays with the bits of its no-grad forward, whose in-place kernels get
        only arrays made here. The one cached decode step; it checks nothing, so
        ``ids`` must extend the cached prefix by valid tokens."""
        cfg, p = self.config, cache.arrays
        start, n = cache.length, ids.shape[0]
        r = n - start
        queries = np.arange(start, n)
        h = p["tok_emb"][ids[start:]]
        bias = None
        if cfg.positional_kind == "absolute":
            h += p["pos_emb"][start:n]
        else:
            bias = relative_attention_bias(p["rel_bias"], n, queries=queries, ops=T.array_ops)
        if r > 1:  # one new row is the last position, which sees every key
            future = np.where(np.arange(n) > queries[:, None], T.NEG_INF, 0.0)
            bias = future if bias is None else bias + future

        norm, scale = T.array_ops.layer_norm, 1.0 / math.sqrt(cfg.head_dim)
        for g1, b1, wq, bq, wk, bk, wv, bv, wo, bo, g2, b2, w_in, b_in, w_out, b_out, k, v, keys, values in cache.layers:
            x = norm(h, g1, b1)
            k[start:n] = T._matmul(x, wk, bk)
            v[start:n] = T._matmul(x, wv, bv)
            e = T._matmul(x, wq, bq).reshape(r, cfg.heads, -1).transpose(1, 0, 2) @ keys[:, :, :n]
            attn = T._softmax(np.multiply(e, scale, out=e), bias)
            h += T._matmul((attn @ values[:, :n]).transpose(1, 0, 2).reshape(r, cfg.hidden_size), wo, bo)
            h += T._matmul(T._gelu(T._matmul(norm(h, g2, b2), w_in, b_in)), w_out, b_out)
        logits = T._matmul(norm(h, p["ln_f.gain"], p["ln_f.bias"]), p["out.w"], p["out.b"])
        cache.tokens[start:n] = ids[start:]
        cache.length = n
        return logits[-1]

    # ------------------------------------------------------------------
    # incremental forward (causal decode path)
    # ------------------------------------------------------------------

    def forward_incremental(
        self, prefix, cache: Optional[DecodeCache] = None
    ) -> tuple[np.ndarray, DecodeCache]:
        """Logit row for the last prefix position, reusing cached keys/values.

        Only causal attention admits this: later tokens cannot change the
        hidden states of earlier ones, so each call checks the positions the
        cache has not seen and runs the block on just those through
        ``_extend``. The cache must come from an earlier call on this
        model with the same parameter arrays. Bidirectional models must rerun
        a full forward after every new token and are rejected here.
        """
        if not self.is_causal:
            raise ValueError(
                "forward_incremental requires causal attention; bidirectional "
                "models update every hidden state per step and need a full forward"
            )
        ids = np.asarray(prefix, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("forward_incremental: prefix must be one-dimensional")
        if cache is None:
            cache = DecodeCache(self)
        elif cache.model is not self:
            raise ValueError("forward_incremental: cache filled by another model")
        elif not all(a is t.data for a, t in zip(cache.arrays.values(), self.params.values())):
            raise ValueError("forward_incremental: cache filled before the model's parameters were rebound")
        start = cache.length
        self._validate_tokens(ids[None, :], start)
        if PAD_ID in ids[start:]:
            raise ValueError("forward_incremental: prefix must not contain [PAD]")
        if ids[:start].tobytes() != cache.tokens[:start].tobytes():  # also when n < start
            raise ValueError("forward_incremental: prefix does not extend the cached prefix")
        if ids.shape[0] == start:
            raise ValueError("forward_incremental: no new positions beyond the cache")
        return self._extend(cache, ids), cache
