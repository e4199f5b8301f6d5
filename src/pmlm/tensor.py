"""Minimal float64 tensor kernel with reverse-mode autodiff.

Every operation builds a node in an implicit computation graph; ``leaf_grads``
walks the graph once for d(loss)/d(leaf), and ``backward`` accumulates those
into the ``.grad`` of each leaf tensor (one built directly, such as a
parameter). Intermediate nodes keep ``.grad = None``. All data is float64 and
all ops are deterministic for fixed inputs.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

# per thread, so a thread scoring under no_grad never turns off another's graph
_GRAD = threading.local()

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-12  # added to the variance before layer norm's square root

# Additive attention-mask value: large enough that exp underflows to exactly
# 0 after the max-shift, finite so masked rows never produce NaN.
NEG_INF = -1e30


@contextmanager
def no_grad():
    """Disable graph recording inside the block, in the calling thread only."""
    prev = grad_enabled()
    _GRAD.enabled = False
    try:
        yield
    finally:
        _GRAD.enabled = prev


def grad_enabled() -> bool:
    """Whether ops record graph nodes in this thread: False inside ``no_grad``."""
    return getattr(_GRAD, "enabled", True)


class Tensor:
    """A float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._vjp: Optional[Callable] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # own copy: vjp outputs may alias buffers shared with other nodes
            self.grad = np.array(np.broadcast_to(g, self.data.shape))
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


class NonFiniteLogits(ValueError):
    pass


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _shape_error(op: str, *shapes) -> ValueError:
    described = " vs ".join(str(tuple(s)) for s in shapes)
    return ValueError(f"{op}: incompatible shapes {described}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _tracked(t) -> bool:
    return isinstance(t, Tensor) and t.requires_grad


def _array(t):
    """The data of a Tensor operand; a plain array or None as it is."""
    return t.data if isinstance(t, Tensor) else t


def _node(data: np.ndarray, parents: Sequence, vjp: Callable) -> Tensor:
    """A node over ``parents``; an operand that is not a Tensor gets no gradient."""
    out = Tensor(data)
    if grad_enabled() and any(_tracked(p) for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise _shape_error("add", a.shape, b.shape) from None

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _node(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise _shape_error("mul", a.shape, b.shape) from None

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _node(data, (a, b), vjp)


def matmul(a, b, bias=None) -> Tensor:
    """Matrix product with numpy stacking semantics (batch dims broadcast),
    plus ``bias`` broadcast over it when given: a linear layer."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise _shape_error("matmul", a.shape, b.shape)
    data = _matmul(a.data, b.data, _array(bias))

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None
        gb = None
        if b.requires_grad and b.data.ndim == 2:
            # a shared weight: one product over all stacked rows, no batch sum
            k, m = b.shape
            gb = a.data.reshape(-1, k).T @ g.reshape(-1, m)
        elif b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
        return (
            _unbroadcast(ga, a.shape) if ga is not None else None,
            _unbroadcast(gb, b.shape) if gb is not None else None,
            _unbroadcast(g, bias.shape) if _tracked(bias) else None,
        )

    return _node(data, (a, b, bias), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise _shape_error("reshape", a.shape, shape) from None
    return _node(data, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def take(a, indices, *, name: str = "take") -> Tensor:
    """Gather rows along axis 0 (embedding lookup). Backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(indices)
    if np.any(idx < 0) or np.any(idx >= a.shape[0]):
        raise ValueError(f"{name}: index out of range for table of {a.shape[0]} rows")
    data = a.data[idx]

    def vjp(g):
        # sort the indices once; each run of equal ones sums into its table row
        flat = idx.reshape(-1)
        order = np.argsort(flat, kind="stable")
        starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
        rows = g.reshape((flat.size,) + a.shape[1:])[order]
        ga = np.zeros_like(a.data)
        if starts.size:  # reduceat rejects an empty set of segments
            ga[flat[order[starts]]] = rows if starts.size == flat.size else np.add.reduceat(rows, starts, axis=0)
        return (ga,)

    return _node(data, (a,), vjp)


def sum_(a) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum()

    def vjp(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(data, (a,), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and normalization: array kernels, then the Tensor ops
# ---------------------------------------------------------------------------


def _softmax(e: np.ndarray, bias=None) -> np.ndarray:
    """Stable softmax over the last axis of e + bias, computed in e. Rows sum to 1."""
    if bias is not None:
        e += bias
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _standardize(x: np.ndarray, empty=None):
    """(xhat, inv): xhat is the last axis of x at mean 0 / variance 1, in a
    fresh array (from ``empty`` when given), and inv is 1 / sqrt(var + _LN_EPS).
    For a single row, as in a cached decode step, xhat is a vector and inv a
    float: the same sums, with no broadcast over the leading axes."""
    # the mean and variance as np.mean and np.var compute them (sum, then
    # divide by the count), bit for bit, without their per-call overhead
    count = x.shape[-1]
    if x.size == count:
        row = x.reshape(-1)
        xhat = row - row.sum() / count
        inv = 1.0 / math.sqrt((xhat * xhat).sum() / count + _LN_EPS)
    else:
        mean = x.sum(axis=-1, keepdims=True) / count
        if empty is None:
            xhat = x - mean
            square = xhat * xhat
        else:
            xhat = np.subtract(x, mean, out=empty(x.shape))
            square = np.multiply(xhat, xhat, out=empty(x.shape))
        inv = 1.0 / np.sqrt(square.sum(axis=-1, keepdims=True) / count + _LN_EPS)
    xhat *= inv
    return xhat, inv


def _scale_shift(y: np.ndarray, gain=None, bias=None) -> np.ndarray:
    """y * gain + bias, computed in y; a missing gain or bias is left out."""
    if gain is not None:
        y *= gain
    if bias is not None:
        y += bias
    return y


@lru_cache(maxsize=None)
def _erf():
    """scipy's erf ufunc, imported at the first GELU so that importing pmlm loads numpy only."""
    from scipy.special import erf
    return erf


def _gelu_cdf(x: np.ndarray, empty=None) -> np.ndarray:
    """0.5 * (1 + erf(x / sqrt(2))), in one buffer (from ``empty`` when given)."""
    t = x * _INV_SQRT2 if empty is None else np.multiply(x, _INV_SQRT2, out=empty(x.shape))
    _erf()(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def _gelu(x: np.ndarray, empty=None) -> np.ndarray:
    """x * Φ(x), computed in Φ(x)'s buffer."""
    cdf = _gelu_cdf(x, empty)
    return np.multiply(x, cdf, out=cdf)


def _matmul(a: np.ndarray, b: np.ndarray, bias=None) -> np.ndarray:
    """a @ b, plus bias added in place when given."""
    out = a @ b
    if bias is not None:
        out += bias
    return out


def _dropout(x: np.ndarray, keep: np.ndarray, rate: float) -> np.ndarray:
    """x at the kept entries, scaled by 1 / (1 - rate); 0 elsewhere."""
    out = x * keep
    out *= 1.0 / (1.0 - rate)
    return out


def softmax(a, scale: float = 1.0, bias=None) -> Tensor:
    """Softmax over the last axis of a * scale + bias (scores, scale, mask)."""
    a = as_tensor(a)
    data = _softmax(a.data * scale, _array(bias))

    def vjp(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        gx = data * (g - dot)
        return (gx * scale, _unbroadcast(gx, bias.shape) if _tracked(bias) else None)

    return _node(data, (a, bias), vjp)


def layer_norm(a, gain=None, bias=None) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then scale by ``gain``
    and shift by ``bias`` (each (a.shape[-1],)) when given."""
    a = as_tensor(a)
    xhat, inv = _standardize(a.data)
    data = _scale_shift(xhat.copy(), _array(gain), _array(bias)).reshape(a.shape)

    def vjp(g):
        # the row means of g * w and g * xhat * w, as products with w
        count = a.shape[-1]
        w = np.ones(count) if gain is None else _array(gain)
        gx = g * xhat
        ga = g * w
        ga -= (g @ w)[..., None] / count
        ga -= xhat * ((gx @ w)[..., None] / count)
        ga *= inv
        return (
            ga,
            _unbroadcast(gx, gain.shape) if _tracked(gain) else None,
            _unbroadcast(g, bias.shape) if _tracked(bias) else None,
        )

    return _node(data, (a, gain, bias), vjp)


def gelu(a) -> Tensor:
    """Exact GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    a = as_tensor(a)
    cdf = _gelu_cdf(a.data)
    data = a.data * cdf

    def vjp(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        return (g * (cdf + a.data * pdf),)

    return _node(data, (a,), vjp)


def dropout(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; pass rate 0 (or skip the call) for evaluation."""
    a = as_tensor(a)
    if rate <= 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    keep = rng.random(a.shape) >= rate
    return _node(_dropout(a.data, keep, rate), (a,), lambda g: (_dropout(g, keep, rate),))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _nll_rows(logits: np.ndarray, targets) -> tuple:
    """(nll, logp, flat) for logits (..., V) and integer targets (...,):
    nll_i = -log softmax(logits_i)[targets_i], logp the log-softmax of the
    logits, and flat the targets as (row, class) index pairs."""
    t = np.asarray(targets)
    if t.shape != logits.shape[:-1]:
        raise _shape_error("cross_entropy", logits.shape, t.shape)
    if not np.all(np.isfinite(logits)):
        raise NonFiniteLogits("cross_entropy: non-finite logits")
    classes = logits.shape[-1]
    if t.size and (t.min() < 0 or t.max() >= classes):
        raise ValueError(f"cross_entropy: target id out of range for {classes} classes")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    flat = (np.arange(t.size), t.reshape(-1))
    return -logp.reshape(-1, classes)[flat].reshape(t.shape), logp, flat


def cross_entropy_rows(logits, targets) -> Tensor:
    """Per-row negative log-likelihood.

    logits (..., V), integer targets (...,) -> nll (...,) where
    nll_i = -log softmax(logits_i)[targets_i].
    """
    logits = as_tensor(logits)
    data, logp, flat = _nll_rows(logits.data, targets)

    def vjp(g):
        grad = np.exp(logp)
        grad.reshape(-1, logp.shape[-1])[flat] -= 1.0
        return (grad * g[..., None],)

    return _node(data, (logits,), vjp)


# The forward ops and the loss above on plain arrays, with no Tensor and no
# graph node per op. ``Transformer.forward`` runs on them whenever no graph is
# recorded, or on ``scratch_ops`` below once their arrays are large, and the
# cached decode step on their kernels. Each shares its kernel with its Tensor
# op and gives the same bits; dropout draws the same mask from the same rng.
# Inputs are trusted: only the loss checks them. ``softmax`` overwrites its
# argument and ``add`` its second one: pass only a temporary nothing else
# reads. The other ops leave their arguments as they are.
array_ops = SimpleNamespace(
    add=lambda a, b: np.add(a, b, out=b),
    matmul=_matmul,
    softmax=lambda x, scale=1.0, bias=None: _softmax(np.multiply(x, scale, out=x), bias),
    layer_norm=lambda x, gain=None, bias=None: _scale_shift(_standardize(x)[0], gain, bias).reshape(x.shape),
    gelu=_gelu,
    dropout=lambda x, rate, rng: x if rate <= 0.0 else _dropout(x, rng.random(x.shape) >= rate, rate),
    take=lambda a, indices, name="take": a[indices],
    reshape=lambda a, shape: a.reshape(shape),
    transpose=lambda a, axes: a.transpose(axes),
    cross_entropy_rows=lambda logits, targets: _nll_rows(logits, targets)[0],
)


# ``scratch_ops`` are ``array_ops`` whose matmul, layer norm, GELU and copying
# reshape put each array of 64 KiB or more in a buffer their thread keeps and
# hands out again once nothing refers to it. Made and freed on every forward,
# such arrays let glibc grow and trim its heap on a pattern set by where
# earlier allocations happened to lie: at preset size, one process scored
# random-order sequences with no page faults, the next with 3,000-8,000 per
# sequence and about 15 % slower. Smaller frees never trim the heap.
_SCRATCH_BYTES = 1 << 16
# buffers a thread keeps: past them the free ones are dropped to make room, and
# a new buffer is not kept when none was free
_SCRATCH_BUFFERS = 32
_SCRATCH = threading.local()
_probe = [np.empty(0)]
_FREE = sys.getrefcount(_probe[0])  # the count of a buffer only its list refers to
del _probe


def _scratch(shape) -> np.ndarray:
    """An uninitialised float64 array of ``shape``: one of this thread's
    buffers of its size that nothing else refers to, else a new one."""
    size = math.prod(shape)
    if 8 * size < _SCRATCH_BYTES:
        return np.empty(shape)
    kept = _SCRATCH.__dict__.setdefault("kept", {})  # size -> buffers
    same = kept.setdefault(size, [])
    for i in range(len(same)):
        if sys.getrefcount(same[i]) == _FREE:
            return same[i].reshape(shape)
    if sum(map(len, kept.values())) >= _SCRATCH_BUFFERS:
        for bufs in kept.values():
            bufs[:] = [bufs[i] for i in range(len(bufs)) if sys.getrefcount(bufs[i]) > _FREE]
    buf = np.empty(size)
    if sum(map(len, kept.values())) < _SCRATCH_BUFFERS:
        same.append(buf)
    return buf.reshape(shape)


def _scratch_matmul(a: np.ndarray, b: np.ndarray, bias=None) -> np.ndarray:
    """``_matmul`` in a ``_scratch`` array."""
    lead = a.shape[:-2]
    if b.ndim > 2 and b.shape[:-2] != lead:
        lead = np.broadcast_shapes(lead, b.shape[:-2])
    out = np.matmul(a, b, out=_scratch(lead + (a.shape[-2], b.shape[-1])))
    if bias is not None:
        out += bias
    return out


def _scratch_reshape(a: np.ndarray, shape) -> np.ndarray:
    """a in ``shape``: a view if a is C-contiguous, else a copy in a ``_scratch`` array."""
    if a.flags.c_contiguous:
        return a.reshape(shape)
    out = _scratch(shape)
    out.reshape(a.shape)[...] = a
    return out


scratch_ops = SimpleNamespace(
    **dict(
        vars(array_ops),
        matmul=_scratch_matmul,
        layer_norm=lambda x, gain=None, bias=None: (
            _scale_shift(_standardize(x, empty=_scratch)[0], gain, bias).reshape(x.shape)
        ),
        gelu=lambda x: _gelu(x, _scratch),
        reshape=_scratch_reshape,
    )
)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def leaf_grads(loss: Tensor, g=1.0) -> list:
    """(leaf, d(loss)/d(leaf) * g) for every leaf tensor of the graph that
    requires a gradient, in walk order, from one reverse walk seeded with the
    upstream gradient ``g``; no ``.grad`` is written. The pairs hold no leaf
    twice, and a gradient may alias a buffer of the graph."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if _tracked(p) and id(p) not in seen:
                stack.append((p, False))

    # per-walk gradient map, so repeated walks never see each other's sums
    local: dict[int, np.ndarray] = {id(loss): np.asarray(g, dtype=np.float64)}
    leaves = []
    for node in reversed(order):
        g = local.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            leaves.append((node, g))
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            if key in local:
                local[key] = local[key] + pg
            else:
                local[key] = pg
    return leaves


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every leaf tensor ``t`` of
    the graph that requires a gradient; intermediate nodes keep ``.grad``
    as None.

    Repeated calls re-walk the graph and add on top of existing gradients;
    call ``zero_grad`` on the parameters between optimization steps.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss does not depend on any tracked tensor")
    for leaf, g in leaf_grads(loss):
        leaf.accumulate_grad(g)
