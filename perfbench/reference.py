"""A frozen reference kernel that tracks how fast the machine runs right now.

On a shared machine the same code runs up to twice as fast or slow from one
minute to the next, and a run's median moves with it. The benchmark times this
kernel next to every operation and scales the operation's time by
``nominal / measured``, so a timing reads as if the machine ran at the
kernel's nominal speed. The kernel is a plain numpy copy of a small pre-norm
transformer forward, which shares its instruction mix with pmlm's forward
passes; it never calls pmlm, so changes to pmlm do not move it.

Each workload uses the shape closest to its own work: ``tiny`` (one short
sequence, overhead-bound like the verifier and cached decode), ``single``
(one 64-token sequence, like a generation step), ``step`` (4 x 64, timed
between training steps) and ``batch`` (8 x 64, BLAS-bound like the
perplexity forwards). An operation's scale uses the median of the five
measurements centred on the one taken just before it, which follows the
machine's speed over seconds without adding one measurement's noise to every
operation.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import erf

# name -> (batch, length, forwards per measurement, nominal ms per measurement)
KERNELS = {
    "tiny": (1, 8, 4, 1.5),
    "single": (1, 64, 2, 3.0),
    "step": (4, 64, 1, 8.0),
    "batch": (8, 64, 1, 20.0),
}

_H, _F, _V, _HEADS = 64, 256, 32, 4


class Reference:
    def __init__(self, kernel: str):
        self.kernel = kernel
        batch, length, self.forwards, self.nominal_ms = KERNELS[kernel]
        rng = np.random.default_rng(20200404)
        shapes = dict(
            q=(_H, _H), k=(_H, _H), v=(_H, _H), o=(_H, _H), i=(_H, _F), f=(_F, _H),
            emb=(_V, _H), pos=(length, _H), out=(_H, _V),
        )
        self.w = {name: rng.normal(0.0, 0.02, shape) for name, shape in shapes.items()}
        self.ids = rng.integers(0, _V, size=(batch, length))
        self.times_ms: list[float] = []

    def _forward(self) -> np.ndarray:
        w, ids = self.w, self.ids
        b, n = ids.shape
        d = _H // _HEADS
        h = w["emb"][ids] + w["pos"][:n]
        for _ in range(2):
            x = _norm(h)
            q = (x @ w["q"]).reshape(b, n, _HEADS, d).transpose(0, 2, 1, 3)
            k = (x @ w["k"]).reshape(b, n, _HEADS, d).transpose(0, 2, 3, 1)
            v = (x @ w["v"]).reshape(b, n, _HEADS, d).transpose(0, 2, 1, 3)
            s = (q @ k) / np.sqrt(d)
            s = np.exp(s - s.max(axis=-1, keepdims=True))
            s /= s.sum(axis=-1, keepdims=True)
            h = h + (s @ v).transpose(0, 2, 1, 3).reshape(b, n, _H) @ w["o"]
            f = _norm(h) @ w["i"]
            h = h + (0.5 * f * (1.0 + erf(f / np.sqrt(2.0)))) @ w["f"]
        return _norm(h) @ w["out"]

    def measure(self) -> float:
        """Time the kernel once; returns the milliseconds it took."""
        t0 = time.perf_counter()
        for _ in range(self.forwards):
            self._forward()
        ms = (time.perf_counter() - t0) * 1e3
        self.times_ms.append(ms)
        return ms

    def scale_at(self, index: int, half: int = 2) -> float:
        """nominal / measured, over the median of the measurements within
        ``half`` places of measurement ``index`` (before and after it)."""
        window = self.times_ms[max(0, index - half) : index + half + 1]
        return self.nominal_ms / statistics.median(window)

    def median_ms(self) -> float:
        return statistics.median(self.times_ms) if self.times_ms else float("nan")


def _norm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-12)
