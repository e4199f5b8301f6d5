"""Adam optimizer over a named map of tensors.

Bias-corrected first/second moments; step counter increments by exactly
one per update.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from .tensor import Tensor


#: Decay rates of the first and second moments, and the floor under the update's denominator.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class NonFiniteGradient(ValueError):
    pass


class Adam:
    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}

    def step(self, params: Mapping[str, Tensor]) -> None:
        """One Adam update over every parameter with a gradient.

        Parameters with ``grad is None`` are treated as zero-gradient.
        A non-finite gradient raises ``NonFiniteGradient`` before any
        parameter is touched.
        """
        for name, p in params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NonFiniteGradient(f"adam: non-finite gradient for parameter '{name}'")

        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            g = p.grad if p.grad is not None else 0.0
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            # the new values go to the update's own buffer, not into p.data: a
            # decode cache bound to the old arrays by identity then sees the step
            update = np.asarray(self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS))
            p.data = np.subtract(p.data, update, out=update)
