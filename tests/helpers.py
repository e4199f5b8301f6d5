"""Shared test utilities: tiny model factories, finite-difference checks and
the exact-rational pattern probability of the truncated prior."""

import math
from fractions import Fraction

import numpy as np

from pmlm.model import Transformer, TransformerConfig


def tiny_config(**overrides) -> TransformerConfig:
    base = dict(
        vocab_size=12,
        max_len=8,
        layers=2,
        heads=2,
        hidden_size=16,
        intermediate_size=32,
        dropout_rate=0.0,
        attention_mode="bidirectional",
        positional_kind="absolute",
        relative_window=4,
    )
    base.update(overrides)
    return TransformerConfig(**base)


def tiny_model(seed=0, **overrides) -> Transformer:
    return Transformer.init(tiny_config(**overrides), seed=seed)


def uniform_output_model(seed=0, **overrides) -> Transformer:
    """All logits exactly zero: the model predicts the uniform distribution."""
    m = tiny_model(seed=seed, **overrides)
    m.params["out.w"].data[:] = 0.0
    m.params["out.b"].data[:] = 0.0
    return m


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar function of the array x (in place)."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def sampled_coords(shape, rng: np.random.Generator, per_tensor: int = 6):
    """A reproducible subset of coordinates of an array of the given shape."""
    total = int(np.prod(shape)) if shape else 1
    count = min(per_tensor, total)
    flat = rng.choice(total, size=count, replace=False)
    return [np.unravel_index(i, shape) if shape else () for i in flat]


def truncated_alpha_fraction(n: int, k: int, a: float, b: float) -> Fraction:
    """(1/(b-a)) * integral of r^k (1-r)^(n-k) over [a, b] as an exact
    rational, integrated term by term on the binomial expansion of (1-r)^(n-k):
    sum_j C(n-k, j) (-1)^j (b^e - a^e) / e with e = k+j+1."""
    a, b = Fraction(a), Fraction(b)
    total = Fraction(0)
    for j in range(n - k + 1):
        e = k + j + 1
        total += math.comb(n - k, j) * (-1) ** j * (b**e - a**e) / e
    return total / (b - a)
