"""Probabilistic masking: priors over the masking ratio, mask sampling, and
the analytic total probability of a mask pattern.

A pattern M over n maskable positions with k masked has, conditionally on a
ratio r, probability r^k (1-r)^(n-k); integrating out r under the prior
gives alpha_M. Under the uniform prior this is the Beta integral
B(n-k+1, k+1) = (n-k)! k! / (n+1)!. All pattern probabilities are kept in
log space (lgamma), which stays finite far past the factorial overflow
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np
from scipy import integrate

from .data import json_object

PRIOR_KINDS = ("uniform", "point_mass", "truncated_uniform")

ENUMERATION_LIMIT = 16


@dataclass(frozen=True)
class MaskingPrior:
    """Distribution over the masking ratio r in [0, 1]."""

    kind: str
    r0: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ValueError(f"prior kind must be one of {PRIOR_KINDS}, got '{self.kind}'")
        if self.kind == "point_mass":
            if self.r0 is None or not 0.0 <= self.r0 <= 1.0:
                raise ValueError(f"point_mass prior needs r0 in [0, 1], got {self.r0}")
        if self.kind == "truncated_uniform":
            if self.a is None or self.b is None:
                raise ValueError("truncated_uniform prior needs bounds a and b")
            if not (0.0 <= self.a <= 1.0 and 0.0 <= self.b <= 1.0):
                raise ValueError(f"bounds must lie in [0, 1], got a={self.a}, b={self.b}")
            if not self.a < self.b:
                raise ValueError(f"truncated_uniform needs a < b, got a={self.a}, b={self.b}")

    @classmethod
    def uniform(cls) -> "MaskingPrior":
        return cls("uniform")

    @classmethod
    def point_mass(cls, r0: float) -> "MaskingPrior":
        return cls("point_mass", r0=r0)

    @classmethod
    def truncated(cls, a: float, b: float) -> "MaskingPrior":
        return cls("truncated_uniform", a=a, b=b)

    @property
    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5
        if self.kind == "point_mass":
            return self.r0
        return 0.5 * (self.a + self.b)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "point_mass":
            d["r0"] = self.r0
        if self.kind == "truncated_uniform":
            d["a"], d["b"] = self.a, self.b
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MaskingPrior":
        return cls(**json_object(d, "prior", cls))


def sample_ratio(prior: MaskingPrior, rng: np.random.Generator) -> float:
    if prior.kind == "point_mass":
        return prior.r0
    if prior.kind == "uniform":
        return float(rng.random())
    return float(prior.a + (prior.b - prior.a) * rng.random())


@dataclass(eq=False)
class MaskPattern:
    """Binary mask over n positions: indicator m, sorted masked indices, count k.

    Positions flagged as padding are never masked and do not count toward
    the maskable total used in probability computations.
    """

    indicator: np.ndarray
    indices: tuple
    k: int
    n: int
    pad_flags: Optional[np.ndarray] = None

    def __post_init__(self):
        self.indicator = np.asarray(self.indicator, dtype=bool)
        if self.indicator.shape != (self.n,):
            raise ValueError(f"indicator shape {self.indicator.shape} does not match n={self.n}")
        if self.k != len(self.indices) or self.k != int(self.indicator.sum()):
            raise ValueError("mask count k disagrees with indices/indicator")
        if tuple(sorted(self.indices)) != tuple(self.indices):
            raise ValueError("masked indices must be sorted")
        if self.k and not self.indicator[list(self.indices)].all():
            raise ValueError("indices and indicator disagree")
        if self.pad_flags is not None:
            self.pad_flags = np.asarray(self.pad_flags, dtype=bool)
            if self.pad_flags.shape != (self.n,):
                raise ValueError("pad_flags shape mismatch")
            if np.any(self.indicator & self.pad_flags):
                raise ValueError("a [PAD] position is masked")

    @classmethod
    def from_indicator(cls, m, pad_flags=None) -> "MaskPattern":
        m = np.asarray(m, dtype=bool)
        idx = tuple(int(i) for i in np.flatnonzero(m))
        return cls(indicator=m, indices=idx, k=len(idx), n=m.shape[0], pad_flags=pad_flags)

    @classmethod
    def from_indices(cls, n: int, indices: Sequence[int], pad_flags=None) -> "MaskPattern":
        m = np.zeros(n, dtype=bool)
        m[list(indices)] = True
        return cls.from_indicator(m, pad_flags=pad_flags)

    @property
    def n_maskable(self) -> int:
        if self.pad_flags is None:
            return self.n
        return self.n - int(self.pad_flags.sum())


@dataclass(frozen=True)
class MaskWeight:
    log_alpha: float

    @property
    def alpha(self) -> float:
        return math.exp(self.log_alpha)


def sample_mask(
    n: int,
    r: float,
    rng: np.random.Generator,
    pad_flags: Optional[np.ndarray] = None,
) -> MaskPattern:
    """Mask each non-pad position independently with probability r."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"masking ratio must lie in [0, 1], got {r}")
    m = rng.random(n) < r
    if pad_flags is not None:
        m &= ~np.asarray(pad_flags, dtype=bool)
    return MaskPattern.from_indicator(m, pad_flags=pad_flags)


def mask_probability(pattern: MaskPattern, prior: MaskingPrior) -> MaskWeight:
    """log alpha_M: log of the pattern probability with r integrated out.

    uniform         lgamma(n-k+1) + lgamma(k+1) - lgamma(n+2)
    point_mass(r0)  k log r0 + (n-k) log(1-r0); -inf when impossible
    truncated(a,b)  log of the numeric integral of r^k (1-r)^(n-k) / (b-a)
    """
    n, k = pattern.n_maskable, pattern.k
    if prior.kind == "uniform":
        return MaskWeight(math.lgamma(n - k + 1) + math.lgamma(k + 1) - math.lgamma(n + 2))
    if prior.kind == "point_mass":
        r0 = prior.r0
        if r0 == 0.0:
            return MaskWeight(0.0 if k == 0 else -math.inf)
        if r0 == 1.0:
            return MaskWeight(0.0 if k == n else -math.inf)
        return MaskWeight(k * math.log(r0) + (n - k) * math.log1p(-r0))
    value, _ = integrate.quad(
        lambda r: r**k * (1.0 - r) ** (n - k), prior.a, prior.b, epsabs=1e-14, epsrel=1e-12
    )
    value /= prior.b - prior.a
    return MaskWeight(math.log(value) if value > 0.0 else -math.inf)


def enumerate_masks(n: int) -> List[MaskPattern]:
    """All 2^n patterns over n positions, ordered by bitmask value."""
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumerate_masks supports n <= {ENUMERATION_LIMIT}, got {n}")
    if n < 0:
        raise ValueError("n must be non-negative")
    patterns = []
    for bits in range(1 << n):
        m = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        patterns.append(MaskPattern.from_indicator(m))
    return patterns


# ---------------------------------------------------------------------------
# exact-arithmetic identities
# ---------------------------------------------------------------------------


def uniform_alpha_fraction(n: int, k: int) -> Fraction:
    """alpha under the uniform prior as an exact rational: (n-k)! k! / (n+1)!."""
    return Fraction(math.factorial(n - k) * math.factorial(k), math.factorial(n + 1))


def beta_factorial_identity_holds(n: int, k: int) -> bool:
    """B(n-k+1, k+1) * (n+1)! == (n-k)! k! in exact arithmetic.

    The Beta value is the integral of r^k (1-r)^(n-k) over [0, 1], taken
    term by term on the binomial expansion of (1-r)^(n-k) as an exact
    rational, without the factorial closed form it is checked against:
    sum_j C(n-k, j) (-1)^j / (k+j+1).
    """
    beta = sum(Fraction((-1) ** j * math.comb(n - k, j), k + j + 1) for j in range(n - k + 1))
    product = beta * math.factorial(n + 1)
    return product.denominator == 1 and product == math.factorial(n - k) * math.factorial(k)
