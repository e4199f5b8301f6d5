"""Probabilistic masking: priors over the masking ratio, mask sampling, and
the analytic total probability of a mask pattern.

A pattern M over n maskable positions with k masked has, conditionally on a
ratio r, probability r^k (1-r)^(n-k); integrating out r under the prior
gives alpha_M. Under the uniform prior this is the Beta integral
B(n-k+1, k+1) = (n-k)! k! / (n+1)!. All pattern probabilities are kept in
log space (lgamma), which stays finite far past the factorial overflow
point; the truncated prior's integral is summed in exact fractions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

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
        if self.r0 is not None and self.kind != "point_mass":
            raise ValueError(f"{self.kind} prior takes no r0, got r0={self.r0}")
        if (self.a, self.b) != (None, None) and self.kind != "truncated_uniform":
            raise ValueError(f"{self.kind} prior takes no bounds, got a={self.a}, b={self.b}")
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

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}

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
    """Binary mask over n positions: indicator m and its masked count k.

    Positions flagged as padding are never masked and do not count toward
    the maskable total used in probability computations.
    """

    indicator: np.ndarray
    pad_flags: Optional[np.ndarray] = None
    k: int = field(init=False)

    def __post_init__(self):
        self.indicator = np.asarray(self.indicator, dtype=bool)
        if self.indicator.ndim != 1:
            raise ValueError(f"indicator must be one row, got shape {self.indicator.shape}")
        self.k = int(np.count_nonzero(self.indicator))
        if self.pad_flags is not None:
            self.pad_flags = np.asarray(self.pad_flags, dtype=bool)
            if self.pad_flags.shape != self.indicator.shape:
                raise ValueError("pad_flags shape mismatch")
            if np.any(self.indicator & self.pad_flags):
                raise ValueError("a [PAD] position is masked")

    @classmethod
    def from_indices(cls, n: int, indices: Sequence[int], pad_flags=None) -> "MaskPattern":
        m = np.zeros(n, dtype=bool)
        m[list(indices)] = True
        return cls(m, pad_flags)

    @property
    def n(self) -> int:
        return self.indicator.shape[0]

    @property
    def indices(self) -> tuple:
        """The masked positions, ascending."""
        return tuple(int(i) for i in np.flatnonzero(self.indicator))

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
    return MaskPattern(m, pad_flags)


def mask_probability(pattern: MaskPattern, prior: MaskingPrior) -> MaskWeight:
    """log alpha_M: log of the pattern probability with r integrated out.

    uniform         lgamma(n-k+1) + lgamma(k+1) - lgamma(n+2)
    point_mass(r0)  k log r0 + (n-k) log(1-r0); -inf when impossible
    truncated(a,b)  (1/(b-a)) * integral of r^k (1-r)^(n-k) over [a, b], exact
                    until one rounding (``_truncated_log_alpha``)
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
    return MaskWeight(_truncated_log_alpha(n, k, prior.a, prior.b))


def _beta_integral(n: int, k: int, a: float, b: float) -> Fraction:
    """The integral of r^k (1-r)^(n-k) over [a, b] as an exact rational, taken term by term on
    the binomial expansion of (1-r)^(n-k): sum_j C(n-k, j) (-1)^j (b^e - a^e) / e, e = k+j+1."""
    fa, fb = Fraction(a), Fraction(b)
    return sum(math.comb(n - k, j) * (-1) ** j * (fb**e - fa**e) / e for j, e in enumerate(range(k + 1, n + 2)))


@lru_cache(maxsize=None)
def _truncated_log_alpha(n: int, k: int, a: float, b: float) -> float:
    """log of ``_beta_integral(n, k, a, b) / (b - a)``, exact until one rounding: only t in
    alpha = 2^s (1 + t), |t| < 1/2, is rounded, so log1p(t) + s log 2 neither underflows nor cancels.
    """
    x = _beta_integral(n, k, a, b) / (Fraction(b) - Fraction(a))
    s = round(math.log2(x.numerator) - math.log2(x.denominator))
    return math.log1p(float(x * Fraction(2) ** -s - 1)) + s * math.log(2)


def mask_matrix(n: int) -> np.ndarray:
    """All 2^n masked sets as a (2^n, n) bool matrix: row ``bits`` masks i iff bit i is set."""
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"every exact enumeration is capped at n <= {ENUMERATION_LIMIT}, got {n}")
    if n < 0:
        raise ValueError("n must be non-negative")
    return (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)


def enumerate_masks(n: int) -> List[MaskPattern]:
    """All 2^n patterns over n positions, ordered by bitmask value."""
    return [MaskPattern(m) for m in mask_matrix(n)]


# ---------------------------------------------------------------------------
# exact-arithmetic identities
# ---------------------------------------------------------------------------


def beta_factorial_identity_holds(n: int, k: int) -> bool:
    """B(n-k+1, k+1) * (n+1)! == (n-k)! k! in exact arithmetic.

    The Beta value is ``_beta_integral`` over [0, 1], the exact sum the
    truncated prior reads, taken without the factorial closed form it is
    checked against.
    """
    product = _beta_integral(n, k, 0, 1) * math.factorial(n + 1)
    return product.denominator == 1 and product == math.factorial(n - k) * math.factorial(k)
