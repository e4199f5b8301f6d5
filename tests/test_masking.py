"""Prior sampling statistics and the analytic pattern probability, checked
against quadrature, exact rational arithmetic, and Monte Carlo."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from pmlm.masking import (
    MaskPattern,
    MaskingPrior,
    beta_factorial_identity_holds,
    enumerate_masks,
    mask_probability,
    sample_mask,
    sample_ratio,
)

from helpers import truncated_alpha_fraction


def uniform_alpha_fraction(n: int, k: int) -> Fraction:
    """alpha under the uniform prior as an exact rational: (n-k)! k! / (n+1)!."""
    return Fraction(math.factorial(n - k) * math.factorial(k), math.factorial(n + 1))


def quad_alpha(n: int, k: int, a: float = 0.0, b: float = 1.0) -> float:
    """Independent quadrature oracle for the integrated pattern probability."""
    val, _ = integrate.quad(lambda r: r**k * (1 - r) ** (n - k), a, b, epsabs=1e-15, epsrel=1e-13)
    return val / (b - a)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------


def test_prior_validation():
    with pytest.raises(ValueError, match="a < b"):
        MaskingPrior.truncated(0.0, 0.0)
    with pytest.raises(ValueError, match="a < b"):
        MaskingPrior.truncated(0.7, 0.2)
    with pytest.raises(ValueError):
        MaskingPrior.point_mass(1.5)
    with pytest.raises(ValueError, match="kind"):
        MaskingPrior("gaussian")


def test_point_mass_always_returns_r0():
    prior = MaskingPrior.point_mass(0.15)
    rng = np.random.default_rng(0)
    assert all(sample_ratio(prior, rng) == 0.15 for _ in range(100))


def test_uniform_ratio_mean():
    rng = np.random.default_rng(1)
    draws = [sample_ratio(MaskingPrior.uniform(), rng) for _ in range(100_000)]
    assert abs(np.mean(draws) - 0.5) < 0.005
    assert 0.0 <= min(draws) and max(draws) <= 1.0


def test_truncated_ratio_mean_and_support():
    prior = MaskingPrior.truncated(0.2, 0.8)
    rng = np.random.default_rng(2)
    draws = np.array([sample_ratio(prior, rng) for _ in range(100_000)])
    se = (0.8 - 0.2) / math.sqrt(12) / math.sqrt(len(draws))
    assert abs(draws.mean() - 0.5) < 3 * se
    assert draws.min() >= 0.2 and draws.max() <= 0.8


# ---------------------------------------------------------------------------
# mask sampling
# ---------------------------------------------------------------------------


def test_sample_mask_boundary_ratios():
    rng = np.random.default_rng(3)
    empty = sample_mask(10, 0.0, rng)
    assert empty.k == 0 and empty.indices == ()
    full = sample_mask(10, 1.0, rng)
    assert full.k == 10


def test_sample_mask_expected_count():
    rng = np.random.default_rng(4)
    ks = [sample_mask(20, 0.3, rng).k for _ in range(10_000)]
    assert abs(np.mean(ks) - 6.0) < 0.1


def test_sample_mask_never_masks_padding():
    rng = np.random.default_rng(5)
    pads = np.zeros(12, dtype=bool)
    pads[8:] = True
    for _ in range(500):
        pattern = sample_mask(12, 1.0, rng, pad_flags=pads)
        assert not any(i >= 8 for i in pattern.indices)
        assert pattern.n_maskable == 8
    with pytest.raises(ValueError, match="PAD"):
        MaskPattern.from_indices(12, [9], pad_flags=pads)


def test_pattern_invariants_enforced():
    with pytest.raises(ValueError, match="one row"):
        MaskPattern(np.array([[1, 0], [0, 1]], dtype=bool))
    pattern = MaskPattern(np.array([0, 1, 0, 1, 1], dtype=bool))
    assert (pattern.n, pattern.k, pattern.indices) == (5, 3, (1, 3, 4))


# ---------------------------------------------------------------------------
# pattern probability
# ---------------------------------------------------------------------------


def test_uniform_alpha_small_case():
    # integral of r(1-r) over [0,1] is 1/6
    oracle = quad_alpha(2, 1)
    np.testing.assert_allclose(oracle, 1 / 6, rtol=0, atol=1e-13)
    pattern = MaskPattern.from_indices(2, [0])
    w = mask_probability(pattern, MaskingPrior.uniform())
    np.testing.assert_allclose(w.alpha, 1 / 6, rtol=1e-12)


def test_point_mass_alpha_values():
    pattern = MaskPattern.from_indices(4, [])
    assert mask_probability(pattern, MaskingPrior.point_mass(0.0)).alpha == 1.0
    assert mask_probability(pattern, MaskingPrior.point_mass(1.0)).log_alpha == -math.inf
    # 0.15^2 * 0.85^3, evaluated directly
    pattern = MaskPattern.from_indices(5, [1, 3])
    w = mask_probability(pattern, MaskingPrior.point_mass(0.15))
    np.testing.assert_allclose(w.alpha, 0.0138178125, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 20, 30])
def test_uniform_closed_form_matches_quadrature(n):
    prior = MaskingPrior.uniform()
    for k in range(n + 1):
        pattern = MaskPattern.from_indices(n, list(range(k)))
        closed = mask_probability(pattern, prior).log_alpha
        assert abs(closed - math.log(quad_alpha(n, k))) < 1e-10


def test_uniform_equals_truncated_full_range():
    prior_uniform = MaskingPrior.uniform()
    prior_full = MaskingPrior.truncated(0.0, 1.0)
    for n, k in [(1, 0), (4, 2), (10, 7)]:
        pattern = MaskPattern.from_indices(n, list(range(k)))
        a = mask_probability(pattern, prior_uniform).log_alpha
        b = mask_probability(pattern, prior_full).log_alpha
        assert abs(a - b) < 1e-10


def test_uniform_alpha_matches_exact_rational():
    for n in range(1, 15):
        for k in range(n + 1):
            pattern = MaskPattern.from_indices(n, list(range(k)))
            alpha = mask_probability(pattern, MaskingPrior.uniform()).alpha
            np.testing.assert_allclose(alpha, float(uniform_alpha_fraction(n, k)), rtol=1e-12)


@pytest.mark.parametrize("a, b", [(0.2, 0.7), (0.0, 0.3), (0.6, 1.0), (0.98, 0.99)])
def test_truncated_alpha_matches_exact_rational(a, b):
    prior = MaskingPrior.truncated(a, b)
    for n in range(17):
        for k in range(n + 1):
            alpha = mask_probability(MaskPattern.from_indices(n, list(range(k))), prior).alpha
            np.testing.assert_allclose(alpha, float(truncated_alpha_fraction(n, k, a, b)), rtol=1e-13, atol=0)


NARROW_UPPER = [math.nextafter(0.5, 1.0), 0.5 + 1e-12, 0.5 + 1e-7]


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("b", NARROW_UPPER, ids=["nextafter", "1e-12", "1e-7"])
def test_narrow_truncated_prior_normalises(b, n):
    # sum_k C(n, k) alpha_k is the prior's total mass over k
    prior = MaskingPrior.truncated(0.5, b)
    weights = (mask_probability(MaskPattern.from_indices(n, list(range(k))), prior).alpha for k in range(n + 1))
    total = math.fsum(math.comb(n, k) * w for k, w in enumerate(weights))
    assert abs(total - 1.0) <= 1e-14


@pytest.mark.parametrize(
    "a, b", [(0.2, 0.7), (0.0, 0.3), (0.6, 1.0), (0.98, 0.99)] + [(0.5, b) for b in NARROW_UPPER]
)
def test_truncated_log_alpha_within_4_ulp_of_exact(a, b):
    prior = MaskingPrior.truncated(a, b)
    with localcontext() as ctx:
        ctx.prec = 40
        for n in range(65):
            for k in range(n + 1):
                exact = truncated_alpha_fraction(n, k, a, b)
                ref = (Decimal(exact.numerator) / Decimal(exact.denominator)).ln()
                got = mask_probability(MaskPattern.from_indices(n, list(range(k))), prior).log_alpha
                assert abs(Decimal(got) - ref) <= 4 * Decimal(math.ulp(float(ref))), (n, k)


# ---------------------------------------------------------------------------
# enumeration and normalization
# ---------------------------------------------------------------------------


def test_enumerate_single_position():
    patterns = enumerate_masks(1)
    assert len(patterns) == 2
    weights = [mask_probability(p, MaskingPrior.uniform()).alpha for p in patterns]
    np.testing.assert_allclose(sorted(weights), [0.5, 0.5], rtol=1e-14)


def test_enumerate_guard():
    with pytest.raises(ValueError, match="16"):
        enumerate_masks(17)


def test_enumeration_is_exhaustive_and_distinct():
    patterns = enumerate_masks(4)
    assert len(patterns) == 16
    assert len({tuple(p.indicator.tolist()) for p in patterns}) == 16


@pytest.mark.parametrize(
    "prior",
    [MaskingPrior.uniform(), MaskingPrior.point_mass(0.15), MaskingPrior.truncated(0.2, 0.8)],
    ids=["uniform", "point15", "trunc"],
)
@pytest.mark.parametrize("n", [1, 3, 8, 12])
def test_alpha_normalizes_over_all_patterns(prior, n):
    total = math.fsum(mask_probability(p, prior).alpha for p in enumerate_masks(n))
    assert abs(total - 1.0) < 1e-12


def test_uniform_prior_k_marginal_is_uniform():
    """Sampling (r, M) with the uniform prior makes K uniform on 0..N;
    chi-square against the flat distribution at significance 0.001."""
    n, samples = 10, 100_000
    rng = np.random.default_rng(6)
    counts = np.zeros(n + 1, dtype=np.int64)
    for _ in range(samples):
        r = sample_ratio(MaskingPrior.uniform(), rng)
        counts[sample_mask(n, r, rng).k] += 1
    expected = np.full(n + 1, samples / (n + 1))
    result = stats.chisquare(counts, expected)
    assert result.pvalue > 0.001, (counts, result)
    # analytic marginal: C(n,k) * (n-k)! k! / (n+1)! = 1/(n+1) for every k
    for k in range(n + 1):
        analytic = math.comb(n, k) * float(uniform_alpha_fraction(n, k))
        np.testing.assert_allclose(analytic, 1 / (n + 1), rtol=1e-12)


# ---------------------------------------------------------------------------
# exact identities
# ---------------------------------------------------------------------------


def test_beta_factorial_identity_exact_up_to_20():
    for n in range(21):
        for k in range(n + 1):
            assert beta_factorial_identity_holds(n, k)


def test_beta_identity_ties_to_quadrature():
    # the rational B equals the integral the closed form claims to integrate
    for n, k in [(3, 1), (7, 4), (12, 12), (15, 0)]:
        exact = Fraction(math.factorial(n - k) * math.factorial(k), math.factorial(n + 1))
        np.testing.assert_allclose(quad_alpha(n, k), float(exact), rtol=1e-10)
