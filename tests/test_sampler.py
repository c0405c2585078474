"""The Monte Carlo's stdlib samplers against exact distributions.

References are exact: ``math.comb`` with ``fractions`` for small n, and
mpmath at 50 digits for large n, where the binomial pmf is summed term by term
when n*p is small and integrated over each bin when it is not (the midpoint
rule's relative error, about 1/(24 n p q), is below 1e-12 for every such case
here).  No scipy: the test extras do not have it.

Each distribution case draws DRAWS variates from its own fixed seed, pools
adjacent values into bins of at least MIN_EXPECTED expected draws, and fails
when the chi-square p-value is below ALPHA.  A correct sampler fails one case
with probability ALPHA = 1e-6, so all 14 cases together with about 1.4e-5, and
with the three parity checks (5.7e-7 each) about 1.6e-5.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from ghzdet import montecarlo as mc

DRAWS = 20_000
MIN_EXPECTED = 20
ALPHA = 1e-6
N_MAX = 2**63 - 1

# Bin edges, in standard deviations from the mean, where n*p*q is large.
Z_EDGES = (-2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5)


def small_n_pmf(n, p):
    """The exact pmf over 0..n, from math.comb and the exact value of p."""
    p = Fraction(p)
    return {k: float(math.comb(n, k) * p**k * (1 - p) ** (n - k)) for k in range(n + 1)}


def large_n_pmf(n, p):
    """The pmf at 0..K, where K leaves a tail below 1e-30 out, for small n*p."""
    with mpmath.workdps(50):
        mp_p = mpmath.mpf(p)
        log_q = mpmath.log1p(-mp_p)
        mean = n * p
        top = math.ceil(mean + 20 * math.sqrt(mean) + 40)
        return {k: float(math.comb(n, k) * mp_p**k * mpmath.exp((n - k) * log_q))
                for k in range(top + 1)}


def binned_by_integration(n, p):
    """Bin probabilities between mean + z * sd edges, integrating the pmf.

    Returns [(upper bound of the bin, probability)], the last bin open.
    """
    with mpmath.workdps(50):
        mp_p = mpmath.mpf(p)
        log_p, log_q = mpmath.log(mp_p), mpmath.log1p(-mp_p)
        log_n_fact = mpmath.loggamma(n + 1)

        def pmf(x):
            return mpmath.exp(log_n_fact - mpmath.loggamma(x + 1) - mpmath.loggamma(n - x + 1)
                              + x * log_p + (n - x) * log_q)

        mean = n * mp_p
        sd = mpmath.sqrt(mean * (1 - mp_p))
        uppers = [int(mpmath.floor(mean + z * sd)) for z in Z_EDGES]
        # 12 sd out on either side the pmf is below 1e-31 of its peak.
        edges = [int(mpmath.floor(mean - 12 * sd))] + uppers + [int(mpmath.ceil(mean + 12 * sd))]
        probs = [float(mpmath.quad(pmf, [lo + 0.5, hi + 0.5])) for lo, hi in zip(edges, edges[1:])]
    return list(zip(uppers + [n], probs))


def pool(pmf):
    """Adjacent values pooled into bins of >= MIN_EXPECTED expected draws."""
    bins, mass = [], 0.0
    for k in sorted(pmf):
        mass += pmf[k]
        if mass * DRAWS >= MIN_EXPECTED:
            bins.append([k, mass])
            mass = 0.0
    bins[-1][1] += mass
    bins[-1][0] = max(pmf)
    return [tuple(b) for b in bins]


def chi_square_p_value(draws, bins):
    uppers = [upper for upper, _ in bins]
    observed = [0] * len(bins)
    for k in draws:
        lo, hi = 0, len(uppers) - 1
        while lo < hi:  # the first bin whose upper bound is >= k
            mid = (lo + hi) // 2
            if uppers[mid] >= k:
                hi = mid
            else:
                lo = mid + 1
        observed[lo] += 1
    total = sum(p for _, p in bins)
    stat = sum((o - DRAWS * p / total) ** 2 / (DRAWS * p / total)
               for o, (_, p) in zip(observed, bins))
    return float(mpmath.gammainc((len(bins) - 1) / 2, stat / 2, mpmath.inf, regularized=True))


def draws(n, p, seed):
    rng = random.Random(seed)
    out = [mc._binomial(rng, n, p) for _ in range(DRAWS)]
    assert all(0 <= k <= n for k in out)
    return out


# (n, p, which branch draws it)
SMALL_N = [
    (1, 0.3, "geometric"),
    (20, 0.2, "geometric"),
    (200, 0.02, "geometric"),
    (30, 0.4, "btrs"),
    (1000, 0.5, "btrs"),
    (30, 0.7, "geometric on 1 - p"),
    (100, 0.85, "btrs on 1 - p"),
]
LARGE_N_SMALL_MEAN = [
    (10**18, 1e-17, "p < 2**-53, n*p = 10"),
    (10**18, 3e-18, "geometric, p < 2**-53"),
    (10**18, 5e-17, "btrs, p < 2**-53"),
    (N_MAX, 1e-18, "geometric at the largest n"),
]
LARGE_N_LARGE_MEAN = [
    (10**14, 0.5, "btrs at the paper-regime count"),
    (N_MAX, 0.3, "btrs at the largest n"),
    (N_MAX, 0.9, "btrs on 1 - p at the largest n"),
]


@pytest.mark.parametrize("n, p, branch", SMALL_N, ids=[c[2] + f" n={c[0]} p={c[1]}" for c in SMALL_N])
def test_small_n_against_the_exact_pmf(n, p, branch):
    bins = pool(small_n_pmf(n, p))
    assert chi_square_p_value(draws(n, p, seed=n + round(1e6 * p)), bins) > ALPHA


@pytest.mark.parametrize("n, p, branch", LARGE_N_SMALL_MEAN,
                         ids=[c[2] for c in LARGE_N_SMALL_MEAN])
def test_large_n_small_mean_against_mpmath(n, p, branch):
    bins = pool(large_n_pmf(n, p))
    assert chi_square_p_value(draws(n, p, seed=round(p * 1e19)), bins) > ALPHA


@pytest.mark.parametrize("n, p, branch", LARGE_N_LARGE_MEAN,
                         ids=[c[2] for c in LARGE_N_LARGE_MEAN])
def test_large_n_large_mean_against_mpmath(n, p, branch):
    bins = binned_by_integration(n, p)
    assert sum(prob for _, prob in bins) == pytest.approx(1.0, abs=1e-12)
    assert chi_square_p_value(draws(n, p, seed=round(p * 10) + n % 1000), bins) > ALPHA


@pytest.mark.parametrize("p", [0.5, 0.3, 0.9])
def test_low_bits_at_the_largest_n(p):
    # k is odd with probability (1 - (1 - 2p)**n) / 2 = 1/2.  A draw located
    # from the float n*p is a multiple of 512 here, so never odd.  |z| <= 5
    # fails a correct sampler with probability 5.7e-7.
    odd = sum(k & 1 for k in draws(N_MAX, p, seed=3))
    assert abs(odd - DRAWS / 2) <= 5 * math.sqrt(DRAWS / 4)


def test_n_p_ten_with_tiny_p_draws_nonzero_counts():
    # log2(1 - p), which Python 3.12's binomialvariate skips with, is 0 for
    # p < 2**-53 and would make every such draw 0.
    rng = random.Random(5)
    assert sum(mc._binomial(rng, 10**18, 1e-17) for _ in range(100)) > 0


@pytest.mark.parametrize("n", [0, 1, 10, N_MAX])
def test_certain_outcomes_draw_nothing(n):
    rng = random.Random(1)
    state = rng.getstate()
    assert mc._binomial(rng, n, 0.0) == 0
    assert mc._binomial(rng, n, 1.0) == n
    assert mc._binomial(rng, 0, 0.4) == 0
    assert rng.getstate() == state


LOG_FACTORIAL_PAIRS = [
    (0, 0), (1, 0), (9, 10), (10, 9), (10, 11), (11, 10), (20, 3), (3, 20), (100, 120),
    (10**6, 10**6 - 1000), (10**14 + 5 * 10**6, 10**14), (10**14, 10**14 + 12_345_678),
    (N_MAX, N_MAX - 10**9), (N_MAX - 3 * 10**9, N_MAX), (N_MAX, 0), (N_MAX, 9), (N_MAX, 10),
    (N_MAX, 2**62), (N_MAX, N_MAX), (N_MAX, N_MAX - 1),
]


@pytest.mark.parametrize("a, b", LOG_FACTORIAL_PAIRS)
def test_log_factorial_ratio_against_mpmath(a, b):
    with mpmath.workdps(60):
        want = float(mpmath.loggamma(a + 1) - mpmath.loggamma(b + 1))
    got = mc._log_factorial_ratio(a, b)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
