"""Closed-form fourfold-coincidence model with efficiency d and dark counts.

A trigger detector T and three signal detectors D1..D3 each fire with
probability gamma on no photon, d + (1-d) gamma on one photon and
d (1-d) + (1-d)^2 gamma on two (fire_probabilities).  Photon creation is
either a single pair (probability p_pair), whose two photons arrive on one of
the ten channels of ARRIVAL_COUNTS, or a double pair carrying the entangled
correlation (p_twopair), one photon per detector.  Every probability of the
model is built from those firing probabilities:

* P(fourfold | pair) is the exact union over the ten channels;
* P(correlated fourfold) = p_twopair d^3 (d + (1-d) gamma): D1..D3 fire on
  their photons, T on its photon or a dark count;
* P(fourfold | double pair) = (d + (1-d) gamma)^4.

Conditioning on all four detectors firing yields the corrected conditional
correlation, its variance, and the separation in standard deviations of |E|
from LHV_BOUND = 1/2, lhv's bound on |F| (FeasibilityReport.f_value) for the
model tetrad.  The Monte Carlo in :mod:`ghzdet.montecarlo` shares only the firing
probabilities and the channel table: it thins counts detector by detector and
does not use the aggregates above.

Array path: d and gamma may be arrays of one shape, a grid of detectors, and
E, sigma and the separation then come out as arrays from the same expressions,
with every check applied to every cell.  ``ghzdet sweep`` works this way.
Anything with a ``shape`` counts as an array.

Floats need no numpy: both correlation modes, sigma and the separation are
plain Python on floats, and a float rounds exactly as its grid cell does.
That holds because every expression is built from +, -, *, / and square
roots, which IEEE arithmetic rounds the same in Python and in numpy: integer
powers are written as products, and a float's square root is math.sqrt,
as numpy's ``** 0.5`` is.  Python's ``**`` on a float calls libm's pow,
which need not round that way.  numpy is imported only in the array branches
of the approx correlation and of sigma_separation.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import lhv

DETECTORS = ("T", "D1", "D2", "D3")
# Photon count at each of DETECTORS for each arrival channel of a single pair.
ARRIVAL_COUNTS = (
    (1, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
    (0, 2, 0, 0),
    (0, 0, 2, 0),
    (0, 0, 0, 2),
    (2, 0, 0, 0),
)
# Each channel's tag names a detector once per photon on it, e.g. "D1D1".
ARRIVAL_TAGS = tuple("".join(name * n for name, n in zip(DETECTORS, counts))
                     for counts in ARRIVAL_COUNTS)

LHV_BOUND = lhv.F_BOUND / 4.0  # the model tetrad (E, E, E, -E) has |F| = 4|E|
SEPARATION_CAP = 1e6
PROB_TOL = 1e-12


def _holds(condition) -> bool:
    """A comparison's result for floats, or whether it holds in every cell."""
    return bool(condition.all()) if hasattr(condition, "shape") else bool(condition)


def _check_prob(name: str, value: float) -> float:
    if not _holds((0.0 <= value) & (value <= 1.0)):
        raise ValueError(f"{name}={value} outside [0, 1]")
    return value


def _check_e_ghz(e_ghz: float) -> None:
    if not -1.0 <= e_ghz <= 1.0:
        raise ValueError(f"e_ghz={e_ghz} outside [-1, 1]")


class DetectorParams(namedtuple("DetectorParams", "d gamma p_pair p_twopair e_ghz")):
    """Efficiency, dark-count probability and creation probabilities.

    d and gamma may be arrays of one shape (the module's array path)."""

    __slots__ = ()

    def __new__(cls, d: float, gamma: float, p_pair: float, p_twopair: float,
                e_ghz: float = 1.0):
        _check_prob("d", d)
        _check_prob("gamma", gamma)
        _check_prob("p_pair", p_pair)
        _check_prob("p_twopair", p_twopair)
        _check_e_ghz(e_ghz)
        if abs(p_pair + p_twopair - 1.0) > PROB_TOL:
            raise ValueError(f"p_pair + p_twopair = {p_pair + p_twopair}, must be 1")
        return super().__new__(cls, d, gamma, p_pair, p_twopair, e_ghz)

    @classmethod
    def _make(cls, iterable):  # checked, and so is _replace, which calls it
        return cls(*iterable)

    @classmethod
    def from_ratio(
        cls, d: float, gamma: float, ratio: float, e_ghz: float = 1.0
    ) -> "DetectorParams":
        """Build from the pair-to-two-pair production ratio P(p1p2)/P(p1..p4)."""
        if not (math.isfinite(ratio) and ratio >= 0.0):
            raise ValueError(f"ratio={ratio} must be finite and >= 0")
        return cls(
            d=d,
            gamma=gamma,
            p_pair=ratio / (1.0 + ratio),
            p_twopair=1.0 / (1.0 + ratio),
            e_ghz=e_ghz,
        )


def gamma_from_rates(dark_rate: float, window: float) -> float:
    """Dark-count probability per window, first-order in the Poisson rate.

    dark_rate is in counts/s and window in s; both must be finite and >= 0,
    and their product at most 1.
    """
    for name, value in (("dark_rate", dark_rate), ("window", window)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name}={value} must be finite and >= 0")
    gamma = dark_rate * window
    if gamma > 1.0:
        raise ValueError(f"dark_rate * window = {gamma} exceeds 1")
    return gamma


def fire_probabilities(d: float, gamma: float) -> tuple[float, float, float]:
    """P(a detector fires) with 0, 1 and 2 photons on it.

    Two photons fire with d (1-d), plus (1-d)^2 gamma for a dark count when
    neither is detected.  d (1-d) is not P(exactly one of two detected), which
    is 2 d (1-d): the click rule the term stands for is still open.
    """
    u = 1.0 - d
    return gamma, d + u * gamma, d * u + u * u * gamma


def pair_fourfold_probability(d: float, gamma: float) -> float:
    """P(fourfold | single pair): the union of the ten arrival channels.

    A channel with photon counts (t, d1, d2, d3) at (T, D1, D2, D3) fires all
    four detectors with q = fire[t] fire[d1] fire[d2] fire[d3], independently
    of the other channels, so the union is 1 - prod(1 - q).  It is built by
    u <- u + q (1 - u) from u = 0, since 1 - u then stays prod(1 - q): every
    term is nonnegative, so nothing cancels where q ~ gamma^2, as it would in
    1 - prod(1 - q) taken literally.
    """
    fire = fire_probabilities(d, gamma)
    union = 0.0
    for t, d1, d2, d3 in ARRIVAL_COUNTS:
        union = union + fire[t] * fire[d1] * fire[d2] * fire[d3] * (1.0 - union)
    return union


def signal_probability(params: DetectorParams) -> float:
    """P(correlated fourfold) = p_twopair d^3 (d + (1-d) gamma).

    D1..D3 fire on their photons; T fires on its photon or a dark count.
    """
    d = params.d
    return params.p_twopair * (d * d * d * fire_probabilities(d, params.gamma)[1])


def fourfold_probability(params: DetectorParams) -> float:
    """Total per-window probability of a fourfold coincidence.

    A double pair puts one photon on each detector, so it is a fourfold with
    probability (d + (1-d) gamma)^4, of which signal_probability is a part.
    """
    fire1 = fire_probabilities(params.d, params.gamma)[1]
    return params.p_pair * pair_fourfold_probability(
        params.d, params.gamma
    ) + params.p_twopair * (fire1 * fire1 * fire1 * fire1)


def _approx_correlation(params: DetectorParams) -> float:
    # (gamma/d)^2 as q q: d^2 alone underflows.  At ratio 0 there is no
    # background, so E = e_ghz even where gamma/d overflows.
    q = params.gamma / params.d if params.p_pair else 0.0 * params.gamma
    return params.e_ghz / (1.0 + 6.0 * (params.p_pair / params.p_twopair) * q * q)


def corrected_correlation(params: DetectorParams, mode: str = "approx") -> float:
    """Conditional correlation E(S1 S2 S3 | fourfold), diluted by background.

    mode="approx": e_ghz / [1 + 6 (p_pair/p_twopair) (gamma/d)^2], the leading
    order expression valid for gamma << d and p_pair >> p_twopair.
    mode="exact": e_ghz * P(correlated fourfold) / P(fourfold), from the full
    model.  Uncorrelated fourfolds contribute zero either way.
    """
    if not _holds(params.d > 0.0):
        raise ValueError("d = 0: no photon is ever detected, correlation undefined")
    if params.p_twopair == 0.0:
        raise ValueError("p_twopair = 0: no correlated quadruples are produced")
    if mode == "approx":
        if not hasattr(params.d, "shape"):
            return _approx_correlation(params)
        import numpy as np

        with np.errstate(over="ignore"):  # E = 0 where (gamma/d)^2 overflows
            return _approx_correlation(params)
    if mode == "exact":
        p4 = fourfold_probability(params)
        if not _holds(p4 > 0.0):
            raise ValueError("fourfold probability underflows to 0, correlation undefined")
        return params.e_ghz * signal_probability(params) / p4
    raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")


def correlation_from_ratio(r: float, e_ghz: float = 1.0) -> float:
    """Correlation implied by an observed background-to-signal count ratio r."""
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"count ratio={r} must be finite and >= 0")
    _check_e_ghz(e_ghz)
    return e_ghz / (1.0 + r)


def sigma_of_correlation(e: float) -> float:
    """Standard deviation sqrt(1 - E^2) of a ±1 variable with mean E."""
    if not _holds((-1.0 <= e) & (e <= 1.0)):  # negated, so that a NaN fails it
        raise ValueError(f"correlation {e} outside [-1, 1]")
    return (1.0 - e * e) ** 0.5 if hasattr(e, "shape") else math.sqrt(1.0 - e * e)


def sigma_separation(e: float) -> float:
    """(|E| - LHV_BOUND) / sigma(E): standard deviations beyond the classical limit.

    nan where |E| does not exceed LHV_BOUND, and inf once the separation
    exceeds SEPARATION_CAP (sigma -> 0 as |E| -> 1, so the ratio saturates).
    A float E and each cell of an array E follow this one rule.
    """
    sigma = sigma_of_correlation(e)
    e = abs(e)  # the bound is on |F|, so on |E|
    if not hasattr(e, "shape"):
        if not e > LHV_BOUND:
            return math.nan
        separation = (e - LHV_BOUND) / sigma if sigma > 0.0 else math.inf  # sigma = 0 at |E| = 1
        return separation if separation <= SEPARATION_CAP else math.inf
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        separation = np.divide(e - LHV_BOUND, sigma)  # inf at sigma = 0, |E| = 1
    separation = np.where(separation <= SEPARATION_CAP, separation, np.inf)
    return np.where(e > LHV_BOUND, separation, np.nan)


def find_gamma_for_correlation(
    d: float, ratio: float, e_target: float, e_ghz: float = 1.0
) -> float:
    """Invert the approx-mode correlation for gamma in closed form.

    E = e_ghz / (1 + 6 ratio gamma^2 / d^2) gives
    gamma = d sqrt((e_ghz/E - 1) / (6 ratio)).  Targets that need gamma > 1
    are rejected as not reached.
    """
    if not 0.0 < e_target <= e_ghz:
        raise ValueError(f"target {e_target} must lie in (0, e_ghz={e_ghz}]")
    DetectorParams.from_ratio(d, 0.0, ratio, e_ghz)  # validates d, ratio and e_ghz
    excess = e_ghz / e_target - 1.0
    if excess == 0.0:
        return 0.0
    gamma = d * math.sqrt(excess / (6.0 * ratio)) if d > 0.0 and ratio > 0.0 else math.inf
    if gamma > 1.0:
        raise ValueError("target correlation not reached within gamma <= 1")
    return gamma
