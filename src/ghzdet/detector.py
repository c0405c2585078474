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
correlation, its variance, and the separation in standard deviations from
the classical boundary 0.5.  The Monte Carlo in :mod:`ghzdet.montecarlo`
shares only the firing probabilities and the channel table: it thins counts
detector by detector and does not use the aggregates above.

Array path: d and gamma may be arrays of one shape, a grid of detectors, and
E, sigma and the separation then come out as arrays from the same expressions,
with every check applied to every cell.  ``ghzdet sweep`` works this way.
Integer powers are written as products, which round the same for floats and
arrays.  Anything with a ``shape`` counts as an array.

Floats need no numpy: the approx mode, sigma and the separation are plain
Python on floats.  numpy is imported inside the array path of
sigma_separation and in pair_fourfold_probability, whose log1p/expm1 the
exact mode calls for floats too, so that a float and a grid cell round alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ARRIVAL_TAGS = (
    "TD1", "TD2", "TD3", "D1D2", "D1D3", "D2D3", "D1D1", "D2D2", "D3D3", "TT",
)
# Photon count at (T, D1, D2, D3) for each arrival channel of a single pair.
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

SEPARATION_CAP = 1e6
GAMMA_MAX = 1e-3
PROB_TOL = 1e-12


def _holds(condition) -> bool:
    """A comparison's result for floats, or whether it holds in every cell."""
    return bool(condition.all()) if hasattr(condition, "shape") else bool(condition)


def _check_prob(name: str, value: float) -> float:
    if not _holds((0.0 <= value) & (value <= 1.0)):
        raise ValueError(f"{name}={value} outside [0, 1]")
    return value


@dataclass(frozen=True)
class DetectorParams:
    """Efficiency, dark-count probability and creation probabilities.

    d and gamma may be arrays of one shape (the module's array path)."""

    d: float
    gamma: float
    p_pair: float
    p_twopair: float
    e_ghz: float = 1.0

    def __post_init__(self):
        _check_prob("d", self.d)
        _check_prob("gamma", self.gamma)
        _check_prob("p_pair", self.p_pair)
        _check_prob("p_twopair", self.p_twopair)
        if not -1.0 <= self.e_ghz <= 1.0:
            raise ValueError(f"e_ghz={self.e_ghz} outside [-1, 1]")
        if abs(self.p_pair + self.p_twopair - 1.0) > PROB_TOL:
            raise ValueError(
                f"p_pair + p_twopair = {self.p_pair + self.p_twopair}, must be 1"
            )

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

    @property
    def ratio(self) -> float:
        if self.p_twopair == 0.0:
            raise ValueError("p_twopair = 0: pair-to-two-pair ratio undefined")
        return self.p_pair / self.p_twopair


@dataclass(frozen=True)
class RateSpec:
    """Dark-count rate (counts/s) and coincidence window (s)."""

    dark_rate: float
    window: float

    def __post_init__(self):
        for name, value in (("dark_rate", self.dark_rate), ("window", self.window)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name}={value} must be finite and >= 0")
        if self.dark_rate * self.window > 1.0:
            raise ValueError(
                f"dark_rate * window = {self.dark_rate * self.window} exceeds 1"
            )


def gamma_from_rates(r: RateSpec) -> float:
    """Dark-count probability per window, first-order in the Poisson rate."""
    return r.dark_rate * r.window


def fire_probabilities(d: float, gamma: float) -> tuple[float, float, float]:
    """P(a detector fires) with 0, 1 and 2 photons on it.

    Two photons register one count only if exactly one is detected.
    """
    u = 1.0 - d
    return gamma, d + u * gamma, d * u + u * u * gamma


def pair_fourfold_probability(d: float, gamma: float) -> float:
    """P(fourfold | single pair): the union of the ten arrival channels.

    A channel with photon counts (t, d1, d2, d3) at (T, D1, D2, D3) fires all
    four detectors with q = fire[t] fire[d1] fire[d2] fire[d3], independently
    of the other channels, so the union is 1 - prod(1 - q).  It is taken in
    logs: with q ~ gamma^2 the plain product rounds 1 - q to 1.
    """
    import numpy as np

    fire = fire_probabilities(d, gamma)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a certain channel
        log_miss = sum(np.log1p(-(fire[t] * fire[d1] * fire[d2] * fire[d3]))
                       for t, d1, d2, d3 in ARRIVAL_COUNTS)
    union = -np.expm1(log_miss)
    return union if isinstance(union, np.ndarray) else float(union)


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
        dilution = 1.0 + 6.0 * params.ratio * params.gamma**2 / params.d**2
        return params.e_ghz / dilution
    if mode == "exact":
        p4 = fourfold_probability(params)
        if not _holds(p4 > 0.0):
            raise ValueError("fourfold probability underflows to 0, correlation undefined")
        return params.e_ghz * signal_probability(params) / p4
    raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")


def correlation_from_ratio(r: float, e_ghz: float = 1.0) -> float:
    """Correlation implied by an observed background-to-signal count ratio r."""
    if r < 0.0:
        raise ValueError(f"count ratio {r} must be >= 0")
    return e_ghz / (1.0 + r)


def product_prob_plus(e: float) -> float:
    """P(S1 S2 S3 = +1) = (1 + E)/2 for a ±1 product with mean E."""
    if not _holds((-1.0 <= e) & (e <= 1.0)):
        raise ValueError(f"correlation {e} outside [-1, 1]")
    return (1.0 + e) / 2.0


def sigma_of_correlation(e: float) -> float:
    """Standard deviation sqrt(1 - E^2) of a ±1 variable with mean E."""
    variance = 1.0 - e * e
    p_plus = product_prob_plus(e)  # also validates the range
    bernoulli_form = 4.0 * p_plus * (1.0 - p_plus)
    assert _holds(abs(variance - bernoulli_form) < 1e-12), (variance, bernoulli_form)
    return variance ** 0.5  # variance >= 0, since |E| <= 1


def sigma_separation(e: float, boundary: float = 0.5) -> float:
    """(E - boundary) / sigma(E): standard deviations above the classical limit.

    Returns inf once the separation exceeds SEPARATION_CAP (sigma -> 0 as
    E -> 1, so the ratio saturates).  A float E must exceed the boundary; an
    array E gives nan in the cells that do not.
    """
    sigma = sigma_of_correlation(e)
    if not hasattr(e, "shape"):
        if e <= boundary:
            raise ValueError(f"correlation {e} does not exceed the boundary {boundary}")
        separation = (e - boundary) / sigma if sigma > 0.0 else math.inf  # sigma = 0 at E = 1
        return separation if separation <= SEPARATION_CAP else math.inf
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        separation = np.divide(e - boundary, sigma)  # inf at sigma = 0, E = 1
    separation = np.where(separation <= SEPARATION_CAP, separation, np.inf)
    return np.where(e > boundary, separation, np.nan)


def find_gamma_for_correlation(
    d: float, ratio: float, e_target: float, e_ghz: float = 1.0
) -> float:
    """Invert the approx-mode correlation for gamma in closed form.

    E = e_ghz / (1 + 6 ratio gamma^2 / d^2) gives
    gamma = d sqrt((e_ghz/E - 1) / (6 ratio)).  Targets that need
    gamma > GAMMA_MAX are rejected as not reached.
    """
    if not 0.0 < e_target <= e_ghz:
        raise ValueError(f"target {e_target} must lie in (0, e_ghz={e_ghz}]")
    DetectorParams.from_ratio(d, 0.0, ratio, e_ghz)  # validates d, ratio and e_ghz
    excess = e_ghz / e_target - 1.0
    if excess == 0.0:
        return 0.0
    gamma = d * math.sqrt(excess / (6.0 * ratio)) if d > 0.0 and ratio > 0.0 else math.inf
    if gamma > GAMMA_MAX:
        raise ValueError(
            f"target correlation not reached within gamma <= {GAMMA_MAX}"
        )
    return gamma
