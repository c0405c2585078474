"""Closed-form fourfold-coincidence model with efficiency d and dark counts.

A trigger detector T and three signal detectors D1..D3 each fire on a real
photon with probability d and, failing that, on a dark count with probability
gamma per coincidence window.  Photon creation is either a single pair
(probability p_pair) or a double pair carrying the entangled correlation
(p_twopair).  Conditioning on all four detectors firing yields the corrected
conditional correlation, its variance, and the separation in standard
deviations from the classical boundary 0.5.

Single-pair arrivals are aggregated over the ten detector combinations
TD1, TD2, TD3, D1D2, D1D3, D2D3, D1D1, D2D2, D3D3, TT by plain addition
(six distinct-detector terms plus four same-detector terms), mirroring the
closed-form aggregate this model is built around.  The Monte Carlo in
:mod:`ghzdet.montecarlo` does not use these formulas: it draws each
detector's firing on its own and takes the exact union over the channels,
which the sum matches to first order in the channel probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SEPARATION_CAP = 1e6
GAMMA_BRACKET_MAX = 1e-3
PROB_TOL = 1e-12


def _check_prob(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} outside [0, 1]")
    return value


@dataclass(frozen=True)
class DetectorParams:
    """Efficiency, dark-count probability and creation probabilities."""

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
        if ratio < 0.0:
            raise ValueError(f"ratio={ratio} must be >= 0")
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
        if self.dark_rate < 0.0 or self.window < 0.0:
            raise ValueError("dark_rate and window must be >= 0")
        if self.dark_rate * self.window > 1.0:
            raise ValueError(
                f"dark_rate * window = {self.dark_rate * self.window} exceeds 1"
            )


def gamma_from_rates(r: RateSpec) -> float:
    """Dark-count probability per window, first-order in the Poisson rate."""
    return r.dark_rate * r.window


def p4_pair_distinct(d: float, gamma: float) -> float:
    """P(fourfold | pair at two distinct detectors) = gamma^2 (d + gamma(1-d))^2."""
    return gamma**2 * (d + gamma * (1.0 - d)) ** 2


def p4_pair_same(d: float, gamma: float) -> float:
    """P(fourfold | both pair photons at one detector) = d(1-d)g^3 + (1-d)^2 g^4."""
    return d * (1.0 - d) * gamma**3 + (1.0 - d) ** 2 * gamma**4


def p4_pair_total(d: float, gamma: float, mode: str = "derived") -> float:
    """Aggregate fourfold probability from single-pair creation.

    mode="derived": 6 * p4_pair_distinct + 4 * p4_pair_same (internally
    consistent sum of the two sub-cases).
    mode="paper": the published aggregate 6 g^2 (d + g(1-d))^2 + 4 g^3 (1-d)(d+g),
    whose last factor differs from the derived one at order gamma^4.
    """
    if mode == "derived":
        return 6.0 * p4_pair_distinct(d, gamma) + 4.0 * p4_pair_same(d, gamma)
    if mode == "paper":
        return 6.0 * gamma**2 * (d + gamma * (1.0 - d)) ** 2 + 4.0 * gamma**3 * (
            1.0 - d
        ) * (d + gamma)
    raise ValueError(f"mode must be 'derived' or 'paper', got {mode!r}")


def p4_ghz(d: float, gamma: float) -> float:
    """P(fourfold & true correlated quadruple | two-pair) = d^4 + g(1-d)d^3.

    The gamma term is the trigger firing on a dark count while the three
    signal photons are all detected.
    """
    return d**4 + gamma * (1.0 - d) * d**3


def p4_nonghz_fourphoton(d: float, gamma: float) -> float:
    """P(fourfold without the full correlated quadruple | two-pair creation)."""
    u = 1.0 - d
    return (
        3.0 * gamma * d**3 * u
        + 6.0 * gamma**2 * d**2 * u**2
        + 4.0 * gamma**3 * d * u**3
        + gamma**4 * u**4
    )


def signal_probability(params: DetectorParams) -> float:
    """P(correlated fourfold) = p_twopair * p4_ghz."""
    return params.p_twopair * p4_ghz(params.d, params.gamma)


def background_probability(params: DetectorParams) -> float:
    """P(uncorrelated fourfold), from single pairs plus dark-assisted quadruples."""
    return params.p_pair * p4_pair_total(
        params.d, params.gamma
    ) + params.p_twopair * p4_nonghz_fourphoton(params.d, params.gamma)


def fourfold_probability(params: DetectorParams) -> float:
    """Total per-window probability of a fourfold coincidence."""
    return signal_probability(params) + background_probability(params)


def corrected_correlation(params: DetectorParams, mode: str = "approx") -> float:
    """Conditional correlation E(S1 S2 S3 | fourfold), diluted by background.

    mode="approx": e_ghz / [1 + 6 (p_pair/p_twopair) (gamma/d)^2], the leading
    order expression valid for gamma << d and p_pair >> p_twopair.
    mode="exact": e_ghz * P(signal) / (P(signal) + P(background)) with the full
    polynomial probabilities.  Uncorrelated fourfolds contribute zero either way.
    """
    if params.d == 0.0:
        raise ValueError("d = 0: no photon is ever detected, correlation undefined")
    if params.p_twopair == 0.0:
        raise ValueError("p_twopair = 0: no correlated quadruples are produced")
    if mode == "approx":
        dilution = 1.0 + 6.0 * params.ratio * params.gamma**2 / params.d**2
        return params.e_ghz / dilution
    if mode == "exact":
        sig = signal_probability(params)
        bkg = background_probability(params)
        return params.e_ghz * sig / (sig + bkg)
    raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")


def correlation_from_ratio(r: float, e_ghz: float = 1.0) -> float:
    """Correlation implied by an observed background-to-signal count ratio r."""
    if r < 0.0:
        raise ValueError(f"count ratio {r} must be >= 0")
    return e_ghz / (1.0 + r)


def product_prob_plus(e: float) -> float:
    """P(S1 S2 S3 = +1) = (1 + E)/2 for a ±1 product with mean E."""
    if not -1.0 <= e <= 1.0:
        raise ValueError(f"correlation {e} outside [-1, 1]")
    return (1.0 + e) / 2.0


def sigma_of_correlation(e: float) -> float:
    """Standard deviation sqrt(1 - E^2) of a ±1 variable with mean E."""
    variance = 1.0 - e * e
    p_plus = product_prob_plus(e)  # also validates the range
    bernoulli_form = 4.0 * p_plus * (1.0 - p_plus)
    assert abs(variance - bernoulli_form) < 1e-12, (variance, bernoulli_form)
    return max(0.0, variance) ** 0.5


def sigma_separation(e: float, boundary: float = 0.5) -> float:
    """(E - boundary) / sigma(E): standard deviations above the classical limit.

    Returns inf once the separation exceeds SEPARATION_CAP (sigma -> 0 as
    E -> 1, so the ratio saturates).
    """
    sigma = sigma_of_correlation(e)
    if e <= boundary:
        raise ValueError(f"correlation {e} does not exceed the boundary {boundary}")
    if sigma == 0.0:
        return float("inf")
    separation = (e - boundary) / sigma
    return separation if separation <= SEPARATION_CAP else float("inf")


def find_gamma_for_correlation(
    d: float, ratio: float, e_target: float, e_ghz: float = 1.0
) -> float:
    """Invert the approx-mode correlation for gamma in closed form.

    E = e_ghz / (1 + 6 ratio gamma^2 / d^2) gives
    gamma = d sqrt((e_ghz/E - 1) / (6 ratio)).  Targets that need
    gamma > GAMMA_BRACKET_MAX are rejected as not reached.
    """
    if not 0.0 < e_target <= e_ghz:
        raise ValueError(f"target {e_target} must lie in (0, e_ghz={e_ghz}]")
    DetectorParams.from_ratio(d, 0.0, ratio, e_ghz)  # validates d, ratio and e_ghz
    excess = e_ghz / e_target - 1.0
    if excess == 0.0:
        return 0.0
    gamma = d * math.sqrt(excess / (6.0 * ratio)) if d > 0.0 and ratio > 0.0 else math.inf
    if gamma > GAMMA_BRACKET_MAX:
        raise ValueError(
            f"target correlation not reached within gamma <= {GAMMA_BRACKET_MAX}"
        )
    return gamma
