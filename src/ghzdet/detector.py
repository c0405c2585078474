"""Closed-form fourfold-coincidence model with efficiency d and dark counts.

A trigger detector T and three signal detectors D1..D3 each follow one click
rule, stated in _click_rule: n photons fire a detector with a_n + b_n gamma,
b_n = (1-d)^n.  So a detector fires with gamma on no photon, d + (1-d) gamma
on one and d (1-d) + (1-d)^2 gamma on two (fire_probabilities); the two-photon
term d (1-d) is still open.  Photon creation is either a single pair
(probability p_pair), whose two photons arrive on one of the ten channels of
ARRIVAL_COUNTS, or a double pair carrying the entangled correlation
(p_twopair), one photon per detector.  Every probability of the model is
built from that rule, with f1 = d + (1-d) gamma:

* P(fourfold | pair) is the exact union over the ten channels, which the
  equal detectors make 1 - (1-a)^6 (1-b)^4: six channels of two detectors
  fire all four with a = (f1 gamma)^2, four channels of one detector with b
  (stated once, in _normalised_row);
* P(correlated fourfold) = p_twopair d^3 (d + (1-d) gamma): D1..D3 fire on
  their photons, T on its photon or a dark count;
* P(fourfold | double pair) = (d + (1-d) gamma)^4.

Conditioning on all four detectors firing yields the corrected conditional
correlation, its variance, and the separation in standard deviations of |E|
from LHV_BOUND = 1/2, lhv's bound on |F| (FeasibilityReport.f_value) for the
model tetrad.  The Monte Carlo in :mod:`ghzdet.montecarlo` shares only the firing
probabilities and the channel table: it thins counts detector by detector and
does not use the aggregates above.

Everything is plain Python on floats.  One private kernel, _row, computes E
in both modes along a row, at one gamma for a column of d; a single value is
a row of one, so it rounds exactly as its cell of ``ghzdet sweep``
(correlation_rows).  E = e_ghz T / (1 + w^2 g), w = (gamma / f) sqrt(p_pair /
p_twopair), and a mode only chooses T, f and g.  Exact E divides through by
P(fourfold | double pair) = f1^4: T = (d / f1)^3, f = f1, g the pair union over
a; every factor is bounded, so one path holds on the whole domain, subnormal
d, gamma and p_twopair included.  Approx mode, e_ghz / (1 + 6 (p_pair /
p_twopair) (gamma / d)^2), is its leading order for gamma << d: T = 1, f = d,
g = 6.
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


def _check_prob(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} outside [0, 1]")
    return value


def _check_e_ghz(e_ghz: float) -> None:
    if not -1.0 <= e_ghz <= 1.0:
        raise ValueError(f"e_ghz={e_ghz} outside [-1, 1]")


class DetectorParams(namedtuple("DetectorParams", "d gamma p_pair p_twopair e_ghz")):
    """Efficiency, dark-count probability and creation probabilities, as floats."""

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


def _click_rule(d: float) -> tuple[float, float, float, float]:
    """(a1, b1, a2, b2): n photons fire a detector with a_n + b_n gamma.

    This is the one statement of the rule.  b_n = (1-d)^n is the chance that
    none of the n photons is detected, so that only a dark count can fire the
    detector.  a1 = d, and a2 = d (1-d), which is not P(exactly one of two
    detected), 2 d (1-d): the click rule the term stands for is still open.
    """
    u = 1.0 - d
    return d, u, d * u, u * u


def fire_probabilities(d: float, gamma: float) -> tuple[float, float, float]:
    """P(a detector fires) with 0, 1 and 2 photons on it.

    gamma, then a_n + b_n gamma for n = 1, 2 from _click_rule, where the rule
    and its open two-photon term d (1-d) are stated.
    """
    a1, b1, a2, b2 = _click_rule(d)
    return gamma, a1 + b1 * gamma, a2 + b2 * gamma


def _normalised_row(gamma: float, columns) -> list[tuple[float, float, float]]:
    """Exact mode's (T, f, g) at one gamma for each _click_rule column.

    f = f1, the one-photon firing probability (1 at d = gamma = 0, where
    f1 = 0), and T = t^3, t = d / f1.  Where u = 1 - t = (1-d) z, z = gamma / f1,
    is below 1/4, T = 1 - u (3 - u (3 - u)), so t is not rounded before it is
    cubed; above 1/4 that sum's cancellation costs more than the cube.
    g = U / a is the union U over the ten channels of ARRIVAL_COUNTS per
    two-detector channel, in [1, 10]; this is the one statement of the union,
    in closed form.  The four detectors share d and gamma, so each of the six
    channels with one photon on each of two detectors fires all four with
    a = (f1 gamma)^2, and each of the four with both photons on one detector
    with b = f2 gamma^3, so b / a = (f2 / f1) z.  The union is
    1 - (1-a)^6 (1-b)^4 = a s6 + b s4 (1 - a s6), so
    g = s6 + (b / a) s4 (1 - a s6), where s_n = 1 + c + ... + c^(n-1) =
    (1 - c^n) / (1 - c) with c = 1 - a for s6 and c = 1 - b for s4.  Every
    term is nonnegative, so nothing cancels where a ~ gamma^2, and only
    + - * / are used.  The form rests on equal detectors; per-detector d and
    gamma would need the product of (1 - q) over ten distinct channels.
    """
    terms = []
    put = terms.append
    for a1, b1, a2, b2 in columns:
        f1 = a1 + b1 * gamma
        over = f1 or 1.0  # f1 = 0 only at d = gamma = 0, where a = b = 0
        z = gamma / over
        r = (a2 + b2 * gamma) / over * z  # b / a
        fg = f1 * gamma
        a = fg * fg
        c = 1.0 - a
        e = 1.0 - r * a
        s6 = 1.0 + c * (1.0 + c * (1.0 + c * (1.0 + c * (1.0 + c))))
        u = b1 * z
        put((1.0 - u * (3.0 - u * (3.0 - u)) if u < 0.25 else (t := a1 / over) * t * t, over,
             s6 + r * (1.0 + e * (1.0 + e * (1.0 + e))) * (1.0 - a * s6)))
    return terms


def pair_fourfold_probability(d: float, gamma: float) -> float:
    """P(fourfold | single pair): the union of the ten arrival channels.

    A channel with photon counts (t, d1, d2, d3) at (T, D1, D2, D3) fires all
    four detectors with q = fire[t] fire[d1] fire[d2] fire[d3], independently
    of the other channels, so the union is 1 - prod(1 - q).  Six channels
    share q = a = (f1 gamma)^2 and four share q = b, so it is
    1 - (1-a)^6 (1-b)^4 = a g, with g from _normalised_row.
    """
    fg = fire_probabilities(d, gamma)[1] * gamma
    return fg * fg * _normalised_row(gamma, (_click_rule(d),))[0][2]


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
    f1 = fire_probabilities(params.d, params.gamma)[1]
    return (params.p_pair * pair_fourfold_probability(params.d, params.gamma)
            + params.p_twopair * (f1 * f1 * f1 * f1))


def _row(gamma: float, cells, p_pair: float, p_twopair: float, e_ghz: float) -> list[float]:
    # E = e_ghz T / (1 + w^2 g), w = (gamma / f) root, the roots of p_pair and
    # p_twopair taken apart so that root is finite at a subnormal p_twopair.
    # gamma / f overflows only at a subnormal f, where gamma > 2^-50, so
    # gamma root is 0 or normal and is divided by f instead.  Where w > 1
    # both sides are divided by w, so that w^2 cannot overflow.
    root = math.sqrt(p_pair) / math.sqrt(p_twopair)
    return [e_ghz * t3 / (1.0 + w * w * g)
            if (w := q * root if (q := gamma / f) < math.inf else gamma * root / f) <= 1.0
            else e_ghz * t3 / w / (1.0 / w + w * g) for t3, f, g in cells]


# Per mode, the column kept for each d and its (T, f, g) cell at one gamma,
# from which _row gives E; approx mode's is (1, d, 6) at every gamma.
_MODES = {"approx": (lambda d: (1.0, d, 6.0), lambda gamma, columns: columns),
          "exact": (_click_rule, _normalised_row)}


def corrected_correlation(params: DetectorParams, mode: str = "approx") -> float:
    """Conditional correlation E(S1 S2 S3 | fourfold), diluted by background.

    mode="exact": e_ghz * P(correlated fourfold) / P(fourfold), from the full
    model: e_ghz T / (1 + w^2 g), T = (d / f1)^3, f = f1, g the pair union over
    a and w = (gamma / f) sqrt(p_pair/p_twopair).  mode="approx", its leading
    order for gamma << d: e_ghz / [1 + 6 (p_pair/p_twopair) (gamma/d)^2], at
    T = 1, f = d and g = 6.  Uncorrelated fourfolds contribute zero either way.
    """
    if not params.d > 0.0:
        raise ValueError("d = 0: no photon is ever detected, correlation undefined")
    if params.p_twopair == 0.0:
        raise ValueError("p_twopair = 0: no correlated quadruples are produced")
    if mode not in _MODES:
        raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")
    column, factors = _MODES[mode]
    return _row(params.gamma, factors(params.gamma, (column(params.d),)), params.p_pair,
                params.p_twopair, params.e_ghz)[0]


def correlation_from_ratio(r: float, e_ghz: float = 1.0) -> float:
    """Correlation implied by an observed background-to-signal count ratio r."""
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"count ratio={r} must be finite and >= 0")
    _check_e_ghz(e_ghz)
    return e_ghz / (1.0 + r)


def _cells(es) -> list[float]:
    """[E, sigma, separation] for each E in turn, as one flat list."""
    cells: list[float] = []
    put = cells.extend
    for e in es:
        if not -1.0 <= e <= 1.0:  # negated, so that a NaN fails it
            raise ValueError(f"correlation {e} outside [-1, 1]")
        sigma = math.sqrt(1.0 - e * e)
        excess = abs(e) - LHV_BOUND  # the bound is on |F|, so on |E|; exact
        separation = (math.nan if not excess > 0.0 else excess / sigma if sigma > 0.0
                      else math.inf)  # sigma = 0 at |E| = 1
        put((e, sigma, math.inf if separation > SEPARATION_CAP else separation))
    return cells


def sigma_of_correlation(e: float) -> float:
    """Standard deviation sqrt(1 - E^2) of a ±1 variable with mean E."""
    return _cells((e,))[1]


def sigma_separation(e: float) -> float:
    """(|E| - LHV_BOUND) / sigma(E): standard deviations beyond the classical limit.

    nan where |E| does not exceed LHV_BOUND, and inf once the separation
    exceeds SEPARATION_CAP (sigma -> 0 as |E| -> 1, so the ratio saturates).
    """
    return _cells((e,))[2]


def correlation_rows(gammas, ds, ratio: float, e_ghz: float = 1.0, mode: str = "approx"):
    """[E, sigma, separation] of every d in turn, for each gamma in turn.

    Each cell is bit for bit what corrected_correlation, sigma_of_correlation
    and sigma_separation give for it.  Every input is checked once per grid,
    in this call, so a rejected grid raises before the first row is made.
    """
    for gamma in gammas:
        _check_prob("gamma", gamma)
    least = DetectorParams.from_ratio(min(_check_prob("d", d) for d in ds), 0.0, ratio, e_ghz)
    corrected_correlation(least, mode)  # checks d > 0 and the mode
    column, factors = _MODES[mode]
    columns = [column(d) for d in ds]
    return (_cells(_row(g, factors(g, columns), least.p_pair, least.p_twopair, e_ghz)) for g in gammas)


def find_gamma_for_correlation(
    d: float, ratio: float, e_target: float, e_ghz: float = 1.0
) -> float:
    """Invert the approx-mode correlation for gamma in closed form.

    E = e_ghz / (1 + 6 ratio gamma^2 / d^2) gives
    gamma = d sqrt((e_ghz/E - 1) / 6) / sqrt(ratio), the roots taken apart so
    that 6 ratio cannot overflow.  Targets that need gamma > 1 are rejected
    as not reached.
    """
    if not 0.0 < e_target <= e_ghz:
        raise ValueError(f"target {e_target} must lie in (0, e_ghz={e_ghz}]")
    DetectorParams.from_ratio(d, 0.0, ratio, e_ghz)  # validates d, ratio and e_ghz
    excess = e_ghz / e_target - 1.0
    if excess == 0.0:
        return 0.0
    gamma = d * (math.sqrt(excess / 6.0) / math.sqrt(ratio)) if d > 0.0 and ratio > 0.0 else math.inf
    if gamma > 1.0:
        raise ValueError("target correlation not reached within gamma <= 1")
    return gamma
