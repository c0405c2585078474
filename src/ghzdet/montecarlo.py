"""Seeded count-level simulation of the coincidence experiment.

Each trial is one coincidence window: a creation event (single pair or double
pair), photon arrivals, detection with efficiency d, dark counts with
probability gamma, fourfold-coincidence conditioning, and the spin product of
the three signal detectors.  Statistics are compared against the closed-form
model in :mod:`ghzdet.detector`.

Windows are independent and so are the detectors inside a window, so n
windows are simulated exactly by binomial thinning of counts, with a fixed
number of draws whatever n is.  From the model the simulation takes only
the per-detector firing probabilities (``detector.fire_probabilities``) and
the arrival-channel table (``detector.ARRIVAL_COUNTS``); the aggregation of
those into fourfold probabilities is what it checks, and it does its own:

* Single pairs: the windows not yet fourfold are thinned through T, D1, D2,
  D3 channel by channel, each detector with its own firing probability.
* Double pairs put one photon on each detector.  A fourfold is a correlated
  quadruple when D1..D3 all fired on real photons; otherwise a dark count
  took part and the product is uncorrelated.
* Spins: correlated quadruples draw their outcome triples from the Born
  table of a source of visibility e_ghz (``quantum.outcome_probabilities``),
  as conditional binomials, so their mean product is e_ghz times the ideal
  one; uncorrelated fourfolds a fair +-1 product.

The binomial sampler is exact for any count below 2**63 and needs only the
standard library: geometric skipping where n*p < 10 (Devroye, *Non-Uniform
Random Variate Generation*, 1986), and otherwise Hoermann's transformed
rejection with squeeze, BTRS (J. Stat. Comput. Simul. 46, 101 (1993)).  Its
acceptance test takes differences of log-factorials from the exact integer
difference, since plain ``lgamma`` differences are rounding noise at
n ~ 1e14.

Reproducibility: the kernel and the optional event log each draw from their
own ``random.Random``, seeded with a string made of the master seed and a tag,
so a run depends only on (config, seed) and the log leaves the statistics
unchanged.  The kernel drew from numpy's generator before, so a fixed
(config, seed) now gives a different result than it did then; the result is
still deterministic, and the same on every Python version from 3.10.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import IO, NamedTuple, Optional

from . import detector, quantum
from .detector import ARRIVAL_COUNTS, ARRIVAL_TAGS, DetectorParams
from .quantum import ghz_state, validate_setting

TWOPAIR_TAG = "TD1D2D3"
EVENT_HEADER = "# creation,arrival,ghz,product"

Z_FLAG_THRESHOLD = 4.0


def _require_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """A simulation run.  n_workers is validated but unused: the kernel runs
    in one thread, and it is kept so existing callers and config files still
    work."""

    params: DetectorParams
    setting: str
    n_trials: int
    master_seed: int
    n_workers: int = 1

    def __post_init__(self):
        validate_setting(self.setting)
        _require_int("n_trials", self.n_trials)
        _require_int("master_seed", self.master_seed)
        if not 1 <= self.n_trials < 2**63:
            raise ValueError("n_trials must be in [1, 2**63 - 1]")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


@dataclass(frozen=True)
class RunStats:
    n_trials: int
    n_fourfold: int
    n_ghz_fourfold: int
    e_hat: Optional[float]  # None when no coincidence was observed
    std_err: Optional[float]
    p4_hat: float

    @property
    def no_coincidences(self) -> bool:
        return self.n_fourfold == 0


@dataclass(frozen=True)
class ComparisonReport:
    comparable: bool
    analytic_e: Optional[float]
    analytic_p4: float
    z_correlation: Optional[float]
    z_fourfold: float
    flagged: bool


# ln x! for x < 10, where the Stirling series below is not yet accurate.
_LOG_FACTORIAL = tuple(math.log(math.factorial(x)) for x in range(10))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_correction(x: int) -> float:
    """ln x! - ((x + 1/2) ln x - x + ln(2 pi)/2) for x >= 10, to below 1e-12."""
    r = 1.0 / x
    r2 = r * r
    return r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)))


def _log_factorial(x: int) -> float:
    if x < len(_LOG_FACTORIAL):
        return _LOG_FACTORIAL[x]
    return (x + 0.5) * math.log(x) - x + _HALF_LOG_2PI + _stirling_correction(x)


def _log_factorial_ratio(a: int, b: int) -> float:
    """ln a! - ln b! for integers a, b >= 0.

    Where both are large the two log-factorials are nearly equal, so the
    difference is taken from the exact a - b: (b + 1/2) ln(a/b) by log1p,
    plus (a - b)(ln a - 1) and the two Stirling corrections.
    """
    if min(a, b) < len(_LOG_FACTORIAL):
        return _log_factorial(a) - _log_factorial(b)
    delta = a - b
    return ((b + 0.5) * math.log1p(delta / b) + delta * (math.log(a) - 1.0)
            + _stirling_correction(a) - _stirling_correction(b))


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """An exact Binomial(n, p) draw for an int n in [0, 2**63 - 1], p in [0, 1]."""
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)  # 1 - p is exact here
    if n * p < 10.0:
        # Geometric skipping: the gap to the next success is floor(g) failures,
        # g = ln(1 - U)/ln(1 - p) (never ln 0).  log1p keeps c from rounding to
        # 0 at p < 2**-53, and g >= n - y also catches an infinite g.
        c = math.log1p(-p)
        x = y = 0  # successes, and trials used up to and including the last
        while True:
            g = math.log(1.0 - rng.random()) / c
            if g >= n - y:
                return x
            y += math.floor(g) + 1
            x += 1
    # BTRS, with Hoermann's constants.  n*p is split exactly into an integer
    # and a fraction: as one float it would round to a multiple of 512 near
    # 2**63, and so would every draw.
    num, den = p.as_integer_ratio()
    base, rest = divmod(n * num, den)
    m = (n + 1) * num // den  # the mode
    q = 1.0 - p
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = rest / den + 0.5  # n*p + 1/2 - base
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    lpq = math.log(p / q)
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # random() gave 0.0; the hat has no mass there
            continue
        k = base + math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - rng.random()  # in (0, 1], so its log exists
        if us >= 0.07 and v <= v_r:
            return k
        v = math.log(v * alpha / (a / (us * us) + b))
        if v <= (_log_factorial_ratio(m, k) + _log_factorial_ratio(n - m, n - k)
                 + (k - m) * lpq):
            return k


def _multinomial(rng: random.Random, n: int, probs: tuple[float, ...]) -> tuple[int, ...]:
    """Counts of n draws over probs (summing to 1), as conditional binomials.

    Each cell is Binomial(n left, p / mass left); the mass left is the exactly
    rounded sum of the remaining cells, so the ratio never exceeds 1.
    """
    counts = []
    for i, p in enumerate(probs[:-1]):
        k = _binomial(rng, n, p / math.fsum(probs[i:])) if p > 0.0 else 0
        counts.append(k)
        n -= k
    counts.append(n)
    return tuple(counts)


class _Counts(NamedTuple):
    """Fourfolds of one run, by kind; all products are tallied in sums."""

    pair_by_channel: tuple[int, ...]  # single-pair fourfolds per arrival channel
    twopair_dark: int  # double-pair fourfolds with a dark count in D1..D3
    ghz_outcomes: tuple[int, ...]  # correlated quadruples per Born outcome index
    n_uncorrelated: int  # sum(pair_by_channel) + twopair_dark
    uncorrelated_plus: int  # uncorrelated fourfolds with product +1


def _simulate(cfg: RunConfig, rng: random.Random) -> _Counts:
    """All cfg.n_trials windows by binomial thinning."""
    p = cfg.params
    fire = detector.fire_probabilities(p.d, p.gamma)
    n_two = _binomial(rng, cfg.n_trials, p.p_twopair)

    left = cfg.n_trials - n_two  # single-pair windows not yet fourfold
    pair_by_channel = []
    for counts in ARRIVAL_COUNTS:
        k = left
        for photons in counts:
            k = _binomial(rng, k, fire[photons])
        pair_by_channel.append(k)
        left -= k

    # Double pairs, one photon per detector: T fires on a real photon or a
    # dark count; D1..D3 split into "all real so far" and "some dark".
    real = _binomial(rng, n_two, fire[1])
    dark = 0
    for _ in range(3):
        hit = _binomial(rng, real, p.d)
        dark = _binomial(rng, dark, fire[1]) + _binomial(rng, real - hit, p.gamma)
        real = hit

    born = quantum.outcome_probabilities(ghz_state(p.e_ghz), cfg.setting)
    ghz_outcomes = _multinomial(rng, real, born)
    n_uncorrelated = sum(pair_by_channel) + dark
    return _Counts(tuple(pair_by_channel), dark, ghz_outcomes, n_uncorrelated,
                   _binomial(rng, n_uncorrelated, 0.5))


def _stats(n_trials: int, counts: _Counts) -> RunStats:
    n_ghz = sum(counts.ghz_outcomes)
    n_fourfold = n_ghz + counts.n_uncorrelated
    e_hat = std_err = None
    if n_fourfold > 0:
        sum_products = sum(k * s for k, s in zip(counts.ghz_outcomes, quantum.OUTCOME_PRODUCTS))
        sum_products += 2 * counts.uncorrelated_plus - counts.n_uncorrelated
        e_hat = sum_products / n_fourfold
        std_err = detector.sigma_of_correlation(e_hat) / math.sqrt(n_fourfold)
    return RunStats(
        n_trials=n_trials,
        n_fourfold=n_fourfold,
        n_ghz_fourfold=n_ghz,
        e_hat=e_hat,
        std_err=std_err,
        p4_hat=n_fourfold / n_trials,
    )


def _write_events(counts: _Counts, rng: random.Random, stream: IO[str]) -> None:
    """One line per fourfold, in random order: creation, arrival, ghz, product.

    The lines expand the counted outcomes exactly.  Uncorrelated fourfolds
    get their +1 products on a random subset of the counted size, and the
    order is a random permutation: given the counts, both are uniform for
    independent windows.  Each fourfold is drawn as a small code, 2 * kind
    for a -1 product and 2 * kind + 1 for +1, and written from a table of
    the lines.
    """
    labels = [f"pair,{tag},-" for tag in ARRIVAL_TAGS]
    labels += [f"twopair,{TWOPAIR_TAG},-", f"twopair,{TWOPAIR_TAG},ghz"]
    lines = [f"{label},{product:+d}\n" for label in labels for product in (-1, 1)]
    codes = []
    for kind, n in enumerate((*counts.pair_by_channel, counts.twopair_dark)):
        codes += [2 * kind] * n
    for i in rng.sample(range(len(codes)), counts.uncorrelated_plus):
        codes[i] += 1
    ghz = 2 * (len(labels) - 1)
    for product, n in zip(quantum.OUTCOME_PRODUCTS, counts.ghz_outcomes):
        codes += [ghz + (product > 0)] * n
    rng.shuffle(codes)
    stream.write(EVENT_HEADER + "\n")
    stream.writelines(map(lines.__getitem__, codes))


def run(cfg: RunConfig, event_stream: Optional[IO[str]] = None) -> RunStats:
    """Simulate cfg.n_trials independent windows and tally the fourfolds.

    With an event_stream, one line per fourfold is written after a header
    line; the statistics are the same with and without it.
    """
    counts = _simulate(cfg, random.Random(f"{cfg.master_seed}:kernel"))
    if event_stream is not None:
        _write_events(counts, random.Random(f"{cfg.master_seed}:events"), event_stream)
    return _stats(cfg.n_trials, counts)


def compare_analytic(stats: RunStats, params: DetectorParams, setting: str = "XYY") -> ComparisonReport:
    """z-scores of the empirical statistics against the closed-form model.

    The analytic correlation is the exact-mode corrected correlation times the
    ideal product expectation of the chosen setting (±1 for the four standard
    settings, 0 otherwise).  z_correlation divides by the model's standard
    error sqrt(1 - E^2) / sqrt(n_fourfold), not the empirical one, whose
    spread is heavy-tailed when few minority products are expected.
    z_correlation is None, and the report not comparable, when no fourfold
    was seen or the model has no E; flagged then rests on z_fourfold alone.
    """
    ideal = quantum.operator_expectation(ghz_state(), setting)
    try:
        analytic_e = ideal * detector.corrected_correlation(params, mode="exact")
    except ValueError:
        # Degenerate source (no quadruples, or no way to register any): the
        # conditional correlation is undefined, only the rate can be compared.
        analytic_e = None
    analytic_p4 = detector.fourfold_probability(params)
    p4_se = math.sqrt(analytic_p4 * (1.0 - analytic_p4) / stats.n_trials)
    z_fourfold = (stats.p4_hat - analytic_p4) / p4_se if p4_se > 0.0 else 0.0
    z_correlation = None
    if not stats.no_coincidences and analytic_e is not None:
        se = detector.sigma_of_correlation(analytic_e) / math.sqrt(stats.n_fourfold)
        if se > 0.0:
            z_correlation = (stats.e_hat - analytic_e) / se
        elif stats.e_hat == analytic_e:  # |E| = 1 and every product was E
            z_correlation = 0.0
        else:  # |E| = 1 allows no other product
            z_correlation = math.copysign(math.inf, stats.e_hat - analytic_e)
    flagged = abs(z_fourfold) > Z_FLAG_THRESHOLD or (
        z_correlation is not None and abs(z_correlation) > Z_FLAG_THRESHOLD)
    return ComparisonReport(
        comparable=z_correlation is not None,
        analytic_e=analytic_e,
        analytic_p4=analytic_p4,
        z_correlation=z_correlation,
        z_fourfold=z_fourfold,
        flagged=flagged,
    )
