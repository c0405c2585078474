"""Seeded count-level simulation of the coincidence experiment.

Each trial is one coincidence window: a creation event (single pair or double
pair), photon arrivals, detection with efficiency d, dark counts with
probability gamma, fourfold-coincidence conditioning, and the spin product of
the three signal detectors.  Statistics are compared against the closed-form
model in :mod:`ghzdet.detector`.

Windows are independent and so are the detectors inside a window, so n
windows are simulated exactly by binomial thinning of counts, with a fixed
number of draws whatever n is (Kachitvichyanukul & Schmeiser, CACM 31(2):216
(1988), for the binomial sampler).  From the model the simulation takes only
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
  so their mean product is e_ghz times the ideal one; uncorrelated fourfolds
  a fair +-1 product.

Reproducibility: the draws come from one generator seeded by the master seed
alone, so a run depends only on (config, seed).  The optional event log draws
from a second, independent substream and leaves the statistics unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from . import detector, quantum
from .detector import ARRIVAL_COUNTS, ARRIVAL_TAGS, DetectorParams
from .quantum import ghz_state, validate_setting

TWOPAIR_TAG = "TD1D2D3"
EVENT_HEADER = "# creation,arrival,ghz,product"

Z_FLAG_THRESHOLD = 4.0


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


@dataclass(frozen=True)
class _Counts:
    """Fourfolds of one run, by kind; all products are tallied in sums."""

    pair_by_channel: np.ndarray  # single-pair fourfolds per arrival channel
    twopair_dark: int  # double-pair fourfolds with a dark count in D1..D3
    ghz_outcomes: np.ndarray  # correlated quadruples per Born outcome index
    uncorrelated_plus: int  # uncorrelated fourfolds with product +1

    @property
    def n_uncorrelated(self) -> int:
        return int(self.pair_by_channel.sum()) + self.twopair_dark


def _simulate(cfg: RunConfig, rng: np.random.Generator) -> _Counts:
    """All cfg.n_trials windows by binomial thinning."""
    p = cfg.params
    fire = detector.fire_probabilities(p.d, p.gamma)
    n_two = int(rng.binomial(cfg.n_trials, p.p_twopair))

    left = cfg.n_trials - n_two  # single-pair windows not yet fourfold
    pair_by_channel = np.zeros(len(ARRIVAL_COUNTS), dtype=np.int64)
    for i, counts in enumerate(ARRIVAL_COUNTS):
        k = left
        for photons in counts:
            k = rng.binomial(k, fire[photons])
        pair_by_channel[i] = k
        left -= k

    # Double pairs, one photon per detector: T fires on a real photon or a
    # dark count; D1..D3 split into "all real so far" and "some dark".
    real = rng.binomial(n_two, fire[1])
    dark = 0
    for _ in range(3):
        hit = rng.binomial(real, p.d)
        dark = rng.binomial(dark, fire[1]) + rng.binomial(real - hit, p.gamma)
        real = hit

    born = quantum.outcome_probabilities(ghz_state(p.e_ghz), cfg.setting)
    ghz_outcomes = rng.multinomial(real, born)
    n_uncorrelated = int(pair_by_channel.sum() + dark)
    return _Counts(pair_by_channel, int(dark), ghz_outcomes, int(rng.binomial(n_uncorrelated, 0.5)))


def _stats(n_trials: int, counts: _Counts) -> RunStats:
    n_ghz = int(counts.ghz_outcomes.sum())
    n_fourfold = n_ghz + counts.n_uncorrelated
    if n_fourfold == 0:
        return RunStats(n_trials, 0, 0, e_hat=None, std_err=None, p4_hat=0.0)
    sum_products = int(counts.ghz_outcomes @ quantum.OUTCOME_PRODUCTS)
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


def _write_events(counts: _Counts, rng: np.random.Generator, stream: IO[str]) -> None:
    """One line per fourfold, in random order: creation, arrival, ghz, product.

    The lines expand the counted outcomes exactly.  Uncorrelated fourfolds
    get their +1 products on a random subset of the counted size, and the
    order is a random permutation: given the counts, both are uniform for
    independent windows.
    """
    pair_tags = [f"pair,{tag},-" for tag in ARRIVAL_TAGS]
    uncorrelated = np.repeat(pair_tags + [f"twopair,{TWOPAIR_TAG},-"],
                             [*counts.pair_by_channel, counts.twopair_dark])
    products = np.full(len(uncorrelated), -1, dtype=np.int64)
    products[rng.permutation(len(uncorrelated))[: counts.uncorrelated_plus]] = 1
    ghz = np.repeat(quantum.OUTCOME_PRODUCTS, counts.ghz_outcomes)
    labels = np.concatenate([uncorrelated, np.full(len(ghz), f"twopair,{TWOPAIR_TAG},ghz")])
    products = np.concatenate([products, ghz])
    stream.write(EVENT_HEADER + "\n")
    for i in rng.permutation(len(labels)):
        stream.write(f"{labels[i]},{products[i]:+d}\n")


def run(cfg: RunConfig, event_stream: Optional[IO[str]] = None) -> RunStats:
    """Simulate cfg.n_trials independent windows and tally the fourfolds.

    With an event_stream, one line per fourfold is written after a header
    line; the statistics are the same with and without it.
    """
    kernel_seed, event_seed = np.random.SeedSequence(cfg.master_seed).spawn(2)
    counts = _simulate(cfg, np.random.default_rng(kernel_seed))
    if event_stream is not None:
        _write_events(counts, np.random.default_rng(event_seed), event_stream)
    return _stats(cfg.n_trials, counts)


def compare_analytic(stats: RunStats, params: DetectorParams, setting: str = "XYY") -> ComparisonReport:
    """z-scores of the empirical statistics against the closed-form model.

    The analytic correlation is the exact-mode corrected correlation times the
    ideal product expectation of the chosen setting (±1 for the four standard
    settings, 0 otherwise).
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
    if stats.no_coincidences or analytic_e is None:
        return ComparisonReport(
            comparable=False,
            analytic_e=analytic_e,
            analytic_p4=analytic_p4,
            z_correlation=None,
            z_fourfold=z_fourfold,
            flagged=abs(z_fourfold) > Z_FLAG_THRESHOLD,
        )
    se = stats.std_err if stats.std_err and stats.std_err > 0.0 else None
    if se is None:
        # Degenerate spread (|e_hat| = 1): fall back to the analytic sigma.
        se = detector.sigma_of_correlation(analytic_e) / math.sqrt(stats.n_fourfold)
    z_corr = (stats.e_hat - analytic_e) / se if se > 0.0 else 0.0
    flagged = abs(z_corr) > Z_FLAG_THRESHOLD or abs(z_fourfold) > Z_FLAG_THRESHOLD
    return ComparisonReport(
        comparable=True,
        analytic_e=analytic_e,
        analytic_p4=analytic_p4,
        z_correlation=z_corr,
        z_fourfold=z_fourfold,
        flagged=flagged,
    )
