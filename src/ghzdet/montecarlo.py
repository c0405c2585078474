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
* Products: only the spin product s1 s2 s3 of a fourfold is reported, so
  that is all that is drawn.  A correlated quadruple's product is +1 with
  the Born probability (1 + E)/2, where E is e_ghz times the setting's ideal
  expectation (``quantum.operator_expectation``), one binomial for all of
  them; an uncorrelated fourfold's product is a fair +-1.

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
from collections import namedtuple
from dataclasses import dataclass
from typing import IO, Optional

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
    work.  It is the package's one dataclass: the benchmark's traced harness
    builds it with n_workers= and calls dataclasses.replace(cfg, n_workers=1)."""

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


class RunStats(namedtuple("RunStats", "n_trials n_fourfold n_ghz_fourfold e_hat std_err p4_hat")):
    """run's counts; e_hat and std_err are None when no fourfold was seen."""

    __slots__ = ()

    @property
    def no_coincidences(self) -> bool:
        return self.n_fourfold == 0


class ComparisonReport(namedtuple("ComparisonReport", "comparable analytic_e analytic_p4 "
                                  "z_correlation z_fourfold flagged")):
    """compare_analytic's model values and z-scores against them."""

    __slots__ = ()


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


def _write_events(by_kind: list[int], n_plus: int, rng: random.Random, stream: IO[str]) -> None:
    """One line per fourfold, in random order: creation, arrival, ghz, product.

    by_kind counts the fourfolds of each kind: the ten pair channels and the
    dark-assisted double pairs, whose products are uncorrelated and n_plus of
    them +1, then the correlated quadruples with product -1 and with +1.  Each
    line takes its kind in proportion to the fourfolds of each kind not yet
    written, and an uncorrelated line is +1 with the share of +1 products left
    among the uncorrelated ones.  So the order is a uniform permutation and the
    +1 products a uniform subset, as they are for independent windows given
    the counts, and nothing is held per fourfold.
    """
    labels = [f"pair,{tag},-" for tag in ARRIVAL_TAGS] + [f"twopair,{TWOPAIR_TAG},-"]
    # (-1 line, +1 line) of each kind; a correlated kind's product is fixed.
    lines = [tuple(f"{label},{product:+d}\n" for product in (-1, 1)) for label in labels]
    lines += [(f"twopair,{TWOPAIR_TAG},ghz,{product:+d}\n",) * 2 for product in (-1, 1)]
    # The kinds are scanned most frequent first, which keeps the scan short
    # and leaves each kind's share unchanged.
    order = sorted(range(len(by_kind)), key=by_kind.__getitem__, reverse=True)
    left = [by_kind[k] for k in order]
    lines = [lines[k] for k in order]
    mixed = [k < len(labels) for k in order]
    n_uncorrelated = sum(by_kind[:len(labels)])
    # randrange(n) without its argument checks: the same draws, in half the time.
    write, below = stream.write, rng._randbelow
    write(EVENT_HEADER + "\n")
    for total in range(sum(left), 0, -1):
        r = below(total)
        i = 0
        while r >= left[i]:
            r -= left[i]
            i += 1
        left[i] -= 1
        if mixed[i]:
            plus = below(n_uncorrelated) < n_plus
            n_plus -= plus
            n_uncorrelated -= 1
            write(lines[i][plus])
        else:
            write(lines[i][0])


def run(cfg: RunConfig, event_stream: Optional[IO[str]] = None) -> RunStats:
    """Simulate cfg.n_trials independent windows by binomial thinning.

    With an event_stream, one line per fourfold is written after a header
    line; the statistics are the same with and without it.
    """
    rng = random.Random(f"{cfg.master_seed}:kernel")
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

    e_source = quantum.operator_expectation(ghz_state(p.e_ghz), cfg.setting)
    ghz_plus = _binomial(rng, real, (1.0 + e_source) / 2.0)
    n_uncorrelated = sum(pair_by_channel) + dark
    uncorrelated_plus = _binomial(rng, n_uncorrelated, 0.5)
    if event_stream is not None:
        _write_events([*pair_by_channel, dark, real - ghz_plus, ghz_plus], uncorrelated_plus,
                      random.Random(f"{cfg.master_seed}:events"), event_stream)

    n_fourfold = real + n_uncorrelated
    e_hat = std_err = None
    if n_fourfold > 0:
        e_hat = (2 * (ghz_plus + uncorrelated_plus) - n_fourfold) / n_fourfold
        std_err = detector.sigma_of_correlation(e_hat) / math.sqrt(n_fourfold)
    return RunStats(
        n_trials=cfg.n_trials,
        n_fourfold=n_fourfold,
        n_ghz_fourfold=real,
        e_hat=e_hat,
        std_err=std_err,
        p4_hat=n_fourfold / cfg.n_trials,
    )


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
