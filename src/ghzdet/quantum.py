"""Three-photon entangled-state predictions: expectations and outcome sampling.

The state is (|++->|123 + |--+>|123)/sqrt(2) in the per-particle (+, -) basis,
each particle analyzed along X or Y, with particle 3's X outcome labels swapped
(operator -sigma_x): the unique single-analyzer convention under which the
state is a +1 eigenstate of XYY, YXY, YYX and a -1 eigenstate of XXX, as in the
experimental value assignment.  Every one- and two-particle correlation
vanishes, so a setting's Born table is P(s1, s2, s3) = (1 + s1 s2 s3 v E)/8,
with E = -1 for XXX, +1 for two Ys and 0 for an odd number of Ys
(Greenberger, Horne, Shimony & Zeilinger, Am. J. Phys. 58, 1131 (1990);
Mermin, PRL 65, 1838 (1990)).  The visibility v mixes in white noise,
v rho + (1 - v) I/8, and for v < 0 rotates particle 1 by Z,
|v| Z1 rho Z1 + (1 - |v|) I/8.  The tests derive the table from 8x8 matrices.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .lhv import CorrelationSet

if TYPE_CHECKING:
    import numpy as np

WITNESS_SETTINGS = ("XYY", "YXY", "YYX", "XXX")

# Outcome triples (s1, s2, s3), index bit = 0 for +1, 1 for -1, particle 1
# most significant.  OUTCOME_SIGNS[i] is the sign triple of outcome index i,
# OUTCOME_PRODUCTS[i] its spin product s1 s2 s3.
OUTCOME_SIGNS = tuple(
    (1 - 2 * (i >> 2 & 1), 1 - 2 * (i >> 1 & 1), 1 - 2 * (i & 1)) for i in range(8)
)
OUTCOME_PRODUCTS = tuple(s1 * s2 * s3 for s1, s2, s3 in OUTCOME_SIGNS)


class GHZState(namedtuple("GHZState", "visibility")):
    """The entangled source, as its visibility v in [-1, 1] (1 is ideal)."""

    __slots__ = ()

    def __new__(cls, visibility: float = 1.0):
        if not -1.0 <= visibility <= 1.0:
            raise ValueError(f"visibility={visibility} outside [-1, 1]")
        return super().__new__(cls, visibility)

    @classmethod
    def _make(cls, iterable):  # checked, and so is _replace, which calls it
        return cls(*iterable)


def validate_setting(setting: str) -> str:
    setting = setting.upper()
    if len(setting) != 3 or any(ch not in "XY" for ch in setting):
        raise ValueError(f"setting must be three letters from {{X, Y}}, got {setting!r}")
    return setting


def ghz_state(visibility: float = 1.0) -> GHZState:
    return GHZState(visibility)


def operator_expectation(state: GHZState, setting: str) -> float:
    """<O1 O2 O3> for the given axis triple: v times -1, +1 or 0."""
    n_y = validate_setting(setting).count("Y")
    if n_y % 2:
        return 0.0
    return state.visibility if n_y == 2 else -state.visibility


def ghz_witness() -> CorrelationSet:
    """The moment tetrad of the ideal state, exactly (1, 1, 1, -1)."""
    state = ghz_state()
    return CorrelationSet(*(operator_expectation(state, s) for s in WITNESS_SETTINGS))


def outcome_probabilities(state: GHZState, setting: str) -> tuple[float, ...]:
    """Born probabilities of the 8 outcome triples, in OUTCOME_SIGNS order."""
    e = operator_expectation(state, setting)
    return tuple((1.0 + s * e) / 8.0 for s in OUTCOME_PRODUCTS)


def sample_many(state: GHZState, setting: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n outcome triples through rng, the caller's numpy generator, so
    that this module imports nothing; returns an (n, 3) array of ±1 signs."""
    return rng.choice(OUTCOME_SIGNS, size=n, p=outcome_probabilities(state, setting))
