"""Three-photon entangled-state predictions: expectations and outcome sampling.

The state is (|++->|123 + |--+>|123)/sqrt(2) in the per-particle (+, -) basis.
Each particle is analyzed along axis X or Y.  Analyzer operators are built
from explicit 2x2 matrices tensored to 8x8.  The outcome labels of the X
analyzer on particle 3 are swapped relative to particles 1 and 2 (its
operator is -sigma_x): particle 3 is the odd one out in the state, and this
labeling is the unique single-analyzer convention under which the state is a
+1 eigenstate of XYY, YXY, YYX and a -1 eigenstate of XXX, matching the
experimental value assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lhv import CorrelationSet

NORM_TOL = 1e-12

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

WITNESS_SETTINGS = ("XYY", "YXY", "YYX", "XXX")

# Outcome triples (s1, s2, s3), index bit = 0 for +1, 1 for -1, particle 1
# most significant.  OUTCOME_SIGNS[i] is the sign triple of outcome index i.
OUTCOME_SIGNS = np.array(
    [[1 - 2 * (i >> 2 & 1), 1 - 2 * (i >> 1 & 1), 1 - 2 * (i & 1)] for i in range(8)],
    dtype=np.int8,
)


@dataclass(frozen=True)
class StateVector8:
    """Complex amplitudes of a 3-qubit state, basis |+/-> per particle, + first."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        if len(self.amplitudes) != 8:
            raise ValueError("expected 8 amplitudes")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.amplitudes, dtype=complex)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.as_array()) ** 2))


def validate_setting(setting: str) -> str:
    setting = setting.upper()
    if len(setting) != 3 or any(ch not in "XY" for ch in setting):
        raise ValueError(f"setting must be three letters from {{X, Y}}, got {setting!r}")
    return setting


def ghz_state() -> StateVector8:
    """Amplitudes 1/sqrt(2) on |++-> (index 1) and |--+> (index 6)."""
    amp = 1.0 / np.sqrt(2.0)
    a = [0.0 + 0.0j] * 8
    a[0b001] = amp
    a[0b110] = amp
    return StateVector8(tuple(a))


def analyzer_matrix(particle: int, axis: str) -> np.ndarray:
    """2x2 observable for one particle; particle 3's X carries swapped labels."""
    if axis == "Y":
        return _SIGMA_Y
    if particle == 3:
        return -_SIGMA_X
    return _SIGMA_X


def _check_normalized(state: StateVector8) -> np.ndarray:
    psi = state.as_array()
    if abs(state.norm_squared() - 1.0) > NORM_TOL:
        raise ValueError(f"state not normalized: |psi|^2 = {state.norm_squared()}")
    return psi


def operator_expectation(state: StateVector8, setting: str) -> float:
    """<psi| O1 (x) O2 (x) O3 |psi> for the given axis triple."""
    setting = validate_setting(setting)
    psi = _check_normalized(state)
    op = np.array([[1.0 + 0.0j]])
    for particle, axis in enumerate(setting, start=1):
        op = np.kron(op, analyzer_matrix(particle, axis))
    value = np.vdot(psi, op @ psi)
    assert abs(value.imag) < NORM_TOL, value
    return float(value.real)


def ghz_witness() -> CorrelationSet:
    """The moment tetrad of the entangled state: computed, not hard-coded."""
    state = ghz_state()
    values = (operator_expectation(state, s) for s in WITNESS_SETTINGS)
    return CorrelationSet(*(min(1.0, max(-1.0, v)) for v in values))


def _eigenvector(particle: int, axis: str, sign: int) -> np.ndarray:
    """Eigenvector of analyzer_matrix(particle, axis) with eigenvalue `sign`."""
    s = 1.0 / np.sqrt(2.0)
    if axis == "Y":
        return np.array([s, sign * 1.0j * s])
    if particle == 3:
        sign = -sign
    return np.array([s, sign * s])


@lru_cache(maxsize=None)
def _cached_probabilities(amplitudes: tuple[complex, ...], setting: str) -> np.ndarray:
    psi = np.asarray(amplitudes, dtype=complex)
    probs = np.empty(8)
    for idx, signs in enumerate(OUTCOME_SIGNS):
        basis = np.array([1.0 + 0.0j])
        for particle, (axis, sign) in enumerate(zip(setting, signs), start=1):
            basis = np.kron(basis, _eigenvector(particle, axis, int(sign)))
        probs[idx] = abs(np.vdot(basis, psi)) ** 2
    assert np.all(probs >= -NORM_TOL)
    assert abs(probs.sum() - 1.0) < NORM_TOL, probs.sum()
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    probs.setflags(write=False)
    return probs


def outcome_probabilities(state: StateVector8, setting: str) -> np.ndarray:
    """Born probabilities of the 8 outcome triples, cached per setting."""
    setting = validate_setting(setting)
    _check_normalized(state)
    return _cached_probabilities(state.amplitudes, setting)


def sample_many(
    state: StateVector8, setting: str, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n outcome triples; returns an (n, 3) array of ±1 signs."""
    probs = outcome_probabilities(state, setting)
    cdf = np.cumsum(probs)
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    idx = np.minimum(idx, 7)  # guard the u == 1.0 edge
    return OUTCOME_SIGNS[idx].astype(np.int64)
