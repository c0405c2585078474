"""Joint-distribution (local hidden variable) feasibility for three ±1 variables.

Given the four moments E(A), E(B), E(C), E(ABC), a local hidden variable model
exists iff a probability distribution over the eight atoms abc ... a'b'c'
reproduces them.  The atoms' moment vectors (a, b, c, abc) are ±h_i, the rows
of a 4x4 Hadamard matrix, so the reproducible tetrads x form the
cross-polytope sum_i |x . h_i| <= 4 (Fine, PRL 48, 291 (1982); Werner & Wolf,
PRA 64, 032112 (2001)).  Inside [-1, 1]^4 its facets are the four two-sided
inequalities -2 <= ±E(A) ± E(B) ± E(C) ± E(ABC) <= 2 (odd number of minus
signs).  They decide feasibility, and every feasible tetrad gets a closed-form
witness.  The tests check both against an enumeration of the basic square
subsystems of the moment equations.

The one-tetrad functions run on plain floats.  numpy is imported only inside
the functions that take or make arrays: the batch masks,
``JointDistribution8.as_array`` and ``expectations_from_joint``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

SIMPLEX_TOL = 1e-12

# Atom order: abc, ab'c, abc', ab'c', a'bc, a'b'c, a'bc', a'b'c'
# (prime/bar = value -1).  ATOM_SIGNS[k] is the sign vector of atom k.
ATOM_SIGNS = (
    (+1.0, +1.0, +1.0),
    (+1.0, -1.0, +1.0),
    (+1.0, +1.0, -1.0),
    (+1.0, -1.0, -1.0),
    (-1.0, +1.0, +1.0),
    (-1.0, -1.0, +1.0),
    (-1.0, +1.0, -1.0),
    (-1.0, -1.0, -1.0),
)

ATOM_LABELS = ("abc", "ab'c", "abc'", "ab'c'", "a'bc", "a'b'c", "a'bc'", "a'b'c'")

# Moment vectors (E_A, E_B, E_C, E_ABC) h_1..h_4 of abc, ab'c, abc', ab'c'.
# a'bc, a'b'c, a'bc', a'b'c' carry -h_4 ... -h_1.
HADAMARD_ROWS = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))

# Sign patterns of the four inequalities applied to (E_A, E_B, E_C, E_ABC).
INEQUALITY_SIGNS = (
    (+1.0, +1.0, +1.0, -1.0),
    (-1.0, +1.0, +1.0, +1.0),
    (+1.0, -1.0, +1.0, +1.0),
    (+1.0, +1.0, -1.0, +1.0),
)


@dataclass(frozen=True)
class CorrelationSet:
    """The moment tetrad (E_A, E_B, E_C, E_ABC), each in [-1, 1]."""

    e_a: float
    e_b: float
    e_c: float
    e_abc: float

    def __post_init__(self):
        for name, value in zip(("e_a", "e_b", "e_c", "e_abc"), self.as_tuple()):
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [-1, 1]")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.e_a, self.e_b, self.e_c, self.e_abc)


@dataclass(frozen=True)
class JointDistribution8:
    """Probabilities of the eight atoms, in ATOM_LABELS order."""

    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) != 8:
            raise ValueError("expected 8 atom probabilities")
        if any(p < 0.0 for p in self.probs):
            raise ValueError("negative atom probability")
        if abs(sum(self.probs) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"atom probabilities sum to {sum(self.probs)}, not 1")

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.probs, dtype=float)


@dataclass(frozen=True)
class SymmetricParams:
    """Symmetric marginals: p = P(a) = P(b) = P(c), q = P(ABC = 1)."""

    p: float
    q: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q={self.q} outside [0, 1]")


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    # (lower, upper) slack for each of the four inequalities, flattened:
    # [lo1, up1, lo2, up2, lo3, up3, lo4, up4].  All >= 0 iff feasible.
    slacks: tuple[float, ...]
    f_value: float


def mermin_f(c: CorrelationSet) -> float:
    """F = E_A + E_B + E_C - E_ABC.  LHV models bound |F| <= 2; GHZ gives 4."""
    return c.e_a + c.e_b + c.e_c - c.e_abc


def check_inequalities(c: CorrelationSet) -> FeasibilityReport:
    """Evaluate the four two-sided inequalities; feasible iff all hold.

    Bounds are inclusive: a tetrad sitting exactly on a bound is feasible.
    This is the one decision: feasible_oracle gives a witness exactly when
    it says feasible.
    """
    e = c.as_tuple()
    slacks = []
    for row in INEQUALITY_SIGNS:
        v = sum(map(mul, row, e))
        slacks.append(v + 2.0)  # distance above the lower bound
        slacks.append(2.0 - v)  # distance below the upper bound
    feasible = all(s >= 0.0 for s in slacks)
    return FeasibilityReport(feasible=feasible, slacks=tuple(slacks), f_value=mermin_f(c))


def feasible_oracle(c: CorrelationSet) -> Optional[JointDistribution8]:
    """The closed-form witness, or None exactly when check_inequalities says infeasible."""
    return _witness(c) if check_inequalities(c).feasible else None


def _witness(c: CorrelationSet) -> JointDistribution8:
    """The closed-form witness of a tetrad that check_inequalities says is feasible.

    With lam_i = x . h_i / 4 and s = 1 - sum_i |lam_i|, the atom +h_i gets
    max(lam_i, 0) + s/8 and -h_i gets max(-lam_i, 0) + s/8: each pair differs
    by lam_i, which reproduces x, and the eight sum to 1.  Rounding can leave s
    a few ulp below zero on a bound, so it is clamped at zero and the atoms
    are renormalised.
    """
    e = c.as_tuple()
    lam = [sum(map(mul, h, e)) / 4.0 for h in HADAMARD_ROWS]
    share = max(0.0, 1.0 - sum(map(abs, lam))) / 8.0
    probs = [max(v, 0.0) + share for v in lam] + [max(-v, 0.0) + share for v in reversed(lam)]
    total = sum(probs)
    return JointDistribution8(tuple(p / total for p in probs))


def feasible_mask_oracle(tetrads: np.ndarray) -> np.ndarray:
    """Vectorized cross-polytope decision sum_i |x . h_i| <= 4 for an (n, 4) array."""
    import numpy as np

    moments = np.asarray(tetrads, dtype=float) @ np.array(HADAMARD_ROWS, dtype=float).T
    return np.abs(moments).sum(axis=1) <= 4.0


def feasible_mask_inequalities(tetrads: np.ndarray) -> np.ndarray:
    """Vectorized inequality decision for an (n, 4) array of tetrads."""
    import numpy as np

    values = np.asarray(tetrads, dtype=float) @ np.array(INEQUALITY_SIGNS).T
    return (np.abs(values) <= 2.0).all(axis=1)


def expectations_from_joint(j: JointDistribution8) -> CorrelationSet:
    """Recover (E_A, E_B, E_C, E_ABC) by signed atom sums."""
    import numpy as np

    p = j.as_array()
    signs = np.array(ATOM_SIGNS)
    e_a, e_b, e_c = signs.T @ p
    e_abc = np.prod(signs, axis=1) @ p
    clip = lambda v: float(min(1.0, max(-1.0, v)))
    return CorrelationSet(clip(e_a), clip(e_b), clip(e_c), clip(e_abc))


def construct_symmetric_joint(s: SymmetricParams) -> JointDistribution8:
    """Explicit joint distribution for symmetric marginals with 0 <= 3p-q <= 2.

    Interpolates between the two boundary distributions: on 3p = q the atoms
    take (x, y, z, w) = (0, q/3, 0, 1-q); on 3p = q + 2 they take
    ((1-q)/3, 0, q, 0).  The mixing weight lam = (3p-q)/2 multiplies the
    3p = q + 2 boundary; this is the orientation whose marginals reconstruct
    p and q exactly (the opposite orientation fails off the boundaries, which
    a regression test pins down).  x is shared by the three single-bar atoms,
    y by the three double-bar atoms, z sits on abc and w on a'b'c'.
    """
    t = 3.0 * s.p - s.q
    if t < -SIMPLEX_TOL:
        raise ValueError(f"3p - q = {t} < 0: below the symmetric feasibility band")
    if t > 2.0 + SIMPLEX_TOL:
        raise ValueError(f"3p - q = {t} > 2: above the symmetric feasibility band")
    lam = min(1.0, max(0.0, t / 2.0))
    x = lam * (1.0 - s.q) / 3.0
    y = (1.0 - lam) * s.q / 3.0
    z = lam * s.q
    w = (1.0 - lam) * (1.0 - s.q)
    #        abc  ab'c  abc'  ab'c'  a'bc  a'b'c  a'bc'  a'b'c'
    probs = (z,   x,    x,    y,     x,    y,     y,     w)
    return JointDistribution8(probs)


def epsilon_feasible(epsilon: float) -> bool:
    """LHV-compatibility of the eroded GHZ tetrad (1-eps, 1-eps, 1-eps, -1+eps).

    F = 4 - 4*eps, so a joint distribution exists iff eps >= 1/2.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside [0, 1]")
    return epsilon >= 0.5
