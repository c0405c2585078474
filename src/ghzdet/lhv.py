"""Joint-distribution (local hidden variable) feasibility for three ±1 variables.

Given the four moments E(A), E(B), E(C), E(ABC), a local hidden variable model
exists iff a probability distribution over the eight atoms abc ... a'b'c'
reproduces them.  The atoms' moment vectors (a, b, c, abc) are ±h_i, the rows
of a 4x4 Hadamard matrix, so the reproducible tetrads x form the
cross-polytope sum_i |x . h_i| <= 4 (Fine, PRL 48, 291 (1982); Werner & Wolf,
PRA 64, 032112 (2001)).  Inside [-1, 1]^4 its facets are the four two-sided
inequalities |±E(A) ± E(B) ± E(C) ± E(ABC)| <= F_BOUND = 2 (odd number of
minus signs); the first bounds F = E(A) + E(B) + E(C) - E(ABC), reported as
FeasibilityReport.f_value.  They decide feasibility, and every feasible tetrad
gets a closed-form witness.  The tests check both against an enumeration of
the basic square subsystems of the moment equations.  F_BOUND is the one
statement of the LHV bound: detector.LHV_BOUND is derived from it.

Everything runs on plain floats, with no numpy: the batch masks take any
sequence of tetrads and return a list.  The records are immutable named
tuples, checked when they are made, also by ``_make`` and ``_replace``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, Optional, Sequence

SIMPLEX_TOL = 1e-12
F_BOUND = 2.0  # the LHV bound on |F| and on each of the four inequality sums

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


class CorrelationSet(namedtuple("CorrelationSet", "e_a e_b e_c e_abc")):
    """The moment tetrad (E_A, E_B, E_C, E_ABC), each in [-1, 1]."""

    __slots__ = ()

    def __new__(cls, e_a: float, e_b: float, e_c: float, e_abc: float):
        if (-1.0 <= e_a <= 1.0 and -1.0 <= e_b <= 1.0 and -1.0 <= e_c <= 1.0
                and -1.0 <= e_abc <= 1.0):
            return tuple.__new__(cls, (e_a, e_b, e_c, e_abc))
        for name, value in zip(cls._fields, (e_a, e_b, e_c, e_abc)):
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [-1, 1]")

    @classmethod
    def _make(cls, iterable):  # checked, and so is _replace, which calls it
        return cls(*iterable)


class JointDistribution8(namedtuple("JointDistribution8", "probs")):
    """Probabilities of the eight atoms, in ATOM_LABELS order."""

    __slots__ = ()

    def __new__(cls, probs: tuple[float, ...]):
        if len(probs) != 8:
            raise ValueError("expected 8 atom probabilities")
        # Negated comparisons, so that a NaN fails them too.
        if not min(probs) >= 0.0:
            raise ValueError(f"atom probability {min(probs)} is not >= 0")
        total = sum(probs)
        if not abs(total - 1.0) <= SIMPLEX_TOL:
            raise ValueError(f"atom probabilities sum to {total}, not 1")
        return tuple.__new__(cls, (probs,))

    @classmethod
    def _make(cls, iterable):  # checked, and so is _replace, which calls it
        return cls(*iterable)


class FeasibilityReport(namedtuple("FeasibilityReport", "feasible slacks f_value")):
    """check_inequalities' decision, its slacks and F.

    slacks holds the (lower, upper) slack of each of the four inequalities,
    flattened: [lo1, up1, lo2, up2, lo3, up3, lo4, up4].  All >= 0 iff
    feasible.  f_value is F = E_A + E_B + E_C - E_ABC, the first sum: LHV
    models bound |F| <= F_BOUND, and the GHZ tetrad gives 4.
    """

    __slots__ = ()


def _sums(e_a: float, e_b: float, e_c: float, e_abc: float) -> tuple[float, float, float, float]:
    """The four inequality sums v1 = F, v2, v3, v4, each added left to right:
    sum() of floats is compensated from Python 3.12 and would round
    differently next to a bound."""
    return (e_a + e_b + e_c - e_abc, e_b - e_a + e_c + e_abc,
            e_a - e_b + e_c + e_abc, e_a + e_b - e_c + e_abc)


def _inside(e_a: float, e_b: float, e_c: float, e_abc: float) -> bool:
    """|v| <= F_BOUND for each sum v, true iff both of v's slacks are >= 0:
    near zero they are exact by Sterbenz's lemma, so rounding cannot carry
    them across it."""
    v1, v2, v3, v4 = _sums(e_a, e_b, e_c, e_abc)
    return abs(v1) <= F_BOUND and abs(v2) <= F_BOUND and abs(v3) <= F_BOUND and abs(v4) <= F_BOUND


def check_inequalities(c: CorrelationSet) -> FeasibilityReport:
    """Evaluate the four two-sided inequalities; feasible iff all hold.

    Bounds are inclusive: a tetrad sitting exactly on a bound is feasible.
    This is the one decision: feasible_oracle gives a witness exactly when
    it says feasible, from the same four sums.
    """
    v1, v2, v3, v4 = _sums(*c)
    # (distance above the lower bound, distance below the upper bound) per sum
    slacks = (v1 + F_BOUND, F_BOUND - v1, v2 + F_BOUND, F_BOUND - v2,
              v3 + F_BOUND, F_BOUND - v3, v4 + F_BOUND, F_BOUND - v4)
    return FeasibilityReport(min(slacks) >= 0.0, slacks, v1)  # feasible, slacks, F


def feasible_oracle(c: CorrelationSet) -> Optional[JointDistribution8]:
    """The closed-form witness, or None exactly when check_inequalities says infeasible."""
    return _witness(c) if _inside(*c) else None


def _witness(c: CorrelationSet) -> JointDistribution8:
    """The closed-form witness of a tetrad that check_inequalities says is feasible.

    The moment vectors (E_A, E_B, E_C, E_ABC) of abc, ab'c, abc', ab'c' are
    the Hadamard rows h_1..h_4 = (1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1),
    (1, -1, -1, 1); a'bc, a'b'c, a'bc', a'b'c' carry -h_4 ... -h_1.
    With lam_i = x . h_i / 4 and s = 1 - sum_i |lam_i|, the atom +h_i gets
    max(lam_i, 0) + s/8 and -h_i gets max(-lam_i, 0) + s/8: each pair differs
    by lam_i, which reproduces x, and the eight sum to 1.  Rounding can leave s
    a few ulp below zero on a bound, so it is clamped at zero and the atoms
    are renormalised.
    """
    e_a, e_b, e_c, e_abc = c
    lam1 = (e_a + e_b + e_c + e_abc) / 4.0
    lam2 = (e_a - e_b + e_c - e_abc) / 4.0
    lam3 = (e_a + e_b - e_c - e_abc) / 4.0
    lam4 = (e_a - e_b - e_c + e_abc) / 4.0
    share = max(0.0, 1.0 - (abs(lam1) + abs(lam2) + abs(lam3) + abs(lam4))) / 8.0
    p1 = (lam1 if lam1 > 0.0 else 0.0) + share
    p2 = (lam2 if lam2 > 0.0 else 0.0) + share
    p3 = (lam3 if lam3 > 0.0 else 0.0) + share
    p4 = (lam4 if lam4 > 0.0 else 0.0) + share
    p5 = (-lam4 if lam4 < 0.0 else 0.0) + share
    p6 = (-lam3 if lam3 < 0.0 else 0.0) + share
    p7 = (-lam2 if lam2 < 0.0 else 0.0) + share
    p8 = (-lam1 if lam1 < 0.0 else 0.0) + share
    total = p1 + p2 + p3 + p4 + p5 + p6 + p7 + p8
    return JointDistribution8((p1 / total, p2 / total, p3 / total, p4 / total,
                               p5 / total, p6 / total, p7 / total, p8 / total))


def feasible_mask_inequalities(tetrads: Iterable[Sequence[float]]) -> list[bool]:
    """feasible_oracle's decision for each tetrad (E_A, E_B, E_C, E_ABC).

    The tetrads may be tuples, lists or the rows of an (n, 4) array; for an
    array the entries are numpy bools.  Each entry is the scalar decision bit
    for bit: the same _inside test of the same four sums, with no numpy.  A row
    outside [-1, 1]^4, which CorrelationSet rejects and no model reproduces,
    gives False.
    """
    return [
        _inside(e_a, e_b, e_c, e_abc) and -1.0 <= e_a <= 1.0 and -1.0 <= e_b <= 1.0
        and -1.0 <= e_c <= 1.0 and -1.0 <= e_abc <= 1.0
        for e_a, e_b, e_c, e_abc in tetrads
    ]


# The closed-form oracle decides by the inequalities, so its batch form is the
# same function.
feasible_mask_oracle = feasible_mask_inequalities


def expectations_from_joint(j: JointDistribution8) -> CorrelationSet:
    """Recover (E_A, E_B, E_C, E_ABC) by signed atom sums.

    math.fsum rounds each sum exactly once, so the result does not depend on
    the order of the atoms; a sum may still exceed 1 by the simplex
    tolerance, and is clipped.
    """
    def moment(signs: Iterable[float]) -> float:
        return min(1.0, max(-1.0, math.fsum(s * p for s, p in zip(signs, j.probs))))

    a, b, c = zip(*ATOM_SIGNS)
    abc = [s_a * s_b * s_c for s_a, s_b, s_c in ATOM_SIGNS]
    return CorrelationSet(moment(a), moment(b), moment(c), moment(abc))


def construct_symmetric_joint(p: float, q: float) -> JointDistribution8:
    """Explicit joint distribution for symmetric marginals with 0 <= 3p-q <= 2.

    p = P(a) = P(b) = P(c) and q = P(ABC = 1), each in [0, 1].

    Interpolates between the two boundary distributions: on 3p = q the atoms
    take (x, y, z, w) = (0, q/3, 0, 1-q); on 3p = q + 2 they take
    ((1-q)/3, 0, q, 0).  The mixing weight lam = (3p-q)/2 multiplies the
    3p = q + 2 boundary; this is the orientation whose marginals reconstruct
    p and q exactly (the opposite orientation fails off the boundaries, which
    a regression test pins down).  x is shared by the three single-bar atoms,
    y by the three double-bar atoms, z sits on abc and w on a'b'c'.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    t = 3.0 * p - q
    if t < -SIMPLEX_TOL:
        raise ValueError(f"3p - q = {t} < 0: below the symmetric feasibility band")
    if t > 2.0 + SIMPLEX_TOL:
        raise ValueError(f"3p - q = {t} > 2: above the symmetric feasibility band")
    lam = min(1.0, max(0.0, t / 2.0))
    x = lam * (1.0 - q) / 3.0
    y = (1.0 - lam) * q / 3.0
    z = lam * q
    w = (1.0 - lam) * (1.0 - q)
    #        abc  ab'c  abc'  ab'c'  a'bc  a'b'c  a'bc'  a'b'c'
    probs = (z,   x,    x,    y,     x,    y,     y,     w)
    return JointDistribution8(probs)


def epsilon_feasible(epsilon: float) -> bool:
    """LHV-compatibility of the eroded GHZ tetrad (1-eps, 1-eps, 1-eps, -1+eps).

    F = 4 - 4*eps, so a joint distribution exists iff eps >= 1 - F_BOUND/4 = 1/2.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside [0, 1]")
    return epsilon >= 1.0 - F_BOUND / 4.0
