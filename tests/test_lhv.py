import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzdet import lhv
from ghzdet.lhv import (
    CorrelationSet,
    JointDistribution8,
    SymmetricParams,
    check_inequalities,
    construct_symmetric_joint,
    epsilon_feasible,
    expectations_from_joint,
    feasible_oracle,
    mermin_f,
)

correlations = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
tetrads = st.builds(CorrelationSet, correlations, correlations, correlations, correlations)


def enumeration_mask(tetrads: np.ndarray) -> np.ndarray:
    """Reference decision, independent of the closed form in ghzdet.lhv.

    A witness is p >= 0 on the 8 atoms with M p = (1, E_A, E_B, E_C, E_ABC),
    where M stacks normalization and the four moment rows.  M has rank 5, so
    a nonempty feasible set has a vertex supported on the columns of a
    nonsingular 5x5 basic subsystem: 32 of the C(8, 5) = 56 column subsets.
    Solving them all is a complete decision; solutions down to -SIMPLEX_TOL
    count as nonnegative.
    """
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    constraints = np.vstack([np.ones(8), signs.T, signs.prod(axis=1)])
    inverses = []
    for cols in itertools.combinations(range(8), 5):
        sub = constraints[:, cols]
        if abs(np.linalg.det(sub)) > 0.5:  # entries are ±1; dets are integers
            inverses.append(np.linalg.inv(sub))
    assert len(inverses) == 32
    b = np.hstack([np.ones((len(tetrads), 1)), tetrads])
    solutions = np.einsum("kij,nj->nki", np.array(inverses), b)
    return (solutions >= -lhv.SIMPLEX_TOL).all(axis=2).any(axis=1)


def acceptance_tetrads() -> np.ndarray:
    """The 9^4 grid, 10,000 uniform draws and the eroded line eps = k/256."""
    axis = np.linspace(-1.0, 1.0, 9)
    grid = np.array(list(itertools.product(axis, axis, axis, axis)))
    draws = np.random.default_rng(20260825).uniform(-1.0, 1.0, size=(10_000, 4))
    eps = np.arange(257) / 256
    line = np.column_stack([1 - eps, 1 - eps, 1 - eps, eps - 1])
    return np.vstack([grid, draws, line])


def witness_moments(witness: JointDistribution8) -> list[float]:
    """(E_A, E_B, E_C, E_ABC) of a witness, summed exactly atom by atom."""
    atoms = [(a, b, c, a * b * c) for a, b, c in lhv.ATOM_SIGNS]
    return [math.fsum(p * atom[k] for p, atom in zip(witness.probs, atoms)) for k in range(4)]


class TestMerminF:
    def test_ghz_tetrad(self):
        assert mermin_f(CorrelationSet(1, 1, 1, -1)) == 4.0

    def test_zero(self):
        assert mermin_f(CorrelationSet(0, 0, 0, 0)) == 0.0

    def test_eroded(self):
        assert mermin_f(CorrelationSet(0.7, 0.7, 0.7, -0.7)) == pytest.approx(2.8)

    @given(tetrads, tetrads, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_linearity_under_mixing(self, c1, c2, lam):
        mixed = CorrelationSet(
            *(lam * a + (1 - lam) * b for a, b in zip(c1.as_tuple(), c2.as_tuple()))
        )
        expected = lam * mermin_f(c1) + (1 - lam) * mermin_f(c2)
        assert mermin_f(mixed) == pytest.approx(expected, abs=1e-12)


class TestCorrelationSet:
    @pytest.mark.parametrize("bad", [1.2, -1.0001, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            CorrelationSet(bad, 0, 0, 0)


class TestCheckInequalities:
    def test_ghz_contradiction(self):
        report = check_inequalities(CorrelationSet(1, 1, 1, -1))
        assert not report.feasible
        assert report.f_value == 4.0
        assert report.slacks[1] == -2.0  # upper slack of the first inequality

    def test_boundary_is_feasible(self):
        c = CorrelationSet(0.5, 0.5, 0.5, -0.5)
        report = check_inequalities(c)
        assert report.feasible
        assert report.f_value == 2.0
        assert report.slacks[1] == 0.0  # tight on the upper bound
        assert feasible_oracle(c) is not None

    def test_point_mass_tetrad(self):
        assert check_inequalities(CorrelationSet(1, 1, 1, 1)).feasible

    @given(tetrads)
    def test_feasible_iff_all_slacks_nonnegative(self, c):
        report = check_inequalities(c)
        assert report.feasible == all(s >= 0.0 for s in report.slacks)


class TestFeasibleOracle:
    def test_point_mass_witness(self):
        for sign, atom in ((1, 0), (-1, 7)):  # abc and a'b'c'
            witness = feasible_oracle(CorrelationSet(sign, sign, sign, sign))
            assert witness is not None
            assert witness.probs[atom] == 1.0
            assert sum(witness.probs) - witness.probs[atom] == 0.0

    def test_one_inclusive_decision_past_a_bound(self):
        # -E_A + E_B + E_C + E_ABC = 2 + 1e-12: outside by 1e-12, which the
        # basis enumeration's SIMPLEX_TOL would accept.
        c = CorrelationSet(0.0, 1.0, 1.0, 1e-12)
        assert not check_inequalities(c).feasible
        assert feasible_oracle(c) is None

    def test_ghz_tetrad_has_no_witness(self):
        assert feasible_oracle(CorrelationSet(1, 1, 1, -1)) is None

    def test_eroded_ghz_tetrad_has_no_witness(self):
        assert feasible_oracle(CorrelationSet(0.9, 0.9, 0.9, -0.9)) is None

    def test_agrees_with_inequalities_on_random_tetrads(self):
        rng = np.random.default_rng(20260825)
        tetrads = rng.uniform(-1.0, 1.0, size=(2000, 4))
        by_ineq = lhv.feasible_mask_inequalities(tetrads)
        by_oracle = lhv.feasible_mask_oracle(tetrads)
        assert np.array_equal(by_ineq, by_oracle)

    def test_witness_reproduces_the_query(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            c = CorrelationSet(*rng.uniform(-1.0, 1.0, size=4))
            witness = feasible_oracle(c)
            if witness is None:
                continue
            back = expectations_from_joint(witness)
            for got, want in zip(back.as_tuple(), c.as_tuple()):
                assert got == pytest.approx(want, abs=1e-9)
            checked += 1

    @given(tetrads)
    @settings(max_examples=300)
    def test_equivalence_property(self, c):
        witness = feasible_oracle(c)
        assert check_inequalities(c).feasible == (witness is not None)
        if witness is not None:
            assert witness_moments(witness) == pytest.approx(c.as_tuple(), abs=1e-12)

    def test_acceptance_set_against_the_enumeration(self):
        tetrads = acceptance_tetrads()
        reference = enumeration_mask(tetrads)
        decided = np.array([check_inequalities(CorrelationSet(*t)).feasible for t in tetrads])
        for mask in (decided, lhv.feasible_mask_oracle(tetrads),
                     lhv.feasible_mask_inequalities(tetrads)):
            assert int(np.sum(mask != reference)) == 0
        for t in tetrads[reference]:
            witness = feasible_oracle(CorrelationSet(*t))
            assert abs(sum(witness.probs) - 1.0) <= lhv.SIMPLEX_TOL
            assert np.max(np.abs(np.array(witness_moments(witness)) - t)) <= 1e-12


class TestSymmetricConstruction:
    def test_lower_boundary(self):
        # 3p = q: atoms concentrate on the double-bar atoms and a'b'c'.
        j = construct_symmetric_joint(SymmetricParams(0.2, 0.6))
        x, y, z, w = j.probs[1], j.probs[3], j.probs[0], j.probs[7]
        assert (x, y, z, w) == pytest.approx((0.0, 0.2, 0.0, 0.4), abs=1e-12)

    def test_upper_boundary(self):
        # 3p = q + 2: atoms concentrate on the single-bar atoms and abc.
        j = construct_symmetric_joint(SymmetricParams(0.8, 0.4))
        x, y, z, w = j.probs[1], j.probs[3], j.probs[0], j.probs[7]
        assert (x, y, z, w) == pytest.approx((0.2, 0.0, 0.4, 0.0), abs=1e-12)

    def test_interior_point(self):
        j = construct_symmetric_joint(SymmetricParams(0.5, 0.5))
        x, y, z, w = j.probs[1], j.probs[3], j.probs[0], j.probs[7]
        assert (x, y, z, w) == pytest.approx((1 / 12, 1 / 12, 0.25, 0.25), abs=1e-12)
        back = expectations_from_joint(j)
        assert back.as_tuple() == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("p,q,fragment", [(0.0, 1.0, "below"), (1.0, 0.0, "above")])
    def test_out_of_band_rejected_with_side(self, p, q, fragment):
        with pytest.raises(ValueError, match=fragment):
            construct_symmetric_joint(SymmetricParams(p, q))

    def test_round_trip_on_grid(self):
        for p in np.linspace(0.0, 1.0, 21):
            for q in np.linspace(0.0, 1.0, 21):
                if not 0.0 <= 3 * p - q <= 2.0:
                    continue
                j = construct_symmetric_joint(SymmetricParams(float(p), float(q)))
                assert sum(j.probs) == pytest.approx(1.0, abs=1e-12)
                back = expectations_from_joint(j)
                e = 2 * p - 1
                assert back.as_tuple() == pytest.approx(
                    (e, e, e, 2 * q - 1), abs=1e-12
                )

    def test_swapped_weight_orientation_fails_marginals(self):
        # Regression: putting the weight lam = (3p-q)/2 on the 3p = q boundary
        # distribution instead of the 3p = q + 2 one breaks the marginals at
        # interior/boundary points, so the implemented orientation is forced.
        p, q = 0.8, 0.4
        lam = (3 * p - q) / 2
        x = (1 - lam) * (1 - q) / 3
        y = lam * q / 3
        z = (1 - lam) * q
        w = lam * (1 - q)
        p_of_a = z + 2 * x + y  # abc + two single-bar atoms + one double-bar atom
        assert p_of_a != pytest.approx(p, abs=1e-6)


class TestExpectationsFromJoint:
    def test_point_mass(self):
        j = JointDistribution8((1, 0, 0, 0, 0, 0, 0, 0))
        assert expectations_from_joint(j).as_tuple() == (1, 1, 1, 1)

    def test_uniform(self):
        j = JointDistribution8((0.125,) * 8)
        assert expectations_from_joint(j).as_tuple() == pytest.approx((0, 0, 0, 0))

    def test_rejects_bad_distributions(self):
        with pytest.raises(ValueError):
            JointDistribution8((0.5, 0.5, 0.5, -0.5, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            JointDistribution8((0.125,) * 7)


class TestEpsilonThreshold:
    @pytest.mark.parametrize(
        "eps,expected", [(0.0, False), (0.4, False), (0.5, True), (0.501, True), (1.0, True)]
    )
    def test_flip_at_one_half(self, eps, expected):
        assert epsilon_feasible(eps) is expected

    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            epsilon_feasible(eps)

    @pytest.mark.parametrize("eps,expected", [(0.5, True), (0.5 - 2**-52, False)])
    def test_witness_exactly_from_one_half(self, eps, expected):
        c = CorrelationSet(1 - eps, 1 - eps, 1 - eps, -1 + eps)
        assert (feasible_oracle(c) is not None) is expected

    def test_matches_inequality_check_on_grid(self):
        for eps in np.linspace(0.0, 1.0, 101):
            c = CorrelationSet(1 - eps, 1 - eps, 1 - eps, -1 + eps)
            assert epsilon_feasible(float(eps)) == check_inequalities(c).feasible
