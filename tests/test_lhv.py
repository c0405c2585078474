import functools
import itertools
import math
import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzdet import lhv
from ghzdet.lhv import (
    CorrelationSet,
    JointDistribution8,
    check_inequalities,
    construct_symmetric_joint,
    epsilon_feasible,
    expectations_from_joint,
    feasible_oracle,
)

np = pytest.importorskip("numpy")

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


# Sign patterns of the four inequalities applied to (E_A, E_B, E_C, E_ABC),
# stated here apart from lhv._sums, which the tests check against them.
INEQUALITY_SIGNS = ((1, 1, 1, -1), (-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1))
# Moment vectors (E_A, E_B, E_C, E_ABC) of the atoms abc, ab'c, abc', ab'c'.
HADAMARD_ROWS = np.array([(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)])


def cross_polytope_mask(tetrads: np.ndarray) -> np.ndarray:
    """Reference decision sum_i |x . h_i| <= 4, the polytope's other description.

    It rounds differently from the four inequalities, so it can disagree within
    a few ulp of a facet; away from the facets it must agree.
    """
    return np.abs(np.asarray(tetrads, dtype=float) @ HADAMARD_ROWS.T).sum(axis=1) <= 4.0


def facet_adjacent_tetrads(n: int, seed: int) -> list[tuple[float, float, float, float]]:
    """Tetrads within 2 ulp of a facet: E_ABC is solved from one of the eight
    one-sided equalities sigma . x = ±2 and moved by -2..2 ulp."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        e_a, e_b, e_c = rng.uniform(-1.0, 1.0, size=3).tolist()
        signs = INEQUALITY_SIGNS[int(rng.integers(4))]
        bound = 2.0 if rng.integers(2) else -2.0
        e_abc = (bound - signs[0] * e_a - signs[1] * e_b - signs[2] * e_c) / signs[3]
        if not -1.0 <= e_abc <= 1.0:
            continue
        steps = int(rng.integers(-2, 3))
        for _ in range(abs(steps)):
            e_abc = math.nextafter(e_abc, math.copysign(math.inf, steps))
        out.append((e_a, e_b, e_c, min(1.0, max(-1.0, e_abc))))
    return out


def acceptance_tetrads() -> np.ndarray:
    """The 9^4 grid, 10,000 uniform draws and the eroded line eps = k/256."""
    axis = np.linspace(-1.0, 1.0, 9)
    grid = np.array(list(itertools.product(axis, axis, axis, axis)))
    draws = np.random.default_rng(20260825).uniform(-1.0, 1.0, size=(10_000, 4))
    eps = np.arange(257) / 256
    line = np.column_stack([1 - eps, 1 - eps, 1 - eps, eps - 1])
    return np.vstack([grid, draws, line])


def sum_left_to_right(values) -> float:
    """sum() of floats as it was before Python 3.12: added left to right from 0."""
    return functools.reduce(operator.add, values, 0)


def reference_slacks(c: CorrelationSet) -> tuple[float, ...]:
    """The slacks as check_inequalities computed them with a sum() loop."""
    slacks = []
    for row in INEQUALITY_SIGNS:
        v = sum_left_to_right(map(operator.mul, row, c))
        slacks.append(v + 2.0)
        slacks.append(2.0 - v)
    return tuple(slacks)


def reference_witness(c: CorrelationSet) -> tuple[float, ...]:
    """The witness's atoms as _witness computed them with sum() and max()."""
    e_a, e_b, e_c, e_abc = c
    lam = (
        (e_a + e_b + e_c + e_abc) / 4.0,
        (e_a - e_b + e_c - e_abc) / 4.0,
        (e_a + e_b - e_c - e_abc) / 4.0,
        (e_a - e_b - e_c + e_abc) / 4.0,
    )
    share = max(0.0, 1.0 - sum_left_to_right(map(abs, lam))) / 8.0
    probs = [max(v, 0.0) + share for v in lam] + [max(-v, 0.0) + share for v in reversed(lam)]
    total = sum_left_to_right(probs)
    return tuple(p / total for p in probs)


def bits(values) -> list[str]:
    """Exact float bits, so that -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


def witness_moments(witness: JointDistribution8) -> list[float]:
    """(E_A, E_B, E_C, E_ABC) of a witness, summed exactly atom by atom."""
    atoms = [(a, b, c, a * b * c) for a, b, c in lhv.ATOM_SIGNS]
    return [math.fsum(p * atom[k] for p, atom in zip(witness.probs, atoms)) for k in range(4)]


def f_value(c: CorrelationSet) -> float:
    return check_inequalities(c).f_value


class TestMerminF:
    # F = E_A + E_B + E_C - E_ABC, reported by check_inequalities.
    def test_ghz_tetrad(self):
        assert f_value(CorrelationSet(1, 1, 1, -1)) == 4.0

    def test_zero(self):
        assert f_value(CorrelationSet(0, 0, 0, 0)) == 0.0

    def test_eroded(self):
        assert f_value(CorrelationSet(0.7, 0.7, 0.7, -0.7)) == pytest.approx(2.8)

    @given(tetrads, tetrads, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_linearity_under_mixing(self, c1, c2, lam):
        mixed = CorrelationSet(
            *(lam * a + (1 - lam) * b for a, b in zip(c1, c2))
        )
        expected = lam * f_value(c1) + (1 - lam) * f_value(c2)
        assert f_value(mixed) == pytest.approx(expected, abs=1e-12)


class TestCorrelationSet:
    @pytest.mark.parametrize("bad", [1.2, -1.0001, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            CorrelationSet(bad, 0, 0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0)])
    @pytest.mark.parametrize("position", range(4))
    def test_message_names_the_first_bad_field(self, bad, position):
        values = [0.25, -1.0, 1.0, -0.0]
        values[position] = bad
        if position < 3:
            values[3] = 5.0  # a later bad field is not the one named
        name = CorrelationSet._fields[position]
        with pytest.raises(ValueError, match=f"^{name}={bad!r} outside \\[-1, 1\\]$"):
            CorrelationSet(*values)

    def test_accepts_the_closed_cube(self):
        values = (math.nextafter(1.0, 0.0), 1.0, -1.0, -0.0)
        c = CorrelationSet(*values)
        assert bits(c) == bits(values)
        assert type(c) is CorrelationSet


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

    def test_one_decision_with_a_compensated_sum(self, monkeypatch):
        # From Python 3.12 sum() of floats is compensated; math.fsum, correctly
        # rounded, stands in for it here on any Python.  The decision must not
        # depend on it.
        monkeypatch.setattr(lhv, "sum", math.fsum, raising=False)
        tetrads = facet_adjacent_tetrads(20_000, seed=20261019)
        checked = [check_inequalities(CorrelationSet(*t)).feasible for t in tetrads]
        assert 0 < sum(checked) < len(tetrads)
        assert checked == [feasible_oracle(CorrelationSet(*t)) is not None for t in tetrads]
        assert checked == lhv.feasible_mask_oracle(tetrads)
        assert checked == lhv.feasible_mask_inequalities(tetrads)

    def test_same_bits_as_the_sum_loop(self):
        # The written-out sums round as the former sum() loop did on Python
        # 3.11, and the unrolled witness as the former one.
        values = (0.0, -0.0, 0.5, -0.5, 1 / 3, -1 / 3, 1.0, -1.0)
        uniform = np.random.default_rng(20261020).uniform(-1.0, 1.0, size=(20_000, 4)).tolist()
        cases = (list(itertools.product(values, repeat=4))
                 + facet_adjacent_tetrads(20_000, seed=20261021) + uniform)
        feasible = 0
        for t in cases:
            c = CorrelationSet(*t)
            report = check_inequalities(c)
            assert bits(report.slacks) == bits(reference_slacks(c)), t
            if report.feasible:
                feasible += 1
                assert bits(lhv._witness(c).probs) == bits(reference_witness(c)), t
        assert 0 < feasible < len(cases)


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
        reference = cross_polytope_mask(tetrads).tolist()
        assert lhv.feasible_mask_inequalities(tetrads) == reference
        assert lhv.feasible_mask_oracle(tetrads) == reference

    def test_masks_reject_tetrads_outside_the_cube(self):
        # Inside the inequalities but outside [-1, 1]^4: no model has a mean of 1.5.
        tetrads = [(1.5, 0.5, 0.0, 0.0), (0.0, -1.25, 0.0, 0.75), (math.nan, 0.0, 0.0, 0.0),
                   (1.0, 0.0, 0.0, 0.0)]
        assert cross_polytope_mask(tetrads).tolist() == [False, False, False, True]
        assert lhv.feasible_mask_oracle(tetrads) == [False, False, False, True]
        assert lhv.feasible_mask_inequalities(tetrads) == [False, False, False, True]

    def test_masks_are_the_scalar_decision_next_to_a_facet(self):
        tetrads = facet_adjacent_tetrads(20_000, seed=20261018)
        decided = [feasible_oracle(CorrelationSet(*t)) is not None for t in tetrads]
        assert 0 < sum(decided) < len(tetrads)
        assert decided == [check_inequalities(CorrelationSet(*t)).feasible for t in tetrads]
        for mask in (lhv.feasible_mask_oracle(tetrads), lhv.feasible_mask_inequalities(tetrads)):
            assert sum(bool(got) != want for got, want in zip(mask, decided)) == 0
            assert type(mask) is list

    def test_witness_reproduces_the_query(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            c = CorrelationSet(*rng.uniform(-1.0, 1.0, size=4))
            witness = feasible_oracle(c)
            if witness is None:
                continue
            back = expectations_from_joint(witness)
            for got, want in zip(back, c):
                assert got == pytest.approx(want, abs=1e-9)
            checked += 1

    @given(tetrads)
    @settings(max_examples=300)
    def test_equivalence_property(self, c):
        witness = feasible_oracle(c)
        assert check_inequalities(c).feasible == (witness is not None)
        if witness is not None:
            assert witness_moments(witness) == pytest.approx(tuple(c), abs=1e-12)

    def test_acceptance_set_against_the_enumeration(self):
        tetrads = acceptance_tetrads()
        reference = enumeration_mask(tetrads)
        decided = np.array([check_inequalities(CorrelationSet(*t)).feasible for t in tetrads])
        for mask in (decided, lhv.feasible_mask_oracle(tetrads),
                     lhv.feasible_mask_inequalities(tetrads)):
            assert int(np.sum(np.array(mask) != reference)) == 0
        for t in tetrads[reference]:
            witness = feasible_oracle(CorrelationSet(*t))
            assert abs(sum(witness.probs) - 1.0) <= lhv.SIMPLEX_TOL
            assert np.max(np.abs(np.array(witness_moments(witness)) - t)) <= 1e-12


class TestSymmetricConstruction:
    def test_lower_boundary(self):
        # 3p = q: atoms concentrate on the double-bar atoms and a'b'c'.
        j = construct_symmetric_joint(0.2, 0.6)
        x, y, z, w = j.probs[1], j.probs[3], j.probs[0], j.probs[7]
        assert (x, y, z, w) == pytest.approx((0.0, 0.2, 0.0, 0.4), abs=1e-12)

    def test_upper_boundary(self):
        # 3p = q + 2: atoms concentrate on the single-bar atoms and abc.
        j = construct_symmetric_joint(0.8, 0.4)
        x, y, z, w = j.probs[1], j.probs[3], j.probs[0], j.probs[7]
        assert (x, y, z, w) == pytest.approx((0.2, 0.0, 0.4, 0.0), abs=1e-12)

    def test_interior_point(self):
        j = construct_symmetric_joint(0.5, 0.5)
        x, y, z, w = j.probs[1], j.probs[3], j.probs[0], j.probs[7]
        assert (x, y, z, w) == pytest.approx((1 / 12, 1 / 12, 0.25, 0.25), abs=1e-12)
        back = expectations_from_joint(j)
        assert tuple(back) == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("p,q,fragment", [
        (0.0, 1.0, "below"), (1.0, 0.0, "above"),
        (math.nan, 0.5, "p=nan outside [0, 1]"), (-0.1, 0.2, "p=-0.1 outside [0, 1]"),
        (0.5, 1.5, "q=1.5 outside [0, 1]"), (0.5, math.inf, "q=inf outside [0, 1]"),
    ])
    def test_out_of_band_rejected_with_side(self, p, q, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            construct_symmetric_joint(p, q)

    def test_round_trip_on_grid(self):
        for p in np.linspace(0.0, 1.0, 21):
            for q in np.linspace(0.0, 1.0, 21):
                if not 0.0 <= 3 * p - q <= 2.0:
                    continue
                j = construct_symmetric_joint(float(p), float(q))
                assert sum(j.probs) == pytest.approx(1.0, abs=1e-12)
                back = expectations_from_joint(j)
                e = 2 * p - 1
                assert tuple(back) == pytest.approx(
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
        assert tuple(expectations_from_joint(j)) == (1, 1, 1, 1)

    def test_uniform(self):
        j = JointDistribution8((0.125,) * 8)
        assert tuple(expectations_from_joint(j)) == pytest.approx((0, 0, 0, 0))

    def test_exact_zero_at_the_symmetric_centre(self):
        # p = q = 1/2 puts 1/4 on abc and a'b'c' and 1/12 on the other six;
        # each signed sum is rounded once, so the zero means come out exactly.
        j = construct_symmetric_joint(0.5, 0.5)
        assert tuple(expectations_from_joint(j)) == (0.0, 0.0, 0.0, 0.0)

    def test_rejects_bad_distributions(self):
        with pytest.raises(ValueError):
            JointDistribution8((0.5, 0.5, 0.5, -0.5, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            JointDistribution8((0.125,) * 7)

    @pytest.mark.parametrize("position", [0, 2, 7])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_atoms(self, position, bad):
        probs = [0.5, 0.5, 0, 0, 0, 0, 0, 0]
        probs[position] = bad
        with pytest.raises(ValueError):
            JointDistribution8(tuple(probs))


class TestEpsilonThreshold:
    @pytest.mark.parametrize(
        "eps,expected", [(0.0, False), (0.4, False), (math.nextafter(0.5, 0.0), False),
                         (0.5, True), (0.501, True), (1.0, True)]
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
