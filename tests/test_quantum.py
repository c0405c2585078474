import numpy as np
import pytest

from ghzdet import lhv, quantum
from ghzdet.quantum import (
    WITNESS_SETTINGS,
    StateVector8,
    ghz_state,
    ghz_witness,
    operator_expectation,
    outcome_probabilities,
    sample_many,
)


class TestState:
    def test_norm(self):
        assert ghz_state().norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes(self):
        a = ghz_state().as_array()
        assert a[0b001] == pytest.approx(1 / np.sqrt(2))
        assert a[0b110] == pytest.approx(1 / np.sqrt(2))
        assert a[0b000] == 0.0
        assert np.count_nonzero(a) == 2


class TestExpectations:
    @pytest.mark.parametrize(
        "setting,value", [("XYY", 1.0), ("YXY", 1.0), ("YYX", 1.0), ("XXX", -1.0)]
    )
    def test_eigenstate_settings(self, setting, value):
        got = operator_expectation(ghz_state(), setting)
        assert abs(abs(got) - 1.0) < 1e-12
        assert got == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("setting", ["YYY", "XXY", "XYX", "YXX"])
    def test_other_settings_bounded(self, setting):
        got = operator_expectation(ghz_state(), setting)
        assert -1.0 <= got <= 1.0

    def test_rejects_unnormalized_state(self):
        state = StateVector8((1.0,) * 8)
        with pytest.raises(ValueError, match="normalized"):
            operator_expectation(state, "XXX")

    def test_rejects_bad_setting(self):
        with pytest.raises(ValueError):
            operator_expectation(ghz_state(), "XZZ")


class TestWitness:
    def test_values(self):
        w = ghz_witness()
        assert w.as_tuple() == pytest.approx((1, 1, 1, -1), abs=1e-12)

    def test_product_rule(self):
        # The product setting's expectation is the negative of the three
        # two-Y settings' common value, as the operator identity demands.
        state = ghz_state()
        assert operator_expectation(state, "XXX") == pytest.approx(
            -operator_expectation(state, "XYY"), abs=1e-12
        )

    def test_witness_is_lhv_infeasible(self):
        assert not lhv.check_inequalities(ghz_witness()).feasible
        assert lhv.feasible_oracle(ghz_witness()) is None


class TestBornProbabilities:
    @pytest.mark.parametrize("setting", ["XXX", "XYY", "YXY", "YYX", "YYY", "XXY"])
    def test_valid_distribution(self, setting):
        probs = outcome_probabilities(ghz_state(), setting)
        assert np.all(probs >= 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "setting,product", [("XXX", -1), ("XYY", 1), ("YXY", 1), ("YYX", 1)]
    )
    def test_support_respects_the_product(self, setting, product):
        probs = outcome_probabilities(ghz_state(), setting)
        products = quantum.OUTCOME_SIGNS.prod(axis=1)
        assert np.all(probs[products != product] == pytest.approx(0.0, abs=1e-12))


class TestSampling:
    def test_product_constraint_xxx(self):
        rng = np.random.default_rng(11)
        signs = sample_many(ghz_state(), "XXX", 10_000, rng)
        assert np.all(signs.prod(axis=1) == -1)

    def test_product_constraint_xyy(self):
        rng = np.random.default_rng(12)
        signs = sample_many(ghz_state(), "XYY", 10_000, rng)
        assert np.all(signs.prod(axis=1) == 1)

    def test_single_particle_marginal_unbiased(self):
        n = 100_000
        rng = np.random.default_rng(13)
        signs = sample_many(ghz_state(), "XYY", n, rng)
        assert abs(signs[:, 0].mean()) < 3 / np.sqrt(n)

    @pytest.mark.parametrize("setting", WITNESS_SETTINGS)
    def test_empirical_mean_matches_expectation(self, setting):
        n = 1_000_000
        rng = np.random.default_rng(17)
        signs = sample_many(ghz_state(), setting, n, rng)
        want = operator_expectation(ghz_state(), setting)
        assert abs(signs.prod(axis=1).mean() - want) <= 4 / np.sqrt(n)

    def test_deterministic_given_seed(self):
        a = sample_many(ghz_state(), "YYY", 100, np.random.default_rng(5))
        b = sample_many(ghz_state(), "YYY", 100, np.random.default_rng(5))
        assert np.array_equal(a, b)
