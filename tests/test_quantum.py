import itertools
import json
import subprocess
import sys

import pytest

from ghzdet import lhv, quantum
from ghzdet.quantum import (
    WITNESS_SETTINGS,
    ghz_state,
    ghz_witness,
    operator_expectation,
    outcome_probabilities,
    sample_many,
)

np = pytest.importorskip("numpy")

# --- reference: the state and analyzers as explicit 8x8 Kronecker products ---
#
# An independent derivation of the closed form in ghzdet.quantum, sharing
# only its outcome order: the state vector, the analyzer matrices (particle 3's X
# carries swapped labels, -sigma_x) and their eigenvectors, with visibility v
# as the mixed state v rho + (1 - v) I/8, and for v < 0 Z on particle 1,
# |v| Z1 rho Z1 + (1 - |v|) I/8.

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

ALL_SETTINGS = ["".join(axes) for axes in itertools.product("XY", repeat=3)]
VISIBILITIES = [-1.0, -0.5, 0.0, 0.5, 1.0]


def reference_state() -> np.ndarray:
    """Amplitudes 1/sqrt(2) on |++-> (index 1) and |--+> (index 6)."""
    psi = np.zeros(8, dtype=complex)
    psi[0b001] = psi[0b110] = 1.0 / np.sqrt(2.0)
    return psi


def reference_rho(v: float) -> np.ndarray:
    psi = reference_state()
    rho = np.outer(psi, psi.conj())
    if v < 0.0:
        z1 = np.kron(SIGMA_Z, np.eye(4))
        rho = z1 @ rho @ z1
    return abs(v) * rho + (1.0 - abs(v)) * np.eye(8) / 8.0


def analyzer_matrix(particle: int, axis: str) -> np.ndarray:
    if axis == "Y":
        return SIGMA_Y
    return -SIGMA_X if particle == 3 else SIGMA_X


def eigenvector(particle: int, axis: str, sign: int) -> np.ndarray:
    """Eigenvector of analyzer_matrix(particle, axis) with eigenvalue `sign`."""
    s = 1.0 / np.sqrt(2.0)
    if axis == "Y":
        return np.array([s, sign * 1.0j * s])
    if particle == 3:
        sign = -sign
    return np.array([s, sign * s])


def reference_operator(setting: str) -> np.ndarray:
    op = np.array([[1.0 + 0.0j]])
    for particle, axis in enumerate(setting, start=1):
        op = np.kron(op, analyzer_matrix(particle, axis))
    return op


def reference_expectation(v: float, setting: str) -> float:
    value = np.trace(reference_rho(v) @ reference_operator(setting))
    assert abs(value.imag) < 1e-15
    return float(value.real)


def reference_probabilities(v: float, setting: str) -> np.ndarray:
    rho = reference_rho(v)
    probs = []
    for signs in quantum.OUTCOME_SIGNS:
        basis = np.array([1.0 + 0.0j])
        for particle, (axis, sign) in enumerate(zip(setting, signs), start=1):
            basis = np.kron(basis, eigenvector(particle, axis, sign))
        probs.append(np.vdot(basis, rho @ basis).real)
    return np.array(probs)


class TestState:
    def test_norm(self):
        assert np.vdot(reference_state(), reference_state()).real == pytest.approx(1.0, abs=1e-15)
        for v in VISIBILITIES:
            rho = reference_rho(v)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.eigvalsh(rho).min() >= -1e-15

    def test_amplitudes(self):
        a = reference_state()
        assert a[0b001] == pytest.approx(1 / np.sqrt(2))
        assert a[0b110] == pytest.approx(1 / np.sqrt(2))
        assert a[0b000] == 0.0
        assert np.count_nonzero(a) == 2

    def test_eigenstate_of_the_witness_operators(self):
        psi = reference_state()
        for setting, value in zip(WITNESS_SETTINGS, (1, 1, 1, -1)):
            assert np.allclose(reference_operator(setting) @ psi, value * psi, atol=1e-15)

    @pytest.mark.parametrize("v", [1.0 + 1e-12, -1.5, float("nan"), float("inf")])
    def test_rejects_visibility_outside_range(self, v):
        with pytest.raises(ValueError, match="visibility"):
            ghz_state(v)


class TestAgainstTheReference:
    @pytest.mark.parametrize("v", VISIBILITIES)
    @pytest.mark.parametrize("setting", ALL_SETTINGS)
    def test_expectation(self, setting, v):
        got = operator_expectation(ghz_state(v), setting)
        assert abs(got - reference_expectation(v, setting)) <= 1e-15

    @pytest.mark.parametrize("v", VISIBILITIES)
    @pytest.mark.parametrize("setting", ALL_SETTINGS)
    def test_born_table(self, setting, v):
        got = np.array(outcome_probabilities(ghz_state(v), setting))
        assert np.max(np.abs(got - reference_probabilities(v, setting))) <= 1e-15


class TestExpectations:
    @pytest.mark.parametrize(
        "setting,value", [("XYY", 1.0), ("YXY", 1.0), ("YYX", 1.0), ("XXX", -1.0)]
    )
    def test_eigenstate_settings(self, setting, value):
        assert operator_expectation(ghz_state(), setting) == value

    @pytest.mark.parametrize("setting", ["YYY", "XXY", "XYX", "YXX"])
    def test_other_settings_bounded(self, setting):
        got = operator_expectation(ghz_state(), setting)
        assert -1.0 <= got <= 1.0

    def test_scales_with_visibility(self):
        for v in VISIBILITIES:
            assert operator_expectation(ghz_state(v), "XXX") == -v
            assert operator_expectation(ghz_state(v), "XYY") == v

    def test_rejects_bad_setting(self):
        with pytest.raises(ValueError):
            operator_expectation(ghz_state(), "XZZ")


class TestWitness:
    def test_values(self):
        assert tuple(ghz_witness()) == (1.0, 1.0, 1.0, -1.0)

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
        probs = np.array(outcome_probabilities(ghz_state(), setting))
        assert np.all(probs >= 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "setting,product", [("XXX", -1), ("XYY", 1), ("YXY", 1), ("YYX", 1)]
    )
    def test_support_respects_the_product(self, setting, product):
        probs = np.array(outcome_probabilities(ghz_state(), setting))
        products = np.array(quantum.OUTCOME_PRODUCTS)
        assert np.all(probs[products != product] == 0.0)

    def test_products_match_signs(self):
        for signs, product in zip(quantum.OUTCOME_SIGNS, quantum.OUTCOME_PRODUCTS):
            assert product == signs[0] * signs[1] * signs[2]


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

    @pytest.mark.parametrize("v", [1.0, -1.0, 0.0, 0.5, -0.3, 0.7071, 0.123456789])
    def test_draws_match_the_inverse_cdf_reference(self, v):
        # The inverse CDF, written out: the cumulative Born table searched
        # with one uniform draw each, clamped at the u == 1.0 edge.
        signs = np.array(quantum.OUTCOME_SIGNS, dtype=np.int64)
        state = ghz_state(v)
        for setting in ALL_SETTINGS:
            cdf = np.cumsum(outcome_probabilities(state, setting))
            for seed in range(5):
                for n in (0, 1, 100, 100_003):
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = sample_many(state, setting, n, rng)
                    idx = np.searchsorted(cdf, ref_rng.random(n), side="right")
                    want = signs[np.minimum(idx, 7)]
                    assert (got.shape, got.dtype) == (want.shape, want.dtype) == ((n, 3), np.int64)
                    assert np.array_equal(got, want)
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
            with pytest.raises(ValueError):
                sample_many(state, setting, -1, np.random.default_rng(0))

    def test_draws_where_numpy_cannot_be_imported(self):
        # The generator is made first; a None entry in sys.modules then makes
        # every `import numpy` raise ImportError.  .tolist(), because printing
        # an array or its dtype imports numpy again.
        script = ("import sys\nimport numpy as np\nrng = np.random.default_rng(1)\n"
                  "sys.modules['numpy'] = None\nfrom ghzdet.quantum import ghz_state, sample_many\n"
                  "print(sample_many(ghz_state(), 'XYY', 10, rng).tolist())")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        triples = json.loads(proc.stdout)
        assert len(triples) == 10
        assert all(s1 * s2 * s3 == 1 for s1, s2, s3 in triples)
