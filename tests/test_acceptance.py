"""End-to-end acceptance checks for the full package.

Each test prints a single PASS line on success so the suite doubles as an
acceptance report when run with pytest -s or -v.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import pytest

from ghzdet import detector as det
from ghzdet import lhv, montecarlo, quantum
from ghzdet.detector import DetectorParams
from ghzdet.lhv import CorrelationSet


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_acceptance_01_ghz_contradiction():
    start = time.perf_counter()
    witness = quantum.ghz_witness()
    for got, want in zip(witness, (1.0, 1.0, 1.0, -1.0)):
        assert abs(got - want) <= 1e-12
    check = lhv.check_inequalities(witness)
    assert not check.feasible
    assert check.f_value == pytest.approx(4.0, abs=1e-12)
    assert lhv.feasible_oracle(witness) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"witness (1,1,1,-1) exact to 1e-12, infeasible with F=4 ({elapsed:.3f}s)")


def test_acceptance_02_oracle_equivalence():
    np = pytest.importorskip("numpy")
    start = time.perf_counter()
    axis = np.linspace(-1.0, 1.0, 9)
    grid = np.array(list(itertools.product(axis, axis, axis, axis)))
    rng = np.random.default_rng(20260825)
    randoms = rng.uniform(-1.0, 1.0, size=(10_000, 4))
    tetrads = np.vstack([grid, randoms])
    # The cross-polytope description sum_i |x . h_i| <= 4 as the reference.
    hadamard = np.array([(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)])
    reference = np.abs(tetrads @ hadamard.T).sum(axis=1) <= 4.0
    by_ineq = lhv.feasible_mask_inequalities(tetrads)
    by_oracle = lhv.feasible_mask_oracle(tetrads)
    disagreements = sum(int(np.sum(np.array(m) != reference)) for m in (by_ineq, by_oracle))
    assert disagreements == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"inequality and oracle masks agree with the cross-polytope test on all "
              f"{len(tetrads)} tetrads, 0 disagreements ({elapsed:.1f}s)")


def test_acceptance_03_symmetric_construction():
    np = pytest.importorskip("numpy")
    checked = 0
    for p in np.linspace(0.0, 1.0, 101):
        for q in np.linspace(0.0, 1.0, 101):
            if not -1e-12 <= 3 * p - q <= 2.0 + 1e-12:
                continue
            # clamp away float dust at the band edges of the linspace grid
            q = float(min(max(q, 3 * p - 2), 3 * p, 1.0))
            joint = lhv.construct_symmetric_joint(float(p), q)
            assert all(v >= -1e-15 for v in joint.probs)
            assert sum(joint.probs) == pytest.approx(1.0, abs=1e-12)
            back = lhv.expectations_from_joint(joint)
            e_single, e_product = 2 * p - 1, 2 * q - 1
            assert tuple(back) == pytest.approx(
                (e_single, e_single, e_single, e_product), abs=1e-12
            )
            checked += 1
    assert checked > 3000
    report(3, f"symmetric joints on {checked} grid points reproduce "
              "(2p-1, 2q-1) marginals to 1e-12")


def test_acceptance_04_epsilon_threshold():
    assert lhv.epsilon_feasible(0.499) is False
    assert lhv.epsilon_feasible(0.5) is True
    assert lhv.epsilon_feasible(0.501) is True
    for eps in (0.499, 0.5, 0.501):
        c = CorrelationSet(1 - eps, 1 - eps, 1 - eps, -1 + eps)
        assert lhv.epsilon_feasible(eps) == (lhv.feasible_oracle(c) is not None)
    report(4, "feasibility flips exactly at eps=1/2 and agrees with the oracle")


def test_acceptance_05_reported_numerics():
    start = time.perf_counter()
    gamma = det.gamma_from_rates(300, 2e-9)
    assert gamma == pytest.approx(6e-7)
    e = det.corrected_correlation(DetectorParams.from_ratio(0.5, gamma, 1e10), "approx")
    assert e == pytest.approx(0.9205, abs=5e-4)
    assert round(e, 1) == 0.9
    e_ratio = det.correlation_from_ratio(1 / 12)
    assert e_ratio == pytest.approx(0.9231, abs=1e-4)
    assert round(e_ratio, 2) == 0.92
    sigma = det.sigma_of_correlation(0.92)
    assert sigma == pytest.approx(0.392, abs=1e-3)
    sep = det.sigma_separation(0.92)
    assert sep > 1.0
    assert sep == pytest.approx(1.07, abs=0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, f"E={e:.4f}, ratio-form E={e_ratio:.4f}, sigma={sigma:.3f}, "
              f"separation={sep:.3f} ({elapsed:.3f}s)")


def test_acceptance_06_corrected_correlation_still_infeasible():
    e = 0.92
    assert e > 1 - 0.5
    tetrad = CorrelationSet(e, e, e, -e)
    assert not lhv.check_inequalities(tetrad).feasible
    assert lhv.feasible_oracle(tetrad) is None
    report(6, "E=0.92 exceeds the 1/2 bound and (0.92, 0.92, 0.92, -0.92) "
              "remains infeasible")


def test_acceptance_07_reduced_dark_rate():
    gamma = det.gamma_from_rates(50, 2e-9)
    assert gamma == pytest.approx(1e-7)
    e = det.corrected_correlation(DetectorParams.from_ratio(0.5, gamma, 1e10), "approx")
    assert e == pytest.approx(0.9976, rel=0.05)
    sep = det.sigma_separation(e)
    assert sep == pytest.approx(7.2, rel=0.05)
    report(7, f"50 counts/s gives gamma=1e-7, E={e:.4f}, separation={sep:.2f}")


def test_acceptance_08_monte_carlo_statistical_contract():
    start = time.perf_counter()
    params = DetectorParams(0.5, 1e-2, 0.99, 0.01)
    analytic_e = det.corrected_correlation(params, mode="exact")
    p4 = det.fourfold_probability(params)
    n = 10_000_000
    passes = 0
    for seed in (1, 2, 3, 4, 5):
        cfg = montecarlo.RunConfig(params=params, setting="XYY", n_trials=n, master_seed=seed)
        stats = montecarlo.run(cfg)
        se_p4 = math.sqrt(p4 * (1 - p4) / n)
        ok_e = abs(stats.e_hat - analytic_e) <= 3 * stats.std_err
        ok_p4 = abs(stats.p4_hat - p4) / se_p4 <= 4
        if ok_e and ok_p4:
            passes += 1
    elapsed = time.perf_counter() - start
    assert passes >= 4
    assert elapsed < 120.0
    report(8, f"{passes}/5 seeds within 3 std_err of analytic E and z<=4 on the "
              f"fourfold rate ({elapsed:.1f}s)")


def test_acceptance_09_simulation_determinism():
    base = [
        sys.executable, "-m", "ghzdet.cli", "simulate",
        "--d", "0.5", "--gamma", "1e-2", "--pair", "0.99",
        "--setting", "XYY", "--trials", "400000", "--seed", "99",
        "--json",
    ]
    outputs = []
    for workers in ("1", "1", "4"):
        proc = subprocess.run(base + ["--workers", workers], capture_output=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
    payload = json.loads(outputs[0])
    assert payload["n_trials"] == 400000
    report(9, "simulate JSON byte-identical across repeated runs and worker "
              "counts 1 and 4")


def test_acceptance_10_contour_inversion():
    gamma = det.find_gamma_for_correlation(0.5, 1e10, 0.92)
    assert 5.9e-7 <= gamma <= 6.1e-7
    e_back = det.corrected_correlation(DetectorParams.from_ratio(0.5, gamma, 1e10), "approx")
    # gamma comes from the closed-form inversion, so E lands on the level
    # to rounding
    assert e_back == pytest.approx(0.92, abs=1e-7)
    report(10, f"gamma({0.92}) = {gamma:.4e} inside [5.9e-7, 6.1e-7]")
