"""Tests for the benchmark's output checks.

    python3 -m unittest discover -s bench -p "test_*.py"

Each checker accepts a correct answer and rejects a deliberately wrong one.
"""

import itertools
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402


def hadamard_witness(tetrad):
    """P(+h_i) = max(l_i, 0) + s/8, P(-h_i) = max(-l_i, 0) + s/8."""
    lam = [sum(x * h for x, h in zip(tetrad, row)) / 4 for row in checks.HADAMARD_ROWS]
    s = 1 - sum(abs(v) for v in lam)
    # checks.ATOMS lists +h_1..+h_4, then a'bc = -h_4, a'b'c = -h_3, a'bc' = -h_2, a'b'c' = -h_1.
    plus = [max(v, 0) + s / 8 for v in lam]
    minus = [max(-v, 0) + s / 8 for v in lam]
    return plus + minus[::-1]


def check_payload(tetrad):
    f = tetrad[0] + tetrad[1] + tetrad[2] - tetrad[3]
    values = [f, -tetrad[0] + tetrad[1] + tetrad[2] + tetrad[3],
              tetrad[0] - tetrad[1] + tetrad[2] + tetrad[3],
              tetrad[0] + tetrad[1] - tetrad[2] + tetrad[3]]
    slacks = [s for v in values for s in (v + 2, 2 - v)]
    feasible = min(slacks) >= 0
    return feasible, {"feasible": feasible, "f_value": f, "slacks": slacks,
                      "witness": hadamard_witness(tetrad) if feasible else None}


class TestLhv(unittest.TestCase):
    GRID = list(itertools.product([k / 4 - 1 for k in range(9)], repeat=4))

    def test_hadamard_test_matches_the_four_inequalities(self):
        for t in self.GRID:
            self.assertEqual(checks.lhv_feasible(t), check_payload(t)[0], t)

    def test_paper_cases(self):
        self.assertFalse(checks.lhv_feasible((1, 1, 1, -1)))
        self.assertTrue(checks.lhv_feasible((0.5, 0.5, 0.5, -0.5)))
        self.assertFalse(checks.lhv_feasible((0.92, 0.92, 0.92, -0.92)))

    def test_check_accepts_correct_answers(self):
        for t in ((1, 1, 1, -1), (0.5, 0.5, 0.5, -0.5), (0.25, -0.5, 1, 0)):
            feasible, payload = check_payload(t)
            self.assertEqual(checks.check_check(t, 0 if feasible else 1, payload), [])

    def test_check_rejects_a_flipped_decision(self):
        t = (0.5, 0.5, 0.5, -0.5)
        _, payload = check_payload(t)
        payload.update(feasible=False, witness=None)
        fields = {f for f, _ in checks.check_check(t, 1, payload)}
        self.assertLessEqual({"feasible", "exit_code", "witness"}, fields)

    def test_check_rejects_a_wrong_witness(self):
        t = (0.25, -0.5, 1, 0)
        _, payload = check_payload(t)
        w = payload["witness"]
        w[0], w[1] = w[1], w[0]
        if w[0] == w[1]:
            w[0], w[7] = w[7], w[0]
        self.assertEqual([f for f, _ in checks.check_check(t, 0, payload)], ["witness"])

    def test_batch(self):
        tetrads = self.GRID[:200]
        expected = "".join("1" if checks.lhv_feasible(t) else "0" for t in tetrads)
        payload = {"decisions": [[c == "1", hadamard_witness(t) if c == "1" else None]
                                 for t, c in zip(tetrads, expected)],
                   "mask_oracle": expected, "mask_inequalities": expected}
        self.assertEqual(checks.check_lhv_batch(tetrads, payload), [])
        flipped = expected[:-1] + ("0" if expected[-1] == "1" else "1")
        self.assertEqual(checks.check_lhv_batch(tetrads, dict(payload, mask_oracle=flipped)),
                         [("mask_oracle", "batch decision differs from the Hadamard test")])
        k = expected.index("1")
        payload["decisions"][k] = [False, None]
        self.assertEqual([f for f, _ in checks.check_lhv_batch(tetrads, payload)], ["feasible"])


class TestCorrelationAndSweep(unittest.TestCase):
    def test_correlation(self):
        e = 1 / (1 + 6 * 1e10 * 6e-7**2 / 0.25)
        self.assertAlmostEqual(e, 0.9205, places=4)
        sigma = math.sqrt(1 - e * e)
        payload = {"e": e, "sigma": sigma, "separation": (e - 0.5) / sigma}
        self.assertEqual(checks.check_correlation(e, 0, payload), [])
        payload["e"] = e + 1e-9
        self.assertEqual([f for f, _ in checks.check_correlation(e, 0, payload)], ["e"])

    SPEC = dict(gamma_min=1e-8, gamma_max=1e-5, gamma_steps=5, d_min=0.3, d_max=0.9,
                d_steps=4, ratio=1e10, mode="approx", contour=0.92)

    def sweep_text(self, spec, e_shift=0.0, contour_shift=0.0):
        lines = ["gamma,d,E,sigma,separation"]
        ds = [0.3 + 0.2 * j for j in range(4)]
        for i in range(5):
            gamma = 1e-8 * 1000 ** (i / 4)
            for d in ds:
                if spec["mode"] == "approx":
                    e = 1 / (1 + 6e10 * gamma**2 / d**2)
                else:
                    e = checks.fourfold_model(d, gamma, 1e10 / (1 + 1e10), 1 / (1 + 1e10))[1]
                e += e_shift if (i, d) == (2, ds[1]) else 0.0
                sigma = math.sqrt(1 - e * e)
                sep = (e - 0.5) / sigma if e > 0.5 else math.nan
                lines.append(f"{gamma:.12g},{d:.12g},{e:.12g},{sigma:.12g},{sep:.12g}")
        if spec["contour"] is not None:
            lines += [f"# contour E={spec['contour']:.12g}", "d,gamma"]
            for d in ds:
                g = d * math.sqrt((1 / spec["contour"] - 1) / 6e10) + contour_shift
                lines.append(f"{d:.12g},{g:.12g}")
        return "\n".join(lines) + "\n"

    def test_sweep_accepts_correct_rows(self):
        self.assertEqual(checks.check_sweep(self.SPEC, 0, self.sweep_text(self.SPEC)), [])
        exact = dict(self.SPEC, mode="exact", contour=None)
        self.assertEqual(checks.check_sweep(exact, 0, self.sweep_text(exact)), [])

    def test_sweep_rejects_a_perturbed_e_row(self):
        problems = checks.check_sweep(self.SPEC, 0, self.sweep_text(self.SPEC, e_shift=1e-6))
        self.assertEqual([f for f, _ in problems], ["row"])

    def test_sweep_rejects_an_off_level_contour_row(self):
        problems = checks.check_sweep(self.SPEC, 0, self.sweep_text(self.SPEC, contour_shift=1e-10))
        self.assertEqual([f for f, _ in problems], ["contour"])
        # The bisection's own tolerance, 1e-12 in gamma, is accepted.
        self.assertEqual(checks.check_sweep(self.SPEC, 0, self.sweep_text(
            self.SPEC, contour_shift=5e-13)), [])


def additive_model(d, gamma, p_pair):
    """The pair aggregate as a sum over the ten channels, not their union."""
    f0, f1, f2 = gamma, d + (1 - d) * gamma, d * (1 - d) + (1 - d) ** 2 * gamma
    p_two = 1 - p_pair
    p4 = p_pair * (6 * f1**2 * f0**2 + 4 * f2 * f0**3) + p_two * f1**4
    return p4, p_two * d**3 * f1 / p4


class TestMonteCarlo(unittest.TestCase):
    def payload(self, cfg, p4, e, flagged=False):
        n = cfg["trials"]
        n4 = round(n * p4)
        return {"n_trials": n, "n_fourfold": n4, "p4_hat": n4 / n, "e_hat": e,
                "analytic_p4": p4, "analytic_e": e, "flagged": flagged}

    def test_model_is_a_probability(self):
        for d, gamma, p in itertools.product((0, 0.3, 1), (0, 0.2, 1), (0, 0.5, 1)):
            p4, _ = checks.fourfold_model(d, gamma, p, 1 - p)
            self.assertTrue(0 <= p4 <= 1, (d, gamma, p, p4))
        self.assertEqual(checks.fourfold_model(0.0, 1.0, 0.99, 0.01)[0], 1.0)

    def test_model_in_the_rare_regime_matches_the_sum(self):
        p4, e = checks.fourfold_model(0.5, 1e-2, 0.99, 0.01)
        p4_sum, e_sum = additive_model(0.5, 1e-2, 0.99)
        self.assertAlmostEqual(p4 / p4_sum, 1, delta=1e-4)
        self.assertAlmostEqual(e / e_sum, 1, delta=1e-4)

    def test_simulate_accepts_the_model(self):
        cfg = dict(d=0.9, gamma=0.2, pair=0.5, trials=8_000_000)
        p4, e = checks.fourfold_model(0.9, 0.2, 0.5, 0.5)
        self.assertEqual(checks.check_simulate(cfg, 0, self.payload(cfg, p4, e)), [])

    def test_simulate_rejects_the_additive_aggregate_at_a_dense_point(self):
        cfg = dict(d=0.9, gamma=0.2, pair=0.5, trials=8_000_000)
        p4, e = checks.fourfold_model(0.9, 0.2, 0.5, 0.5)
        payload = self.payload(cfg, p4, e)
        payload["analytic_p4"], payload["analytic_e"] = additive_model(0.9, 0.2, 0.5)
        problems = checks.check_simulate(cfg, 0, payload)
        self.assertEqual([f for f, _ in problems], ["analytic_p4", "analytic_e"])
        correct, failed = run.classify([(True, problems)])
        self.assertEqual((correct, failed), (True, 1))

    def test_simulate_rejects_a_flag_and_an_off_sample(self):
        cfg = dict(d=0.5, gamma=1e-2, pair=0.99, trials=30_000_000)
        p4, e = checks.fourfold_model(0.5, 1e-2, 0.99, 0.01)
        payload = self.payload(cfg, p4, e, flagged=True)
        self.assertEqual([f for f, _ in checks.check_simulate(cfg, 0, payload)], ["flagged"])
        payload = dict(self.payload(cfg, p4 * 1.05, e), analytic_p4=p4)
        problems = checks.check_simulate(cfg, 0, payload)
        self.assertEqual([f for f, _ in problems], ["p4_hat"])
        self.assertEqual(run.classify([(False, problems)]), (False, 1))
        self.assertEqual(run.classify([(True, problems)]), (False, 1))

    def test_events(self):
        log = "\n".join(["pair,TD1,1100,0000,-,", "twopair,TD1D2D3,1111,0000,ghz,+1",
                         "pair,D1D2,1111,1001,-,-1", "twopair,TD1D2D3,1111,1000,ghz,-1"])
        payload = {"n_fourfold": 3, "n_ghz_fourfold": 2}
        self.assertEqual(checks.check_events(0, payload, log), [])
        fourfolds_only = "# creation,arrival,fired,dark,ghz,product\n" + "\n".join(log.split("\n")[1:])
        self.assertEqual(checks.check_events(0, payload, fourfolds_only), [])
        self.assertEqual([f for f, _ in checks.check_events(0, dict(payload, n_fourfold=4), log)],
                         ["n_fourfold"])
        self.assertEqual([f for f, _ in checks.check_events(0, dict(payload, n_ghz_fourfold=1), log)],
                         ["n_ghz_fourfold"])


if __name__ == "__main__":
    unittest.main()
