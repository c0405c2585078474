import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzdet import detector as det
from ghzdet import montecarlo as mc
from ghzdet.detector import DetectorParams
from ghzdet.montecarlo import RunConfig, compare_analytic, run
from references import fire_reference

np = pytest.importorskip("numpy")

SCALED = DetectorParams(0.5, 1e-2, 0.99, 0.01)


def scaled_config(**overrides):
    kwargs = dict(params=SCALED, setting="XYY", n_trials=1_000_000, master_seed=42)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            scaled_config(n_trials=0)
        with pytest.raises(ValueError):
            scaled_config(master_seed=-1)
        with pytest.raises(ValueError):
            scaled_config(setting="XZZ")
        with pytest.raises(ValueError):
            scaled_config(n_workers=0)

    @pytest.mark.parametrize("field, value", [
        ("n_trials", 1000.5), ("n_trials", 1e6), ("n_trials", True),
        ("master_seed", 1.5), ("master_seed", 3.0), ("master_seed", True), ("master_seed", "7"),
    ])
    def test_rejects_non_integer_counts_and_seeds(self, field, value):
        # A float count once ran and was reported back as a float, and a float
        # seed would be seeded from its text.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            scaled_config(**{field: value})

    def test_n_trials_fits_the_binomial_sampler(self):
        # The sampler takes counts below 2**63, as numpy's int64 one did.
        assert scaled_config(n_trials=2**63 - 1).n_trials == 2**63 - 1
        with pytest.raises(ValueError, match="n_trials"):
            scaled_config(n_trials=2**63)


class TestRun:
    def test_deterministic_for_fixed_seed(self):
        a = run(scaled_config(n_trials=200_000))
        b = run(scaled_config(n_trials=200_000))
        assert a == b

    def test_independent_of_worker_count(self):
        # n_workers is accepted but must not change a run.
        runs = [run(scaled_config(n_trials=400_000, master_seed=99, n_workers=w)) for w in (1, 4)]
        assert all(r == runs[0] for r in runs)
        assert runs[0].n_fourfold > 0

    def test_seed_changes_results(self):
        a = run(scaled_config(n_trials=200_000, master_seed=1))
        b = run(scaled_config(n_trials=200_000, master_seed=2))
        assert a != b

    def test_perfect_twopair_exact(self):
        cfg = scaled_config(
            params=DetectorParams(1.0, 0.0, 0.0, 1.0), setting="XXX", n_trials=1000
        )
        stats = run(cfg)
        assert stats.n_fourfold == 1000
        assert stats.n_ghz_fourfold == 1000
        assert stats.e_hat == -1.0
        assert stats.std_err == 0.0

    def test_all_dark_limit(self):
        # d = 0, gamma = 1: every detector fires on a dark count in every
        # window, no quadruple is real, and the products are fair coin flips.
        cfg = scaled_config(params=DetectorParams(0.0, 1.0, 0.5, 0.5), n_trials=200_000)
        stats = run(cfg)
        assert stats.n_fourfold == cfg.n_trials
        assert stats.n_ghz_fourfold == 0
        assert abs(stats.e_hat) <= 4 / math.sqrt(cfg.n_trials)

    def test_no_coincidences_is_explicit(self):
        cfg = scaled_config(params=DetectorParams(0.9, 0.0, 1.0, 0.0), n_trials=5000)
        stats = run(cfg)
        assert stats.no_coincidences
        assert stats.e_hat is None
        assert stats.std_err is None
        assert stats.p4_hat == 0.0

    def test_scaled_regime_matches_analytic(self):
        stats = run(scaled_config(n_trials=2_000_000))
        analytic = det.corrected_correlation(SCALED, mode="exact")
        assert abs(stats.e_hat - analytic) <= 3 * stats.std_err
        p4 = det.fourfold_probability(SCALED)
        se = math.sqrt(p4 * (1 - p4) / stats.n_trials)
        assert abs(stats.p4_hat - p4) <= 3 * se

    def test_dense_point_matches_union_model(self):
        # At d = 0.9, gamma = 0.2 the ten single-pair channels overlap, so the
        # fourfold rate is their union, not their sum.  The model is written
        # out here from per-detector firing probabilities.
        d, gamma, p_pair = 0.9, 0.2, 0.5
        fire0, fire1, fire2 = fire_reference(d, gamma)
        q_distinct = fire1**2 * fire0**2
        q_same = fire2 * fire0**3
        p_single = 1 - (1 - q_distinct) ** 6 * (1 - q_same) ** 4
        p4 = p_pair * p_single + (1 - p_pair) * fire1**4
        e = (1 - p_pair) * d**3 * fire1 / p4
        n = 4_000_000
        stats = run(scaled_config(params=DetectorParams(d, gamma, p_pair, 1 - p_pair), n_trials=n))
        assert abs(stats.p4_hat - p4) <= 4 * math.sqrt(p4 * (1 - p4) / n)
        assert abs(stats.e_hat - e) <= 4 * stats.std_err
        # The additive aggregate is off by many standard errors here.
        p4_sum = p_pair * (6 * q_distinct + 4 * q_same) + (1 - p_pair) * fire1**4
        assert abs(stats.p4_hat - p4_sum) > 10 * math.sqrt(p4 * (1 - p4) / n)

    def test_paper_regime(self):
        # gamma = 6e-7 (300 counts/s in a 2 ns window), ratio 1e10: a fourfold
        # every ~1e11 windows, out of reach of any per-window simulation.
        params = DetectorParams.from_ratio(0.5, 6e-7, 1e10)
        stats = run(scaled_config(params=params, n_trials=10**14))
        assert stats.n_fourfold > 0
        exact = det.corrected_correlation(params, mode="exact")
        assert abs(stats.e_hat - exact) <= 4 * stats.std_err

    def test_conditioning_counts_only_fourfolds(self):
        stats = run(scaled_config(n_trials=500_000))
        assert stats.n_ghz_fourfold <= stats.n_fourfold <= stats.n_trials
        assert 0 < stats.n_fourfold < stats.n_trials

    def test_convergence_rate(self):
        # The error shrinks by sqrt(10) per step.  With the median over three
        # seeds a correct simulation fails this ordering about one time in
        # five; over 21 seeds, about one time in 500.
        analytic = det.corrected_correlation(SCALED, mode="exact")
        errors = []
        for n in (100_000, 1_000_000, 10_000_000):
            runs = [
                abs(run(scaled_config(n_trials=n, master_seed=seed)).e_hat - analytic)
                for seed in range(101, 122)
            ]
            errors.append(float(np.median(runs)))
        assert errors[0] > errors[1] > errors[2]

    def test_ghz_subset_purity(self):
        # Among classified-GHZ fourfolds under an aligned setting the product
        # is +1 every time, so e_hat is bounded below by the GHZ fraction.
        stats = run(scaled_config(n_trials=2_000_000, setting="XYY"))
        ghz_fraction = stats.n_ghz_fourfold / stats.n_fourfold
        # uncorrelated fourfolds average to zero, so e_hat ~= ghz_fraction
        assert stats.e_hat == pytest.approx(ghz_fraction, abs=4 * stats.std_err)


class TestEventLog:
    def test_log_lines_and_tallies_agree(self):
        cfg = scaled_config(params=DetectorParams(0.5, 0.05, 0.5, 0.5), n_trials=2000)
        stream = io.StringIO()
        stats = run(cfg, event_stream=stream)
        header, *lines = stream.getvalue().splitlines()
        assert header == "# creation,arrival,ghz,product"
        fields = [ln.split(",") for ln in lines]
        assert all(len(f) == 4 for f in fields)
        products = [int(f[3]) for f in fields]
        assert set(products) <= {-1, 1}
        assert len(products) == stats.n_fourfold
        assert sum(f[2] == "ghz" for f in fields) == stats.n_ghz_fourfold
        assert sum(products) == round(stats.e_hat * stats.n_fourfold)
        assert {f[1] for f in fields if f[0] == "pair"} <= set(mc.ARRIVAL_TAGS)
        assert all(f[1] == "TD1D2D3" for f in fields if f[0] == "twopair")

    def test_channel_tags(self):
        # Each tag names a detector once per photon on it.
        assert mc.ARRIVAL_TAGS == ("TD1", "TD2", "TD3", "D1D2", "D1D3", "D2D3",
                                   "D1D1", "D2D2", "D3D3", "TT")
        assert mc.TWOPAIR_TAG == "TD1D2D3"

    def test_log_does_not_change_statistics(self):
        # The log draws from its own substream.
        cfg = scaled_config(n_trials=20_000, master_seed=3)
        stream = io.StringIO()
        assert run(cfg, event_stream=stream) == run(cfg)
        assert len(stream.getvalue().splitlines()) == 1 + run(cfg).n_fourfold

    def test_log_is_deterministic(self):
        cfg = scaled_config(params=DetectorParams(0.5, 0.05, 0.5, 0.5), n_trials=500)
        a, b = io.StringIO(), io.StringIO()
        run(cfg, event_stream=a)
        run(cfg, event_stream=b)
        assert a.getvalue() == b.getvalue()

    def test_ghz_line_position_is_uniform(self):
        # For fixed counts, one correlated quadruple among 10 fourfolds is on
        # each line with probability 1/10.  Over 2000 seeded logs the
        # chi-square statistic of its positions (9 degrees of freedom) exceeds
        # 44.81 with probability 1e-6 for a correct log.
        by_kind = [2, 0, 1, 0, 0, 3, 0, 0, 0, 1, 2, 0, 1]  # pair channels, dark, ghz -1, ghz +1
        seeds = 2000
        positions = [0] * 10
        for seed in range(seeds):
            stream = io.StringIO()
            mc._write_events(by_kind, 4, random.Random(seed), stream)
            lines = stream.getvalue().splitlines()[1:]
            assert len(lines) == 10
            assert sum(ln.endswith("+1") for ln in lines) == 5
            positions[[",ghz," in ln for ln in lines].index(True)] += 1
        expected = seeds / 10
        assert sum((k - expected) ** 2 / expected for k in positions) < 44.81

    def test_scalar_path_statistics_match_analytic(self):
        # A run with an event log must agree with the closed-form model too.
        params = DetectorParams(0.5, 0.05, 0.6, 0.4)
        cfg = scaled_config(params=params, n_trials=40_000)
        stream = io.StringIO()
        stats = run(cfg, event_stream=stream)
        p4 = det.fourfold_probability(params)
        se = math.sqrt(p4 * (1 - p4) / cfg.n_trials)
        assert abs(stats.p4_hat - p4) <= 4 * se


class TestCompareAnalytic:
    def test_matched_config_unflagged(self):
        stats = run(scaled_config(n_trials=2_000_000))
        report = compare_analytic(stats, SCALED, "XYY")
        assert report.comparable
        assert abs(report.z_correlation) <= 4
        assert abs(report.z_fourfold) <= 4
        assert not report.flagged

    def test_mismatched_gamma_flagged(self):
        stats = run(scaled_config(n_trials=2_000_000))
        wrong = DetectorParams(0.5, 1e-1, 0.99, 0.01)
        report = compare_analytic(stats, wrong, "XYY")
        assert report.flagged

    def test_zero_fourfold_not_comparable(self):
        cfg = scaled_config(params=DetectorParams(0.9, 0.0, 1.0, 0.0), n_trials=1000)
        report = compare_analytic(run(cfg), cfg.params, "XYY")
        assert not report.comparable
        assert report.z_correlation is None

    def test_fourfolds_without_a_model_correlation(self):
        # Dark counts make fourfolds from single pairs, but p_twopair = 0
        # gives no model E: only the rate is compared.
        params = DetectorParams(0.9, 0.1, 1.0, 0.0)
        stats = run(scaled_config(params=params, n_trials=100_000, master_seed=3))
        report = compare_analytic(stats, params, "XYY")
        assert stats.n_fourfold > 0
        assert not report.comparable
        assert report.analytic_e is None
        assert report.z_correlation is None
        assert math.isfinite(report.z_fourfold)
        assert report.flagged == (abs(report.z_fourfold) > 4)

    # A correlated product is +1 with probability (1 + v)/2 for XYY, (1 - v)/2
    # for XXX and 1/2 for XXY or v = 0.
    @pytest.mark.parametrize("setting, e_ghz", [
        pytest.param("XYY", 0.5, id="0.5"), pytest.param("XYY", -0.5, id="-0.5"),
        pytest.param("XXX", 0.5, id="XXX-0.5"), pytest.param("XXY", 0.5, id="XXY-0.5"),
        pytest.param("XYY", 0.0, id="0.0"),
    ])
    def test_source_correlation_below_one(self, setting, e_ghz):
        # The kernel once drew from the ideal state whatever e_ghz was: at
        # e_ghz = 0.5 this run gave z_correlation +183.
        params = DetectorParams(0.5, 1e-2, 0.99, 0.01, e_ghz)
        stats = run(scaled_config(params=params, setting=setting, n_trials=100_000_000,
                                  master_seed=1))
        report = compare_analytic(stats, params, setting)
        assert abs(report.z_correlation) < 4
        assert not report.flagged

    # d = 1 and gamma = 0 with only double pairs: every window is a correlated
    # fourfold, so the analytic E is e_ghz exactly (times the setting's sign).
    @staticmethod
    def hand_built(e_hat, n4=100):
        return mc.RunStats(n_trials=n4, n_fourfold=n4, n_ghz_fourfold=n4, e_hat=e_hat,
                           std_err=det.sigma_of_correlation(e_hat) / math.sqrt(n4), p4_hat=1.0)

    def test_z_uses_the_model_standard_error(self):
        # With the empirical error sqrt(1 - 0.98^2)/10 = 0.0199 this is z = 4.02
        # and flagged; the model's sqrt(1 - 0.9^2)/10 = 0.0436 gives z = 1.84.
        report = compare_analytic(self.hand_built(0.98), DetectorParams(1.0, 0.0, 0.0, 1.0, 0.9),
                                  "XYY")
        assert report.analytic_e == 0.9
        assert report.z_correlation == pytest.approx(0.08 / math.sqrt(0.19 / 100), rel=1e-12)
        assert not report.flagged

    @pytest.mark.parametrize("setting, e_hat, z", [
        ("XYY", 1.0, 0.0), ("XXX", -1.0, 0.0), ("XYY", 0.98, -math.inf), ("XXX", -0.98, math.inf),
    ])
    def test_perfect_model_correlation(self, setting, e_hat, z):
        # |E| = 1 has no spread: e_hat = E gives z = 0, anything else is flagged.
        report = compare_analytic(self.hand_built(e_hat), DetectorParams(1.0, 0.0, 0.0, 1.0),
                                  setting)
        assert abs(report.analytic_e) == 1.0
        assert report.z_correlation == z
        assert report.flagged == (z != 0.0)

    @pytest.mark.parametrize("stats, params, z", [
        pytest.param(mc.RunStats(1000, 500, 0, 0.0, 0.03, 0.5), DetectorParams(0, 0, 0.5, 0.5),
                     math.inf, id="p4=0-seen"),
        pytest.param(mc.RunStats(1000, 999, 999, 1.0, 0.0, 0.999), DetectorParams(1, 0, 0, 1),
                     -math.inf, id="p4=1-missed"),
        pytest.param(mc.RunStats(1000, 1000, 1000, 1.0, 0.0, 1.0), DetectorParams(1, 0, 0, 1),
                     0.0, id="p4=1-met"),
        pytest.param(mc.RunStats(1000, 0, 0, None, None, 0.0), DetectorParams(0, 0, 0.5, 0.5),
                     0.0, id="p4=0-met"),
    ])
    def test_perfect_model_rate(self, stats, params, z):
        # p4 = 0 or 1 has no spread either: the same rule as for |E| = 1.
        report = compare_analytic(stats, params, "XYY")
        assert report.analytic_p4 in (0.0, 1.0)
        assert report.z_fourfold == z
        assert report.flagged == (z != 0.0)

    def test_setting_is_required(self):
        # No default: a correct XXX run (d 0.9, gamma 0.02, p_pair 0.5, 1e6
        # windows, seed 1) compared as XYY gives z_correlation -8272.
        with pytest.raises(TypeError):
            compare_analytic(self.hand_built(1.0), DetectorParams(1.0, 0.0, 0.0, 1.0))

    def test_sign_follows_setting(self):
        cfg = scaled_config(setting="XXX", n_trials=2_000_000)
        stats = run(cfg)
        report = compare_analytic(stats, SCALED, "XXX")
        assert report.analytic_e < 0
        assert stats.e_hat < 0
        assert not report.flagged


class TestModelOverTheCube:
    # Each z below is (count - mean) / sd of a binomial count, taken only
    # where both the count and its complement have an expected 400 or more
    # (fourfolds and non-fourfolds; +1 and -1 products among the fourfolds),
    # so the count is near normal.  |z| > 5 then has probability 5.7e-7
    # (normal) to 9.1e-7 (Poisson with mean 400).  40 examples give at most
    # 80 z values, so a correct model fails with probability below 7.3e-5,
    # about 5e-5.  Examples and seeds are hypothesis's own draws.
    N = 10**9
    MIN_EXPECTED = 400
    Z_BOUND = 5.0

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 1.0),
        p_pair=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_model_is_a_probability_matched_by_the_simulation(self, d, gamma, p_pair, seed):
        params = DetectorParams(d, gamma, p_pair, 1.0 - p_pair)
        p4 = det.fourfold_probability(params)
        assert 0.0 <= p4 <= 1.0
        stats = run(RunConfig(params, "XYY", self.N, seed))
        report = compare_analytic(stats, params, "XYY")
        assert report.analytic_p4 == p4
        if min(self.N * p4, self.N * (1 - p4)) >= self.MIN_EXPECTED:
            z = (stats.n_fourfold - self.N * p4) / math.sqrt(self.N * p4 * (1 - p4))
            assert abs(z) <= self.Z_BOUND, ("p4", p4, stats)
        e = report.analytic_e  # None where the exact E is undefined
        if e is None:
            return
        assert -1.0 <= e <= 1.0
        n4 = stats.n_fourfold
        if min(n4 * (1 + e) / 2, n4 * (1 - e) / 2) >= self.MIN_EXPECTED:
            z = (stats.e_hat - e) * math.sqrt(n4 / (1 - e * e))
            assert abs(z) <= self.Z_BOUND, ("e", e, stats)
