import math

import numpy as np
import pytest

from ghzdet import detector as det
from ghzdet.detector import DetectorParams, RateSpec


class TestParams:
    def test_pair_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="must be 1"):
            DetectorParams(0.5, 1e-6, 0.9, 0.2)

    def test_from_ratio(self):
        p = DetectorParams.from_ratio(0.5, 1e-6, 9.0)
        assert p.p_pair == pytest.approx(0.9)
        assert p.p_twopair == pytest.approx(0.1)
        assert p.ratio == pytest.approx(9.0)

    @pytest.mark.parametrize("ratio", [float("inf"), float("nan")])
    def test_from_ratio_rejects_non_finite(self, ratio):
        with pytest.raises(ValueError, match=f"ratio={ratio} must be finite"):
            DetectorParams.from_ratio(0.5, 1e-3, ratio)

    def test_rate_spec_rejects_saturated_window(self):
        with pytest.raises(ValueError):
            RateSpec(dark_rate=1e12, window=1.0)

    @pytest.mark.parametrize(
        "dark_rate, window, field",
        [
            (math.nan, 1e-9, "dark_rate"),
            (1.0, math.nan, "window"),
            (math.inf, 0.0, "dark_rate"),
            (0.0, math.inf, "window"),
            (-1.0, 1e-9, "dark_rate"),
        ],
    )
    def test_rate_spec_rejects_non_finite_or_negative(self, dark_rate, window, field):
        with pytest.raises(ValueError, match=f"^{field}=.* must be finite and >= 0"):
            RateSpec(dark_rate, window)


class TestGammaFromRates:
    def test_reported_rate(self):
        assert det.gamma_from_rates(RateSpec(300, 2e-9)) == pytest.approx(6e-7)

    def test_reduced_rate(self):
        assert det.gamma_from_rates(RateSpec(50, 2e-9)) == pytest.approx(1e-7)

    def test_zero(self):
        assert det.gamma_from_rates(RateSpec(0, 2e-9)) == 0.0


def channel_probabilities(d, gamma):
    """(q_distinct, q_same): a pair fires all four detectors via TD1 and via D1D1."""
    f0, f1, f2 = det.fire_probabilities(d, gamma)
    return f1 * f1 * f0 * f0, f2 * f0 * f0 * f0


def twopair(d, gamma):
    return DetectorParams(d, gamma, 0.0, 1.0)


class TestPairProbabilities:
    def test_distinct_vanishes_without_darks(self):
        assert channel_probabilities(0.7, 0.0)[0] == 0.0

    def test_distinct_perfect_detectors(self):
        assert channel_probabilities(1.0, 0.1)[0] == pytest.approx(0.01)

    def test_distinct_generic(self):
        assert channel_probabilities(0.5, 0.1)[0] == pytest.approx(0.003025)

    def test_same_vanishes_at_unit_efficiency(self):
        assert channel_probabilities(1.0, 0.2)[1] == 0.0

    def test_same_vanishes_without_darks(self):
        assert channel_probabilities(0.5, 0.0)[1] == 0.0

    def test_same_generic(self):
        assert channel_probabilities(0.5, 0.1)[1] == pytest.approx(2.75e-4)

    def test_total_zero_gamma(self):
        assert det.pair_fourfold_probability(0.5, 0.0) == 0.0

    def test_total_derived(self):
        # The union of the ten channels, not their sum 6 q_distinct + 4 q_same.
        q_distinct, q_same = channel_probabilities(0.5, 0.1)
        assert 6 * q_distinct + 4 * q_same == pytest.approx(0.01925)
        assert det.pair_fourfold_probability(0.5, 0.1) == pytest.approx(0.0190930328662559, rel=1e-14)

    def test_certain_channel_gives_one(self):
        # d = 0, gamma = 1: every detector fires in every window.
        assert det.pair_fourfold_probability(0.0, 1.0) == 1.0
        assert det.fourfold_probability(DetectorParams(0.0, 1.0, 0.99, 0.01)) == 1.0

    def test_union_is_the_sum_to_first_order(self):
        # q_i ~ gamma^2 ~ 4e-13 in the paper's regime, where a plain
        # 1 - prod(1 - q_i) would lose four digits.
        q_distinct, q_same = channel_probabilities(0.5, 6e-7)
        want = 6 * q_distinct + 4 * q_same
        assert det.pair_fourfold_probability(0.5, 6e-7) == pytest.approx(want, rel=1e-11, abs=0)


class TestQuadrupleProbabilities:
    # A double pair is a fourfold with probability (d + g(1-d))^4, of which
    # the correlated part is d^3 (d + g(1-d)) = d^4 + g(1-d)d^3; the rest is
    # 3 g d^3 u + 6 g^2 d^2 u^2 + 4 g^3 d u^3 + g^4 u^4 (u = 1 - d).
    def test_signal_no_darks(self):
        assert det.signal_probability(twopair(0.7, 0.0)) == pytest.approx(0.7**4)

    def test_signal_perfect(self):
        assert det.signal_probability(twopair(1.0, 0.3)) == pytest.approx(1.0)

    def test_signal_generic(self):
        assert det.signal_probability(twopair(0.5, 0.1)) == pytest.approx(0.06875, rel=1e-14)

    def test_background_vanishes_at_extremes(self):
        for d, g in ((0.5, 0.0), (1.0, 0.3)):
            p = twopair(d, g)
            assert det.fourfold_probability(p) - det.signal_probability(p) == pytest.approx(0.0, abs=1e-15)

    def test_background_generic(self):
        # 3*0.1*0.125*0.5 + 6*0.01*0.25*0.25 + 4*1e-3*0.5*0.125 + 1e-4*0.0625
        p = twopair(0.5, 0.1)
        assert det.fourfold_probability(p) - det.signal_probability(p) == pytest.approx(0.02275625, rel=1e-12)


class TestCorrectedCorrelation:
    def test_reported_operating_point(self):
        p = DetectorParams.from_ratio(0.5, 6e-7, 1e10)
        assert det.corrected_correlation(p, "approx") == pytest.approx(1 / 1.0864, abs=5e-4)

    def test_no_darks_gives_ideal(self):
        p = DetectorParams.from_ratio(0.5, 0.0, 1e10, e_ghz=0.97)
        assert det.corrected_correlation(p, "approx") == pytest.approx(0.97)
        assert det.corrected_correlation(p, "exact") == pytest.approx(0.97)

    def test_pure_twopair_no_darks(self):
        p = DetectorParams(0.5, 0.0, 0.0, 1.0)
        assert det.corrected_correlation(p, "exact") == pytest.approx(1.0)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            det.corrected_correlation(DetectorParams(0.0, 1e-7, 0.5, 0.5))
        with pytest.raises(ValueError):
            det.corrected_correlation(DetectorParams(0.5, 1e-7, 1.0, 0.0))

    def test_underflowing_fourfold_rejected(self):
        # d^4 underflows to 0: the exact E would be 0/0.
        with pytest.raises(ValueError, match="underflows"):
            det.corrected_correlation(DetectorParams(1e-100, 0.0, 0.5, 0.5), "exact")

    def test_mode_agreement_in_reported_regime(self):
        for gamma in (1e-7, 1e-6, 1e-5):
            for ratio in (1e6, 1e8, 1e10):
                p = DetectorParams.from_ratio(0.5, gamma, ratio)
                approx = det.corrected_correlation(p, "approx")
                exact = det.corrected_correlation(p, "exact")
                assert approx == pytest.approx(exact, rel=1e-3)

    def test_monotone_in_gamma_and_d(self):
        ds = np.linspace(0.01, 1.0, 101)
        gs = np.linspace(0.0, 1.0, 101)
        for mode in ("approx", "exact"):
            E = np.array(
                [
                    [
                        det.corrected_correlation(
                            DetectorParams.from_ratio(float(d), float(g), 1e4), mode
                        )
                        for g in gs
                    ]
                    for d in ds
                ]
            )
            falls_in_gamma = np.diff(E, axis=1) <= 1e-15
            if mode == "exact":
                # Where the pair union saturates (>= 0.936 at gamma >= 0.7 on
                # this grid) the background cannot grow while a dark trigger
                # still adds signal, and E rises by up to 1.05e-7.
                p4_pair = np.array([[det.pair_fourfold_probability(float(d), float(g)) for g in gs]
                                    for d in ds])
                falls_in_gamma |= p4_pair[:, 1:] > 0.9
            assert np.all(falls_in_gamma)  # non-increasing in gamma
            assert np.all(np.diff(E, axis=0) >= -1e-15)  # non-decreasing in d


class TestProbabilityRanges:
    def test_unit_interval_on_grid(self):
        # Every probability of the model lies in [0, 1], large gamma included.
        ds = np.linspace(0.0, 1.0, 101)
        gs = np.linspace(0.0, 1.0, 101)
        for d in ds:
            for g in gs:
                d, g = float(d), float(g)
                values = (
                    *det.fire_probabilities(d, g),
                    det.pair_fourfold_probability(d, g),
                    det.signal_probability(twopair(d, g)),
                    det.fourfold_probability(twopair(d, g)),
                    det.fourfold_probability(DetectorParams(d, g, 0.5, 0.5)),
                )
                for v in values:
                    assert 0.0 <= v <= 1.0, (d, g, values)

    def test_perfect_detectors_only_signal(self):
        for g in np.linspace(0.0, 0.1, 11):
            assert det.signal_probability(twopair(1.0, float(g))) == pytest.approx(1.0)
            assert det.fourfold_probability(twopair(1.0, float(g))) == pytest.approx(1.0)


class TestObservedRatio:
    def test_reported_count_ratio(self):
        assert det.correlation_from_ratio(1 / 12) == pytest.approx(12 / 13)

    def test_extremes(self):
        assert det.correlation_from_ratio(0.0) == 1.0
        assert det.correlation_from_ratio(1.0) == 0.5


class TestSigma:
    def test_product_prob(self):
        assert det.product_prob_plus(1.0) == 1.0
        assert det.product_prob_plus(-1.0) == 0.0
        assert det.product_prob_plus(0.92) == pytest.approx(0.96)

    def test_sigma_values(self):
        assert det.sigma_of_correlation(0.92) == pytest.approx(0.392, abs=1e-3)
        assert det.sigma_of_correlation(1.0) == 0.0
        assert det.sigma_of_correlation(0.0) == 1.0

    def test_sigma_matches_bernoulli_variance(self):
        for e in np.linspace(-1.0, 1.0, 41):
            p_plus = det.product_prob_plus(float(e))
            assert det.sigma_of_correlation(float(e)) ** 2 == pytest.approx(
                4 * p_plus * (1 - p_plus), abs=1e-12
            )

    def test_separation_reported_point(self):
        assert det.sigma_separation(0.92) == pytest.approx(1.07, abs=0.01)
        assert det.sigma_separation(0.92) > 1.0

    def test_separation_saturates(self):
        assert det.sigma_separation(1.0) == math.inf

    def test_separation_requires_excess(self):
        with pytest.raises(ValueError):
            det.sigma_separation(0.5)
        with pytest.raises(ValueError):
            det.sigma_separation(0.3)

    def test_reduced_dark_rate_scenario(self):
        gamma = det.gamma_from_rates(RateSpec(50, 2e-9))
        e = det.corrected_correlation(DetectorParams.from_ratio(0.5, gamma, 1e10))
        assert e == pytest.approx(0.9976, abs=2e-4)
        assert det.sigma_separation(e) == pytest.approx(7.2, rel=0.05)


class TestGammaInversion:
    def test_reported_level_set(self):
        g = det.find_gamma_for_correlation(0.5, 1e10, 0.92)
        assert 5.9e-7 <= g <= 6.1e-7

    def test_ideal_target_gives_zero(self):
        assert det.find_gamma_for_correlation(0.5, 1e10, 1.0) == pytest.approx(0.0, abs=1e-11)

    def test_gamma_scales_with_d(self):
        g1 = det.find_gamma_for_correlation(0.4, 1e10, 0.92)
        g2 = det.find_gamma_for_correlation(0.8, 1e10, 0.92)
        assert g2 == pytest.approx(2 * g1, rel=1e-5)

    def test_round_trip(self):
        for target in (0.6, 0.8, 0.95):
            g = det.find_gamma_for_correlation(0.5, 1e8, target)
            p = DetectorParams.from_ratio(0.5, g, 1e8)
            assert det.corrected_correlation(p, "approx") == pytest.approx(target, abs=1e-6)

    def test_contour_on_the_level(self):
        # The closed form lands on the level to rounding, at every d.
        for d in (0.3, 0.5, 0.9):
            g = det.find_gamma_for_correlation(d, 1e10, 0.92)
            e = det.corrected_correlation(DetectorParams.from_ratio(d, g, 1e10), "approx")
            assert e == pytest.approx(0.92, abs=1e-14)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError):
            det.find_gamma_for_correlation(0.5, 1e10, 1e-6)
