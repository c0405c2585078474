import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzdet import cli
from ghzdet import detector as det
from ghzdet import lhv
from ghzdet.detector import DetectorParams
from references import approx_e_reference, exact_e_reference, fire_reference


class TestParams:
    def test_pair_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="must be 1"):
            DetectorParams(0.5, 1e-6, 0.9, 0.2)

    def test_from_ratio(self):
        p = DetectorParams.from_ratio(0.5, 1e-6, 9.0)
        assert p.p_pair == pytest.approx(0.9)
        assert p.p_twopair == pytest.approx(0.1)
        assert p.p_pair / p.p_twopair == pytest.approx(9.0)

    @pytest.mark.parametrize("ratio", [float("inf"), float("nan")])
    def test_from_ratio_rejects_non_finite(self, ratio):
        with pytest.raises(ValueError, match=f"ratio={ratio} must be finite"):
            DetectorParams.from_ratio(0.5, 1e-3, ratio)

    def test_rate_spec_rejects_saturated_window(self):
        with pytest.raises(ValueError, match=r"^dark_rate \* window = 1000000000000.0 exceeds 1$"):
            det.gamma_from_rates(dark_rate=1e12, window=1.0)

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
        value = dark_rate if field == "dark_rate" else window
        with pytest.raises(ValueError, match=f"^{field}={value} must be finite and >= 0$"):
            det.gamma_from_rates(dark_rate, window)


class TestGammaFromRates:
    def test_reported_rate(self):
        assert det.gamma_from_rates(300, 2e-9) == pytest.approx(6e-7)

    def test_reduced_rate(self):
        assert det.gamma_from_rates(50, 2e-9) == pytest.approx(1e-7)

    def test_zero(self):
        assert det.gamma_from_rates(0, 2e-9) == 0.0


def channel_probabilities(d, gamma):
    """(q_distinct, q_same): a pair fires all four detectors via TD1 and via D1D1."""
    f0, f1, f2 = det.fire_probabilities(d, gamma)
    return f1 * f1 * f0 * f0, f2 * f0 * f0 * f0


def twopair(d, gamma):
    return DetectorParams(d, gamma, 0.0, 1.0)


def bits(values):
    """The IEEE bytes of each float, so that nan equals nan and 0.0 differs from -0.0."""
    return [struct.pack("d", v) for v in values]


# A fixed grid with the corners (0, 1) and (1, 0) and the paper's (0.5, 6e-7).
# d = 2^-53 and gamma = 1 - 2^-53 bring a and b of the closed-form union to
# within a few ulps of 1, so that 1 - a and 1 - b reach 0 and 2^-53 to 2^-51.
UNION_DS = (0.0, 2.0**-53, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0)
UNION_GAMMAS = (0.0, 1e-12, 1e-9, 6e-7, 1e-4, 1e-2, 0.1, 0.5, 0.9, 1.0 - 2.0**-53, 1.0)


# d and gamma over [0, 1]: both ends, subnormals, the least normal and 1 - ulp.
RULE_VALUES = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-16, 2.0**-54, 1e-3, 0.3, 0.5,
               0.7, 0.999, 1.0 - 2.0**-53, 1.0)


class TestClickRule:
    def test_fire_probabilities_follow_the_rule(self):
        # n photons fire a detector with a_n + b_n gamma, b_n = (1-d)^n.
        for d in RULE_VALUES:
            a1, b1, a2, b2 = det._click_rule(d)
            assert bits([a1, b1, a2, b2]) == bits([d, 1.0 - d, d * (1.0 - d), (1.0 - d) * (1.0 - d)]), d
            for g in RULE_VALUES:
                assert bits(det.fire_probabilities(d, g)) == bits([g, a1 + b1 * g, a2 + b2 * g]), (d, g)


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

    def test_union_matches_mpmath_reference(self):
        # 1 - prod(1 - q) from the same float inputs, at 50 digits beyond the
        # 48 that it cancels where q ~ gamma^4 = 1e-48 (d = 0, gamma = 1e-12).
        # The bound allows about 18 roundings of 2^-53.
        mpmath = pytest.importorskip("mpmath")
        for d in UNION_DS:
            for g in UNION_GAMMAS:
                with mpmath.workdps(100):
                    fire = fire_reference(mpmath.mpf(d), mpmath.mpf(g))
                    miss = mpmath.mpf(1)
                    for t, d1, d2, d3 in det.ARRIVAL_COUNTS:
                        miss *= 1 - fire[t] * fire[d1] * fire[d2] * fire[d3]
                    want = 1 - miss
                got = det.pair_fourfold_probability(d, g)
                assert abs(got - want) <= 4e-15 * want, (d, g, got, float(want))

    def test_float_equals_its_grid_cell(self):
        # Each float is built from its cell of a row bit for bit: the union
        # a g, a = (f1 gamma)^2, from the row's g; the signal
        # p_twopair d^3 (d + (1-d) gamma); and P(fourfold), p_pair a g +
        # p_twopair f1^4.  f = f1 and T = (d / f1)^3, and at d = gamma = 0,
        # where f1 = 0, both are 1.
        for g in UNION_GAMMAS:
            row = det._normalised_row(g, [det._click_rule(d) for d in UNION_DS])
            for j, d in enumerate(UNION_DS):
                f1 = det.fire_probabilities(d, g)[1]
                t3, f, union_over_a = row[j]
                assert bits([f]) == bits([f1 or 1.0]), (d, g)
                assert 0.0 <= t3 <= 1.0, (d, g)
                assert t3 == pytest.approx((d / f1) ** 3 if f1 else 1.0, rel=1e-15, abs=0), (d, g)
                assert 1.0 <= union_over_a <= 10.0, (d, g)
                union = f1 * g * (f1 * g) * union_over_a
                assert bits([det.pair_fourfold_probability(d, g)]) == bits([union]), (d, g)
                params = DetectorParams(d, g, 0.25, 0.75)
                assert bits([det.signal_probability(params), det.fourfold_probability(params)]) \
                    == bits([0.75 * (d * d * d * f1), 0.25 * union + 0.75 * (f1 * f1 * f1 * f1)]), (d, g)

    def test_channels_are_six_of_two_detectors_and_four_of_one(self):
        # The closed form 1 - (1-a)^6 (1-b)^4 rests on these counts.
        assert len(set(det.ARRIVAL_COUNTS)) == 10
        shapes = sorted(tuple(sorted(counts, reverse=True)) for counts in det.ARRIVAL_COUNTS)
        assert shapes == [(1, 1, 0, 0)] * 6 + [(2, 0, 0, 0)] * 4


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

    def test_least_twopair_without_darks_gives_ideal(self):
        # With no darks every fourfold is a correlated double pair, so E = 1
        # for any p_twopair > 0.  p_twopair times the signal underflows even
        # when divided by d and gamma; this input once raised "fourfold
        # probability underflows to 0".
        assert det.corrected_correlation(DetectorParams(0.5, 0.0, 1.0, 5e-324), "exact") == 1.0

    @pytest.mark.parametrize("gamma, want", [(1e-100, 2.05860685767e-125), (1e-170, 1.0)])
    def test_least_twopair_with_darks(self, gamma, want):
        # At gamma = 1e-100 the single-pair union, 1.5e-200, outweighs the
        # double pair and E is the signal over it; the signal once rounded to
        # 0, so E = 0.  At gamma = 1e-170 the union is below the least float,
        # E is 1 to double precision, and the call once raised.
        p = DetectorParams(0.5, gamma, 1.0, 5e-324)
        e = det.corrected_correlation(p, "exact")
        assert e == pytest.approx(exact_e_reference(p), rel=1e-14, abs=0)
        assert e == pytest.approx(want, rel=1e-11)

    def test_every_positive_twopair_gives_a_correlation(self):
        for p_twopair in (5e-324, 1e-310, 1e-300, 1e-200):
            for d in (1.0, 0.5, 1e-100, 1e-300, 5e-324):
                for gamma in (0.0, 5e-324, 1e-300, 1e-100, 0.5, 1.0):
                    p = DetectorParams(d, gamma, 1.0, p_twopair)
                    assert 0.0 <= det.corrected_correlation(p, "exact") <= 1.0, p

    @pytest.mark.parametrize("d, gamma, want", [
        (1e-80, 1e-80, 6.24999999969e-12), (1e-100, 1e-100, 6.24999999969e-12), (1e-100, 0.0, 1.0),
    ])
    def test_exact_at_tiny_d_and_gamma(self, d, gamma, want):
        # The signal p_twopair d^3 (d + (1-d) gamma) leaves the normal range
        # here; it once gave E = 0 (first case) or a 0/0 rejection.
        p = DetectorParams.from_ratio(d, gamma, 1e10)
        e = det.corrected_correlation(p, "exact")
        assert e == pytest.approx(exact_e_reference(p), rel=1e-14, abs=0)
        assert e == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("ratio", [1e10, 1.0, 1e300])
    @pytest.mark.parametrize("shape", [(1.0, 1.0), (1.0, 0.0), (1.0, 1e-3), (1e-3, 1.0), (0.3, 0.7)])
    def test_exact_across_the_normal_range(self, ratio, shape):
        # d and gamma shrink together by powers of ten, through the scale
        # where the signal leaves the normal range, and down to subnormal d.
        for exponent in range(0, 330, 10):
            d, gamma = (x * 10.0 ** -exponent for x in shape)
            if d == 0.0:
                continue
            p = DetectorParams.from_ratio(d, gamma, ratio)
            e = det.corrected_correlation(p, "exact")
            assert e == pytest.approx(exact_e_reference(p), rel=1e-13, abs=0), (exponent, e)

    @pytest.mark.parametrize("ratio", [1e10, 1.0, 1e300])
    @pytest.mark.parametrize("shape", [(1e-60, 1.0), (1.0, 1e-150), (1e-200, 1e-3), (1e-3, 1e-150)])
    def test_exact_for_asymmetric_shapes(self, ratio, shape):
        # One of d and gamma far below the other, so t = d / f1 or
        # z = gamma / f1 is far below 1; E may leave the float range, so the
        # bound is absolute at the least subnormal.
        for exponent in range(0, 330, 10):
            d, gamma = (x * 10.0 ** -exponent for x in shape)
            if d == 0.0:
                continue
            p = DetectorParams.from_ratio(d, gamma, ratio)
            e, want = det.corrected_correlation(p, "exact"), exact_e_reference(p)
            assert abs(e - want) <= max(1e-13 * want, 5e-324), (exponent, e, want)

    def test_union_kept_at_subnormal_twopair(self):
        # gamma far below d with a subnormal p_twopair: the union, about
        # 6 (d gamma)^2, may be below the float range while its share of the
        # double pair's f1^4, about 6 (gamma/d)^2, times p_pair / p_twopair is
        # not.  These inputs are reached only through
        # the API; from_ratio gives p_twopair of at least about 5.6e-309.
        # The first call once gave 1.0, the second 8.233841086867023e-05.
        e = det.corrected_correlation(DetectorParams(3.156471184333108e-55, 5.290260974779344e-218,
                                                     1.0, 5.61e-321), "exact")
        assert e == pytest.approx(0.9999699455894273, rel=1e-15, abs=0)
        e = det.corrected_correlation(DetectorParams(0.5, 5e-161, 1.0, 5e-324), "exact")
        assert e == pytest.approx(8.233749428565923e-05, rel=1e-15, abs=0)
        cells = 0
        for p_twopair in (5e-324, 1e-321, 1e-318, 1e-315, 1e-312, 1e-310):
            for d in (1e-60, 1e-40, 1e-20, 1e-5, 0.5, 1.0):
                for exponent in range(0, 330, 10):
                    gamma = d * 10.0 ** -exponent
                    if gamma == 0.0:
                        continue
                    p = DetectorParams(d, gamma, 1.0, p_twopair)
                    e, want = det.corrected_correlation(p, "exact"), exact_e_reference(p)
                    assert abs(e - want) <= max(1e-13 * want, 5e-324), (p, e, want)
                    cells += 1
        assert cells == 1110

    @pytest.mark.parametrize("params, want", [
        (DetectorParams.from_ratio(0.5, 1e-160, 1e308), 0.999999999976),
        (DetectorParams(0.5, 1e-160, 1.0, 1e-320), 0.04),
    ])
    def test_approx_where_the_dilution_overflows(self, params, want):
        # 6 p_pair / p_twopair overflows here, and approx E was once 0.
        e = det.corrected_correlation(params, "approx")
        assert e == pytest.approx(approx_e_reference(params), rel=1e-14, abs=0)
        assert e == pytest.approx(want, rel=1e-4)
        if params.p_twopair > 1e-310:
            assert det.corrected_correlation(params, "exact") == pytest.approx(e, rel=1e-11)

    def test_approx_against_the_closed_form(self):
        # Ratios up to the largest from_ratio takes, and subnormal p_twopair
        # through the API.  Where (gamma/d)^2 times the ratio overflows, E
        # is below the least normal float and approx mode gives 0.  At
        # d = 1e-310 and ratio 5e-324, gamma/d overflows while E does not;
        # approx mode once gave 0 there.
        splits = [DetectorParams.from_ratio(1.0, 0.0, r)[2:4]
                  for r in (5e-324, 1e-3, 1.0, 1e10, 1e300, 1e307, 4e307, 1e308, 1.7e308)]
        splits += [(1.0, p_twopair) for p_twopair in (1e-300, 1e-310, 1e-320, 5e-324)]
        cells = 0
        for p_pair, p_twopair in splits:
            for d in (1.0, 0.5, 1e-3, 1e-100, 1e-300, 1e-310):
                for gamma in (1.0, 0.5, 1e-5, 1e-100, 1e-160, 1e-200, 1e-300, 5e-324):
                    p = DetectorParams(d, gamma, p_pair, p_twopair, -0.7)
                    e, want = det.corrected_correlation(p, "approx"), approx_e_reference(p)
                    assert abs(e - want) <= max(1e-14 * abs(want), sys.float_info.min), (p, e, want)
                    cells += 1
        assert cells == 624

    def test_exact_paper_point_is_the_nearest_float(self):
        # t = d / f1 is not rounded before it is cubed: E once came out
        # 0.9204696830127156, 4 ulps off.
        p = DetectorParams.from_ratio(0.5, 6e-7, 1e10)
        assert det.corrected_correlation(p, "exact") == exact_e_reference(p) == 0.9204696830127151

    def test_both_modes_against_mpmath_on_random_cells(self):
        # d and gamma log-uniform down to 1e-320 (gamma also 0 or uniform),
        # ratios from 5e-324 to 1e300 and, one cell in five, a subnormal
        # p_twopair: E is within 1e-15 where it is normal, else 2 ulps.
        rng = random.Random(26)
        for i in range(1500):
            d = 10.0 ** rng.uniform(-320.0, 0.0)
            gamma = rng.choice([0.0, 10.0 ** rng.uniform(-320.0, 0.0), rng.random()])
            if i % 5 == 0:
                p = DetectorParams(d, gamma, 1.0, 10.0 ** rng.uniform(-323.3, -308.0))
            else:
                ratio = 10.0 ** rng.uniform(-323.0, 300.0) if i % 3 else rng.uniform(0.0, 10.0)
                p = DetectorParams.from_ratio(d, gamma, ratio, rng.uniform(-1.0, 1.0))
            for mode, reference in (("approx", approx_e_reference), ("exact", exact_e_reference)):
                e, want = det.corrected_correlation(p, mode), reference(p)
                assert abs(e - want) <= max(1e-15 * abs(want), 2 * 5e-324), (mode, p, e, want)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0).filter(bool), st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
           st.floats(0.0, 1.7e308), st.floats(0.0, 1.7e308))
    def test_non_increasing_in_the_ratio(self, d, gamma, e_ghz, r1, r2):
        # |E| = |e_ghz| d^3 f1 / (ratio U + f1^4) falls as the ratio grows
        # (ROADMAP item 12), in both modes.  from_ratio rounds p_pair and
        # p_twopair apart, so two close ratios may swap |E| by an ulp or two.
        low, high = sorted((r1, r2))
        for mode in ("approx", "exact"):
            e_low, e_high = (abs(det.corrected_correlation(DetectorParams.from_ratio(d, gamma, r, e_ghz),
                                                           mode)) for r in (low, high))
            assert e_high <= e_low * (1.0 + 1e-15) + 5e-324, (mode, e_low, e_high)

    def test_mode_agreement_in_reported_regime(self):
        for gamma in (1e-7, 1e-6, 1e-5):
            for ratio in (1e6, 1e8, 1e10):
                p = DetectorParams.from_ratio(0.5, gamma, ratio)
                approx = det.corrected_correlation(p, "approx")
                exact = det.corrected_correlation(p, "exact")
                assert approx == pytest.approx(exact, rel=1e-3)

    def test_monotone_in_gamma_and_d(self):
        ds = cli._linspace(0.01, 1.0, 101)
        gs = cli._linspace(0.0, 1.0, 101)
        for mode in ("approx", "exact"):
            E = [[det.corrected_correlation(DetectorParams.from_ratio(d, g, 1e4), mode) for g in gs]
                 for d in ds]
            for d, row in zip(ds, E):  # non-increasing in gamma
                for g, before, e in zip(gs[1:], row, row[1:]):
                    # Where the pair union saturates (>= 0.936 at gamma >= 0.7 on
                    # this grid) the background cannot grow while a dark trigger
                    # still adds signal, and exact E rises by up to 1.05e-7.
                    saturated = mode == "exact" and det.pair_fourfold_probability(d, g) > 0.9
                    assert e - before <= 1e-15 or saturated, (mode, d, g)
            for lower, higher in zip(E, E[1:]):  # non-decreasing in d
                assert all(e - below >= -1e-15 for below, e in zip(lower, higher)), mode

    def test_exact_e_can_rise_with_gamma_below_the_lhv_bound(self):
        # A counterexample to "E does not rise with gamma": at d = 1 - 1e-5
        # and ratio 3.01 a dark trigger adds more signal than background, and
        # exact E, about 0.2494, rises from gamma = 1 - 1e-5 to 1.  So an
        # inverse in gamma (ROADMAP items 7 and 12) may assume that E does not
        # rise with gamma only for levels >= 1/2, the LHV bound.
        below, at_one = (DetectorParams.from_ratio(1.0 - 1e-5, g, 3.01) for g in (1.0 - 1e-5, 1.0))
        assert exact_e_reference(below) == 0.24936907738148376
        assert exact_e_reference(at_one) == 0.24936907738154593
        assert det.corrected_correlation(at_one, "exact") > det.corrected_correlation(below, "exact")


class TestProbabilityRanges:
    def test_unit_interval_on_grid(self):
        # Every probability of the model lies in [0, 1], large gamma included.
        ds = cli._linspace(0.0, 1.0, 101)
        gs = cli._linspace(0.0, 1.0, 101)
        for d in ds:
            for g in gs:
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
        for g in cli._linspace(0.0, 0.1, 11):
            assert det.signal_probability(twopair(1.0, g)) == pytest.approx(1.0)
            assert det.fourfold_probability(twopair(1.0, g)) == pytest.approx(1.0)


class TestObservedRatio:
    def test_reported_count_ratio(self):
        assert det.correlation_from_ratio(1 / 12) == pytest.approx(12 / 13)

    def test_extremes(self):
        assert det.correlation_from_ratio(0.0) == 1.0
        assert det.correlation_from_ratio(1.0) == 0.5

    @pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative(self, r):
        with pytest.raises(ValueError, match=f"count ratio={r} must be finite and >= 0"):
            det.correlation_from_ratio(r)


class TestSigma:
    def test_sigma_values(self):
        assert det.sigma_of_correlation(0.92) == pytest.approx(0.392, abs=1e-3)
        assert det.sigma_of_correlation(1.0) == 0.0
        assert det.sigma_of_correlation(0.0) == 1.0

    def test_sigma_matches_bernoulli_variance(self):
        # A ±1 product with mean E is +1 with probability p = (1 + E)/2, and
        # its variance 1 - E^2 is the Bernoulli 4 p (1 - p).
        for e in cli._linspace(-1.0, 1.0, 41):
            p_plus = (1.0 + e) / 2.0
            assert det.sigma_of_correlation(e) ** 2 == pytest.approx(
                4 * p_plus * (1 - p_plus), abs=1e-12
            )

    @pytest.mark.parametrize("e", [math.nan, 1.0 + 2**-52, -1.5])
    def test_sigma_rejects_outside_the_unit_interval(self, e):
        with pytest.raises(ValueError, match="outside \\[-1, 1\\]"):
            det.sigma_of_correlation(e)

    def test_separation_reported_point(self):
        assert det.sigma_separation(0.92) == pytest.approx(1.07, abs=0.01)
        assert det.sigma_separation(0.92) > 1.0

    def test_separation_saturates(self):
        assert det.sigma_separation(1.0) == math.inf

    def test_separation_requires_excess(self):
        assert math.isnan(det.sigma_separation(0.5))
        assert math.isnan(det.sigma_separation(0.3))

    # nan where |E| is at or below the bound, finite above it, inf once saturated.
    SEPARATION_ES = [-1.0, 0.3, 0.5, 0.5 + 2**-52, 0.92, 1 - 1e-13, 1.0]

    def test_separation_float_equals_its_row_cell(self):
        row = det._cells(self.SEPARATION_ES)
        assert bits(row[0::3]) == bits(self.SEPARATION_ES)
        for e, sigma, separation in zip(*[iter(row)] * 3):
            got = det.sigma_separation(e)
            assert type(got) is float
            assert bits([det.sigma_of_correlation(e), got]) == bits([sigma, separation]), e
        assert [math.isnan(v) for v in row[2::3]] == [False, True, True, False, False, False, False]
        assert [math.isinf(v) for v in row[2::3]] == [True] + [False] * 4 + [True, True]

    def test_separation_ignores_the_sign_of_e(self):
        # The LHV bound is on |F|, and the model tetrad (E, E, E, -E) has
        # |F| = 4|E|: -E lies exactly as far beyond it as E.
        es = [0.0, 0.3, 0.5, 0.5 + 2**-52, 0.92, 1 - 1e-13, 1.0]
        for e in es:
            assert struct.pack("d", det.sigma_separation(-e)) == struct.pack("d", det.sigma_separation(e))
        row = det._cells(es)
        assert bits(det._cells([-e for e in es])[2::3]) == bits(row[2::3])
        assert [math.isnan(v) for v in row[2::3]] == [True, True, True, False, False, False, False]

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_float_chain_equals_its_grid_cell(self, mode):
        # E, sigma and the separation of each float (d, gamma), bit for bit
        # against the same cell of one sweep grid.  The grid strides the axes
        # that `ghzdet sweep` writes for the 300x300 sweep in bench/workloads.py
        # and keeps its row 285, where glibc's pow(g, 2) and g*g differ.
        # gamma = 1e-2 puts E below the bound (separation nan), gamma = 1e-13
        # puts 1 - E below 1e-13 (inf).
        # (gamma/d)^2 overflows at d = 1e-170, and at d = 1e-310 so does
        # gamma/d; at ratio 0 there is no background to overflow.
        gammas = [1e-13] + cli._geomspace(1e-8, 1e-5, 300)[::15] + [1e-2, 1.0]
        ds = [1e-310, 1e-170] + cli._linspace(0.3, 0.9, 300)[::2]
        for ratio in (1e10, 0.0):
            rows = list(det.correlation_rows(gammas, ds, ratio, mode=mode))
            assert len(rows) == len(gammas) and {len(row) for row in rows} == {3 * len(ds)}
            if ratio:
                separations = [v for row in rows for v in row[2::3]]
                assert any(map(math.isnan, separations)) and any(map(math.isinf, separations))
            for g, row in zip(gammas, rows):
                floats = []
                for d in ds:
                    e = det.corrected_correlation(DetectorParams.from_ratio(d, g, ratio), mode)
                    floats += [e, det.sigma_of_correlation(e), det.sigma_separation(e)]
                assert bits(row) == bits(floats), (ratio, g)

    def test_reduced_dark_rate_scenario(self):
        gamma = det.gamma_from_rates(50, 2e-9)
        e = det.corrected_correlation(DetectorParams.from_ratio(0.5, gamma, 1e10))
        assert e == pytest.approx(0.9976, abs=2e-4)
        assert det.sigma_separation(e) == pytest.approx(7.2, rel=0.05)


class TestLhvBound:
    # detector.LHV_BOUND is lhv's bound |F| <= F_BOUND on the model tetrad
    # (E, E, E, -E), whose F is 4E: the two modules meet at one float.
    ABOVE = math.nextafter(det.LHV_BOUND, 1.0)

    def test_model_tetrad_feasible_up_to_the_bound(self):
        e = det.LHV_BOUND
        at = lhv.check_inequalities(lhv.CorrelationSet(e, e, e, -e))
        assert at.feasible and at.f_value == lhv.F_BOUND
        e = self.ABOVE
        above = lhv.check_inequalities(lhv.CorrelationSet(e, e, e, -e))
        assert not above.feasible and above.f_value == math.nextafter(lhv.F_BOUND, 4.0)

    def test_separation_starts_just_above_the_bound(self):
        assert math.isnan(det.sigma_separation(det.LHV_BOUND))
        separation = det.sigma_separation(self.ABOVE)
        assert 0.0 < separation < math.inf
        assert separation == pytest.approx(1.28e-16, rel=1e-2)


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

    def test_round_trip_up_to_the_largest_ratio(self):
        # 6 ratio overflows above about 3e307; it once made gamma 0.
        assert det.find_gamma_for_correlation(0.5, 1e308, 0.5) == pytest.approx(2.0412414523e-155,
                                                                               rel=1e-10)
        for ratio in (1e-3, 1.0, 1e10, 1e300, 3e307, 1e308, 1.7e308):
            for d in (1e-3, 0.3, 1.0):
                for target in (1e-3, 0.5, 0.92, 1.0 - 1e-9):
                    try:
                        g = det.find_gamma_for_correlation(d, ratio, target)
                    except ValueError:
                        assert d * d * (1.0 / target - 1.0) > 6.0 * ratio, (d, ratio, target)
                        continue
                    e = det.corrected_correlation(DetectorParams.from_ratio(d, g, ratio), "approx")
                    assert e == pytest.approx(target, abs=1e-12), (d, ratio, target, g)

    def test_unreachable_target_rejected(self):
        # E = 1e-12 needs gamma = 2.0 here; gamma is a probability.
        with pytest.raises(ValueError, match="gamma <= 1"):
            det.find_gamma_for_correlation(0.5, 1e10, 1e-12)


def nonnegative_on_unit_box(sympy, expr, *xs) -> bool:
    """Whether the polynomial expr is certified >= 0 for every xs in [0, 1]^n.

    Put x = y / (1 + y), which maps y in [0, inf) onto x in [0, 1), and
    multiply by (1 + y)^n for n the degree in x: a term c x^k becomes
    c y^k (1 + y)^(n - k).  If every coefficient of the result in the ys is
    >= 0 (these are expr's Bernstein coefficients times binomials), expr is
    >= 0 on [0, 1)^n, and by continuity on [0, 1]^n.
    """
    poly = sympy.Poly(sympy.expand(expr), *xs)
    ys = sympy.symbols(f"y:{len(xs)}")
    degrees = poly.degree_list()
    total = sum(c * sympy.prod([y**k * (1 + y) ** (n - k) for y, k, n in zip(ys, powers, degrees)])
                for powers, c in poly.terms())
    return all(c >= 0 for c in sympy.Poly(sympy.expand(total), *ys).coeffs())


def union_per_a(sympy):
    """(a, r, g): _normalised_row's g = U / a as a polynomial in a and r = b / a."""
    a, r = sympy.symbols("a r")
    c, e = 1 - a, 1 - r * a
    s6 = 1 + c * (1 + c * (1 + c * (1 + c * (1 + c))))
    return a, r, s6 + r * (1 + e * (1 + e * (1 + e))) * (1 - a * s6)


class TestSymbolicIdentities:
    """The model's closed forms, proved with sympy from ARRIVAL_COUNTS and the
    polynomial of fire_probabilities.  The four detectors share d and gamma
    here; per-detector parameters would break the union's form."""

    @pytest.fixture(scope="class")
    def model(self):
        sympy = pytest.importorskip("sympy")
        d, gamma = sympy.symbols("d gamma", positive=True)
        # The click rule's 1.0 and its products become exact rationals.
        fire = [sympy.nsimplify(f, rational=True) for f in det.fire_probabilities(d, gamma)]
        return sympy, d, gamma, fire

    def test_pair_union_closed_form(self, model):
        sympy, d, gamma, fire = model
        none_fire = sympy.Integer(1)
        for counts in det.ARRIVAL_COUNTS:
            none_fire *= 1 - sympy.prod(fire[n] for n in counts)
        a = (fire[1] * gamma) ** 2
        b = fire[2] * gamma ** 3
        assert sympy.expand((1 - none_fire) - (1 - (1 - a) ** 6 * (1 - b) ** 4)) == 0

    def test_two_photons_fire_as_one_times_one_minus_d(self, model):
        sympy, d, _, fire = model
        assert sympy.expand(fire[2] - (1 - d) * fire[1]) == 0

    def test_exact_correlation_normalised_by_the_double_pair(self, model):
        # E = e_ghz signal / P(fourfold), where a double pair fires every
        # detector on its one photon (f1^4), of which the correlated part
        # fires D1..D3 on their photons (d^3 f1), and a single pair gives the
        # union U.  _row's form: e_ghz T / (1 + w^2 g), T = (d / f1)^3,
        # w = (gamma / f1) sqrt(p_pair / p_twopair) and g = U / (f1 gamma)^2.
        sympy, d, gamma, fire = model
        e_ghz, p_pair, p_twopair, union = sympy.symbols("e_ghz p_pair p_twopair U", positive=True)
        f1 = fire[1]
        signal = p_twopair * d ** 3 * f1
        fourfold = p_pair * union + p_twopair * f1 ** 4
        t, w2, g = (d / f1) ** 3, (gamma / f1) ** 2 * p_pair / p_twopair, union / (f1 * gamma) ** 2
        assert sympy.cancel(e_ghz * signal / fourfold - e_ghz * t / (1 + w2 * g)) == 0

    def test_t_and_z_lie_in_the_unit_interval(self, model):
        # Over d, gamma in [0, 1], f1 - d = (1 - d) gamma and f1 - gamma =
        # d (1 - gamma) are >= 0, so f1 >= max(d, gamma), which is > 0 off
        # (0, 0).  There t = d / f1 and z = gamma / f1 lie in [0, 1]; t > 0
        # where d > 0.  _normalised_row claims T = t^3 in [0, 1], and _row
        # relies on z <= 1 in exact mode.
        sympy, d, gamma, fire = model
        f1 = fire[1]
        assert sympy.expand(f1 - d - (1 - d) * gamma) == 0
        assert sympy.expand(f1 - gamma - d * (1 - gamma)) == 0
        assert nonnegative_on_unit_box(sympy, f1 - d, d, gamma)
        assert nonnegative_on_unit_box(sympy, f1 - gamma, d, gamma)

    def test_g_lies_between_1_and_10(self, model):
        # g = U / a, with a = (f1 gamma)^2 and b = f2 gamma^3 = r a, where
        # r = b / a = (f2 / f1) z.  Over d, gamma in [0, 1]: a is in [0, 1]
        # since 1 - f1 >= 0, and r is in [0, 1] since f1 - (f2 / f1) gamma
        # >= 0 (the z bound gives r >= 0).  Then over a, r in [0, 1],
        # _normalised_row's g = s6 + r s4 (1 - a s6) is the union per a, and
        # g - 1 >= 0 and 10 - g >= 0: U >= 1 - (1-a)^6 >= a, and U <= 6a + 4b
        # with b <= a.  At a = 0 (gamma = 0) g is the limit 6 + 4r.
        sympy, d, gamma, fire = model
        f1, f2 = fire[1], fire[2]
        assert nonnegative_on_unit_box(sympy, 1 - f1, d, gamma)
        assert nonnegative_on_unit_box(sympy, sympy.cancel(f1 - f2 / f1 * gamma), d, gamma)
        a, r, g = union_per_a(sympy)
        assert sympy.expand(a * g - (1 - (1 - a) ** 6 * (1 - r * a) ** 4)) == 0
        assert nonnegative_on_unit_box(sympy, g - 1, a, r)
        assert nonnegative_on_unit_box(sympy, 10 - g, a, r)

    def test_e_does_not_fall_as_d_rises(self, model):
        # With t = d / f1, z = gamma / f1, a = (f1 gamma)^2 and r = b / a =
        # (1 - d) z, exact E = e_ghz t^3 / (1 + R z^2 g(a, r)), R = p_pair /
        # p_twopair >= 0.  Over d, gamma in [0, 1] (off (0, 0), where f1 > 0):
        # dt/dd = gamma / f1^2 >= 0 and da/dd = 2 gamma^2 (1 - gamma) f1 >= 0,
        # while dz/dd = -gamma (1 - gamma) / f1^2 <= 0 and dr/dd = -gamma / f1^2
        # <= 0.  On a, r in [0, 1], -dg/da >= 0 and dg/dr >= 0, so g does not
        # rise as d does: a rises and r falls.  So 1 + R z^2 g, which is >= 1,
        # does not rise, t^3 >= 0 does not fall, and E does not fall as d
        # rises where e_ghz >= 0; where e_ghz < 0, |E| does not.  Approx E,
        # e_ghz / (1 + 6 R (gamma / d)^2), does not either, as (gamma / d)^2
        # falls.  This is what a bisection or a corner rule in d may rest on.
        sympy, d, gamma, fire = model
        f1, f2 = fire[1], fire[2]
        t, z = d / f1, gamma / f1
        a, r = (f1 * gamma) ** 2, sympy.cancel(f2 / f1 * z)
        assert sympy.cancel(r - (1 - d) * z) == 0
        for x, slope, sign in [(t, gamma / f1 ** 2, 1), (a, 2 * gamma ** 2 * (1 - gamma) * f1, 1),
                               (z, -gamma * (1 - gamma) / f1 ** 2, -1), (r, -gamma / f1 ** 2, -1)]:
            assert sympy.cancel(sympy.diff(x, d) - slope) == 0
            # f1^2 > 0, so the slope has the sign of the polynomial slope f1^2.
            assert nonnegative_on_unit_box(sympy, sympy.cancel(sign * slope * f1 ** 2), d, gamma)
        assert sympy.cancel(sympy.diff((gamma / d) ** 2, d) + 2 * gamma ** 2 / d ** 3) == 0
        a, r, g = union_per_a(sympy)
        assert nonnegative_on_unit_box(sympy, -sympy.diff(g, a), a, r)
        assert nonnegative_on_unit_box(sympy, sympy.diff(g, r), a, r)
