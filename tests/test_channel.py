"""Propagation model: forward RSS, inverse ranging, shadowing, quantization."""

import functools
import math
import operator
import sys

import numpy as np
import pytest

from gridloc.channel import (A_DBM_RANGE, N_EXP_MAX, SIGMA_DBM_MAX,
                             ChannelParams, distance_to_rss, link_rss,
                             receive_rounds, round_half_away_array,
                             rss_to_distance, sample_rss)
from gridloc.protocol import MAX_ACCUM_COUNT

PARAMS = ChannelParams(a_dbm=-45.0, n_exp=2.0, sigma_dbm=0.0)


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        {"n_exp": 0.0},
        {"n_exp": -2.0},
        {"sigma_dbm": -0.1},
        {"reception_radius_m": 0.0},
        {"sigma_dbm": math.nan},
        {"a_dbm": math.inf},
        {"reception_radius_m": math.inf},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)

    def test_ranging_clamp_scales_with_radius(self):
        assert ChannelParams(reception_radius_m=30.0).d_max_m == 120.0


class TestDistanceToRss:
    def test_reference_distance(self):
        assert distance_to_rss(1.0, PARAMS) == -45.0

    def test_decade(self):
        assert distance_to_rss(10.0, PARAMS) == pytest.approx(-65.0)

    def test_four_meters(self):
        expected = -45.0 - 20.0 * math.log10(4.0)
        assert distance_to_rss(4.0, PARAMS) == pytest.approx(expected, abs=1e-12)

    def test_strictly_decreasing(self):
        last = math.inf
        for d in np.logspace(-1, 2, 200):
            rss = distance_to_rss(float(d), PARAMS)
            assert rss < last
            last = rss

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_nonpositive_distance_rejected(self, d):
        with pytest.raises(ValueError):
            distance_to_rss(d, PARAMS)


class TestRssToDistance:
    def test_reference_power(self):
        assert rss_to_distance(-45.0, -45.0, 2.0) == (1.0, False)

    def test_decade(self):
        d, clamped = rss_to_distance(-65.0, -45.0, 2.0)
        assert d == pytest.approx(10.0)
        assert not clamped

    def test_round_trip_sample_points(self):
        for d in (0.5, 1.0, 2.0, 4.0, 8.0):
            back, clamped = rss_to_distance(distance_to_rss(d, PARAMS), -45.0, 2.0)
            assert not clamped
            assert back == pytest.approx(d, rel=1e-12)

    def test_low_clamp(self):
        # RSS above the reference power implies a sub-reference distance.
        d, clamped = rss_to_distance(-20.0, -45.0, 2.0)
        assert d == 0.1
        assert clamped

    def test_high_clamp(self):
        d, clamped = rss_to_distance(-145.0, -45.0, 2.0, d_max=120.0)
        assert d == 120.0
        assert clamped

    def test_overflowing_inverse_clamps_high(self):
        # 10 ** (20 / 0.02) is beyond a float.
        assert rss_to_distance(-65.0, -45.0, 0.002, d_max=120.0) == (120.0, True)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            rss_to_distance(-50.0, -45.0, 0.0)


class TestRoundHalfAway:
    @pytest.mark.parametrize("value,expected", [
        (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3),
        (-0.4, 0), (-0.5, -1), (-1.5, -2), (-57.5, -58),
        (-57.0412, -57), (3.0, 3),
    ])
    def test_values(self, value, expected):
        assert round_half_away_array(np.array(value)) == expected

    def test_array_form_matches(self):
        rng = np.random.default_rng(5)
        values = ([0.5, -0.5, 44.5, -44.5, -0.3]
                  + list(rng.uniform(-100.0, 100.0, 200))
                  + list(rng.integers(-200, 200, 100) / 2))
        got = round_half_away_array(np.array(values)).tolist()
        want = [float(math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5))
                for v in values]
        assert got == want
        # Equal and of the same sign: no -0.0 where integer rounding gives 0.
        assert [math.copysign(1.0, g) for g in got] == \
            [math.copysign(1.0, w) for w in want]


class TestSampleRss:
    def test_noiseless_equals_deterministic(self):
        rss = distance_to_rss(5.0, PARAMS)
        assert sample_rss(5.0, PARAMS, np.random.default_rng(0)) == rss
        assert (sample_rss(5.0, PARAMS, np.random.default_rng(0), quantize=True)
                == round_half_away_array(np.array(rss)) == -59.0)

    def test_out_of_range_is_none(self):
        rng = np.random.default_rng(0)
        assert sample_rss(50.0, PARAMS, rng) is None

    def test_same_seed_same_draws(self):
        noisy = ChannelParams(sigma_dbm=4.0)
        a = [sample_rss(4.0, noisy, np.random.default_rng(7)) for _ in range(1)]
        b = [sample_rss(4.0, noisy, np.random.default_rng(7)) for _ in range(1)]
        assert a == b

    def test_noise_level_does_not_shift_stream(self):
        """A zero-sigma draw still consumes one stream position."""
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        sample_rss(4.0, ChannelParams(sigma_dbm=0.0), rng_a)
        sample_rss(4.0, ChannelParams(sigma_dbm=2.0), rng_b)
        assert rng_a.normal() == rng_b.normal()

    def test_shadowing_statistics(self):
        noisy = ChannelParams(sigma_dbm=3.0)
        rng = np.random.default_rng(11)
        base = distance_to_rss(4.0, noisy)
        draws = np.array([sample_rss(4.0, noisy, rng) - base
                          for _ in range(4000)])
        assert abs(draws.mean()) < 0.2
        assert abs(draws.std() - 3.0) < 0.2

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            sample_rss(0.0, PARAMS, np.random.default_rng(0))


class TestReceive:
    """One draw for consecutive rounds must equal one sample_rss call per
    packet, in schedule order."""

    @pytest.mark.parametrize("sigma", [0.0, 3.0])
    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("dists", [[1.5, 4.0, 5.7, 12.0, 29.9], []])
    def test_block_matches_successive_receive_calls(self, sigma, quantize, dists):
        params = ChannelParams(sigma_dbm=sigma)
        # Rounds hearing different numbers of links, one hearing none.
        rounds = [dists, dists[1:4], [], dists[:1]]
        means = [[link_rss(d, params) for d in r] for r in rounds]
        for cal_d in (None, 7.5):
            cal_mean = link_rss(cal_d, params) if cal_d is not None else None
            rng_a = np.random.default_rng(11)
            rng_b = np.random.default_rng(11)
            cals, avgs = receive_rounds([m for r in means for m in r],
                                        [len(r) for r in means], 8, cal_mean,
                                        params, rng_a, quantize)
            want_cals, want_avgs = [], []
            for r in rounds:
                if cal_d is not None:
                    want_cals.append(sample_rss(cal_d, params, rng_b, quantize))
                # Start, acks, 8 tests, request, responses; tests added in order.
                rows = [[sample_rss(d, params, rng_b, quantize) for d in r]
                        for _ in range(12)]
                want_avgs.extend([functools.reduce(operator.add, levels) / 8
                                  for levels in zip(*rows[2:10])])
            assert cals == want_cals
            assert avgs == want_avgs
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("a_dbm", A_DBM_RANGE)
    def test_levels_stay_finite_at_the_bounds(self, a_dbm, quantize):
        params = ChannelParams(a_dbm=a_dbm, n_exp=N_EXP_MAX, sigma_dbm=SIGMA_DBM_MAX,
                               reception_radius_m=sys.float_info.max)
        # The shortest and longest links a float holds, and a middling one.
        means = [link_rss(d, params) for d in (5e-324, 4.0, sys.float_info.max)]
        cals, avgs = receive_rounds(means, [3], MAX_ACCUM_COUNT, means[0], params,
                                    np.random.default_rng(3), quantize)
        assert all(abs(v) < 1e5 for v in cals + avgs)

    def test_link_beyond_radius_is_none(self):
        assert link_rss(30.0, PARAMS) == distance_to_rss(30.0, PARAMS)
        assert link_rss(30.5, PARAMS) is None

    def test_nonpositive_link_rejected(self):
        with pytest.raises(ValueError):
            link_rss(0.0, PARAMS)


def test_quantization_ranging_error_bound():
    """Half-dBm rounding at n=2 moves the ranged distance by under 5.93%."""
    bound = 10.0 ** (0.5 / 20.0) - 1.0
    for d in np.linspace(0.5, 25.0, 500):
        rss = distance_to_rss(float(d), PARAMS)
        back, _ = rss_to_distance(float(round_half_away_array(rss)), -45.0, 2.0)
        assert abs(back - d) / d <= bound + 1e-12
