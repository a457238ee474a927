"""Propagation model: forward RSS, inverse ranging, shadowing, quantization."""

import functools
import math
import operator
import sys

import numpy as np
import pytest

from gridloc.channel import (A_DBM_RANGE, N_EXP_MAX, RECEPTION_RADIUS_MAX_M, SCREEN_DB,
                             SIGMA_DBM_MAX, ChannelParams, average_levels, distance_to_rss,
                             link_rss, _inverse_ranges, _links, receive_rounds,
                             round_half_away_array, rss_to_distance, sample_rss)
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


# rss_to_distance(rss, -45.0, n, d_max) before the ranging was batched, as
# (rss, n, d_max, distance_m.hex(), clamped).
RANGE_TABLE = [
    # Above a_dbm: the D_MIN_M clamp, and on its bound at -25 (10 ** -1.0).
    (-44.999, 2.0, 120.0, '0x1.fff0e92028d1ap-1', False),
    (-25.0, 2.0, 120.0, '0x1.999999999999ap-4', False),
    (-24.5, 2.0, 120.0, '0x1.999999999999ap-4', True),
    (10.0, 2.0, 120.0, '0x1.999999999999ap-4', True),
    (55.0, 2.0, 120.0, '0x1.999999999999ap-4', True),
    # Far below a_dbm at n 0.005: past d_max, and from -65 on past a float.
    (-46.6, 0.005, 120.0, '0x1.e000000000000p+6', True),
    (-47.0, 0.005, 120.0, '0x1.e000000000000p+6', True),
    (-65.0, 0.005, 120.0, '0x1.e000000000000p+6', True),
    (-145.0, 0.005, 120.0, '0x1.e000000000000p+6', True),
    (-100000.0, 0.005, 120.0, '0x1.e000000000000p+6', True),
    # At the d_max boundary: 10 ** 2.0 is exactly 100.0, unclamped.
    (-84.99999999, 2.0, 100.0, '0x1.8ffffff846189p+6', False),
    (-85.0, 2.0, 100.0, '0x1.9000000000000p+6', False),
    (-85.00000001, 2.0, 100.0, '0x1.9000000000000p+6', True),
    # Ordinary levels, and at n 1.6 two past d_max.
    (-46.0, 1.6, 120.0, '0x1.279fcaca404e6p+0', False),
    (-46.0, 2.0, 120.0, '0x1.1f3c99f6bc436p+0', False),
    (-46.0, 3.3, 120.0, '0x1.12801acb1b6b9p+0', False),
    (-49.37, 1.6, 120.0, '0x1.e02303452f7e2p+0', False),
    (-49.37, 2.0, 120.0, '0x1.a763aeba99539p+0', False),
    (-49.37, 3.3, 120.0, '0x1.5b447e669cadap+0', False),
    (-52.74, 1.6, 120.0, '0x1.85e7f2a31057dp+1', False),
    (-52.74, 2.0, 120.0, '0x1.380a2f555d490p+1', False),
    (-52.74, 3.3, 120.0, '0x1.b7531231f781bp+0', False),
    (-56.11, 1.6, 120.0, '0x1.3ca1d2dde4223p+2', False),
    (-56.11, 2.0, 120.0, '0x1.cbf305d6cc447p+1', False),
    (-56.11, 3.3, 120.0, '0x1.15e472eed5568p+1', False),
    (-59.48, 1.6, 120.0, '0x1.0120dc24560e5p+3', False),
    (-59.48, 2.0, 120.0, '0x1.52fc0f0380e58p+2', False),
    (-59.48, 3.3, 120.0, '0x1.5f8f06e337f74p+1', False),
    (-62.85, 1.6, 120.0, '0x1.a19d2a9f6652ep+3', False),
    (-62.85, 2.0, 120.0, '0x1.f3aa8c319f9e6p+2', False),
    (-62.85, 3.3, 120.0, '0x1.bcc0d04efa003p+1', False),
    (-66.22, 1.6, 120.0, '0x1.532208c111779p+4', False),
    (-66.22, 2.0, 120.0, '0x1.7041915f6cf02p+3', False),
    (-66.22, 3.3, 120.0, '0x1.195385f5d3ea2p+2', False),
    (-69.59, 1.6, 120.0, '0x1.13669214b9a2fp+5', False),
    (-69.59, 2.0, 120.0, '0x1.0f6805a8e84e2p+4', False),
    (-69.59, 3.3, 120.0, '0x1.63e7226ed0ef4p+2', False),
    (-72.96, 1.6, 120.0, '0x1.bf4a735075660p+5', False),
    (-72.96, 2.0, 120.0, '0x1.900e25613ea21p+4', False),
    (-72.96, 3.3, 120.0, '0x1.c23fbaae78199p+2', False),
    (-76.33, 1.6, 120.0, '0x1.6b3b9519413bdp+6', False),
    (-76.33, 2.0, 120.0, '0x1.26d7a9b87e2cbp+5', False),
    (-76.33, 3.3, 120.0, '0x1.1ccd75d17dfcep+3', False),
    (-79.7, 1.6, 120.0, '0x1.e000000000000p+6', True),
    (-79.7, 2.0, 120.0, '0x1.b299aafad0ed9p+5', False),
    (-79.7, 3.3, 120.0, '0x1.684cfbfa46452p+3', False),
    (-83.07, 1.6, 120.0, '0x1.e000000000000p+6', True),
    (-83.07, 2.0, 120.0, '0x1.404d605911ae7p+6', False),
    (-83.07, 3.3, 120.0, '0x1.c7d007a36855bp+3', False),
]


class TestInverseRanges:
    """_inverse_ranges, the one ranging function, bit for bit."""

    @pytest.mark.parametrize("rss,n,d_max,want,clamped", RANGE_TABLE)
    def test_one_level_matches_the_table(self, rss, n, d_max, want, clamped):
        (d,), count = _inverse_ranges([rss], -45.0, n, d_max)
        assert (d.hex(), count) == (want, int(clamped))
        r = rss_to_distance(rss, -45.0, n, d_max)
        assert (r.distance_m.hex(), r.clamped) == (want, clamped)

    def test_a_sequence_is_each_level_in_turn(self):
        groups = {}
        for rss, n, d_max, want, clamped in RANGE_TABLE:
            groups.setdefault((n, d_max), []).append((rss, want, clamped))
        for (n, d_max), rows in groups.items():
            ranges, count = _inverse_ranges((r[0] for r in rows), -45.0, n, d_max)
            assert [d.hex() for d in ranges] == [r[1] for r in rows]
            assert count == sum(r[2] for r in rows)
        assert _inverse_ranges([], -45.0, 2.0, 120.0) == ([], 0)

    def test_the_overflow_path_is_taken(self):
        with pytest.raises(OverflowError):
            10.0 ** ((-45.0 - -65.0) / (10.0 * 0.005))
        assert _inverse_ranges([-65.0, -46.0], -45.0, 0.005, 7.5)[0][0] == 7.5

    @pytest.mark.parametrize("n", [0.0, -1.0, -math.inf])
    @pytest.mark.parametrize("levels", [[-50.0], [], [-50.0, -60.0, -70.0, -80.0]])
    def test_a_nonpositive_exponent_is_rejected(self, n, levels):
        with pytest.raises(ValueError, match="n_exp must be positive"):
            _inverse_ranges(levels, -45.0, n, 120.0)


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
            cals, tests = receive_rounds([len(r) for r in means], 8, cal_mean,
                                         params, rng_a, quantize)
            avgs = average_levels(tests, np.array([m for r in means for m in r]),
                                  quantize)
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
            assert avgs.tolist() == want_avgs
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("a_dbm", A_DBM_RANGE)
    def test_levels_stay_finite_at_the_bounds(self, a_dbm, quantize):
        params = ChannelParams(a_dbm=a_dbm, n_exp=N_EXP_MAX, sigma_dbm=SIGMA_DBM_MAX,
                               reception_radius_m=RECEPTION_RADIUS_MAX_M)
        # The shortest and longest links a float holds, and a middling one.
        # No radius reaches the longest, so its mean is the model's level.
        means = [distance_to_rss(d, params) for d in (5e-324, 4.0, sys.float_info.max)]
        cals, tests = receive_rounds([3], MAX_ACCUM_COUNT, means[0], params,
                                     np.random.default_rng(3), quantize)
        avgs = average_levels(tests, np.array(means), quantize)
        assert all(abs(v) < 1e5 for v in cals + avgs.tolist())

    def test_link_beyond_radius_is_none(self):
        assert link_rss(30.0, PARAMS) == distance_to_rss(30.0, PARAMS)
        assert link_rss(30.5, PARAMS) is None

    def test_nonpositive_link_rejected(self):
        with pytest.raises(ValueError):
            link_rss(0.0, PARAMS)


class TestScreen:
    """numpy's hypot and log10 can differ from math's in the last bits, and
    by CPU. A run screens links with them, and reads only math's."""

    def test_screened_means_stay_near_link_rss(self):
        # The screen assumes SCREEN_DB; the host must keep to a hundredth.
        params = ChannelParams(n_exp=N_EXP_MAX, reception_radius_m=1e3)
        rng = np.random.default_rng(5)
        lengths = rng.uniform(0.01, 4 * ChannelParams.reception_radius_m, 200_000)
        angles = rng.uniform(0.0, 2 * math.pi, lengths.size)
        beacon_xy = np.column_stack([lengths * np.cos(angles), lengths * np.sin(angles)])
        ids, screen, counts, exact = _links(beacon_xy, [(0.0, 0.0)], params,
                                            np.arange(lengths.size)[None])
        assert counts == [lengths.size]
        want = [link_rss(math.hypot(x, y), params) for x, y in beacon_xy.tolist()]
        assert np.abs(screen - want).max() <= SCREEN_DB / 100
        assert exact(ids).tolist() == want

    def test_math_makes_the_cut(self):
        # Where numpy's length differs from math's, a radius at either one,
        # or a float either side of math's, hears the link as math says.
        rng = np.random.default_rng(1)
        beacon_xy = rng.uniform(-30.0, 30.0, (200_000, 2))
        d_np = np.hypot(beacon_xy[:, 0], beacon_xy[:, 1]).tolist()
        d_math = [math.hypot(x, y) for x, y in beacon_xy.tolist()]
        differ = [i for i, (a, b) in enumerate(zip(d_np, d_math)) if a != b]
        for i in differ[:20] + [0, 1]:
            d = d_math[i]
            for radius in (d_np[i], d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
                params = ChannelParams(reception_radius_m=radius)
                _, _, counts, _ = _links(beacon_xy[i:i + 1], [(0.0, 0.0)], params,
                                         np.zeros((1, 1), int))
                assert counts == [int(d <= radius)]


def test_quantization_ranging_error_bound():
    """Half-dBm rounding at n=2 moves the ranged distance by under 5.93%."""
    bound = 10.0 ** (0.5 / 20.0) - 1.0
    for d in np.linspace(0.5, 25.0, 500):
        rss = distance_to_rss(float(d), PARAMS)
        back, _ = rss_to_distance(float(round_half_away_array(rss)), -45.0, 2.0)
        assert abs(back - d) / d <= bound + 1e-12
