"""Estimator: selection, exponent adaptation, refinement, degenerate handlers, dispatch."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridloc.channel import D_MIN_M, ChannelParams, distance_to_rss, rss_to_distance
from gridloc.estimator import (Estimate, EstimatorState, FixMethod,
                               LocalizerConfig, RssiReport, _cell_plan, adapt_n,
                               localize, select_top4, weighted_centroid)
from gridloc.geometry import (CellId, GeometryError, GridSpec, Point,
                              containing_cell, dist)
from oracles import (build_lattice, near_beacon_estimate, pair_split_estimate,
                     range_of, refine_in_cell)

A_DBM = -45.0
GRID = GridSpec(origin=Point(0.0, 0.0), spacing_m=4.0, cols=3, rows=3)
CONFIG = LocalizerConfig(grid=GRID, a_dbm=A_DBM)
PARAMS = ChannelParams(a_dbm=A_DBM, n_exp=2.0)


def noiseless_report(beacon: Point, blind: Point, n_exp: float = 2.0) -> RssiReport:
    d = dist(beacon, blind)
    return RssiReport(beacon, A_DBM - 10.0 * n_exp * math.log10(d), 8)


def reports_for(blind: Point, grid: GridSpec = GRID) -> list[RssiReport]:
    return [noiseless_report(b.pos, blind) for b in build_lattice(grid)]


class TestSelectTop4:
    def test_interior_point_selects_cell_corners(self):
        top4 = select_top4(reports_for(Point(1.5, 1.5)))
        assert {tuple(r.beacon_pos) for r in top4} == {(0, 0), (4, 0), (0, 4), (4, 4)}

    def test_exactly_four_pass_through(self):
        reports = reports_for(Point(1.5, 1.5))[:4]
        assert set(map(id, select_top4(reports))) == set(map(id, reports))

    def test_three_reports_insufficient(self):
        assert select_top4(reports_for(Point(1.5, 1.5))[:3]) is None

    def test_sorted_strongest_first(self):
        top4 = select_top4(reports_for(Point(0.5, 0.9)))
        values = [r.avg_rssi_dbm for r in top4]
        assert values == sorted(values, reverse=True)

    def test_tie_breaks_by_position(self):
        reports = [RssiReport(Point(x, y), -50.0) for x, y in
                   [(8, 0), (4, 4), (0, 0), (4, 0), (0, 4)]]
        top4 = select_top4(reports)
        assert [tuple(r.beacon_pos) for r in top4] == [(0, 0), (0, 4), (4, 0), (4, 4)]

    def test_invariant_under_constant_offset(self):
        reports = reports_for(Point(2.3, 5.1))
        shifted = [RssiReport(r.beacon_pos, r.avg_rssi_dbm + 17.0, r.sample_count)
                   for r in reports]
        a = [tuple(r.beacon_pos) for r in select_top4(reports)]
        b = [tuple(r.beacon_pos) for r in select_top4(shifted)]
        assert a == b


@st.composite
def report_sets(draw):
    """0-100 reports in shuffled order, levels on a 1/8 dB grid narrow
    enough that ties are common, positions on a small lattice that may
    repeat."""
    report = st.builds(
        lambda level, i, j: RssiReport(Point(4.0 * i, 4.0 * j), level / 8),
        st.integers(-420, -400), st.integers(0, 3), st.integers(0, 3))
    return draw(st.permutations(draw(st.lists(report, max_size=100))))


def _grid_reports(*levels_and_positions):
    return [RssiReport(Point(float(x), float(y)), level)
            for level, x, y in levels_and_positions]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(_grid_reports((-50, 4, 0), (-50, 0, 0), (-51, 0, 4), (-52, 4, 4)))
@example(_grid_reports((-50, 0, 0), (-51, 4, 0), (-52, 0, 4), (-53, 8, 0),
                       (-53, 4, 4), (-53, 0, 8), (-54, 8, 8)))
@example(_grid_reports((-50, 4, 4), (-50, 0, 0), (-50, 4, 4), (-50, 0, 4),
                       (-50, 0, 0), (-50, 8, 0)))
@given(report_sets())
def test_select_top4_equals_the_full_sort(reports):
    # The first example ties inside the top four, the second across fourth
    # place, the third repeats strength and position; identity shows that
    # equal reports keep their input order, as in a stable sort.
    expected = sorted(reports, key=lambda r: (-r.avg_rssi_dbm, r.beacon_pos))
    top4 = select_top4(reports)
    if len(reports) < 4:
        assert top4 is None
    else:
        assert list(map(id, top4)) == list(map(id, expected[:4]))


class TestAdaptN:
    def test_fixed_point(self):
        rss = distance_to_rss(4.0, PARAMS)
        assert adapt_n(rss, 4.0, 2.0, A_DBM) == pytest.approx(2.0, abs=1e-12)

    def test_apparent_double_distance(self):
        # Apparent length 8 m for a true 4 m link raises the exponent to 3.
        rss = A_DBM - 20.0 * math.log10(8.0)
        assert adapt_n(rss, 4.0, 2.0, A_DBM) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("n_true", [1.5, 2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("n_prime", [1.0, 2.0, 3.0])
    def test_one_step_recovery(self, n_true, n_prime):
        rss = A_DBM - 10.0 * n_true * math.log10(4.0)
        got = adapt_n(rss, 4.0, n_prime, A_DBM)
        assert got == pytest.approx(n_true, abs=1e-9)

    def test_recovery_beyond_ranging_clamp(self):
        """n'=1 makes an 8 m link look like 32768 m; recovery still lands
        on the true exponent because adaptation never clamps the length."""
        rss = A_DBM - 10.0 * 5.0 * math.log10(8.0)
        assert adapt_n(rss, 8.0, 1.0, A_DBM) == pytest.approx(5.0, abs=1e-9)

    def test_result_clamped(self):
        rss = A_DBM - 10.0 * 9.0 * math.log10(4.0)
        assert adapt_n(rss, 4.0, 2.0, A_DBM) == 6.0
        rss = A_DBM - 10.0 * 0.2 * math.log10(4.0)
        assert adapt_n(rss, 4.0, 2.0, A_DBM) == 1.0

    def test_one_meter_link_rejected(self):
        with pytest.raises(ValueError):
            adapt_n(-50.0, 1.0, 2.0, A_DBM)

    @pytest.mark.parametrize("bad", [{"true_dist_m": 0.0}, {"n_prime": 0.0}])
    def test_invalid_inputs(self, bad):
        kwargs = {"rss_between_beacons": -50.0, "true_dist_m": 4.0,
                  "n_prime": 2.0, "a_dbm": A_DBM}
        kwargs.update(bad)
        with pytest.raises(ValueError):
            adapt_n(**kwargs)


def cell_corner_distances(blind: Point, cell=(0.0, 0.0, 4.0, 4.0)):
    x0, y0, x1, y1 = cell
    corners = [Point(x0, y0), Point(x1, y0), Point(x0, y1), Point(x1, y1)]
    return [(c, dist(c, blind)) for c in corners]


class TestRangeOf:
    """range_of is rss_to_distance's distance, bit for bit."""

    @pytest.mark.parametrize("d_max", [120.0, 0.04])
    @pytest.mark.parametrize("n", [1.0, 2.0, 3.3])
    # Raw ranges below, inside and above the window, and exactly on its
    # lower bound (10 ** -1.0 at n 1 and 2) or just past its upper one.
    @pytest.mark.parametrize("rss", [
        10.0, -20.0, -44.999, -45.0, -46.5, -58.25, -65.0, -89.0, -145.0, -400.0,
        -45.0 + 10.0, -45.0 + 20.0, -45.0 - 41.58362492095977,
    ])
    def test_matches_rss_to_distance(self, rss, n, d_max):
        config = LocalizerConfig(grid=GRID, a_dbm=A_DBM, range_d_max=d_max)
        want = rss_to_distance(rss, A_DBM, n, d_max).distance_m
        assert range_of(config, rss, n).hex() == want.hex()

    def test_clamp_window_edges(self):
        # 10 ** -1.0 is exactly D_MIN_M: on the bound, not clamped.
        assert rss_to_distance(A_DBM + 20.0, A_DBM, 2.0) == (D_MIN_M, False)
        assert range_of(CONFIG, A_DBM + 20.0, 2.0) == D_MIN_M
        assert range_of(CONFIG, A_DBM + 30.0, 2.0) == D_MIN_M
        assert range_of(CONFIG, A_DBM - 100.0, 2.0) == CONFIG.range_d_max

    def test_the_lower_clamp_is_capped_at_the_upper(self):
        # 0.025 spacings: 0.1 m at 4 m; 250 m at 10 km, capped at 120 m.
        assert CONFIG.range_d_min == D_MIN_M
        assert LocalizerConfig(GridSpec(spacing_m=1e4)).range_d_min == 120.0
        # Under a 0.04 m upper clamp a level raw at 0.032 m ranges 0.04 m, not
        # 0.1 m, which would rank it farther than a weaker level.
        config = LocalizerConfig(grid=GRID, a_dbm=A_DBM, range_d_max=0.04)
        assert config.range_d_min == 0.04
        assert rss_to_distance(A_DBM + 30.0, A_DBM, 2.0, 0.04) == (0.04, True)
        assert range_of(config, A_DBM + 30.0, 2.0) == 0.04

    @pytest.mark.parametrize("n", [0.0, -1.0])
    def test_nonpositive_exponent_rejected(self, n):
        with pytest.raises(ValueError, match="n_exp must be positive"):
            range_of(CONFIG, -50.0, n)


class TestRefineInCell:
    def test_center_by_symmetry(self):
        got = refine_in_cell(cell_corner_distances(Point(2.0, 2.0)))
        assert got == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_hand_worked_point(self):
        # Squared corner ranges 10, 18, 10, 2 pin the point at (1, 1).
        quad = [(Point(0, 4), math.sqrt(10)), (Point(4, 4), math.sqrt(18)),
                (Point(4, 0), math.sqrt(10)), (Point(0, 0), math.sqrt(2))]
        assert refine_in_cell(quad) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_exact_recovery_over_interior_sample_grid(self):
        for i in range(1, 20):
            for j in range(1, 20):
                p = Point(i * 0.2, j * 0.2)
                got = refine_in_cell(cell_corner_distances(p))
                assert dist(got, p) < 1e-9

    def test_exact_in_shifted_non_square_rectangle(self):
        for p in (Point(3.0, 7.25), Point(2.1, 6.0), Point(5.9, 7.9)):
            got = refine_in_cell(cell_corner_distances(p, (2.0, 6.0, 6.0, 8.0)))
            assert dist(got, p) < 1e-9

    def test_inconsistent_distances_clamped_to_cell(self):
        quad = cell_corner_distances(Point(3.9, 2.0))
        # Inflate the left-column ranges; the raw solution exits the cell.
        quad = [(p, d * 1.6 if p.x == 0.0 else d) for p, d in quad]
        got = refine_in_cell(quad)
        assert 0.0 <= got.x <= 4.0 and 0.0 <= got.y <= 4.0

    def test_corner_order_irrelevant(self):
        quad = cell_corner_distances(Point(0.7, 3.1))
        assert refine_in_cell(quad[::-1]) == pytest.approx(
            refine_in_cell(quad), abs=1e-12)

    def test_degenerate_rectangle_rejected(self):
        quad = [(Point(0, 0), 1.0), (Point(4, 0), 1.0),
                (Point(8, 0), 1.0), (Point(12, 0), 1.0)]
        with pytest.raises(GeometryError):
            refine_in_cell(quad)

    def test_wrong_arity_rejected(self):
        with pytest.raises(GeometryError):
            refine_in_cell(cell_corner_distances(Point(1, 1))[:3])


class TestPairSplit:
    def test_hand_worked_straddle(self):
        """Blind at (3, 1) against an L of beacons: the two most similar
        signal pairs laterate x and y independently and land exactly."""
        blind = Point(3.0, 1.0)
        reports = [noiseless_report(Point(x, y), blind)
                   for x, y in [(0, 0), (4, 0), (8, 0), (8, 4)]]
        got = pair_split_estimate(reports, 2.0, CONFIG)
        assert got == pytest.approx((3.0, 1.0), abs=1e-9)

    def test_midpoint_symmetry(self):
        reports = [
            RssiReport(Point(0, 0), -55.0), RssiReport(Point(4, 0), -55.0),
            RssiReport(Point(0, 6), -40.0), RssiReport(Point(0, 10), -41.0),
        ]
        got = pair_split_estimate(reports, 2.0, CONFIG)
        assert got.x == pytest.approx(2.0, abs=1e-9)

    def test_collinear_beacons_unsupported(self):
        blind = Point(3.0, 1.0)
        reports = [noiseless_report(Point(x, 0.0), blind)
                   for x in (0.0, 4.0, 8.0, 12.0)]
        assert pair_split_estimate(reports, 2.0, CONFIG) is None

    def test_exact_recovery_near_cell_edge(self):
        # Top-4 layouts that straddle a beacon line still recover exactly.
        blind = Point(1.0, 3.68)
        reports = [noiseless_report(Point(x, y), blind)
                   for x, y in [(0, 4), (0, 0), (4, 4), (0, 8)]]
        got = pair_split_estimate(reports, 2.0, CONFIG)
        assert got == pytest.approx((1.0, 3.68), abs=1e-9)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            pair_split_estimate([RssiReport(Point(0, 0), -50.0)] * 3, 2.0, CONFIG)


class TestNearBeacon:
    def test_direction_from_last_estimate(self):
        rss = A_DBM - 20.0 * math.log10(0.5)
        report = RssiReport(Point(4, 4), rss)
        state = EstimatorState(last_estimate=Point(3, 4))
        got = near_beacon_estimate(report, state, 2.0, CONFIG)
        assert got == pytest.approx((3.5, 4.0), abs=1e-9)

    def test_no_history_falls_back_to_beacon(self):
        report = RssiReport(Point(4, 0), -40.0)
        got = near_beacon_estimate(report, EstimatorState(), 2.0, CONFIG)
        assert got == (4.0, 0.0)

    def test_result_clamped_into_region(self):
        rss = A_DBM - 20.0 * math.log10(0.5)
        report = RssiReport(Point(0, 0), rss)
        state = EstimatorState(last_estimate=Point(-3.0, -3.0))
        got = near_beacon_estimate(report, state, 2.0, CONFIG)
        assert got == (0.0, 0.0)


class TestWeightedCentroid:
    def test_equal_weights_are_plain_mean(self):
        reports = [RssiReport(Point(x, y), -50.0)
                   for x, y in [(0, 0), (4, 0), (0, 4), (4, 4)]]
        assert weighted_centroid(reports) == pytest.approx((2.0, 2.0))

    def test_biased_toward_strong_beacon(self):
        reports = [RssiReport(Point(0, 0), -40.0), RssiReport(Point(4, 0), -60.0)]
        got = weighted_centroid(reports)
        assert got.x < 0.2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_centroid([])


class TestLocalizeDispatch:
    def test_refined_interior_point(self):
        est, state = localize(reports_for(Point(1.0, 1.0)), EstimatorState(), CONFIG)
        assert est.method is FixMethod.REFINED
        assert est.cell == CellId(0, 0)
        assert dist(est.pos, Point(1.0, 1.0)) < 1e-9
        assert state.last_estimate == est.pos

    def test_refined_matches_true_cell_everywhere_it_fires(self):
        for i in range(16):
            for j in range(16):
                p = Point(0.25 + i * 0.5, 0.25 + j * 0.5)
                est, _ = localize(reports_for(p), EstimatorState(), CONFIG)
                if est.method is FixMethod.REFINED:
                    assert est.cell == containing_cell(p, GRID)
                    assert dist(est.pos, p) < 1e-9

    def test_no_fix_below_four_reports(self):
        est, state = localize(reports_for(Point(1, 1))[:3], EstimatorState(), CONFIG)
        assert est.method is FixMethod.NO_FIX
        assert est.pos is None and est.cell is None
        assert state == EstimatorState()

    def test_near_beacon_uses_history(self):
        state = EstimatorState(last_estimate=Point(0.5, 4.0))
        est, _ = localize(reports_for(Point(0.2, 4.0)), state, CONFIG)
        assert est.method is FixMethod.NEAR_BEACON
        assert dist(est.pos, Point(0.2, 4.0)) < 1e-9

    def test_straddling_point_pair_splits(self):
        est, _ = localize(reports_for(Point(1.0, 3.68)), EstimatorState(), CONFIG)
        assert est.method is FixMethod.PAIR_SPLIT
        assert not est.fallback_centroid
        assert dist(est.pos, Point(1.0, 3.68)) < 1e-9

    def test_wide_rectangle_falls_back_to_centroid(self):
        # Two-cell-wide rectangle: no single cell, pairs give no x axis.
        reports = [RssiReport(Point(x, y), -58.0)
                   for x, y in [(0, 0), (8, 0), (0, 4), (8, 4)]]
        est, _ = localize(reports, EstimatorState(), CONFIG)
        assert est.method is FixMethod.PAIR_SPLIT
        assert est.fallback_centroid
        assert est.pos == pytest.approx((4.0, 2.0))

    def test_a_cell_offset_past_the_largest_float_frames_no_cell(self):
        # The four frame a cell whose offset from the origin, 2**1024, overflows.
        grid = GridSpec(origin=Point(-2.0**1023, 0.0), spacing_m=2.0**1000)
        x, s = 2.0**1023, 2.0**1000
        reports = [RssiReport(Point(*p), level) for p, level in
                   zip([(x, 0.0), (x + s, 0.0), (x, s), (x + s, s)], (-50.0, -51.0, -52.0, -53.0))]
        assert _cell_plan.__wrapped__(tuple(r.beacon_pos for r in reports), grid)[0] is None
        est, _ = localize(reports, EstimatorState(), LocalizerConfig(grid))
        # The strongest is ranged well inside a cell, and the hull clamps its beacon.
        assert est.method is FixMethod.NEAR_BEACON
        assert est.pos == Point(-2.0**1023 + 2.0**1001, 0.0) and est.cell == CellId(1, 0)

    def test_history_cleared_only_by_new_fixes(self):
        state = EstimatorState(last_estimate=Point(5, 5))
        est, after = localize(reports_for(Point(1, 1))[:2], state, CONFIG)
        assert est.method is FixMethod.NO_FIX
        assert after == state

    def test_dispatch_is_total(self):
        methods = set()
        for k in range(40):
            blind = Point(0.13 + (k % 8), 0.21 + (k % 7))
            reports = reports_for(blind)[:4 + k % 6]
            est, _ = localize(reports, EstimatorState(), CONFIG)
            methods.add(est.method)
            assert (est.pos is None) == (est.method is FixMethod.NO_FIX)
        assert FixMethod.REFINED in methods

    def test_reflection_equivariance(self):
        p = Point(1.2, 2.7)
        mirrored = Point(1.2, 8.0 - 2.7)
        a, _ = localize(reports_for(p), EstimatorState(), CONFIG)
        b, _ = localize(reports_for(mirrored), EstimatorState(), CONFIG)
        assert a.method is FixMethod.REFINED and b.method is FixMethod.REFINED
        assert b.pos.x == pytest.approx(a.pos.x, abs=1e-9)
        assert b.pos.y == pytest.approx(8.0 - a.pos.y, abs=1e-9)


def test_estimate_invariants():
    with pytest.raises(ValueError):
        RssiReport(Point(0, 0), -50.0, 0)
    with pytest.raises(ValueError):
        EstimatorState(n_current=0.0)
    est = Estimate(None, FixMethod.NO_FIX)
    assert est.n_used == 2.0


class TestRssiReport:
    P = Point(4.0, 0.0)

    @pytest.mark.parametrize("build", [
        lambda p: RssiReport(p, -50.0, 0),
        lambda p: RssiReport._make((p, -50.0, 0)),
        lambda p: RssiReport(p, -50.0, 3)._replace(sample_count=0),
        lambda p: RssiReport.batch([p, p], [-50.0, -51.0], 0),
    ], ids=["constructor", "_make", "_replace", "batch"])
    def test_every_constructor_rejects_a_zero_count(self, build):
        with pytest.raises(ValueError, match="sample_count must be >= 1"):
            build(self.P)

    def test_batch_equals_the_constructor(self):
        positions = [self.P, Point(0.0, 4.0), Point(8.0, 8.0)]
        levels = [-50.0, -61.25, -47.5]
        batch = RssiReport.batch(positions, levels, 8)
        one_by_one = [RssiReport(p, level, 8) for p, level in zip(positions, levels)]
        assert batch == one_by_one
        assert [type(r) for r in batch] == [RssiReport] * 3
        assert RssiReport.batch([], [], 1) == []

    def test_fields_unpack_and_compare_as_a_tuple(self):
        r = RssiReport(self.P, -50.0)
        pos, level, count = r
        assert (pos, level, count) == (self.P, -50.0, 1)
        assert r == (self.P, -50.0, 1)
        assert RssiReport._make((self.P, -50.0, 2)) == r._replace(sample_count=2)
        with pytest.raises(TypeError):
            RssiReport._make((self.P, -50.0))

    def test_immutable(self):
        r = RssiReport(self.P, -50.0, 8)
        with pytest.raises(AttributeError):
            r.sample_count = 0
        with pytest.raises(AttributeError):
            r.note = "x"

    def test_pickle_round_trip(self):
        r = RssiReport(self.P, -50.0, 8)
        back = pickle.loads(pickle.dumps(r))
        assert back == r and type(back) is RssiReport


class TestEstimatorState:
    @pytest.mark.parametrize("build", [
        lambda: EstimatorState(0.0),
        lambda: EstimatorState(n_current=-2.0),
        lambda: EstimatorState._make((0.0, None)),
        lambda: EstimatorState(2.0)._replace(n_current=-1.0),
    ], ids=["constructor", "keyword", "_make", "_replace"])
    def test_every_constructor_rejects_a_nonpositive_exponent(self, build):
        with pytest.raises(ValueError, match="n_current must be positive"):
            build()

    def test_fields_by_name_and_defaults(self):
        state = EstimatorState()
        assert (state.n_current, state.last_estimate) == (2.0, None)
        assert EstimatorState._field_defaults == {"n_current": 2.0, "last_estimate": None}
        moved = state._replace(last_estimate=Point(1.0, 2.0))
        assert moved == EstimatorState(2.0, Point(1.0, 2.0)) == (2.0, Point(1.0, 2.0))
        assert type(moved) is EstimatorState and moved._fields == ("n_current", "last_estimate")

    def test_immutable(self):
        state = EstimatorState(3.0, Point(1.0, 2.0))
        with pytest.raises(AttributeError):
            state.n_current = 1.0
        with pytest.raises(AttributeError):
            state.note = "x"

    def test_pickle_round_trip(self):
        state = EstimatorState(3.0, Point(1.0, 2.0))
        back = pickle.loads(pickle.dumps(state))
        assert back == state and type(back) is EstimatorState


class TestEstimate:
    FIX = Estimate(Point(1.5, 2.5), FixMethod.PAIR_SPLIT, CellId(0, 0), 2.5, True)

    def test_fields_by_name_and_defaults(self):
        e = self.FIX
        assert (e.pos, e.method, e.cell, e.n_used, e.fallback_centroid) == (
            Point(1.5, 2.5), FixMethod.PAIR_SPLIT, CellId(0, 0), 2.5, True)
        assert Estimate._fields == ("pos", "method", "cell", "n_used", "fallback_centroid")
        assert Estimate(None, FixMethod.NO_FIX) == (None, FixMethod.NO_FIX, None, 2.0, False)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.FIX.pos = None
        with pytest.raises(AttributeError):
            self.FIX.note = "x"

    def test_pickle_round_trip(self):
        back = pickle.loads(pickle.dumps(self.FIX))
        assert back == self.FIX and type(back) is Estimate
        assert back.method is FixMethod.PAIR_SPLIT

    def test_localize_returns_the_named_types(self):
        estimate, state = localize(reports_for(Point(1.5, 2.5)), EstimatorState(), CONFIG)
        assert type(estimate) is Estimate and type(state) is EstimatorState
        assert estimate.method is FixMethod.REFINED
        assert state == EstimatorState(2.0, estimate.pos)
        none, same = localize([], state, CONFIG)
        assert none == Estimate(None, FixMethod.NO_FIX) and same is state
