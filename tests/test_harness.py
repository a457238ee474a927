"""Error histograms, system comparison, CSV export formats."""

from __future__ import annotations

import math

import pytest

from gridloc.estimator import Estimate, FixMethod
from gridloc.geometry import CellId, Point
from gridloc.harness import (DEFAULT_BUCKET_EDGES, bucketize, compare,
                             error_surface, write_buckets_csv,
                             write_records_csv, write_surface_csv)
from gridloc.sim import RoundRecord, run_scenario, scenario_from_dict


def record(idx, true, err, method=FixMethod.REFINED, n=2.0):
    if err is None:
        return RoundRecord(idx, Point(*true),
                           Estimate(None, FixMethod.NO_FIX, n_used=n), None)
    ex, ey = true[0] + err, true[1]
    return RoundRecord(idx, Point(*true),
                       Estimate(Point(ex, ey), method, CellId(0, 0), n), err)


def records_from_errors(errors):
    return [record(i, (0.5 + i, 0.5), e) for i, e in enumerate(errors)]


class TestBucketize:
    def test_counts_and_fractions(self):
        b = bucketize(records_from_errors([0.2, 0.7, 1.4, 3.5]))
        assert b.edges == DEFAULT_BUCKET_EDGES
        assert b.counts == (1, 1, 1, 0, 0, 0, 1)
        assert b.fractions == (0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.25)
        assert b.fraction_below(1.5) == pytest.approx(0.75)
        assert b.no_fix_count == 0

    def test_order_invariance(self):
        errs = [0.1, 2.2, 0.8, 1.1, 0.4]
        a = bucketize(records_from_errors(errs))
        b = bucketize(records_from_errors(list(reversed(errs))))
        assert a.counts == b.counts

    def test_no_fix_tallied_separately(self):
        recs = records_from_errors([0.2, 0.9]) + [record(2, (1.0, 1.0), None)]
        b = bucketize(recs)
        assert b.fixed_count == 2
        assert b.no_fix_count == 1
        assert b.fixed_count + b.no_fix_count == len(recs)

    def test_value_on_edge_falls_in_upper_bucket(self):
        b = bucketize(records_from_errors([0.5]), edges=[0.5, 1.0])
        assert b.counts == (0, 1, 0)

    def test_all_no_fix_gives_none_fractions(self):
        b = bucketize([record(0, (1.0, 1.0), None)])
        assert b.fractions is None
        assert b.fraction_below(0.5) is None

    def test_unknown_edge_rejected(self):
        b = bucketize(records_from_errors([0.2]))
        with pytest.raises(ValueError):
            b.fraction_below(0.75)

    @pytest.mark.parametrize("edges", [[], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ValueError):
            bucketize([], edges=edges)

    @pytest.mark.parametrize("edges", [[0.5, math.nan, 1.5], [1.0, math.inf]])
    def test_non_finite_edges_rejected(self, edges):
        # nan passes both the positive and the increasing check.
        with pytest.raises(ValueError) as info:
            bucketize([], edges=edges)
        assert str(info.value) == "bucket edges must be finite"


class TestErrorSurface:
    def sweep_records(self, nx=3, ny=2, no_fix_at=None):
        recs = []
        idx = 0
        for j in range(ny):
            for i in range(nx):
                err = None if idx == no_fix_at else 0.1 * idx
                recs.append(record(idx, (1.0 + i, 1.0 + j), err))
                idx += 1
        return recs

    def test_rows_are_runs_of_nx_records(self):
        rows = error_surface(self.sweep_records(), 3)
        assert len(rows) == 2 and all(len(row) == 3 for row in rows)
        assert [y for _, y, _ in rows[0]] == [1.0, 1.0, 1.0]
        assert [x for x, _, _ in rows[1]] == [1.0, 2.0, 3.0]
        assert rows[1][2][2] == pytest.approx(0.5)

    def test_no_fix_becomes_nan(self):
        rows = error_surface(self.sweep_records(no_fix_at=4), 3)
        assert math.isnan(rows[1][1][2])

    def test_ragged_sweep_rejected(self):
        with pytest.raises(ValueError, match="rectangular"):
            error_surface(self.sweep_records()[:-1], 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="rectangular"):
            error_surface([], 3)


class TestCompare:
    def test_self_comparison_is_neutral(self):
        recs = records_from_errors([0.2, 0.7, 1.4])
        c = compare(recs, recs)
        assert c.median_a == c.median_b == 0.7
        assert c.a_wins_fraction == 0.0
        assert c.records == 3

    def test_dominating_system_wins_every_round(self):
        a = records_from_errors([0.1, 0.2, 0.3])
        b = records_from_errors([0.4, 0.5, 0.6])
        c = compare(a, b)
        assert c.a_wins_fraction == 1.0
        assert c.mean_a < c.mean_b

    def test_no_fix_rounds_excluded_from_wins(self):
        a = records_from_errors([0.1, 0.2]) + [record(2, (2.5, 0.5), None)]
        b = records_from_errors([0.3, 0.1, 0.2])
        c = compare(a, b)
        assert c.a_wins_fraction == pytest.approx(0.5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            compare(records_from_errors([0.1]), records_from_errors([0.1, 0.2]))

    def test_mismatched_positions_rejected(self):
        a = [record(0, (1.0, 1.0), 0.1)]
        b = [record(0, (2.0, 1.0), 0.1)]
        with pytest.raises(ValueError, match="positions"):
            compare(a, b)

    def test_sweeps_of_another_shape_rejected(self):
        # 1e12 m out, the two sweeps' positions are within math.isclose.
        def sweep(nx, ny):
            return run_scenario(scenario_from_dict({
                "grid": {"origin": [1e12, 1e12]},
                "trajectory": {"kind": "lattice_sweep", "nx": nx, "ny": ny},
                "rounds": nx * ny}))

        with pytest.raises(ValueError, match="positions differ"):
            compare(sweep(5, 5), sweep(25, 1))


class TestCsvWriters:
    def test_records_csv_layout(self, tmp_path):
        recs = [
            record(0, (1.0, 1.0), 0.123456789123, FixMethod.REFINED),
            record(1, (2.0, 1.0), None),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,true_x,true_y,est_x,est_y,method,error_m,n_used"
        assert lines[1] == "0,1,1,1.12345679,1,refined,0.123456789,2"
        assert lines[2] == "1,2,1,,,no_fix,,2"

    @pytest.mark.parametrize("v", [0.0, -0.0, 5e-324, -2.5e-308, 1e-7, 2 / 3,
                                   123456789.5, -1e300, math.inf, -math.inf, math.nan])
    def test_records_csv_fields_are_nine_significant_digits(self, tmp_path, v):
        recs = [RoundRecord(7, Point(v, -v), Estimate(Point(v, 1.0), FixMethod.PAIR_SPLIT,
                                                      None, v), v),
                RoundRecord(8, Point(1.0, v), Estimate(None, FixMethod.NO_FIX, n_used=v), None)]
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        g = [format(x, ".9g") for x in (v, -v, 1.0)]
        assert path.read_text().splitlines()[1:] == [
            f"7,{g[0]},{g[1]},{g[0]},{g[2]},pair_split,{g[0]},{g[0]}",
            f"8,{g[2]},{g[0]},,,no_fix,,{g[0]}"]

    def test_method_tags_match_estimates(self, tmp_path):
        recs = [record(0, (1.0, 1.0), 0.1, m)
                for m in (FixMethod.PAIR_SPLIT, FixMethod.NEAR_BEACON,
                          FixMethod.CENTROID)]
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        tags = [line.split(",")[5] for line in path.read_text().splitlines()[1:]]
        assert tags == ["pair_split", "near_beacon", "centroid"]

    def test_buckets_csv_layout(self, tmp_path):
        b = bucketize(records_from_errors([0.2, 0.7, 1.4, 3.5]),
                      edges=[0.5, 1.5])
        path = tmp_path / "buckets.csv"
        write_buckets_csv(b, path)
        assert path.read_text() == (
            "edge_lo,edge_hi,count,fraction\n"
            "0,0.5,1,0.25\n"
            "0.5,1.5,2,0.5\n"
            "1.5,inf,1,0.25\n")

    def test_buckets_csv_empty_fractions(self, tmp_path):
        b = bucketize([record(0, (1.0, 1.0), None)], edges=[1.0])
        path = tmp_path / "buckets.csv"
        write_buckets_csv(b, path)
        assert path.read_text() == (
            "edge_lo,edge_hi,count,fraction\n0,1,0,\n1,inf,0,\n")

    def test_surface_csv_blank_line_between_rows(self, tmp_path):
        rows = [
            [(0.5, 0.5, 0.1), (1.5, 0.5, 0.2)],
            [(0.5, 1.5, math.nan), (1.5, 1.5, 0.4)],
        ]
        path = tmp_path / "surface.csv"
        write_surface_csv(rows, path)
        assert path.read_text() == (
            "0.5,0.5,0.1\n1.5,0.5,0.2\n"
            "\n"
            "0.5,1.5,nan\n1.5,1.5,0.4\n")
