"""Lattice geometry: construction, rectangle detection, cell resolution."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloc.estimator import _cell_plan
from gridloc.geometry import (CellId, GeometryError, GridSpec,
                              OutOfRegionError, Point, ScenarioError,
                              _cell_or_none, _cells_or_none, containing_cell, dist)
from oracles import Beacon, build_lattice, cell_of_corners, is_rectangle


def one_pass_cell(quad, grid):
    """The cell localize's partition phase finds the four points frame, or
    None where cell_of_corners raises."""
    return _cell_plan.__wrapped__(tuple(quad), grid)[0]


@pytest.fixture
def grid():
    return GridSpec(origin=Point(0.0, 0.0), spacing_m=4.0, cols=3, rows=3)


class TestGridSpec:
    def test_default_lattice_enumeration(self, grid):
        beacons = build_lattice(grid)
        assert len(beacons) == 9
        expected = [(x, y) for y in (0.0, 4.0, 8.0) for x in (0.0, 4.0, 8.0)]
        assert [tuple(b.pos) for b in beacons] == expected

    def test_ids_are_row_major(self, grid):
        beacons = build_lattice(grid)
        assert [b.id for b in beacons] == list(range(9))
        assert beacons[5] == Beacon(5, Point(8.0, 4.0))

    def test_id_mapping_matches_the_lattice(self):
        spec = GridSpec(origin=Point(-2.0, 1.5), spacing_m=0.5, cols=4, rows=3)
        for b in build_lattice(spec):
            assert spec.position_of(b.id) == b.pos
            i, j = b.id % 4, b.id // 4
            assert spec.beacon_id(i, j) == b.id

    def test_minimal_lattice(self):
        beacons = build_lattice(GridSpec(cols=2, rows=2))
        assert len(beacons) == 4

    def test_offset_rectangular_lattice(self):
        spec = GridSpec(origin=Point(10.0, 10.0), spacing_m=5.0, cols=2, rows=3)
        xs = sorted({b.pos.x for b in build_lattice(spec)})
        ys = sorted({b.pos.y for b in build_lattice(spec)})
        assert xs == [10.0, 15.0]
        assert ys == [10.0, 15.0, 20.0]

    @pytest.mark.parametrize("kwargs", [
        {"spacing_m": 0.0},
        {"spacing_m": -1.0},
        {"cols": 1},
        {"rows": 1},
        {"origin": Point(math.nan, 0.0)},
        {"spacing_m": math.inf},
        {"spacing_m": math.nan},
        {"spacing_m": 2e-6},
    ])
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ScenarioError) as info:
            GridSpec(**kwargs)
        [field] = kwargs
        assert info.value.path == field

    @pytest.mark.parametrize("field,value", [
        ("cols", 2.5), ("cols", True), ("rows", 3.0), ("rows", "3")])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ScenarioError) as info:
            GridSpec(**{field: value})
        assert (info.value.path, str(info.value)) == (field, f"{field}: must be an integer")

    def test_bounds_and_cells(self, grid):
        assert grid.bounds() == (0.0, 0.0, 8.0, 8.0)
        # Cell (2, 0) would lie past the last column.
        outside = [grid.beacon_position(i, j) for i in (2, 3) for j in (0, 1)]
        with pytest.raises(GeometryError, match="outside the lattice"):
            cell_of_corners(outside, grid)
        assert one_pass_cell(outside, grid) is None

    def test_cell_corners_round_trip(self, grid):
        for col in range(grid.cols - 1):
            for row in range(grid.rows - 1):
                cell = CellId(col, row)
                (x0, y0), (x1, y1) = (grid.beacon_position(col, row),
                                      grid.beacon_position(col + 1, row + 1))
                corners = [Point(x0, y0), Point(x1, y0), Point(x0, y1), Point(x1, y1)]
                assert cell_of_corners(corners, grid) == cell
                assert one_pass_cell(corners, grid) == cell


class TestIsRectangle:
    def test_unit_cell_corners(self):
        assert is_rectangle([Point(0, 0), Point(4, 0), Point(0, 4), Point(4, 4)])

    def test_three_collinear_plus_one(self):
        assert not is_rectangle([Point(0, 0), Point(4, 0), Point(8, 0), Point(4, 4)])

    def test_three_distinct_y_values(self):
        assert not is_rectangle([Point(0, 0), Point(4, 0), Point(0, 4), Point(4, 8)])

    def test_permutation_invariant(self):
        quad = [Point(0, 0), Point(4, 0), Point(0, 4), Point(4, 4)]
        for perm in itertools.permutations(quad):
            assert is_rectangle(list(perm))

    def test_duplicates_are_false_not_error(self):
        assert not is_rectangle([Point(0, 0), Point(0, 0), Point(4, 4), Point(4, 0)])

    def test_non_square_rectangle_counts(self):
        assert is_rectangle([Point(0, 0), Point(8, 0), Point(0, 4), Point(8, 4)])

    def test_tolerance_absorbs_jitter(self):
        quad = [Point(0, 1e-8), Point(4, 0), Point(0, 4), Point(4 - 1e-8, 4)]
        assert is_rectangle(quad)

    def test_wrong_arity(self):
        with pytest.raises(GeometryError):
            is_rectangle([Point(0, 0), Point(1, 1)])


class TestCellOfCorners:
    def test_first_cell(self, grid):
        quad = [Point(0, 0), Point(4, 0), Point(0, 4), Point(4, 4)]
        assert cell_of_corners(quad, grid) == CellId(0, 0)
        assert one_pass_cell(quad, grid) == CellId(0, 0)

    def test_diagonal_cell(self, grid):
        quad = [Point(4, 4), Point(8, 4), Point(4, 8), Point(8, 8)]
        assert cell_of_corners(quad, grid) == CellId(1, 1)
        assert one_pass_cell(quad, grid) == CellId(1, 1)

    def test_oversized_rectangle_rejected(self, grid):
        quad = [Point(0, 0), Point(8, 0), Point(0, 8), Point(8, 8)]
        with pytest.raises(GeometryError):
            cell_of_corners(quad, grid)
        assert one_pass_cell(quad, grid) is None

    def test_off_lattice_rejected(self, grid):
        quad = [Point(1, 1), Point(5, 1), Point(1, 5), Point(5, 5)]
        with pytest.raises(GeometryError):
            cell_of_corners(quad, grid)
        assert one_pass_cell(quad, grid) is None

    def test_non_rectangle_rejected(self, grid):
        quad = [Point(0, 0), Point(4, 0), Point(8, 0), Point(4, 4)]
        with pytest.raises(GeometryError):
            cell_of_corners(quad, grid)
        assert one_pass_cell(quad, grid) is None


class TestContainingCell:
    def test_interior_point(self, grid):
        assert containing_cell(Point(1.5, 1.5), grid) == CellId(0, 0)

    def test_shared_corner_goes_to_lower_cell(self, grid):
        assert containing_cell(Point(4.0, 4.0), grid) == CellId(0, 0)

    def test_near_far_edge(self, grid):
        assert containing_cell(Point(7.9, 0.1), grid) == CellId(1, 0)

    def test_region_edges(self, grid):
        assert containing_cell(Point(0.0, 0.0), grid) == CellId(0, 0)
        assert containing_cell(Point(8.0, 8.0), grid) == CellId(1, 1)

    def test_outside_raises(self, grid):
        with pytest.raises(OutOfRegionError):
            containing_cell(Point(8.1, 0.0), grid)
        with pytest.raises(OutOfRegionError):
            containing_cell(Point(0.0, -0.5), grid)

    def test_an_offset_past_the_largest_float_is_in_the_last_cell(self):
        # 1e308 - -1e308 overflows to inf, as the hull's far edge does.
        spec = GridSpec(origin=Point(-1e308, 0.0), spacing_m=1e308)
        assert containing_cell(Point(1e308, 1.0), spec) == CellId(1, 0)

    def test_matches_brute_force_over_dense_grid(self):
        spec = GridSpec(origin=Point(-2.0, 1.0), spacing_m=2.5, cols=4, rows=3)
        for i in range(40):
            for j in range(30):
                p = Point(-2.0 + i * 0.19, 1.0 + j * 0.165)
                col, row = containing_cell(p, spec)
                (x0, y0), (x1, y1) = (spec.beacon_position(col, row),
                                      spec.beacon_position(col + 1, row + 1))
                assert x0 - 1e-9 <= p.x <= x1 + 1e-9
                assert y0 - 1e-9 <= p.y <= y1 + 1e-9


@st.composite
def points_about_a_lattice(draw):
    """A lattice, from one at the origin to one whose far edge overflows,
    and points on or about its lines, far off it, infinite or NaN."""
    coord = st.sampled_from([0.0, -1e308, 1e20]) | st.floats(-1e308, 1e308)
    spec = GridSpec(origin=Point(draw(coord), draw(coord)),
                    spacing_m=draw(st.sampled_from([0.1, 4.0, 1e308])
                                   | st.floats(2.1e-6, 1e308)),
                    cols=draw(st.integers(2, 6)), rows=draw(st.integers(2, 6)))

    def axis(origin, count):
        jitter = st.sampled_from([0.0, 1e-6, -1e-6, 2e-6, -2e-6, 0.25])
        return (st.builds(lambda k, d: origin + k * spec.spacing_m + d,
                          st.integers(-1, count), jitter)
                | st.floats(allow_nan=True, allow_infinity=True))

    points = draw(st.lists(st.tuples(axis(spec.origin[0], spec.cols),
                                     axis(spec.origin[1], spec.rows)), max_size=12))
    return spec, points


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(points_about_a_lattice())
def test_the_array_lookup_is_the_cell_or_none_of_each_point(case):
    spec, points = case
    xs, ys = (np.array(v, dtype=float) for v in (zip(*points) if points else ((), ())))
    # repr tells an int from a numpy integer.
    assert repr(_cells_or_none(xs, ys, spec)) == repr(
        [_cell_or_none(Point(x, y), spec, spec.bounds()) for x, y in points])


def test_dist():
    assert dist(Point(0, 0), Point(3, 4)) == 5.0
