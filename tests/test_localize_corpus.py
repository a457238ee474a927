"""localize pinned bit for bit on a fixed corpus; each branch checked
against its reference in oracles.py, and the partition phase's one pass,
estimator._cell_plan, against the two-pass reference there
(cell_of_corners, then _corner_plan)."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridloc import estimator, sim
from gridloc.channel import ChannelParams, distance_to_rss
from gridloc.estimator import (EstimatorState, FixMethod, LocalizerConfig,
                               RssiReport, localize, select_top4)
from gridloc.geometry import (COORD_TOL, GeometryError, GridSpec, Point,
                              ScenarioError, dist)
from oracles import (_corner_plan, build_lattice, cell_of_corners,
                     near_beacon_estimate, pair_split_estimate, range_of,
                     refine_in_cell, weighted_centroid)

# sha256 of the corpus lines, one per localize call, each field as float.hex.
CORPUS_SHA256 = "0d0045cd5a3cb5875dc86b2cf3a0c1614ee5fa1f3aff4cfdac8272e0cf5f8ffb"


def _hex(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return v.hex()
    return ",".join(_hex(c) for c in v) if isinstance(v, tuple) else repr(v)


def _line(est, state) -> str:
    return ";".join([
        _hex(est.pos), est.method.value, _hex(est.cell), _hex(est.n_used),
        _hex(est.fallback_centroid), _hex(state.n_current),
        _hex(state.last_estimate)])


def _sweep_calls(sigma: float, quantize: bool) -> list[tuple[list, EstimatorState]]:
    """(reports, state) of every localize call in a paper_sweep run."""
    text = resources.files("gridloc.scenarios").joinpath(
        "paper_sweep.json").read_text(encoding="utf-8")
    s = sim.parse_scenario(text)
    s = dataclasses.replace(
        s, quantize_rssi=quantize,
        channel=dataclasses.replace(s.channel, sigma_dbm=sigma))
    calls = []
    original = estimator.localize

    def recording(reports, state, config):
        calls.append((list(reports), state))
        return original(reports, state, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "localize", recording)
        # Every report of a round: _jittered draws for each in turn.
        mp.setattr(sim, "_contenders",
                   lambda levels, counts, margin=0.0: np.arange(levels.size))
        sim.run_scenario(s)
    return calls


def _jittered(calls, seed: int) -> list[list[RssiReport]]:
    """The report sets with each beacon coordinate moved by up to
    ±2·COORD_TOL, so some top-4s classify only within tolerance."""
    rnd = random.Random(seed)
    out = []
    for reports, _ in calls:
        out.append([RssiReport(Point(r.beacon_pos[0] + rnd.uniform(-2, 2) * COORD_TOL,
                                     r.beacon_pos[1] + rnd.uniform(-2, 2) * COORD_TOL),
                               r.avg_rssi_dbm, r.sample_count)
                    for r in reports])
    return out


def _degenerate() -> list[list[RssiReport]]:
    """Hand-built sets: no fix, non-rectangles, wide and off-lattice
    rectangles, repeated beacons."""
    def at(*points, rss=-58.0):
        return [RssiReport(Point(x, y), rss - 0.5 * k) for k, (x, y) in enumerate(points)]
    return [
        at((0, 0), (4, 0), (0, 4)),
        at((0, 0), (8, 0), (0, 4), (8, 4)),
        at((0, 0), (4, 0), (8, 0), (4, 4)),
        at((0, 0), (4, 0), (8, 0), (12, 0)),
        at((0, 0), (0, 0), (4, 4), (4, 4)),
        at((2, 2), (6, 2), (2, 6), (6, 6)),
        at((4, 4), (8, 4), (4, 8), (8, 8), (0, 0)),
        at((0, 0), (4, 0), (0, 4), (4, 4 + 1.5 * COORD_TOL)),
        at((0, 0), (4, 0), (0, 4), (4, 4), rss=-20.0),
        at((0, 0), (4, 0), (4, 4), (0, 4), (8, 8), rss=-150.0),
    ]


def _corpus() -> list[str]:
    lines = []
    sweeps = [_sweep_calls(sigma, quantize)
              for sigma, quantize in ((0.0, False), (3.0, False), (3.0, True))]
    config = LocalizerConfig(grid=GridSpec())
    for calls in sweeps:
        for reports, state in calls:
            lines.append(_line(*localize(reports, state, config)))
    chained = (_jittered(sweeps[0], 1) + _jittered(sweeps[1], 2) + _degenerate())
    for n in (2.0, 3.5):
        state = EstimatorState(n_current=n)
        for reports in chained:
            est, state = localize(reports, state, config)
            lines.append(_line(est, state))
        for reports in _degenerate():
            lines.append(_line(*localize(reports, EstimatorState(n_current=n), config)))
    return lines


@pytest.fixture(scope="module")
def corpus() -> list[str]:
    return _corpus()


def test_corpus_reaches_every_branch(corpus):
    methods = [line.split(";")[1] for line in corpus]
    for m in ("refined", "pair_split", "near_beacon", "no_fix"):
        assert methods.count(m) > 0, m
    assert any(line.split(";")[4] == "True" for line in corpus)


def _digest(lines: list[str]) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode("ascii")).hexdigest()


def test_localize_output_is_pinned(corpus):
    assert _digest(corpus) == CORPUS_SHA256


def test_corpus_is_pinned_from_a_cold_and_a_warm_plan_cache():
    estimator._cell_plan.cache_clear()
    cold = _corpus()
    hits = estimator._cell_plan.cache_info().hits
    warm = _corpus()
    assert estimator._cell_plan.cache_info().hits > hits
    assert _digest(cold) == CORPUS_SHA256
    assert _digest(warm) == CORPUS_SHA256


# One cell's corners, ranked strongest first, written with 0.0, -0.0, int
# and float coordinates: each set equals the others as a cache key.
_CELL_SPELLINGS = {
    "float": [(0.0, 0.0), (0.0, 4.0), (4.0, 0.0), (4.0, 4.0)],
    "minus_zero": [(-0.0, -0.0), (-0.0, 4.0), (4.0, -0.0), (4.0, 4.0)],
    "int": [(0, 0), (0, 4), (4, 0), (4, 4)],
    "mixed": [(0, -0.0), (-0.0, 4), (4.0, 0), (4, 4.0)],
}
# Ranges the solve clamps to (x_lo, y_lo), so the fix is a corner's own
# coordinate, with that coordinate's sign and type.
_CELL_RANGES = (1.0, 5.0, 5.5, 7.0)
# Four beacons straddling two cells, ranked strongest first, in the same
# spellings: they frame no cell, and pair in position order into a pair
# that fixes y and one that fixes x.
_STRADDLE_SPELLINGS = {
    "float": [(0.0, 0.0), (0.0, 4.0), (4.0, 0.0), (8.0, 0.0)],
    "minus_zero": [(-0.0, -0.0), (-0.0, 4.0), (4.0, -0.0), (8.0, -0.0)],
    "int": [(0, 0), (0, 4), (4, 0), (8, 0)],
    "mixed": [(0, -0.0), (-0.0, 4), (4.0, 0), (8, 0.0)],
}
# The strongest ranged under near_beacon_tau spacings: with no history the
# fix is its position clamped to the lattice, which keeps its sign and type.
_NEAR_RANGES = (0.5, 1.6, 3.0, 3.1)
# The same four heard as two pairs of similar strength: a pair-split fix.
_SPLIT_RANGES = (1.5, 1.6, 3.0, 3.1)


def _spelled_reports(positions, ranges, config: LocalizerConfig, n: float) -> list[RssiReport]:
    return [RssiReport(Point(*p), config.a_dbm - 10.0 * n * math.log10(d))
            for p, d in zip(positions, ranges)]


def _bits(p) -> tuple:
    return tuple((type(v), float(v).hex()) for v in p)


@pytest.mark.parametrize("first, second", [
    (a, b) for a in _CELL_SPELLINGS for b in _CELL_SPELLINGS if a != b])
def test_equal_keys_with_other_bits_give_their_own_fix(first, second):
    config, state = LocalizerConfig(grid=GridSpec()), EstimatorState(n_current=2.0)
    n = state.n_current
    estimator._cell_plan.cache_clear()
    for k, name in enumerate((first, second)):
        reports = _spelled_reports(_CELL_SPELLINGS[name], _CELL_RANGES, config, n)
        est, _ = localize(reports, state, config)
        # The second spelling finds the first one's plan.
        assert estimator._cell_plan.cache_info().hits == 2 * k
        assert est.method is FixMethod.REFINED
        fix = refine_in_cell([(r.beacon_pos, range_of(config, r.avg_rssi_dbm, n))
                              for r in reports])
        assert _bits(est.pos) == _bits(fix)
        assert _bits(est.pos) == _bits(reports[0].beacon_pos)

        near = _spelled_reports(_STRADDLE_SPELLINGS[name], _NEAR_RANGES, config, n)
        est, _ = localize(near, state, config)
        assert estimator._cell_plan.cache_info().hits == 3 * k
        assert est.method is FixMethod.NEAR_BEACON
        assert _bits(est.pos) == _bits(near_beacon_estimate(near[0], state, n, config))
        assert _bits(est.pos) == _bits(near[0].beacon_pos)

        # The same top four at other levels: the plan of the straddle above.
        split = _spelled_reports(_STRADDLE_SPELLINGS[name], _SPLIT_RANGES, config, n)
        est, _ = localize(split, state, config)
        assert estimator._cell_plan.cache_info().hits == 3 * k + 1
        assert est.method is FixMethod.PAIR_SPLIT and not est.fallback_centroid
        assert _bits(est.pos) == _bits(pair_split_estimate(split, n, config))


def test_plan_cache_is_bounded():
    maxsize = estimator._cell_plan.cache_info().maxsize
    assert maxsize is not None
    grid = GridSpec()
    for i in range(maxsize + 10):
        x = i * 0.25
        estimator._cell_plan((Point(x, 0.0), Point(x, 4.0), Point(x + 4.0, 0.0),
                              Point(x + 4.0, 4.0)), grid)
    info = estimator._cell_plan.cache_info()
    assert info.misses >= maxsize + 10
    assert info.currsize <= maxsize


@pytest.mark.parametrize("spacing", [1e-6, 1.5 * COORD_TOL, 2 * COORD_TOL])
def test_fine_lattice_is_rejected(spacing):
    # On a lattice this fine a beacon coordinate can lie within COORD_TOL
    # of both sides of a cell, and one report's range would go to two
    # corners of it.
    with pytest.raises(ScenarioError) as info:
        GridSpec(spacing_m=spacing)
    assert str(info.value) == "spacing_m: must be more than 2 * COORD_TOL, 2e-06 m"


@st.composite
def report_sets(draw):
    spacing = draw(st.sampled_from([math.nextafter(2 * COORD_TOL, math.inf),
                                    0.5, 4.0, 7.3]))
    cols = draw(st.integers(2, 4))
    rows = draw(st.integers(2, 4))
    origin = Point(draw(st.floats(-50, 50)), draw(st.floats(-50, 50)))
    grid = GridSpec(origin=origin, spacing_m=spacing, cols=cols, rows=rows)
    fx = draw(st.floats(0.0, 1.0))
    fy = draw(st.floats(0.0, 1.0))
    xmin, ymin, xmax, ymax = grid.bounds()
    blind = Point(xmin + fx * (xmax - xmin), ymin + fy * (ymax - ymin))
    jitter = draw(st.sampled_from([0.0, 0.5, 2.0])) * COORD_TOL
    params = ChannelParams(n_exp=draw(st.sampled_from([2.0, 3.0])))
    reports = []
    for b in build_lattice(grid):
        d = max(dist(b.pos, blind), 1e-3)
        rss = distance_to_rss(d, params) + draw(st.floats(-4.0, 4.0))
        pos = Point(b.pos[0] + draw(st.floats(-1.0, 1.0)) * jitter,
                    b.pos[1] + draw(st.floats(-1.0, 1.0)) * jitter)
        reports.append(RssiReport(pos, rss))
    n = draw(st.sampled_from([2.0, 2.7]))
    # The same jittered positions heard at new levels: the same ranked
    # top-4 finds its cached plan.
    shift = draw(st.floats(-3.0, 3.0))
    again = [RssiReport(r.beacon_pos, r.avg_rssi_dbm + shift) for r in reports]
    return grid, reports, again, n


def _check_refined(grid, reports, n) -> None:
    config = LocalizerConfig(grid=grid)
    est, state = localize(reports, EstimatorState(n_current=n), config)
    if est.method is not FixMethod.REFINED:
        return
    top4 = select_top4(reports)
    assert est.cell == cell_of_corners([r.beacon_pos for r in top4], grid)
    fix = refine_in_cell([(r.beacon_pos, range_of(config, r.avg_rssi_dbm, n))
                          for r in top4])
    assert (est.pos[0].hex(), est.pos[1].hex()) == (fix[0].hex(), fix[1].hex())
    assert state == EstimatorState(n, est.pos)


def _check_degenerate(grid, reports, state) -> None:
    """A near-beacon or pair-split fix from localize is, bit for bit, its
    branch reference's fix for the same top four."""
    config, n = LocalizerConfig(grid=grid), state.n_current
    est, _ = localize(reports, state, config)
    top4 = select_top4(reports)
    if est.method is FixMethod.NEAR_BEACON:
        fix = near_beacon_estimate(top4[0], state, n, config)
    elif est.method is FixMethod.PAIR_SPLIT:
        fix = pair_split_estimate(top4, n, config)
        assert est.fallback_centroid == (fix is None)
        if fix is None:
            fix = weighted_centroid(top4)
    else:
        return
    assert _bits(est.pos) == _bits(fix)


@settings(max_examples=300, deadline=None)
@given(report_sets(), st.one_of(st.none(), st.tuples(st.floats(-60.0, 60.0),
                                                     st.floats(-60.0, 60.0))))
def test_degenerate_fixes_are_pair_split_and_near_beacon_estimates(case, last):
    grid, reports, again, n = case
    state = EstimatorState(n, None if last is None else Point(*last))
    # From an emptied plan cache, then from the plans that call left.
    estimator._cell_plan.cache_clear()
    _check_degenerate(grid, reports, state)
    _check_degenerate(grid, again, state)
    hits = estimator._cell_plan.cache_info().hits
    _check_degenerate(grid, reports, state)
    assert estimator._cell_plan.cache_info().hits == hits + 1


@settings(max_examples=300, deadline=None)
@given(report_sets())
def test_refined_fix_is_cell_of_corners_and_refine_in_cell(case):
    grid, reports, again, n = case
    _check_refined(grid, reports, n)
    hits = estimator._cell_plan.cache_info().hits
    _check_refined(grid, again, n)
    if ([r.beacon_pos for r in select_top4(reports)]
            == [r.beacon_pos for r in select_top4(again)]):
        assert estimator._cell_plan.cache_info().hits > hits


def _reference_plan(quad, grid):
    """The partition phase as two passes: cell_of_corners, then the corner
    search by tolerance, or the split plan where either raises."""
    try:
        return cell_of_corners(quad, grid), _corner_plan(quad)
    except GeometryError:
        return None, estimator._split_plan(quad)


@st.composite
def quads(draw):
    """A 4×4 grid and four points, in any order: a cell's corners, most
    often, or those of a cell outside the lattice, a wider rectangle, an
    off-lattice one, a non-rectangle or one with a repeated point; each
    coordinate moved by up to 3·COORD_TOL."""
    origin = draw(st.sampled_from([0.0, 1e6]))
    spacing = draw(st.sampled_from([4.0, 0.37, 1e-5, 3e-6]))
    grid = GridSpec(origin=Point(origin, origin), spacing_m=spacing, cols=4, rows=4)
    kind = draw(st.sampled_from(["cell"] * 4
                                + ["outside", "wide", "off", "other", "repeat"]))
    w, h = draw(st.sampled_from([(2, 1), (1, 2), (2, 2)])) if kind == "wide" else (1, 1)
    col, row = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if kind == "outside":
        col, row = draw(st.sampled_from([(-1, row), (3, row), (col, -1), (col, 3)]))
    if kind == "off":
        col += draw(st.floats(0.05, 0.95))
    points = [(col, row), (col + w, row), (col, row + h), (col + w, row + h)]
    k = draw(st.integers(0, 3))
    if kind == "other":
        points[k] = (draw(st.integers(-1, 4)), draw(st.integers(-1, 4)))
    elif kind == "repeat":
        points[k] = points[(k + draw(st.integers(1, 3))) % 4]
    scale = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])) * COORD_TOL
    jitter = st.integers(-8, 8).map(lambda k: k / 8)
    quad = tuple(Point(origin + i * spacing + draw(jitter) * scale,
                       origin + j * spacing + draw(jitter) * scale)
                 for i, j in draw(st.permutations(points)))
    return quad, grid


# Cell corners exactly COORD_TOL apart in x and in y: from the first point,
# and within the other column and row.
_AT_TOL = ((Point(0.0, 0.0), Point(1e-6, 4.0), Point(4.0, 1e-6), Point(4.0, 4.0)),
           (Point(4.0, 4.0), Point(0.0, 0.0), Point(1e-6, 4.0), Point(4.0, 1e-6)))


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(quads())
@example((_AT_TOL[0], GridSpec()))
@example((_AT_TOL[1], GridSpec()))
def test_one_pass_cell_plan_is_the_two_pass_reference(case):
    quad, grid = case
    cell, plan = estimator._cell_plan.__wrapped__(quad, grid)
    reference = _reference_plan(quad, grid)
    # Where the reference names one report for two corners, see below.
    if reference[0] is None or len(set(reference[1][4:])) == 4:
        assert (cell, plan) == reference


def test_a_fine_lattice_puts_a_report_at_one_corner():
    """On a lattice spaced 2.1 µm a coordinate can lie within COORD_TOL of
    two lattice lines. The two-pass corner search named one report for two
    corners of this top four; the one pass names each report once."""
    grid = GridSpec(spacing_m=2.1e-6, cols=4, rows=4)
    quad = (Point(2.2127369907435536e-06, 4.862899786694976e-07),
            Point(4.786494867340147e-06, -4.994116063667415e-07),
            Point(4.3305938076785595e-06, -6.207372128334647e-07),
            Point(1.4078957348922212e-06, -5.252952719275614e-07))
    reference_cell, reference_plan = _reference_plan(quad, grid)
    assert reference_plan[4:] == (0, 1, 1, 3)
    cell, plan = estimator._cell_plan.__wrapped__(quad, grid)
    assert (cell, plan[:4]) == (reference_cell, reference_plan[:4])
    assert sorted(plan[4:]) == [0, 1, 2, 3]
