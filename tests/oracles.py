"""Per-branch references for localize, and the lattice as a list of beacons.

localize is the one statement of both phases. Each function here calls one
of its branches on its own, through the same private helpers, so a test can
compare a localize fix with its branch bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from gridloc.channel import _inverse_ranges
from gridloc.estimator import (EstimatorState, LocalizerConfig, RssiReport,
                               _corner_plan, _near_beacon, _pair_split,
                               _solve_in_cell, _split_plan)
from gridloc.geometry import GeometryError, GridSpec, Point, _rectangle_axes


@dataclass(frozen=True)
class Beacon:
    id: int
    pos: Point


def build_lattice(spec: GridSpec) -> list[Beacon]:
    """All lattice vertices as beacons, ids assigned row-major from the origin."""
    return [Beacon(spec.beacon_id(i, j), spec.beacon_position(i, j))
            for j in range(spec.rows) for i in range(spec.cols)]


def is_rectangle(quad: Sequence[Point]) -> bool:
    """True iff the four points are distinct corners of an axis-aligned rectangle.

    Requires exactly two distinct x values and two distinct y values with
    every combination present once. Permutation invariant; duplicates give
    False rather than an error.
    """
    return _rectangle_axes(quad) is not None


def range_of(config: LocalizerConfig, rss_dbm: float, n_exp: float) -> float:
    """The range localize gives one level under config and exponent n_exp."""
    return _inverse_ranges((rss_dbm,), config.a_dbm, n_exp, config.range_d_max)[0][0]


def refine_in_cell(corner_distances: Sequence[tuple[Point, float]]) -> Point:
    """localize's refined fix from four (corner, range) pairs of a
    rectangle, in any order; clamped to the rectangle."""
    if len(corner_distances) != 4:
        raise GeometryError("refine_in_cell needs four corners")
    quad = [p for p, _ in corner_distances]
    if not is_rectangle(quad):
        raise GeometryError("corners do not form a rectangle")
    return _solve_in_cell(quad, [d for _, d in corner_distances],
                          _corner_plan(quad))


def pair_split_estimate(reports: Sequence[RssiReport], n_used: float,
                        config: LocalizerConfig) -> Optional[Point]:
    """localize's pair-split fix of four reports that frame no cell, or None
    when the chosen pairs do not fix both axes (localize then takes the
    weighted centroid)."""
    if len(reports) != 4:
        raise ValueError("pair_split_estimate needs exactly four reports")
    return _pair_split(reports, _split_plan(tuple(r.beacon_pos for r in reports)),
                       _inverse_ranges([r.avg_rssi_dbm for r in reports], config.a_dbm,
                                       n_used, config.range_d_max)[0])


def near_beacon_estimate(max_report: RssiReport, state: EstimatorState,
                         n_used: float, config: LocalizerConfig) -> Point:
    """localize's near-beacon fix: the point at the loudest beacon's range
    from it, toward the last fix, inside the grid; the beacon itself with
    no last fix."""
    return _near_beacon(max_report.beacon_pos,
                        range_of(config, max_report.avg_rssi_dbm, n_used),
                        state.last_estimate, config.grid.bounds())
