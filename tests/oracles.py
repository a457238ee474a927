"""Per-branch references for localize, and the lattice as a list of beacons.

localize is the one statement of both phases. Each function here calls one
of its branches on its own, through the same private helpers, so a test can
compare a localize fix with its branch bit for bit. cell_of_corners and
_corner_plan are the partition phase as it once ran, in two passes: the
reference that estimator._cell_plan's one pass is checked against.
write_records_by_row is the records CSV as it was once written, a record
at a time: the reference for harness's writer on columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from gridloc.channel import _inverse_ranges
from gridloc.estimator import (EstimatorState, LocalizerConfig, RssiReport,
                               _near_beacon, _pair_split, _solve_in_cell,
                               _split_plan)
from gridloc.geometry import COORD_TOL, CellId, GeometryError, GridSpec, Point


@dataclass(frozen=True)
class Beacon:
    id: int
    pos: Point


def build_lattice(spec: GridSpec) -> list[Beacon]:
    """All lattice vertices as beacons, ids assigned row-major from the origin."""
    return [Beacon(spec.beacon_id(i, j), spec.beacon_position(i, j))
            for j in range(spec.rows) for i in range(spec.cols)]


def _distinct(values: Sequence[float]) -> list[float]:
    reps: list[float] = []
    for v in values:
        for r in reps:
            if abs(v - r) <= COORD_TOL:
                break
        else:
            reps.append(v)
    return reps


def _rectangle_axes(quad: Sequence[Point]
                    ) -> Optional[tuple[list[float], list[float]]]:
    """The sorted distinct xs and ys of four points that are the distinct
    corners of an axis-aligned rectangle, or None for any other four."""
    if len(quad) != 4:
        raise GeometryError("a rectangle needs exactly four points")
    xs = _distinct([p[0] for p in quad])
    ys = _distinct([p[1] for p in quad]) if len(xs) == 2 else []
    if len(xs) != 2 or len(ys) != 2:
        return None
    corners = {(abs(p[0] - xs[0]) > COORD_TOL, abs(p[1] - ys[0]) > COORD_TOL)
               for p in quad}
    if len(corners) != 4:
        return None
    return sorted(xs), sorted(ys)


def cell_of_corners(quad: Sequence[Point], spec: GridSpec) -> CellId:
    """Resolve the grid cell whose corners the four points are.

    The points must form an axis-aligned square of side spacing_m whose
    corners sit on the lattice; anything else raises GeometryError.
    """
    axes = _rectangle_axes(quad)
    if axes is None:
        raise GeometryError("corner set does not form a rectangle")
    xs, ys = axes
    if (abs((xs[1] - xs[0]) - spec.spacing_m) > COORD_TOL
            or abs((ys[1] - ys[0]) - spec.spacing_m) > COORD_TOL):
        raise GeometryError("corners are not adjacent lattice vertices")
    col = (xs[0] - spec.origin[0]) / spec.spacing_m
    row = (ys[0] - spec.origin[1]) / spec.spacing_m
    ci, ri = round(col), round(row)
    if (abs(col - ci) * spec.spacing_m > COORD_TOL
            or abs(row - ri) * spec.spacing_m > COORD_TOL):
        raise GeometryError("corners do not lie on the lattice")
    if not (0 <= ci < spec.cols - 1 and 0 <= ri < spec.rows - 1):
        raise GeometryError("corners lie outside the lattice")
    return CellId(int(ci), int(ri))


def _corner_plan(quad: Sequence[Point]) -> tuple[int, ...]:
    """Indices into the four corners of a rectangle: the first of the min
    x, max x, min y and max y, then the first corner within COORD_TOL of
    (x_lo, y_hi), (x_hi, y_hi), (x_hi, y_lo) and (x_lo, y_lo).

    The bounds are extreme corner coordinates, not the first of each
    distinct x and y that cell_of_corners compares. Raises GeometryError for
    a missing corner.
    """
    xs = [p[0] for p in quad]
    ys = [p[1] for p in quad]
    # index finds the element min and max return: the first extreme one.
    bounds = (xs.index(min(xs)), xs.index(max(xs)),
              ys.index(min(ys)), ys.index(max(ys)))
    lo_x, hi_x, lo_y, hi_y = bounds

    def corner(px: float, py: float) -> int:
        for i, p in enumerate(quad):
            if abs(p[0] - px) <= COORD_TOL and abs(p[1] - py) <= COORD_TOL:
                return i
        raise GeometryError("missing corner")

    x_lo, x_hi, y_lo, y_hi = xs[lo_x], xs[hi_x], ys[lo_y], ys[hi_y]
    return bounds + (corner(x_lo, y_hi), corner(x_hi, y_hi),
                     corner(x_hi, y_lo), corner(x_lo, y_lo))


def is_rectangle(quad: Sequence[Point]) -> bool:
    """True iff the four points are distinct corners of an axis-aligned rectangle.

    Requires exactly two distinct x values and two distinct y values with
    every combination present once. Permutation invariant; duplicates give
    False rather than an error.
    """
    return _rectangle_axes(quad) is not None


def range_of(config: LocalizerConfig, rss_dbm: float, n_exp: float) -> float:
    """The range localize gives one level under config and exponent n_exp."""
    return _inverse_ranges((rss_dbm,), config.a_dbm, n_exp, config.range_d_max,
                           config.range_d_min)[0][0]


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
    quad = tuple(r.beacon_pos for r in reports)
    return _pair_split(quad, [r.avg_rssi_dbm for r in reports], _split_plan(quad),
                       _inverse_ranges([r.avg_rssi_dbm for r in reports], config.a_dbm,
                                       n_used, config.range_d_max, config.range_d_min)[0])


def near_beacon_estimate(max_report: RssiReport, state: EstimatorState,
                         n_used: float, config: LocalizerConfig) -> Point:
    """localize's near-beacon fix: the point at the loudest beacon's range
    from it, toward the last fix, inside the grid; the beacon itself with
    no last fix."""
    return _near_beacon(max_report.beacon_pos,
                        range_of(config, max_report.avg_rssi_dbm, n_used),
                        state.last_estimate, config.grid.bounds())


# One records row with a fix and one without; "%.9g" % v is format(v, ".9g").
_FIX_ROW = "%d,%.9g,%.9g,%.9g,%.9g,%s,%.9g,%.9g"
_NO_FIX_ROW = "%d,%.9g,%.9g,,,%s,,%.9g"


def write_records_by_row(records: Sequence, path: Union[str, Path]) -> None:
    """The records CSV of sim.RoundRecords, formatted a record at a time."""
    lines = ["round,true_x,true_y,est_x,est_y,method,error_m,n_used"]
    for idx, (x, y), (pos, method, _, n_used, _), err in records:
        if pos is None:
            lines.append(_NO_FIX_ROW % (idx, x, y, method.value, n_used))
        else:
            lines.append(_FIX_ROW % (idx, x, y, pos[0], pos[1], method.value, err, n_used))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
