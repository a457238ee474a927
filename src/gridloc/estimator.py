"""Two-phase grid localization.

Coarse phase: pick the four strongest beacon reports and try to resolve the
grid cell they outline. Fine phase: closed-form in-cell position from the
four corner ranges. Two degenerate layouts get dedicated handlers: the four
strongest beacons straddling two cells (pair split) and one beacon
dominating the ranking (near beacon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Optional, Sequence

from .channel import DEFAULT_A_DBM, _inverse_range
from .geometry import (COORD_TOL, CellId, GeometryError, GridSpec,
                       OutOfRegionError, Point, _cell_of_axes,
                       _rectangle_axes, containing_cell, is_rectangle)


class FixMethod(Enum):
    REFINED = "refined"
    PAIR_SPLIT = "pair_split"
    NEAR_BEACON = "near_beacon"
    NO_FIX = "no_fix"
    # Produced only by baseline runs, never by localize().
    CENTROID = "centroid"


@dataclass(frozen=True)
class RssiReport:
    """Averaged signal strength from one beacon."""

    beacon_pos: Point
    avg_rssi_dbm: float
    sample_count: int = 1

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


@dataclass(frozen=True)
class EstimatorState:
    """Per-blind-node history carried between rounds."""

    n_current: float = 2.0
    last_cell: Optional[CellId] = None
    last_estimate: Optional[Point] = None

    def __post_init__(self) -> None:
        if self.n_current <= 0:
            raise ValueError("n_current must be positive")


@dataclass(frozen=True)
class Estimate:
    pos: Optional[Point]
    method: FixMethod
    cell: Optional[CellId] = None
    n_used: float = 2.0
    # True when pair-split geometry was unsupported and the weighted
    # centroid stood in.
    fallback_centroid: bool = False


@dataclass(frozen=True)
class LocalizerConfig:
    grid: GridSpec
    a_dbm: float = DEFAULT_A_DBM
    near_beacon_tau: float = 0.25
    range_d_max: float = 120.0

    def range_of(self, rss_dbm: float, n_exp: float) -> float:
        return _inverse_range(rss_dbm, self.a_dbm, n_exp, self.range_d_max)[0]


_strength = attrgetter("avg_rssi_dbm")
_position = attrgetter("beacon_pos")


def select_top4(reports: Sequence[RssiReport]) -> Optional[list[RssiReport]]:
    """Four strongest reports, or None when fewer than four beacons answered.

    Ties break on beacon position, lexicographic, so selection is
    deterministic.
    """
    if len(reports) < 4:
        return None
    ordered = sorted(reports, key=_strength, reverse=True)
    a, b, c, d = top = ordered[:4]
    fourth = d.avg_rssi_dbm
    if (a.avg_rssi_dbm > b.avg_rssi_dbm > c.avg_rssi_dbm > fourth
            and (len(ordered) == 4 or ordered[4].avg_rssi_dbm < fourth)):
        return top
    # Ties: only reports as strong as the fourth can reach the top four.
    end = 4
    while end < len(ordered) and ordered[end].avg_rssi_dbm == fourth:
        end += 1
    head = ordered[:end]
    # Both sorts are stable, so this orders by strength, then position.
    head.sort(key=_position)
    head.sort(key=_strength, reverse=True)
    return head[:4]


def adapt_n(rss_between_beacons: float, true_dist_m: float, n_prime: float,
            a_dbm: float, n_min: float = 1.0, n_max: float = 6.0) -> float:
    """Path-loss exponent from one beacon-to-beacon link of known length.

    Ranging the link with the working exponent n_prime gives an apparent
    length; the ratio of log-lengths rescales n_prime toward the exponent
    that actually produced the measurement. Exact in one step on noiseless
    input. The apparent length is computed unclamped on purpose: clamping
    would silently cap the recoverable exponent.
    """
    if true_dist_m <= 0:
        raise ValueError("true_dist_m must be positive")
    if n_prime <= 0:
        raise ValueError("n_prime must be positive")
    log_d = math.log(true_dist_m)
    if log_d == 0.0:
        raise ValueError("a 1 m link cannot calibrate the exponent")
    log_d_apparent = (a_dbm - rss_between_beacons) / (10.0 * n_prime) * math.log(10.0)
    n = n_prime * log_d_apparent / log_d
    return min(max(n, n_min), n_max)


def refine_in_cell(corner_distances: Sequence[tuple[Point, float]]) -> Point:
    """Closed-form position inside a rectangle from its four corner ranges.

    Each opposite-corner-column pair yields one x equation and each
    corner-row pair one y equation; averaging the two of each makes the
    result exact whenever the four distances are mutually consistent.
    The estimate is clamped to the rectangle.
    """
    if len(corner_distances) != 4:
        raise GeometryError("refine_in_cell needs four corners")
    if not is_rectangle([p for p, _ in corner_distances]):
        raise GeometryError("corners do not form a rectangle")
    return _solve_in_cell(corner_distances)


def _solve_in_cell(corner_distances: Sequence[tuple[Point, float]]) -> Point:
    """refine_in_cell on four corners already known to form a rectangle.

    The bounds are the extreme corner coordinates, not the representatives
    _rectangle_axes returns, and each range is looked up within COORD_TOL
    of its corner.
    """
    xs = [p[0] for p, _ in corner_distances]
    ys = [p[1] for p, _ in corner_distances]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)

    def corner(px: float, py: float) -> float:
        for p, d in corner_distances:
            if abs(p[0] - px) <= COORD_TOL and abs(p[1] - py) <= COORD_TOL:
                return d
        raise GeometryError("missing corner")

    d1 = corner(x_lo, y_hi)
    d2 = corner(x_hi, y_hi)
    d3 = corner(x_hi, y_lo)
    d4 = corner(x_lo, y_lo)
    x = 0.5 * (x_lo + x_hi - ((d1 * d1 + d4 * d4) - (d2 * d2 + d3 * d3))
               / (2.0 * (x_lo - x_hi)))
    y = 0.5 * (y_hi + y_lo - ((d1 * d1 + d2 * d2) - (d3 * d3 + d4 * d4))
               / (2.0 * (y_hi - y_lo)))
    return Point(min(max(x, x_lo), x_hi), min(max(y, y_lo), y_hi))


# The three perfect matchings of four items, applied after sorting reports
# by beacon position.
_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def pair_split_estimate(reports: Sequence[RssiReport], n_used: float,
                        config: LocalizerConfig) -> Optional[Point]:
    """Straddling-cells handler.

    Splits the four reports into the two pairs with the most similar
    signal strengths, then laterates one axis per pair: a pair sharing a y
    coordinate fixes x, a pair sharing an x coordinate fixes y. Returns
    None when the chosen pairs do not supply both axes (collinear beacons,
    diagonal pairs); the caller falls back to a weighted centroid.
    """
    if len(reports) != 4:
        raise ValueError("pair_split_estimate needs exactly four reports")
    ordered = sorted(reports, key=lambda r: r.beacon_pos)
    best_cost = math.inf
    best = _PAIRINGS[0]
    for pairing in _PAIRINGS:
        cost = sum(abs(ordered[a].avg_rssi_dbm - ordered[b].avg_rssi_dbm)
                   for a, b in pairing)
        if cost < best_cost:
            best_cost = cost
            best = pairing
    x_est: Optional[float] = None
    y_est: Optional[float] = None
    for a, b in best:
        ra, rb = ordered[a], ordered[b]
        da = config.range_of(ra.avg_rssi_dbm, n_used)
        db = config.range_of(rb.avg_rssi_dbm, n_used)
        pa, pb = ra.beacon_pos, rb.beacon_pos
        if abs(pa[1] - pb[1]) <= COORD_TOL and abs(pa[0] - pb[0]) > COORD_TOL:
            est = 0.5 * (pa[0] + pb[0]) + (da * da - db * db) / (2.0 * (pb[0] - pa[0]))
            if x_est is None:
                x_est = est
        elif abs(pa[0] - pb[0]) <= COORD_TOL and abs(pa[1] - pb[1]) > COORD_TOL:
            est = 0.5 * (pa[1] + pb[1]) + (da * da - db * db) / (2.0 * (pb[1] - pa[1]))
            if y_est is None:
                y_est = est
    if x_est is None or y_est is None:
        return None
    return Point(x_est, y_est)


def near_beacon_estimate(max_report: RssiReport, state: EstimatorState,
                         n_used: float, config: LocalizerConfig) -> Point:
    """Dominant-beacon handler.

    The blind node sits on a circle of the ranged radius around the
    loudest beacon; history picks the direction along it. Preference:
    last position estimate, then the last resolved cell's center, then no
    direction at all (the beacon position itself). Always lands inside
    the region.
    """
    grid = config.grid
    r = config.range_of(max_report.avg_rssi_dbm, n_used)
    anchor = max_report.beacon_pos
    target = state.last_estimate
    if target is None and state.last_cell is not None:
        target = grid.cell_center(state.last_cell)
    if target is None:
        return grid.clamp(anchor)
    vx = target[0] - anchor[0]
    vy = target[1] - anchor[1]
    norm = math.hypot(vx, vy)
    if norm <= COORD_TOL:
        return grid.clamp(anchor)
    return grid.clamp(Point(anchor[0] + r * vx / norm,
                            anchor[1] + r * vy / norm))


def weighted_centroid(reports: Sequence[RssiReport]) -> Point:
    """Beacon positions averaged with linearized-power weights."""
    if not reports:
        raise ValueError("weighted_centroid needs at least one report")
    wsum = wx = wy = 0.0
    for r in reports:
        w = 10.0 ** (r.avg_rssi_dbm / 10.0)
        wsum += w
        wx += w * r.beacon_pos[0]
        wy += w * r.beacon_pos[1]
    return Point(wx / wsum, wy / wsum)


def _cell_or_none(p: Point, grid: GridSpec) -> Optional[CellId]:
    try:
        return containing_cell(p, grid)
    except OutOfRegionError:
        return None


def centroid_estimate(reports: Sequence[RssiReport], n_current: float,
                      grid: GridSpec) -> Estimate:
    """Baseline fix: the weighted centroid of the four strongest reports."""
    top4 = select_top4(reports)
    if top4 is None:
        return Estimate(None, FixMethod.NO_FIX, None, n_current)
    pos = weighted_centroid(top4)
    return Estimate(pos, FixMethod.CENTROID, _cell_or_none(pos, grid), n_current)


def localize(reports: Sequence[RssiReport], state: EstimatorState,
             config: LocalizerConfig) -> tuple[Estimate, EstimatorState]:
    """One localization round: select, dispatch, estimate, update history.

    Dispatch order: fewer than four reports is NoFix; a top-4 outlining a
    single grid cell refines inside it; otherwise a dominant beacon
    (ranged distance under near_beacon_tau cell spacings) is handled by
    direction recovery; everything else pair-splits, with the weighted
    centroid as the safety net. Degenerate geometry degrades, it never
    aborts.
    """
    n = state.n_current
    top4 = select_top4(reports)
    if top4 is None:
        return Estimate(None, FixMethod.NO_FIX, None, n), state

    grid = config.grid
    # Classify the top-4 once; cell_of_corners and refine_in_cell would
    # each classify it again.
    axes = _rectangle_axes([r.beacon_pos for r in top4])
    if axes is not None:
        try:
            cell = _cell_of_axes(axes, grid)
            pos = _solve_in_cell([(r.beacon_pos, config.range_of(r.avg_rssi_dbm, n))
                                  for r in top4])
        except GeometryError:
            # A rectangle wider than a cell or off the lattice is handled
            # like the straddling cases below.
            pass
        else:
            return (Estimate(pos, FixMethod.REFINED, cell, n),
                    EstimatorState(n, cell, pos))

    strongest = top4[0]
    fallback = False
    if config.range_of(strongest.avg_rssi_dbm, n) < config.near_beacon_tau * grid.spacing_m:
        method = FixMethod.NEAR_BEACON
        pos = near_beacon_estimate(strongest, state, n, config)
    else:
        method = FixMethod.PAIR_SPLIT
        pos = pair_split_estimate(top4, n, config)
        if pos is None:
            pos = weighted_centroid(top4)
            fallback = True
    cell = _cell_or_none(pos, grid)
    est = Estimate(pos, method, cell, n, fallback_centroid=fallback)
    return est, EstimatorState(
        n, cell if cell is not None else state.last_cell, pos)
