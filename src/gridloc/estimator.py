"""Two-phase grid localization.

Coarse phase: pick the four strongest beacon reports and try to resolve the
grid cell they outline. Fine phase: closed-form in-cell position from the
four corner ranges. Two degenerate layouts get dedicated handlers: the four
strongest beacons straddling two cells (pair split) and one beacon
dominating the ranking (near beacon).

The coarse phase's answer depends only on the four beacon positions in
rank order and the grid, so _cell_plan works it out in one pass over the
four and keeps it per process in a bounded cache: the cell and the report
at each corner or, for four that frame no cell, the pairs of each pairing
in position order that fix x and y, if any. A plan holds indices, never a
coordinate: the fix reads positions, levels and bounds from the call's own
reports and grid, with their bits, and ranges the four levels in one
channel._inverse_ranges call. Reports, states and estimates are named
tuples; localize builds its own with tuple.__new__, from fields already
checked. localize_step gives localize's bits for a step of rounds at once,
ranging and refining on arrays by the same correctly rounded operations,
and, like centroid_step, returns the step's fixes as columns (Fixes), with
no Estimate a round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .channel import (D_MAX_FACTOR, D_MIN_SPACINGS, DEFAULT_A_DBM, ChannelParams,
                      _inverse_ranges)
from .geometry import COORD_TOL, CellId, GridSpec, Point, _cell_or_none, _clamp

# Distinct ranked top-4s whose cell plans localize keeps. A 625-round
# paper_sweep run has at most a few hundred.
PLAN_CACHE_SIZE = 4096
# The largest exponent of ten the step fixers take, capped on the array:
# Python's ** raises past about 308.25, and 1e308 is past every range and
# weight they keep.
EXP10_MAX = 308.0


class FixMethod(Enum):
    REFINED = "refined"
    PAIR_SPLIT = "pair_split"
    NEAR_BEACON = "near_beacon"
    NO_FIX = "no_fix"
    # Produced only by the baseline, centroid_estimate and centroid_step,
    # never by localize().
    CENTROID = "centroid"


# In declaration order: on Python 3.11 each FixMethod.X is a descriptor call.
_REFINED, _PAIR_SPLIT, _NEAR_BEACON, _NO_FIX, _CENTROID = _METHODS = tuple(FixMethod)
# A column of fixes holds each method as its index in _METHODS.
_REFINED_CODE, _PAIR_SPLIT_CODE, _NEAR_BEACON_CODE, _NO_FIX_CODE, _CENTROID_CODE = range(5)
# A named tuple from fields already checked, without its __new__.
_new = tuple.__new__


def _check_count(sample_count: int) -> None:
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")


class _ReportFields(NamedTuple):
    beacon_pos: Point
    avg_rssi_dbm: float
    sample_count: int = 1


class RssiReport(_ReportFields):
    """Averaged signal strength from one beacon.

    An immutable named tuple. The constructor, _make and _replace all check
    the sample count.
    """

    __slots__ = ()

    def __new__(cls, beacon_pos: Point, avg_rssi_dbm: float,
                sample_count: int = 1) -> RssiReport:
        _check_count(sample_count)
        return tuple.__new__(cls, (beacon_pos, avg_rssi_dbm, sample_count))

    @classmethod
    def _make(cls, iterable: Iterable) -> RssiReport:
        # The named tuple's _make checks the length and skips __new__;
        # _replace goes through here.
        report = super()._make(iterable)
        _check_count(report.sample_count)
        return report


def _check_n(n_current: float) -> None:
    if n_current <= 0:
        raise ValueError("n_current must be positive")


class _StateFields(NamedTuple):
    n_current: float = 2.0
    last_estimate: Optional[Point] = None


class EstimatorState(_StateFields):
    """Per-blind-node history carried between rounds, as an immutable named
    tuple: the working path-loss exponent, which the constructor, _make and
    _replace check is positive, and the last fix, which localize sets."""

    __slots__ = ()

    def __new__(cls, n_current: float = 2.0,
                last_estimate: Optional[Point] = None) -> EstimatorState:
        _check_n(n_current)
        return tuple.__new__(cls, (n_current, last_estimate))

    @classmethod
    def _make(cls, iterable: Iterable) -> EstimatorState:
        state = super()._make(iterable)
        _check_n(state.n_current)
        return state


class Estimate(NamedTuple):
    pos: Optional[Point]
    method: FixMethod
    cell: Optional[CellId] = None
    n_used: float = 2.0
    # True when pair-split geometry was unsupported and the weighted
    # centroid stood in.
    fallback_centroid: bool = False


class Fixes(NamedTuple):
    """The fixes of a step of rounds as columns, a round a row: x and y,
    nan for a round without a fix; each method as its index in FixMethod,
    an int8; whether the weighted centroid stood in for a pair split; and
    each round's cell. The step fixers give only a refined round's, from
    its plan, and None for any other: no CSV writes it, and a record reads
    it off the fix."""

    x: np.ndarray
    y: np.ndarray
    method: np.ndarray
    fallback: np.ndarray
    cell: list[Optional[CellId]]


def _fixes(estimates: Sequence[Estimate]) -> Fixes:
    """The columns of estimates, each with its cell."""
    x, y = np.array([(math.nan, math.nan) if e[0] is None else e[0] for e in estimates],
                    dtype=float).reshape(-1, 2).T
    return Fixes(x, y, np.array([_METHODS.index(e[1]) for e in estimates], dtype=np.int8),
                 np.array([e[4] for e in estimates], dtype=bool), [e[2] for e in estimates])


def _joined(parts: Sequence[Fixes]) -> Fixes:
    """The columns of consecutive steps' fixes as one."""
    x, y, method, fallback, cells = zip(*parts)
    return Fixes(*map(np.concatenate, (x, y, method, fallback)), [c for p in cells for c in p])


@dataclass(frozen=True)
class LocalizerConfig:
    grid: GridSpec
    a_dbm: float = DEFAULT_A_DBM
    near_beacon_tau: float = 0.25
    range_d_max: float = D_MAX_FACTOR * ChannelParams.reception_radius_m
    # Read off the grid, not set: D_MIN_SPACINGS spacings, never over range_d_max.
    range_d_min: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "range_d_min",
                           min(D_MIN_SPACINGS * self.grid.spacing_m, self.range_d_max))


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
    return adapt_ns([rss_between_beacons], true_dist_m, n_prime, a_dbm, n_min, n_max)[0]


def adapt_ns(levels: Iterable[float], true_dist_m: float, n_prime: float,
             a_dbm: float, n_min: float = 1.0, n_max: float = 6.0) -> list[float]:
    """adapt_n over consecutive rounds' calibration levels, each exponent
    adapted from the one before, the first from n_prime; checked once."""
    if true_dist_m <= 0:
        raise ValueError("true_dist_m must be positive")
    if n_prime <= 0:
        raise ValueError("n_prime must be positive")
    log_d = math.log(true_dist_m)
    if log_d == 0.0:
        raise ValueError("a 1 m link cannot calibrate the exponent")
    ln10, out = math.log(10.0), []
    for rss in levels:
        log_d_apparent = (a_dbm - rss) / (10.0 * n_prime) * ln10
        n_prime = min(max(n_prime * log_d_apparent / log_d, n_min), n_max)
        out.append(n_prime)
    return out


def _solve_in_cell(quad: Sequence[Point], ranges: Sequence[float],
                   plan: Sequence[int]) -> Point:
    """The closed-form fix from the corners, their ranges in the same
    order, and _cell_plan's indices into both: the first of the min x, max
    x, min y and max y, then the corners at (x_lo, y_hi), (x_hi, y_hi),
    (x_hi, y_lo) and (x_lo, y_lo). Each column pair gives one x and each
    row pair one y; their mean is exact when the four ranges agree. The fix
    is clamped to the rectangle."""
    lo_x, hi_x, lo_y, hi_y, c1, c2, c3, c4 = plan
    x_lo, x_hi, y_lo, y_hi = quad[lo_x][0], quad[hi_x][0], quad[lo_y][1], quad[hi_y][1]
    d1, d2, d3, d4 = ranges[c1], ranges[c2], ranges[c3], ranges[c4]
    x = 0.5 * (x_lo + x_hi - ((d1 * d1 + d4 * d4) - (d2 * d2 + d3 * d3))
               / (2.0 * (x_lo - x_hi)))
    y = 0.5 * (y_hi + y_lo - ((d1 * d1 + d2 * d2) - (d3 * d3 + d4 * d4))
               / (2.0 * (y_hi - y_lo)))
    return Point(min(max(x, x_lo), x_hi), min(max(y, y_lo), y_hi))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cell_plan(quad: tuple[Point, ...], grid: GridSpec) -> tuple[Optional[CellId], tuple]:
    """The cell whose corners the ranked top-4 positions are on grid, with
    the indices _solve_in_cell reads, or None with their _split_plan when
    they frame no cell: four points that are no rectangle, or a rectangle
    wider than a cell or off the lattice. In one pass: each point is in the
    first point's column or not and in its row or not, by COORD_TOL. Each
    of the four combinations must come once, the two points off the column
    must agree in x within COORD_TOL and the two off the row in y. The
    first point's x and y and the first of those others give the sides and
    the lower-left corner, checked against the spacing and the lattice, and
    the same bits name the corners.
    """
    (x0, y0), spacing = quad[0], grid.spacing_m
    off = [(abs(x - x0) > COORD_TOL, abs(y - y0) > COORD_TOL) for x, y in quad]
    if len(set(off)) == 4:
        x1, x2 = [p[0] for p, o in zip(quad, off) if o[0]]
        y1, y2 = [p[1] for p, o in zip(quad, off) if o[1]]
        (x_lo, x_hi), (y_lo, y_hi) = sorted((x0, x1)), sorted((y0, y1))
        if (abs(x2 - x1) <= COORD_TOL and abs(y2 - y1) <= COORD_TOL
                and abs((x_hi - x_lo) - spacing) <= COORD_TOL
                and abs((y_hi - y_lo) - spacing) <= COORD_TOL):
            col = (x_lo - grid.origin[0]) / spacing
            row = (y_lo - grid.origin[1]) / spacing
            # A quotient past the largest float is off the lattice; round() would raise.
            ci, ri = (round(col), round(row)) if math.isfinite(col + row) else (-1, -1)
            if (abs(col - ci) * spacing <= COORD_TOL
                    and abs(row - ri) * spacing <= COORD_TOL
                    and 0 <= ci < grid.cols - 1 and 0 <= ri < grid.rows - 1):
                # Each point's index by whether it is at the high x and y.
                at = {(ox != (x1 < x0), oy != (y1 < y0)): i
                      for i, (ox, oy) in enumerate(off)}
                xs, ys = [p[0] for p in quad], [p[1] for p in quad]
                # index finds the element min and max return: the first extreme one.
                return CellId(ci, ri), (xs.index(min(xs)), xs.index(max(xs)),
                                        ys.index(min(ys)), ys.index(max(ys)),
                                        at[False, True], at[True, True],
                                        at[True, False], at[False, False])
    return None, _split_plan(quad)


# The three perfect matchings of four items, applied after sorting reports
# by beacon position.
_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _pair_axis(pa: Point, pb: Point) -> Optional[int]:
    """0 when two positions share a y coordinate but not an x, so that their
    ranges fix x; 1 when they share an x but not a y and fix y; else None."""
    dx, dy = abs(pa[0] - pb[0]), abs(pa[1] - pb[1])
    return 0 if dy <= COORD_TOL < dx else 1 if dx <= COORD_TOL < dy else None


def _split_plan(quad: Sequence[Point]) -> tuple[tuple, ...]:
    """Each of _PAIRINGS on the sorted positions: its two pairs as indices
    into quad, then the pairs that fix x and y, or None if they do not."""
    order = sorted(range(4), key=quad.__getitem__)
    plan = []
    for (a, b), (i, j) in _PAIRINGS:
        a, b, i, j = order[a], order[b], order[i], order[j]
        axes = (_pair_axis(quad[a], quad[b]), _pair_axis(quad[i], quad[j]))
        plan.append((a, b, i, j, (a, b, i, j) if axes == (0, 1)
                     else (i, j, a, b) if axes == (1, 0) else None))
    return tuple(plan)


def _laterate(pa: Point, pb: Point, da: float, db: float, k: int) -> float:
    """Coordinate k of a point da from pa and db from pb, which differ in k only."""
    return 0.5 * (pa[k] + pb[k]) + (da * da - db * db) / (2.0 * (pb[k] - pa[k]))


def _pair_split(quad: Sequence[Point], levels: Sequence[float], split: tuple[tuple, ...],
                d: Sequence[float]) -> Optional[Point]:
    """The pair-split fix of four positions from their levels, _split_plan
    and ranges: the pairing whose pairs differ least in level laterates one
    axis per pair. None when the chosen pairs leave an axis unfixed."""
    best_cost, axes = math.inf, split[0][4]
    for a, b, i, j, fix in split:
        cost = abs(levels[a] - levels[b]) + abs(levels[i] - levels[j])
        if cost < best_cost:
            best_cost, axes = cost, fix
    if axes is None:
        return None
    xa, xb, ya, yb = axes
    return Point(_laterate(quad[xa], quad[xb], d[xa], d[xb], 0),
                 _laterate(quad[ya], quad[yb], d[ya], d[yb], 1))


def _near_beacon(anchor: Point, r: float, target: Optional[Point],
                 bounds: Sequence[float]) -> Point:
    """The point r from anchor toward target, clamped to the grid bounds;
    anchor itself, clamped, with no target or one at the anchor."""
    vx, vy = (0.0, 0.0) if target is None else (target[0] - anchor[0], target[1] - anchor[1])
    norm = math.hypot(vx, vy)
    if norm <= COORD_TOL:
        return _clamp(anchor, bounds)
    return _clamp(Point(anchor[0] + r * vx / norm, anchor[1] + r * vy / norm), bounds)


def weighted_centroid(reports: Sequence[RssiReport]) -> Point:
    """Beacon positions averaged with linearized-power weights."""
    if not reports:
        raise ValueError("weighted_centroid needs at least one report")
    return _centroid(list(map(_position, reports)), list(map(_strength, reports)))


def _centroid(positions: Sequence[Point], levels: Sequence[float]) -> Point:
    """weighted_centroid of the reports at positions with levels."""
    # Far from 0 dBm every weight can underflow to 0, or one overflow. Only
    # then is each taken relative to the strongest, which weighs 1; x - 0.0
    # is x, so every centroid that the absolute weights give keeps its bits.
    for strongest in (False, True):
        ref = max(levels) if strongest else 0.0
        wsum = wx = wy = 0.0
        try:
            for (x, y), level in zip(positions, levels):
                w = 10.0 ** ((level - ref) / 10.0)
                wsum += w
                wx += w * x
                wy += w * y
        except OverflowError:
            continue
        if 0.0 < wsum < math.inf:
            break
    return Point(wx / wsum, wy / wsum)


def centroid_estimate(reports: Sequence[RssiReport], state: EstimatorState,
                      config: LocalizerConfig) -> tuple[Estimate, EstimatorState]:
    """Baseline fix: the weighted centroid of the four strongest reports,
    called as localize is; state comes back unchanged."""
    top4 = select_top4(reports)
    if top4 is None:
        return _new(Estimate, (None, _NO_FIX, None, state.n_current, False)), state
    pos, grid = weighted_centroid(top4), config.grid
    return _new(Estimate, (pos, _CENTROID, _cell_or_none(pos, grid, grid.bounds()),
                           state.n_current, False)), state


def _rank_top4(cuts: Sequence[int], levels: np.ndarray, xy: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each round's count of reports, the rounds with four or more, and
    for each of those the indices of its four strongest in select_top4's
    order, ties and -0.0 included: one lexsort on (-level, x, y) of a row
    per round, padded past its count with the weakest level, which ranks
    last."""
    counts = np.diff(cuts)
    fixed = np.flatnonzero(counts >= 4)
    cols = np.arange(max(counts.max(initial=0), 4))
    row = np.asarray(cuts)[fixed, None] + cols
    weakest = -levels.take(row, mode="clip")
    weakest[cols >= counts[fixed, None]] = np.inf
    rank = np.lexsort((xy[:, 1].take(row, mode="clip"), xy[:, 0].take(row, mode="clip"),
                       weakest), axis=-1)
    return counts, fixed, np.take_along_axis(row, rank[:, :4], 1)


def centroid_step(cuts: Sequence[int], levels: np.ndarray, xy: np.ndarray,
                  config: LocalizerConfig) -> Fixes:
    """centroid_estimate's fix of each round of a step, with every bit, as
    columns: round i's reports are rows cuts[i] to cuts[i + 1] of the
    arrays levels and xy, a level and a beacon position a row.

    The rounds are ranked at once, each in select_top4's order. Each weight
    is Python's float power (numpy's can round otherwise, and differently
    on another host) of an exponent capped at EXP10_MAX, and the sums are
    added a column at a time, from 0.0, in weighted_centroid's order. A
    round with an exponent past the cap, or whose weights sum to 0 or inf,
    is fixed by centroid_estimate alone, from reports built from its rows.
    """
    counts, fixed, top = _rank_top4(cuts, levels, xy)
    e = levels[top] / 10.0
    w = np.array([10.0 ** x for x in np.minimum(e, EXP10_MAX).ravel().tolist()]).reshape(-1, 4)
    xs, ys = xy[top, 0], xy[top, 1]
    wsum = wx = wy = np.zeros(fixed.size)
    px, py = np.full((2, counts.size), np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(4):
            wsum, wx, wy = wsum + w[:, k], wx + w[:, k] * xs[:, k], wy + w[:, k] * ys[:, k]
        px[fixed], py[fixed] = wx / wsum, wy / wsum
    bad = ~((0.0 < wsum) & (wsum < math.inf) & (e <= EXP10_MAX).all(1))
    for i in fixed[bad].tolist():
        a, b = cuts[i], cuts[i + 1]
        reports = list(map(RssiReport, map(Point._make, xy[a:b].tolist()), levels[a:b].tolist()))
        px[i], py[i] = centroid_estimate(reports, EstimatorState(), config)[0][0]
    return Fixes(px, py, np.where(counts >= 4, _CENTROID_CODE, _NO_FIX_CODE).astype(np.int8),
                 np.zeros(counts.size, dtype=bool), [None] * counts.size)


def localize(reports: Sequence[RssiReport], state: EstimatorState,
             config: LocalizerConfig) -> tuple[Estimate, EstimatorState]:
    """One localization round: select, dispatch, estimate, update history.

    Dispatch order: fewer than four reports is NoFix; a top-4 outlining a
    single grid cell refines inside it; otherwise a dominant beacon
    (ranged distance under near_beacon_tau cell spacings) is handled by
    direction recovery; everything else pair-splits, with the weighted
    centroid as the safety net. Degenerate geometry degrades, it never
    aborts.

    Whether the top-4 frames a cell, and which reports fix which corner or
    axis, is worked out once per distinct ranked top-4 and grid, and kept in
    a cache of at most PLAN_CACHE_SIZE plans per process; the fix is read
    from this call's reports each time, so outputs keep their bits.
    """
    n = state.n_current
    top4 = select_top4(reports)
    if top4 is None:
        return _new(Estimate, (None, _NO_FIX, None, n, False)), state

    quad = tuple(map(_position, top4))
    cell, plan = _cell_plan(quad, config.grid)
    d = _inverse_ranges(map(_strength, top4), config.a_dbm, n, config.range_d_max,
                        config.range_d_min)[0]
    if cell is not None:
        pos = _solve_in_cell(quad, d, plan)
        return _new(Estimate, (pos, _REFINED, cell, n, False)), _new(EstimatorState, (n, pos))
    grid = config.grid
    bounds = grid.bounds()
    pos, method, fallback = _unframed(quad, map(_strength, top4), plan, d, state.last_estimate,
                                      config, bounds)
    return (_new(Estimate, (pos, _METHODS[method], _cell_or_none(pos, grid, bounds), n, fallback)),
            _new(EstimatorState, (n, pos)))


def _unframed(quad: Sequence[Point], levels: Iterable[float], split: tuple[tuple, ...],
              d: Sequence[float], last: Optional[Point], config: LocalizerConfig,
              bounds: Sequence[float]) -> tuple[Point, int, bool]:
    """localize's fix of a top four that frames no cell, its method's
    index in FixMethod and whether the weighted centroid stood in, from the
    four's positions, levels, _split_plan and ranges, the last fix and the
    grid's bounds: near beacon if the strongest range is under
    near_beacon_tau spacings, else pair split or the weighted centroid.
    Only a pair split reads the levels."""
    if d[0] < config.near_beacon_tau * config.grid.spacing_m:
        return _near_beacon(quad[0], d[0], last, bounds), _NEAR_BEACON_CODE, False
    levels = list(levels)
    pos = _pair_split(quad, levels, split, d)
    if pos is None:
        return _centroid(quad, levels), _PAIR_SPLIT_CODE, True
    return pos, _PAIR_SPLIT_CODE, False


def localize_step(cuts: Sequence[int], levels: np.ndarray, xy: np.ndarray, ids: np.ndarray,
                  ns: Sequence[float], state: EstimatorState,
                  config: LocalizerConfig) -> tuple[Fixes, EstimatorState]:
    """localize's fix of each round of a step, with every bit, as columns,
    and the state after them: round i's reports are rows cuts[i] to
    cuts[i + 1] of the arrays levels, xy and ids, a level, a beacon
    position and its id a row, its n_current is ns[i], and its last fix the
    one before it, or state's for the first round.

    The rounds are ranked as centroid_step ranks them. Each range is
    Python's float power of an array quotient capped at EXP10_MAX, clamped
    by comparisons as _inverse_ranges clamps it. So each range is
    _inverse_ranges' for any range_d_max up to 1e308; the simulator's is at
    most 4e150, D_MAX_FACTOR times RECEPTION_RADIUS_MAX_M. Each distinct
    top four gets one _cell_plan of four Points from its first round's
    rows, keyed by the ranks of its ids among those the step's top fours
    name, as the digits of an int64: more than 55,108 beacons named raise
    ValueError. An id names one position, so every round of a top four
    shares its Points. Refined rounds are solved on arrays in
    _solve_in_cell's order, each clamp a where that picks what max and min
    pick, -0.0 included (np.maximum and np.minimum may not), and carry
    their plan's cell. The other rounds are fixed in order by localize's
    helpers, each from the fix of the last round with four reports or
    more; a no_fix keeps the last.
    """
    counts, fixed, top = _rank_top4(cuts, levels, xy)
    lo, hi = config.range_d_min, config.range_d_max
    with np.errstate(over="ignore"):
        e = (config.a_dbm - levels[top]) / (10.0 * np.asarray(ns, dtype=float)[fixed])[:, None]
    d = np.array([10.0 ** x for x in np.minimum(e, EXP10_MAX).ravel().tolist()]).reshape(-1, 4)
    d = np.where(d < lo, lo, np.where(d > hi, hi, d))
    names, ranks = np.unique(ids[top], return_inverse=True)
    if names.size ** 4 > 2 ** 63:
        raise ValueError(f"the top fours name {names.size:,} beacons; an int64 key holds 55,108")
    _, first, which = np.unique(ranks.reshape(-1, 4) @ names.size ** np.arange(3, -1, -1),
                                return_index=True, return_inverse=True)
    quads = [tuple(map(Point._make, quad)) for quad in xy[top[first]].tolist()]
    plans = [_cell_plan(quad, config.grid) for quad in quads]
    framed = np.array([cell is not None for cell, _ in plans], dtype=bool)[which]
    # Each refined round's eight indices, by _solve_in_cell's unpacking.
    at = np.array([plan if cell is not None else (0,) * 8 for cell, plan in plans],
                  dtype=int).reshape(-1, 8)[which[framed]]
    rows = top[framed]
    (x_lo, x_hi), (y_lo, y_hi) = (np.take_along_axis(xy[rows, k], at[:, 2 * k:2 * k + 2], 1).T
                                  for k in (0, 1))
    d1, d2, d3, d4 = np.take_along_axis(d[framed], at[:, 4:], 1).T
    with np.errstate(all="ignore"):
        x = 0.5 * (x_lo + x_hi - ((d1 * d1 + d4 * d4) - (d2 * d2 + d3 * d3))
                   / (2.0 * (x_lo - x_hi)))
        y = 0.5 * (y_hi + y_lo - ((d1 * d1 + d2 * d2) - (d3 * d3 + d4 * d4))
                   / (2.0 * (y_hi - y_lo)))
    x, y = np.where(x_lo > x, x_lo, x), np.where(y_lo > y, y_lo, y)
    x, y = np.where(x_hi < x, x_hi, x), np.where(y_hi < y, y_hi, y)
    px, py = np.full((2, counts.size), np.nan)
    method = np.full(counts.size, _NO_FIX_CODE, dtype=np.int8)
    fallback = np.zeros(counts.size, dtype=bool)
    refined = fixed[framed]
    px[refined], py[refined], method[refined] = x, y, _REFINED_CODE
    cell = [None] * counts.size
    for i, u in zip(fixed.tolist(), which.tolist()):
        cell[i] = plans[u][0]
    # The other rounds in order, each from the fix of the last round with one.
    loose = np.flatnonzero(~framed)
    if loose.size:
        order, xs, ys, codes = fixed.tolist(), px.tolist(), py.tolist(), []
        bounds = config.grid.bounds()
        for k, u, four, r in zip(loose.tolist(), which[loose].tolist(),
                                 levels[top[loose]].tolist(), d[loose].tolist()):
            last = (_new(Point, (xs[order[k - 1]], ys[order[k - 1]])) if k
                    else state.last_estimate)
            i = order[k]
            (xs[i], ys[i]), code, fallback[i] = _unframed(quads[u], four, plans[u][1], r, last,
                                                          config, bounds)
            codes.append(code)
        px, py = np.array(xs), np.array(ys)
        method[fixed[loose]] = codes
    last = (_new(Point, (px.item(fixed[-1]), py.item(fixed[-1]))) if fixed.size
            else state.last_estimate)
    return (Fixes(px, py, method, fallback, cell),
            _new(EstimatorState, (ns[-1], last)) if counts.size else state)
