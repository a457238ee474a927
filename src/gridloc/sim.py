"""Deterministic scenario runs.

Binds the channel, lattice, protocol and estimator into reproducible
rounds, every reception sampled through the channel from a single seeded
stream. A round starts from the channel's link table: the beacons within
the reception radius of the blind node, in lattice order, each with its
mean RSS. The blind node is static within a round and a link is symmetric,
so that mean serves every packet on the link in either direction.
channel._links builds the tables of a step of consecutive rounds in one
pass, flat, with each round's count of links; numpy screens each mean,
and math decides which links are heard and every mean a record reads.
_run lays out the beacon table once, with GridSpec.beacon_position's
arithmetic, and measures each position only against its window of lattice
indices: the 2 * ceil(r / spacing) + 3 columns and rows around its nearest
vertex, shifted inside the lattice. A beacon outside it is more than the
radius r away along one axis, and a faithfully rounded hypot is never below
either axis, so the window hears what the whole lattice would. The spare
index each side covers the rounding of the vertex and the table; where
that nears half a spacing, far from the origin, the window widens by it.

Every packet has zero delay and every packet within the radius arrives,
and validation keeps every timer after the packets it waits for, so each
round of the protocol in gridloc.protocol, timed by the scenario's
protocol.ProtocolSettings, follows one fixed schedule. An adapting round
first takes its calibration level on the calibration link. With k beacons
in range: the start broadcast and the k acks at the round's start,
accum_count test broadcasts one inter-test gap apart, then the request and
the k responses one gap after the last test. _run plays a run in fixed
steps of rounds: a step builds at most CHUNK_DRAWS position-candidate pairs,
and needs at most CHUNK_DRAWS normals if each round hears the most beacons
it can, unless it is one round. channel.receive_rounds draws its normals
at once, each round's in that order. Every fixer reads only a round's four
strongest reports. A screened level, the screened mean plus the mean test
draw, is within eps of the exact level: SCREEN_DB for the mean, as much
again for adding in another order (which moves it under 2e-9 dB), and
half a step with quantize. So only links within 2 * eps of their round's
fourth strongest screened level can reach its top four, and only they get
exact levels (every link does when a trace writes every level); from
those _contenders picks each round's levels at least as strong as its
fourth strongest. The fixers read those contenders as arrays of levels,
positions and beacon ids, in steps merged into batches, each closed once
it holds CHUNK_DRAWS contenders or the rounds end: _localize_rounds fixes
a batch with one est.localize_step call, or, where a recorder or tracer
has replaced localize, builds the batch's reports and calls it once a
round, and _centroid_rounds with one est.centroid_step call. A fixer gives
a batch's fixes as columns, est.Fixes; _run joins each fixer's batches into
one Columns, with the rounds' positions (one rounds x 2 array), n and the
errors. The public runners build RoundRecords from those columns once, or,
as the command line calls them, give the columns and build none.
When a trace is asked for, a step's lines go to it at once, each round's
from one template that _trace_writer joins from the beacons it heard. The
discrete-event simulator that drives the protocol machines packet by
packet, and formats each of their messages whole, is the oracle in
tests/test_sim.py.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from itertools import accumulate, pairwise
from pathlib import Path
from typing import Callable, Container, NamedTuple, Optional, Sequence, Union, get_args

import numpy as np

from . import channel as chan
from . import estimator as est
from . import geometry as geo
from . import protocol as proto
from .geometry import ScenarioError
from .protocol import ProtocolSettings


@dataclass(frozen=True)
class Static:
    point: geo.Point

    def __post_init__(self) -> None:
        geo._check_kind(geo.Point, self.point, "point")


@dataclass(frozen=True)
class Waypoints:
    # (position, dwell in whole rounds); the node is frozen within a round.
    points: tuple[tuple[geo.Point, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.points, tuple):
            raise ScenarioError("points", "must be a tuple of (point, dwell_rounds) pairs")
        if not self.points:
            raise ScenarioError("points", "must not be empty")
        for i, item in enumerate(self.points):
            if not (isinstance(item, tuple) and len(item) == 2):
                raise ScenarioError(f"points[{i}]", "must be a (point, dwell_rounds) pair")
            point, dwell = item
            geo._check_kind(geo.Point, point, f"points[{i}].point")
            geo._check_kind(int, dwell, f"points[{i}].dwell_rounds")
            if dwell < 1:
                raise ScenarioError(f"points[{i}].dwell_rounds", "must be >= 1")


@dataclass(frozen=True)
class LatticeSweep:
    nx: int = 25
    ny: int = 25

    def __post_init__(self) -> None:
        geo._check_kinds(self)
        for name in ("nx", "ny"):
            if getattr(self, name) < 1:
                raise ScenarioError(name, "must be >= 1")


Trajectory = Union[Static, Waypoints, LatticeSweep]

# Largest lattice a scenario may describe, in beacons.
MAX_BEACONS = 10_000
# Most rounds a scenario may run; a run keeps about 1 kB of records a round.
MAX_ROUNDS = 10**6
# Most normals a run takes in one draw, unless one round needs more.
CHUNK_DRAWS = 2**15


@dataclass(frozen=True)
class EstimatorSettings:
    n_initial: float = 2.0
    near_beacon_tau: float = est.LocalizerConfig.near_beacon_tau
    adapt: bool = False
    calibration_beacons: tuple[int, int] = (0, 1)
    n_min: float = 1.0
    n_max: float = 6.0

    def __post_init__(self) -> None:
        geo._check_kinds(self)
        if self.n_initial <= 0:
            raise ScenarioError("n_initial", "must be positive")
        if not 0 < self.near_beacon_tau < 1:
            raise ScenarioError("near_beacon_tau", "must be in (0, 1)")
        if not 0 < self.n_min <= self.n_max:
            raise ScenarioError("n_min", "need 0 < n_min <= n_max")


@dataclass(frozen=True)
class Scenario:
    grid: geo.GridSpec = geo.GridSpec()
    channel: chan.ChannelParams = chan.ChannelParams()
    estimator: EstimatorSettings = EstimatorSettings()
    protocol: ProtocolSettings = ProtocolSettings()
    trajectory: Trajectory = field(default=Static(geo.Point(2.0, 2.0)),
                                   metadata={"kinds": get_args(Trajectory)})
    rounds: int = 1
    seed: int = 0
    quantize_rssi: bool = False

    def __post_init__(self) -> None:
        geo._check_kinds(self)
        if self.rounds < 1:
            raise ScenarioError("rounds", "must be >= 1")
        if self.rounds > MAX_ROUNDS:
            raise ScenarioError("rounds", f"must be at most {MAX_ROUNDS}")
        if self.seed < 0:
            raise ScenarioError("seed", "must be >= 0")
        n_beacons = self.grid.cols * self.grid.rows
        if n_beacons > MAX_BEACONS:
            raise ScenarioError("grid", f"cols * rows must be at most {MAX_BEACONS}")
        e = self.estimator
        if e.adapt:
            a, b = e.calibration_beacons
            if a == b or not (0 <= a < n_beacons and 0 <= b < n_beacons):
                raise ScenarioError("estimator.calibration_beacons",
                                    "need two distinct beacon ids on the lattice")
            length = _calibration_length(self)
            if length <= geo.COORD_TOL:
                raise ScenarioError("estimator.calibration_beacons",
                                    "the calibration beacons coincide")
            if abs(length - 1.0) <= geo.COORD_TOL:
                raise ScenarioError("estimator.calibration_beacons",
                                    "a 1 m link cannot calibrate the exponent")
        t = self.trajectory
        if isinstance(t, LatticeSweep) and self.rounds != t.nx * t.ny:
            raise ScenarioError("rounds",
                                f"must equal nx*ny = {t.nx * t.ny} for a lattice sweep")
        if isinstance(t, LatticeSweep):
            _check_sweep(self.grid, t, self.rounds)
        else:
            # Each distinct position is checked once, at the first round there.
            checked: set[geo.Point] = set()
            for i, pos in self._stops():
                if pos not in checked:
                    checked.add(pos)
                    _check_stop(self.grid, i, pos)
        # Every message time stays below twice rounds * round_interval_ms,
        # so a wait longer than one step of the clock there always ends
        # after the packets it waits for.
        p = self.protocol
        tick = math.ulp(self.rounds * p.round_interval_ms)
        for key in ("ack_timeout_ms", "response_window_ms"):
            if getattr(p, key) <= tick:
                raise ScenarioError(f"protocol.{key}",
                                    f"must be longer than one clock step, {tick:g} ms")

    def _stops(self) -> list[tuple[int, geo.Point]]:
        """(first round, position) of each stay of a blind node that does
        not sweep, in round order; a stay lasts until the next one starts
        or the rounds end."""
        t = self.trajectory
        if isinstance(t, Static):
            return [(0, t.point)]
        starts = accumulate((dwell for _, dwell in t.points), initial=0)
        return [(i, p) for i, (p, _) in zip(starts, t.points) if i < self.rounds]

    def _layout(self) -> np.ndarray:
        """The blind node's position each round, as a rounds x 2 array: a
        sweep laid out an axis at a time, else each stop repeated for the
        rounds of its stay."""
        t = self.trajectory
        if isinstance(t, LatticeSweep):
            return _sweep_layout(self.grid, t.nx, t.ny)
        starts, stops = zip(*self._stops())
        return np.repeat(np.array(stops, dtype=float), np.diff(starts + (self.rounds,)), axis=0)


def _lines_near(v: float, origin: float, spacing: float, count: int) -> list[int]:
    """Indices k in [0, count) of the lattice lines origin + k * spacing
    within COORD_TOL of v.

    Only the indices of the exact window, widened by a few ulps of the
    coordinates and by one index each way against rounding, are measured;
    every line is when v - origin overflows.
    """
    first, last = 0, count - 1
    d = v - origin
    if math.isfinite(d):
        slack = geo.COORD_TOL + 4.0 * math.ulp(abs(origin) + abs(v))
        # Clamp before rounding: far below the slack in spacing, the
        # quotients overflow to inf.
        first = max(math.floor(max((d - slack) / spacing, -1.0)) - 1, 0)
        last = min(math.ceil(min((d + slack) / spacing, float(count))) + 1, last)
    return [k for k in range(first, last + 1)
            if abs(v - (origin + k * spacing)) <= geo.COORD_TOL]


def _coincident_beacon(grid: geo.GridSpec, p: geo.Point) -> Optional[int]:
    """Lowest id of a beacon within COORD_TOL of p, or None.

    dist is never below the gap along one axis, so only a beacon on a
    column and a row within COORD_TOL of p can match; the cost does not
    grow with the lattice.
    """
    (ox, oy), s = grid.origin, grid.spacing_m
    cols = _lines_near(p[0], ox, s, grid.cols)
    if not cols:
        return None
    for j in _lines_near(p[1], oy, s, grid.rows):
        for i in cols:
            if geo.dist(p, grid.beacon_position(i, j)) <= geo.COORD_TOL:
                return grid.beacon_id(i, j)
    return None


def _check_stop(grid: geo.GridSpec, i: int, pos: geo.Point) -> None:
    """Reject a stop of the blind node, first at round i, outside the
    lattice hull or on a beacon."""
    xmin, ymin, xmax, ymax = grid.bounds()
    if not (xmin <= pos[0] <= xmax and ymin <= pos[1] <= ymax):
        raise ScenarioError("trajectory",
                            f"point {i} at ({pos[0]}, {pos[1]}) outside the lattice hull")
    beacon = _coincident_beacon(grid, pos)
    if beacon is not None:
        raise ScenarioError("trajectory", f"point {i} coincides with beacon {beacon}")


def _check_sweep(grid: geo.GridSpec, t: LatticeSweep, rounds: int) -> None:
    """_check_stop on each point of a lattice sweep, in round order, made
    an axis at a time: a point is in the hull when its x and its y are, and
    _coincident_beacon finds a beacon only where its x is near a column and
    its y near a row. The samples are laid out once an axis."""
    xmin, ymin, xmax, ymax = grid.bounds()
    (ox, oy), s = grid.origin, grid.spacing_m
    try:
        xs = _axis_samples(xmin, xmax - xmin, t.nx, s)
        ys = _axis_samples(ymin, ymax - ymin, t.ny, s)
    except OverflowError as exc:
        raise ScenarioError("trajectory", f"cannot lay out {rounds} rounds: {exc}") from exc
    # Every row fails at its first x outside the hull, if any; only the
    # columns before it can meet a beacon first.
    out = next((i for i, x in enumerate(xs) if not xmin <= x <= xmax), None)
    near = [i for i in range(t.nx if out is None else out)
            if _lines_near(xs[i], ox, s, grid.cols)]
    for j, y in enumerate(ys):
        if not ymin <= y <= ymax:
            _check_stop(grid, j * t.nx, geo.Point(xs[0], y))
        if near and _lines_near(y, oy, s, grid.rows):
            for i in near:
                _check_stop(grid, j * t.nx + i, geo.Point(xs[i], y))
        if out is not None:
            _check_stop(grid, j * t.nx + out, geo.Point(xs[out], y))


def _axis_samples(start: float, width: float, count: int, spacing: float) -> list[float]:
    step = width / count
    out = []
    for i in range(count):
        c = start + (i + 0.5) * step
        rel = (c - start) / spacing
        if abs(rel - round(rel)) * spacing <= geo.COORD_TOL:
            # Sample would sit exactly on a beacon line; pull it a quarter
            # step, or of a cell when a step is wider, into the lower cell
            # to keep it cell-interior.
            c -= 0.25 * min(step, spacing)
        out.append(c)
    return out


def _sweep_layout(grid: geo.GridSpec, nx: int, ny: int) -> np.ndarray:
    """The row-major sample grid over the lattice hull, inset half a step,
    as a rows x 2 array, laid out an axis at a time."""
    xmin, ymin, xmax, ymax = grid.bounds()
    xs = _axis_samples(xmin, xmax - xmin, nx, grid.spacing_m)
    ys = _axis_samples(ymin, ymax - ymin, ny, grid.spacing_m)
    return np.column_stack([np.tile(xs, ny), np.repeat(ys, nx)])


class RoundRecord(NamedTuple):
    round_index: int
    true_pos: geo.Point
    estimate: est.Estimate
    error_m: Optional[float]  # absent when there is no fix


class Columns(NamedTuple):
    """One fixer's run as columns, a round a row: the round's index, the
    true positions as a rows x 2 array, the fixes, n_used, and the error,
    nan without a fix."""

    round: Sequence[int]
    truth: np.ndarray
    fixes: est.Fixes
    n: list[float]
    error: np.ndarray

    def records(self, grid: geo.GridSpec) -> list[RoundRecord]:
        """Each round's record. A fix that has no cell here gets the cell
        geometry._cells_or_none reads off it, the cell localize and
        centroid_estimate give it."""
        x, y, method, fallback, cell = self.fixes
        cell, fixed = list(cell), method != est._NO_FIX_CODE
        read = np.flatnonzero(fixed & np.array([c is None for c in cell], dtype=bool))
        for i, c in zip(read.tolist(), geo._cells_or_none(x[read], y[read], grid)):
            cell[i] = c
        new, point, methods = tuple.__new__, geo.Point, est._METHODS
        return [new(RoundRecord, (i, new(point, (tx, ty)), new(est.Estimate, (
                    new(point, (x, y)) if f else None, methods[m], c, n, b)), e if f else None))
                for i, tx, ty, x, y, m, c, n, b, e, f in zip(
                    self.round, *self.truth.T.tolist(), x.tolist(), y.tolist(), method.tolist(),
                    cell, self.n, fallback.tolist(), self.error.tolist(), fixed.tolist())]


def _calibration_length(s: Scenario) -> float:
    a, b = s.estimator.calibration_beacons
    return geo.dist(s.grid.position_of(a), s.grid.position_of(b))


# A run as its records, or as its Columns, which gridloc.harness reads alike.
Run = Union[Sequence[RoundRecord], Columns]


def run_scenario(s: Scenario, trace: Union[list[str], Callable[[str], None], None] = None,
                 columns: bool = False) -> Run:
    """Play every round, localize each report set, and append each round's
    messages to trace when a list is given; a function is called instead
    with each step's lines, each ending in a newline. Each runner gives
    records, or with columns the run's Columns, building no record."""
    return _played(s, trace, (_localize_rounds,), columns)[0]


def run_baseline(s: Scenario, trace: Optional[list[str]] = None, columns: bool = False) -> Run:
    """Same rounds and RNG stream, but each fix is the weighted centroid
    of the four strongest reports. Comparison curve only."""
    return _played(s, trace, (_centroid_rounds,), columns)[0]


def run_with_baseline(s: Scenario, trace: Optional[list[str]] = None, columns: bool = False
                      ) -> tuple[Run, Run]:
    """(run_scenario(s), run_baseline(s)) from one play of the rounds, and
    the trace run_scenario writes."""
    return _played(s, trace, (_localize_rounds, _centroid_rounds), columns)


def _played(s: Scenario, trace: Union[list[str], Callable[[str], None], None],
            fixers: tuple[Callable, ...], columns: bool) -> tuple[Run, ...]:
    """Each fixer's Columns from one _run, or without columns its records.
    A trace that is a list gets each step's lines added to it."""
    sink = (trace if trace is None or callable(trace)
            else lambda text: trace.extend(text[:-1].split("\n")))
    runs = _run(s, sink, fixers)
    return tuple(runs if columns else (c.records(s.grid) for c in runs))


class _Step(NamedTuple):
    """A batch of rounds as a fixer reads it: the sample count of every
    level, the contenders' levels, positions and beacon ids as arrays,
    round i's from row cuts[i] to row cuts[i + 1], and each round's n,
    adapted or not."""

    count: int
    cuts: list[int]
    levels: np.ndarray
    xy: np.ndarray
    ids: np.ndarray
    ns: list[float]


# localize's own code: a recorder or a tracer that wraps localize rebinds
# every name bound to the function, never its code.
_LOCALIZE_CODE = est.localize.__code__


def _localize_rounds(step: _Step, state: est.EstimatorState, cfg: est.LocalizerConfig
                     ) -> tuple[est.Fixes, est.EstimatorState]:
    """The batch's fixes from est.localize_step, and the state after them;
    where est.localize has been replaced, from that, looked up on the
    module, once a round, on reports built from the batch's rows."""
    cuts, ns = step.cuts, step.ns
    if getattr(est.localize, "__code__", None) is _LOCALIZE_CODE:
        return est.localize_step(cuts, step.levels, step.xy, step.ids, ns, state, cfg)
    # One Point a beacon, shared by its reports: a Point per report cost 2 MB
    # of peak RSS in a sweep.
    _, first, which = np.unique(step.ids, return_index=True, return_inverse=True)
    points = list(map(geo.Point._make, step.xy[first].tolist()))
    reports = [est.RssiReport(points[i], v, step.count)
               for i, v in zip(which.tolist(), step.levels.tolist())]
    estimates = []
    for n, a, b in zip(ns, cuts, cuts[1:]):
        estimate, state = est.localize(reports[a:b], est.EstimatorState(n, state.last_estimate),
                                       cfg)
        estimates.append(estimate)
    return est._fixes(estimates), state


def _centroid_rounds(step: _Step, state: est.EstimatorState, cfg: est.LocalizerConfig
                     ) -> tuple[est.Fixes, est.EstimatorState]:
    """The batch's fixes from est.centroid_step, which keeps no state."""
    return est.centroid_step(step.cuts, step.levels, step.xy, cfg), state


def _merged(steps: list[_Step]) -> _Step:
    """Consecutive steps of rounds as one."""
    starts = accumulate((p.cuts[-1] for p in steps), initial=0)
    return _Step(steps[0].count,
                 [0] + [a + c for a, p in zip(starts, steps) for c in p.cuts[1:]],
                 *(np.concatenate(arrays) for arrays in zip(*(p[2:5] for p in steps))),
                 [n for p in steps for n in p.ns])


def _run(s: Scenario, trace: Optional[Callable[[str], None]],
         fixers: tuple[Callable[[_Step, est.EstimatorState, est.LocalizerConfig],
                                tuple[est.Fixes, est.EstimatorState]], ...]
         ) -> list[Columns]:
    """One play of the rounds: each step's trace lines, each ending in a
    newline, go to trace if given, and each fixer fixes every batch of
    steps' contenders from its own state, all states sharing the adapted n,
    into its own columns, the same as it gives played alone. A batch closes
    once it holds CHUNK_DRAWS contenders, or with the rounds. Each fix's
    error is math.hypot of its differences from the true position, taken
    on the arrays, as geometry.dist measures it."""
    rng = np.random.Generator(np.random.PCG64(s.seed))
    g, r = s.grid, s.channel.reception_radius_m
    (ox, oy), spacing = g.origin, g.spacing_m
    # The beacon table, by GridSpec.beacon_position's Python arithmetic (numpy's
    # warns where a far edge overflows to inf), in id order.
    xs, ys = (np.array([o + i * spacing for i in range(k)])
              for o, k in ((ox, g.cols), (oy, g.rows)))
    xy = np.column_stack([np.tile(xs, g.rows), np.repeat(ys, g.cols)])
    cfg = est.LocalizerConfig(
        grid=g,
        a_dbm=s.channel.a_dbm,
        near_beacon_tau=s.estimator.near_beacon_tau,
        range_d_max=s.channel.d_max_m,
    )
    n_exp = s.estimator.n_initial
    states = [est.EstimatorState(n_exp)] * len(fixers)
    cal_length = _calibration_length(s) if s.estimator.adapt else None
    # None beyond the radius: no calibration draw.
    cal_mean = chan.link_rss(cal_length, s.channel) if cal_length is not None else None
    n, interval = s.protocol.accum_count, s.protocol.round_interval_ms

    # position_of is the table's arithmetic: a trace's positions are its rows.
    write = _trace_writer(s.protocol, g.position_of) if trace is not None else None
    positions = s._layout()
    # A position's window: the columns and rows within half of its nearest
    # vertex, shifted inside the lattice (half is capped where that spans it).
    # slack bounds the rounding of the table, the vertex and r / spacing; the
    # spare index covers it below half a spacing, and more indices above.
    slack = 4 * math.ulp(abs(ox) + abs(oy) + (g.cols + g.rows) * spacing + r) / spacing
    half = min(math.ceil(r / spacing), MAX_BEACONS) + 1 + round(min(slack, MAX_BEACONS))
    wx, wy = min(2 * half + 1, g.cols), min(2 * half + 1, g.rows)
    window = (np.arange(wy)[:, None] * g.cols + np.arange(wx)).ravel()
    far = (g.cols - wx, g.rows - wy)
    # A beacon in range owns the spacing square around it, which lies in the
    # disc of radius r + spacing/√2, so a round hears at most that area in
    # squares. x * x overflows to inf on the largest radii, and min drops it.
    x = r / spacing + math.sqrt(0.5)
    most = int(min(window.size, math.pi * x * x + 1))
    step = max(min(CHUNK_DRAWS // window.size,
                   CHUNK_DRAWS // ((cal_mean is not None) + most * (n + 4))), 1)

    eps = 2 * chan.SCREEN_DB + 0.5 * s.quantize_rssi
    fixes, n_used = [[] for _ in fixers], []
    batch, held = [], 0
    for first in range(0, len(positions), step):
        pts = positions[first:first + step]
        # An index past the largest float is clipped as any far one is.
        with np.errstate(over="ignore"):
            lo = np.clip(((pts - g.origin) / spacing).round() - half, 0, far).astype(int)
        windows = lo[:, :1] + lo[:, 1:] * g.cols + window
        ids, screen, counts, exact = chan._links(xy, pts, s.channel, windows)
        cals, tests = chan.receive_rounds(counts, n, cal_mean, s.channel, rng, s.quantize_rssi)
        ends = list(accumulate(counts, initial=0))
        # Exact levels only for links that can reach a top four; a trace writes all.
        links = (np.arange(ids.size) if write is not None
                 else _contenders(screen + tests.mean(axis=0), counts, 2 * eps))
        avgs = chan.average_levels(tests[:, links], exact(links), s.quantize_rssi)
        if write is not None:
            heard, levels = ids.tolist(), avgs.tolist()
        # Each round's contenders, round i's from row cuts[i].
        firsts = np.searchsorted(links, ends)
        keep = _contenders(avgs, np.diff(firsts))
        links, avgs, cuts = links[keep], avgs[keep], np.searchsorted(keep, firsts).tolist()
        ids = ids[links]
        ns = [n_exp] * len(pts)
        if cal_mean is not None:
            for i in range(len(pts)):
                n_exp = ns[i] = est.adapt_n(cals[i], cal_length, n_exp, s.channel.a_dbm,
                                            s.estimator.n_min, s.estimator.n_max)
        if write is not None:
            trace("\n".join([write(heard[a:b], levels[a:b], (first + i) * interval)
                             for i, (a, b) in enumerate(pairwise(ends))]) + "\n")
        batch.append(_Step(n, cuts, avgs, xy[ids], ids, ns))
        n_used += ns
        held += avgs.size
        if held < CHUNK_DRAWS and first + step < len(positions):
            continue
        played, batch, held = _merged(batch), [], 0
        for k, fix in enumerate(fixers):
            done, states[k] = fix(played, states[k], cfg)
            fixes[k].append(done)
    tx, ty = positions.T
    runs = []
    for parts in fixes:
        joined = est._joined(parts)
        dx, dy = (joined.x - tx).tolist(), (joined.y - ty).tolist()
        runs.append(Columns(range(len(positions)), positions, joined, n_used,
                            np.fromiter(map(math.hypot, dx, dy), float, len(dx))))
    return runs


def _contenders(levels: np.ndarray, counts: Sequence[int], margin: float = 0.0) -> np.ndarray:
    """Indices into levels, in order, of each round's contenders for its
    top four, the rounds' finite levels flat with counts[r] each: every
    level at least as strong as its round's fourth strongest less margin,
    every one tied with that included, and each level of a round with at
    most four.

    At no margin est.select_top4, which reads no report weaker than the
    fourth strongest, returns the same four in the same order from the
    contenders as from all of a round's reports, and None from fewer than four.
    """
    k = np.array(counts)
    big = np.flatnonzero(k > 4)
    if not big.size:
        return np.arange(levels.size)
    # The larger rounds' levels, a row each, padded with -inf: each takes
    # at least 5 * (accum_count + 4) draws of a chunk, so the rows are few.
    width = k[big].max()
    cols = np.arange(width)
    starts = np.cumsum(k) - k
    rows = levels.take(starts[big, None] + cols, mode="clip")
    rows[cols >= k[big, None]] = -np.inf
    fourth = np.full(k.size, -np.inf)
    fourth[big] = np.partition(rows, width - 4, axis=1)[:, width - 4] - margin
    return np.flatnonzero(levels >= np.repeat(fourth, k))


def _trace_writer(p: ProtocolSettings, position: Callable[[int], geo.Point]
                  ) -> Callable[[list[int], list[float], float], str]:
    """write(ids, levels, t0), the lines of one round's schedule from t0 on,
    joined by newlines: the beacons of ids in range, each response carrying
    its level and p.accum_count. Each line's text after its time comes from
    protocol.format_trace_line once a run, a beacon's the first time it is in
    range, at position(id). The lines are one % template, joined each round
    from those texts, that takes the round's times and levels."""
    blind, cut = "m0", len(format(0.0, proto.TIME_SPEC))
    time_spec, value_spec = "%" + proto.TIME_SPEC, "%" + proto.VALUE_SPEC

    def tail(src: str, dst: str, msg: proto.Message) -> str:
        # A line's time is its first field, filled in each round.
        return "%s" + proto.format_trace_line(0.0, src, dst, msg)[cut:].replace("%", "%%")

    @cache
    def ack(i: int) -> str:
        return tail(f"b{i}", blind, proto.Ack(f"b{i}"))

    @cache
    def response(i: int) -> str:
        # A response's last two fields are its level and count.
        msg = proto.RssiAvgResponse(f"b{i}", position(i), 0.0, p.accum_count)
        head, _, count = tail(f"b{i}", blind, msg).rsplit(",", 2)
        return f"{head},{value_spec},{count}"

    start = tail(blind, proto.BROADCAST, proto.LocationStart(blind))
    # The tests and the request, the same every round.
    middle = "\n".join([tail(blind, proto.BROADCAST, proto.RssiTest(blind, seq))
                        for seq in range(1, p.accum_count + 1)]
                       + [tail(blind, proto.BROADCAST, proto.RssiAvgRequest(blind))])
    gaps = [p.inter_test_gap_ms] * p.accum_count

    def write(ids: list[int], levels: list[float], t0: float) -> str:
        if not ids:
            return start % (time_spec % t0)
        template = "\n".join([start, *map(ack, ids), middle, *map(response, ids)])
        # Each test's time, then the request's. The gap is added once per
        # test, as the blind machine's timer adds it; t0 + j * gap can round
        # differently.
        times = [time_spec % t for t in accumulate(gaps, initial=t0)]
        # The start and the acks are at t0, each response at the request.
        responses = [times[-1]] * (2 * len(ids))
        responses[1::2] = levels
        return template % (*[times[0]] * (len(ids) + 1), *times, *responses)

    return write


# Scenario files are JSON. Each object is one settings dataclass: its keys
# are the field names, a missing key keeps the field's default and a value
# must have the type of that default. Unknown keys are rejected. Paths are
# named within their section, and a section's name is put before them as its
# error leaves it.


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path and key else path or key


def _reject_unknown(d: dict, allowed: Container[str], path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ScenarioError(_join(path, key), "unknown key")


def _typed(kind: type, v: object, key: str) -> object:
    """v, read at key, as a setting whose default has type kind: a section,
    or a value with lists read as tuples and numbers kept as floats. A value
    of another kind is passed on as it is, for the dataclass to reject."""
    if is_dataclass(kind):
        try:
            trajectory = kind in (Static, Waypoints, LatticeSweep)
            return _parse_trajectory(v) if trajectory else _settings(kind, v)
        except ScenarioError as exc:
            raise ScenarioError(_join(key, exc.path), exc.rule) from None
    if isinstance(v, list):
        v = tuple(v)
    if not geo._KINDS[kind][0](v):
        return v
    if kind is geo.Point:
        return geo.Point(float(v[0]), float(v[1]))
    return float(v) if kind is float else v


def _settings(cls: type, d: object):
    """An instance of the settings dataclass cls from one JSON object."""
    if not isinstance(d, dict):
        raise ScenarioError("", "expected an object")
    kinds = {f.name: type(f.default) for f in fields(cls)}
    _reject_unknown(d, kinds, "")
    return cls(**{name: _typed(kind, d[name], name)
                  for name, kind in kinds.items() if name in d})


def _parse_trajectory(v: object) -> Trajectory:
    if not isinstance(v, dict):
        raise ScenarioError("", "expected an object")
    kind = v.get("kind")
    if kind == "static":
        _reject_unknown(v, {"kind", "point"}, "")
        if "point" not in v:
            raise ScenarioError("point", "required for static")
        return Static(_typed(geo.Point, v["point"], "point"))
    if kind == "waypoints":
        _reject_unknown(v, {"kind", "points"}, "")
        raw = v.get("points")
        if not isinstance(raw, list):
            raise ScenarioError("points", "expected a list")
        points = []
        for i, item in enumerate(raw):
            where = f"points[{i}]"
            if not isinstance(item, dict):
                raise ScenarioError(where, "expected an object")
            _reject_unknown(item, {"point", "dwell_rounds"}, where)
            if "point" not in item:
                raise ScenarioError(f"{where}.point", "required")
            points.append((_typed(geo.Point, item["point"], f"{where}.point"),
                           item.get("dwell_rounds", 1)))
        return Waypoints(tuple(points))
    if kind == "lattice_sweep":
        return _settings(LatticeSweep, {k: x for k, x in v.items() if k != "kind"})
    raise ScenarioError("kind", "expected static, waypoints or lattice_sweep")


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from parsed configuration data."""
    if not isinstance(data, dict):
        raise ScenarioError("", "scenario must be an object")
    data = dict(data)
    if data.pop("rng", "pcg64") != "pcg64":
        raise ScenarioError("rng", "only pcg64 is supported")
    if "trajectory" not in data:
        raise ScenarioError("trajectory", "required")
    return _settings(Scenario, data)


def parse_scenario(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def load_scenario(path: Union[str, Path]) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))
