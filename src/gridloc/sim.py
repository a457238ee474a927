"""Deterministic scenario runs.

Binds the channel, lattice, protocol machines and estimator into
reproducible rounds, every reception sampled through the channel from a
single seeded stream. A round starts from a link table: the beacons within
the reception radius of the blind node, in lattice order, each with its
mean RSS. The blind node is static within a round and a link is symmetric,
so that mean serves every packet on the link in either direction.

A traced run plays each round through the discrete-event simulator (DES):
one heap-ordered event queue per round, zero propagation delay, FIFO among
same-time events. A broadcast is one queue entry carrying one level per
beacon in the table, all drawn with one channel call when it is sent, and
it is fanned out to those beacons in order when it is popped. Its
deliveries would be consecutive in FIFO order anyway, so events and draws
keep their order. A beacon's reply reuses its link's mean and takes one
draw.

A run without a trace takes the batched engine, which gives the same
reports from one draw per round and no events. That is exact because
every packet has zero delay and every packet within the radius arrives,
and validation keeps every timer after the packets it waits for. So with k
beacons in range a round always draws the same k·(accum_count + 4) normals
in the same order: start broadcast, k acks, accum_count test broadcasts,
request, k responses. The DES stays as the oracle the batched engine is
tested against.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Container, Optional, Union

import numpy as np

from . import channel as chan
from . import estimator as est
from . import geometry as geo
from . import protocol as proto


class ScenarioError(ValueError):
    """Invalid scenario description; the message names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass(frozen=True)
class Static:
    point: geo.Point


@dataclass(frozen=True)
class Waypoints:
    # (position, dwell in whole rounds); the node is frozen within a round.
    points: tuple[tuple[geo.Point, int], ...]


@dataclass(frozen=True)
class LatticeSweep:
    nx: int = 25
    ny: int = 25


Trajectory = Union[Static, Waypoints, LatticeSweep]

# Largest lattice a scenario may describe, in beacons.
MAX_BEACONS = 10_000


@dataclass(frozen=True)
class EstimatorSettings:
    n_initial: float = 2.0
    near_beacon_tau: float = 0.25
    adapt: bool = False
    calibration_beacons: tuple[int, int] = (0, 1)
    n_min: float = 1.0
    n_max: float = 6.0


@dataclass(frozen=True)
class ProtocolSettings:
    accum_count: int = proto.DEFAULT_ACCUM_COUNT
    inter_test_gap_ms: float = proto.DEFAULT_INTER_TEST_GAP_MS
    response_window_ms: float = proto.DEFAULT_RESPONSE_WINDOW_MS
    ack_timeout_ms: float = proto.DEFAULT_ACK_TIMEOUT_MS
    round_interval_ms: float = 1000.0


@dataclass(frozen=True)
class Scenario:
    grid: geo.GridSpec = geo.GridSpec()
    channel: chan.ChannelParams = chan.ChannelParams()
    estimator: EstimatorSettings = EstimatorSettings()
    protocol: ProtocolSettings = ProtocolSettings()
    trajectory: Trajectory = Static(geo.Point(2.0, 2.0))
    rounds: int = 1
    seed: int = 0
    quantize_rssi: bool = False

    def validate(self) -> None:
        if self.rounds < 1:
            raise ScenarioError("rounds", "must be >= 1")
        p = self.protocol
        if not 0 < p.round_interval_ms < math.inf:
            raise ScenarioError("protocol.round_interval_ms", "must be positive and finite")
        if p.accum_count < 1:
            raise ScenarioError("protocol.accum_count", "must be >= 1")
        # A zero wait fires with the packets it waits for and drops them,
        # and a negative gap runs the clock backwards.
        for key in ("ack_timeout_ms", "response_window_ms"):
            if not getattr(p, key) > 0:
                raise ScenarioError(f"protocol.{key}", "must be positive")
        if not p.inter_test_gap_ms >= 0:
            raise ScenarioError("protocol.inter_test_gap_ms", "must be >= 0")
        # A round ends when its collect window closes.
        try:
            round_ms = p.accum_count * p.inter_test_gap_ms + p.response_window_ms
        except OverflowError:
            raise ScenarioError("protocol.accum_count", "too large") from None
        if p.round_interval_ms < round_ms:
            raise ScenarioError("protocol.round_interval_ms",
                                f"must be at least one round, {round_ms:g} ms")
        n_beacons = self.grid.cols * self.grid.rows
        if n_beacons > MAX_BEACONS:
            raise ScenarioError("grid", f"cols * rows must be at most {MAX_BEACONS}")
        e = self.estimator
        if not 0 < e.n_initial < math.inf:
            raise ScenarioError("estimator.n_initial", "must be positive and finite")
        if not 0 < e.near_beacon_tau < 1:
            raise ScenarioError("estimator.near_beacon_tau", "must be in (0, 1)")
        if not 0 < e.n_min <= e.n_max:
            raise ScenarioError("estimator.n_min", "need 0 < n_min <= n_max")
        if e.adapt:
            a, b = e.calibration_beacons
            if a == b or not (0 <= a < n_beacons and 0 <= b < n_beacons):
                raise ScenarioError("estimator.calibration_beacons",
                                    "need two distinct beacon ids on the lattice")
            if abs(_calibration_length(self) - 1.0) <= geo.COORD_TOL:
                raise ScenarioError("estimator.calibration_beacons",
                                    "a 1 m link cannot calibrate the exponent")
        if isinstance(self.trajectory, LatticeSweep):
            t = self.trajectory
            if t.nx < 1 or t.ny < 1:
                raise ScenarioError("trajectory", "sweep needs nx, ny >= 1")
            if self.rounds != t.nx * t.ny:
                raise ScenarioError("rounds",
                                    f"must equal nx*ny = {t.nx * t.ny} for a lattice sweep")
        try:
            positions = self.positions()
        except OverflowError as exc:
            raise ScenarioError("trajectory",
                                f"cannot lay out {self.rounds} rounds: {exc}") from exc
        xmin, ymin, xmax, ymax = self.grid.bounds()
        for i, pos in enumerate(positions):
            if not (xmin <= pos[0] <= xmax and ymin <= pos[1] <= ymax):
                raise ScenarioError("trajectory",
                                    f"point {i} at ({pos[0]}, {pos[1]}) outside the lattice hull")
            beacon = _coincident_beacon(self.grid, pos)
            if beacon is not None:
                raise ScenarioError("trajectory",
                                    f"point {i} coincides with beacon {beacon}")
        # Every event time stays below twice rounds * round_interval_ms, so
        # a wait longer than one step of the clock there always ends after
        # the packets it waits for.
        tick = math.ulp(self.rounds * p.round_interval_ms)
        for key in ("ack_timeout_ms", "response_window_ms"):
            if getattr(p, key) <= tick:
                raise ScenarioError(f"protocol.{key}",
                                    f"must be longer than one clock step, {tick:g} ms")

    def positions(self) -> list[geo.Point]:
        """Blind-node position for each round."""
        t = self.trajectory
        if isinstance(t, Static):
            return [t.point] * self.rounds
        if isinstance(t, LatticeSweep):
            return sweep_points(self.grid, t.nx, t.ny)
        out: list[geo.Point] = []
        for p, dwell in t.points:
            out.extend([p] * dwell)
        if not out:
            raise ScenarioError("trajectory.points", "must not be empty")
        if len(out) < self.rounds:
            out.extend([out[-1]] * (self.rounds - len(out)))
        return out[:self.rounds]


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


def _axis_samples(start: float, width: float, count: int, spacing: float) -> list[float]:
    step = width / count
    out = []
    for i in range(count):
        c = start + (i + 0.5) * step
        rel = (c - start) / spacing
        if abs(rel - round(rel)) * spacing <= geo.COORD_TOL:
            # Sample would sit exactly on a beacon line; pull it a quarter
            # step into the lower cell to keep it cell-interior.
            c -= 0.25 * step
        out.append(c)
    return out


def sweep_points(grid: geo.GridSpec, nx: int, ny: int) -> list[geo.Point]:
    """Row-major sample grid over the lattice hull, inset half a step."""
    xmin, ymin, xmax, ymax = grid.bounds()
    xs = _axis_samples(xmin, xmax - xmin, nx, grid.spacing_m)
    ys = _axis_samples(ymin, ymax - ymin, ny, grid.spacing_m)
    return [geo.Point(x, y) for y in ys for x in xs]


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    true_pos: geo.Point
    estimate: est.Estimate
    error_m: Optional[float]  # absent when there is no fix
    n_used: float


def _calibration_length(s: Scenario) -> float:
    a, b = s.estimator.calibration_beacons
    return geo.dist(s.grid.position_of(a), s.grid.position_of(b))


def run_scenario(s: Scenario, trace: Optional[list[str]] = None) -> list[RoundRecord]:
    """Play every round, through the DES when a trace list is given and
    the batched engine otherwise, and localize each report set."""
    return _run(s, trace, refined=True, baseline=False)[0]


def run_baseline(s: Scenario, trace: Optional[list[str]] = None) -> list[RoundRecord]:
    """Same rounds and RNG stream, but each fix is the weighted centroid
    of the four strongest reports. Comparison curve only."""
    return _run(s, trace, refined=False, baseline=True)[1]


def run_with_baseline(s: Scenario, trace: Optional[list[str]] = None
                      ) -> tuple[list[RoundRecord], list[RoundRecord]]:
    """(run_scenario(s), run_baseline(s)) from one play of the rounds, and
    the trace run_scenario writes. localize never changes n_current, and
    only the round and calibration draws move the stream, so both lists
    are exact."""
    return _run(s, trace, refined=True, baseline=True)


def _run(s: Scenario, trace: Optional[list[str]], refined: bool,
         baseline: bool) -> tuple[list[RoundRecord], list[RoundRecord]]:
    s.validate()
    rng = np.random.Generator(np.random.PCG64(s.seed))
    beacons = geo.build_lattice(s.grid)
    machines = [proto.BeaconNodeMachine(f"b{b.id}", b.pos) for b in beacons]
    cfg = est.LocalizerConfig(
        grid=s.grid,
        a_dbm=s.channel.a_dbm,
        near_beacon_tau=s.estimator.near_beacon_tau,
        range_d_max=s.channel.d_max_m,
    )
    state = est.EstimatorState(n_current=s.estimator.n_initial)
    cal_length = _calibration_length(s) if s.estimator.adapt else None

    refined_records, baseline_records = [], []
    for idx, true_pos in enumerate(s.positions()):
        if cal_length is not None:
            meas = chan.sample_rss(cal_length, s.channel, rng)
            if meas is not None:
                rss = float(meas.register_dbm) if s.quantize_rssi else meas.rss_dbm
                n_new = est.adapt_n(rss, cal_length, state.n_current,
                                    s.channel.a_dbm, s.estimator.n_min,
                                    s.estimator.n_max)
                state = replace(state, n_current=n_new)
        links = _links(beacons, true_pos, s.channel)
        if trace is None:
            reports = _batched_round(s, links, rng)
        else:
            reports = _protocol_round(s, links, machines, rng,
                                      idx * s.protocol.round_interval_ms, trace)
        if baseline:
            estimate = est.centroid_estimate(reports, state.n_current, s.grid)
            baseline_records.append(_record(idx, true_pos, estimate))
        if refined:
            estimate, state = est.localize(reports, state, cfg)
            refined_records.append(_record(idx, true_pos, estimate))
    return refined_records, baseline_records


def _record(idx: int, true_pos: geo.Point, estimate: est.Estimate) -> RoundRecord:
    err = geo.dist(estimate.pos, true_pos) if estimate.pos is not None else None
    return RoundRecord(idx, true_pos, estimate, err, estimate.n_used)


Link = tuple[geo.Beacon, float]


def _links(beacons: list[geo.Beacon], blind_pos: geo.Point,
           params: chan.ChannelParams) -> list[Link]:
    """(beacon, mean RSS) for each beacon in range of the blind node, in
    lattice order; beacons beyond the radius hear nothing this round.

    Each mean is chan.link_rss(geo.dist(blind_pos, b.pos), params), with
    both calls' arithmetic written out in the same order.
    """
    px, py = blind_pos
    a_dbm, slope = params.a_dbm, 10.0 * params.n_exp
    radius = params.reception_radius_m
    links = []
    for b in beacons:
        bx, by = b.pos
        d = math.hypot(px - bx, py - by)
        if d > radius:
            continue
        if d <= 0:
            raise ValueError("distance must be positive")
        links.append((b, a_dbm - slope * math.log10(d)))
    return links


def _batched_round(s: Scenario, links: list[Link],
                   rng: np.random.Generator) -> list[est.RssiReport]:
    """The reports _protocol_round collects over the same links, from one
    draw and no events.

    Rows of the block, in the DES's draw order: the start broadcast, the
    acks, accum_count test broadcasts, the request, the responses.
    """
    n = s.protocol.accum_count
    block = chan.receive_block([mean for _, mean in links], n + 4, s.channel,
                               rng, s.quantize_rssi)
    # Each beacon's test levels added left to right, as beacon_step adds
    # them: cumsum adds in row order, where np.sum may add pairwise, and
    # sum() of floats is compensated from Python 3.12 on.
    avgs = (block[2:n + 2].cumsum(axis=0)[-1] / n).tolist()
    return [est.RssiReport(b.pos, avg, n) for (b, _), avg in zip(links, avgs)]


def _protocol_round(s: Scenario, links: list[Link],
                    machines: list[proto.BeaconNodeMachine],
                    rng: np.random.Generator, t0: float,
                    trace: Optional[list[str]]) -> list[est.RssiReport]:
    p = s.protocol
    blind = proto.BlindNodeMachine(
        "m0", accum_count=p.accum_count,
        inter_test_gap_ms=p.inter_test_gap_ms,
        response_window_ms=p.response_window_ms,
        ack_timeout_ms=p.ack_timeout_ms,
    )
    means = [mean for _, mean in links]
    heap: list[tuple[float, int, str, object, Optional[list[float]]]] = []
    seq = itertools.count()

    def push(t: float, dst: str, payload: object,
             levels: Optional[list[float]]) -> None:
        heapq.heappush(heap, (t, next(seq), dst, payload, levels))

    push(t0, blind.id, proto.StartRound(), None)
    while heap:
        t, _, dst, payload, levels = heapq.heappop(heap)
        if dst == blind.id:
            blind, emissions = proto.blind_step(blind, payload, t)
            for out, t_send in emissions:
                if isinstance(out, proto.TimerFired):
                    push(t_send, blind.id, out, None)
                    continue
                if trace is not None:
                    trace.append(proto.format_trace_line(
                        t_send, blind.id, proto.BROADCAST, out))
                # One entry per broadcast, every beacon's level drawn now.
                push(t_send, proto.BROADCAST, out,
                     chan.receive(means, s.channel, rng, s.quantize_rssi))
            continue
        # Fan a broadcast out to the beacons in table order.
        for (b, mean), level in zip(links, levels):
            machine, outgoing = proto.beacon_step(machines[b.id], payload, level, t)
            machines[b.id] = machine
            for out in outgoing:
                if trace is not None:
                    trace.append(proto.format_trace_line(t, machine.id, blind.id, out))
                push(t, blind.id, out,
                     chan.receive((mean,), s.channel, rng, s.quantize_rssi))
    return list(blind.collected)


# Scenario files are JSON. Each object is one settings dataclass: its keys
# are the field names, a missing key keeps the field's default and a value
# must have the type of that default. Unknown keys are rejected.


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _reject_unknown(d: dict, allowed: Container[str], path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ScenarioError(_join(path, key), "unknown key")


def _point(v: object, path: str) -> geo.Point:
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in v)):
        raise ScenarioError(path, "expected [x, y]")
    return geo.Point(float(v[0]), float(v[1]))


def _typed(default: object, v: object, path: str) -> object:
    """v checked against, and converted to, the type of a field's default."""
    if isinstance(default, (Static, Waypoints, LatticeSweep)):
        return _parse_trajectory(v)
    if is_dataclass(default):
        return _settings(type(default), v, path)
    if isinstance(default, bool):
        if not isinstance(v, bool):
            raise ScenarioError(path, "expected true or false")
        return v
    if isinstance(default, int):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ScenarioError(path, "expected an integer")
        return v
    if isinstance(default, float):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ScenarioError(path, "expected a number")
        return float(v)
    if isinstance(default, geo.Point):
        return _point(v, path)
    # The calibration beacon pair.
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in v)):
        raise ScenarioError(path, "expected [id, id]")
    return tuple(v)


def _settings(cls: type, d: object, path: str):
    """An instance of the settings dataclass cls from one JSON object."""
    if not isinstance(d, dict):
        raise ScenarioError(path, "expected an object")
    defaults = {f.name: f.default for f in fields(cls)}
    _reject_unknown(d, defaults, path)
    # Types are checked before the constructor runs, so only the
    # dataclass's own range checks are reported against the section.
    values = {name: _typed(default, d[name], _join(path, name))
              for name, default in defaults.items() if name in d}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _parse_trajectory(v: object) -> Trajectory:
    if not isinstance(v, dict):
        raise ScenarioError("trajectory", "expected an object")
    kind = v.get("kind")
    if kind == "static":
        _reject_unknown(v, {"kind", "point"}, "trajectory")
        if "point" not in v:
            raise ScenarioError("trajectory.point", "required for static")
        return Static(_point(v["point"], "trajectory.point"))
    if kind == "waypoints":
        _reject_unknown(v, {"kind", "points"}, "trajectory")
        raw = v.get("points")
        if not isinstance(raw, list) or not raw:
            raise ScenarioError("trajectory.points", "expected a non-empty list")
        points = []
        for i, item in enumerate(raw):
            where = f"trajectory.points[{i}]"
            if not isinstance(item, dict):
                raise ScenarioError(where, "expected an object")
            _reject_unknown(item, {"point", "dwell_rounds"}, where)
            if "point" not in item:
                raise ScenarioError(f"{where}.point", "required")
            dwell = _typed(1, item.get("dwell_rounds", 1), f"{where}.dwell_rounds")
            if dwell < 1:
                raise ScenarioError(f"{where}.dwell_rounds", "must be >= 1")
            points.append((_point(item["point"], f"{where}.point"), dwell))
        return Waypoints(tuple(points))
    if kind == "lattice_sweep":
        return _settings(LatticeSweep,
                         {k: x for k, x in v.items() if k != "kind"}, "trajectory")
    raise ScenarioError("trajectory.kind",
                        "expected static, waypoints or lattice_sweep")


def scenario_from_dict(data: dict) -> Scenario:
    """Build a validated Scenario from parsed configuration data."""
    if not isinstance(data, dict):
        raise ScenarioError("", "scenario must be an object")
    data = dict(data)
    if data.pop("rng", "pcg64") != "pcg64":
        raise ScenarioError("rng", "only pcg64 is supported")
    if "trajectory" not in data:
        raise ScenarioError("trajectory", "required")
    scenario = _settings(Scenario, data, "")
    scenario.validate()
    return scenario


def parse_scenario(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def load_scenario(path: Union[str, Path]) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))
