"""Blind-node and beacon-node protocols as pure state machines over simulated time.

One ranging round: the blind node broadcasts a start command, waits for an
acknowledgement, fires a fixed count of strength-test packets at a fixed
gap, asks every beacon for its accumulated average, then computes. Beacons
accumulate per-blind sample buffers and answer average requests.

ProtocolSettings is the one statement of a round's timings and their
rules: it is a scenario's protocol section, and the blind machine holds it
whole. The machines are the protocol's reference. The oracle in
tests/test_sim.py drives them packet by packet, and gridloc.sim plays the
fixed schedule they follow over a lossless, zero-delay channel.
format_trace_line is the one statement of a trace line; gridloc.sim builds
its lines' fixed text with it, and the oracle checks the two writers'
traces are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Union

from .estimator import RssiReport
from .geometry import Point, ScenarioError, _check_kinds

BROADCAST = "*"
# Format specs of a trace line's time in ms, and of its positions and levels.
TIME_SPEC = ".3f"
VALUE_SPEC = ".9g"
# Most tests a round may take; it draws accum_count + 4 levels a beacon in range.
MAX_ACCUM_COUNT = 1000


@dataclass(frozen=True)
class ProtocolSettings:
    """A round's timers and test count, and the interval between rounds."""

    accum_count: int = 8
    inter_test_gap_ms: float = 20.0
    response_window_ms: float = 50.0
    ack_timeout_ms: float = 100.0
    round_interval_ms: float = 1000.0

    def __post_init__(self) -> None:
        _check_kinds(self)
        if self.accum_count < 1:
            raise ScenarioError("accum_count", "must be >= 1")
        # Before the round length below, which a huge count would overflow.
        if self.accum_count > MAX_ACCUM_COUNT:
            raise ScenarioError("accum_count", f"must be at most {MAX_ACCUM_COUNT}")
        # A zero wait fires with the packets it waits for and drops them,
        # and a negative gap runs the clock backwards.
        for key in ("ack_timeout_ms", "response_window_ms"):
            if getattr(self, key) <= 0:
                raise ScenarioError(key, "must be positive")
        if self.inter_test_gap_ms < 0:
            raise ScenarioError("inter_test_gap_ms", "must be >= 0")
        if self.round_interval_ms <= 0:
            raise ScenarioError("round_interval_ms", "must be positive")
        # A round ends when its collect window closes.
        round_ms = self.accum_count * self.inter_test_gap_ms + self.response_window_ms
        if self.round_interval_ms < round_ms:
            raise ScenarioError("round_interval_ms",
                                f"must be at least one round, {round_ms:g} ms")


@dataclass(frozen=True)
class LocationStart:
    blind_id: str


@dataclass(frozen=True)
class Ack:
    beacon_id: str


@dataclass(frozen=True)
class RssiTest:
    blind_id: str
    seq: int


@dataclass(frozen=True)
class RssiAvgRequest:
    blind_id: str


@dataclass(frozen=True)
class RssiAvgResponse:
    beacon_id: str
    beacon_pos: Point
    avg_rssi_dbm: float
    sample_count: int


Message = Union[LocationStart, Ack, RssiTest, RssiAvgRequest, RssiAvgResponse]


@dataclass(frozen=True)
class StartRound:
    """Local trigger that kicks an idle blind machine into a round."""


@dataclass(frozen=True)
class TimerFired:
    """Self-addressed wakeup; kind is matched against the current phase so
    stale timers from an abandoned phase are ignored."""

    kind: str  # ack_timeout | test_gap | collect_window


class Phase(Enum):
    IDLE = "idle"
    AWAIT_ACK = "await_ack"
    ACCUMULATING = "accumulating"
    AWAIT_AVERAGES = "await_averages"
    COMPUTING = "computing"


Emission = tuple[Union[Message, TimerFired], float]


@dataclass(frozen=True)
class BlindNodeMachine:
    id: str
    settings: ProtocolSettings = ProtocolSettings()
    phase: Phase = Phase.IDLE
    tests_sent: int = 0
    collected: tuple[RssiReport, ...] = ()


def blind_step(machine: BlindNodeMachine,
               event: Union[Message, TimerFired, StartRound],
               now: float) -> tuple[BlindNodeMachine, list[Emission]]:
    """Advance the blind machine by one event.

    Pure: same machine and event give the same successor and emissions.
    Radio messages are emitted with send time now; TimerFired emissions
    are wakeups the caller must deliver back at their send time.
    """
    m, p = machine, machine.settings
    if isinstance(event, StartRound):
        if m.phase is not Phase.IDLE:
            return m, []
        return (replace(m, phase=Phase.AWAIT_ACK, tests_sent=0, collected=()),
                [(LocationStart(m.id), now),
                 (TimerFired("ack_timeout"), now + p.ack_timeout_ms)])

    if isinstance(event, Ack):
        if m.phase is not Phase.AWAIT_ACK:
            # Only the first Ack advances the machine.
            return m, []
        return (replace(m, phase=Phase.ACCUMULATING, tests_sent=1),
                [(RssiTest(m.id, 1), now),
                 (TimerFired("test_gap"), now + p.inter_test_gap_ms)])

    if isinstance(event, TimerFired):
        if event.kind == "ack_timeout" and m.phase is Phase.AWAIT_ACK:
            return replace(m, phase=Phase.IDLE), []
        if event.kind == "test_gap" and m.phase is Phase.ACCUMULATING:
            if m.tests_sent < p.accum_count:
                seq = m.tests_sent + 1
                return (replace(m, tests_sent=seq),
                        [(RssiTest(m.id, seq), now),
                         (TimerFired("test_gap"), now + p.inter_test_gap_ms)])
            return (replace(m, phase=Phase.AWAIT_AVERAGES),
                    [(RssiAvgRequest(m.id), now),
                     (TimerFired("collect_window"), now + p.response_window_ms)])
        if event.kind == "collect_window" and m.phase is Phase.AWAIT_AVERAGES:
            return replace(m, phase=Phase.COMPUTING), []
        return m, []  # stale timer from an earlier phase

    if isinstance(event, RssiAvgResponse):
        if m.phase is not Phase.AWAIT_AVERAGES:
            return m, []
        report = RssiReport(event.beacon_pos, event.avg_rssi_dbm,
                            event.sample_count)
        return replace(m, collected=m.collected + (report,)), []
    return m, []


@dataclass
class BeaconNodeMachine:
    """Fixed node. Accumulates strength samples per blind node."""

    id: str
    pos: Point
    buffers: dict[str, tuple[float, ...]] = field(default_factory=dict)


def beacon_step(machine: BeaconNodeMachine, event: Message,
                rssi_dbm: float, now: float) -> tuple[BeaconNodeMachine, list[Message]]:
    """Advance a beacon machine for one received message.

    rssi_dbm is the measured strength of this reception; it matters only
    for test-packet accumulation. The input machine is never mutated.
    """
    m = machine
    if isinstance(event, LocationStart):
        return m, [Ack(m.id)]
    if isinstance(event, RssiTest):
        buffers = dict(m.buffers)
        buffers[event.blind_id] = buffers.get(event.blind_id, ()) + (rssi_dbm,)
        return BeaconNodeMachine(m.id, m.pos, buffers), []
    if isinstance(event, RssiAvgRequest):
        samples = m.buffers.get(event.blind_id, ())
        if not samples:
            # Never heard the tests; stay silent.
            return m, []
        buffers = {k: v for k, v in m.buffers.items() if k != event.blind_id}
        # Left to right on every Python; sum() of floats is compensated
        # from 3.12 on.
        total = 0.0
        for level in samples:
            total += level
        avg = total / len(samples)
        return (BeaconNodeMachine(m.id, m.pos, buffers),
                [RssiAvgResponse(m.id, m.pos, avg, len(samples))])
    return m, []


_MSG_NAMES = {
    LocationStart: "location_start",
    Ack: "ack",
    RssiTest: "rssi_test",
    RssiAvgRequest: "rssi_avg_request",
    RssiAvgResponse: "rssi_avg_response",
}


def format_trace_line(time_ms: float, src: str, dst: str, msg: Message) -> str:
    """One deterministic trace line, comma-separated: time, src, dst, type,
    then the message's fields in declaration order. A response ends with
    its level and sample count."""
    fields = [format(time_ms, TIME_SPEC), src, dst, _MSG_NAMES[type(msg)]]
    if isinstance(msg, LocationStart):
        fields.append(msg.blind_id)
    elif isinstance(msg, Ack):
        fields.append(msg.beacon_id)
    elif isinstance(msg, RssiTest):
        fields += [msg.blind_id, str(msg.seq)]
    elif isinstance(msg, RssiAvgRequest):
        fields.append(msg.blind_id)
    else:
        fields += [msg.beacon_id,
                   format(msg.beacon_pos[0], VALUE_SPEC),
                   format(msg.beacon_pos[1], VALUE_SPEC),
                   format(msg.avg_rssi_dbm, VALUE_SPEC),
                   str(msg.sample_count)]
    return ",".join(fields)
