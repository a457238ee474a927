"""Blind-node and beacon-node protocols as pure state machines over simulated time.

One ranging round: the blind node broadcasts a start command, waits for an
acknowledgement, fires a fixed count of strength-test packets at a fixed
gap, asks every beacon for its accumulated average, then computes. Beacons
accumulate per-blind sample buffers and answer average requests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .estimator import RssiReport
from .geometry import Point

log = logging.getLogger(__name__)

DEFAULT_ACCUM_COUNT = 8
DEFAULT_INTER_TEST_GAP_MS = 20.0
DEFAULT_RESPONSE_WINDOW_MS = 50.0
DEFAULT_ACK_TIMEOUT_MS = 100.0

BROADCAST = "*"


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
    accum_count: int = DEFAULT_ACCUM_COUNT
    inter_test_gap_ms: float = DEFAULT_INTER_TEST_GAP_MS
    response_window_ms: float = DEFAULT_RESPONSE_WINDOW_MS
    ack_timeout_ms: float = DEFAULT_ACK_TIMEOUT_MS
    phase: Phase = Phase.IDLE
    tests_sent: int = 0
    collected: tuple[RssiReport, ...] = ()

    def __post_init__(self) -> None:
        if self.accum_count < 1:
            raise ValueError("accum_count must be >= 1")


def _successor(m: BlindNodeMachine, phase: Phase, tests_sent: int,
               collected: tuple[RssiReport, ...]) -> BlindNodeMachine:
    """A new blind machine with m's settings and the given round state."""
    return BlindNodeMachine(m.id, m.accum_count, m.inter_test_gap_ms,
                            m.response_window_ms, m.ack_timeout_ms,
                            phase, tests_sent, collected)


def blind_step(machine: BlindNodeMachine,
               event: Union[Message, TimerFired, StartRound],
               now: float) -> tuple[BlindNodeMachine, list[Emission]]:
    """Advance the blind machine by one event.

    Pure: same machine and event give the same successor and emissions.
    Radio messages are emitted with send time now; TimerFired emissions
    are wakeups the caller must deliver back at their send time.
    """
    m = machine
    if isinstance(event, StartRound):
        if m.phase is not Phase.IDLE:
            log.debug("%s: StartRound ignored in phase %s", m.id, m.phase.value)
            return m, []
        return (_successor(m, Phase.AWAIT_ACK, 0, ()),
                [(LocationStart(m.id), now),
                 (TimerFired("ack_timeout"), now + m.ack_timeout_ms)])

    if isinstance(event, Ack):
        if m.phase is not Phase.AWAIT_ACK:
            # Only the first Ack advances the machine.
            return m, []
        return (_successor(m, Phase.ACCUMULATING, 1, m.collected),
                [(RssiTest(m.id, 1), now),
                 (TimerFired("test_gap"), now + m.inter_test_gap_ms)])

    if isinstance(event, TimerFired):
        if event.kind == "ack_timeout" and m.phase is Phase.AWAIT_ACK:
            log.debug("%s: no Ack received, round abandoned", m.id)
            return _successor(m, Phase.IDLE, m.tests_sent, m.collected), []
        if event.kind == "test_gap" and m.phase is Phase.ACCUMULATING:
            if m.tests_sent < m.accum_count:
                seq = m.tests_sent + 1
                return (_successor(m, m.phase, seq, m.collected),
                        [(RssiTest(m.id, seq), now),
                         (TimerFired("test_gap"), now + m.inter_test_gap_ms)])
            return (_successor(m, Phase.AWAIT_AVERAGES, m.tests_sent, m.collected),
                    [(RssiAvgRequest(m.id), now),
                     (TimerFired("collect_window"), now + m.response_window_ms)])
        if event.kind == "collect_window" and m.phase is Phase.AWAIT_AVERAGES:
            return _successor(m, Phase.COMPUTING, m.tests_sent, m.collected), []
        return m, []  # stale timer from an earlier phase

    if isinstance(event, RssiAvgResponse):
        if m.phase is not Phase.AWAIT_AVERAGES:
            log.debug("%s: late average response dropped", m.id)
            return m, []
        report = RssiReport(event.beacon_pos, event.avg_rssi_dbm,
                            event.sample_count)
        return _successor(m, m.phase, m.tests_sent, m.collected + (report,)), []

    log.debug("%s: unexpected %s in phase %s", m.id,
              type(event).__name__, m.phase.value)
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
    """One deterministic trace line: time, src, dst, type, payload fields."""
    fields = [f"{time_ms:.3f}", src, dst, _MSG_NAMES[type(msg)]]
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
                   format(msg.beacon_pos[0], ".9g"),
                   format(msg.beacon_pos[1], ".9g"),
                   format(msg.avg_rssi_dbm, ".9g"),
                   str(msg.sample_count)]
    return ",".join(fields)
