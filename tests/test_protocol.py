"""Message state machines: round sequencing, timers, buffering, trace format."""

from __future__ import annotations

import math

import pytest

from gridloc.estimator import RssiReport
from gridloc.geometry import Point, ScenarioError
from gridloc.protocol import (Ack, BeaconNodeMachine, BlindNodeMachine,
                              LocationStart, Phase, ProtocolSettings,
                              RssiAvgRequest, RssiAvgResponse, RssiTest,
                              StartRound, TimerFired, beacon_step, blind_step,
                              format_trace_line)


def radio(emissions):
    """Keep only over-the-air messages, dropping self-addressed timers."""
    return [(p, t) for p, t in emissions if not isinstance(p, TimerFired)]


def drive_happy_path(accum=8, gap=20.0, window=50.0):
    """Walk one full round of the blind machine; return it plus the send log."""
    m = BlindNodeMachine(id="m0", settings=ProtocolSettings(
        accum_count=accum, inter_test_gap_ms=gap, response_window_ms=window))
    log = []

    m, out = blind_step(m, StartRound(), 0.0)
    log += radio(out)
    assert m.phase is Phase.AWAIT_ACK

    m, out = blind_step(m, Ack(beacon_id="b0"), 1.0)
    log += radio(out)
    assert m.phase is Phase.ACCUMULATING

    # A second ack while accumulating changes nothing.
    m, out = blind_step(m, Ack(beacon_id="b3"), 2.0)
    assert out == []

    t = 1.0
    while m.phase is Phase.ACCUMULATING:
        t += gap
        m, out = blind_step(m, TimerFired("test_gap"), t)
        log += radio(out)

    assert m.phase is Phase.AWAIT_AVERAGES
    m, out = blind_step(m, RssiAvgResponse("b0", Point(0, 0), -50.0, accum), t)
    assert out == []
    assert m.collected == (RssiReport(Point(0, 0), -50.0, accum),)

    m, out = blind_step(m, TimerFired("collect_window"), t + window)
    assert m.phase is Phase.COMPUTING
    return m, log


class TestBlindMachine:
    def test_round_message_schedule(self):
        m, log = drive_happy_path()
        payloads = [p for p, _ in log]
        assert isinstance(payloads[0], LocationStart)
        tests = [(p, t) for p, t in log if isinstance(p, RssiTest)]
        assert [p.seq for p, _ in tests] == list(range(1, 9))
        start = tests[0][1]
        assert [t - start for _, t in tests] == pytest.approx(
            [20.0 * k for k in range(8)])
        assert isinstance(payloads[-1], RssiAvgRequest)
        req_time = log[-1][1]
        assert req_time - start == pytest.approx(160.0)

    def test_first_ack_triggers_first_test_immediately(self):
        m = BlindNodeMachine(id="m0")
        m, _ = blind_step(m, StartRound(), 0.0)
        m, out = blind_step(m, Ack(beacon_id="b2"), 5.0)
        msgs = radio(out)
        assert len(msgs) == 1
        payload, when = msgs[0]
        assert isinstance(payload, RssiTest) and payload.seq == 1
        assert when == 5.0
        assert m.tests_sent == 1

    def test_start_schedules_ack_timeout(self):
        m = BlindNodeMachine(id="m0", settings=ProtocolSettings(ack_timeout_ms=100.0))
        _, out = blind_step(m, StartRound(), 7.0)
        timers = [(p, t) for p, t in out if isinstance(p, TimerFired)]
        assert timers == [(TimerFired("ack_timeout"), 107.0)]

    def test_timers_follow_the_machines_settings(self):
        p = ProtocolSettings(accum_count=3, inter_test_gap_ms=7.5,
                             response_window_ms=33.0, ack_timeout_ms=41.0)
        m = BlindNodeMachine(id="m0", settings=p)
        m, out = blind_step(m, StartRound(), 2.0)
        timers = [(e.kind, t) for e, t in out if isinstance(e, TimerFired)]
        m, out = blind_step(m, Ack(beacon_id="b0"), 3.0)
        sent = radio(out)
        # Fire each pending timer at its time until the round computes.
        while m.phase is not Phase.COMPUTING:
            ((timer, t),) = [(e, t) for e, t in out if isinstance(e, TimerFired)]
            timers.append((timer.kind, t))
            m, out = blind_step(m, timer, t)
            sent += radio(out)
        assert timers == [("ack_timeout", 43.0), ("test_gap", 10.5),
                          ("test_gap", 18.0), ("test_gap", 25.5),
                          ("collect_window", 58.5)]
        assert [(type(msg), t) for msg, t in sent] == [
            (RssiTest, 3.0), (RssiTest, 10.5), (RssiTest, 18.0),
            (RssiAvgRequest, 25.5)]
        assert m.tests_sent == p.accum_count

    def test_ack_timeout_resets_round(self):
        m = BlindNodeMachine(id="m0")
        m, _ = blind_step(m, StartRound(), 0.0)
        m, out = blind_step(m, TimerFired("ack_timeout"), 100.0)
        assert m.phase is Phase.IDLE
        assert out == []

    def test_ack_timeout_ignored_once_accumulating(self):
        m = BlindNodeMachine(id="m0")
        m, _ = blind_step(m, StartRound(), 0.0)
        m, _ = blind_step(m, Ack(beacon_id="b0"), 1.0)
        m, out = blind_step(m, TimerFired("ack_timeout"), 100.0)
        assert m.phase is Phase.ACCUMULATING
        assert out == []

    def test_late_average_response_dropped(self):
        m, _ = drive_happy_path()
        assert m.phase is Phase.COMPUTING
        before = m.collected
        m, out = blind_step(m, RssiAvgResponse("b5", Point(4, 0), -48.0, 8), 999.0)
        assert out == [] and m.collected == before

    def test_responses_collected_in_arrival_order(self):
        m = BlindNodeMachine(id="m0", phase=Phase.AWAIT_AVERAGES)
        m, _ = blind_step(m, RssiAvgResponse("b1", Point(4, 0), -51.0, 8), 0.0)
        m, _ = blind_step(m, RssiAvgResponse("b0", Point(0, 0), -47.0, 8), 1.0)
        assert [tuple(r.beacon_pos) for r in m.collected] == [(4, 0), (0, 0)]

    def test_replay_is_pure(self):
        m = BlindNodeMachine(id="m0")
        a1, out1 = blind_step(m, StartRound(), 0.0)
        a2, out2 = blind_step(m, StartRound(), 0.0)
        assert a1 == a2 and out1 == out2
        assert m.phase is Phase.IDLE

    def test_start_ignored_mid_round(self):
        m = BlindNodeMachine(id="m0")
        m, _ = blind_step(m, StartRound(), 0.0)
        same, out = blind_step(m, StartRound(), 1.0)
        assert same == m and out == []

    def test_custom_accumulation_length(self):
        m, log = drive_happy_path(accum=3)
        tests = [p for p, _ in log if isinstance(p, RssiTest)]
        assert [p.seq for p in tests] == [1, 2, 3]

    def test_rejects_zero_accum(self):
        # The settings reject it, before a machine can hold them.
        with pytest.raises(ScenarioError) as info:
            BlindNodeMachine(id="m0", settings=ProtocolSettings(accum_count=0))
        assert info.value.path == "accum_count"


class TestBeaconMachine:
    def make(self):
        return BeaconNodeMachine(id="b1", pos=Point(4.0, 0.0))

    def test_location_start_acked(self):
        b = self.make()
        b, out = beacon_step(b, LocationStart(blind_id="m0"), None, 0.0)
        assert len(out) == 1 and isinstance(out[0], Ack)
        assert out[0].beacon_id == "b1"

    def test_tests_buffered_per_blind(self):
        b = self.make()
        b, _ = beacon_step(b, RssiTest(blind_id="m0", seq=1), -50.0, 10.0)
        b, _ = beacon_step(b, RssiTest(blind_id="m1", seq=1), -70.0, 11.0)
        b, _ = beacon_step(b, RssiTest(blind_id="m0", seq=2), -60.0, 30.0)
        assert b.buffers["m0"] == (-50.0, -60.0)
        assert b.buffers["m1"] == (-70.0,)

    def test_request_from_unheard_blind_stays_silent(self):
        b = self.make()
        b, out = beacon_step(b, RssiAvgRequest(blind_id="m9"), None, 160.0)
        assert out == []

    def test_average_is_dbm_domain_mean(self):
        b = self.make()
        b, _ = beacon_step(b, RssiTest(blind_id="m0", seq=1), -50.0, 10.0)
        b, _ = beacon_step(b, RssiTest(blind_id="m0", seq=2), -60.0, 30.0)
        b, out = beacon_step(b, RssiAvgRequest(blind_id="m0"), None, 160.0)
        (resp,) = out
        assert isinstance(resp, RssiAvgResponse)
        assert resp.avg_rssi_dbm == pytest.approx(-55.0)
        assert resp.sample_count == 2
        assert resp.beacon_pos == Point(4.0, 0.0)

    def test_average_adds_left_to_right(self):
        # A compensated sum (sum() from Python 3.12 on, math.fsum) gives 2.0
        # here; adding in order loses the first 1.0 to rounding.
        samples = [1e16, 1.0, -1e16, 1.0]
        assert math.fsum(samples) == 2.0
        b = self.make()
        for seq, level in enumerate(samples, 1):
            b, _ = beacon_step(b, RssiTest(blind_id="m0", seq=seq), level, 10.0 * seq)
        b, out = beacon_step(b, RssiAvgRequest(blind_id="m0"), None, 160.0)
        (resp,) = out
        assert resp.avg_rssi_dbm == 0.25
        assert resp.sample_count == 4

    def test_buffer_cleared_after_response(self):
        b = self.make()
        b, _ = beacon_step(b, RssiTest(blind_id="m0", seq=1), -50.0, 10.0)
        b, _ = beacon_step(b, RssiAvgRequest(blind_id="m0"), None, 160.0)
        b, out = beacon_step(b, RssiAvgRequest(blind_id="m0"), None, 170.0)
        assert out == []

    def test_response_leaves_other_blinds_buffered(self):
        b = self.make()
        b, _ = beacon_step(b, RssiTest(blind_id="m0", seq=1), -50.0, 10.0)
        b, _ = beacon_step(b, RssiTest(blind_id="m1", seq=1), -61.0, 10.0)
        b, _ = beacon_step(b, RssiAvgRequest(blind_id="m0"), None, 160.0)
        assert b.buffers == {"m1": (-61.0,)}

    def test_step_does_not_mutate_input(self):
        b = self.make()
        b2, _ = beacon_step(b, RssiTest(blind_id="m0", seq=1), -50.0, 1.0)
        assert b.buffers == {} and b2.buffers == {"m0": (-50.0,)}


class TestTraceFormat:
    def test_test_packet_line(self):
        line = format_trace_line(21.0, "m0", "*", RssiTest(blind_id="m0", seq=3))
        assert line == "21.000,m0,*,rssi_test,m0,3"

    def test_float_fields_nine_significant_digits(self):
        msg = RssiAvgResponse("b2", Point(8.0, 0.0), -51.1234567891, 8)
        line = format_trace_line(163.25, "b2", "m0", msg)
        assert line == "163.250,b2,m0,rssi_avg_response,b2,8,0,-51.1234568,8"

    def test_all_kinds_named(self):
        cases = [
            (LocationStart(blind_id="m0"), "location_start"),
            (Ack(beacon_id="b1"), "ack"),
            (RssiTest(blind_id="m0", seq=1), "rssi_test"),
            (RssiAvgRequest(blind_id="m0"), "rssi_avg_request"),
            (RssiAvgResponse("b1", Point(0, 0), -50.0, 8), "rssi_avg_response"),
        ]
        for msg, name in cases:
            assert name in format_trace_line(0.0, "a", "b", msg)
