"""End-to-end scenario runs: determinism, trajectories, config parsing."""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from gridloc import channel as chan
from gridloc import cli, estimator, sim
from gridloc import protocol as proto
from gridloc.channel import ChannelParams, _links, link_rss, sample_rss
from gridloc.estimator import FixMethod
from gridloc.geometry import COORD_TOL, GridSpec, Point, _clamp, dist
from gridloc.harness import write_records_csv
from gridloc.sim import (EstimatorSettings, LatticeSweep, ProtocolSettings,
                         Scenario, ScenarioError, Static, Waypoints,
                         load_scenario, parse_scenario,
                         run_baseline, run_scenario, run_with_baseline,
                         scenario_from_dict)
from oracles import build_lattice, centroid_estimate


def noiseless(point=Point(2.0, 2.0), rounds=1, **kwargs) -> Scenario:
    return Scenario(trajectory=Static(point), rounds=rounds, **kwargs)


def positions(s: Scenario) -> list[Point]:
    """The blind node's position each round."""
    return list(map(Point._make, s._layout().tolist()))


def sweep_points(grid: GridSpec, nx: int, ny: int) -> list[Point]:
    """A lattice sweep's points, in round order."""
    return list(map(Point._make, sim._sweep_layout(grid, nx, ny).tolist()))


# The oracle: a discrete-event simulator (DES) that drives the protocol
# machines packet by packet. One heap-ordered event queue per round, zero
# propagation delay, FIFO among same-time events. A broadcast is one queue
# entry carrying one level per beacon in the link table, each drawn with one
# sample_rss call on that link's length, in table order, when it is sent; it
# is fanned out to those beacons in table order when it is popped, where one
# delivery per beacon would sit in FIFO order. A beacon's reply takes one
# sample_rss draw on its link's length.


def _protocol_round(s: Scenario, pos, links, machines, rng, t0: float, trace):
    """One round's collected reports with the blind node at pos, each
    message appended to trace unless it is None; links is the round's link
    table and machines holds each beacon's machine by id."""
    blind = proto.BlindNodeMachine("m0", s.protocol)
    lengths = [dist(pos, b.pos) for b, _ in links]
    heap = []
    seq = itertools.count()

    def push(t, dst, payload, levels):
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
                push(t_send, proto.BROADCAST, out,
                     [sample_rss(d, s.channel, rng, s.quantize_rssi) for d in lengths])
            continue
        for (b, _), d, level in zip(links, lengths, levels):
            machine, outgoing = proto.beacon_step(machines[b.id], payload, level, t)
            machines[b.id] = machine
            for out in outgoing:
                if trace is not None:
                    trace.append(proto.format_trace_line(t, machine.id, blind.id, out))
                push(t, blind.id, out, sample_rss(d, s.channel, rng, s.quantize_rssi))
    return list(blind.collected)


def every_beacon(positions, beacons):
    """channel._links's candidates for measuring each position against
    every beacon."""
    return np.arange(len(beacons))[None].repeat(len(positions), 0)


def links_at(beacons, pos, params):
    """(beacon, mean RSS) for each beacon in range of pos, in lattice order:
    a one-position block of channel._links."""
    ids, _, counts, exact = _links(np.array([b.pos for b in beacons]), [pos], params,
                                   every_beacon([pos], beacons))
    assert counts == [len(ids)]
    return [(beacons[i], mean) for i, mean in zip(ids, exact(np.arange(ids.size)))]


def _machines(beacons):
    return [proto.BeaconNodeMachine(f"b{b.id}", b.pos) for b in beacons]


@functools.cache
def des_play(s: Scenario) -> tuple[list, list[str]]:
    """Every round's report set and the whole trace, from the DES. An
    adapting round first takes its calibration draw, as the engine does."""
    rng = np.random.Generator(np.random.PCG64(s.seed))
    beacons = build_lattice(s.grid)
    machines = _machines(beacons)
    sets, trace = [], []
    for idx, pos in enumerate(positions(s)):
        if s.estimator.adapt:
            # None beyond the radius, with no draw.
            sample_rss(calibration_length(s), s.channel, rng)
        sets.append(_protocol_round(s, pos, links_at(beacons, pos, s.channel),
                                    machines, rng,
                                    idx * s.protocol.round_interval_ms, trace))
    return sets, trace


def calibration_length(s: Scenario) -> float:
    a, b = s.estimator.calibration_beacons
    return dist(s.grid.position_of(a), s.grid.position_of(b))


def engine_play(run, s: Scenario, keep_all: bool = True):
    """run(s, trace)'s result and trace, and the report sets the run passes
    to localize: with keep_all, every report of each round, as
    sim._contenders is made to keep every level."""
    sets: list[list] = []
    trace: list[str] = []

    def recording(reports, *args, _original=estimator.localize):
        sets.append(list(reports))
        return _original(reports, *args)

    with pytest.MonkeyPatch.context() as mp:
        if keep_all:
            mp.setattr(sim, "_contenders",
                       lambda levels, counts, margin=0.0: np.arange(levels.size))
        mp.setattr(estimator, "localize", recording)
        result = run(s, trace)
    return result, trace, sets


def centroid_records(s: Scenario, report_sets, ns) -> list[sim.RoundRecord]:
    """The baseline's records as centroid_estimate fixes each round's
    report set, round i's with n_current ns[i]."""
    config = estimator.LocalizerConfig(s.grid)
    records = []
    for i, (pos, reports, n) in enumerate(zip(positions(s), report_sets, ns)):
        e, _ = centroid_estimate(reports, estimator.EstimatorState(n), config)
        records.append(sim.RoundRecord(i, pos, e, None if e.pos is None else dist(e.pos, pos)))
    return records


def contenders(reports):
    """The reports at least as strong as the fourth strongest, in their
    order; every report when there are fewer than four."""
    if len(reports) < 4:
        return list(reports)
    fourth = sorted((r.avg_rssi_dbm for r in reports), reverse=True)[3]
    return [r for r in reports if r.avg_rssi_dbm >= fourth]


def report_fields(report_sets):
    # A report equals a plain tuple of its fields, so its type is recorded too.
    return [[(type(r), r.beacon_pos, type(r.avg_rssi_dbm), r.avg_rssi_dbm.hex(),
              r.sample_count) for r in reports] for reports in report_sets]


def played_stream(run, s: Scenario) -> dict:
    """The state of the generator run(s, []) draws from, after the run."""
    made = []

    def recording(seed, _original=np.random.PCG64):
        made.append(_original(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "PCG64", recording)
        run(s, [])
    (bit_generator,) = made
    return bit_generator.state


def stream_after(seed: int, normals: int) -> dict:
    """The state of a fresh PCG64(seed) after that many normal draws."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(normals):
        rng.normal(0.0, 1.0)
    return rng.bit_generator.state


class TestRunScenario:
    def test_static_noiseless_point_refined_exactly(self):
        records = run_scenario(noiseless(Point(2.0, 2.0)))
        assert len(records) == 1
        r = records[0]
        assert r.estimate.method is FixMethod.REFINED
        assert r.error_m < 1e-9
        assert r.true_pos == Point(2.0, 2.0)
        assert r.estimate.n_used == 2.0

    def test_identical_runs_identical_records(self):
        s = Scenario(channel=ChannelParams(sigma_dbm=3.0),
                     trajectory=Static(Point(1.3, 2.6)), rounds=5, seed=11)
        assert run_scenario(s) == run_scenario(s)

    def test_seed_changes_noisy_output(self):
        base = dict(channel=ChannelParams(sigma_dbm=3.0),
                    trajectory=Static(Point(1.3, 2.6)), rounds=3)
        a = run_scenario(Scenario(seed=1, **base))
        b = run_scenario(Scenario(seed=2, **base))
        assert [r.error_m for r in a] != [r.error_m for r in b]

    def test_noise_off_means_sigma_has_no_effect_via_seed(self):
        # The stream is consumed identically regardless of sigma, so a
        # noiseless run is outright exact, not merely seed-stable.
        records = run_scenario(noiseless(Point(3.1, 5.7), seed=999))
        assert records[0].error_m < 1e-9

    def test_out_of_range_beacons_give_no_fix(self):
        s = noiseless(Point(2.0, 2.0),
                      channel=ChannelParams(reception_radius_m=2.0))
        (r,) = run_scenario(s)
        assert r.estimate.method is FixMethod.NO_FIX
        assert r.estimate.pos is None and r.error_m is None

    def test_history_feeds_near_beacon_round(self):
        s = Scenario(trajectory=Waypoints(((Point(1.0, 1.0), 1),
                                           (Point(0.2, 4.0), 1))), rounds=2)
        first, second = run_scenario(s)
        assert first.estimate.method is FixMethod.REFINED
        assert second.estimate.method is FixMethod.NEAR_BEACON
        assert second.error_m < 0.5

    def test_trace_is_reproducible_and_well_formed(self):
        t1: list[str] = []
        t2: list[str] = []
        run_scenario(noiseless(seed=5), trace=t1)
        run_scenario(noiseless(seed=5), trace=t2)
        assert t1 == t2 and t1
        assert t1[0] == "0.000,m0,*,location_start,m0"
        kinds = {line.split(",")[3] for line in t1}
        assert kinds == {"location_start", "ack", "rssi_test",
                         "rssi_avg_request", "rssi_avg_response"}


class TestAdaptation:
    def test_recovers_true_exponent_in_one_round(self):
        s = noiseless(Point(2.0, 2.0), rounds=2,
                      channel=ChannelParams(n_exp=3.0),
                      estimator=EstimatorSettings(n_initial=2.0, adapt=True))
        records = run_scenario(s)
        for r in records:
            assert r.estimate.n_used == pytest.approx(3.0, abs=1e-9)
            assert r.estimate.method is FixMethod.REFINED
            assert r.error_m < 1e-6

    def test_without_adaptation_wrong_exponent_hurts(self):
        s = noiseless(Point(1.0, 1.0), channel=ChannelParams(n_exp=3.0),
                      estimator=EstimatorSettings(n_initial=2.0, adapt=False))
        (r,) = run_scenario(s)
        assert r.estimate.n_used == 2.0
        assert r.error_m > 0.1

    def test_adaptation_survives_quantization(self):
        s = noiseless(Point(2.0, 2.0), channel=ChannelParams(n_exp=3.0),
                      estimator=EstimatorSettings(n_initial=2.0, adapt=True),
                      quantize_rssi=True)
        (r,) = run_scenario(s)
        assert abs(r.estimate.n_used - 3.0) < 0.1

    def test_calibration_link_beyond_the_radius_draws_nothing(self):
        # Beacons 0 and 1 are 4 m apart: no round hears the calibration
        # packet, so the stream and the exponent are those of a run
        # without adaptation.
        runs = [run_scenario(sweep_scenario(42, 3.0, quantize, adapt, 3, 3.5))
                for quantize in (False, True) for adapt in (False, True)]
        assert runs[0] == runs[1] and runs[2] == runs[3]
        assert {r.estimate.n_used for r in runs[1] + runs[3]} == {2.0}


class TestQuantization:
    def test_rounding_degrades_but_bounds_error(self):
        exact = run_scenario(noiseless(Point(1.3, 2.6)))[0]
        coarse = run_scenario(noiseless(Point(1.3, 2.6), quantize_rssi=True))[0]
        assert exact.error_m < 1e-9
        assert coarse.error_m > exact.error_m
        assert coarse.error_m < 0.5


class TestBaseline:
    def test_centroid_method_tag_and_determinism(self):
        s = Scenario(channel=ChannelParams(sigma_dbm=2.0),
                     trajectory=Static(Point(2.0, 2.0)), rounds=4, seed=3)
        records = run_baseline(s)
        assert [r.estimate.method for r in records] == [FixMethod.CENTROID] * 4
        assert records == run_baseline(s)

    def test_centroid_is_biased_where_refinement_is_exact(self):
        s = noiseless(Point(1.0, 1.0))
        (refined,) = run_scenario(s)
        (centroid,) = run_baseline(s)
        assert refined.error_m < 1e-9
        assert centroid.error_m > 0.1

    def test_same_rounds_as_full_system(self):
        s = Scenario(trajectory=LatticeSweep(5, 5), rounds=25, seed=2)
        full = run_scenario(s)
        base = run_baseline(s)
        assert [r.true_pos for r in full] == [r.true_pos for r in base]


def digest_scenario(seed, sigma, quantize=False, adapt=False, cols=3, radius=30.0):
    """The scenario file of a 4 x 4 lattice sweep that the digest pins run."""
    return {
        "seed": seed,
        "grid": {"spacing_m": 4.0, "cols": cols, "rows": cols},
        "channel": {"sigma_dbm": sigma, "reception_radius_m": radius},
        "estimator": {"adapt": adapt},
        "quantize_rssi": quantize,
        "trajectory": {"kind": "lattice_sweep", "nx": 4, "ny": 4},
        "rounds": 16,
    }


def simulate_digests(tmp_path, *case, trace=True):
    """sha256 of records.csv and trace.txt from `gridloc simulate --trace`
    on digest_scenario(*case); of records.csv alone without a trace."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(digest_scenario(*case)))
    out = tmp_path / "out"
    flags = ["--trace"] if trace else []
    assert cli.main(["simulate", str(path), "--out", str(out), *flags]) == 0
    names = ("records.csv", "trace.txt") if trace else ("records.csv",)
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in names)


class TestByteIdentity:
    """Records and traces are the determinism contract: any change to the
    event order, the draw order or the arithmetic moves these digests."""

    # (seed, sigma, quantize, adapt, cols, radius) -> (records.csv, trace.txt)
    # On the 6 x 6 lattice at 9 m every point has beacons out of range.
    PINS = {
        (42, 0.0, False, False, 3, 30.0):
            ('fc123efb6f6abff97471caa5ab9e0b9b8ec34e5f53137d8681a9fce1dc8a2afb',
             '50b323509757b2e645e310331567530102b3d25db0c52484ef83841e0115db2f'),
        (42, 3.0, False, False, 3, 30.0):
            ('0d8789b783b10932a1036058a5c376f2c4e1e8ab4fef24e4ed65f8febd22130a',
             'c2cb04aed3d6d52d6dd5bd3492bdc7addcb3db4fb69fff5f41df714eb28fcefa'),
        (7, 3.0, False, False, 3, 30.0):
            ('e9d1c0ad84230e3861eeeef9f3ad7005dcf1eda67061027ac4ad76e9c3b5cc72',
             '80dce3871e0c6e30908dd7b43e7625662deb8d7cacb1d791f97420cbdc8a4835'),
        (42, 3.0, True, False, 3, 30.0):
            ('1d3647e4eae02c08571a90d63ec395638047743762960eab0a629c9c9eada296',
             '532b038314f532129cbb9d1058f49ee72e0c2b6fe606ae1a240d04be9d2bb17e'),
        (7, 3.0, False, True, 3, 30.0):
            ('aeb738d03a51457eb2c24d7814c966b4f3a1a06a022d8686495d6bab026ec7b9',
             'e75b08f712fb5e373233a6be08f4772baf986996ff0e723a84d09c363a2f7797'),
        (7, 3.0, True, True, 3, 30.0):
            ('385b864ececd856963a59becc23e8ba81bbc3fdb4cca5b0c6b2c0b67d06fbbbc',
             '942cb1e7076b5e984c1066f5396229c78b62004447636aaa532e9adbaf65077c'),
        (42, 0.0, True, True, 3, 30.0):
            ('e107d164715f5ba2c692c7fbbbb281d3bac93d437472328d70308dbf071c7c99',
             '15ad41b21405ed7a953627ec72a5daec7e08c0b4970110efe34a64addc28e2a4'),
        (42, 3.0, False, False, 6, 9.0):
            ('8f8627590b88a0eee21780e3cfcb41800a494b3b0ebbd7fab631f05e62b1c30a',
             'b89e1e255b219d10fe0980d74b31070447d841d2ed52bdedc2d864ff34f64cd3'),
        (7, 3.0, True, True, 6, 9.0):
            ('99c010e8e06c517d65e480ade1ca5a01b87fb9e69ecd60ac4ee26e58537f4dc3',
             '53821170989979e215c1ba10c680a6aa5204ee26497ecc74d57894e323a3ca08'),
        # Rounds of 71 to 99 links; in two of them the fourth strongest
        # level ties the fifth.
        (42, 3.0, True, True, 10, 30.0):
            ('433fbf0781f1006efe67efb9acb01a9b4cf44203a6e9252bd23bb44eaceea3d7',
             '87f34bab7109d7bb2a883edf0d66e5f40308bf094162b41f7227e951b9ddb70b'),
    }

    @pytest.mark.parametrize("case", list(PINS), ids=lambda c: "-".join(map(str, c)))
    def test_outputs_match_pinned_digests(self, tmp_path, case):
        assert simulate_digests(tmp_path, *case) == self.PINS[case]

    @pytest.mark.parametrize("case", list(PINS), ids=lambda c: "-".join(map(str, c)))
    def test_untraced_records_match_pinned_digest(self, tmp_path, case):
        # Writing the trace leaves the records as they are.
        assert simulate_digests(tmp_path, *case, trace=False) == self.PINS[case][:1]

    # case -> sha256 of run_baseline's records, written by write_records_csv.
    BASELINE_PINS = {
        (42, 0.0, False, False, 3, 30.0):
            '597c224decd10dbadbc3cafae12d88a614b41b926fecaee86429782ad968a63a',
        (42, 3.0, False, False, 3, 30.0):
            '7ab1a95b2171ef5b4fbfc37270a52158c756a869eace801556093a571dc8686b',
        (7, 3.0, False, False, 3, 30.0):
            '7bd88885f031970ebb67c1336a15297dc17fae8b0195b160b769155a71bb03c0',
        (42, 3.0, True, False, 3, 30.0):
            '102b66a50801bbddfccd76a11bfd3367568f32ccb8f2b0a73cdee1f2ece840ce',
        (7, 3.0, False, True, 3, 30.0):
            'dcc2b21b416ee5619b593aeab3e51a570f2906397bbcce04debd414308a60f3d',
        (7, 3.0, True, True, 3, 30.0):
            '31516da91c17d5d5a8c7351c7535ad71d6ab40084eec7bd7fd17230b77f12489',
        (42, 0.0, True, True, 3, 30.0):
            '91c9321348e083cdc4f4e9842cdbd90537e22d1fc860f542bf26a01c833670e5',
        (42, 3.0, False, False, 6, 9.0):
            'aab45ae592b687ea25a2f5bf9e39561ace09b1e666c93ef80ecacd2f2d3d9829',
        (7, 3.0, True, True, 6, 9.0):
            '4bdd7a942b6e55fb2ccd23fc9222f66ab0299a7aad3c9b17a17c0b90fa65626b',
        (42, 3.0, True, True, 10, 30.0):
            '52e5a1540815e1091b0efd0f863367055d1e0554997da27f39b5d98973f93133',
    }

    @pytest.mark.parametrize("case", list(PINS), ids=lambda c: "-".join(map(str, c)))
    def test_baseline_records_match_pinned_digest(self, tmp_path, case):
        path = tmp_path / "baseline.csv"
        write_records_csv(run_baseline(scenario_from_dict(digest_scenario(*case))), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.BASELINE_PINS[case]

    @pytest.mark.parametrize("case", list(PINS), ids=lambda c: "-".join(map(str, c)))
    def test_a_replaced_localize_gives_the_records_of_the_step(self, case, monkeypatch):
        # Unreplaced, localize_step fixes each batch; replaced, as a recorder
        # or a tracer replaces it, localize is called once a round.
        s = scenario_from_dict(digest_scenario(*case))
        steps = []

        def counting(*args, _original=estimator.localize_step):
            steps.append(len(args[0]) - 1)
            return _original(*args)

        monkeypatch.setattr(estimator, "localize_step", counting)
        records = run_scenario(s)
        assert sum(steps) == s.rounds
        # One wrapper, bound wherever localize is, as the benchmark's tracer binds it.
        original, calls = estimator.localize, []

        def wrapper(*args):
            calls.append(args[0])
            return original(*args)

        for module in (estimator, sim):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapper)
        assert repr(run_scenario(s)) == repr(records)
        assert sum(steps) == s.rounds and len(calls) == s.rounds
        # The replacement gets reports of accum_count samples, and a beacon's
        # reports in one batch share one Point: a Point a report would cost
        # a recorder's peak memory.
        reports = [r for call in calls for r in call]
        assert ({(type(r), r.sample_count) for r in reports}
                == {(estimator.RssiReport, s.protocol.accum_count)})
        points = [r.beacon_pos for r in reports]
        assert len(set(map(id, points))) <= len(set(points)) * len(steps)

    # The DES cases keep the ids they had before the batched engine existed.
    @pytest.mark.parametrize("cols,radius,sigma,engine", [
        pytest.param(cols, radius, sigma, engine, id=f"{cols}-{radius}-{sigma}{suffix}")
        for engine, suffix in (("des", ""), ("batched", "-batched"))
        for cols, radius in ((3, 30.0), (6, 9.0))
        for sigma in (0.0, 3.0)])
    def test_round_takes_k_times_accum_plus_four_draws(self, cols, radius, sigma,
                                                       engine):
        # Per beacon in range: start, ack, accum_count tests, request, response.
        point = Point(5.0, 6.0)
        s = Scenario(grid=GridSpec(cols=cols, rows=cols),
                     channel=ChannelParams(sigma_dbm=sigma,
                                           reception_radius_m=radius),
                     trajectory=Static(point))
        beacons = build_lattice(s.grid)
        links = links_at(beacons, point, s.channel)
        k = sum(dist(point, b.pos) <= radius for b in beacons)
        if engine == "des":
            rng = np.random.Generator(np.random.PCG64(3))
            reports = _protocol_round(s, point, links, _machines(beacons), rng,
                                      0.0, None)
            state = rng.bit_generator.state
        else:
            s = replace(s, seed=3)
            (reports,) = engine_play(run_scenario, s)[2]
            state = played_stream(run_scenario, s)
        assert len(reports) == k
        assert state == stream_after(3, k * (s.protocol.accum_count + 4))


class TestRoundEngines:
    """The link table and the per-beacon averages, which records cannot
    show: a round with fewer than four reports is no_fix."""

    GRID = GridSpec(origin=Point(-3.7, 11.2), spacing_m=4.3, cols=10, rows=10)
    # No two beacons are the same distance from this point.
    POINT = Point(13.9, 27.35)

    def expected_links(self, params):
        out = []
        for b in build_lattice(self.GRID):
            mean = link_rss(dist(self.POINT, b.pos), params)
            if mean is not None:
                out.append((b, mean.hex()))
        return out

    @pytest.mark.parametrize("n_exp", [2.0, 3.3])
    @pytest.mark.parametrize("edge", ["at", "beyond"])
    def test_link_means_equal_link_rss(self, edge, n_exp):
        beacons = build_lattice(self.GRID)
        d = dist(self.POINT, beacons[57].pos)
        radius = d if edge == "at" else math.nextafter(d, 0.0)
        params = ChannelParams(a_dbm=-41.3, n_exp=n_exp, reception_radius_m=radius)
        links = links_at(beacons, self.POINT, params)
        assert [(b, mean.hex()) for b, mean in links] == self.expected_links(params)
        assert (beacons[57] in [b for b, _ in links]) == (edge == "at")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(1.0, 6.0), st.floats(-70.0, -30.0), st.floats(0.5, 60.0))
    def test_link_means_equal_link_rss_for_any_channel(self, n_exp, a_dbm, radius):
        params = ChannelParams(a_dbm=a_dbm, n_exp=n_exp, reception_radius_m=radius)
        links = links_at(build_lattice(self.GRID), self.POINT, params)
        assert [(b, mean.hex()) for b, mean in links] == self.expected_links(params)

    @pytest.mark.parametrize("radius,heard", [
        (20.0, [0, 1, 2, 2, 2, 1, 0]), (40.0, [4, 3, 4, 6, 6, 3, 4])])
    def test_a_block_of_positions_is_each_position_in_turn(self, radius, heard):
        grid = GridSpec(spacing_m=30.0, cols=4, rows=3)
        beacons = build_lattice(grid)
        params = ChannelParams(n_exp=2.7, reception_radius_m=radius)
        points = [Point(15.0, 15.0), Point(2.0, 1.0), Point(15.0, 1.0), Point(27.0, 16.0),
                  Point(44.9, 33.35), Point(89.0, 59.5), Point(15.0, 15.0)]
        ids, _, counts, exact = _links(np.array([b.pos for b in beacons]), points, params,
                                       every_beacon(points, beacons))
        means = exact(np.arange(ids.size))
        tables = [links_at(beacons, p, params) for p in points]
        assert counts == [len(t) for t in tables] == heard
        assert ([(beacons[i], m.hex()) for i, m in zip(ids, means)]
                == [(b, m.hex()) for t in tables for b, m in t])

    def test_blind_node_on_a_beacon_rejected(self):
        beacons = build_lattice(self.GRID)
        with pytest.raises(ValueError, match="distance must be positive"):
            links_at(beacons, beacons[12].pos, ChannelParams())

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("accum", [1, 8, 20])
    @pytest.mark.parametrize("heard", [1, 2, 9, 84])
    def test_batched_round_equals_protocol_round(self, heard, accum, quantize):
        beacons = build_lattice(self.GRID)
        radius = sorted(dist(self.POINT, b.pos) for b in beacons)[heard - 1]
        s = Scenario(grid=self.GRID,
                     channel=ChannelParams(sigma_dbm=3.0, reception_radius_m=radius),
                     protocol=ProtocolSettings(accum_count=accum),
                     quantize_rssi=quantize, trajectory=Static(self.POINT))
        links = links_at(beacons, self.POINT, s.channel)
        assert len(links) == heard
        des = _protocol_round(s, self.POINT, links, _machines(beacons),
                              np.random.Generator(np.random.PCG64(11)), 0.0, None)
        batched = engine_play(run_scenario, replace(s, seed=11))[2]
        assert report_fields(batched) == report_fields([des])

    def test_batched_average_adds_left_to_right(self):
        # Compensated, these test levels add to 2.0; in order, to 1.0.
        samples = [1e16, 1.0, -1e16, 1.0]

        class Stream:
            def normal(self, loc, scale, size):
                # One link, no calibration: rows 2 to 5 are its tests.
                return np.array([0.0, 0.0, *samples, 0.0, 0.0])

        _, tests = chan.receive_rounds([1], len(samples), None, ChannelParams(),
                                       Stream(), False)
        [avg] = chan.average_levels(tests, np.array([0.0]), False)
        assert avg == 0.25


def sweep_scenario(seed, sigma, quantize, adapt, cols, radius, n=4, **sections):
    return scenario_from_dict({
        "seed": seed,
        "grid": {"spacing_m": 4.0, "cols": cols, "rows": cols},
        "channel": {"sigma_dbm": sigma, "reception_radius_m": radius},
        "estimator": {"adapt": adapt},
        "quantize_rssi": quantize,
        "trajectory": {"kind": "lattice_sweep", "nx": n, "ny": n},
        "rounds": n * n,
        **sections})


# A 4 x 3 lattice whose beacon positions print with fractions.
OFF_INTEGER_GRID = {"origin": [0.1, -3.7], "spacing_m": 2.7, "cols": 4, "rows": 3}


# Seeds x noise x quantize x adapt on three lattices: 3 x 3, 10 x 10 (its
# hull is wider than the radius) and 6 x 6 at a 9 m radius; then a short
# protocol, back-to-back tests, a gap whose sums round differently from its
# multiples, a radius at which no round has a fix, the shortest and longest
# waits tried, beacon positions with fractions, and times with seven digits
# before the point.
ORACLE_CASES = [
    pytest.param(sweep_scenario(seed, sigma, quantize, adapt, cols, radius, n),
                 id=f"{seed}-{sigma}-{quantize}-{adapt}-{cols}-{radius}")
    for cols, radius, n in ((3, 30.0, 4), (10, 30.0, 3), (6, 9.0, 3))
    for seed in (42, 7, 1, 3)
    for sigma in (0.0, 2.0, 3.0, 4.0)
    for quantize in (False, True)
    for adapt in (False, True)
] + [
    pytest.param(sweep_scenario(42, 3.0, True, True, 3, 30.0,
                                protocol={"accum_count": 3}), id="accum-3"),
    pytest.param(sweep_scenario(7, 3.0, False, True, 3, 30.0,
                                protocol={"inter_test_gap_ms": 0.0}), id="gap-0"),
    # From t0 = 2000 ms, 0.0001 ms added five times prints 2000.000, but
    # t0 + 5 * 0.0001 prints 2000.001.
    pytest.param(sweep_scenario(42, 3.0, False, False, 3, 30.0,
                                protocol={"inter_test_gap_ms": 0.0001}), id="gap-0.0001"),
    pytest.param(sweep_scenario(42, 3.0, False, False, 3, 2.5), id="all-no-fix"),
    pytest.param(sweep_scenario(7, 3.0, True, True, 3, 30.0, protocol={
        "ack_timeout_ms": 0.3, "response_window_ms": 0.3}), id="waits-0.3"),
    pytest.param(sweep_scenario(7, 3.0, True, True, 6, 9.0, protocol={
        "ack_timeout_ms": 5000.0, "response_window_ms": 5000.0,
        "round_interval_ms": 6000.0}), id="waits-5000"),
    pytest.param(sweep_scenario(42, 3.0, True, True, 3, 30.0, grid=OFF_INTEGER_GRID),
                 id="off-integer-lattice"),
    # Round 15 starts at 1851851.835 ms: every digit of the time is printed.
    pytest.param(sweep_scenario(7, 2.0, False, False, 3, 30.0, protocol={
        "round_interval_ms": 123456.789, "inter_test_gap_ms": 0.37}),
                 id="interval-123456.789"),
    # 16 rounds of 1 + 9 · 124 normals, 17,872 in all: the run crosses a
    # boundary of the default chunk cap.
    pytest.param(sweep_scenario(42, 3.0, True, True, 3, 30.0, protocol={
        "accum_count": 120, "inter_test_gap_ms": 5.0}), id="accum-120"),
]


def assert_matches_the_des(s: Scenario, run) -> None:
    """run(s, trace), keeping every report, passes the DES's report sets to
    localize, gives the baseline's records centroid_estimate gives from
    them, bit for bit, and writes the DES's trace; as it is, the same from
    their contenders. Its records are those of run(s)."""
    des_sets, des_trace = des_play(s)
    records = run(s)
    # Every fixer's n is the adapted n of the round.
    ns = [r.estimate.n_used for r in run_scenario(s)]
    for keep_all, passed in ((True, des_sets), (False, list(map(contenders, des_sets)))):
        result, trace, sets = engine_play(run, s, keep_all)
        assert trace == des_trace
        if run is not run_baseline:
            assert report_fields(sets) == report_fields(passed)
        if run is not run_scenario:
            baseline = result if run is run_baseline else result[1]
            # repr tells -0.0 from 0.0 and a numpy float from a float.
            assert repr(baseline) == repr(centroid_records(s, passed, ns))
        assert result == records


# Levels with heavy ties: a few flat values, quantized ones, both zeros.
TIED_LEVELS = st.one_of(st.sampled_from([-61.25, -55.5, -50.0]),
                        st.integers(-70, -40).map(float),
                        st.sampled_from([0.0, -0.0]),
                        st.floats(-90.0, -30.0))
# Far below 0 dBm a weight is subnormal: the least one at -3233 dBm, 0 from
# -3240 dBm down. A round of them can have every weight 0.
FAR_LEVELS = st.one_of(st.sampled_from([-3300.0, -3240.0, -3233.0]),
                       st.floats(-3300.0, -3000.0))
# Far above 0 dBm a weight is past 1e308, the step fixers' cap: from
# 3080 dBm, at 3082.5 still finite and from about 3083 dBm past the
# largest float.
HOT_LEVELS = st.one_of(st.sampled_from([3080.0, 3082.5, 3083.0, 3100.0]),
                       st.floats(3000.0, 3200.0))


@st.composite
def cell_levels(draw):
    """A round of the 4 x 3 lattice whose four strongest levels are the
    corners of one cell, so that localize refines it."""
    col, row = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    corners = {row * 4 + col, row * 4 + col + 1, row * 4 + col + 4, row * 4 + col + 5}
    return [draw(st.floats(-60.0, -30.0) if i in corners else st.floats(-90.0, -60.5))
            for i in range(12)]


# Every beacon within half a metre below 0: the least weight times its
# coordinate is -0.0, which the sums, from 0.0, add up to 0.0.
NEAR_ZERO = GridSpec(origin=Point(-0.35, -0.35), spacing_m=0.1, cols=4, rows=3)
# Every beacon at (1e20, 1e20): 0.1 m is under an ulp there.
FAR_ORIGIN = GridSpec(origin=Point(1e20, 1e20), spacing_m=0.1, cols=4, rows=3)


# Exponents down to where every range clamps (0.005, at levels near 0 dBm)
# or a power overflows (1e-3, far below a_dbm).
EXPONENTS = st.one_of(st.sampled_from([2.0, 0.005, 1e-3]), st.floats(1e-3, 6.0))
# A last fix carried in from an earlier batch.
LAST_FIXES = st.one_of(st.none(), st.builds(Point, st.floats(-2.0, 14.0), st.floats(-2.0, 10.0)))
# Upper range clamps: the default, and one whose square is 17 exactly.
D_MAXES = st.sampled_from([120.0, math.sqrt(17.0)])
# A lattice whose lower range clamp, 0.025 spacings, is capped at the upper.
WIDE = GridSpec(spacing_m=1e4, cols=4, rows=3)
# Beacon ids times 2**50, whose four as the digits of an int64 key would
# wrap to 2**50 times their sum, or negative.
ID_FACTORS = st.sampled_from([1, 2**50, -1])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(TIED_LEVELS, max_size=12) | st.lists(FAR_LEVELS, max_size=12)
                | st.lists(TIED_LEVELS | HOT_LEVELS, max_size=12) | cell_levels(),
                min_size=1, max_size=8),
       st.sampled_from([GridSpec(cols=4, rows=3), NEAR_ZERO, FAR_ORIGIN, WIDE]),
       st.lists(EXPONENTS, min_size=8, max_size=8), LAST_FIXES, D_MAXES, st.booleans(),
       ID_FACTORS)
@example(rounds=[[-3233.0, -3240.0, -3240.0, -3240.0]], grid=NEAR_ZERO, ns=[2.0] * 8,
         last=None, d_max=120.0, signed=False, id_factor=1)
# One round whose ranges at n = 1e-3 are powers past the largest float, and
# one with a weight past it, among rounds that refine a cell.
@example(rounds=[[-45.0, -90.0, -95.0, -95.0, -45.0, -90.0],
                 [-45.0, -90.0, -95.0, -95.0, -45.0, -90.0],
                 [-45.0, -90.0, -95.0, -95.0, -45.0, -90.0],
                 [3100.0, -90.0, -95.0, -95.0, -45.0, -90.0]],
         grid=GridSpec(cols=4, rows=3), ns=[2.0, 1e-3] + [2.0] * 6, last=None, d_max=120.0,
         signed=False, id_factor=1)
# Beacons at -0.0: the refined x is 0.0 on the cell's low side, x_lo = -0.0,
# where max(x, x_lo) is x and np.maximum(x, x_lo) is x_lo.
@example(rounds=[[-45.0, -90.0, -95.0, -95.0, -45.0, -90.0]], grid=GridSpec(cols=4, rows=3),
         ns=[2.0] * 8, last=None, d_max=math.sqrt(17.0), signed=True, id_factor=1)
# Its mirror: the refined x is 0.0 on the cell's high side, x_hi = -0.0,
# where min(x, x_hi) is x and np.minimum(x, x_hi) is x_hi.
@example(rounds=[[-90.0, -45.0, -90.0, -45.0]], grid=GridSpec(origin=Point(-4.0, 0.0), cols=2,
                                                             rows=2),
         ns=[2.0] * 8, last=None, d_max=math.sqrt(17.0), signed=True, id_factor=1)
def test_each_fixer_reads_the_same_from_the_contenders(rounds, grid, ns, last, d_max, signed,
                                                       id_factor):
    # With signed, each coordinate 0.0 of a beacon is -0.0.
    beacons = [(b.id * id_factor, Point(b.pos[0] or -0.0, b.pos[1] or -0.0) if signed else b.pos)
               for b in build_lattice(grid)]
    state = estimator.EstimatorState(2.0)
    config = estimator.LocalizerConfig(grid, range_d_max=d_max)
    levels = np.array([v for r in rounds for v in r], dtype=float)
    keep = sim._contenders(levels, [len(r) for r in rounds]).tolist()
    a, every, step, ids = 0, [], [], []
    for r in rounds:
        reports = [estimator.RssiReport(pos, v, 4) for (_, pos), v in zip(beacons, r)]
        kept_at = [i - a for i in keep if a <= i < a + len(r)]
        kept = [reports[i] for i in kept_at]
        ids += [beacons[i][0] for i in kept_at]
        a += len(r)
        # The same report objects, in lattice order.
        assert list(map(id, kept)) == list(map(id, contenders(reports)))
        top4 = estimator.select_top4(kept)
        want = estimator.select_top4(reports)
        assert (top4 is want is None
                or list(map(id, top4)) == list(map(id, want)))
        for fix in (estimator.localize, centroid_estimate):
            assert fix(kept, state, config) == fix(reports, state, config)
        every.append(reports)
        step += kept
    # The baseline's columns of every round's contenders at once are the
    # per-round reference from all of each round's reports, bit for bit.
    cuts = list(itertools.accumulate((len(contenders(r)) for r in every), initial=0))
    xy = np.array([r.beacon_pos for r in step], dtype=float).reshape(-1, 2)
    assert_columns_of(estimator.centroid_step(cuts, levels[keep], xy),
                      [centroid_estimate(r, state, config)[0] for r in every])
    # So are localize's, chained: round i at ns[i], from the last fix before
    # it, the first from one carried in.
    chained, fixes = estimator.EstimatorState(2.0, last), []
    for r, n in zip(every, ns):
        fix, chained = estimator.localize(r, estimator.EstimatorState(n, chained.last_estimate),
                                          config)
        fixes.append(fix)
    columns, after = estimator.localize_step(cuts, levels[keep], xy, np.array(ids, dtype=int),
                                             ns[:len(rounds)],
                                             estimator.EstimatorState(2.0, last), config)
    assert_columns_of(columns, fixes)
    assert repr(after) == repr(chained)


def assert_columns_of(columns: estimator.Fixes, estimates: list) -> None:
    """columns hold each estimate's fix, method and fallback, bit for bit,
    and a refined estimate's cell; repr tells -0.0 from 0.0, and a numpy
    float from a float."""
    x, y, method, fallback, cell = columns
    assert (method.dtype, fallback.dtype) == (np.int8, bool)
    assert len(x) == len(y) == len(method) == len(fallback) == len(cell) == len(estimates)
    got = [(None if m is FixMethod.NO_FIX else (u, v), m, c, b)
           for u, v, m, c, b in zip(x.tolist(), y.tolist(), map(list(FixMethod).__getitem__,
                                                                 method.tolist()),
                                    cell, fallback.tolist())]
    assert repr(got) == repr([(None if e.pos is None else tuple(e.pos), e.method,
                               e.cell if e.method is FixMethod.REFINED else None,
                               e.fallback_centroid) for e in estimates])
    assert all(math.isnan(u) and math.isnan(v) for (u, v, m) in zip(x, y, method)
               if m == list(FixMethod).index(FixMethod.NO_FIX))


@pytest.mark.parametrize("named", [55_108, 55_109])
def test_a_step_names_at_most_the_beacons_an_int64_key_holds(named):
    # A top four's plan key is its ids' ranks as four digits of an int64:
    # 55,108 ** 4 fits, 55,109 ** 4 does not, so keys could collide.
    rounds = -(-named // 4)
    args = (range(0, 4 * rounds + 1, 4), np.full(4 * rounds, -50.0),
            np.zeros((4 * rounds, 2)), np.arange(4 * rounds) % named, [2.0] * rounds,
            estimator.EstimatorState(), estimator.LocalizerConfig(GridSpec()))
    if named > 55_108:
        with pytest.raises(ValueError, match="name 55,109 beacons"):
            estimator.localize_step(*args)
    else:
        assert len(estimator.localize_step(*args)[0].x) == rounds


@pytest.mark.parametrize("run", [run_scenario, run_baseline, run_with_baseline],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("s", ORACLE_CASES)
def test_batched_engine_matches_the_des(s, run):
    assert_matches_the_des(s, run)
    # The columns a runner gives in place of its records hold the same rounds.
    columns = run(s, columns=True)
    assert ([c.records(s.grid) for c in columns] == list(run(s)) if run is run_with_baseline
            else columns.records(s.grid) == run(s))
    if run is run_with_baseline:
        # One play of the rounds gives both systems' records.
        assert run(s) == (run_scenario(s), run_baseline(s))
        # In either order: each fixer keeps its own state, and all share n.
        assert ([c.records(s.grid)
                 for c in sim._run(s, None, (sim._centroid_rounds, sim._localize_rounds))]
                == [run_baseline(s), run_scenario(s)])


@pytest.mark.parametrize("s", [
    pytest.param(sweep_scenario(7, 3.0, True, True, 3, 30.0), id="adapt"),
    pytest.param(sweep_scenario(42, 3.0, False, False, 6, 9.0), id="partial"),
])
def test_run_with_baseline_writes_the_trace_of_run_scenario(s):
    alone: list[str] = []
    both: list[str] = []
    run_scenario(s, alone)
    run_with_baseline(s, both)
    assert both == alone and alone


def test_back_to_back_traces_each_match_their_des():
    # Beacon ids 0-8 sit at other positions, and the runs take other test
    # counts, so a line kept from an earlier run would show.
    first = sweep_scenario(42, 3.0, False, False, 3, 30.0)
    second = sweep_scenario(7, 3.0, True, True, 3, 30.0, grid=OFF_INTEGER_GRID,
                            protocol={"accum_count": 5})
    for s in (first, second, first):
        trace: list[str] = []
        run_scenario(s, trace)
        assert trace == des_play(s)[1]


def test_round_with_no_beacon_in_range_traces_one_line():
    # Every beacon is 2.83 m from the cell center.
    s = noiseless(Point(2.0, 2.0), channel=ChannelParams(reception_radius_m=2.5))
    trace: list[str] = []
    (record,) = run_scenario(s, trace)
    assert record.estimate.method is FixMethod.NO_FIX
    assert trace == ["0.000,m0,*,location_start,m0"] == des_play(s)[1]


@pytest.mark.parametrize("run", [run_scenario, run_with_baseline],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("s,cal_draws", [
    pytest.param(sweep_scenario(7, 3.0, True, True, 3, 30.0), True, id="adapt"),
    pytest.param(sweep_scenario(7, 3.0, False, False, 3, 30.0), False, id="no-adapt"),
    # The calibration link, 28.3 m long, is beyond the 9 m radius.
    pytest.param(sweep_scenario(7, 3.0, True, True, 6, 9.0, estimator={
        "adapt": True, "calibration_beacons": [0, 35]}), False, id="cal-out-of-range"),
])
def test_each_round_draws_one_block_and_one_calibration_level(s, cal_draws, run):
    # The run leaves its generator where a round-by-round play leaves it:
    # per round, the calibration level, then k · (accum_count + 4) levels.
    beacons = build_lattice(s.grid)
    normals = sum(cal_draws + len(links_at(beacons, pos, s.channel))
                  * (s.protocol.accum_count + 4) for pos in positions(s))
    assert played_stream(run, s) == stream_after(s.seed, normals)


# Radius 2.5 m on the 4 m lattice: a cell's center hears no beacon, a
# point near a beacon one, a point between two beacons two.
SPARSE_ROUNDS = Scenario(
    channel=ChannelParams(sigma_dbm=3.0, reception_radius_m=2.5),
    trajectory=Waypoints(((Point(2.0, 2.0), 2), (Point(0.5, 0.5), 1),
                          (Point(2.0, 0.1), 4), (Point(6.0, 2.0), 3),
                          (Point(4.6, 3.7), 2), (Point(2.0, 6.0), 1))),
    rounds=13, seed=5, quantize_rssi=True)


@pytest.mark.parametrize("cap", [1, 97, 300, 2000, 2**14, sim.CHUNK_DRAWS])
@pytest.mark.parametrize("s", [
    pytest.param(sweep_scenario(7, 3.0, True, True, 3, 30.0), id="adapt-quantized"),
    # Its rounds hear different numbers of beacons.
    pytest.param(sweep_scenario(42, 3.0, False, False, 10, 30.0, n=3), id="10x10"),
    pytest.param(SPARSE_ROUNDS, id="rounds-hearing-none"),
    pytest.param(sweep_scenario(7, 3.0, True, True, 6, 9.0, estimator={
        "adapt": True, "calibration_beacons": [0, 35]}), id="cal-out-of-range"),
    # A round hears at most 28 of the 144 beacons; the rounds at the corner
    # hear fewer than the rest.
    pytest.param(sweep_scenario(3, 3.0, True, True, 12, 9.0, rounds=6, trajectory={
        "kind": "waypoints", "points": [
            {"point": [21.0, 22.5], "dwell_rounds": 2}, {"point": [1.3, 0.7]},
            {"point": [42.5, 17.0], "dwell_rounds": 2}, {"point": [30.1, 41.9]}]}),
                 id="12x12-waypoints"),
])
def test_chunk_boundaries_change_no_output(s, cap, monkeypatch):
    # A cap of 1 plays each round alone; smaller caps split the run between
    # rounds that the default cap draws together.
    records = run_with_baseline(s)
    monkeypatch.setattr(sim, "CHUNK_DRAWS", cap)
    assert_matches_the_des(s, run_with_baseline)
    assert run_with_baseline(s) == records


@pytest.mark.parametrize("s,rounds_a_chunk", [
    pytest.param(sweep_scenario(7, 3.0, True, True, 3, 30.0, n=25), 300,
                 id="3x3-adapt"),
    # About 40,000 contenders: the fixers take two batches.
    pytest.param(sweep_scenario(7, 3.0, True, True, 3, 30.0, n=100), 300,
                 id="3x3-adapt-two-batches"),
    pytest.param(sweep_scenario(42, 3.0, False, False, 10, 30.0, n=10), None,
                 id="10x10"),
    # A round hears at most 28 of the 900 beacons.
    pytest.param(sweep_scenario(42, 3.0, True, True, 30, 9.0, n=12,
                                protocol={"accum_count": 60, "round_interval_ms": 2000.0}),
                 None, id="30x30"),
    # 10,000 beacons, but a window of 5 x 5 at a 3 m radius: a round hears
    # at most 7 beacons, so the normals cap a step at 390 of its 400 rounds.
    pytest.param(sweep_scenario(42, 3.0, False, False, 100, 3.0, n=20), 390,
                 id="100x100"),
    # The disc of the radius, in squares of the spacing, overflows a float.
    pytest.param(sweep_scenario(42, 3.0, True, True, 4, 1e150, n=5, grid={
        "spacing_m": 1e-5, "cols": 4, "rows": 4}), None, id="radius-1e150"),
])
def test_each_chunk_keeps_to_the_draw_caps(s, rounds_a_chunk, monkeypatch):
    # A chunk is one call of receive_rounds on the tables of one _links call.
    links, draws = [], []

    def record(calls, original):
        def recording(*args):
            calls.append(args)
            return original(*args)
        return recording

    monkeypatch.setattr(chan, "_links", record(links, chan._links))
    monkeypatch.setattr(chan, "receive_rounds", record(draws, chan.receive_rounds))
    fixed = {name: [] for name in ("_localize_rounds", "_centroid_rounds")}
    for name, calls in fixed.items():
        monkeypatch.setattr(sim, name, record(calls, getattr(sim, name)))
    run_with_baseline(s)
    assert len(links) == len(draws)
    assert [Point(*p) for _, pts, *_ in links for p in pts.tolist()] == positions(s)
    sizes = []
    for (_, pts, _, candidates), (counts, n, cal_mean, *_) in zip(links, draws):
        sizes.append(len(pts))
        assert len(counts) == len(pts) == len(candidates)
        normals = sum((cal_mean is not None) + k * (n + 4) for k in counts)
        if len(pts) > 1:
            assert candidates.size <= sim.CHUNK_DRAWS
            assert normals <= sim.CHUNK_DRAWS
    assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]
    if rounds_a_chunk is not None:
        assert sizes[0] == rounds_a_chunk
    # The fixers take the same batches: whole draw steps, in order, each
    # batch closing at its first step to bring it to CHUNK_DRAWS contenders.
    ends = list(itertools.accumulate(sizes, initial=0))
    batches = [step.cuts for step, *_ in fixed["_localize_rounds"]]
    assert batches == [step.cuts for step, *_ in fixed["_centroid_rounds"]]
    starts = list(itertools.accumulate((len(cuts) - 1 for cuts in batches), initial=0))
    assert starts[-1] == len(positions(s))
    for i, (first, cuts) in enumerate(zip(starts, batches)):
        rounds = len(cuts) - 1
        assert first + rounds in ends
        last_step = ends[ends.index(first + rounds) - 1] - first
        assert cuts[last_step] < sim.CHUNK_DRAWS
        assert cuts[-1] >= sim.CHUNK_DRAWS or i == len(batches) - 1


@st.composite
def tied_scenarios(draw):
    """Lattice sweeps whose rounds often tie: noiseless or quantized levels,
    points at cell centres or midway between, and radii that cut the
    lattice, one of them at a cell's diagonal."""
    cols = draw(st.integers(3, 8))
    return sweep_scenario(
        draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.0, 0.5, 3.0])),
        draw(st.booleans()), draw(st.booleans()), cols,
        draw(st.sampled_from([4.0, 4.0 * math.sqrt(2.0), 7.0, 12.0, 30.0])),
        n=draw(st.sampled_from([2, 3, cols - 1, 2 * cols - 2])),
        protocol={"accum_count": draw(st.sampled_from([1, 2, 8]))})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(-3, 3), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 3.0]),
       st.sampled_from([(3, 30.0), (6, 9.0)]))
def test_a_scaled_scenario_scales_every_fix(power, seed, sigma, lattice):
    # Lengths times k = 10 ** power and a_dbm up by 20 * power dB at n = 2
    # give every mean within rounding of the unscaled one, and the same
    # draws: each fix is k times the unscaled fix, by the same method. At
    # k = 0.01 every range was clamped to D_MIN_M before the lower clamp
    # scaled with the spacing; at k = 0.001 the 9 m radius is 9 mm.
    def scaled(k, shift):
        cols, radius = lattice
        return scenario_from_dict({
            "seed": seed, "grid": {"spacing_m": 4.0 * k, "cols": cols, "rows": cols},
            "channel": {"a_dbm": -45.0 + shift, "sigma_dbm": sigma,
                        "reception_radius_m": radius * k},
            "trajectory": {"kind": "lattice_sweep", "nx": 4, "ny": 4}, "rounds": 16})

    k = 10.0 ** power
    for plain, big in zip(run_scenario(scaled(1.0, 0.0)), run_scenario(scaled(k, 20.0 * power))):
        assert big.estimate.method is plain.estimate.method
        assert big.estimate.cell == plain.estimate.cell
        if plain.estimate.pos is not None:
            for u, v in zip(big.estimate.pos, plain.estimate.pos):
                assert math.isclose(u, k * v, rel_tol=1e-9, abs_tol=4e-9 * k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tied_scenarios())
def test_screened_engine_gives_the_records_of_keeping_every_link(s):
    assert engine_play(run_with_baseline, s)[0] == run_with_baseline(s)


@pytest.mark.parametrize("edge", ["at", "beyond"])
def test_screened_engine_with_a_beacon_at_the_radius(edge):
    # The fifth nearest beacon sits at the radius or a float beyond it.
    grid, point = TestRoundEngines.GRID, TestRoundEngines.POINT
    beacons = build_lattice(grid)
    fifth = sorted(beacons, key=lambda b: dist(point, b.pos))[4]
    d = dist(point, fifth.pos)
    radius = d if edge == "at" else math.nextafter(d, 0.0)
    s = Scenario(grid=grid, channel=ChannelParams(sigma_dbm=3.0, reception_radius_m=radius),
                 trajectory=Static(point), rounds=6, seed=3)
    assert_matches_the_des(s, run_with_baseline)
    sets = engine_play(run_scenario, s)[2]
    assert [len(reports) for reports in sets] == [5 if edge == "at" else 4] * 6


def wrap_links(monkeypatch, shift=lambda size: 0.0):
    """Patch channel._links to add shift(size) to a step's screened means;
    returns (heard, ranged), to which each step adds its count of links and
    each exact(links) call its count of links ranged exactly."""
    heard, ranged = [], []
    original = chan._links

    def wrapped(*args):
        ids, screen, counts, exact = original(*args)
        heard.append(ids.size)

        def counted(links):
            ranged.append(len(links))
            return exact(links)
        return ids, screen + shift(screen.size), counts, counted

    monkeypatch.setattr(chan, "_links", wrapped)
    return heard, ranged


@pytest.mark.parametrize("s", [
    # Beacons (0, 0), (4, 0), (0, 8) and (4, 8) tie for third to sixth, and
    # select_top4 takes the first two in position order.
    noiseless(Point(2.0, 4.0), rounds=20),
    sweep_scenario(42, 0.0, False, False, 5, 30.0, n=4),
    sweep_scenario(42, 0.0, True, True, 5, 4.0 * math.sqrt(2.0), n=8),
    sweep_scenario(7, 3.0, False, False, 10, 30.0, n=6),
    sweep_scenario(7, 3.0, True, True, 10, 30.0, n=6),
])
def test_screen_holds_with_every_mean_off_by_screen_db(s, monkeypatch):
    want = run_with_baseline(s)
    rng = np.random.default_rng(0)
    wrap_links(monkeypatch, lambda size: rng.choice([-1.0, 1.0], size) * chan.SCREEN_DB)
    assert run_with_baseline(s) == want


def test_only_the_contenders_are_ranged_exactly_unless_traced(monkeypatch):
    # A 10 x 10 sweep at sigma=3 hears 83.75 links a round; an untraced run
    # ranges about four of them, a few more when quantized.
    heard, ranged = wrap_links(monkeypatch)
    for quantize, most in ((False, 4.1), (True, 6.0)):
        s = sweep_scenario(42, 3.0, quantize, False, 10, 30.0, n=15)
        ranged.clear()
        heard.clear()
        run_scenario(s)
        assert sum(heard) == 18_844
        assert sum(ranged) <= most * s.rounds
    ranged.clear()
    heard.clear()
    run_scenario(s, [])
    assert sum(ranged) == sum(heard) == 18_844


@st.composite
def small_scenarios(draw):
    cols, rows = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    spacing = draw(st.floats(1.5, 8.0))
    accum = draw(st.integers(1, 10))
    gap = draw(st.floats(0.0, 50.0))
    window = draw(st.floats(0.0, 100.0, exclude_min=True))
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    points = draw(st.lists(st.fixed_dictionaries({
        "point": st.tuples(unit, unit).map(
            lambda u: [u[0] * (cols - 1) * spacing, u[1] * (rows - 1) * spacing]),
        "dwell_rounds": st.integers(1, 3)}), min_size=1, max_size=3))
    try:
        return scenario_from_dict({
            "seed": draw(st.integers(0, 2**32 - 1)),
            "grid": {"spacing_m": spacing, "cols": cols, "rows": rows},
            "channel": {"sigma_dbm": draw(st.floats(0.0, 6.0)),
                        "reception_radius_m": draw(st.floats(1.0, 40.0))},
            "estimator": {"adapt": draw(st.booleans())},
            "protocol": {
                "accum_count": accum, "inter_test_gap_ms": gap,
                "response_window_ms": window,
                "ack_timeout_ms": draw(st.floats(0.0, 200.0, exclude_min=True)),
                "round_interval_ms": accum * gap + window + draw(st.floats(0.0, 1e3))},
            "quantize_rssi": draw(st.booleans()),
            "trajectory": {"kind": "waypoints", "points": points},
            "rounds": draw(st.integers(1, 6))})
    except ScenarioError:
        reject()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_scenarios())
def test_batched_engine_matches_the_des_on_any_valid_scenario(s):
    assert_matches_the_des(s, run_with_baseline)
    assert run_with_baseline(s) == (run_scenario(s), run_baseline(s))


@st.composite
def windowed_scenarios(draw):
    """Lattices up to 40 x 40 wider than a position's window of lattice
    indices, at radii of whole spacings or an ulp either side, and
    waypoints that jump across the lattice, some on a beacon column or an
    ulp either side of it. At origins of 1e16 spacings and 1e20 m the
    coordinates round by a spacing or more, and columns or rows merge."""
    spacing = draw(st.sampled_from([0.1, 3.7, 1.3, 25.0]))
    radius = draw(st.sampled_from([1.0, 2.0, 3.0])) * spacing
    radius = draw(st.sampled_from([radius, math.nextafter(radius, 0.0),
                                   math.nextafter(radius, math.inf)]))
    narrowest = 2 * (math.ceil(radius / spacing) + 1) + 2
    cols = draw(st.integers(narrowest, 40))
    rows = draw(st.integers(2, 40))
    origin = [draw(st.sampled_from([-0.0, 1e6 * spacing, -17.3, 1e16 * spacing, 1e20]))
              for _ in range(2)]
    grid = GridSpec(Point(*origin), spacing, cols, rows)
    points = []
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.integers(0, cols - 2)), draw(st.integers(0, rows - 2))
        u = draw(st.floats(0.05, 0.95))
        x, y = grid.beacon_position(i, j)
        x = draw(st.sampled_from([x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf),
                                  x + u * spacing]))
        points.append((Point(x, y + draw(st.floats(0.05, 0.95)) * spacing),
                       draw(st.integers(1, 2))))
    try:
        return Scenario(
            grid=grid,
            channel=ChannelParams(sigma_dbm=draw(st.sampled_from([0.0, 3.0])),
                                  reception_radius_m=radius),
            # Where columns merge, calibration beacons 0 and 1 can coincide, and
            # validation rejects adapt; that is no window's doing.
            estimator=EstimatorSettings(adapt=draw(st.booleans()) and grid.beacon_position(
                0, 0) != grid.beacon_position(1, 0)),
            trajectory=Waypoints(tuple(points)), rounds=sum(d for _, d in points),
            seed=draw(st.integers(0, 2**32 - 1)), quantize_rssi=draw(st.booleans()))
    except ScenarioError:
        reject()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(windowed_scenarios())
def test_windowed_runs_match_the_des(s):
    # The DES measures every beacon at every position.
    assert_matches_the_des(s, run_with_baseline)


def test_a_position_measures_only_its_window(monkeypatch):
    # At a 9 m radius on the 4 m lattice a window is 9 columns by 9 rows.
    s = sweep_scenario(42, 3.0, False, False, 100, 9.0, n=7)
    widths = []

    def measured(beacon_xy, positions, params, candidates):
        widths.append(candidates.shape[1])
        return original(beacon_xy, positions, params, candidates)

    original = chan._links
    monkeypatch.setattr(chan, "_links", measured)
    records = run_scenario(s)
    assert widths and max(widths) <= 81
    assert all(r.estimate.method is not FixMethod.NO_FIX for r in records)


@pytest.mark.parametrize("origin", [Point(-0.0, -0.0), Point(-1.1e7, 3.3e9)])
@pytest.mark.parametrize("spacing", [0.1, 3.7, 250.0])
def test_beacon_table_and_reports_have_the_lattice_positions(origin, spacing, monkeypatch):
    grid = GridSpec(origin, spacing, 5, 4)
    s = Scenario(grid=grid, channel=ChannelParams(sigma_dbm=3.0, reception_radius_m=9 * spacing),
                 trajectory=Static(grid.beacon_position(1, 2)._replace(
                     y=grid.beacon_position(1, 2).y + spacing / 3)), rounds=2)
    lattice = [tuple(map(float.hex, b.pos)) for b in build_lattice(grid)]
    tables = []

    def recording(beacon_xy, *args):
        tables.append([tuple(map(float.hex, row)) for row in beacon_xy.tolist()])
        return original(beacon_xy, *args)

    original = chan._links
    monkeypatch.setattr(chan, "_links", recording)
    sets = engine_play(run_scenario, s)[2]
    assert tables == [lattice]
    assert ([[tuple(map(float.hex, r.beacon_pos)) for r in reports] for reports in sets]
            == [lattice] * 2)


def test_a_lattice_past_the_largest_float_runs_as_the_des_does():
    # Its far column lies at inf; the table lays it out as beacon_position
    # does, with no overflow warning.
    s = Scenario(grid=GridSpec(Point(-1e308, 0.0), 1e308, 3, 3),
                 trajectory=Static(Point(0.5e308, 0.5e308)), rounds=2)
    assert_matches_the_des(s, run_with_baseline)


@pytest.mark.parametrize("run", [run_scenario, run_baseline, run_with_baseline],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("origin,point", [
    # Lengths past the largest float: hypot overflows.
    (Point(-1e308, -1e308), Point(0.5e308, 0.5e308)),
    # Offsets past it: the window index and the links' differences overflow.
    (Point(-1e308, 0.0), Point(1e308, 0.5e308)),
], ids=["hypot", "subtract"])
def test_a_length_past_the_largest_float_is_never_heard(origin, point, run):
    # Each warned, which pytest's warnings-as-errors made an error; the DES's
    # math makes those lengths inf too.
    s = Scenario(grid=GridSpec(origin, 1e308, 3, 3), trajectory=Static(point),
                 channel=ChannelParams(sigma_dbm=3.0), rounds=2)
    assert_matches_the_des(s, run)


@pytest.mark.parametrize("protocol", [
    {"round_interval_ms": 210.0},
    {"accum_count": 3, "inter_test_gap_ms": 10.0, "response_window_ms": 5.0,
     "round_interval_ms": 35.0},
])
def test_trace_times_never_decrease_at_the_shortest_interval(protocol):
    s = scenario_from_dict({
        "seed": 3, "channel": {"sigma_dbm": 3.0}, "protocol": protocol,
        "trajectory": {"kind": "waypoints", "points": [
            {"point": [1.0, 1.0]}, {"point": [6.0, 3.0]}]},
        "rounds": 4})
    trace: list[str] = []
    run_scenario(s, trace)
    times = [float(line.split(",", 1)[0]) for line in trace]
    assert len(times) > 4 * 9
    assert times == sorted(times)


def test_a_run_formats_each_beacon_tail_once_and_its_own(monkeypatch):
    # 2 + accum_count tails are built when the run starts, and an ack tail
    # and a response head the first time a beacon is in range; a second run
    # builds its own.
    calls = []

    def counting_format(*args, _original=proto.format_trace_line):
        calls.append(1)
        return _original(*args)

    monkeypatch.setattr(proto, "format_trace_line", counting_format)
    s = Scenario(grid=GridSpec(cols=100, rows=100), rounds=2, trajectory=Waypoints(
        ((Point(50.5, 50.5), 1), (Point(90.5, 90.5), 1))))
    beacons = build_lattice(s.grid)
    heard = {b.id for p in positions(s) for b, _ in links_at(beacons, p, s.channel)}
    run_scenario(s, [])
    assert len(calls) == 2 + s.protocol.accum_count + 2 * len(heard) == 702
    run_scenario(s, [])
    assert len(calls) == 2 * 702


def schedule_lines(p: ProtocolSettings, pos, ids, levels, t0: float) -> list[str]:
    """A round's trace, each message object formatted whole at its time on
    the fixed schedule, as the DES formats it."""
    def line(t, src, dst, msg):
        return proto.format_trace_line(t, src, dst, msg)

    lines = [line(t0, "m0", proto.BROADCAST, proto.LocationStart("m0"))]
    if not ids:
        return lines
    lines += [line(t0, f"b{i}", "m0", proto.Ack(f"b{i}")) for i in ids]
    t = t0
    for seq in range(1, p.accum_count + 1):
        lines.append(line(t, "m0", proto.BROADCAST, proto.RssiTest("m0", seq)))
        t += p.inter_test_gap_ms
    lines.append(line(t, "m0", proto.BROADCAST, proto.RssiAvgRequest("m0")))
    return lines + [line(t, f"b{i}", "m0", proto.RssiAvgResponse(f"b{i}", pos(i), v, p.accum_count))
                    for i, v in zip(ids, levels)]


WRITER_GRID = GridSpec(Point(-17.3, 1e6 / 3), 3.7, 4, 3)
TRACE_LEVELS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e5, -1e5, 5e-324, -2.2250738585072014e-308,
                     -61.123456789012345, -44.999999999999996]),
    st.floats(-1e5, 1e5))
TRACE_TIMES = st.one_of(st.sampled_from([0.0, 1e12, 999999999999.9995, 0.0005, 2.5e-4]),
                        st.floats(0.0, 1e12))


@st.composite
def trace_steps(draw):
    """Steps of back-to-back rounds, each step a list of rounds (ids,
    levels, t0) that mixes empty rounds with heard ids that change or
    repeat, within the step and across steps."""
    pool = [[], [0], [1, 2, 5, 11], list(range(12)), [3, 4]]
    pool.append(draw(st.lists(st.integers(0, 11), unique=True).map(sorted)))
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        step = []
        for ids in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)):
            levels = draw(st.lists(TRACE_LEVELS, min_size=len(ids), max_size=len(ids)))
            step.append((list(ids), levels, draw(TRACE_TIMES)))
        steps.append(step)
    return steps


def write_step(write, step) -> str:
    """A step's trace from the step writer, its rounds given as ids, round
    ends, levels and start times."""
    ids = tuple(i for heard, _, _ in step for i in heard)
    ends = list(itertools.accumulate((len(heard) for heard, _, _ in step), initial=0))
    levels = np.array([v for _, values, _ in step for v in values], dtype=float)
    return write(ids, ends, levels, np.array([t0 for _, _, t0 in step], dtype=float))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(steps=trace_steps(), accum=st.sampled_from([1, 12]),
       gap=st.sampled_from([0.0, 0.1]), percent=st.booleans(),
       cache=st.sampled_from([1, 2, sim.TEMPLATE_CACHE_SIZE]))
# Five heard sets through a cache of one, empty rounds between them, and
# -0.0 beside 0.0 in one step: every template is evicted and joined again.
@example(steps=[[([0], [-0.0], 0.0), ([], [], 1e12),
                 ([1, 2, 5, 11], [0.0, -0.0, 1e5, -0.0], 2.5e-4),
                 ([3, 4], [5e-324, -0.0], 999999999999.9995), ([0], [0.0], 0.0005)],
                [([1, 2, 5, 11], [-0.0, 0.0, 0.0, -0.0], 1.0), ([], [], 0.0),
                 (list(range(12)), [-61.123456789012345] * 6 + [-0.0, 0.0] * 3, 3.0),
                 ([0], [-0.0], 4.0)]],
         accum=12, gap=0.1, percent=True, cache=1)
def test_a_written_round_is_its_messages_formatted_whole(steps, accum, gap, percent, cache):
    # With percent, every line's text after its time holds a '%', which the
    # writer's template must keep as it is. cache bounds the writer's
    # templates; at 1 or 2, the heard sets of a step can outnumber it.
    def format_line(*args, _original=proto.format_trace_line):
        line = _original(*args)
        return line.replace(",", ",%s%%", 1) if percent else line

    p = ProtocolSettings(accum_count=accum, inter_test_gap_ms=gap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proto, "format_trace_line", format_line)
        mp.setattr(sim, "TEMPLATE_CACHE_SIZE", cache)
        write = sim._trace_writer(p, WRITER_GRID.position_of)
        for step in steps:
            assert write_step(write, step) == "".join(
                line + "\n" for ids, levels, t0 in step
                for line in schedule_lines(p, WRITER_GRID.position_of, ids, levels, t0))


class TestSweepPoints:
    GRID = GridSpec(origin=Point(0.0, 0.0), spacing_m=4.0, cols=3, rows=3)

    def test_count_and_row_major_order(self):
        pts = sweep_points(self.GRID, 25, 25)
        assert len(pts) == 625
        assert len({p.y for p in pts[:25]}) == 1
        xs = [p.x for p in pts[:25]]
        assert xs == sorted(xs)
        assert pts[0] == pytest.approx((0.16, 0.16))

    def test_lattice_line_samples_pulled_into_cell(self):
        pts = sweep_points(self.GRID, 25, 25)
        cols = sorted({p.x for p in pts})
        assert 3.92 in [pytest.approx(c) for c in cols]
        for p in pts:
            assert math.fmod(p.x, 4.0) > 1e-6
            assert math.fmod(p.y, 4.0) > 1e-6

    def test_no_point_coincides_with_beacon(self):
        pts = sweep_points(self.GRID, 25, 25)
        for p in pts:
            for bx in (0.0, 4.0, 8.0):
                for by in (0.0, 4.0, 8.0):
                    assert dist(p, Point(bx, by)) > 0.05

    def test_all_points_strictly_inside_hull(self):
        for p in sweep_points(self.GRID, 7, 3):
            assert 0.0 < p.x < 8.0 and 0.0 < p.y < 8.0

    @pytest.mark.parametrize("spacing", [4.0, 2.0])
    @pytest.mark.parametrize("rows", [5, 4])
    def test_a_step_wider_than_a_cell_keeps_samples_off_lines(self, rows, spacing):
        # The one sample sits on the middle column, and on the middle row
        # when rows is odd; a quarter step back would reach another line.
        grid = GridSpec(spacing_m=spacing, cols=5, rows=rows)
        (p,) = positions(Scenario(grid=grid, trajectory=LatticeSweep(1, 1)))
        for v, count in ((p.x, grid.cols), (p.y, grid.rows)):
            assert all(abs(v - k * spacing) > COORD_TOL for k in range(count))


class TestTrajectories:
    def test_waypoints_dwell_expansion(self):
        s = Scenario(trajectory=Waypoints(((Point(1, 1), 2), (Point(5, 5), 1))),
                     rounds=3)
        assert positions(s) == [Point(1, 1), Point(1, 1), Point(5, 5)]

    def test_waypoints_truncated_or_held(self):
        w = Waypoints(((Point(1, 1), 2), (Point(5, 5), 1)))
        assert positions(Scenario(trajectory=w, rounds=2)) == [Point(1, 1)] * 2
        assert positions(Scenario(trajectory=w, rounds=5))[-2:] == [Point(5, 5)] * 2

    def test_long_dwell_lays_out_only_the_rounds(self):
        # A dwell far longer than memory allows: only rounds points are made.
        s = scenario_from_dict({
            "trajectory": {"kind": "waypoints", "points": [
                {"point": [1.0, 1.0], "dwell_rounds": 10**18},
                {"point": [5.0, 5.0]}]},
            "rounds": 3})
        assert positions(s) == [Point(1.0, 1.0)] * 3
        assert [r.true_pos for r in run_scenario(s)] == [Point(1.0, 1.0)] * 3

    def test_sweep_round_count_enforced(self):
        with pytest.raises(ScenarioError, match="rounds"):
            run_scenario(Scenario(trajectory=LatticeSweep(5, 5), rounds=24))

    def test_point_outside_hull_rejected(self):
        with pytest.raises(ScenarioError, match="outside"):
            run_scenario(Scenario(trajectory=Static(Point(9.0, 1.0))))

    def test_point_on_beacon_rejected(self):
        with pytest.raises(ScenarioError, match="beacon"):
            run_scenario(Scenario(trajectory=Static(Point(4.0, 4.0))))

    def test_waypoint_past_the_rounds_is_not_checked(self):
        # The second point sits on beacon 4, but no round reaches it.
        w = Waypoints(((Point(1.0, 1.0), 3), (Point(4.0, 4.0), 1)))
        assert positions(Scenario(trajectory=w, rounds=3)) == [Point(1.0, 1.0)] * 3
        with pytest.raises(ScenarioError) as info:
            Scenario(trajectory=w, rounds=4)
        assert str(info.value) == "trajectory: point 3 coincides with beacon 4"


@pytest.mark.parametrize("build,path,message", [
    (lambda: Scenario(rounds=0), "rounds", "must be >= 1"),
    (lambda: Scenario(rounds=10**15), "rounds", "must be at most 1000000"),
    (lambda: replace(Scenario(), seed=-1), "seed", "must be >= 0"),
    (lambda: replace(Scenario(), protocol=ProtocolSettings(accum_count=1001)),
     "accum_count", "must be at most 1000"),
    (lambda: Scenario(trajectory=Waypoints(())), "points", "must not be empty"),
    (lambda: Scenario(trajectory=Waypoints(((Point(1.0, 1.0), -2),))),
     "points[0].dwell_rounds", "must be >= 1"),
    (lambda: replace(Scenario(), trajectory=Static(Point(9.0, 1.0))),
     "trajectory", "point 0 at (9.0, 1.0) outside the lattice hull"),
    # Counts must be ints, not floats or bools.
    (lambda: Scenario(rounds=2.5), "rounds", "must be an integer"),
    (lambda: Scenario(seed=1.5), "seed", "must be an integer"),
    (lambda: Scenario(protocol=ProtocolSettings(accum_count=2.5)),
     "accum_count", "must be an integer"),
    (lambda: Scenario(trajectory=LatticeSweep(nx=2.0, ny=2), rounds=4),
     "nx", "must be an integer"),
    (lambda: Scenario(trajectory=LatticeSweep(nx=1, ny=True), rounds=1),
     "ny", "must be an integer"),
    (lambda: Scenario(trajectory=Waypoints(((Point(1.0, 1.0), 1),
                                            (Point(1.0, 3.0), 2.0))), rounds=3),
     "points[1].dwell_rounds", "must be an integer"),
    # Switches must be bools, and the calibration pair two int ids, with
    # adapt on or off.
    (lambda: Scenario(quantize_rssi=1), "quantize_rssi", "must be true or false"),
    (lambda: Scenario(estimator=EstimatorSettings(adapt="no"), rounds=2),
     "adapt", "must be true or false"),
    (lambda: Scenario(estimator=EstimatorSettings(adapt=True,
                                                  calibration_beacons=(0.5, 1))),
     "calibration_beacons", "must be a pair of integer ids"),
    (lambda: Scenario(estimator=EstimatorSettings(calibration_beacons=(True, 2))),
     "calibration_beacons", "must be a pair of integer ids"),
    (lambda: Scenario(estimator=EstimatorSettings(calibration_beacons=[0, 1])),
     "calibration_beacons", "must be a pair of integer ids"),
    (lambda: Scenario(estimator=EstimatorSettings(calibration_beacons=(0, 1, 2))),
     "calibration_beacons", "must be a pair of integer ids"),
    # A point is a tuple of two numbers: a list cannot be hashed.
    (lambda: Scenario(trajectory=Static([2.0, 2.0])),
     "point", "must be an (x, y) pair of finite numbers"),
    (lambda: Scenario(trajectory=Waypoints(((Point(1.0, 1.0), 1), ([1.0, 3.0], 2))),
                      rounds=3),
     "points[1].point", "must be an (x, y) pair of finite numbers"),
    (lambda: Scenario(trajectory=Static(Point(2.0, "2"))),
     "point", "must be an (x, y) pair of finite numbers"),
    # Each section checks its own fields; a number is finite, and an int too
    # large for a float is no number.
    (lambda: ChannelParams(a_dbm=10**400), "a_dbm", "must be a finite number"),
    (lambda: GridSpec(spacing_m=10**400), "spacing_m", "must be a finite number"),
    (lambda: GridSpec(origin=(10**400, 0)), "origin",
     "must be an (x, y) pair of finite numbers"),
    (lambda: EstimatorSettings(n_initial=10**400), "n_initial", "must be a finite number"),
    (lambda: Static(Point(10**400, 0.0)), "point", "must be an (x, y) pair of finite numbers"),
    (lambda: Waypoints(((Point(1.0, 1.0), 1), (Point(0.0, 10**400), 1))),
     "points[1].point", "must be an (x, y) pair of finite numbers"),
    (lambda: EstimatorSettings(adapt=True, n_min=math.inf, n_max=math.inf),
     "n_min", "must be a finite number"),
    (lambda: ProtocolSettings(ack_timeout_ms=math.inf), "ack_timeout_ms",
     "must be a finite number"),
    # A section is of its own class, and a waypoint a (point, dwell) pair.
    (lambda: Scenario(trajectory="x"), "trajectory",
     "must be a Static or Waypoints or LatticeSweep"),
    (lambda: Scenario(grid=None), "grid", "must be a GridSpec"),
    (lambda: Scenario(channel=EstimatorSettings()), "channel", "must be a ChannelParams"),
    (lambda: Waypoints(((1, 2, 3),)), "points[0]", "must be a (point, dwell_rounds) pair"),
    (lambda: Waypoints([(Point(1.0, 1.0), 1)]), "points",
     "must be a tuple of (point, dwell_rounds) pairs"),
], ids=["rounds-0", "rounds-1e15", "replace-seed", "replace-accum", "no-waypoints",
        "negative-dwell", "replace-outside", "rounds-float", "seed-float",
        "accum-float", "nx-float", "ny-bool", "dwell-float", "quantize-int",
        "adapt-str", "calibration-float", "calibration-bool", "calibration-list",
        "calibration-triple", "static-list", "waypoint-list", "static-str",
        "a-dbm-1e400", "spacing-1e400", "origin-1e400", "n-initial-1e400",
        "static-1e400", "waypoint-1e400", "n-range-inf", "ack-timeout-inf",
        "trajectory-str", "grid-none", "channel-of-estimator", "waypoint-triple",
        "waypoints-list"])
def test_invalid_scenario_cannot_be_built(build, path, message):
    with pytest.raises(ScenarioError) as info:
        build()
    assert (info.value.path, str(info.value)) == (path, f"{path}: {message}")


MINIMAL = {"trajectory": {"kind": "static", "point": [2.0, 2.0]}}
SUB_TOLERANCE = "grid.spacing_m: must be more than 2 * COORD_TOL, 2e-06 m"
# The smallest spacing a lattice may have.
ABOVE_TOLERANCE = math.nextafter(2 * COORD_TOL, math.inf)


class TestScenarioParsing:
    def test_minimal_document_gets_defaults(self):
        s = scenario_from_dict(dict(MINIMAL))
        assert s.grid == GridSpec()
        assert s.channel.a_dbm == -45.0
        assert s.protocol.accum_count == 8
        assert s.rounds == 1 and s.seed == 0
        assert not s.quantize_rssi
        assert s == Scenario(trajectory=Static(Point(2, 2)))

    def test_full_document(self):
        s = scenario_from_dict({
            "seed": 42,
            "grid": {"origin": [0, 0], "spacing_m": 4.0, "cols": 3, "rows": 3},
            "channel": {"a_dbm": -45.0, "n_exp": 2.0, "sigma_dbm": 1.5,
                        "rssi_offset_dbm": -45.0, "reception_radius_m": 30.0},
            "estimator": {"n_initial": 2.0, "near_beacon_tau": 0.25,
                          "adapt": True, "calibration_beacons": [0, 1]},
            "protocol": {"accum_count": 8, "inter_test_gap_ms": 20.0,
                         "response_window_ms": 50.0, "ack_timeout_ms": 100.0,
                         "round_interval_ms": 1000.0},
            "trajectory": {"kind": "lattice_sweep", "nx": 5, "ny": 5},
            "rounds": 25,
            "quantize_rssi": True,
        })
        assert s.channel.sigma_dbm == 1.5
        assert s.estimator.adapt
        assert s.trajectory == LatticeSweep(5, 5)

    @pytest.mark.parametrize("mutate,where", [
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d.update(channel={"sigma": 2}), "channel.sigma"),
        (lambda d: d.update(channel={"sigma_dbm": True}), "channel.sigma_dbm"),
        (lambda d: d.update(rounds=1.5), "rounds"),
        (lambda d: d.update(rng="xoshiro"), "pcg64"),
        (lambda d: d.update(trajectory={"kind": "orbit"}), "trajectory.kind"),
        (lambda d: d.update(trajectory={"kind": "static"}), "trajectory.point"),
        (lambda d: d.update(trajectory={"kind": "static", "point": [1]}),
         "trajectory.point"),
        (lambda d: d.update(grid={"cols": 1}), "grid"),
        (lambda d: d.update(estimator={"near_beacon_tau": 1.5}),
         "near_beacon_tau"),
    ])
    def test_bad_documents_name_the_field(self, mutate, where):
        data = dict(MINIMAL)
        mutate(data)
        with pytest.raises(ScenarioError, match=where):
            scenario_from_dict(data)

    @pytest.mark.parametrize("patch,message", [
        ({"channel": {"sigma_dbm": True}}, "channel.sigma_dbm: must be a finite number"),
        ({"rounds": 1.5}, "rounds: must be an integer"),
        ({"quantize_rssi": 1}, "quantize_rssi: must be true or false"),
        ({"grid": {"origin": [0, "x"]}},
         "grid.origin: must be an (x, y) pair of finite numbers"),
        ({"estimator": {"calibration_beacons": [0, 1.0]}},
         "estimator.calibration_beacons: must be a pair of integer ids"),
        ({"trajectory": {"kind": "lattice_sweep", "nx": 2.0}},
         "trajectory.nx: must be an integer"),
        ({"channel": {"n_exp": 0}}, "channel.n_exp: must be positive"),
        ({"protocol": {"ack_timeout_ms": 0.0}},
         "protocol.ack_timeout_ms: must be positive"),
        ({"protocol": {"response_window_ms": 0.0}},
         "protocol.response_window_ms: must be positive"),
        ({"protocol": {"inter_test_gap_ms": -5.0}},
         "protocol.inter_test_gap_ms: must be >= 0"),
        ({"protocol": {"inter_test_gap_ms": math.nan}},
         "protocol.inter_test_gap_ms: must be a finite number"),
        ({"protocol": {"round_interval_ms": math.nan}},
         "protocol.round_interval_ms: must be a finite number"),
        ({"protocol": {"round_interval_ms": math.inf}},
         "protocol.round_interval_ms: must be a finite number"),
        # The protocol's clock at t = 1000 ms cannot resolve a 1e-14 ms wait.
        ({"protocol": {"ack_timeout_ms": 1e-14}, "rounds": 2},
         "protocol.ack_timeout_ms: must be longer than one clock step, 2.27374e-13 ms"),
        ({"protocol": {"accum_count": 10**400}},
         "protocol.accum_count: must be at most 1000"),
        # JSON may spell NaN and Infinity, and they pass a plain range check.
        ({"channel": {"sigma_dbm": math.nan}}, "channel.sigma_dbm: must be a finite number"),
        ({"channel": {"a_dbm": math.nan}}, "channel.a_dbm: must be a finite number"),
        ({"channel": {"n_exp": math.nan}}, "channel.n_exp: must be a finite number"),
        ({"channel": {"rssi_offset_dbm": -math.inf}},
         "channel.rssi_offset_dbm: must be a finite number"),
        ({"channel": {"reception_radius_m": math.nan}},
         "channel.reception_radius_m: must be a finite number"),
        ({"channel": {"reception_radius_m": math.inf}},
         "channel.reception_radius_m: must be a finite number"),
        ({"grid": {"spacing_m": math.inf}},
         "grid.spacing_m: must be a finite number"),
        ({"grid": {"spacing_m": math.nan}},
         "grid.spacing_m: must be a finite number"),
        ({"estimator": {"n_initial": math.nan}},
         "estimator.n_initial: must be a finite number"),
        ({"estimator": {"n_initial": math.inf}},
         "estimator.n_initial: must be a finite number"),
        # Rejected before any beacon is laid out, with adapt on or off.
        ({"grid": {"cols": 2**70}}, "grid: cols * rows must be at most 10000"),
        ({"grid": {"cols": 2**70}, "estimator": {"adapt": True}},
         "grid: cols * rows must be at most 10000"),
        ({"grid": {"cols": 100, "rows": 101}},
         "grid: cols * rows must be at most 10000"),
        # A point on a beacon names the lowest id within COORD_TOL of it.
        ({"grid": {"cols": 100, "rows": 100}, "rounds": 200,
          "trajectory": {"kind": "static", "point": [396.0, 396.0]}},
         "trajectory: point 0 coincides with beacon 9999"),
        ({"grid": {"cols": 100, "rows": 100},
          "trajectory": {"kind": "static", "point": [395.9999995, 395.9999996]}},
         "trajectory: point 0 coincides with beacon 9999"),
        ({"grid": {"origin": [-3.5, 10.25], "spacing_m": 0.5, "cols": 7, "rows": 4},
          "trajectory": {"kind": "waypoints", "points": [
              {"point": [-3.25, 10.5], "dwell_rounds": 2},
              {"point": [-0.5000004, 11.7499994]}]}, "rounds": 4},
         "trajectory: point 2 coincides with beacon 27"),
        ({"grid": {"origin": [1e12, -1e12], "spacing_m": 0.25, "cols": 5, "rows": 5},
          "trajectory": {"kind": "static", "point": [1e12 + 0.5, -1e12 + 0.75]}},
         "trajectory: point 0 coincides with beacon 17"),
        # Spacings at or below 2 * COORD_TOL, where a point could lie within
        # COORD_TOL of two lattice lines, are rejected with the grid.
        ({"grid": {"spacing_m": 1e-7},
          "trajectory": {"kind": "static", "point": [1e-7, 1e-7]}}, SUB_TOLERANCE),
        ({"grid": {"spacing_m": 4e-7, "cols": 5, "rows": 5},
          "trajectory": {"kind": "static", "point": [1.6e-6, 1.6e-6]}}, SUB_TOLERANCE),
        ({"grid": {"spacing_m": 4e-7, "cols": 5, "rows": 5},
          "trajectory": {"kind": "static", "point": [1.1e-6, 0.9e-6]}}, SUB_TOLERANCE),
        ({"grid": {"spacing_m": 5e-324, "cols": 4, "rows": 4},
          "trajectory": {"kind": "static", "point": [0.0, 0.0]}}, SUB_TOLERANCE),
        # A lattice wider than the largest float.
        ({"grid": {"origin": [-1e308, 0.0], "spacing_m": 1e308},
          "trajectory": {"kind": "static", "point": [0.0, 0.0]}},
         "trajectory: point 0 coincides with beacon 1"),
        ({"grid": {"spacing_m": 2 * COORD_TOL},
          "trajectory": {"kind": "static", "point": [1e-6, 0.0]}}, SUB_TOLERANCE),
        # Just above it, only the nearer beacon is within COORD_TOL.
        ({"grid": {"spacing_m": ABOVE_TOLERANCE},
          "trajectory": {"kind": "static", "point": [1e-6, 0.0]}},
         "trajectory: point 0 coincides with beacon 0"),
        ({"grid": {"spacing_m": ABOVE_TOLERANCE},
          "trajectory": {"kind": "static", "point": [1e-6, ABOVE_TOLERANCE]}},
         "trajectory: point 0 coincides with beacon 3"),
        # Capped before any round is laid out or any block is drawn.
        ({"rounds": 10**15}, "rounds: must be at most 1000000"),
        ({"rounds": 10**6 + 1}, "rounds: must be at most 1000000"),
        ({"protocol": {"accum_count": 10**12, "inter_test_gap_ms": 0.0}},
         "protocol.accum_count: must be at most 1000"),
        ({"protocol": {"accum_count": 2**80, "inter_test_gap_ms": 0.0}},
         "protocol.accum_count: must be at most 1000"),
        ({"seed": -1}, "seed: must be >= 0"),
        ({"trajectory": {"kind": "waypoints", "points": [
            {"point": [1.0, 1.0]}, {"point": [5.0, 5.0], "dwell_rounds": 0}]}},
         "trajectory.points[1].dwell_rounds: must be >= 1"),
        # A point is named by the first round there.
        ({"trajectory": {"kind": "waypoints", "points": [
            {"point": [1.0, 1.0], "dwell_rounds": 3}, {"point": [9.0, 1.0]},
            {"point": [1.0, 1.0]}]}, "rounds": 6},
         "trajectory: point 3 at (9.0, 1.0) outside the lattice hull"),
        # Columns 0 and 1 both round to x = 1e20, so the calibration link
        # has no length; a run with adapt raised "distance must be positive".
        ({"grid": {"origin": [1e20, 0.0], "spacing_m": 0.1},
          "estimator": {"adapt": True},
          "trajectory": {"kind": "static", "point": [1e20, 0.05]}},
         "estimator.calibration_beacons: the calibration beacons coincide"),
        # With adapt on, the calibration pair is two distinct ids of the 3 x 3.
        ({"estimator": {"adapt": True, "calibration_beacons": [1, 1]}},
         "estimator.calibration_beacons: need two distinct beacon ids on the lattice"),
        ({"estimator": {"adapt": True, "calibration_beacons": [0, 9]}},
         "estimator.calibration_beacons: need two distinct beacon ids on the lattice"),
        # Sections, trajectories and waypoints of the wrong JSON type.
        ({"grid": 5}, "grid: expected an object"),
        ({"trajectory": 5}, "trajectory: expected an object"),
        ({"trajectory": {"kind": "waypoints", "points": 5}},
         "trajectory.points: expected a list"),
        ({"trajectory": {"kind": "waypoints", "points": [5]}},
         "trajectory.points[0]: expected an object"),
        ({"trajectory": {"kind": "waypoints", "points": [{"dwell_rounds": 2}]}},
         "trajectory.points[0].point: required"),
    ])
    def test_error_messages_are_exact(self, patch, message):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(dict(MINIMAL, **patch))
        assert str(info.value) == message

    @pytest.mark.parametrize("patch,message", [
        ({"channel": {"sigma_dbm": 10**400}}, "channel.sigma_dbm: must be a finite number"),
        ({"grid": {"origin": [10**400, 0]}},
         "grid.origin: must be an (x, y) pair of finite numbers"),
        ({"trajectory": {"kind": "static", "point": [10**400, 0]}},
         "trajectory.point: must be an (x, y) pair of finite numbers"),
        ({"trajectory": {"kind": "waypoints", "points": [
            {"point": [1.0, 1.0]}, {"point": [0, -10**400]}]}},
         "trajectory.points[1].point: must be an (x, y) pair of finite numbers"),
        # With adapt on, n would otherwise be clamped into [inf, inf].
        ({"estimator": {"adapt": True, "n_min": math.inf, "n_max": math.inf}},
         "estimator.n_min: must be a finite number"),
        ({"protocol": {"ack_timeout_ms": math.inf}},
         "protocol.ack_timeout_ms: must be a finite number"),
    ], ids=["sigma-1e400", "origin-1e400", "static-1e400", "waypoint-1e400",
            "n-range-inf", "ack-timeout-inf"])
    def test_a_value_beyond_a_float_is_rejected(self, patch, message):
        # As a file spells it: JSON integers of any length, and Infinity.
        with pytest.raises(ScenarioError) as info:
            parse_scenario(json.dumps(dict(MINIMAL, **patch)))
        assert str(info.value) == message

    def test_every_field_round_trips(self):
        want = Scenario(
            grid=GridSpec(origin=Point(1.0, -2.5), spacing_m=5.0, cols=4, rows=5),
            channel=ChannelParams(a_dbm=-40.0, n_exp=3.0, sigma_dbm=2.0,
                                  rssi_offset_dbm=-44.0, reception_radius_m=12.0),
            estimator=EstimatorSettings(n_initial=3.0, near_beacon_tau=0.5,
                                        adapt=True, calibration_beacons=(2, 0),
                                        n_min=1.5, n_max=4.0),
            protocol=ProtocolSettings(accum_count=3, inter_test_gap_ms=10.0,
                                      response_window_ms=30.0,
                                      ack_timeout_ms=50.0, round_interval_ms=500.0),
            trajectory=LatticeSweep(nx=3, ny=2), rounds=6, seed=7,
            quantize_rssi=True)
        doc = {
            "rng": "pcg64",
            "grid": {"origin": [1, -2.5], "spacing_m": 5, "cols": 4, "rows": 5},
            "channel": {"a_dbm": -40, "n_exp": 3, "sigma_dbm": 2,
                        "rssi_offset_dbm": -44, "reception_radius_m": 12},
            "estimator": {"n_initial": 3, "near_beacon_tau": 0.5, "adapt": True,
                          "calibration_beacons": [2, 0], "n_min": 1.5, "n_max": 4},
            "protocol": {"accum_count": 3, "inter_test_gap_ms": 10,
                         "response_window_ms": 30, "ack_timeout_ms": 50,
                         "round_interval_ms": 500},
            "trajectory": {"kind": "lattice_sweep", "nx": 3, "ny": 2},
            "rounds": 6, "seed": 7, "quantize_rssi": True,
        }
        got = scenario_from_dict(doc)
        assert got == want
        assert isinstance(got.grid.spacing_m, float)
        assert isinstance(got.grid.origin, Point)

    @pytest.mark.parametrize("protocol,shortest", [
        ({}, 210.0),
        ({"accum_count": 3, "inter_test_gap_ms": 10.0, "response_window_ms": 5.0}, 35.0),
    ])
    def test_round_interval_shorter_than_a_round_rejected(self, protocol, shortest):
        data = dict(MINIMAL, protocol=dict(protocol, round_interval_ms=shortest - 0.5))
        with pytest.raises(ScenarioError, match="protocol.round_interval_ms"):
            scenario_from_dict(data)
        data["protocol"]["round_interval_ms"] = shortest
        assert scenario_from_dict(data).protocol.round_interval_ms == shortest

    def test_each_distinct_point_is_checked_once(self, monkeypatch):
        from gridloc import geometry
        calls = []
        real = geometry.dist
        monkeypatch.setattr(geometry, "dist", lambda p, q: calls.append(1) or real(p, q))
        # Each within COORD_TOL of a beacon along each axis, but not in distance.
        a, b = [4.0 + 8e-7, 4.0 + 8e-7], [8.0 - 8e-7, 4.0 + 8e-7]
        s = scenario_from_dict(dict(MINIMAL, grid={"cols": 100, "rows": 100},
                                    trajectory={"kind": "static", "point": a},
                                    rounds=10**6,
                                    protocol={"accum_count": 1000, "inter_test_gap_ms": 0.0}))
        assert (s.rounds, s.protocol.accum_count, len(calls)) == (10**6, 1000, 1)
        calls.clear()
        scenario_from_dict(dict(MINIMAL, rounds=8, trajectory={
            "kind": "waypoints", "points": [{"point": p, "dwell_rounds": 2}
                                            for p in (a, b, a, b)]}))
        assert len(calls) == 2

    def test_largest_lattice_accepted(self):
        data = dict(MINIMAL, grid={"cols": 100, "rows": 100})
        assert scenario_from_dict(data).grid.cols == 100

    def test_beacon_check_cost_does_not_grow_with_the_lattice(self, monkeypatch):
        from gridloc import geometry
        calls = []
        real = geometry.dist
        monkeypatch.setattr(geometry, "dist", lambda p, q: calls.append(1) or real(p, q))
        # Within COORD_TOL of beacon (1, 1) along each axis, but not in distance.
        near = {"kind": "static", "point": [4.0 + 8e-7, 4.0 + 8e-7]}
        counts = []
        for size in (3, 100):
            calls.clear()
            scenario_from_dict(dict(MINIMAL, grid={"cols": size, "rows": size},
                                    trajectory=near, rounds=200))
            counts.append(len(calls))
        # One check of the one position, however many rounds stay there.
        assert counts == [1, 1]

    def test_point_past_the_largest_float_from_the_origin_accepted(self):
        s = scenario_from_dict(dict(
            MINIMAL, grid={"origin": [-1e308, 0.0], "spacing_m": 1e308},
            trajectory={"kind": "static", "point": [1e308, 0.0]}))
        assert positions(s) == [Point(1e308, 0.0)]

    @settings(max_examples=300, deadline=None)
    @given(origin=st.sampled_from([(0.0, 0.0), (-3.5, 10.25), (1e12, -1e12)]),
           spacing=st.sampled_from([5e-324, 1e-7, 4e-7, 1e-6, 1.5e-6, 2e-6,
                                    ABOVE_TOLERANCE, 0.25, 4.0]),
           cols=st.integers(2, 6), rows=st.integers(2, 6),
           vertex=st.tuples(st.integers(0, 5), st.integers(0, 5)),
           offset=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    def test_coincident_beacon_is_the_lowest_id_in_tolerance(
            self, origin, spacing, cols, rows, vertex, offset):
        grid_doc = {"origin": list(origin), "spacing_m": spacing,
                    "cols": cols, "rows": rows}
        if spacing <= 2 * COORD_TOL:
            with pytest.raises(ScenarioError) as info:
                scenario_from_dict(dict(MINIMAL, grid=grid_doc))
            assert str(info.value) == SUB_TOLERANCE
            return
        grid = GridSpec(origin=Point(*origin), spacing_m=spacing, cols=cols, rows=rows)
        near = grid.beacon_position(min(vertex[0], cols - 1), min(vertex[1], rows - 1))
        point = _clamp(Point(near[0] + offset[0] * 1e-6, near[1] + offset[1] * 1e-6),
                       grid.bounds())
        want = next((b.id for b in build_lattice(grid) if dist(point, b.pos) <= 1e-6),
                    None)
        data = dict(MINIMAL, grid=grid_doc,
                    trajectory={"kind": "static", "point": list(point)})
        if want is None:
            assert scenario_from_dict(data).grid == grid
        else:
            with pytest.raises(ScenarioError) as info:
                scenario_from_dict(data)
            assert str(info.value) == f"trajectory: point 0 coincides with beacon {want}"

    def test_trajectory_required(self):
        with pytest.raises(ScenarioError, match="trajectory"):
            scenario_from_dict({"rounds": 1})

    def test_one_meter_calibration_link_rejected(self):
        data = dict(MINIMAL)
        data["grid"] = {"spacing_m": 1.0, "cols": 9, "rows": 9}
        data["estimator"] = {"adapt": True}
        with pytest.raises(ScenarioError, match="calibration"):
            scenario_from_dict(data)

    def test_waypoint_document(self):
        s = scenario_from_dict({
            "trajectory": {"kind": "waypoints", "points": [
                {"point": [1.0, 1.0], "dwell_rounds": 2},
                {"point": [5.0, 5.0]},
            ]},
            "rounds": 3,
        })
        assert positions(s) == [Point(1, 1), Point(1, 1), Point(5, 5)]

    def test_parse_rejects_bad_json(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario("{nope")

    def test_a_document_that_is_not_an_object_is_rejected(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario("[]")
        assert str(info.value) == "scenario must be an object"

    def test_load_round_trips_through_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"trajectory": {"kind": "static", "point": [2, 2]}}')
        s = load_scenario(path)
        assert s.trajectory == Static(Point(2.0, 2.0))


def sweep_error_per_point(grid, nx, ny):
    """The error text a lattice sweep's points give when each distinct
    point is checked on its own, in round order, or None: the reference
    for the per-axis check."""
    xmin, ymin, xmax, ymax = grid.bounds()
    try:
        points = sweep_points(grid, nx, ny)
    except OverflowError as exc:
        return f"trajectory: cannot lay out {nx * ny} rounds: {exc}"
    checked = set()
    for i, pos in enumerate(points):
        if pos in checked:
            continue
        checked.add(pos)
        if not (xmin <= pos[0] <= xmax and ymin <= pos[1] <= ymax):
            return f"trajectory: point {i} at ({pos[0]}, {pos[1]}) outside the lattice hull"
        beacon = sim._coincident_beacon(grid, pos)
        if beacon is not None:
            return f"trajectory: point {i} coincides with beacon {beacon}"
    return None


@st.composite
def sweep_grids(draw):
    """(grid, nx, ny): spacings from just above 2 * COORD_TOL to 1e308,
    origins to 1e12 either way, and steps narrower and wider than a cell,
    some of whose raw samples fall on a lattice line."""
    spacing = draw(st.one_of(
        st.sampled_from([ABOVE_TOLERANCE, 2.5e-6, 3e-6, 4e-6, 0.25, 4.0, 1e154, 1e308]),
        st.floats(2 * COORD_TOL, 1e308, exclude_min=True)))
    origin = draw(st.tuples(*[st.one_of(st.sampled_from([0.0, 1e12, -1e12]),
                                        st.floats(-1e12, 1e12))] * 2))
    counts = []
    for _ in range(2):
        if draw(st.booleans()):
            # cells = 2 * per_step * steps: every sample's raw position is
            # the middle of a step, on a line.
            steps, per_step = draw(st.integers(1, 6)), draw(st.integers(1, 3))
            counts.append((2 * per_step * steps + 1, steps))
        else:
            counts.append((draw(st.integers(2, 12)), draw(st.integers(1, 40))))
    (cols, nx), (rows, ny) = counts
    grid = GridSpec(origin=Point(*origin), spacing_m=spacing, cols=cols, rows=rows)
    return grid, nx, ny


class TestSweepValidation:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sweep_grids())
    def test_per_axis_check_gives_the_per_point_error(self, case):
        grid, nx, ny = case
        try:
            Scenario(grid=grid, trajectory=LatticeSweep(nx, ny), rounds=nx * ny)
            error = None
        except ScenarioError as exc:
            error = str(exc)
        assert error == sweep_error_per_point(grid, nx, ny)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_any_samples_give_the_per_point_error(self, data):
        # Samples no layout makes too: past the hull, NaN, near a beacon
        # line, repeated. Each axis is told by its start.
        grid = GridSpec(origin=Point(0.0, 100.0), spacing_m=4.0, cols=4, rows=3)

        def axis(lo, hi):
            return st.lists(st.sampled_from([lo - 1.0, lo, lo + 2.0, lo + 4.0 + 5e-7,
                                             lo + 4.0 - 2e-6, hi, hi + 1e-6, math.nan]),
                            min_size=1, max_size=6)

        samples = {0.0: data.draw(axis(0.0, 12.0)), 100.0: data.draw(axis(100.0, 108.0))}
        nx, ny = len(samples[0.0]), len(samples[100.0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_axis_samples", lambda start, *_: samples[start])
            want = sweep_error_per_point(grid, nx, ny)
            try:
                Scenario(grid=grid, trajectory=LatticeSweep(nx, ny), rounds=nx * ny)
                error = None
            except ScenarioError as exc:
                error = str(exc)
        assert error == want

    @pytest.mark.parametrize("origin,spacing,size,n,message", [
        # Raw samples on the lines, pulled back less than COORD_TOL.
        ((0.0, 0.0), ABOVE_TOLERANCE, 3, 1, "point 0 coincides with beacon 4"),
        # At 1e12 the lattice is narrower than an ulp: every x sample is on
        # the first column, and no y sample on a row.
        ((1e12, 0.0), 3e-6, 9, 3, None),
        ((0.0, 0.0), 1e308, 3, 2, "cannot lay out 4 rounds: "
                                  "cannot convert float infinity to integer"),
    ])
    def test_error_cases_agree(self, origin, spacing, size, n, message):
        grid = GridSpec(origin=Point(*origin), spacing_m=spacing, cols=size, rows=size)
        want = sweep_error_per_point(grid, n, n)
        if message is not None:
            assert want == f"trajectory: {message}"
        if want is None:
            Scenario(grid=grid, trajectory=LatticeSweep(n, n), rounds=n * n)
            return
        with pytest.raises(ScenarioError) as info:
            Scenario(grid=grid, trajectory=LatticeSweep(n, n), rounds=n * n)
        assert str(info.value) == want

    def test_a_sweep_is_checked_an_axis_at_a_time(self, monkeypatch):
        calls = []

        def counting(*args, _original=sim._lines_near):
            calls.append(1)
            return _original(*args)

        grid, nx, ny = GridSpec(cols=10, rows=10), 1000, 1000
        xmin, ymin, xmax, ymax = grid.bounds()
        sp = grid.spacing_m
        near = [sum(bool(sim._lines_near(v, o, sp, 10)) for v in vs)
                for vs, o in ((sim._axis_samples(xmin, xmax - xmin, nx, sp), xmin),
                              (sim._axis_samples(ymin, ymax - ymin, ny, sp), ymin))]
        # _coincident_beacon looks for the lines of both axes again.
        bound = nx + ny + 2 * near[0] * near[1]
        monkeypatch.setattr(sim, "_lines_near", counting)
        s = Scenario(grid=grid, trajectory=LatticeSweep(nx, ny), rounds=nx * ny)
        assert len(calls) <= bound
        calls.clear()
        replace(s, seed=1)
        assert len(calls) <= bound


def test_bundled_sweep_scenario_is_valid():
    from importlib import resources
    text = resources.files("gridloc.scenarios").joinpath(
        "paper_sweep.json").read_text()
    s = parse_scenario(text)
    assert s.rounds == 625
    assert isinstance(s.trajectory, LatticeSweep)
    assert s.channel.sigma_dbm == 0.0


def test_a_tiny_exponent_ranges_to_the_clamp():
    # At n_initial 0.002 a level 20 dB below a_dbm ranges to 10**1000 m,
    # which overflowed a float mid-run; it clamps to d_max instead.
    from importlib import resources
    doc = json.loads(resources.files("gridloc.scenarios").joinpath(
        "paper_sweep.json").read_text())
    doc["channel"]["sigma_dbm"] = 3.0
    doc["estimator"]["n_initial"] = 0.002
    refined, baseline = run_with_baseline(scenario_from_dict(doc))
    assert len(refined) == len(baseline) == 625
    assert all(r.estimate.method is not FixMethod.NO_FIX for r in refined)


@pytest.mark.parametrize("channel", [
    {"sigma_dbm": 1e308}, {"a_dbm": 1e308}, {"a_dbm": -1e308}, {"n_exp": 1e308}])
def test_a_huge_channel_constant_is_rejected(channel):
    # Each gave NaN fixes on this static point; the last three broke the
    # baseline too.
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict({"seed": 0, "channel": channel, "rounds": 2,
                            "trajectory": {"kind": "static", "point": [1.5, 0.5]}})
    assert info.value.path == f"channel.{next(iter(channel))}"


@pytest.mark.parametrize("channel", [
    {"sigma_dbm": chan.SIGMA_DBM_MAX},
    {"a_dbm": chan.A_DBM_RANGE[0], "n_exp": chan.N_EXP_MAX,
     "sigma_dbm": chan.SIGMA_DBM_MAX},
    {"a_dbm": chan.A_DBM_RANGE[1], "n_exp": chan.N_EXP_MAX,
     "sigma_dbm": chan.SIGMA_DBM_MAX},
])
def test_fixes_stay_finite_at_the_channel_bounds(channel):
    # The repro above, at the bounds and with the largest count of tests.
    s = scenario_from_dict({
        "seed": 0, "rounds": 2, "channel": channel,
        "protocol": {"accum_count": 1000, "round_interval_ms": 30000.0},
        "trajectory": {"kind": "static", "point": [1.5, 0.5]}})
    for records in run_with_baseline(s):
        for r in records:
            assert r.estimate.pos is not None and r.error_m is not None
            assert all(map(math.isfinite, (*r.estimate.pos, r.error_m)))


def two_by_two(spacing: float, channel: dict) -> dict:
    """A static point inside the one cell of a 2 x 2 lattice, as a file."""
    return {"seed": 0, "rounds": 2, "channel": channel,
            "grid": {"spacing_m": spacing, "cols": 2, "rows": 2},
            "trajectory": {"kind": "static", "point": [0.375 * spacing, 0.125 * spacing]}}


@pytest.mark.parametrize("spacing,channel", [
    (1e160, {"reception_radius_m": 1e300}),
    (1e150, {"reception_radius_m": 1e308, "n_exp": 10.0})])
def test_a_radius_too_large_to_square_its_ranges_is_rejected(spacing, channel):
    # Each gave refined fixes at (nan, nan): every range clamped to d_max,
    # 4 radii, whose square is inf in the in-cell solve.
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(two_by_two(spacing, channel))
    assert (info.value.path, info.value.rule) == ("channel.reception_radius_m",
                                                  "must be at most 1e+150")


def test_fixes_stay_finite_at_the_radius_bound():
    # The repros at the largest radius: ranged at n 2 from levels of n 10,
    # every range clamps to d_max, and the fix is the cell's centre.
    radius = chan.RECEPTION_RADIUS_MAX_M
    s = scenario_from_dict(two_by_two(radius / 10, {"reception_radius_m": radius,
                                                    "n_exp": chan.N_EXP_MAX}))
    refined, baseline = run_with_baseline(s)
    assert [r.estimate.method for r in refined] == [FixMethod.REFINED] * 2
    assert all(r.estimate.pos == Point(radius / 20, radius / 20) for r in refined)
    for r in refined + baseline:
        assert all(map(math.isfinite, (*r.estimate.pos, r.error_m)))


class TestRoundRecord:
    RECORD = sim.RoundRecord(3, Point(1.0, 2.0),
                             estimator.Estimate(Point(1.5, 2.0), FixMethod.REFINED), 0.5)

    def test_fields_by_name(self):
        r = self.RECORD
        assert (r.round_index, r.true_pos, r.error_m) == (3, Point(1.0, 2.0), 0.5)
        assert r.estimate.method is FixMethod.REFINED
        assert sim.RoundRecord._fields == ("round_index", "true_pos", "estimate", "error_m")
        assert r == (3, Point(1.0, 2.0), r.estimate, 0.5)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.RECORD.error_m = None
        with pytest.raises(AttributeError):
            self.RECORD.note = "x"

    def test_pickle_round_trip(self):
        back = pickle.loads(pickle.dumps(self.RECORD))
        assert back == self.RECORD and type(back) is sim.RoundRecord
        assert type(back.estimate) is estimator.Estimate

    def test_a_run_returns_the_named_types(self):
        for r in run_scenario(noiseless(rounds=2)):
            assert type(r) is sim.RoundRecord and type(r.estimate) is estimator.Estimate


@pytest.fixture(scope="module")
def bundled_sweep_records():
    s = Scenario(trajectory=LatticeSweep(25, 25), rounds=625, seed=42)
    return run_scenario(s)


class TestNoiselessSweepProperties:
    """What the full sweep actually guarantees: every geometric fix is
    exact, and the fallback methods stay bounded. Points whose strongest
    four beacons do not frame their cell go through those fallbacks."""

    def test_refined_and_pair_split_fixes_are_exact(self, bundled_sweep_records):
        for r in bundled_sweep_records:
            if r.estimate.method in (FixMethod.REFINED, FixMethod.PAIR_SPLIT):
                assert r.error_m < 1e-6, (r.true_pos, r.estimate)

    def test_method_census_is_stable(self, bundled_sweep_records):
        census = {}
        for r in bundled_sweep_records:
            census[r.estimate.method] = census.get(r.estimate.method, 0) + 1
        assert census == {FixMethod.REFINED: 500,
                          FixMethod.NEAR_BEACON: 81,
                          FixMethod.PAIR_SPLIT: 44}

    def test_refined_records_resolve_the_true_cell(self, bundled_sweep_records):
        from gridloc.geometry import containing_cell
        grid = GridSpec()
        for r in bundled_sweep_records:
            if r.estimate.method is FixMethod.REFINED:
                assert r.estimate.cell == containing_cell(r.true_pos, grid)

    def test_every_point_gets_a_bounded_fix(self, bundled_sweep_records):
        assert all(r.error_m is not None for r in bundled_sweep_records)
        assert max(r.error_m for r in bundled_sweep_records) < 2.0

    def test_median_is_exact_to_float_noise(self, bundled_sweep_records):
        errors = sorted(r.error_m for r in bundled_sweep_records)
        assert errors[len(errors) // 2] < 1e-9


@pytest.mark.xfail(strict=True, reason="seed 7, round 397: a pair_split fix "
                   "23.59 m off with n clamped to 1.0")
def test_fixes_stay_within_the_hull_diagonal():
    s = scenario_from_dict({
        "seed": 7, "channel": {"sigma_dbm": 3.0}, "estimator": {"adapt": True},
        "quantize_rssi": True,
        "trajectory": {"kind": "lattice_sweep", "nx": 25, "ny": 25},
        "rounds": 625})
    xmin, ymin, xmax, ymax = s.grid.bounds()
    diagonal = math.hypot(xmax - xmin, ymax - ymin)
    worst = max((r for r in run_scenario(s) if r.error_m is not None),
                key=lambda r: r.error_m)
    assert worst.error_m <= diagonal, worst
