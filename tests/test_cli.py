"""Command line behavior: output shapes, exit codes, reproducibility."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import gridloc
from gridloc import estimator, harness
from gridloc.channel import DEFAULT_A_DBM, ChannelParams
from gridloc.cli import (EXIT_ERROR, EXIT_NO_FIX, EXIT_OK, _build_parser,
                         _summary_line, main)
from gridloc.estimator import (Estimate, EstimatorState, FixMethod,
                               LocalizerConfig)
from gridloc.geometry import GridSpec, Point
from gridloc.sim import RoundRecord


def write_reports(path, blind, beacons, a_dbm=-45.0, n=2.0, header=True):
    lines = ["beacon_x,beacon_y,avg_rssi_dbm,sample_count"] if header else []
    for bx, by in beacons:
        d = math.hypot(blind[0] - bx, blind[1] - by)
        rss = a_dbm - 10.0 * n * math.log10(d)
        lines.append(f"{bx},{by},{rss!r},8")
    path.write_text("\n".join(lines) + "\n")


GRID_3X3 = [(x, y) for y in (0.0, 4.0, 8.0) for x in (0.0, 4.0, 8.0)]


def write_scenario(path, **overrides):
    doc = {
        "seed": 7,
        "channel": {"sigma_dbm": 2.0},
        "trajectory": {"kind": "static", "point": [1.3, 2.6]},
        "rounds": 9,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))


class TestLocate:
    def test_refined_fix_prints_fields(self, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        write_reports(reports, (1.0, 1.0), GRID_3X3)
        assert main(["locate", str(reports)]) == EXIT_OK
        fields = capsys.readouterr().out.strip().split(",")
        assert float(fields[0]) == pytest.approx(1.0, abs=1e-9)
        assert float(fields[1]) == pytest.approx(1.0, abs=1e-9)
        assert fields[2:] == ["refined", "0", "0", "2"]

    def test_header_is_optional(self, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        write_reports(reports, (1.0, 1.0), GRID_3X3, header=False)
        assert main(["locate", str(reports)]) == EXIT_OK
        assert capsys.readouterr().out.split(",")[2] == "refined"

    def test_custom_lattice_flags(self, tmp_path, capsys):
        beacons = [(10 + 2 * i, 5 + 2 * j) for j in range(3) for i in range(3)]
        reports = tmp_path / "reports.csv"
        write_reports(reports, (10.6, 5.7), beacons)
        code = main(["locate", str(reports), "--origin", "10,5",
                     "--spacing", "2", "--cols", "3", "--rows", "3"])
        assert code == EXIT_OK
        fields = capsys.readouterr().out.strip().split(",")
        assert float(fields[0]) == pytest.approx(10.6, abs=1e-9)
        assert float(fields[1]) == pytest.approx(5.7, abs=1e-9)

    def test_a_wide_lattice_caps_the_shortest_range_at_the_longest(self, tmp_path, capsys):
        # 0.025 spacings is 250 m here, over locate's 120 m upper clamp. Capped
        # at 120 m, every range is 120 m and the fix is the cell centre, as
        # with a 0.1 m clamp; uncapped, the strongest level, 180 m from its
        # beacon, would range 250 m and the other three 120 m.
        beacons = [(1e4 * i, 1e4 * j) for j in range(3) for i in range(3)]
        reports = tmp_path / "reports.csv"
        write_reports(reports, (100.0, 150.0), beacons)
        assert main(["locate", str(reports), "--spacing", "10000"]) == EXIT_OK
        fields = capsys.readouterr().out.strip().split(",")
        assert [float(v) for v in fields[:2]] == [5000.0, 5000.0]
        assert fields[2:5] == ["refined", "0", "0"]

    def test_a_fine_lattice_ranges_below_a_tenth_of_a_metre(self, tmp_path, capsys):
        # The shortest range is 0.025 spacings, 1 mm here: with an absolute
        # 0.1 m clamp every range clamped and the fix was the cell centre.
        beacons = [(0.04 * i, 0.04 * j) for j in range(3) for i in range(3)]
        reports = tmp_path / "reports.csv"
        write_reports(reports, (0.01, 0.013), beacons)
        assert main(["locate", str(reports), "--spacing", "0.04"]) == EXIT_OK
        fields = capsys.readouterr().out.strip().split(",")
        assert float(fields[0]) == pytest.approx(0.01, abs=1e-9)
        assert float(fields[1]) == pytest.approx(0.013, abs=1e-9)
        assert fields[2] == "refined"

    def test_three_reports_exit_no_fix(self, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        write_reports(reports, (1.0, 1.0), GRID_3X3[:3])
        assert main(["locate", str(reports)]) == EXIT_NO_FIX
        assert capsys.readouterr().out.strip() == ",,no_fix,,,2"

    def test_malformed_row_names_line(self, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        reports.write_text("beacon_x,beacon_y,avg_rssi_dbm,sample_count\n"
                           "0,0,-50.0,8\n"
                           "4,nope,-50.0,8\n")
        assert main(["locate", str(reports)]) == EXIT_ERROR
        assert "line 3" in capsys.readouterr().err

    def test_wrong_field_count_rejected(self, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        reports.write_text("0,0,-50.0\n")
        assert main(["locate", str(reports)]) == EXIT_ERROR
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("row,message", [
        ("4,0,nan,8", "error: line 3: avg_rssi_dbm must be finite"),
        ("4,0,-inf,8", "error: line 3: avg_rssi_dbm must be finite"),
        ("inf,0,-50.0,8", "error: line 3: beacon_x must be finite"),
        ("4,NaN,-50.0,8", "error: line 3: beacon_y must be finite"),
        ("-Infinity,nan,nan,8", "error: line 3: beacon_x must be finite"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, row, message):
        reports = tmp_path / "reports.csv"
        reports.write_text("beacon_x,beacon_y,avg_rssi_dbm,sample_count\n"
                           "0,0,-50.0,8\n" + row + "\n"
                           "0,4,-50.0,8\n4,4,-50.0,8\n")
        assert main(["locate", str(reports)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == message + "\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["locate", str(tmp_path / "absent.csv")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--n", "0"], "--n: must be positive"),
        (["--n", "-2"], "--n: must be positive"),
        (["--n", "nan"], "--n: must be a finite number"),
        (["--n", "inf"], "--n: must be a finite number"),
        (["--a-dbm", "nan"], "--a-dbm: must be a finite number"),
        (["--a-dbm=-inf"], "--a-dbm: must be a finite number"),
        (["--tau", "0"], "--tau: must be in (0, 1)"),
        (["--tau", "1"], "--tau: must be in (0, 1)"),
        (["--tau", "-0.5"], "--tau: must be in (0, 1)"),
        (["--tau", "nan"], "--tau: must be a finite number"),
        # The lattice's own rules, named by the flag that set the field.
        (["--spacing", "nan"], "--spacing: must be a finite number"),
        (["--spacing", "1e-6"], "--spacing: must be more than 2 * COORD_TOL, 2e-06 m"),
        (["--cols", "1"], "--cols: lattice needs at least 2 columns and 2 rows"),
        (["--rows", "0"], "--rows: lattice needs at least 2 columns and 2 rows"),
        (["--origin", "inf,0"], "--origin: must be an (x, y) pair of finite numbers"),
        (["--origin", "0,0,0"], "--origin: expects X,Y"),
        (["--spacing", "0"], "--spacing: must be positive"),
    ])
    def test_bad_model_flag_rejected(self, tmp_path, capsys, flags, message):
        reports = tmp_path / "reports.csv"
        write_reports(reports, (1.0, 1.0), GRID_3X3)
        assert main(["locate", str(reports), *flags]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_tiny_exponent_ranges_to_the_clamp(self, tmp_path, capsys):
        # At n = 0.001 a level 4 dB below a_dbm ranges to 10**400 m, beyond
        # a float; it clamps to d_max.
        reports = tmp_path / "reports.csv"
        write_reports(reports, (1.0, 1.0), GRID_3X3)
        assert main(["locate", str(reports), "--n", "0.001"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and out.strip().split(",")[2:] == ["refined", "0", "0", "0.001"]

    @pytest.mark.parametrize("levels,flags", [
        # Every weight underflows to 0.
        ((-4000, -4001, -4002, -4003), []),
        # The strongest weight overflows.
        ((3990, 3989, 3988, 3987), ["--a-dbm", "4000"]),
    ])
    def test_centroid_fallback_weighs_levels_far_from_0_dbm(self, tmp_path, capsys,
                                                           levels, flags):
        reports = tmp_path / "reports.csv"
        reports.write_text("".join(f"{x},{y},{level},8\n" for (x, y), level
                                   in zip([(0, 0), (4, 0), (0, 4), (8, 8)], levels)))
        assert main(["locate", str(reports), *flags]) == EXIT_OK
        x, y, method = capsys.readouterr().out.split(",")[:3]
        # The same weights relative to the strongest, written out.
        w = [10.0 ** (-k / 10.0) for k in range(4)]
        assert (float(x), float(y), method) == (
            pytest.approx((4 * w[1] + 8 * w[3]) / sum(w)),
            pytest.approx((4 * w[2] + 8 * w[3]) / sum(w)), "pair_split")

    def test_bad_origin_flag(self, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        write_reports(reports, (1.0, 1.0), GRID_3X3)
        assert main(["locate", str(reports), "--origin", "oops"]) == EXIT_ERROR
        assert "--origin" in capsys.readouterr().err


class TestSimulate:
    def test_static_run_writes_outputs(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        assert main(["simulate", str(scenario), "--out", str(out)]) == EXIT_OK
        assert (out / "records.csv").exists()
        assert (out / "buckets.csv").exists()
        assert not (out / "surface.csv").exists()
        assert not (out / "trace.txt").exists()
        stdout = capsys.readouterr().out
        assert stdout.startswith("simulate: records=9 ")
        assert "median_error_m=" in stdout and "no_fix=0" in stdout

    def test_trace_flag_writes_trace(self, tmp_path):
        scenario = tmp_path / "s.json"
        write_scenario(scenario, rounds=1)
        out = tmp_path / "out"
        assert main(["simulate", str(scenario), "--trace",
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "trace.txt").read_text().splitlines()
        assert lines[0].endswith("location_start,m0")
        # Broadcasts appear once; per-beacon replies appear per beacon.
        assert sum(",rssi_test," in ln for ln in lines) == 8
        assert sum(",ack," in ln for ln in lines) == 9
        assert sum(",rssi_avg_response," in ln for ln in lines) == 9

    def test_a_run_that_fails_leaves_no_trace(self, tmp_path, capsys, monkeypatch):
        # The 400th fix fails in the run's second step, when the first
        # step's trace is already on disk.
        out = tmp_path / "out"
        fixes, on_disk = [], []

        def failing(*args, _original=estimator.localize):
            fixes.append(1)
            if len(fixes) == 400:
                on_disk.extend(f.stat().st_size for f in out.iterdir())
                raise ValueError("fix 400 failed")
            return _original(*args)

        monkeypatch.setattr(estimator, "localize", failing)
        assert main(["simulate", "paper_sweep", "--out", str(out), "--trace"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: fix 400 failed\n"
        assert sum(on_disk) > 0
        assert list(out.iterdir()) == []

    def test_a_traced_run_into_a_file_fails_cleanly(self, tmp_path, capsys):
        # The output directory cannot be made, so there is no trace to remove.
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert main(["simulate", "paper_sweep", "--out", str(out), "--trace"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: [Errno 17] File exists: ")
        assert out.read_text() == "not a directory"

    def test_a_traced_run_holds_at_most_a_step_of_its_trace(self, tmp_path, capsys):
        # 1,000 rounds of 126 lines each, held whole, peaked at 24-38 MB.
        scenario = tmp_path / "s.json"
        write_scenario(scenario, grid={"cols": 10, "rows": 10}, rounds=1000,
                       trajectory={"kind": "static", "point": [2.0, 2.0]})
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(["simulate", str(scenario), "--out", str(out), "--trace"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with (out / "trace.txt").open() as fh:
            assert sum(1 for _ in fh) == 126_000
        assert peak < 8e6

    def test_seed_override_is_reproducible(self, tmp_path):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", str(scenario), "--seed", "123",
                         "--out", str(out)]) == EXIT_OK
            outs.append((out / "records.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_negative_seed_override_names_the_key(self, tmp_path, capsys):
        assert main(["simulate", "paper_sweep", "--seed", "-1",
                     "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: seed: must be >= 0\n"
        assert not (tmp_path / "records.csv").exists()

    def test_seed_override_changes_noise(self, tmp_path):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(scenario), "--seed", "1", "--out", str(a)])
        main(["simulate", str(scenario), "--seed", "2", "--out", str(b)])
        assert (a / "records.csv").read_bytes() != (b / "records.csv").read_bytes()

    def test_bundled_sweep_writes_surface(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "paper_sweep", "--out", str(out)]) == EXIT_OK
        records = (out / "records.csv").read_text().splitlines()
        assert len(records) == 626
        surface = (out / "surface.csv").read_text()
        assert surface.count("\n\n") == 24

    def test_far_origin_sweep_surface_has_one_block_per_row(self, tmp_path):
        # 1e12 m out, every row's y is within math.isclose of the next.
        scenario = tmp_path / "far.json"
        write_scenario(scenario, grid={"origin": [1e12, 1e12]},
                       trajectory={"kind": "lattice_sweep", "nx": 5, "ny": 5},
                       rounds=25)
        out = tmp_path / "out"
        assert main(["simulate", str(scenario), "--out", str(out)]) == EXIT_OK
        blocks = (out / "surface.csv").read_text().split("\n\n")
        assert [len(block.splitlines()) for block in blocks] == [5] * 5

    def test_custom_bucket_edges(self, tmp_path):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        assert main(["simulate", str(scenario), "--buckets", "1.0,2.0",
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "buckets.csv").read_text().splitlines()
        assert lines[0] == "edge_lo,edge_hi,count,fraction"
        assert len(lines) == 4  # [0,1), [1,2), [2,inf)

    @pytest.mark.parametrize("edges,message", [
        ("2,1", "bucket edges must be strictly increasing"),
        ("0.5,nan,1.5", "bucket edges must be finite"),
    ])
    def test_bad_bucket_edges_rejected_before_the_run(self, tmp_path, capsys,
                                                      edges, message):
        out = tmp_path / "out"
        assert main(["simulate", "paper_sweep", "--buckets", edges,
                     "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: --buckets: {message}\n"
        assert not (out / "records.csv").exists()

    def test_invalid_scenario_file(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text('{"trajectory": {"kind": "orbit"}}')
        assert main(["simulate", str(scenario)]) == EXIT_ERROR
        assert "trajectory.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,message", [
        ({"rounds": 2**70}, "rounds: must be at most 1000000"),
        ({"rounds": 10**15}, "rounds: must be at most 1000000"),
        ({"protocol": {"accum_count": 10**12, "inter_test_gap_ms": 0}},
         "protocol.accum_count: must be at most 1000"),
        ({"grid": {"spacing_m": 1e308},
          "trajectory": {"kind": "lattice_sweep", "nx": 2, "ny": 2}, "rounds": 4},
         "trajectory: cannot lay out 4 rounds: cannot convert float infinity to integer"),
        # JSON integers too large for a float.
        ({"channel": {"sigma_dbm": 10**400}}, "channel.sigma_dbm: must be a finite number"),
        ({"trajectory": {"kind": "static", "point": [10**400, 0]}},
         "trajectory.point: must be an (x, y) pair of finite numbers"),
    ], ids=["rounds-2e70", "rounds-1e15", "accum-1e12", "sweep-wider-than-float",
            "sigma-1e400", "point-1e400"])
    def test_overflowing_scenario_fails_cleanly(self, tmp_path, capsys, overrides,
                                                message):
        scenario = tmp_path / "s.json"
        write_scenario(scenario, **overrides)
        start = time.perf_counter()
        code = main(["simulate", str(scenario), "--out", str(tmp_path)])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_oversized_lattice_fails_cleanly(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        write_scenario(scenario, grid={"cols": 3334, "rows": 3})
        assert main(["simulate", str(scenario), "--out", str(tmp_path)]) == EXIT_ERROR
        assert (capsys.readouterr().err
                == "error: grid: cols * rows must be at most 10000\n")

    def test_unknown_bundled_name(self, capsys):
        assert main(["simulate", "no_such_scenario"]) == EXIT_ERROR
        assert "no_such_scenario" in capsys.readouterr().err


class TestSweep:
    def test_sigma_sweep_outputs(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        code = main(["sweep", str(scenario), "--vary", "sigma=0,2",
                     "--out", str(out)])
        assert code == EXIT_OK
        for tag in ("0", "2"):
            assert (out / f"records_sigma_{tag}.csv").exists()
            assert (out / f"baseline_sigma_{tag}.csv").exists()
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == ("vary_key,value,system,records,no_fix,median_error_m,"
                            "mean_error_m,fraction_below_1.5m,wins_vs_baseline")
        assert len(lines) == 5  # two variants, two systems each
        systems = [ln.split(",")[2] for ln in lines[1:]]
        assert systems == ["refined", "baseline"] * 2
        stdout = capsys.readouterr().out
        assert "sigma=0 refined:" in stdout and "sigma=2 baseline:" in stdout

    def test_sigma_zero_medians_in_summary(self, tmp_path):
        scenario = tmp_path / "s.json"
        write_scenario(scenario, channel={"sigma_dbm": 0.0})
        out = tmp_path / "out"
        main(["sweep", str(scenario), "--vary", "sigma=0", "--out", str(out)])
        rows = [ln.split(",") for ln
                in (out / "summary.csv").read_text().splitlines()[1:]]
        refined = next(r for r in rows if r[2] == "refined")
        baseline = next(r for r in rows if r[2] == "baseline")
        assert float(refined[5]) < 1e-9
        assert float(baseline[5]) > float(refined[5])

    def test_n_prime_sweep_touches_estimator(self, tmp_path):
        scenario = tmp_path / "s.json"
        write_scenario(scenario, channel={"sigma_dbm": 0.0}, rounds=1)
        out = tmp_path / "out"
        code = main(["sweep", str(scenario), "--vary", "n_prime=2,3",
                     "--out", str(out)])
        assert code == EXIT_OK
        good = (out / "records_n_prime_2.csv").read_text().splitlines()[1]
        bad = (out / "records_n_prime_3.csv").read_text().splitlines()[1]
        assert float(good.split(",")[6]) < 1e-9
        assert float(bad.split(",")[6]) > 0.01

    def test_values_with_one_short_form_get_their_own_files(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        code = main(["sweep", str(scenario), "--vary", "sigma=3,3.0000001",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == [
            "baseline_sigma_3.0000001.csv", "baseline_sigma_3.csv",
            "records_sigma_3.0000001.csv", "records_sigma_3.csv", "summary.csv"]
        rows = [ln.split(",")[:3] for ln
                in (out / "summary.csv").read_text().splitlines()[1:]]
        assert rows == [["sigma", "3", "refined"], ["sigma", "3", "baseline"],
                        ["sigma", "3.0000001", "refined"],
                        ["sigma", "3.0000001", "baseline"]]
        assert "sigma=3.0000001 refined:" in capsys.readouterr().out

    def test_unknown_vary_key(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        assert main(["sweep", str(scenario), "--vary", "tau=0.1"]) == EXIT_ERROR
        assert "sigma" in capsys.readouterr().err

    def test_empty_vary_values(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        assert main(["sweep", str(scenario), "--vary", "sigma="]) == EXIT_ERROR
        assert "at least one value" in capsys.readouterr().err

    def test_unparsable_vary_values(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        assert main(["sweep", str(scenario), "--vary", "sigma=a,b"]) == EXIT_ERROR
        assert "--vary" in capsys.readouterr().err

    def test_sub_tolerance_spacing_rejected(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        assert main(["sweep", str(scenario), "--vary", "spacing=1e-6",
                     "--out", str(tmp_path / "out")]) == EXIT_ERROR
        assert (capsys.readouterr().err == "error: --vary spacing=1e-06: "
                "must be more than 2 * COORD_TOL, 2e-06 m\n")

    def test_every_value_checked_before_the_first_round(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        assert main(["sweep", str(scenario), "--vary", "sigma=0,nan",
                     "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: --vary sigma=nan: must be a finite number\n"
        assert captured.out == ""
        assert not out.exists() or list(out.iterdir()) == []


def sweep_digests(tmp_path, capsys, vary, seed, quantize=False, adapt=False):
    """sha256 of every file `gridloc sweep` writes, in name order, then of
    its stdout, on a 4 x 4 lattice sweep at sigma = 3."""
    path = tmp_path / "scenario.json"
    write_scenario(path, seed=seed, estimator={"adapt": adapt},
                   channel={"sigma_dbm": 3.0}, quantize_rssi=quantize,
                   trajectory={"kind": "lattice_sweep", "nx": 4, "ny": 4},
                   rounds=16)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["sweep", str(path), "--vary", vary, "--out", str(out)]) == EXIT_OK
    blobs = [f.read_bytes() for f in sorted(out.iterdir())]
    blobs.append(capsys.readouterr().out.encode())
    return tuple(hashlib.sha256(b).hexdigest() for b in blobs)


class TestSweepByteIdentity:
    """The sweep's records, summary and stdout, for both systems."""

    # (vary, seed, quantize, adapt) -> digests of baseline_*, records_*,
    # summary.csv and stdout. The records match the `simulate` pins in
    # test_sim. With adapt on, the first calibration draw replaces
    # n_initial, so both n_prime variants give the same records.
    PINS = {
        ("sigma=0,3", 42, False, False):
            ('597c224decd10dbadbc3cafae12d88a614b41b926fecaee86429782ad968a63a',
             '7ab1a95b2171ef5b4fbfc37270a52158c756a869eace801556093a571dc8686b',
             'fc123efb6f6abff97471caa5ab9e0b9b8ec34e5f53137d8681a9fce1dc8a2afb',
             '0d8789b783b10932a1036058a5c376f2c4e1e8ab4fef24e4ed65f8febd22130a',
             '0680509a868d94b01624d0fcdb7cfe1208f73d544dbae4e99336f4eee02ea8c8',
             '9df4bb85d40b7371286b8a0b7044244857d3cdb96ba0926cae2a70e54021d59a'),
        ("sigma=0,3", 7, False, False):
            ('597c224decd10dbadbc3cafae12d88a614b41b926fecaee86429782ad968a63a',
             '7bd88885f031970ebb67c1336a15297dc17fae8b0195b160b769155a71bb03c0',
             'fc123efb6f6abff97471caa5ab9e0b9b8ec34e5f53137d8681a9fce1dc8a2afb',
             'e9d1c0ad84230e3861eeeef9f3ad7005dcf1eda67061027ac4ad76e9c3b5cc72',
             'c959f444609c6638b5d96a72d9b65e948884b0d9f9f6af0a6c570f6e33d7deaf',
             '4c954b416abc6c0f4744023ad930b9be0024b126dfa26b3044ddad791861d384'),
        ("n_prime=2,3", 7, True, True):
            ('31516da91c17d5d5a8c7351c7535ad71d6ab40084eec7bd7fd17230b77f12489',
             '31516da91c17d5d5a8c7351c7535ad71d6ab40084eec7bd7fd17230b77f12489',
             '385b864ececd856963a59becc23e8ba81bbc3fdb4cca5b0c6b2c0b67d06fbbbc',
             '385b864ececd856963a59becc23e8ba81bbc3fdb4cca5b0c6b2c0b67d06fbbbc',
             '5fc16dfb43e0f5c565298bdab3407f1f9b45a5dedbffaba7d94e3eedb00cedaf',
             'f2ecf53b3f7e7492861ee778107d06c324387b834792b600fdfe63263c3dfbea'),
    }

    @pytest.mark.parametrize("case", list(PINS), ids=lambda c: "-".join(map(str, c)))
    def test_outputs_match_pinned_digests(self, tmp_path, capsys, case):
        assert sweep_digests(tmp_path, capsys, *case) == self.PINS[case]

    def test_each_round_is_localized_once(self, tmp_path, monkeypatch):
        calls = []
        localize = estimator.localize

        def counting(*args):
            calls.append(args)
            return localize(*args)

        monkeypatch.setattr(estimator, "localize", counting)
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        assert main(["sweep", str(scenario), "--vary", "sigma=0,2,3",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(calls) == 3 * 9


def written(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}


def test_back_to_back_calls_each_write_what_a_first_call_writes(tmp_path, capsys):
    # One parser serves every call in a process; a call that fails leaves
    # nothing behind for the next.
    scenario = tmp_path / "s.json"
    write_scenario(scenario, trajectory={"kind": "lattice_sweep", "nx": 3, "ny": 3})
    calls = [["simulate", str(scenario), "--trace"],
             ["sweep", str(scenario), "--vary", "spacing=4,0"],
             ["simulate", str(scenario)],
             ["simulate", str(scenario), "--seed", "7"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gridloc.__file__)))
    for i, argv in enumerate(calls):
        first, again = tmp_path / f"first{i}", tmp_path / f"again{i}"
        alone = subprocess.run(
            [sys.executable, "-c", "import sys; from gridloc.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv, "--out", str(first)],
            env=env, capture_output=True, text=True, check=False)
        code = main([*argv, "--out", str(again)])
        captured = capsys.readouterr()
        assert ((code, captured.out, captured.err, written(again))
                == (alone.returncode, alone.stdout, alone.stderr, written(first)))
        assert code == (EXIT_ERROR if "--vary" in argv else EXIT_OK)


def test_locate_defaults_are_their_owners_defaults():
    args = _build_parser().parse_args(["locate", "reports.csv"])
    grid = GridSpec()
    assert args.a_dbm == ChannelParams().a_dbm == DEFAULT_A_DBM
    assert args.n == EstimatorState().n_current
    assert args.tau == LocalizerConfig(grid).near_beacon_tau
    assert Point(*map(float, args.origin.split(","))) == grid.origin
    assert (args.spacing, args.cols, args.rows) == (grid.spacing_m, grid.cols,
                                                     grid.rows)


def test_summary_fraction_is_a_ratio_of_counts():
    # 96 fixes, 87 of them under 1.5 m: 87/96 = 0.90625 prints 0.9062,
    # while summing the bucket fractions (0.9062500000000001) would print
    # 0.9063.
    errors = [0.25] * 43 + [0.75] * 21 + [1.25] * 23 + [2.0] * 9 + [None] * 4
    records = [RoundRecord(i, Point(1.0, 1.0),
                           Estimate(None, FixMethod.NO_FIX) if e is None
                           else Estimate(Point(1.0 + e, 1.0), FixMethod.REFINED),
                           e)
               for i, e in enumerate(errors)]
    buckets = harness.bucketize(records)
    assert buckets.counts[:3] == (43, 21, 23) and buckets.fixed_count == 96
    assert format(buckets.fraction_below(1.5), ".4f") == "0.9062"
    assert (_summary_line("simulate", buckets, harness.median_error(records))
            == "simulate: records=100 median_error_m=0.75 "
               "fraction_below_1.5m=0.9062 no_fix=4")
