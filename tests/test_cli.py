"""Command line behavior: output shapes, exit codes, reproducibility."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from gridloc import estimator, harness
from gridloc.cli import EXIT_ERROR, EXIT_NO_FIX, EXIT_OK, _summary_line, main
from gridloc.estimator import Estimate, FixMethod
from gridloc.geometry import Point
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

    def test_missing_file(self, tmp_path, capsys):
        assert main(["locate", str(tmp_path / "absent.csv")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

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

    def test_custom_bucket_edges(self, tmp_path):
        scenario = tmp_path / "s.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        assert main(["simulate", str(scenario), "--buckets", "1.0,2.0",
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "buckets.csv").read_text().splitlines()
        assert lines[0] == "edge_lo,edge_hi,count,fraction"
        assert len(lines) == 4  # [0,1), [1,2), [2,inf)

    def test_invalid_scenario_file(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text('{"trajectory": {"kind": "orbit"}}')
        assert main(["simulate", str(scenario)]) == EXIT_ERROR
        assert "trajectory.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"rounds": 2**70},
        {"grid": {"spacing_m": 1e308},
         "trajectory": {"kind": "lattice_sweep", "nx": 2, "ny": 2}, "rounds": 4},
    ])
    def test_overflowing_scenario_fails_cleanly(self, tmp_path, capsys, overrides):
        scenario = tmp_path / "s.json"
        write_scenario(scenario, **overrides)
        assert main(["simulate", str(scenario), "--out", str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: trajectory: cannot lay out")
        assert "Traceback" not in err

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


def test_summary_fraction_is_a_ratio_of_counts():
    # 96 fixes, 87 of them under 1.5 m: 87/96 = 0.90625 prints 0.9062,
    # while summing the bucket fractions (0.9062500000000001) would print
    # 0.9063.
    errors = [0.25] * 43 + [0.75] * 21 + [1.25] * 23 + [2.0] * 9 + [None] * 4
    records = [RoundRecord(i, Point(1.0, 1.0),
                           Estimate(None, FixMethod.NO_FIX) if e is None
                           else Estimate(Point(1.0 + e, 1.0), FixMethod.REFINED),
                           e, 2.0)
               for i, e in enumerate(errors)]
    buckets = harness.bucketize(records)
    assert buckets.counts[:3] == (43, 21, 23) and buckets.fixed_count == 96
    assert format(buckets.fraction_below(1.5), ".4f") == "0.9062"
    assert (_summary_line("simulate", buckets, harness.median_error(records))
            == "simulate: records=100 median_error_m=0.75 "
               "fraction_below_1.5m=0.9062 no_fix=4")
