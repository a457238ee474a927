"""Fast-mode tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def run_in_process(capsys, *args: str) -> tuple[dict, str]:
    assert run.main(list(args)) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                     "0.2", "--trace", trace, "--fast")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in declared]
    for d in declared:
        metric = result["metrics"][d["name"]]
        assert metric["unit"] == d["unit"]
        assert isinstance(metric["value"], (int, float))
        row = next(line.split() for line in lines
                   if line.split()[:1] == [d["name"]])
        assert row[2] == d["unit"] and row[3].startswith("n=")
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("seed", [run.REF_SEED, run.HELD_OUT_SEED])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_pinned_seeds_pass(capsys, workload, seed):
    result, out = run_in_process(capsys, "--workload", workload, "--seed",
                                 str(seed), "--seconds", "0.1", "--fast")
    assert result["correct"] is True, out
    assert "failed_frac" in out


def _corrupt(pins: dict, workload: str) -> dict:
    pins = json.loads(json.dumps(pins))
    entry = pins[workload][str(run.REF_SEED)]
    key = sorted(entry)[0]
    entry[key] = "0" * 64
    return pins


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_digest_counts_as_failed(capsys, monkeypatch, workload):
    pins = _corrupt(run.load_pins(fast=True), workload)
    monkeypatch.setattr(run, "load_pins", lambda fast: pins)
    result, out = run_in_process(capsys, "--workload", workload, "--seed",
                                 "5", "--seconds", "0.1", "--fast")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "differ" in out and "pinned" in out


def test_count_check_fires_when_traced_passes_disagree(capsys, monkeypatch):
    import gridloc.geometry as geo
    original_unit = run.SimRunner.unit
    injected = []

    def unit_with_extra_call(self, ops, seed):
        results = original_unit(self, ops, seed)
        if hasattr(geo.dist, "__wrapped__") and not injected:
            injected.append(geo.dist(geo.Point(0.0, 0.0), geo.Point(1.0, 1.0)))
        return results

    monkeypatch.setattr(run.SimRunner, "unit", unit_with_extra_call)
    result, out = run_in_process(capsys, "--workload", "wide_lattice",
                                 "--seconds", "0.1", "--trace", "1", "--fast")
    assert injected
    assert result["correct"] is False
    assert "traced pass 2 count differs: geometry.dist.calls" in out


def test_count_mismatches_lists_every_difference():
    a = {"x.calls": 3, "y.calls": 1}
    b = {"x.calls": 3, "z.calls": 2}
    assert tracing.count_mismatches(a, a) == []
    assert tracing.count_mismatches(a, b) == ["y.calls: 1 != 0",
                                              "z.calls: 0 != 2"]


def test_self_times_add_up_to_the_root_span():
    sys.path.insert(0, str(run.SRC))
    import gridloc
    scenario = gridloc.sim.scenario_from_dict({
        "seed": 1, "channel": {"sigma_dbm": 3.0},
        "trajectory": {"kind": "lattice_sweep", "nx": 2, "ny": 2},
        "rounds": 4})
    tracer = tracing.Tracer()
    with tracer:
        records = gridloc.sim.run_scenario(scenario)
    assert not hasattr(gridloc.sim.run_scenario, "__wrapped__")
    snap = tracer.snapshot()
    assert len(records) == 4
    assert snap["calls"]["sim.run_scenario"] == 1
    assert snap["calls"]["channel.sample_rss"] == 4 * 108
    assert snap["calls"]["protocol.blind_step"] == 4 * 29
    assert snap["calls"]["protocol.beacon_step"] == 4 * 90
    assert sum(snap["self_s"].values()) == pytest.approx(
        snap["total_s"]["sim.run_scenario"], rel=1e-9, abs=1e-9)
    assert all(v >= 0 for v in snap["self_s"].values())
    roots = [i for i, p in enumerate(tracer.span_parent) if p == -1]
    assert [tracer.names[tracer.span_name[i]] for i in roots] == [
        "sim.run_scenario"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep_vs_baseline", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_latency_passes_keep_a_bounded_even_spread():
    latencies = run.LatencyPasses(calibration.HostSpeed(), 3)
    for i in range(100):
        latencies.add_pass([float(i)] * 3)
    kept = [times[0] for times in latencies.kept]
    assert len(kept) < 2 * latencies.KEPT_PASSES
    assert kept == [float(i) for i in range(0, 100, latencies.stride)]
    metrics = latencies.metrics()
    assert metrics["localize_us_p50"].value == pytest.approx(
        statistics.median(kept) * 1e6)


def test_sampling_reads_the_host_speed_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    speed = calibration.HostSpeed()
    samples = calibration.Samples()
    start = perf_counter()
    with speed.sampling(samples):
        while perf_counter() - start < 20 * calibration.SAMPLE_INTERVAL_S:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(samples.readings) >= 10
    assert samples.spent_s >= sum(samples.readings)
    assert speed.scale(samples.readings) == pytest.approx(
        calibration.REFERENCE_S / statistics.fmean(samples.readings))
