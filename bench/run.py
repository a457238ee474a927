"""gridloc benchmark: four workloads through gridloc's public entry points.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_vs_baseline --seed 42 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1 is
the separate traced run that reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
--workload all runs every workload in its own process and prints them all.
The benchmark reads and writes only inside the checkout; its outputs go to
.bench_out/ at the root. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import tracer as tracing  # noqa: E402
from calibration import REFERENCE_S, HostSpeed, Samples  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("sweep_vs_baseline", "wide_lattice", "traced_simulate",
             "localize_replay")
REF_SEED = 42        # default seed; its outputs are pinned in pins.json
HELD_OUT_SEED = 7    # second pinned seed, held out from the default
SETUP_REPEATS = 7
# A localize pass has enough calls for a steady p99, with 25 samples beyond it.
MIN_PASS_CALLS = 2500
# The host speed is read after each chunk of this many calls of a pass.
CHUNK_CALLS = 500
# Localize passes after each operation take at least this share of its time.
PROBE_SHARE = 0.25

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gridloc, gridloc.cli
for path in sys.argv[3:]:
    gridloc.sim.load_scenario(path)
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from calibration import kernel_seconds
print(repr(t1 - t0), repr(kernel_seconds()))
"""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    # The per-operation or per-pass values a median was taken over.
    series: list[float] = field(default_factory=list)


def load_gridloc():
    """Import gridloc from this checkout's src/, never from anywhere else."""
    if not (SRC / "gridloc" / "__init__.py").is_file():
        raise SystemExit(f"error: no gridloc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridloc
    import gridloc.cli  # noqa: F401
    if Path(gridloc.__file__).resolve().parent != (SRC / "gridloc").resolve():
        raise SystemExit(f"error: imported gridloc from {gridloc.__file__}")
    return gridloc


def host_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "src_sha256": src_digest()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gridloc").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def load_pins(fast: bool) -> dict:
    pins = json.loads((BENCH_DIR / "pins.json").read_text(encoding="utf-8"))
    return pins["fast" if fast else "full"]


def pinned_for(pins: dict, workload: str, seed: int) -> Optional[dict]:
    return pins.get(workload, {}).get(str(seed))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values, q in (0, 100]."""
    rank = max(1, -(-len(values) * q // 100))
    return values[int(rank) - 1]


# -- set-up time -----------------------------------------------------------

def measure_setup(scenario_files: list[str], fast: bool) -> Metric:
    """Median time for a fresh process to import gridloc and load the
    workload's scenarios, at the reference host speed (the child runs the
    reference kernel once it is done); the interpreter's own start-up is not
    counted."""
    times = []
    for _ in range(2 if fast else SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR),
             *scenario_files],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        elapsed, kernel_s = map(float, proc.stdout.split()[-2:])
        times.append(elapsed * REFERENCE_S / kernel_s)
    return Metric(statistics.median(times), "s", len(times), times)


# -- simulation workloads --------------------------------------------------

class SimRunner:
    """Runs a simulation workload's operations and checks every output."""

    def __init__(self, gridloc, name: str, sizes: wl.Sizes, pins: dict,
                 work: Path, tally: Tally):
        self.gridloc = gridloc
        self.name = name
        self.sizes = sizes
        self.pins = pins
        self.work = work
        self.tally = tally
        # First digest and fix errors seen per (seed, op name).
        self.reference: dict[tuple[int, str], str] = {}
        self.first: dict[tuple[int, str], wl.OpResult] = {}

    def ops(self, seed: int) -> list[wl.Op]:
        work = self.work / f"seed{seed}"
        work.mkdir(parents=True, exist_ok=True)
        return wl.SIM_WORKLOADS[self.name](work, seed, self.sizes)

    def execute(self, op: wl.Op, seed: int,
                around=nullcontext()) -> wl.OpResult:
        """Run one operation, inside the context manager `around`."""
        key = (seed, op.name)
        try:
            with around:
                result, stdout = wl.run_op(self.gridloc.cli, op)
            result.digest, files = wl.digest_outputs(op, stdout)
            if key not in self.reference:
                wl.check_op(op, stdout, files, result)
                pinned = pinned_for(self.pins, self.name, seed)
                if pinned is not None and pinned.get(op.name) != result.digest:
                    result.problems.append(
                        f"{op.name}: output digest differs from the pinned one "
                        f"for seed {seed}")
                self.reference[key] = result.digest
                self.first[key] = result
            elif self.reference[key] != result.digest:
                result.problems.append(
                    f"{op.name}: output differs from the first run of seed {seed}")
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            traceback.print_exc(file=sys.stderr)
            result = wl.OpResult(0.0, problems=[f"{op.name}: raised {exc!r}"])
        self.tally.op(result.problems)
        return result

    def unit(self, ops: list[wl.Op], seed: int) -> list[wl.OpResult]:
        return [self.execute(op, seed) for op in ops]


def accuracy(errors: list[float], no_fix: int) -> dict[str, Metric]:
    n = len(errors) + no_fix
    out = {"no_fix_frac": Metric(no_fix / n if n else 0.0, "frac", n)}
    if errors:
        out["median_error_m"] = Metric(statistics.median(errors), "m",
                                       len(errors))
        out["frac_below_1.5m"] = Metric(
            sum(e < 1.5 for e in errors) / len(errors), "frac", len(errors))
    return out


class LatencyPasses:
    """Per-call localize timings at the reference host speed (see
    calibration.py).

    A pass over the calls is cut into chunks of at least CHUNK_CALLS calls,
    and the host speed is read after each chunk: chunks of a few tens of
    milliseconds rarely span a change of host speed. Slowdowns shorter
    than a chunk still hit a few calls in it, so each call's time is its
    median over passes, and the percentiles are over those per-call times.
    At most 2 * KEPT_PASSES passes are kept, spread evenly over the run (when
    the store is full every other pass is dropped and from then on only
    every other pass is kept), so memory stays flat."""

    KEPT_PASSES = 16

    def __init__(self, speed: HostSpeed, calls: int):
        self.speed = speed
        chunks = max(1, calls // CHUNK_CALLS)
        self.bounds = [calls * i // chunks for i in range(chunks + 1)]
        self.rates: list[float] = []
        self.kept: list[array] = []
        self.passes = 0
        self.stride = 1

    def add_chunk(self, times: list[float]) -> float:
        """Record one chunk's call times; returns their speed scale."""
        scale = self.speed.scale()
        self.rates.append(len(times) / (sum(times) * scale))
        return scale

    def add_pass(self, times: array) -> None:
        if self.passes % self.stride == 0:
            self.kept.append(times)
        self.passes += 1
        if len(self.kept) == 2 * self.KEPT_PASSES:
            self.kept = self.kept[::2]
            self.stride *= 2

    def rate(self) -> Metric:
        """Calls per second, median over chunks."""
        return Metric(statistics.median(self.rates), "1/s", len(self.rates),
                      self.rates)

    def metrics(self) -> dict[str, Metric]:
        per_call = sorted(statistics.median(t) for t in zip(*self.kept))
        return {f"localize_us_p{q}": Metric(percentile(per_call, q) * 1e6,
                                            "us", len(per_call))
                for q in (50, 90, 99)}


def replay_pass(estimator, calls: list[wl.LocalizeCall],
                latencies: Optional[LatencyPasses], tally: Tally) -> float:
    """Replay every call once and check each result against the recorded
    one; returns the time spent in localize. With latencies, each call is
    timed on its own."""
    localize = estimator.localize
    if latencies is None:
        start = perf_counter()
        results = [localize(c.reports, c.state, c.config) for c in calls]
        elapsed = perf_counter() - start
    else:
        results = []
        elapsed = 0.0
        scaled = array("d")
        for lo, hi in zip(latencies.bounds, latencies.bounds[1:]):
            times = []
            for c in calls[lo:hi]:
                t0 = perf_counter()
                r = localize(c.reports, c.state, c.config)
                t1 = perf_counter()
                times.append(t1 - t0)
                results.append(r)
            elapsed += sum(times)
            scale = latencies.add_chunk(times)
            scaled.extend(t * scale for t in times)
        latencies.add_pass(scaled)
    mismatches = sum(r != c.result for r, c in zip(results, calls))
    tally.attempted += len(calls)
    if mismatches:
        tally.failed += mismatches
        tally.problems.append(
            f"localize: {mismatches} of {len(calls)} replayed estimates "
            "differ from the recorded ones")
    return elapsed


def latency_probe(calls: list[wl.LocalizeCall],
                  seed: int) -> list[wl.LocalizeCall]:
    """The calls, repeated until there are at least MIN_PASS_CALLS, in an
    order shuffled from the seed, so that every chunk of a pass is a sample
    of all of them."""
    probe = calls * -(-MIN_PASS_CALLS // len(calls))
    random.Random(seed).shuffle(probe)
    return probe


# -- per-layer metrics -----------------------------------------------------

PER_LAYER_UNITS = {
    "channel.sample_rss.calls": "count",
    "channel.sample_rss.self_s": "s",
    "channel.delivered_frac": "frac",
    "channel.self_s": "s",
    "protocol.blind_step.calls": "count",
    "protocol.beacon_step.calls": "count",
    "protocol.self_s": "s",
    "protocol.format_trace_line.calls": "count",
    "protocol.format_trace_line.self_s": "s",
    "sim.rounds": "count",
    "sim.run_scenario.self_s": "s",
    "sim.run_baseline.self_s": "s",
    "sim.events_per_round": "events/round",
    "sim.self_s": "s",
    "estimator.localize.calls": "count",
    "estimator.localize.self_s": "s",
    "estimator.adapt_n.calls": "count",
    "estimator.method.refined": "count",
    "estimator.method.pair_split": "count",
    "estimator.method.near_beacon": "count",
    "estimator.method.no_fix": "count",
    "estimator.fallback_centroid": "count",
    "estimator.refined_frac": "frac",
    "estimator.self_s": "s",
    "geometry.dist.calls": "count",
    "geometry.dist.self_s": "s",
    "geometry.self_s": "s",
    "harness.write_s": "s",
    "harness.bytes_written": "bytes",
    "harness.stats_s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "trace_overhead_frac": "frac",
}


def layer_values(delta: dict, rounds: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its snapshot difference."""
    calls, self_s = delta["calls"], delta["self_s"]
    total_s, counters = delta["total_s"], delta["counters"]

    def module_self(module: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(module + "."))

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    events = calls["protocol.blind_step"] + calls["protocol.beacon_step"]
    localized = calls["estimator.localize"]
    values = {
        "channel.sample_rss.calls": calls["channel.sample_rss"],
        "channel.sample_rss.self_s": self_s["channel.sample_rss"],
        "channel.delivered_frac": share(counters.get("channel.delivered", 0),
                                        calls["channel.sample_rss"]),
        "channel.self_s": module_self("channel"),
        "protocol.blind_step.calls": calls["protocol.blind_step"],
        "protocol.beacon_step.calls": calls["protocol.beacon_step"],
        "protocol.self_s": module_self("protocol"),
        "protocol.format_trace_line.calls": calls["protocol.format_trace_line"],
        "protocol.format_trace_line.self_s": self_s["protocol.format_trace_line"],
        "sim.rounds": rounds,
        "sim.run_scenario.self_s": self_s["sim.run_scenario"],
        "sim.run_baseline.self_s": self_s["sim.run_baseline"],
        "sim.events_per_round": share(events, rounds),
        "sim.self_s": module_self("sim"),
        "estimator.localize.calls": localized,
        "estimator.localize.self_s": self_s["estimator.localize"],
        "estimator.adapt_n.calls": calls["estimator.adapt_n"],
        "estimator.fallback_centroid": counters.get("estimator.fallback_centroid", 0),
        "estimator.refined_frac": share(
            counters.get("estimator.method.refined", 0), localized),
        "estimator.self_s": module_self("estimator"),
        "geometry.dist.calls": calls["geometry.dist"],
        "geometry.dist.self_s": self_s["geometry.dist"],
        "geometry.self_s": module_self("geometry"),
        "harness.write_s": sum(v for k, v in total_s.items()
                               if k.startswith("harness.write_")),
        "harness.bytes_written": counters.get("harness.bytes_written", 0),
        "harness.stats_s": sum(total_s[k] for k in (
            "harness.bucketize", "harness.compare", "harness.error_surface")),
        "harness.self_s": module_self("harness"),
        "cli.self_s": self_s["cli.main"],
    }
    for method in wl.FIX_METHODS:
        values[f"estimator.method.{method}"] = counters.get(
            f"estimator.method.{method}", 0)
    return values


def traced_metrics(passes: list[dict], rounds: int, untraced_s: float,
                   traced_s: float, tally: Tally) -> dict[str, Metric]:
    """Per-layer metrics over the traced passes of one input: counts from
    the first pass (every pass must repeat them exactly), times as medians."""
    counts = [tracing.deterministic_counts(p) for p in passes]
    for i, other in enumerate(counts[1:], start=2):
        for mismatch in tracing.count_mismatches(counts[0], other):
            tally.problems.append(f"traced pass {i} count differs: {mismatch}")
    per_pass = [layer_values(p, rounds) for p in passes]
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace_overhead_frac":
            continue
        values = [v[name] for v in per_pass]
        value = statistics.median(values) if unit == "s" else values[0]
        out[name] = Metric(value, unit, len(values))
    out["trace_overhead_frac"] = Metric(1.0 - untraced_s / traced_s, "frac",
                                        len(passes))
    return out


# -- running one workload --------------------------------------------------

def run_workload(gridloc, args, tally: Tally, work: Path) -> dict[str, Metric]:
    sizes = wl.FAST if args.fast else wl.FULL
    pins = load_pins(args.fast)
    if args.workload == "localize_replay":
        return run_replay(gridloc, args, sizes, pins, tally, work)
    runner = SimRunner(gridloc, args.workload, sizes, pins, work, tally)
    ref_ops = runner.ops(REF_SEED)
    ops = runner.ops(args.seed)
    if args.trace:
        runner.unit(ref_ops, REF_SEED)  # checked against the pinned digests
        return run_sim_traced(runner, ops, args)
    metrics = {"setup_s": measure_setup(
        sorted({a for op in ops for a in op.argv if a.endswith(".json")}),
        args.fast)}

    # The timed loop cycles through the fixed seed's operations, whose first
    # outputs are checked against the pinned digests, and the run's (at
    # seed 42 they repeat, so every seed does the same work). The localize
    # calls of the first cycle are kept, and from then on each operation is
    # followed by timed localize passes over them, for at least PROBE_SHARE
    # of its time, so both are sampled across the whole run. The first cycle, slowed by the recording, is a
    # warm-up outside the timed window. Every operation and chunk of a pass
    # is taken to the reference host speed (see calibration.py).
    cycle = ([(op, REF_SEED) for op in ref_ops]
             + [(op, args.seed) for op in ops])
    start = perf_counter()
    with wl.LocalizeRecorder(gridloc.estimator) as recorder:
        for op, seed in cycle:
            runner.execute(op, seed)
    probe = latency_probe(recorder.calls, args.seed)
    speed = HostSpeed()
    latencies = LatencyPasses(speed, len(probe))
    rates: list[float] = []
    done = 0
    while done < len(cycle) or perf_counter() - start < args.seconds:
        op, seed = cycle[done % len(cycle)]
        samples = Samples()
        result = runner.execute(op, seed, around=speed.sampling(samples))
        scale = speed.scale(samples.readings)
        done += 1
        # Failed operations did not complete their rounds.
        if not result.problems:
            rates.append(op.rounds
                         / ((result.elapsed_s - samples.spent_s) * scale))
        probe_s = replay_pass(gridloc.estimator, probe, latencies, tally)
        while probe_s < PROBE_SHARE * result.elapsed_s:
            probe_s += replay_pass(gridloc.estimator, probe, latencies, tally)
    if rates:
        metrics["rounds_per_s"] = Metric(statistics.median(rates), "1/s",
                                         len(rates), rates)
    metrics |= latencies.metrics()
    # Accuracy pools the fixed seed with the run's seed, which halves how
    # far one seed's noise draws move it.
    errors: list[float] = []
    no_fix = 0
    for seed in (REF_SEED, args.seed):
        for op in ops:
            first = runner.first.get((seed, op.name))
            if first is not None:
                errors += first.errors
                no_fix += first.rounds_no_fix
    metrics |= accuracy(errors, no_fix)
    return metrics


def run_sim_traced(runner: SimRunner, ops: list[wl.Op],
                   args) -> dict[str, Metric]:
    tracer = tracing.Tracer()
    passes: list[dict] = []
    untraced_s = traced_s = 0.0
    rounds = sum(op.rounds for op in ops)
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < args.seconds:
        untraced_s += sum(r.elapsed_s for r in runner.unit(ops, args.seed))
        tracer.run_id = len(passes) + 1
        before = tracer.snapshot()
        with tracer:
            traced_s += sum(r.elapsed_s for r in runner.unit(ops, args.seed))
        passes.append(tracing.diff(before, tracer.snapshot()))
    write_spans(tracer, args)
    return traced_metrics(passes, rounds, untraced_s, traced_s, runner.tally)


def write_spans(tracer: tracing.Tracer, args) -> None:
    spans = OUT / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans / f"{args.workload}_seed{args.seed}.csv")


def run_replay(gridloc, args, sizes: wl.Sizes, pins: dict, tally: Tally,
               work: Path) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {}
    if not args.trace:
        work.mkdir(parents=True, exist_ok=True)
        files = []
        for name, data in wl.replay_scenarios(args.seed, sizes):
            path = work / f"{name}.json"
            path.write_text(json.dumps(data) + "\n", encoding="utf-8")
            files.append(str(path))
        metrics["setup_s"] = measure_setup(files, args.fast)
    # The report sets of the fixed seed and of the run's seed are replayed
    # together, as the simulation workloads pool their accuracy. Recording
    # them counts toward --seconds but not toward the metrics.
    start = perf_counter()
    calls: list[wl.LocalizeCall] = []
    for seed in (REF_SEED, args.seed):
        recorded = wl.record_replay(gridloc, seed, sizes)
        pinned = pinned_for(pins, "localize_replay", seed)
        tally.op([] if pinned is None
                 or pinned.get("recorded") == wl.replay_digest(recorded)
                 else [f"recorded estimates differ from the pinned ones "
                       f"for seed {seed}"])
        calls += recorded
    estimator = gridloc.estimator
    replay_pass(estimator, calls, None, tally)  # warm-up
    if args.trace:
        tracer = tracing.Tracer()
        passes = []
        untraced_s = traced_s = 0.0
        while len(passes) < 2 or perf_counter() - start < args.seconds:
            untraced_s += replay_pass(estimator, calls, None, tally)
            tracer.run_id = len(passes) + 1
            before = tracer.snapshot()
            with tracer:
                traced_s += replay_pass(estimator, calls, None, tally)
            passes.append(tracing.diff(before, tracer.snapshot()))
        write_spans(tracer, args)
        return traced_metrics(passes, len(calls), untraced_s, traced_s, tally)

    probe = latency_probe(calls, args.seed)
    latencies = LatencyPasses(HostSpeed(), len(probe))
    while not latencies.rates or perf_counter() - start < args.seconds:
        replay_pass(estimator, probe, latencies, tally)
    metrics["rounds_per_s"] = latencies.rate()
    metrics |= latencies.metrics()
    metrics |= accuracy(*wl.replay_errors(calls))
    return metrics


# -- output ----------------------------------------------------------------

def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def report(args, host: dict, metrics: dict[str, Metric], tally: Tally) -> dict:
    """Print the human-readable report and return the result object."""
    declared = declared_metrics(bool(args.trace))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' fast' if args.fast else ''}")
    print("host " + json.dumps(host, sort_keys=True))
    failed_frac = tally.failed / tally.attempted if tally.attempted else 0.0
    extra = {"failed_frac": Metric(failed_frac, "frac", tally.attempted)}
    if "no_fix_frac" in metrics:
        extra["no_fix_frac"] = metrics["no_fix_frac"]
    rows = [(d["name"], metrics.get(d["name"])) for d in declared]
    rows += list(extra.items())
    for name, m in rows:
        if m is None:
            print(f"  {name:36s} missing")
        else:
            print(f"  {name:36s} {m.value:>16.6g} {m.unit:<12s} n={m.samples}")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    if len(tally.problems) > 20:
        print(f"problem: ... {len(tally.problems) - 20} more")
    result = {
        "correct": tally.correct and all(m is not None for _, m in rows),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in rows[:len(declared)] if m is not None},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    layer_file = results / (f"{args.workload}_seed{args.seed}_"
                            f"trace{args.trace}.json")
    layer_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "correct": result["correct"], "attempted": tally.attempted,
        "failed": tally.failed, "problems": tally.problems,
        "per_layer" if args.trace else "end_to_end": [
            dict(d, value=metrics[d["name"]].value,
                 samples=metrics[d["name"]].samples,
                 series=metrics[d["name"]].series)
            for d in declared if d["name"] in metrics],
    }, indent=1) + "\n", encoding="utf-8")
    return result


def print_pins(fast: bool) -> int:
    """Print the output digests of every workload at the pinned seeds, in
    the layout of one section of pins.json."""
    gridloc = load_gridloc()
    sizes = wl.FAST if fast else wl.FULL
    pins: dict = {}
    work = OUT / "work" / f"pins-{os.getpid()}"
    try:
        for name in WORKLOADS:
            for seed in (REF_SEED, HELD_OUT_SEED):
                if name == "localize_replay":
                    calls = wl.record_replay(gridloc, seed, sizes)
                    digests = {"recorded": wl.replay_digest(calls)}
                else:
                    runner = SimRunner(gridloc, name, sizes, {}, work, Tally())
                    digests = {op.name: runner.execute(op, seed).digest
                               for op in runner.ops(seed)}
                    if not runner.tally.correct:
                        print("\n".join(runner.tally.problems), file=sys.stderr)
                        return 1
                pins.setdefault(name, {})[str(seed)] = digests
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(pins, indent=1, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.fast:
            argv.append("--fast")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--print-pins", action="store_true",
                        help="print the output digests at the pinned seeds")
    args = parser.parse_args(argv)
    if args.workload is None and not args.print_pins:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if args.print_pins:
        return print_pins(args.fast)
    if args.workload == "all":
        return run_all(args)
    gridloc = load_gridloc()
    host = host_info()
    tally = Tally()
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics = run_workload(gridloc, args, tally, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        metrics["peak_rss_mb"] = Metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    print(json.dumps(report(args, host, metrics, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
