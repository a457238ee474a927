"""The step trace writer against a parent checkout: BENCH_step_trace.json.

Run from the root of this checkout, with the parent commit's files in
PARENT (for example from `git archive <parent> | tar -x -C PARENT`):

    python3 tools/step_trace_bench.py --parent PARENT --out BENCH_step_trace.json

It measures, parent against this checkout ("change"):
- end_to_end: bench/run.py --workload W --seconds 25, each side from its
  own tree, one run at a time in alternating pairs (even pairs parent
  first): 10 pairs of traced_simulate at seed 42 and 3 at the held-out
  seed 913, 5 pairs of each other workload at seed 42;
- writer_us_per_round: sim._trace_writer alone, both trees loaded side by
  side in one process, on the write calls recorded from a traced
  run_scenario: traced_simulate's scenario, an unquantized sigma=3 traced
  paper_sweep and wide30_r9 (a 30 x 30 lattice, 4 m spacing, 9 m radius,
  sigma 3, a 60 x 60 sweep, where the heard set changes almost every
  round); alternating rounds, each side the best of 3 passes a round;
- tracemalloc_peak_mb: the tracemalloc peak of `gridloc simulate --trace`
  on a 20,000-round static run on a 10 x 10 lattice (30 m radius,
  sigma 0), each side in a fresh process;
- src_lines: wc -l src/gridloc/*.py on each tree.
--quick makes every count 1 and every bench run 2 s, to try the script.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("traced_simulate", "sweep_vs_baseline", "wide_lattice", "localize_replay")
METRICS = ("rounds_per_s", "localize_us_p50", "localize_us_p90", "localize_us_p99",
           "peak_rss_mb", "setup_s", "median_error_m", "frac_below_1.5m")
LOWER_IS_BETTER = {"localize_us_p50", "localize_us_p90", "localize_us_p99", "peak_rss_mb",
                   "setup_s", "median_error_m"}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                          str(seed), "--seconds", str(seconds)],
                         cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def end_to_end(trees: dict[str, Path], plan: list[tuple[str, int, int]], seconds: float) -> dict:
    rows = {}
    for workload, seed, pairs in plan:
        runs = {side: [] for side in trees}
        for i in range(pairs):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for side in order:
                runs[side].append(bench_run(trees[side], workload, seed, seconds))
                print(workload, seed, i, side, runs[side][-1]["metrics"].get("rounds_per_s"),
                      file=sys.stderr, flush=True)
        metrics = {}
        for name in METRICS:
            parent = [r["metrics"][name] for r in runs["parent"] if name in r["metrics"]]
            change = [r["metrics"][name] for r in runs["change"] if name in r["metrics"]]
            if not parent or len(parent) != len(change):
                continue
            lower = name in LOWER_IS_BETTER
            metrics[name] = {
                "parent_runs": parent, "change_runs": change,
                "parent_median": statistics.median(parent),
                "parent_quartiles": quartiles(parent),
                "change_median": statistics.median(change),
                "change_quartiles": quartiles(change),
                "median_change_frac": statistics.median(change) / statistics.median(parent) - 1,
                "change_better_pairs": sum((c < p) if lower else (c > p)
                                           for p, c in zip(parent, change)),
                "equal_pairs": sum(c == p for p, c in zip(parent, change)),
            }
        rows[f"{workload}_seed{seed}"] = {
            "pairs": pairs,
            "all_runs_correct_with_no_failed_ops": all(
                r["correct"] and not r["failed"] for side in runs.values() for r in side),
            "metrics": metrics,
        }
    return rows


def load(tree: Path, name: str):
    """gridloc from tree's src/, imported as the package name."""
    spec = importlib.util.spec_from_file_location(
        name, tree / "src" / "gridloc" / "__init__.py",
        submodule_search_locations=[str(tree / "src" / "gridloc")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".sim")


def writer_scenario(name: str) -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads as wl
    if name == "traced_simulate":
        return wl.scenario(42, n=25, sigma=3.0, quantize=True, adapt=True)
    if name == "sigma3_unquantized":
        return wl.scenario(42, n=25, sigma=3.0)
    data = wl.scenario(42, n=60, cols=30, sigma=3.0)
    data["channel"]["reception_radius_m"] = 9.0
    return data


def recorded_writer(sim, data: dict):
    """A function that replays the write calls of a traced run_scenario
    through a new writer and returns the trace; and the round count."""
    s = sim.scenario_from_dict(data)
    calls, original = [], sim._trace_writer

    def recording(p, position):
        write = original(p, position)

        def record(*args):
            calls.append(copy.deepcopy(args))
            return write(*args)
        return record

    sim._trace_writer = recording
    try:
        sim.run_scenario(s, lambda text: None)
    finally:
        sim._trace_writer = original
    # A round writer gives a round's lines, joined by the caller; a step
    # writer gives a step's, each ending in a newline.
    step = len(calls[0]) == 4

    def replay() -> str:
        write = sim._trace_writer(s.protocol, s.grid.position_of)
        if step:
            return "".join([write(*c) for c in calls])
        return "\n".join([write(*c) for c in calls]) + "\n"
    return replay, s.rounds, calls


def repetition(calls: list, cache_size: int) -> dict:
    """What the step writer can reuse, from its recorded calls: the share
    of rounds whose heard set a cache of cache_size holds, and the share of
    a step's levels that repeat one before them in the step."""
    template = functools.lru_cache(maxsize=cache_size)(lambda ids: None)
    levels = distinct = 0
    for ids, ends, values, _ in calls:
        for a, b in zip(ends, ends[1:]):
            template(ids[a:b])
        levels += values.size
        distinct += len(set(values.view("int64").tolist()))
    info = template.cache_info()
    return {"template_hit_share": info.hits / (info.hits + info.misses),
            "repeated_level_share": 1 - distinct / levels}


def writer_alone(trees: dict[str, Path], rounds_of_runs: int) -> dict:
    sims = {side: load(tree, f"gridloc_{side}") for side, tree in trees.items()}
    out = {}
    for name in ("traced_simulate", "sigma3_unquantized", "wide30_r9"):
        data = writer_scenario(name)
        replays = {side: recorded_writer(sim, data) for side, sim in sims.items()}
        digests = {side: hashlib.sha256(f().encode()).hexdigest()[:16]
                   for side, (f, _, _) in replays.items()}
        runs = {side: [] for side in trees}
        for i in range(rounds_of_runs):
            for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                replay, rounds, _ = replays[side]
                best = []
                for _ in range(3):
                    t = time.perf_counter()
                    replay()
                    best.append(time.perf_counter() - t)
                runs[side].append(round(min(best) * 1e6 / rounds, 3))
        out[name] = {
            "rounds": replays["change"][1],
            **repetition(replays["change"][2], sims["change"].TEMPLATE_CACHE_SIZE),
            **{side: {"runs": r, "median": statistics.median(r), "quartiles": quartiles(r)}
               for side, r in runs.items()},
            "change_faster_runs": sum(c < p for p, c in zip(runs["parent"], runs["change"])),
            "median_change_frac": (statistics.median(runs["change"])
                                   / statistics.median(runs["parent"]) - 1),
            "trace_sha256_16": digests,
        }
    return out


PEAK = """
import json, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from gridloc import cli
tracemalloc.start()
cli.main(["simulate", sys.argv[2], "--out", sys.argv[3], "--trace"])
print(json.dumps(tracemalloc.get_traced_memory()[1]))
"""


def tracemalloc_peaks(trees: dict[str, Path], rounds: int) -> dict:
    data = writer_scenario("traced_simulate")
    data.update(rounds=rounds, quantize_rssi=False,
                trajectory={"kind": "static", "point": [2.0, 2.0]})
    data["grid"].update(cols=10, rows=10)
    data["channel"]["sigma_dbm"] = 0.0
    data["estimator"]["adapt"] = False
    out = {"rounds": rounds}
    with tempfile.TemporaryDirectory() as work:
        scenario = Path(work) / "static.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        for side, tree in trees.items():
            target = Path(work) / side
            run = subprocess.run([sys.executable, "-c", PEAK, str(tree / "src"), str(scenario),
                                  str(target)], capture_output=True, text=True, check=True)
            trace = (target / "trace.txt").read_bytes()
            out[side] = {"peak_mb": round(int(run.stdout.strip().splitlines()[-1]) / 2**20, 3),
                         "trace_bytes": len(trace),
                         "trace_sha256_16": hashlib.sha256(trace).hexdigest()[:16]}
    return out


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (tree / "src" / "gridloc").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_step_trace.json")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    quick = args.quick
    plan = [("traced_simulate", 42, 10), ("traced_simulate", 913, 3)]
    plan += [(w, 42, 5) for w in WORKLOADS[1:]]
    if quick:
        plan = [(w, s, 1) for w, s, _ in plan]
    result = {
        "command": "python3 tools/step_trace_bench.py --parent PARENT",
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "machine": platform.machine()},
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        # First: a child's peak RSS counts this process's at the fork, and the
        # recorded write calls below take a few hundred MB.
        "end_to_end": end_to_end(trees, plan, 2.0 if quick else 25.0),
        "writer_us_per_round": writer_alone(trees, 2 if quick else 15),
        "tracemalloc_peak_mb": tracemalloc_peaks(trees, 200 if quick else 20_000),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
