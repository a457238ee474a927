"""localize's tail against a parent checkout: BENCH_localize_tail.json.

Run from the root of this checkout, with the parent commit's files in
PARENT (for example from `git archive <parent> | tar -x -C PARENT`):

    python3 tools/localize_tail_bench.py --parent PARENT --out BENCH_localize_tail.json

It measures, parent against this checkout ("change"):
- end_to_end: bench/run.py --workload W --seconds 25, each side from its
  own tree, one run at a time in alternating pairs (even pairs parent
  first), by tools/step_trace_bench.py's pair runner: 10 pairs of
  localize_replay at seed 42 and 3 at the held-out seed 913, 5 pairs of
  each other workload at seed 42;
- localize_us: estimator.localize on the localize_replay calls recorded
  at seeds 42 and 7, each call timed on its own, warm (after a pass that
  fills the plan cache) and cold (_cell_plan.cache_clear() before each
  call, as in `gridloc locate`); per branch the median, and over all
  calls p50, p90 and p99;
- localize_step_ms: estimator.localize_step on the batches recorded from
  run_scenario of wide_lattice's scenario and of a sigma=3 paper_sweep,
  summed over a run's batches, warm and cold, the best of 5 passes;
- src_lines: wc -l src/gridloc/*.py on each tree.
The per-call and per-step timings run each side in a process of its own,
in alternating pairs: two trees loaded into one process time the one
loaded second slower.
--quick makes every count 1 and every bench run 2 s, to try the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from step_trace_bench import bench_run, end_to_end, quartiles, src_lines  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("localize_replay", "sweep_vs_baseline", "wide_lattice", "traced_simulate")
REPLAY_SEEDS = (42, 7)

# One side's timings, in a process of its own: argv is the tree, the number
# of warm passes and of cold ones. bench/ is read, and no bytecode written.
CHILD = r"""
import copy, json, statistics, sys
from time import perf_counter
sys.dont_write_bytecode = True
tree, warm_passes, cold_passes = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.path[:0] = [tree + "/src", tree + "/bench"]
import gridloc, gridloc.sim
import workloads as wl
est = gridloc.estimator
calls = [c for seed in (%(seeds)s) for c in wl.record_replay(gridloc, seed, wl.FULL)]

def branch(estimate):
    if estimate.fallback_centroid:
        return "centroid_fallback"
    return estimate.method.value

def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

def localize_times(cold):
    localize, clear = est.localize, est._cell_plan.cache_clear
    times = {}
    for c in calls:
        localize(c.reports, c.state, c.config)
    for _ in range(cold_passes if cold else warm_passes):
        for c in calls:
            if cold:
                clear()
            t = perf_counter()
            result = localize(c.reports, c.state, c.config)
            t = perf_counter() - t
            assert result == c.result
            times.setdefault(branch(c.result[0]), []).append(t * 1e6)
    every = [t for ts in times.values() for t in ts]
    return {"calls": len(calls),
            "share": {k: len(v) / len(every) for k, v in times.items()},
            "median_us": {k: statistics.median(v) for k, v in times.items()},
            "p50_us": percentile(every, 0.50), "p90_us": percentile(every, 0.90),
            "p99_us": percentile(every, 0.99)}

def recorded_steps(data):
    steps, original = [], est.localize_step
    def recording(*args):
        steps.append(copy.deepcopy(args))
        return original(*args)
    est.localize_step = recording
    try:
        gridloc.sim.run_scenario(gridloc.sim.scenario_from_dict(data))
    finally:
        est.localize_step = original
    return steps

def step_ms(steps, cold):
    best = []
    for _ in range(5):
        total = 0.0
        for args in steps:
            if cold:
                est._cell_plan.cache_clear()
            t = perf_counter()
            est.localize_step(*args)
            total += perf_counter() - t
        best.append(total * 1e3)
    return min(best)

out = {"warm": localize_times(False), "cold": localize_times(True), "localize_step_ms": {}}
for name, data in (("wide_lattice", wl.scenario(42, n=wl.FULL.wide_n, cols=wl.FULL.wide_cols,
                                                sigma=3.0)),
                   ("paper_sweep_sigma3", wl.scenario(42, n=wl.FULL.sweep_n, sigma=3.0))):
    steps = recorded_steps(data)
    step_ms(steps, False)
    out["localize_step_ms"][name] = {"steps": len(steps), "warm": step_ms(steps, False),
                                     "cold": step_ms(steps, True)}
print(json.dumps(out))
""" % {"seeds": ", ".join(map(str, REPLAY_SEEDS)) + ","}


def child_run(tree: Path, warm_passes: int, cold_passes: int) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, str(tree), str(warm_passes),
                          str(cold_passes)], capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    return {"runs": runs, "median": statistics.median(runs), "quartiles": quartiles(runs)}


def compared(parent: list[float], change: list[float]) -> dict:
    return {"parent": summary(parent), "change": summary(change),
            "change_faster_runs": sum(c < p for p, c in zip(parent, change)),
            "median_change_frac": statistics.median(change) / statistics.median(parent) - 1}


def in_process(trees: dict[str, Path], pairs: int, warm_passes: int, cold_passes: int) -> dict:
    """localize_us and localize_step_ms, each side's runs from processes of
    its own in alternating pairs, each figure compared run by run."""
    runs = {side: [] for side in trees}
    for i in range(pairs):
        for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            runs[side].append(child_run(trees[side], warm_passes, cold_passes))
            print("in_process", i, side, runs[side][-1]["warm"]["p90_us"], file=sys.stderr,
                  flush=True)
    parent, change = runs["parent"], runs["change"]
    first = change[0]
    out = {"pairs": pairs, "replay_seeds": list(REPLAY_SEEDS),
           "warm_passes": warm_passes, "cold_passes": cold_passes, "localize_us": {}}
    for kind in ("warm", "cold"):
        row = {"calls": first[kind]["calls"], "share": first[kind]["share"]}
        for q in ("p50_us", "p90_us", "p99_us"):
            row[q] = compared([r[kind][q] for r in parent], [r[kind][q] for r in change])
        row["median_us_by_branch"] = {
            b: compared([r[kind]["median_us"][b] for r in parent],
                        [r[kind]["median_us"][b] for r in change])
            for b in sorted(first[kind]["median_us"])}
        out["localize_us"][kind] = row
    out["localize_step_ms"] = {
        name: {"steps": first["localize_step_ms"][name]["steps"],
               **{kind: compared([r["localize_step_ms"][name][kind] for r in parent],
                                 [r["localize_step_ms"][name][kind] for r in change])
                  for kind in ("warm", "cold")}}
        for name in first["localize_step_ms"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_localize_tail.json")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    quick = args.quick
    plan = [("localize_replay", 42, 10), ("localize_replay", 913, 3)]
    plan += [(w, 42, 5) for w in WORKLOADS[1:]]
    if quick:
        plan = [(w, s, 1) for w, s, _ in plan]
    # Each side's bench/run.py must pass on its own before any timing.
    for tree in trees.values():
        if not bench_run(tree, "localize_replay", 42, 1.0)["correct"]:
            raise SystemExit(f"bench/run.py in {tree} is not correct")
    result = {
        "command": "python3 tools/localize_tail_bench.py --parent PARENT",
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "machine": platform.machine()},
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "end_to_end": end_to_end(trees, plan, 2.0 if quick else 25.0),
        "in_process": in_process(trees, 1 if quick else 10, 2 if quick else 20,
                                 1 if quick else 10),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
