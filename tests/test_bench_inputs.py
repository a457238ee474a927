"""The benchmark's scenario documents go through the scenario parser. Every
workload of bench/run.py starts from one of them, so a parser change that
rejects one fails the whole benchmark; this check catches it without running
the benchmark. bench/workloads.py is read and run from its source, so nothing
is written under bench/."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from gridloc import cli, sim

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
# The benchmark's pinned seeds: the default one and the held-out one.
SEEDS = (42, 7)


@pytest.fixture(scope="module")
def workloads():
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    # dataclasses looks a class's module up by name.
    sys.modules[module.__name__] = module
    try:
        code = compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec")
        exec(code, module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


def test_every_workload_scenario_parses(workloads, tmp_path):
    parsed = 0
    for sizes in (workloads.FULL, workloads.FAST):
        for seed in SEEDS:
            for name, data in workloads.replay_scenarios(seed, sizes):
                assert sim.scenario_from_dict(data).seed == seed, name
                parsed += 1
            for name, build in workloads.SIM_WORKLOADS.items():
                work = tmp_path / f"{name}_{sizes.sweep_n}_{seed}"
                work.mkdir()
                for op in build(work, seed, sizes):
                    # argv is [command, scenario path, flags...].
                    data = json.loads(Path(op.argv[1]).read_text(encoding="utf-8"))
                    s = sim.scenario_from_dict(data)
                    assert (s.seed, s.rounds) == (seed, op.sweep_n ** 2), op.name
                    if "--vary" in op.argv:
                        key, _, value = op.argv[op.argv.index("--vary") + 1].partition("=")
                        cli._variant(s, key, float(value))
                    parsed += 1
    # Three replay scenarios, three sweep variants, one wide and one traced
    # run, for each size and seed.
    assert parsed == 2 * len(SEEDS) * (3 + 3 + 1 + 1)
