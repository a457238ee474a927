"""The benchmark end to end on its tiny inputs: each workload runs, every
output checks out and every end-to-end metric is reported. bench/tests runs
the benchmark too, but outside pyproject.toml's testpaths. A simulator path
that stops calling a replaced localize once a round, say, leaves the
benchmark's recorder empty, and the latency probe divides by zero. Each run
works under the git-ignored .bench_out/, and no bytecode is written under
bench/."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_is_correct_and_reports_every_metric(workload):
    argv = [sys.executable, str(RUN_PY), "--workload", workload, "--fast", "--seconds", "0.2"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value in metrics.values()), metrics
