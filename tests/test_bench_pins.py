"""The benchmark's output digests at its pinned seeds are those bench/pins.json
holds. A change that moves one byte of a workload's records, CSVs or trace
makes the benchmark report its outputs as incorrect; this check runs the
digests here. bench/run.py works in its own directory under the
git-ignored .bench_out/ and removes it, and no bytecode is written, so
nothing is written under bench/."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "bench" / "run.py"


@pytest.mark.parametrize("section", ["full", "fast"])
def test_the_pinned_digests_are_printed(section):
    argv = [sys.executable, str(RUN_PY), "--print-pins"]
    proc = subprocess.run(argv + ["--fast"] * (section == "fast"), cwd=ROOT, capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    pins = json.loads((ROOT / "bench" / "pins.json").read_text(encoding="utf-8"))
    assert json.loads(proc.stdout) == pins[section]
