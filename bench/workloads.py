"""The benchmark's workloads: generated scenario inputs, the gridloc calls
each one makes, and the checks that its outputs are correct.

Every simulation workload is a list of operations. One operation is one
`gridloc.cli.main` call on a scenario file the benchmark generated from the
seed, writing into its own output directory. `localize_replay` is built from
the same scenarios but calls `gridloc.estimator.localize` directly.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

FIX_METHODS = ("refined", "pair_split", "near_beacon", "no_fix")
BASELINE_METHODS = ("centroid", "no_fix")
RECORDS_HEADER = "round,true_x,true_y,est_x,est_y,method,error_m,n_used"
SPACING_M = 4.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes: the full benchmark, or a tiny one for the bench's tests."""

    sweep_n: int = 25         # paper_sweep: 25 x 25 = 625 rounds
    wide_cols: int = 10       # wide lattice: 10 x 10 beacons
    wide_n: int = 15          # wide lattice sweep: 15 x 15 = 225 rounds


FULL = Sizes()
FAST = Sizes(sweep_n=4, wide_cols=10, wide_n=2)


def scenario(seed: int, *, n: int, cols: int = 3, sigma: float = 0.0,
             quantize: bool = False, adapt: bool = False) -> dict:
    """The bundled paper_sweep scenario with the given overrides."""
    return {
        "rng": "pcg64",
        "seed": seed,
        "grid": {"origin": [0.0, 0.0], "spacing_m": SPACING_M, "cols": cols,
                 "rows": cols},
        "channel": {"a_dbm": -45.0, "n_exp": 2.0, "sigma_dbm": sigma,
                    "rssi_offset_dbm": -45.0, "reception_radius_m": 30.0},
        "estimator": {"n_initial": 2.0, "near_beacon_tau": 0.25,
                      "adapt": adapt, "calibration_beacons": [0, 1]},
        "protocol": {"accum_count": 8, "inter_test_gap_ms": 20.0,
                     "response_window_ms": 50.0, "ack_timeout_ms": 100.0,
                     "round_interval_ms": 1000.0},
        "quantize_rssi": quantize,
        "trajectory": {"kind": "lattice_sweep", "nx": n, "ny": n},
        "rounds": n * n,
    }


@dataclass
class Op:
    """One gridloc CLI call and what its outputs must look like."""

    name: str
    argv: list[str]
    out_dir: Path
    rounds: int
    # Records files written by the system under test (not the baseline).
    system_files: tuple[str, ...]
    baseline_files: tuple[str, ...] = ()
    sweep_n: int = 0
    beacons: int = 9
    trace_lines_per_round: int = 0


@dataclass
class OpResult:
    elapsed_s: float
    digest: str = ""
    errors: list[float] = field(default_factory=list)  # system fix errors
    rounds_no_fix: int = 0
    problems: list[str] = field(default_factory=list)


def _write_scenario(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return str(path)


# -- workload definitions ------------------------------------------------

def sweep_vs_baseline(work: Path, seed: int, sizes: Sizes) -> list[Op]:
    """`gridloc sweep` on paper_sweep: noiseless, sigma=3, sigma=3 quantized."""
    n = sizes.sweep_n
    plain = _write_scenario(work / "sweep.json", scenario(seed, n=n))
    quant = _write_scenario(work / "sweep_q.json",
                            scenario(seed, n=n, quantize=True))
    ops = []
    for name, path, value in (("sigma0", plain, "0"), ("sigma3", plain, "3"),
                              ("sigma3_quantized", quant, "3")):
        out = work / name
        ops.append(Op(name, ["sweep", path, "--vary", f"sigma={value}",
                             "--out", str(out)],
                      out, rounds=2 * n * n,
                      system_files=(f"records_sigma_{value}.csv",),
                      baseline_files=(f"baseline_sigma_{value}.csv",),
                      sweep_n=n))
    return ops


def wide_lattice(work: Path, seed: int, sizes: Sizes) -> list[Op]:
    """`gridloc simulate` on a 10 x 10 lattice at sigma=3, no baseline."""
    n, cols = sizes.wide_n, sizes.wide_cols
    path = _write_scenario(work / "wide.json",
                           scenario(seed, n=n, cols=cols, sigma=3.0))
    out = work / "wide"
    return [Op("wide", ["simulate", path, "--out", str(out)], out,
               rounds=n * n, system_files=("records.csv",), sweep_n=n,
               beacons=cols * cols)]


def traced_simulate(work: Path, seed: int, sizes: Sizes) -> list[Op]:
    """`gridloc simulate --trace` on paper_sweep, sigma=3, quantized, adapt."""
    n = sizes.sweep_n
    path = _write_scenario(work / "traced.json",
                           scenario(seed, n=n, sigma=3.0, quantize=True,
                                    adapt=True))
    out = work / "traced"
    # Start, 9 acks, 8 tests, one request, 9 responses: every beacon of the
    # 3 x 3 lattice is within the reception radius of every sample point.
    return [Op("traced", ["simulate", path, "--out", str(out), "--trace"],
               out, rounds=n * n, system_files=("records.csv",), sweep_n=n,
               trace_lines_per_round=1 + 9 + 8 + 1 + 9)]


SIM_WORKLOADS = {
    "sweep_vs_baseline": sweep_vs_baseline,
    "wide_lattice": wide_lattice,
    "traced_simulate": traced_simulate,
}


def replay_scenarios(seed: int, sizes: Sizes) -> list[tuple[str, dict]]:
    """The DES runs whose localize calls localize_replay records."""
    n = sizes.sweep_n
    return [("sigma0", scenario(seed, n=n)),
            ("sigma3", scenario(seed, n=n, sigma=3.0)),
            ("sigma3_quantized", scenario(seed, n=n, sigma=3.0,
                                          quantize=True))]


# -- running and checking an operation ----------------------------------

def run_op(cli, op: Op) -> tuple[OpResult, str]:
    """Run one CLI call from a clean output directory; time only the call."""
    if op.out_dir.exists():
        shutil.rmtree(op.out_dir)
    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf):
        code = cli.main(op.argv)
    elapsed = perf_counter() - start
    result = OpResult(elapsed)
    if code != 0:
        result.problems.append(f"{op.name}: exit code {code}")
    return result, buf.getvalue()


def digest_outputs(op: Op, stdout: str) -> tuple[str, dict[str, bytes]]:
    """sha256 over the stdout text and every output file, by name."""
    h = hashlib.sha256()
    h.update(b"stdout\0" + stdout.encode("utf-8") + b"\0")
    files = {}
    if op.out_dir.is_dir():
        for path in sorted(op.out_dir.iterdir()):
            data = path.read_bytes()
            files[path.name] = data
            h.update(path.name.encode("utf-8") + b"\0" + data + b"\0")
    return h.hexdigest(), files


def _close(a: float, b: float, rel: float = 1e-8, abs_tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def check_records(text: str, op: Op, methods: tuple[str, ...],
                  errors: list[float], label: str) -> list[str]:
    """Invariants of one records CSV; appends the parsed fix errors."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != RECORDS_HEADER:
        return [f"{label}: bad header"]
    rows = lines[1:]
    if len(rows) * (2 if op.baseline_files else 1) != op.rounds:
        return [f"{label}: {len(rows)} rows for {op.rounds} rounds"]
    hull = SPACING_M * (math.isqrt(op.beacons) - 1)
    problems = []
    for i, row in enumerate(rows):
        f = row.split(",")
        if len(f) != 8 or f[0] != str(i) or f[5] not in methods:
            problems.append(f"{label}: malformed row {i}")
            continue
        tx, ty = float(f[1]), float(f[2])
        if not (0.0 < tx < hull and 0.0 < ty < hull):
            problems.append(f"{label}: row {i} true position off the hull")
        if f[5] == "no_fix":
            if f[3] or f[4] or f[6]:
                problems.append(f"{label}: row {i} no_fix with an estimate")
            continue
        ex, ey, err = float(f[3]), float(f[4]), float(f[6])
        if not _close(err, math.hypot(ex - tx, ey - ty), rel=1e-7, abs_tol=1e-6):
            problems.append(f"{label}: row {i} error_m disagrees with estimate")
        if not 0.0 <= err < math.inf:
            problems.append(f"{label}: row {i} error is not finite")
        if not 1.0 <= float(f[7]) <= 6.0:
            problems.append(f"{label}: row {i} n_used out of range")
        errors.append(err)
    return problems[:5]


def _median_of(errors: list[float]) -> Optional[float]:
    return statistics.median(errors) if errors else None


def check_op(op: Op, stdout: str, files: dict[str, bytes],
             result: OpResult) -> None:
    """Fill result.errors and result.problems from an operation's outputs."""
    problems = result.problems
    expected = set(op.system_files) | set(op.baseline_files)
    if op.baseline_files:
        expected.add("summary.csv")
    else:
        expected |= {"buckets.csv", "surface.csv"}
    if op.trace_lines_per_round:
        expected.add("trace.txt")
    if set(files) != expected:
        problems.append(f"{op.name}: output files {sorted(files)}")
        return
    text = {k: v.decode("utf-8") for k, v in files.items()}
    for name in op.system_files:
        problems += check_records(text[name], op, FIX_METHODS, result.errors,
                                  f"{op.name}/{name}")
    baseline_errors: list[float] = []
    for name in op.baseline_files:
        problems += check_records(text[name], op, BASELINE_METHODS,
                                  baseline_errors, f"{op.name}/{name}")
    system_rounds = op.rounds // (2 if op.baseline_files else 1)
    result.rounds_no_fix = system_rounds - len(result.errors)
    if op.baseline_files:
        problems += _check_summary(op, text["summary.csv"], stdout,
                                   result.errors, baseline_errors)
    else:
        problems += _check_simulate(op, text, stdout, result.errors)


def _check_summary(op: Op, summary: str, stdout: str, errors: list[float],
                   baseline_errors: list[float]) -> list[str]:
    rows = summary.rstrip("\n").split("\n")[1:]
    if len(rows) != 2 or len(stdout.rstrip("\n").split("\n")) != 2:
        return [f"{op.name}: summary has {len(rows)} rows"]
    problems = []
    for row, errs in zip(rows, (errors, baseline_errors)):
        f = row.split(",")
        median = _median_of(errs)
        if median is None or not _close(float(f[5]), median, rel=1e-7):
            problems.append(f"{op.name}: summary median disagrees with records")
        if int(f[3]) != op.rounds // 2 or int(f[4]) != op.rounds // 2 - len(errs):
            problems.append(f"{op.name}: summary counts disagree with records")
    return problems


def _check_simulate(op: Op, text: dict[str, str], stdout: str,
                    errors: list[float]) -> list[str]:
    problems = []
    fields = dict(kv.split("=", 1) for kv in stdout.split()[1:] if "=" in kv)
    median = _median_of(errors)
    if (fields.get("records") != str(op.rounds)
            or fields.get("no_fix") != str(op.rounds - len(errors))
            or median is None
            or not _close(float(fields["median_error_m"]), median, rel=1e-3)):
        problems.append(f"{op.name}: summary line disagrees with records")
    buckets = text["buckets.csv"].rstrip("\n").split("\n")[1:]
    if sum(int(b.split(",")[2]) for b in buckets) != len(errors):
        problems.append(f"{op.name}: bucket counts disagree with records")
    surface = text["surface.csv"].rstrip("\n").split("\n\n")
    if len(surface) != op.sweep_n or any(
            len(block.split("\n")) != op.sweep_n for block in surface):
        problems.append(f"{op.name}: surface is not {op.sweep_n} x {op.sweep_n}")
    if op.trace_lines_per_round:
        problems += _check_trace(op, text["trace.txt"])
    return problems


_TRACE_TYPES = {"location_start": 5, "ack": 5, "rssi_test": 6,
                "rssi_avg_request": 5, "rssi_avg_response": 9}


def _check_trace(op: Op, trace: str) -> list[str]:
    lines = trace.rstrip("\n").split("\n")
    if len(lines) != op.rounds * op.trace_lines_per_round:
        return [f"{op.name}: {len(lines)} trace lines for {op.rounds} rounds"]
    last = -math.inf
    for i, line in enumerate(lines):
        f = line.split(",")
        if len(f) < 4 or _TRACE_TYPES.get(f[3]) != len(f):
            return [f"{op.name}: malformed trace line {i}"]
        t = float(f[0])
        if t < last:
            return [f"{op.name}: trace time goes back at line {i}"]
        last = t
    return []


# -- localize replay -------------------------------------------------------

@dataclass
class LocalizeCall:
    reports: list
    state: object
    config: object
    result: tuple  # (Estimate, EstimatorState) as recorded from the DES
    true_pos: Optional[tuple[float, float]] = None


class LocalizeRecorder:
    """Temporarily wraps estimator.localize to keep each call and result."""

    def __init__(self, estimator):
        self.estimator = estimator
        self.calls: list[LocalizeCall] = []

    def __enter__(self) -> "LocalizeRecorder":
        original = self.original = self.estimator.localize
        calls = self.calls

        def recording(reports, state, config):
            result = original(reports, state, config)
            calls.append(LocalizeCall(list(reports), state, config, result))
            return result

        self.estimator.localize = recording
        return self

    def __exit__(self, *exc) -> None:
        self.estimator.localize = self.original


def record_replay(gridloc, seed: int, sizes: Sizes) -> list[LocalizeCall]:
    """Run the replay scenarios through the DES, keeping every localize call."""
    calls: list[LocalizeCall] = []
    for _, data in replay_scenarios(seed, sizes):
        scenario_obj = gridloc.sim.scenario_from_dict(data)
        with LocalizeRecorder(gridloc.estimator) as rec:
            records = gridloc.sim.run_scenario(scenario_obj)
        if len(rec.calls) != len(records):
            raise RuntimeError("localize calls do not match rounds")
        for call, record in zip(rec.calls, records):
            call.true_pos = (record.true_pos[0], record.true_pos[1])
        calls += rec.calls
    return calls


def _estimate_key(estimate) -> str:
    pos = "" if estimate.pos is None else f"{estimate.pos[0].hex()},{estimate.pos[1].hex()}"
    cell = "" if estimate.cell is None else f"{estimate.cell[0]},{estimate.cell[1]}"
    return (f"{pos};{estimate.method.value};{cell};{estimate.n_used.hex()};"
            f"{int(estimate.fallback_centroid)}")


def replay_digest(calls: list[LocalizeCall]) -> str:
    """sha256 over every recorded estimate, bit for bit."""
    h = hashlib.sha256()
    for call in calls:
        h.update(_estimate_key(call.result[0]).encode("ascii") + b"\n")
    return h.hexdigest()


def replay_errors(calls: list[LocalizeCall]) -> tuple[list[float], int]:
    """Fix errors of the recorded estimates and the number without a fix."""
    errors = []
    for call in calls:
        pos = call.result[0].pos
        if pos is not None:
            errors.append(math.hypot(pos[0] - call.true_pos[0],
                                     pos[1] - call.true_pos[1]))
    return errors, len(calls) - len(errors)
