"""Command line interface: one-shot localization, scenario runs, parameter sweeps."""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from dataclasses import replace
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from . import harness, sim
from .channel import D_MAX_FACTOR, DEFAULT_A_DBM, RECEPTION_RADIUS_MAX_M
from .estimator import (EstimatorState, FixMethod, LocalizerConfig,
                        RssiReport, localize)
from .geometry import GridSpec, Point, _check_kind

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_FIX = 2


# Built once a process: parse_args leaves the parser as it found it.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridloc",
        description="RSSI grid localization engine and protocol simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    locate = sub.add_parser(
        "locate", help="estimate a position from a beacon report file")
    locate.add_argument("reports", help="CSV file: beacon_x,beacon_y,avg_rssi_dbm,sample_count")
    locate.add_argument("--a-dbm", type=float, default=DEFAULT_A_DBM,
                        help="reference power at 1 m (default %(default)s)")
    locate.add_argument("--n", type=float, default=EstimatorState().n_current,
                        help="path-loss exponent used for ranging (default %(default)s)")
    locate.add_argument("--tau", type=float, default=LocalizerConfig.near_beacon_tau,
                        help="near-beacon trigger in cell spacings (default %(default)s)")
    locate.add_argument("--origin", default="%r,%r" % GridSpec.origin, metavar="X,Y",
                        help="lattice origin (default %(default)s)")
    locate.add_argument("--spacing", type=float, default=GridSpec.spacing_m,
                        help="beacon spacing in meters (default %(default)s)")
    locate.add_argument("--cols", type=int, default=GridSpec.cols,
                        help="beacon columns (default %(default)s)")
    locate.add_argument("--rows", type=int, default=GridSpec.rows,
                        help="beacon rows (default %(default)s)")

    simulate = sub.add_parser("simulate", help="run one scenario end to end")
    simulate.add_argument("scenario",
                          help="scenario file path or bundled name (paper_sweep)")
    simulate.add_argument("--seed", type=int, default=None,
                          help="override the scenario seed")
    simulate.add_argument("--out", default="out", help="output directory")
    simulate.add_argument("--buckets", default=None, metavar="E1,E2,...",
                          help="bucket edges in meters (default 0.5..3.0)")
    simulate.add_argument("--trace", action="store_true",
                          help="also write the message trace")

    sweep = sub.add_parser(
        "sweep", help="run a scenario across variants of one parameter")
    sweep.add_argument("scenario",
                       help="scenario file path or bundled name (paper_sweep)")
    sweep.add_argument("--vary", required=True, metavar="KEY=V1,V2,...",
                       help="one of sigma=..., spacing=..., n_prime=...")
    sweep.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    sweep.add_argument("--out", default="out", help="output directory")
    return parser


_REPORT_COLUMNS = ("beacon_x", "beacon_y", "avg_rssi_dbm")
# A report's beacon is the lattice vertex within this many spacings of its
# coordinates; a beacon surveyed 1 cm off at the default spacing is 0.0025.
VERTEX_SPACINGS = 0.05


def _vertex(grid: GridSpec, x: float, y: float) -> Optional[Point]:
    """The position of the lattice vertex within VERTEX_SPACINGS spacings
    of (x, y), or None."""
    (ox, oy), spacing = grid.origin, grid.spacing_m
    col, row = (x - ox) / spacing, (y - oy) / spacing
    # A quotient past the largest float is off the lattice; round() would raise.
    if not math.isfinite(col + row):
        return None
    i, j = round(col), round(row)
    if not (0 <= i < grid.cols and 0 <= j < grid.rows):
        return None
    # Measured from the vertex itself: far from the origin the quotients are
    # rounded by more than the tolerance.
    vertex = grid.beacon_position(i, j)
    near = math.hypot(x - vertex[0], y - vertex[1]) <= VERTEX_SPACINGS * spacing
    return vertex if near else None


def _parse_reports(path: Path, grid: GridSpec) -> list[RssiReport]:
    """The reports of a file, each at its beacon's vertex of grid: a line
    off every vertex, or on one another line is on, is rejected."""
    reports, lines = [], {}
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if lineno == 1 and fields[:3] == list(_REPORT_COLUMNS):
                continue
            if len(fields) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields, got {len(fields)}")
            try:
                x, y, rssi = values = [float(f) for f in fields[:3]]
                # float() takes nan and inf, which localize would turn into
                # a nan fix.
                for name, value in zip(_REPORT_COLUMNS, values):
                    if not math.isfinite(value):
                        raise ValueError(f"{name} must be finite")
                vertex = _vertex(grid, x, y)
                if vertex is None:
                    raise ValueError(f"({x!r}, {y!r}) is not within {VERTEX_SPACINGS} "
                                     "spacings of a lattice vertex")
                if vertex in lines:
                    raise ValueError(f"the beacon at ({vertex[0]!r}, {vertex[1]!r}) is "
                                     f"reported on line {lines[vertex]} too")
                lines[vertex] = lineno
                report = RssiReport(vertex, rssi, int(fields[3]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            reports.append(report)
    return reports


# The locate flag that sets each setting.
_LOCATE_FLAGS = {"a_dbm": "--a-dbm", "n_initial": "--n", "near_beacon_tau": "--tau",
                 "origin": "--origin", "spacing_m": "--spacing",
                 "cols": "--cols", "rows": "--rows"}


def _cmd_locate(args: argparse.Namespace) -> int:
    try:
        ox, _, oy = args.origin.partition(",")
        origin = Point(float(ox), float(oy))
    except ValueError:
        print("error: --origin: expects X,Y", file=sys.stderr)
        return EXIT_ERROR
    try:
        # Each flag is checked by the settings its scenario key sets, but
        # the reference power only for its kind: locate simulates no
        # channel, so the channel's physical range does not apply.
        try:
            _check_kind(float, args.a_dbm, "a_dbm")
            settings = sim.EstimatorSettings(n_initial=args.n, near_beacon_tau=args.tau)
            grid = GridSpec(origin=origin, spacing_m=args.spacing,
                            cols=args.cols, rows=args.rows)
        except sim.ScenarioError as exc:
            raise ValueError(f"{_LOCATE_FLAGS[exc.path]}: {exc.rule}") from exc
        reports = _parse_reports(Path(args.reports), grid)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    # The upper range clamp scales with the spacing, 120 m at the default 4 m,
    # up to the simulator's ceiling, which keeps the in-cell squares finite.
    d_max = min(LocalizerConfig.range_d_max * grid.spacing_m / GridSpec.spacing_m,
                D_MAX_FACTOR * RECEPTION_RADIUS_MAX_M)
    config = LocalizerConfig(grid=grid, a_dbm=args.a_dbm,
                             near_beacon_tau=settings.near_beacon_tau, range_d_max=d_max)
    estimate, _ = localize(reports, EstimatorState(n_current=settings.n_initial), config)
    if estimate.method is FixMethod.NO_FIX:
        print(",,no_fix,,,%s" % format(estimate.n_used, ".9g"))
        return EXIT_NO_FIX
    cell_col = "" if estimate.cell is None else str(estimate.cell[0])
    cell_row = "" if estimate.cell is None else str(estimate.cell[1])
    print(",".join([
        format(estimate.pos[0], ".9g"), format(estimate.pos[1], ".9g"),
        estimate.method.value, cell_col, cell_row,
        format(estimate.n_used, ".9g"),
    ]))
    return EXIT_OK


def _resolve_scenario(name: str) -> sim.Scenario:
    path = Path(name)
    if path.exists():
        return sim.load_scenario(path)
    bundled = resources.files("gridloc.scenarios").joinpath(f"{name}.json")
    if bundled.is_file():
        return sim.parse_scenario(bundled.read_text(encoding="utf-8"))
    raise sim.ScenarioError("scenario", f"no file or bundled scenario named {name!r}")


def _parse_edges(text: Optional[str]) -> Sequence[float]:
    if text is None:
        return harness.DEFAULT_BUCKET_EDGES
    try:
        return harness._check_edges([float(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:
        raise ValueError(f"--buckets: {exc}") from exc


def _summary_line(tag: str, buckets: harness.ErrorBuckets,
                  median: Optional[float]) -> str:
    """One run's summary, from its default-edge buckets and median error."""
    records = buckets.fixed_count + buckets.no_fix_count
    if median is None:
        return f"{tag}: records={records} no_fix={buckets.no_fix_count} (no fixes)"
    return (f"{tag}: records={records} median_error_m={median:.4g} "
            f"fraction_below_1.5m={buckets.fraction_below(1.5):.4f} "
            f"no_fix={buckets.no_fix_count}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    partial = None
    try:
        scenario = _resolve_scenario(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        edges = _parse_edges(args.buckets)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # The trace is written step by step as the run goes, and named trace.txt
        # once every other output is written; a run that fails leaves none.
        partial = out_dir / "trace.txt.partial" if args.trace else None
        with partial.open("w", encoding="utf-8") if partial else nullcontext() as fh:
            run = sim.run_scenario(scenario, fh.write if fh else None, columns=True)
        harness.write_records_csv(run, out_dir / "records.csv")
        buckets = harness.bucketize(run, edges)
        harness.write_buckets_csv(buckets, out_dir / "buckets.csv")
        if isinstance(scenario.trajectory, sim.LatticeSweep):
            rows = harness.error_surface(run, scenario.trajectory.nx)
            harness.write_surface_csv(rows, out_dir / "surface.csv")
        if partial:
            partial.replace(out_dir / "trace.txt")
    except (sim.ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if partial:
            partial.unlink(missing_ok=True)
    if args.buckets is not None:
        buckets = harness.bucketize(run)
    print(_summary_line("simulate", buckets, harness.median_error(run)))
    return EXIT_OK


# The section and field each --vary key sets.
_VARY_KEYS = {"sigma": ("channel", "sigma_dbm"), "spacing": ("grid", "spacing_m"),
              "n_prime": ("estimator", "n_initial")}


def _variant(scenario: sim.Scenario, key: str, value: float) -> sim.Scenario:
    section, name = _VARY_KEYS[key]
    return replace(scenario, **{section: replace(getattr(scenario, section), **{name: value})})


def _cmd_sweep(args: argparse.Namespace) -> int:
    key, _, raw_values = args.vary.partition("=")
    key = key.strip()
    if key not in _VARY_KEYS:
        print(f"error: --vary key must be one of {', '.join(_VARY_KEYS)}",
              file=sys.stderr)
        return EXIT_ERROR
    try:
        values = [float(v) for v in raw_values.split(",") if v.strip()]
    except ValueError as exc:
        print(f"error: --vary: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not values:
        print("error: --vary needs at least one value", file=sys.stderr)
        return EXIT_ERROR
    try:
        base = _resolve_scenario(args.scenario)
        if args.seed is not None:
            base = replace(base, seed=args.seed)
        # Every variant is built, and so checked, before the first round.
        variants = []
        for value in values:
            # The short form, unless it names another value.
            tag = format(value, "g")
            if float(tag) != value:
                tag = repr(value)
            try:
                variants.append((tag, _variant(base, key, value)))
            except sim.ScenarioError as exc:
                # The flag names the key; a rule that joins sections keeps its path.
                rule = exc.rule if exc.path == _VARY_KEYS[key][1] else str(exc)
                raise ValueError(f"--vary {key}={tag}: {rule}") from exc
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = ["vary_key,value,system,records,no_fix,"
                   "median_error_m,mean_error_m,fraction_below_1.5m,wins_vs_baseline"]
        for tag, scenario in variants:
            refined, baseline = sim.run_with_baseline(scenario, columns=True)
            harness.write_records_csv(refined, out_dir / f"records_{key}_{tag}.csv")
            harness.write_records_csv(baseline, out_dir / f"baseline_{key}_{tag}.csv")
            c = harness.compare(refined, baseline)
            for system, run, median, mean, wins in (
                    ("refined", refined, c.median_a, c.mean_a, c.a_wins_fraction),
                    ("baseline", baseline, c.median_b, c.mean_b, None)):
                buckets = harness.bucketize(run)
                summary.append(",".join([
                    key, tag, system, str(c.records), str(buckets.no_fix_count),
                    "" if median is None else format(median, ".9g"),
                    "" if mean is None else format(mean, ".9g"),
                    "" if median is None else format(buckets.fraction_below(1.5), ".9g"),
                    "" if wins is None else format(wins, ".9g"),
                ]))
                print(_summary_line(f"{key}={tag} {system}", buckets, median))
        (out_dir / "summary.csv").write_text("\n".join(summary) + "\n",
                                             encoding="utf-8")
    except (sim.ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "locate":
        return _cmd_locate(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
