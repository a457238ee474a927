"""Command line interface: one-shot localization, scenario runs, parameter sweeps."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from . import harness, sim
from .estimator import (EstimatorState, FixMethod, LocalizerConfig,
                        RssiReport, localize)
from .geometry import GeometryError, GridSpec, Point

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_FIX = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridloc",
        description="RSSI grid localization engine and protocol simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    locate = sub.add_parser(
        "locate", help="estimate a position from a beacon report file")
    locate.add_argument("reports", help="CSV file: beacon_x,beacon_y,avg_rssi_dbm,sample_count")
    locate.add_argument("--a-dbm", type=float, default=-45.0,
                        help="reference power at 1 m (default -45)")
    locate.add_argument("--n", type=float, default=2.0,
                        help="path-loss exponent used for ranging (default 2)")
    locate.add_argument("--tau", type=float, default=0.25,
                        help="near-beacon trigger as a fraction of cell spacing")
    locate.add_argument("--origin", default="0,0", metavar="X,Y",
                        help="lattice origin (default 0,0)")
    locate.add_argument("--spacing", type=float, default=4.0,
                        help="beacon spacing in meters (default 4)")
    locate.add_argument("--cols", type=int, default=3)
    locate.add_argument("--rows", type=int, default=3)

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


def _parse_reports(path: Path) -> list[RssiReport]:
    reports = []
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if lineno == 1 and fields[:3] == ["beacon_x", "beacon_y", "avg_rssi_dbm"]:
                continue
            if len(fields) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields, got {len(fields)}")
            try:
                report = RssiReport(Point(float(fields[0]), float(fields[1])),
                                    float(fields[2]), int(fields[3]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            reports.append(report)
    return reports


def _cmd_locate(args: argparse.Namespace) -> int:
    try:
        ox, _, oy = args.origin.partition(",")
        origin = Point(float(ox), float(oy))
    except ValueError:
        print("error: --origin expects X,Y", file=sys.stderr)
        return EXIT_ERROR
    try:
        grid = GridSpec(origin=origin, spacing_m=args.spacing,
                        cols=args.cols, rows=args.rows)
        reports = _parse_reports(Path(args.reports))
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    config = LocalizerConfig(grid=grid, a_dbm=args.a_dbm,
                             near_beacon_tau=args.tau)
    estimate, _ = localize(reports, EstimatorState(n_current=args.n), config)
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
        return [float(v) for v in text.split(",") if v.strip()]
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
    try:
        scenario = _resolve_scenario(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        edges = _parse_edges(args.buckets)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace: Optional[list[str]] = [] if args.trace else None
        records = sim.run_scenario(scenario, trace)
        harness.write_records_csv(records, out_dir / "records.csv")
        harness.write_buckets_csv(harness.bucketize(records, edges),
                                  out_dir / "buckets.csv")
        if isinstance(scenario.trajectory, sim.LatticeSweep):
            harness.write_surface_csv(harness.error_surface(records),
                                      out_dir / "surface.csv")
        if trace is not None:
            (out_dir / "trace.txt").write_text("\n".join(trace) + "\n",
                                               encoding="utf-8")
    except (sim.ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(_summary_line("simulate", harness.bucketize(records),
                        harness.median_error(records)))
    return EXIT_OK


_VARY_KEYS = ("sigma", "spacing", "n_prime")


def _variant(scenario: sim.Scenario, key: str, value: float) -> sim.Scenario:
    if key == "sigma":
        return replace(scenario, channel=replace(scenario.channel, sigma_dbm=value))
    if key == "spacing":
        return replace(scenario, grid=replace(scenario.grid, spacing_m=value))
    return replace(scenario, estimator=replace(scenario.estimator, n_initial=value))


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
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = ["vary_key,value,system,records,no_fix,"
                   "median_error_m,mean_error_m,fraction_below_1.5m,wins_vs_baseline"]
        for value in values:
            scenario = _variant(base, key, value)
            tag = format(value, "g")
            refined, baseline = sim.run_with_baseline(scenario)
            harness.write_records_csv(refined, out_dir / f"records_{key}_{tag}.csv")
            harness.write_records_csv(baseline,
                                      out_dir / f"baseline_{key}_{tag}.csv")
            c = harness.compare(refined, baseline)
            for system, records, median, mean, wins in (
                    ("refined", refined, c.median_a, c.mean_a, c.a_wins_fraction),
                    ("baseline", baseline, c.median_b, c.mean_b, None)):
                buckets = harness.bucketize(records)
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
