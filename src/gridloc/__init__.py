"""RSSI grid localization engine and protocol simulator."""

from .channel import (ChannelParams, RangeEstimate, distance_to_rss,
                      rss_to_distance, sample_rss)
from .estimator import (Estimate, EstimatorState, FixMethod, LocalizerConfig,
                        RssiReport, adapt_n, localize, near_beacon_estimate,
                        pair_split_estimate, refine_in_cell, select_top4,
                        weighted_centroid)
from .geometry import (Beacon, CellId, GeometryError, GridSpec,
                       OutOfRegionError, Point, build_lattice,
                       cell_of_corners, containing_cell, is_rectangle)
from .harness import (Comparison, ErrorBuckets, bucketize, compare,
                      error_surface, write_buckets_csv, write_records_csv,
                      write_surface_csv)
from .sim import (LatticeSweep, RoundRecord, Scenario, ScenarioError, Static,
                  Waypoints, load_scenario, parse_scenario, run_baseline,
                  run_scenario, run_with_baseline, sweep_points)

__version__ = "0.1.0"

__all__ = [
    "Beacon", "CellId", "ChannelParams", "Comparison", "ErrorBuckets",
    "Estimate", "EstimatorState", "FixMethod", "GeometryError", "GridSpec",
    "LatticeSweep", "LocalizerConfig", "OutOfRegionError", "Point",
    "RangeEstimate", "RoundRecord", "RssiReport",
    "Scenario", "ScenarioError", "Static", "Waypoints", "adapt_n",
    "bucketize", "build_lattice", "cell_of_corners", "compare",
    "containing_cell", "distance_to_rss", "error_surface", "is_rectangle",
    "load_scenario", "localize", "near_beacon_estimate",
    "pair_split_estimate", "parse_scenario", "refine_in_cell",
    "rss_to_distance", "run_baseline", "run_scenario", "run_with_baseline",
    "sample_rss", "select_top4", "sweep_points", "weighted_centroid",
    "write_buckets_csv", "write_records_csv", "write_surface_csv",
    "__version__",
]
