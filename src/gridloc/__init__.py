"""RSSI grid localization engine and protocol simulator."""

from .channel import (ChannelParams, RangeEstimate, distance_to_rss,
                      rss_to_distance, sample_rss)
from .estimator import (Estimate, EstimatorState, FixMethod, LocalizerConfig,
                        RssiReport, adapt_n, localize, select_top4)
from .geometry import (CellId, GeometryError, GridSpec, OutOfRegionError,
                       Point, containing_cell)
from .harness import (Comparison, ErrorBuckets, bucketize, compare,
                      error_surface, write_buckets_csv, write_records_csv,
                      write_surface_csv)
from .sim import (LatticeSweep, RoundRecord, Scenario, ScenarioError, Static,
                  Waypoints, load_scenario, parse_scenario, run_baseline,
                  run_scenario, run_with_baseline)

__version__ = "0.1.0"

__all__ = [
    "CellId", "ChannelParams", "Comparison", "ErrorBuckets", "Estimate",
    "EstimatorState", "FixMethod", "GeometryError", "GridSpec",
    "LatticeSweep", "LocalizerConfig", "OutOfRegionError", "Point",
    "RangeEstimate", "RoundRecord", "RssiReport",
    "Scenario", "ScenarioError", "Static", "Waypoints", "adapt_n",
    "bucketize", "compare", "containing_cell",
    "distance_to_rss", "error_surface", "load_scenario", "localize",
    "parse_scenario", "rss_to_distance", "run_baseline", "run_scenario",
    "run_with_baseline", "sample_rss", "select_top4",
    "write_buckets_csv", "write_records_csv",
    "write_surface_csv", "__version__",
]
