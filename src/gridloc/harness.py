"""Error statistics and plot-ready exports for scenario runs.

Each statistic and the records writer takes a run as its RoundRecords or
as its sim.Columns, as the command line passes it, and reads records as
columns. A round has no fix where its method is no_fix."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import estimator as est
from .sim import Columns, Run

DEFAULT_BUCKET_EDGES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@dataclass(frozen=True)
class ErrorBuckets:
    """Histogram of fix errors over [0, inf), split at the given edges.

    counts has one entry per bucket: [0, e1), [e1, e2), ..., [e_last, inf).
    fractions is None when no record had a fix. Records without a fix are
    tallied separately in no_fix_count.
    """

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    fractions: Optional[tuple[float, ...]]
    no_fix_count: int

    @property
    def fixed_count(self) -> int:
        return sum(self.counts)

    def count_below(self, edge: float) -> int:
        """Number of fixed errors under one of the edges."""
        return sum(self.counts[:self._edge_index(edge) + 1])

    def _edge_index(self, edge: float) -> int:
        for i, e in enumerate(self.edges):
            if math.isclose(e, edge):
                return i
        raise ValueError(f"{edge} is not a bucket edge")

    def fraction_below(self, edge: float) -> Optional[float]:
        """Share of fixed errors under one of the edges, as a ratio of
        counts; None when no record had a fix."""
        below = self.count_below(edge)
        return below / self.fixed_count if self.fixed_count else None


def _check_edges(edges: Sequence[float]) -> tuple[float, ...]:
    edges = tuple(float(e) for e in edges)
    if not edges:
        raise ValueError("need at least one bucket edge")
    if not all(map(math.isfinite, edges)):
        raise ValueError("bucket edges must be finite")
    if any(e <= 0 for e in edges):
        raise ValueError("bucket edges must be positive")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bucket edges must be strictly increasing")
    return edges


def _columns(run: Run) -> Columns:
    """A run as its columns."""
    if isinstance(run, Columns):
        return run
    estimates = [r[2] for r in run]
    return Columns([r[0] for r in run], np.array([r[1] for r in run], dtype=float).reshape(-1, 2),
                   est._fixes(estimates), [e[3] for e in estimates],
                   np.array([math.nan if r[3] is None else r[3] for r in run], dtype=float))


def _errors(run: Columns) -> np.ndarray:
    """The errors of the rounds with a fix."""
    return run.error[run.fixes.method != est._NO_FIX_CODE]


def bucketize(records: Run, edges: Sequence[float] = DEFAULT_BUCKET_EDGES) -> ErrorBuckets:
    """Each error in the bucket bisect_right finds, nan and inf in the last."""
    edges = _check_edges(edges)
    run = _columns(records)
    errors = _errors(run)
    counts = tuple(np.bincount(np.searchsorted(edges, errors, side="right"),
                               minlength=len(edges) + 1).tolist())
    fixed = errors.size
    fractions = tuple(c / fixed for c in counts) if fixed else None
    return ErrorBuckets(edges, counts, fractions, len(run.error) - fixed)


def error_surface(records: Run, nx: int) -> list[list[tuple[float, float, float]]]:
    """Sweep records as a rectangular grid of (x, y, error) rows.

    The records are a row-major sweep with nx points per row, as
    a lattice sweep lays it out, so each row is the next nx records.
    Rounds without a fix carry NaN.
    """
    run = _columns(records)
    if nx < 1 or not len(run.error) or len(run.error) % nx:
        raise ValueError("records do not form a rectangular sweep")
    points = list(zip(*run.truth.T.tolist(), run.error.tolist()))
    return [points[i:i + nx] for i in range(0, len(points), nx)]


@dataclass(frozen=True)
class Comparison:
    """Two systems over the same true positions, equal to the bit."""

    median_a: Optional[float]
    median_b: Optional[float]
    mean_a: Optional[float]
    mean_b: Optional[float]
    a_wins_fraction: Optional[float]
    records: int


def median_error(records: Run) -> Optional[float]:
    """Median fix error, or None when no record had a fix."""
    errors = _errors(_columns(records)).tolist()
    return statistics.median(errors) if errors else None


def compare(a: Run, b: Run) -> Comparison:
    a, b = _columns(a), _columns(b)
    if len(a.error) != len(b.error):
        raise ValueError("record lists differ in length")
    differ = np.flatnonzero((a.truth != b.truth).any(axis=1))
    if differ.size:
        raise ValueError(f"true positions differ at round {a.round[differ[0]]}")
    errs_a, errs_b = _errors(a).tolist(), _errors(b).tolist()
    both = (a.fixes.method != est._NO_FIX_CODE) & (b.fixes.method != est._NO_FIX_CODE)
    pairs = int(np.count_nonzero(both))
    wins = int(np.count_nonzero(a.error[both] < b.error[both])) / pairs if pairs else None
    return Comparison(
        median_a=median_error(a),
        median_b=median_error(b),
        mean_a=statistics.fmean(errs_a) if errs_a else None,
        mean_b=statistics.fmean(errs_b) if errs_b else None,
        a_wins_fraction=wins,
        records=len(a.error),
    )


def _g(value: float) -> str:
    return format(value, ".9g")


# A records row with a fix and without, the true position and n_used as
# text: "%.9g" % v is format(v, ".9g").
_FIX_ROW = "%d,%s,%s,%.9g,%.9g,%s,%.9g,%s"
_NO_FIX_ROW = "%d,%s,%s,,,%s,,%s"
# Each method's text, by its index in FixMethod.
_METHOD_TEXT = tuple(m.value for m in est._METHODS)


def _texts(values: Union[np.ndarray, Sequence[float]]) -> list[str]:
    """"%.9g" of each value, formatted once for each distinct one: keyed by
    its bits, so 0.0 and -0.0, which print 0 and -0, stay apart."""
    bits, which = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    texts = list(map("%.9g".__mod__, bits.view(float).tolist()))
    return [texts[i] for i in which.tolist()]


def write_records_csv(records: Run, path: Union[str, Path]) -> None:
    """One row a round. A sweep's true positions and n_used repeat, so
    each of their values is formatted once."""
    run = _columns(records)
    x, y, method, _, _ = run.fixes
    tx, ty = (_texts(axis) for axis in run.truth.T)
    ns = _texts(run.n)
    methods = list(map(_METHOD_TEXT.__getitem__, method.tolist()))
    lines = ["round,true_x,true_y,est_x,est_y,method,error_m,n_used"]
    lines += map(_FIX_ROW.__mod__, zip(run.round, tx, ty, x.tolist(), y.tolist(), methods,
                                       run.error.tolist(), ns))
    for i in np.flatnonzero(method == est._NO_FIX_CODE).tolist():
        lines[i + 1] = _NO_FIX_ROW % (run.round[i], tx[i], ty[i], methods[i], ns[i])
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_buckets_csv(buckets: ErrorBuckets, path: Union[str, Path]) -> None:
    lines = ["edge_lo,edge_hi,count,fraction"]
    bounds = (0.0,) + buckets.edges + (math.inf,)
    for i, count in enumerate(buckets.counts):
        frac = "" if buckets.fractions is None else _g(buckets.fractions[i])
        lines.append(",".join([_g(bounds[i]), _g(bounds[i + 1]),
                               str(count), frac]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_surface_csv(rows: Sequence[Sequence[tuple[float, float, float]]],
                      path: Union[str, Path]) -> None:
    """Gnuplot-style grid data: x,y,error rows with a blank line between
    sweep rows."""
    chunks = ["\n".join(map("%.9g,%.9g,%.9g".__mod__, row)) for row in rows]
    Path(path).write_text("\n\n".join(chunks) + "\n", encoding="utf-8")
