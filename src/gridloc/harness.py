"""Error statistics and plot-ready exports for scenario runs."""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .sim import RoundRecord

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
    if any(e <= 0 for e in edges):
        raise ValueError("bucket edges must be positive")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bucket edges must be strictly increasing")
    return edges


def bucketize(records: Sequence[RoundRecord],
              edges: Sequence[float] = DEFAULT_BUCKET_EDGES) -> ErrorBuckets:
    edges = _check_edges(edges)
    counts = [0] * (len(edges) + 1)
    no_fix = 0
    for r in records:
        if r.error_m is None:
            no_fix += 1
        else:
            counts[bisect_right(edges, r.error_m)] += 1
    fixed = sum(counts)
    fractions = tuple(c / fixed for c in counts) if fixed else None
    return ErrorBuckets(edges, tuple(counts), fractions, no_fix)


def error_surface(records: Sequence[RoundRecord]) -> list[list[tuple[float, float, float]]]:
    """Sweep records as a rectangular grid of (x, y, error) rows.

    Rows are runs of constant true y in record order; every row must
    repeat the same x sequence. Rounds without a fix carry NaN.
    """
    if not records:
        raise ValueError("no records")
    rows: list[list[RoundRecord]] = []
    for r in records:
        if rows and math.isclose(rows[-1][-1].true_pos[1], r.true_pos[1]):
            rows[-1].append(r)
        else:
            rows.append([r])
    width = len(rows[0])
    first_xs = [r.true_pos[0] for r in rows[0]]
    for row in rows:
        if len(row) != width:
            raise ValueError("records do not form a rectangular sweep")
        for r, x in zip(row, first_xs):
            if not math.isclose(r.true_pos[0], x):
                raise ValueError("records do not form a rectangular sweep")
    return [[(r.true_pos[0], r.true_pos[1],
              r.error_m if r.error_m is not None else math.nan)
             for r in row] for row in rows]


@dataclass(frozen=True)
class Comparison:
    """Two systems over the same true positions."""

    median_a: Optional[float]
    median_b: Optional[float]
    mean_a: Optional[float]
    mean_b: Optional[float]
    a_wins_fraction: Optional[float]
    records: int


def _errors(records: Sequence[RoundRecord]) -> list[float]:
    return [r.error_m for r in records if r.error_m is not None]


def median_error(records: Sequence[RoundRecord]) -> Optional[float]:
    """Median fix error, or None when no record had a fix."""
    errors = _errors(records)
    return statistics.median(errors) if errors else None


def compare(a: Sequence[RoundRecord], b: Sequence[RoundRecord]) -> Comparison:
    if len(a) != len(b):
        raise ValueError("record lists differ in length")
    for ra, rb in zip(a, b):
        if (not math.isclose(ra.true_pos[0], rb.true_pos[0])
                or not math.isclose(ra.true_pos[1], rb.true_pos[1])):
            raise ValueError(f"true positions differ at round {ra.round_index}")
    errs_a = _errors(a)
    errs_b = _errors(b)
    both = [(ra.error_m, rb.error_m) for ra, rb in zip(a, b)
            if ra.error_m is not None and rb.error_m is not None]
    wins = sum(ea < eb for ea, eb in both) / len(both) if both else None
    return Comparison(
        median_a=median_error(a),
        median_b=median_error(b),
        mean_a=statistics.fmean(errs_a) if errs_a else None,
        mean_b=statistics.fmean(errs_b) if errs_b else None,
        a_wins_fraction=wins,
        records=len(a),
    )


def _g(value: float) -> str:
    return format(value, ".9g")


def write_records_csv(records: Sequence[RoundRecord],
                      path: Union[str, Path]) -> None:
    lines = ["round,true_x,true_y,est_x,est_y,method,error_m,n_used"]
    for r in records:
        if r.estimate.pos is None:
            est_x = est_y = err = ""
        else:
            est_x = _g(r.estimate.pos[0])
            est_y = _g(r.estimate.pos[1])
            err = _g(r.error_m)
        lines.append(",".join([
            str(r.round_index), _g(r.true_pos[0]), _g(r.true_pos[1]),
            est_x, est_y, r.estimate.method.value, err, _g(r.n_used),
        ]))
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
    chunks = []
    for row in rows:
        chunks.append("\n".join(f"{_g(x)},{_g(y)},{_g(e)}" for x, y, e in row))
    Path(path).write_text("\n\n".join(chunks) + "\n", encoding="utf-8")
