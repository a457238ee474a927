"""Beacon lattice geometry: grid cells, rectangle tests, cell resolution."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

# Coordinate equality tolerance in meters.
COORD_TOL = 1e-6


class GeometryError(ValueError):
    """A coordinate set violates a lattice precondition."""


class OutOfRegionError(GeometryError):
    """A point lies outside the beacon lattice hull."""


class Point(NamedTuple):
    x: float
    y: float


class CellId(NamedTuple):
    """Grid cell between beacon columns col/col+1 and rows row/row+1."""

    col: int
    row: int


def dist(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


@dataclass(frozen=True)
class GridSpec:
    """Uniform beacon lattice: cols x rows vertices, spacing_m apart."""

    origin: Point = Point(0.0, 0.0)
    spacing_m: float = 4.0
    cols: int = 3
    rows: int = 3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.origin[0]) and math.isfinite(self.origin[1])):
            raise GeometryError("origin must be finite")
        if not 0 < self.spacing_m < math.inf:
            raise GeometryError("spacing_m must be positive and finite")
        if self.cols < 2 or self.rows < 2:
            raise GeometryError("lattice needs at least 2 columns and 2 rows")

    @property
    def width_m(self) -> float:
        return (self.cols - 1) * self.spacing_m

    @property
    def height_m(self) -> float:
        return (self.rows - 1) * self.spacing_m

    def beacon_position(self, i: int, j: int) -> Point:
        return Point(self.origin[0] + i * self.spacing_m,
                     self.origin[1] + j * self.spacing_m)

    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the lattice hull."""
        return (self.origin[0], self.origin[1],
                self.origin[0] + self.width_m, self.origin[1] + self.height_m)

    def cell_bounds(self, cell: CellId) -> tuple[float, float, float, float]:
        if not (0 <= cell[0] < self.cols - 1 and 0 <= cell[1] < self.rows - 1):
            raise GeometryError(f"cell {tuple(cell)} outside lattice")
        x0 = self.origin[0] + cell[0] * self.spacing_m
        y0 = self.origin[1] + cell[1] * self.spacing_m
        return (x0, y0, x0 + self.spacing_m, y0 + self.spacing_m)

    def cell_center(self, cell: CellId) -> Point:
        x0, y0, x1, y1 = self.cell_bounds(cell)
        return Point((x0 + x1) / 2.0, (y0 + y1) / 2.0)

    def cell_corners(self, cell: CellId) -> tuple[Point, Point, Point, Point]:
        x0, y0, x1, y1 = self.cell_bounds(cell)
        return (Point(x0, y0), Point(x1, y0), Point(x0, y1), Point(x1, y1))

    def clamp(self, p: Point) -> Point:
        xmin, ymin, xmax, ymax = self.bounds()
        return Point(min(max(p[0], xmin), xmax), min(max(p[1], ymin), ymax))


@dataclass(frozen=True)
class Beacon:
    id: int
    pos: Point


def build_lattice(spec: GridSpec) -> list[Beacon]:
    """All lattice vertices as beacons, ids assigned row-major from the origin."""
    out = []
    for j in range(spec.rows):
        for i in range(spec.cols):
            out.append(Beacon(id=j * spec.cols + i, pos=spec.beacon_position(i, j)))
    return out


def _distinct(values: Sequence[float]) -> list[float]:
    reps: list[float] = []
    for v in values:
        for r in reps:
            if abs(v - r) <= COORD_TOL:
                break
        else:
            reps.append(v)
    return reps


def _rectangle_axes(quad: Sequence[Point]
                    ) -> Optional[tuple[list[float], list[float]]]:
    """The sorted distinct xs and ys of four points that are the distinct
    corners of an axis-aligned rectangle, or None for any other four."""
    if len(quad) != 4:
        raise GeometryError("a rectangle needs exactly four points")
    xs = _distinct([p[0] for p in quad])
    ys = _distinct([p[1] for p in quad])
    if len(xs) != 2 or len(ys) != 2:
        return None
    corners = {(abs(p[0] - xs[0]) > COORD_TOL, abs(p[1] - ys[0]) > COORD_TOL)
               for p in quad}
    if len(corners) != 4:
        return None
    return sorted(xs), sorted(ys)


def is_rectangle(quad: Sequence[Point]) -> bool:
    """True iff the four points are distinct corners of an axis-aligned rectangle.

    Requires exactly two distinct x values and two distinct y values with
    every combination present once. Permutation invariant; duplicates give
    False rather than an error.
    """
    return _rectangle_axes(quad) is not None


def cell_of_corners(quad: Sequence[Point], spec: GridSpec) -> CellId:
    """Resolve the grid cell whose corners the four points are.

    The points must form an axis-aligned square of side spacing_m whose
    corners sit on the lattice; anything else raises GeometryError.
    """
    axes = _rectangle_axes(quad)
    if axes is None:
        raise GeometryError("corner set does not form a rectangle")
    xs, ys = axes
    if (abs((xs[1] - xs[0]) - spec.spacing_m) > COORD_TOL
            or abs((ys[1] - ys[0]) - spec.spacing_m) > COORD_TOL):
        raise GeometryError("corners are not adjacent lattice vertices")
    col = (xs[0] - spec.origin[0]) / spec.spacing_m
    row = (ys[0] - spec.origin[1]) / spec.spacing_m
    ci, ri = round(col), round(row)
    if (abs(col - ci) * spec.spacing_m > COORD_TOL
            or abs(row - ri) * spec.spacing_m > COORD_TOL):
        raise GeometryError("corners do not lie on the lattice")
    if not (0 <= ci < spec.cols - 1 and 0 <= ri < spec.rows - 1):
        raise GeometryError("corners lie outside the lattice")
    return CellId(int(ci), int(ri))


def _axis_cell(offset: float, spacing: float, n_cells: int) -> int:
    # Points on a lattice line belong to the lower-index cell.
    k = round(offset / spacing)
    if abs(offset - k * spacing) <= COORD_TOL:
        return min(max(int(k) - 1, 0), n_cells - 1)
    return min(max(int(math.floor(offset / spacing)), 0), n_cells - 1)


def containing_cell(p: Point, spec: GridSpec) -> CellId:
    """Cell whose closed bounds contain p; boundary points go to the lower-index cell."""
    xmin, ymin, xmax, ymax = spec.bounds()
    if not (xmin - COORD_TOL <= p[0] <= xmax + COORD_TOL
            and ymin - COORD_TOL <= p[1] <= ymax + COORD_TOL):
        raise OutOfRegionError(f"point ({p[0]}, {p[1]}) outside lattice hull")
    col = _axis_cell(p[0] - xmin, spec.spacing_m, spec.cols - 1)
    row = _axis_cell(p[1] - ymin, spec.spacing_m, spec.rows - 1)
    return CellId(col, row)
