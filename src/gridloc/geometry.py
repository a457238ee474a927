"""Beacon lattice geometry: grid cells, rectangle tests, cell resolution."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


def _distinct(values: Sequence[float], tol: float) -> list[float]:
    reps: list[float] = []
    for v in values:
        for r in reps:
            if abs(v - r) <= tol:
                break
        else:
            reps.append(v)
    return reps


def is_rectangle(quad: Sequence[Point], tol: float = COORD_TOL) -> bool:
    """True iff the four points are distinct corners of an axis-aligned rectangle.

    Requires exactly two distinct x values and two distinct y values with
    every combination present once. Permutation invariant; duplicates give
    False rather than an error.
    """
    if len(quad) != 4:
        raise GeometryError("is_rectangle needs exactly four points")
    xs = _distinct([p[0] for p in quad], tol)
    ys = _distinct([p[1] for p in quad], tol)
    if len(xs) != 2 or len(ys) != 2:
        return False
    seen = [[False, False], [False, False]]
    for p in quad:
        xi = 0 if abs(p[0] - xs[0]) <= tol else 1
        yi = 0 if abs(p[1] - ys[0]) <= tol else 1
        if seen[xi][yi]:
            return False
        seen[xi][yi] = True
    return True


def cell_of_corners(quad: Sequence[Point], spec: GridSpec,
                    tol: float = COORD_TOL) -> CellId:
    """Resolve the grid cell whose corners the four points are.

    The points must form an axis-aligned square of side spacing_m whose
    corners sit on the lattice; anything else raises GeometryError.
    """
    if not is_rectangle(quad, tol):
        raise GeometryError("corner set does not form a rectangle")
    xs = sorted(_distinct([p[0] for p in quad], tol))
    ys = sorted(_distinct([p[1] for p in quad], tol))
    if abs((xs[1] - xs[0]) - spec.spacing_m) > tol or abs((ys[1] - ys[0]) - spec.spacing_m) > tol:
        raise GeometryError("corners are not adjacent lattice vertices")
    col = (xs[0] - spec.origin[0]) / spec.spacing_m
    row = (ys[0] - spec.origin[1]) / spec.spacing_m
    ci, ri = round(col), round(row)
    if abs(col - ci) * spec.spacing_m > tol or abs(row - ri) * spec.spacing_m > tol:
        raise GeometryError("corners do not lie on the lattice")
    if not (0 <= ci < spec.cols - 1 and 0 <= ri < spec.rows - 1):
        raise GeometryError("corners lie outside the lattice")
    return CellId(int(ci), int(ri))


def _axis_cell(offset: float, spacing: float, n_cells: int, tol: float) -> int:
    # Points on a lattice line belong to the lower-index cell.
    k = round(offset / spacing)
    if abs(offset - k * spacing) <= tol:
        return min(max(int(k) - 1, 0), n_cells - 1)
    return min(max(int(math.floor(offset / spacing)), 0), n_cells - 1)


def containing_cell(p: Point, spec: GridSpec, tol: float = COORD_TOL) -> CellId:
    """Cell whose closed bounds contain p; boundary points go to the lower-index cell."""
    xmin, ymin, xmax, ymax = spec.bounds()
    if not (xmin - tol <= p[0] <= xmax + tol and ymin - tol <= p[1] <= ymax + tol):
        raise OutOfRegionError(f"point ({p[0]}, {p[1]}) outside lattice hull")
    col = _axis_cell(p[0] - xmin, spec.spacing_m, spec.cols - 1, tol)
    row = _axis_cell(p[1] - ymin, spec.spacing_m, spec.rows - 1, tol)
    return CellId(col, row)
