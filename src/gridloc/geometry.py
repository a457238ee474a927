"""Beacon lattice geometry: the grid, its cells, the cell of a point."""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, fields, is_dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

# Coordinate equality tolerance in meters.
COORD_TOL = 1e-6


class GeometryError(ValueError):
    """A coordinate set violates a lattice precondition."""


class ScenarioError(ValueError):
    """A setting breaks its rule. path names the key: <section>.<key> in a
    scenario file, the bare field name for a section built alone in code."""

    def __init__(self, path: str, rule: str):
        super().__init__(f"{path}: {rule}" if path else rule)
        self.path, self.rule = path, rule


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


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: object) -> bool:
    # One comparison rejects NaN, the infinities and ints too large for a
    # float, without converting them.
    return ((_is_int(v) or isinstance(v, float))
            and -sys.float_info.max <= v <= sys.float_info.max)


# The one statement of a setting's type: by the type of a field's default (a
# tuple is the calibration beacon pair), a test and its rule. A bool is no
# count or number, a number is finite, and a pair is a tuple, never a list:
# settings are hashed.
_KINDS: dict[type, tuple[Callable[[object], bool], str]] = {
    bool: (lambda v: isinstance(v, bool), "must be true or false"),
    int: (_is_int, "must be an integer"),
    float: (_is_number, "must be a finite number"),
    Point: (lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_number, v)),
            "must be an (x, y) pair of finite numbers"),
    tuple: (lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v)),
            "must be a pair of integer ids"),
}


def _check_kind(kind: type, value: object, path: str) -> None:
    """Raise ScenarioError(path, rule) unless value is of the kind keyed by kind."""
    test, rule = _KINDS[kind]
    if not test(value):
        raise ScenarioError(path, rule)


def _check_kinds(settings: object) -> None:
    """_check_kind on each field of a settings dataclass. A section, a field
    whose default is a dataclass, checks its own fields; here it need only
    be of a class in the field's "kinds" metadata, or else its default's."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if not is_dataclass(f.default):
            _check_kind(type(f.default), value, f.name)
            continue
        kinds = f.metadata.get("kinds", (type(f.default),))
        if not isinstance(value, kinds):
            raise ScenarioError(f.name, "must be a " + " or ".join(k.__name__ for k in kinds))


@dataclass(frozen=True)
class GridSpec:
    """Uniform beacon lattice: cols x rows vertices, spacing_m apart."""

    origin: Point = Point(0.0, 0.0)
    spacing_m: float = 4.0
    cols: int = 3
    rows: int = 3

    def __post_init__(self) -> None:
        _check_kinds(self)
        if self.spacing_m <= 0:
            raise ScenarioError("spacing_m", "must be positive")
        # Closer lines leave a coordinate within COORD_TOL of two of them.
        if self.spacing_m <= 2 * COORD_TOL:
            raise ScenarioError("spacing_m",
                                f"must be more than 2 * COORD_TOL, {2 * COORD_TOL:g} m")
        for name in ("cols", "rows"):
            if getattr(self, name) < 2:
                raise ScenarioError(name, "lattice needs at least 2 columns and 2 rows")
        # localize keys its plans on the grid: hashed once here, not per lookup.
        object.__setattr__(self, "_hash", hash(astuple(self)))

    def __hash__(self) -> int:
        return self._hash

    def beacon_position(self, i: int, j: int) -> Point:
        return Point(self.origin[0] + i * self.spacing_m,
                     self.origin[1] + j * self.spacing_m)

    def beacon_id(self, i: int, j: int) -> int:
        """Id of the beacon in column i, row j: ids run row-major from the
        origin."""
        return j * self.cols + i

    def position_of(self, beacon_id: int) -> Point:
        """Position of the beacon with the given id."""
        j, i = divmod(beacon_id, self.cols)
        return self.beacon_position(i, j)

    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the lattice hull."""
        (x0, y0), s = self.origin, self.spacing_m
        return (x0, y0, x0 + (self.cols - 1) * s, y0 + (self.rows - 1) * s)


def _clamp(p: Point, bounds: Sequence[float]) -> Point:
    """The point of the box bounds, (xmin, ymin, xmax, ymax) as a grid's
    bounds() gives them, nearest to p."""
    xmin, ymin, xmax, ymax = bounds
    return Point(min(max(p[0], xmin), xmax), min(max(p[1], ymin), ymax))


def _axis_cell(offset: float, spacing: float, n_cells: int) -> int:
    # Points on a lattice line belong to the lower-index cell.
    q = offset / spacing
    if q == math.inf:  # past the largest float, as far as any far value
        return n_cells - 1
    k = round(q)
    cell = k - 1 if abs(offset - k * spacing) <= COORD_TOL else math.floor(q)
    return 0 if cell < 0 else n_cells - 1 if cell >= n_cells else cell


def containing_cell(p: Point, spec: GridSpec) -> CellId:
    """Cell whose closed bounds contain p; boundary points go to the lower-index cell."""
    cell = _cell_or_none(p, spec, spec.bounds())
    if cell is None:
        raise OutOfRegionError(f"point ({p[0]}, {p[1]}) outside lattice hull")
    return cell


def _cell_or_none(p: Point, spec: GridSpec, bounds: Sequence[float]) -> Optional[CellId]:
    """containing_cell given spec.bounds(), or None for a point outside them."""
    xmin, ymin, xmax, ymax = bounds
    if not (xmin - COORD_TOL <= p[0] <= xmax + COORD_TOL
            and ymin - COORD_TOL <= p[1] <= ymax + COORD_TOL):
        return None
    return CellId(_axis_cell(p[0] - xmin, spec.spacing_m, spec.cols - 1),
                  _axis_cell(p[1] - ymin, spec.spacing_m, spec.rows - 1))


def _axis_cells(offset: np.ndarray, spacing: float, n_cells: int) -> np.ndarray:
    """_axis_cell of each offset, by its arithmetic on an array."""
    q = offset / spacing
    k = np.rint(q)
    cell = np.where(np.abs(offset - k * spacing) <= COORD_TOL, k - 1, np.floor(q))
    return np.clip(cell, 0, n_cells - 1).astype(int)


def _cells_or_none(xs: np.ndarray, ys: np.ndarray, spec: GridSpec) -> list[Optional[CellId]]:
    """_cell_or_none of each point (xs[i], ys[i]), by its arithmetic on arrays."""
    xmin, ymin, xmax, ymax = spec.bounds()
    # Offsets past the largest float, and the infinities they bring, clip
    # to the last cell as _axis_cell's do; a point outside has no cell.
    with np.errstate(over="ignore", invalid="ignore"):
        inside = ((xmin - COORD_TOL <= xs) & (xs <= xmax + COORD_TOL)
                  & (ymin - COORD_TOL <= ys) & (ys <= ymax + COORD_TOL))
        cols = _axis_cells(xs - xmin, spec.spacing_m, spec.cols - 1)
        rows = _axis_cells(ys - ymin, spec.spacing_m, spec.rows - 1)
    return [tuple.__new__(CellId, (c, r)) if ok else None
            for ok, c, r in zip(inside.tolist(), cols.tolist(), rows.tolist())]
