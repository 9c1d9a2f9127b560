"""Planar geometry primitives for the WMN grid model.

The deployment area of a Wireless Mesh Network is modeled as a discrete
``W x H`` grid (paper, Section 2).  Every position is an integer cell
``(x, y)``.  This module provides the :class:`Point` and :class:`Rect`
primitives used throughout the library, together with the distance
functions that the radio model is built on.

All classes here are immutable value types: they hash, compare and can be
used as dictionary keys or set members, which the placement and density
engines rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "Point",
    "cell_array",
    "Rect",
    "euclidean",
    "euclidean_squared",
    "manhattan",
    "chebyshev",
]


class Point(NamedTuple):
    """An integer grid cell ``(x, y)``.

    ``Point`` is a ``NamedTuple``: it unpacks, compares lexicographically
    and is hashable, so placements can store occupied cells in sets.
    """

    x: int
    y: int

    def translated(self, dx: int, dy: int) -> "Point":
        """Return the point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return euclidean(self, other)


def cell_array(cells: "Iterable[Point] | np.ndarray") -> np.ndarray:
    """Cells (``Point`` pairs or an int array) as a fresh int64 ``(N, 2)`` array.

    Coordinates are truncated like ``int()`` would truncate them.
    """
    if isinstance(cells, np.ndarray):
        if cells.size and (cells.ndim != 2 or cells.shape[1] != 2):
            raise ValueError(f"cell array must have shape (N, 2), got {cells.shape}")
        array = cells.astype(np.int64)
    else:
        # A flat list of coordinates converts far faster than numpy's
        # sequence-of-tuples path.
        array = np.array(
            [int(value) for cell in cells for value in (cell[0], cell[1])],
            dtype=np.int64,
        )
    return array.reshape(-1, 2)


def euclidean_squared(a: Point, b: Point) -> int:
    """Squared Euclidean distance between two cells.

    Preferred in hot paths: it avoids the square root and stays exact in
    integer arithmetic, so radius comparisons can be done on squared
    values without floating point error.
    """
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two cells."""
    return math.sqrt(euclidean_squared(a, b))


def manhattan(a: Point, b: Point) -> int:
    """Manhattan (L1) distance between two cells."""
    return abs(a.x - b.x) + abs(a.y - b.y)


def chebyshev(a: Point, b: Point) -> int:
    """Chebyshev (L-infinity) distance between two cells."""
    return max(abs(a.x - b.x), abs(a.y - b.y))


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle of grid cells.

    The rectangle spans ``x0 <= x < x0 + width`` and
    ``y0 <= y < y0 + height`` (half-open, like Python ranges).  Rectangles
    describe density windows (``Hg x Wg`` sub-areas of Algorithm 3), the
    central zone of the *Near* placement and the corner zones of the
    *Corners* placement.
    """

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 0 or self.height < 0:
            raise ValueError(
                f"Rect dimensions must be non-negative, got "
                f"{self.width}x{self.height}"
            )

    @property
    def x1(self) -> int:
        """Exclusive right edge."""
        return self.x0 + self.width

    @property
    def y1(self) -> int:
        """Exclusive top edge."""
        return self.y0 + self.height

    @property
    def area(self) -> int:
        """Number of cells in the rectangle."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """The central cell (rounded down for even dimensions)."""
        return Point(self.x0 + self.width // 2, self.y0 + self.height // 2)

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside the rectangle."""
        return self.x0 <= point.x < self.x1 and self.y0 <= point.y < self.y1

    def contains_cells(self, cells: np.ndarray) -> np.ndarray:
        """Boolean mask of the rows of an ``(N, 2)`` cell array inside the rectangle."""
        xs, ys = cells[:, 0], cells[:, 1]
        return (xs >= self.x0) & (xs < self.x1) & (ys >= self.y0) & (ys < self.y1)

    def cells(self) -> Iterator[Point]:
        """Iterate all cells of the rectangle in row-major order."""
        for y in range(self.y0, self.y1):
            for x in range(self.x0, self.x1):
                yield Point(x, y)

    def intersection(self, other: "Rect") -> "Rect":
        """The overlapping rectangle (possibly empty) with ``other``."""
        x0 = max(self.x0, other.x0)
        y0 = max(self.y0, other.y0)
        x1 = min(self.x1, other.x1)
        y1 = min(self.y1, other.y1)
        return Rect(x0, y0, max(0, x1 - x0), max(0, y1 - y0))

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share at least one cell."""
        return self.intersection(other).area > 0

    def clamped(self, point: Point) -> Point:
        """The nearest cell of the rectangle to ``point``."""
        if self.area == 0:
            raise ValueError("cannot clamp to an empty rectangle")
        x = min(max(point.x, self.x0), self.x1 - 1)
        y = min(max(point.y, self.y0), self.y1 - 1)
        return Point(x, y)
