"""The deployment grid area.

Section 2 of the paper defines an instance over "an area W x H where to
distribute N mesh routers".  :class:`GridArea` models that area as a
discrete cell grid and provides the spatial queries the placement methods
need: bounds checks, sub-rectangles (diagonal bands, corner zones, central
zones) and uniform sampling of free cells.  The free-cell draw
(:meth:`GridArea.random_free_index`) has a C twin, ``free_index`` in
``_kernels.c``, which the compiled tier's movement proposals and
:meth:`GridArea.sample_distinct_cells` draw through; it makes the same
draws in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.geometry import Point, Rect
from repro.seeding import BulkDraws

__all__ = ["GridArea"]

#: Rejection-sampling attempts before the free-cell samplers fall back to
#: enumerating the free cells of the region.
REJECTION_ATTEMPTS = 64


@dataclass(frozen=True, slots=True)
class GridArea:
    """A ``width x height`` grid of unit cells.

    The grid is the deployment area of the WMN.  Router positions are
    cells of this grid; clients also sit on cells.  The class is immutable
    and cheap to share between solutions.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"grid dimensions must be positive, got "
                f"{self.width}x{self.height}"
            )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        return self.width * self.height

    @property
    def bounds(self) -> Rect:
        """The whole grid as a :class:`Rect`."""
        return Rect(0, 0, self.width, self.height)

    @property
    def center(self) -> Point:
        """The central cell."""
        return self.bounds.center

    def contains(self, point: Point) -> bool:
        """Whether ``point`` is a valid cell of this grid."""
        return 0 <= point.x < self.width and 0 <= point.y < self.height

    def require_inside(self, point: Point) -> None:
        """Raise ``ValueError`` if ``point`` is outside the grid."""
        if not self.contains(point):
            raise ValueError(
                f"cell {tuple(point)} outside {self.width}x{self.height} grid"
            )

    def cells(self) -> Iterator[Point]:
        """Iterate every cell in row-major order."""
        return self.bounds.cells()

    def cell_index(self, point: Point) -> int:
        """Row-major linear index of a cell (for array-backed maps)."""
        self.require_inside(point)
        return point.y * self.width + point.x

    def cell_at(self, index: int) -> Point:
        """Inverse of :meth:`cell_index`."""
        if not 0 <= index < self.n_cells:
            raise ValueError(f"cell index {index} out of range")
        return Point(index % self.width, index // self.width)

    # ------------------------------------------------------------------
    # Aspect / applicability checks used by the ad hoc methods
    # ------------------------------------------------------------------

    def is_near_square(self, tolerance: float = 0.10) -> bool:
        """Whether width and height differ by at most ``tolerance``.

        The Diag and Cross placements require "height and width must have
        similar values (we considered the case of 10% difference in their
        values)" (paper, Section 3).
        """
        longer = max(self.width, self.height)
        shorter = min(self.width, self.height)
        return (longer - shorter) <= tolerance * longer

    # ------------------------------------------------------------------
    # Sub-areas
    # ------------------------------------------------------------------

    def central_rect(self, width: int, height: int) -> Rect:
        """A ``width x height`` rectangle centred in the grid.

        Used by the *Near* placement ("a rectangle in the central part of
        the grid area").
        """
        if width > self.width or height > self.height:
            raise ValueError(
                f"central rect {width}x{height} does not fit in "
                f"{self.width}x{self.height} grid"
            )
        x0 = (self.width - width) // 2
        y0 = (self.height - height) // 2
        return Rect(x0, y0, width, height)

    def corner_rects(self, width: int, height: int) -> tuple[Rect, Rect, Rect, Rect]:
        """The four corner rectangles of size ``width x height``.

        Used by the *Corners* placement.  Order: bottom-left, bottom-right,
        top-left, top-right.
        """
        if width > self.width or height > self.height:
            raise ValueError(
                f"corner rect {width}x{height} does not fit in "
                f"{self.width}x{self.height} grid"
            )
        return (
            Rect(0, 0, width, height),
            Rect(self.width - width, 0, width, height),
            Rect(0, self.height - height, width, height),
            Rect(self.width - width, self.height - height, width, height),
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def random_cell_in(self, rect: Rect, rng: np.random.Generator) -> Point:
        """A uniformly random cell inside ``rect`` (clipped to the grid)."""
        clipped = rect.intersection(self.bounds)
        if clipped.area == 0:
            raise ValueError(f"rectangle {rect} has no cells inside the grid")
        return Point(
            int(rng.integers(clipped.x0, clipped.x1)),
            int(rng.integers(clipped.y0, clipped.y1)),
        )

    def occupancy_bitmap(self, cells: np.ndarray) -> bytearray:
        """Row-major occupancy bitmap of an int ``(N, 2)`` cell array.

        One byte per grid cell, set where a cell is occupied.  Operators
        that test many cells within one call build it for that call
        only; it is never stored on a placement.
        """
        bitmap = bytearray(self.n_cells)
        np.frombuffer(bitmap, dtype=np.uint8)[cells[:, 1] * self.width + cells[:, 0]] = 1
        return bitmap

    def random_free_index(
        self,
        bitmap: bytearray,
        rng: "np.random.Generator | BulkDraws",
        x0: int,
        y0: int,
        x1: int,
        y1: int,
    ) -> int:
        """A uniformly random free cell of ``bitmap``, as a flat index.

        The one free-cell draw of the package.  Samples the window
        ``[x0, x1) x [y0, y1)`` clipped to the grid: up to
        ``REJECTION_ATTEMPTS`` (64) rejection attempts of an ``x`` then
        a ``y`` draw, tested against the row-major occupancy ``bitmap``
        (see :meth:`occupancy_bitmap`), then — so it terminates when
        free cells are scarce — one uniform pick among the window's
        free cells in row-major order.  Returns the row-major index of
        the chosen cell; raises ``ValueError`` when the window is empty
        or full (after the rejection draws).  ``rng`` may also be a
        :class:`~repro.seeding.BulkDraws` over the generator: that is how
        :meth:`sample_distinct_cells` and the movements' row samplers
        draw off the compiled tier.
        """
        width = self.width
        x0, y0 = max(x0, 0), max(y0, 0)
        x1, y1 = min(x1, width), min(y1, self.height)
        if x1 <= x0 or y1 <= y0:
            raise ValueError("sampling region is empty")
        integers = rng.integers
        for _ in range(REJECTION_ATTEMPTS):
            x = int(integers(x0, x1))
            index = int(integers(y0, y1)) * width + x
            if not bitmap[index]:
                return index
        window = np.frombuffer(bitmap, dtype=np.uint8).reshape(self.height, width)
        free_y, free_x = np.nonzero(window[y0:y1, x0:x1] == 0)
        if not free_y.size:
            raise ValueError("no free cell available in the requested region")
        pick = int(integers(0, free_y.size))
        return int(free_y[pick] + y0) * width + int(free_x[pick] + x0)

    def sample_distinct_cells(
        self,
        count: int,
        rng: np.random.Generator,
        within: Rect | None = None,
        occupied: Sequence[Point] = (),
    ) -> list[Point]:
        """Sample ``count`` distinct free cells uniformly at random.

        Each cell is drawn as :meth:`random_free_index` would draw it
        from the cells still free, over a bitmap that lives for this
        call, and ``rng`` ends where those scalar draws leave it.  When
        the compiled tier is enabled and already loaded
        (:func:`~repro.core.engine.compiled.is_loaded`; sampling never
        starts a build) the picks are drawn by one kernel call
        (:func:`~repro.core.engine.compiled.distinct_cells`, the same
        draws through the generator's own ``bitgen_t``); otherwise on
        :class:`~repro.seeding.BulkDraws`.
        """
        from repro.core.engine import compiled

        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        region = self.bounds if within is None else within.intersection(self.bounds)
        width = self.width
        bitmap = bytearray(self.n_cells)
        for x, y in occupied:
            if 0 <= x < width and 0 <= y < self.height:
                bitmap[y * width + x] = 1
        grid_view = np.frombuffer(bitmap, dtype=np.uint8).reshape(self.height, width)
        taken = int(grid_view[region.y0 : region.y1, region.x0 : region.x1].sum())
        available = region.area - taken
        if count > available:
            raise ValueError(
                f"cannot place {count} nodes in a region with only "
                f"{available} free cells"
            )
        if not count:
            return []
        bounds = (region.x0, region.y0, region.x1, region.y1)
        if compiled.is_loaded():
            picks = compiled.distinct_cells(
                rng, bitmap, width, self.height, bounds, count
            )
        else:
            picks = []
            with BulkDraws(rng, words=count + 16) as draws:
                for _ in range(count):
                    index = self.random_free_index(bitmap, draws, *bounds)
                    bitmap[index] = 1
                    picks.append(index)
        return [Point(index % width, index // width) for index in picks]
