"""Corners placement (paper Section 3, method 6).

"This method distributes the mesh routers in the corners of the grid
area.  The considered areas in the corners are fixed by user specified
parameter values."

Pattern routers are dealt round-robin to the four corner zones and
placed uniformly inside each zone.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.adhoc.base import PatternedAdHocMethod
from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance

__all__ = ["CornersPlacement"]


class CornersPlacement(PatternedAdHocMethod):
    """Routers clustered in the four corner zones.

    ``zone_fraction`` sizes each corner zone relative to the grid
    (0.125 -> an eighth of each dimension); explicit ``zone_width`` /
    ``zone_height`` override it — the paper's "user specified parameter
    values".
    """

    name: ClassVar[str] = "corners"

    def __init__(
        self,
        zone_fraction: float = 0.125,
        zone_width: int | None = None,
        zone_height: int | None = None,
        pattern_fraction: float = 0.9,
        strict: bool = False,
    ) -> None:
        super().__init__(pattern_fraction=pattern_fraction, strict=strict)
        if not 0.0 < zone_fraction <= 0.5:
            raise ValueError(
                f"zone_fraction must be in (0, 0.5], got {zone_fraction}"
            )
        if zone_width is not None and zone_width <= 0:
            raise ValueError(f"zone_width must be positive, got {zone_width}")
        if zone_height is not None and zone_height <= 0:
            raise ValueError(f"zone_height must be positive, got {zone_height}")
        self.zone_fraction = zone_fraction
        self.zone_width = zone_width
        self.zone_height = zone_height

    def corner_zones(self, grid: GridArea) -> tuple[Rect, Rect, Rect, Rect]:
        """The four corner rectangles on the given grid."""
        width = (
            self.zone_width
            if self.zone_width is not None
            else max(1, int(round(grid.width * self.zone_fraction)))
        )
        height = (
            self.zone_height
            if self.zone_height is not None
            else max(1, int(round(grid.height * self.zone_fraction)))
        )
        return grid.corner_rects(min(width, grid.width), min(height, grid.height))

    def pattern_cells(
        self, problem: ProblemInstance, count: int, rng: np.random.Generator
    ) -> list[Point]:
        grid = problem.grid
        zones = self.corner_zones(grid)
        taken = bytearray(grid.n_cells)
        cells: list[Point] = []
        for index in range(count):
            zone = zones[index % len(zones)]
            # Sample inside the zone, tolerating a full zone by falling
            # back to the zone itself and letting the base class nudge.
            try:
                cell = grid.cell_at(
                    grid.random_free_index(
                        taken, rng, zone.x0, zone.y0, zone.x1, zone.y1
                    )
                )
            except ValueError:
                cell = zone.center
            taken[grid.cell_index(cell)] = 1
            cells.append(cell)
        return cells
