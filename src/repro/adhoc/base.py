"""Framework for the ad hoc placement methods (paper Section 3).

Ad hoc methods "are simple methods that explore different possible
placement topologies", useful both stand-alone and as initializers of
evolutionary algorithms.  The paper notes that "in all considered
methods, there is a pattern in placement of mesh router nodes, meaning
that *most* of the node placements follow the pattern" — modeled here by
``pattern_fraction``: that share of the fleet is placed by the method's
pattern, the remainder uniformly at random.

:class:`PatternedAdHocMethod` implements the shared machinery (pattern /
filler split, collision nudging, bounds enforcement); concrete methods
only produce their pattern cells.  HotSpot, which must additionally
assign *specific* routers (by power) to specific zones, overrides
:meth:`AdHocMethod.place` directly.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Iterable, Sequence

import numpy as np

from repro.core.geometry import Point, cell_array
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.solution import Placement

__all__ = [
    "AdHocMethod",
    "PatternedAdHocMethod",
    "MethodNotApplicableError",
    "nudge_to_free",
    "resolve_collisions",
]


class MethodNotApplicableError(ValueError):
    """Raised when a method's applicability conditions are violated.

    Several ad hoc methods come with conditions on the grid ("height and
    width must have similar values" for Diag/Cross); in strict mode these
    raise instead of silently producing a degenerate pattern.
    """


def nudge_to_free(
    grid: GridArea,
    cell: Point,
    taken: set[Point],
    rng: np.random.Generator,
    max_radius: int | None = None,
) -> Point:
    """The nearest free cell to ``cell`` (Chebyshev rings, random ties).

    Pattern anchors of different routers can coincide (short diagonals,
    small corner zones); the colliding router is nudged to the closest
    free cell so the pattern stays visually intact.
    """
    start = grid.bounds.clamped(cell)
    if start not in taken:
        return start
    limit = max_radius if max_radius is not None else max(grid.width, grid.height)
    for radius in range(1, limit + 1):
        ring: list[Point] = []
        for dx in range(-radius, radius + 1):
            for dy in (-radius, radius):
                candidate = Point(start.x + dx, start.y + dy)
                if grid.contains(candidate) and candidate not in taken:
                    ring.append(candidate)
        for dy in range(-radius + 1, radius):
            for dx in (-radius, radius):
                candidate = Point(start.x + dx, start.y + dy)
                if grid.contains(candidate) and candidate not in taken:
                    ring.append(candidate)
        if ring:
            return ring[int(rng.integers(0, len(ring)))]
    raise ValueError("no free cell available on the grid")


def resolve_collisions(
    grid: GridArea,
    cells: "Iterable[Point] | np.ndarray",
    rng: np.random.Generator,
    taken: Sequence[Point] = (),
) -> "list[Point] | np.ndarray":
    """Make ``cells`` distinct (and distinct from ``taken``) by nudging.

    Cells are placed in order, each one through :func:`nudge_to_free`.
    A cell that is inside the grid and still free when its turn comes
    stays where it is and draws nothing from ``rng``.  So every cell
    before the first out-of-grid, repeated or taken one is kept as is,
    found with one vectorised test, and only the cells from there on run
    the sequential nudge loop: the result and the RNG stream are those
    of nudging every cell in turn.

    ``cells`` may be ``Point`` pairs (a list of ``Point`` is returned)
    or an int ``(N, 2)`` array (a new int array is returned).
    """
    as_array = isinstance(cells, np.ndarray)
    array = cell_array(cells)
    n = len(array)
    xs, ys = array[:, 0], array[:, 1]
    inside = (xs >= 0) & (xs < grid.width) & (ys >= 0) & (ys < grid.height)
    # Out-of-grid cells get distinct negative keys so they repeat nothing.
    flat = np.where(inside, ys * grid.width + xs, -1 - np.arange(n))
    irregular = ~inside
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    # With a stable sort the later occurrence of a repeated key follows
    # the earlier one, so this marks every repeat but the first.
    irregular[order[1:][ordered[1:] == ordered[:-1]]] = True
    if taken:
        taken_flat = [cell[1] * grid.width + cell[0] for cell in taken]
        irregular |= np.isin(flat, taken_flat)
    first = int(np.argmax(irregular)) if irregular.any() else n
    if first < n:
        occupied = set(taken)
        occupied.update(map(Point, xs[:first].tolist(), ys[:first].tolist()))
        tail: list[Point] = []
        for x, y in array[first:].tolist():
            placed = nudge_to_free(grid, Point(x, y), occupied, rng)
            occupied.add(placed)
            tail.append(placed)
        array = np.concatenate([array[:first], np.array(tail, dtype=np.int64)])
    if as_array:
        return array
    return list(map(Point, array[:, 0].tolist(), array[:, 1].tolist()))


class AdHocMethod(abc.ABC):
    """A placement heuristic: problem instance -> full placement."""

    #: Registry name of the method (e.g. ``"hotspot"``).
    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def place(self, problem: ProblemInstance, rng: np.random.Generator) -> Placement:
        """Produce a placement of the whole fleet."""

    def is_applicable(self, grid: GridArea) -> bool:
        """Whether the method's grid-shape conditions hold (default: yes)."""
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PatternedAdHocMethod(AdHocMethod):
    """Shared engine for the pattern-based methods.

    Subclasses yield ``count`` pattern cells; this base class nudges
    collisions apart, places the remaining ``(1 - pattern_fraction)``
    share of the fleet uniformly at random and assembles the final
    :class:`Placement`.
    """

    def __init__(self, pattern_fraction: float = 0.9, strict: bool = False) -> None:
        if not 0.0 < pattern_fraction <= 1.0:
            raise ValueError(
                f"pattern_fraction must be in (0, 1], got {pattern_fraction}"
            )
        self.pattern_fraction = pattern_fraction
        self.strict = strict

    @abc.abstractmethod
    def pattern_cells(
        self, problem: ProblemInstance, count: int, rng: np.random.Generator
    ) -> list[Point]:
        """``count`` cells following the method's topology pattern.

        Cells may collide or leave the grid; the caller cleans up.
        """

    def place(self, problem: ProblemInstance, rng: np.random.Generator) -> Placement:
        if self.strict and not self.is_applicable(problem.grid):
            raise MethodNotApplicableError(
                f"{self.name} placement is not applicable to a "
                f"{problem.grid.width}x{problem.grid.height} grid"
            )
        n = problem.n_routers
        n_pattern = max(1, int(round(self.pattern_fraction * n)))
        n_pattern = min(n, n_pattern)
        raw = self.pattern_cells(problem, n_pattern, rng)
        if len(raw) != n_pattern:
            raise ValueError(
                f"{type(self).__name__} produced {len(raw)} pattern cells, "
                f"expected {n_pattern}"
            )
        cells = resolve_collisions(problem.grid, raw, rng)
        n_filler = n - n_pattern
        if n_filler > 0:
            cells.extend(
                problem.grid.sample_distinct_cells(n_filler, rng, occupied=cells)
            )
        return Placement.from_cells(problem.grid, cells)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(pattern_fraction={self.pattern_fraction}, "
            f"strict={self.strict})"
        )
