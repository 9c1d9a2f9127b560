"""Placement solutions.

A solution to the mesh router placement problem assigns every router of
the fleet to a distinct grid cell.  :class:`Placement` is that
assignment.  It is an immutable value object: search operators derive a
new placement by writing into a copy of a parent's cell array instead of
mutating in place, which keeps traces, populations and tabu lists safe to
share.

The assignment is stored as a read-only int ``(N, 2)`` array of
``(x, y)`` cells, which the GA operators, the search driver and the
engines work on directly.  The ``occupied`` set and the float
``positions_array()`` are built on first use and cached, so code that
only handles arrays never pays for them; a derived placement starts
without them.  The
:class:`~repro.core.geometry.Point` tuple ``cells`` is built per call
and never kept: at city scale it is ~13x the bytes of the cell array,
and results and traces keep placements alive.  A placement never stores
a ``W x H`` occupancy bitmap: operators that need one build it for the
duration of one call.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.geometry import Point, cell_array
from repro.core.grid import GridArea

__all__ = ["Placement"]

#: Storage dtype of the cell array (half the bytes of int64 per placement).
#: Validation runs in int64 first, so no out-of-range coordinate can wrap
#: into the grid on the way in.
_CELL_DTYPE = np.int32


class Placement:
    """An assignment of router ids to distinct grid cells.

    ``cells[i]`` (or row ``i`` of :meth:`cells_array`) is the position of
    router ``i``.  The constructor enforces the two structural invariants
    of the problem: every cell is inside the grid and no two routers
    share a cell.
    """

    __slots__ = ("_grid", "_array", "_occupied", "_positions", "_hash")

    def __init__(self, grid: GridArea, cells: "Sequence[Point] | np.ndarray") -> None:
        array = cell_array(cells)
        if len(array) == 0:
            raise ValueError("a placement must position at least one router")
        # A negative coordinate wraps to a huge unsigned value, so one
        # comparison checks both grid edges of both axes.
        inside = array.view(np.uint64) < np.array(
            (grid.width, grid.height), dtype=np.uint64
        )
        if not inside.all():
            first = int(np.flatnonzero(~inside.all(axis=1))[0])
            grid.require_inside(Point(*array[first].tolist()))
        flat = np.sort(array[:, 1] * grid.width + array[:, 0])
        if (flat[1:] == flat[:-1]).any():
            raise ValueError("placement has two routers on the same cell")
        self._init(grid, array.astype(_CELL_DTYPE))

    def _init(self, grid: GridArea, array: np.ndarray) -> None:
        array.setflags(write=False)
        self._grid = grid
        self._array = array
        self._occupied: frozenset[Point] | None = None
        self._positions: np.ndarray | None = None
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, grid: GridArea, array: np.ndarray) -> "Placement":
        """Wrap an int ``(N, 2)`` array already known to satisfy the invariants.

        Takes ownership of ``array`` (it becomes read-only).  The operators
        that derive a placement from a valid one use this to skip the
        re-validation :meth:`from_cells` performs.
        """
        placement = cls.__new__(cls)
        placement._init(grid, array)
        return placement

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_cells(
        cls, grid: GridArea, cells: "Sequence[Point] | np.ndarray"
    ) -> "Placement":
        """Build a placement from ordered cells: ``Point`` pairs or an int ``(N, 2)`` array."""
        return cls(grid, cells)

    @classmethod
    def from_cell_arrays(
        cls, grid: GridArea, arrays: "Sequence[np.ndarray]"
    ) -> "list[Placement]":
        """One placement per int ``(N, 2)`` cell array, checked together.

        The arrays are stacked and checked in one :meth:`check_stack`
        pass.  Arrays of differing or malformed shapes are built one by
        one.
        """
        if not arrays:
            return []
        shape = arrays[0].shape
        if (
            len(shape) != 2
            or shape[0] == 0
            or shape[1] != 2
            or any(array.shape != shape for array in arrays)
        ):
            return [cls.from_cells(grid, array) for array in arrays]
        stack = np.stack(arrays)
        cls.check_stack(grid, stack)
        return [cls._trusted(grid, row.copy()) for row in stack.astype(_CELL_DTYPE)]

    @classmethod
    def check_stack(cls, grid: GridArea, stack: np.ndarray) -> None:
        """Check the rows of an int ``(K, N, 2)`` cell stack, ``N >= 1``,
        in one vectorised pass and without building a placement.

        Every cell must lie inside the grid and no row may repeat a
        cell; the first row that fails raises what :meth:`from_cells`
        raises for it.
        """
        wide = stack.astype(np.int64, copy=False)
        inside = (
            wide.view(np.uint64) < np.array((grid.width, grid.height), dtype=np.uint64)
        ).all(axis=(1, 2))
        flat = np.sort(wide[:, :, 1] * grid.width + wide[:, :, 0], axis=1)
        repeated = (flat[:, 1:] == flat[:, :-1]).any(axis=1)
        bad = ~inside | repeated
        if bad.any():
            # Raises the constructor's error for the first bad row.
            cls(grid, stack[int(np.argmax(bad))])

    @classmethod
    def random(
        cls, grid: GridArea, count: int, rng: np.random.Generator
    ) -> "Placement":
        """Uniformly random placement of ``count`` routers."""
        return cls.from_cells(grid, grid.sample_distinct_cells(count, rng))

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    @property
    def grid(self) -> GridArea:
        """The grid the routers are placed on."""
        return self._grid

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._grid == other._grid and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        if self._hash is None:
            # The hash the frozen-dataclass form had; ints and tuples of
            # ints hash the same in every process (no string salting).
            self._hash = hash((self._grid, self.cells))  # repro-lint: disable=RL001
        return self._hash

    def __reduce__(self):
        return (Placement._trusted, (self._grid, self._array))

    def __repr__(self) -> str:
        return f"Placement(grid={self._grid!r}, cells={self.cells!r})"

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._array)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.cells)

    def __getitem__(self, router_id: int) -> Point:
        if isinstance(router_id, slice):
            return self.cells[router_id]
        x, y = self._array[router_id].tolist()
        return Point(x, y)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def cells(self) -> tuple[Point, ...]:
        """The router cells as ``Point`` tuples (built on every call)."""
        xs, ys = self._array.T.tolist()
        return tuple(map(Point, xs, ys))

    def cells_array(self) -> np.ndarray:
        """Read-only int ``(N, 2)`` array of router cells (id order)."""
        return self._array

    @property
    def occupied(self) -> frozenset[Point]:
        """The set of occupied cells."""
        if self._occupied is None:
            self._occupied = frozenset(self.cells)
        return self._occupied

    def positions_array(self) -> np.ndarray:
        """``(N, 2)`` float array of router coordinates (id order).

        Computed lazily and cached (the placement is immutable); the
        array is read-only because network, coverage and density all
        share it.
        """
        if self._positions is None:
            positions = self._array.astype(float)
            positions.setflags(write=False)
            self._positions = positions
        return self._positions

    def as_mapping(self) -> Mapping[int, Point]:
        """Router id -> cell dictionary view (a fresh dict)."""
        return dict(enumerate(self.cells))
