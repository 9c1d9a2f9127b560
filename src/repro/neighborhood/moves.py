"""Local moves on placements.

A *move* is a small, concrete perturbation of one placement — the "local
moves" of Section 4.  Moves are immutable descriptions; applying one
yields a new placement and never mutates the original, so the search can
evaluate many candidate moves against the same current solution.

:class:`MoveBatch` is the array form the lockstep search samples into:
one chain's proposals for a phase as integer columns, read as a sequence
of moves that are only built when asked for.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.geometry import Point
from repro.core.solution import Placement

__all__ = ["Move", "SwapMove", "RelocateMove", "MoveBatch"]


class Move(abc.ABC):
    """A reproducible perturbation of a placement."""

    @abc.abstractmethod
    def apply(self, placement: Placement) -> Placement:
        """The placement after performing this move.

        Raises ``ValueError`` when the move is invalid for ``placement``
        (e.g. the target cell is now occupied); proposers treat that as
        "candidate unavailable" and skip it.
        """

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable one-liner for traces and logs."""


@dataclass(frozen=True, slots=True)
class SwapMove(Move):
    """Exchange the positions of two routers (Algorithm 3, literal).

    The occupied-cell set is invariant under this move; only the
    assignment of router hardware (radii) to positions changes.
    """

    router_a: int
    router_b: int

    def __post_init__(self) -> None:
        if self.router_a == self.router_b:
            raise ValueError("a swap needs two distinct routers")

    def apply(self, placement: Placement) -> Placement:
        return placement.with_swap(self.router_a, self.router_b)

    def describe(self) -> str:
        return f"swap(router {self.router_a} <-> router {self.router_b})"


@dataclass(frozen=True, slots=True)
class RelocateMove(Move):
    """Move one router to a new (free) cell.

    This is the relocating reading of the swap movement (the strong
    router moves into the dense window, the reading consistent with the
    growth of Fig. 4) and the primitive behind the purely random
    movement the paper compares against.
    """

    router_id: int
    target: Point

    def apply(self, placement: Placement) -> Placement:
        return placement.with_move(self.router_id, self.target)

    def describe(self) -> str:
        return f"relocate(router {self.router_id} -> {tuple(self.target)})"


class MoveBatch(Sequence):
    """One chain's candidate moves as integer arrays.

    Row ``k`` of :attr:`table` is ``(kind, router, partner, x, y)``:
    ``kind`` is :attr:`NONE` (no move available), :attr:`RELOCATE`
    (``router`` to cell ``(x, y)``) or :attr:`SWAP` (``router`` with
    ``partner``); unused columns hold ``-1``.  The batch reads as a
    ``Sequence[Move | None]`` — ``len`` is the candidate count, indexing
    and iteration build the moves lazily, and it compares equal to the
    list of moves it stands for — so the search layer can validate and
    measure whole phases on the columns and build a :class:`Move` only
    for the candidate it accepts.
    """

    NONE, RELOCATE, SWAP = 0, 1, 2
    #: The row of a candidate slot with no move.
    NO_MOVE = (NONE, -1, -1, -1, -1)

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray) -> None:
        self.table = table

    @classmethod
    def from_rows(cls, rows: "Sequence[tuple[int, int, int, int, int]]") -> "MoveBatch":
        """A batch from ``(kind, router, partner, x, y)`` rows."""
        return cls(np.array(rows, dtype=np.intp).reshape(-1, 5))

    @classmethod
    def move(cls, row: "Sequence[int]") -> "Move | None":
        """The move of one ``(kind, router, partner, x, y)`` row."""
        kind, router, partner, x, y = row
        if kind == cls.RELOCATE:
            return RelocateMove(router_id=router, target=Point(x, y))
        if kind == cls.SWAP:
            return SwapMove(router_a=router, router_b=partner)
        return None

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, index: int) -> "Move | None":
        return self.move(self.table[index].tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MoveBatch):
            return np.array_equal(self.table, other.table)
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"MoveBatch({list(self)!r})"

