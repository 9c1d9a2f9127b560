"""Local moves on placements, as integer rows.

A *move* is a small, concrete perturbation of one placement — the "local
moves" of Section 4: one router relocated to a free cell, or two routers
exchanging positions (Algorithm 3).  Every movement proposes its moves
as rows of a :class:`MoveBatch`, and the search driver validates,
measures and applies them on those rows
(:mod:`repro.neighborhood.multichain`); a move is never built as an
object.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["MoveBatch"]


class MoveBatch:
    """One chain's candidate moves as integer arrays.

    Row ``k`` of :attr:`table` is ``(kind, router, partner, x, y)``:
    ``kind`` is :attr:`NONE` (no move available), :attr:`RELOCATE`
    (``router`` to cell ``(x, y)``) or :attr:`SWAP` (``router`` with
    ``partner``); unused columns hold ``-1``.  ``len`` is the candidate
    count, and two batches are equal when their tables are.
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

    def __len__(self) -> int:
        return len(self.table)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MoveBatch):
            return np.array_equal(self.table, other.table)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"MoveBatch({self.table.tolist()!r})"
