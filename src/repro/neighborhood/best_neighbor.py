"""Applying a sampled move to the incumbent (paper Algorithm 2).

"The exploration of the neighborhood can be done in different ways.  For
instance, we can systematically generate all movements ... or, in case
of large neighborhoods, just a pre-fixed number of movements is
generated and corresponding neighboring solutions are examined."

The placement neighborhoods here are large (every router x every free
cell), so the sampled variant is the work-horse: the lockstep driver
(:mod:`repro.neighborhood.multichain`) draws a pre-fixed number of
candidate moves per phase and keeps the fittest resulting solution.
:func:`apply_valid_move` decides whether a sampled move yields a
neighbor: the scalar reference of the validity rules the driver applies
on a whole phase's ``MoveBatch`` columns
(``repro.neighborhood.multichain._Phase.collect``).
"""

from __future__ import annotations

from repro.core.solution import Placement
from repro.neighborhood.moves import Move, RelocateMove

__all__ = ["apply_valid_move"]


def apply_valid_move(move: Move, placement: Placement) -> Placement | None:
    """``move`` applied to ``placement``, or ``None`` when it is stale.

    The common staleness — a relocation whose target cell is meanwhile
    occupied by another router — is pre-checked against the placement's
    cached occupancy set instead of paying a raised-and-caught
    ``ValueError`` per candidate.  Anything the pre-check does not cover
    (swaps, out-of-range ids) falls through to the ``ValueError`` that
    :meth:`~repro.neighborhood.moves.Move.apply` raises.
    """
    if type(move) is RelocateMove and move.target in placement.occupied:
        if (
            0 <= move.router_id < len(placement)
            and placement[move.router_id] == move.target
        ):
            # Relocating onto its own cell: with_move's documented no-op.
            return placement
        return None
    try:
        return move.apply(placement)
    except ValueError:
        return None
