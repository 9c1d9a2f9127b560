"""Neighborhood search methods (paper Section 4) and extensions.

The paper's Algorithm 1 (best-improvement neighborhood search),
Algorithm 2 (sampled best-neighbor selection) and Algorithm 3 (the swap
movement), the purely-random movement baseline, plus the "full featured
local search methods" announced as future work: simulated annealing and
tabu search.  Every local search runs on the lockstep multi-chain
driver (:mod:`repro.neighborhood.multichain`), which executes whole
replication portfolios through one stacked evaluation per phase.  Its
chains step by one of three rules: best improvement (the default;
:class:`NeighborhoodSearch` is its one-chain case), tabu
(:meth:`MultiChainSearch.tabu`) and Metropolis
(:meth:`MultiChainSearch.annealing`, cooled by an
:class:`AnnealingSchedule`).
"""

from repro.neighborhood.annealing import AnnealingSchedule
from repro.neighborhood.moves import MoveBatch
from repro.neighborhood.multichain import MultiChainSearch, chain_generators
from repro.neighborhood.movements import (
    CombinedMovement,
    MovementType,
    RandomMovement,
    SwapMovement,
)
from repro.neighborhood.registry import (
    available_movements,
    make_movement,
    movement_factory,
    register_movement,
)
from repro.neighborhood.search import NeighborhoodSearch, SearchResult
from repro.neighborhood.trace import PhaseRecord, SearchTrace

__all__ = [
    "AnnealingSchedule",
    "chain_generators",
    "MultiChainSearch",
    "MoveBatch",
    "CombinedMovement",
    "MovementType",
    "RandomMovement",
    "SwapMovement",
    "available_movements",
    "make_movement",
    "movement_factory",
    "register_movement",
    "NeighborhoodSearch",
    "SearchResult",
    "PhaseRecord",
    "SearchTrace",
]
