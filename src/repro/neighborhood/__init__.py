"""Neighborhood search methods (paper Section 4) and extensions.

The paper's Algorithm 1 (best-improvement neighborhood search),
Algorithm 2 (sampled best-neighbor selection) and Algorithm 3 (the swap
movement), the purely-random movement baseline, plus the "full featured
local search methods" announced as future work: simulated annealing and
tabu search.  Every local search runs on the lockstep multi-chain
driver (:mod:`repro.neighborhood.multichain`), which executes whole
replication portfolios through one stacked evaluation per phase;
:class:`NeighborhoodSearch`, :class:`TabuSearch` and
:class:`SimulatedAnnealing` are its one-chain cases on the
best-improvement, tabu and Metropolis rules.
"""

from repro.neighborhood.annealing import AnnealingSchedule, SimulatedAnnealing
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
from repro.neighborhood.tabu import TabuSearch
from repro.neighborhood.trace import PhaseRecord, SearchTrace

__all__ = [
    "AnnealingSchedule",
    "SimulatedAnnealing",
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
    "TabuSearch",
    "PhaseRecord",
    "SearchTrace",
]
