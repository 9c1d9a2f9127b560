"""Simulated annealing over placement movements.

The paper closes with "we are currently implementing full featured local
search methods for the mesh router nodes placement" — the authors' own
follow-up line of work (WMN-SA) is simulated annealing over exactly this
movement model.  This module provides that extension: hill climbing with
a temperature-controlled probability of accepting worsening moves, which
escapes the local optima the plain neighborhood search plateaus on.

The trace format matches :class:`~repro.neighborhood.search.SearchResult`
so the ablation bench can overlay SA, tabu and the paper's search on the
same axes.

:class:`SimulatedAnnealing` runs as a one-chain
:class:`~repro.neighborhood.multichain.MultiChainSearch` on the
Metropolis rule (``solve_batch`` runs its replicates as the chains of
one driver).  Every step is a single move off the incumbent, accepted
or rejected before the next is drawn, so a phase of ``moves_per_phase``
moves is as many lockstep sub-steps of one candidate per chain.  Each
sub-step is one
:meth:`~repro.neighborhood.movements.MovementType.propose_batch` call
across the chains (the sampler the best-improvement searches draw whole
phases from) and one
:meth:`~repro.core.engine.stacked.StackedDeltaEngine.measure_phase`,
which recomputes only the state the moved routers touch (matrix
rows/columns at paper scale, sparse edge/coverage-hit arrays on
city-scale instances — the engine dispatch picks automatically); an
accepted move is committed to the chain's cache.  Results and
evaluation counts are bit-identical to measuring every candidate with
the reference evaluator (asserted against a frozen copy of the loop by
``tests/neighborhood/test_local_search_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.neighborhood.movements import MovementType
from repro.neighborhood.multichain import (
    MultiChainSearch,
    _Metropolis,
    _OneChainSearch,
)

__all__ = ["AnnealingSchedule", "SimulatedAnnealing"]


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling schedule.

    Temperature starts at ``initial_temperature`` and is multiplied by
    ``cooling_rate`` after every phase, never dropping below
    ``floor_temperature`` (a strictly positive floor keeps the
    acceptance probability well-defined).
    """

    initial_temperature: float = 0.05
    cooling_rate: float = 0.95
    floor_temperature: float = 1e-6

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise ValueError(
                f"initial_temperature must be positive, got "
                f"{self.initial_temperature}"
            )
        if not 0.0 < self.cooling_rate <= 1.0:
            raise ValueError(
                f"cooling_rate must be in (0, 1], got {self.cooling_rate}"
            )
        if self.floor_temperature <= 0:
            raise ValueError(
                f"floor_temperature must be positive, got {self.floor_temperature}"
            )

    def temperature_at(self, phase: int) -> float:
        """Temperature for the given phase (phase 1 = initial)."""
        if phase < 1:
            raise ValueError(f"phase must be >= 1, got {phase}")
        value = self.initial_temperature * self.cooling_rate ** (phase - 1)
        return max(value, self.floor_temperature)


class SimulatedAnnealing(_OneChainSearch):
    """Metropolis acceptance over a movement type.

    Per phase, ``moves_per_phase`` single moves are proposed; improving
    moves are always taken, worsening ones with probability
    ``exp(delta / T)`` where ``delta`` is the (negative) fitness change.
    """

    def __init__(
        self,
        movement: MovementType,
        schedule: AnnealingSchedule | None = None,
        max_phases: int = 64,
        moves_per_phase: int = 16,
    ) -> None:
        if max_phases <= 0:
            raise ValueError(f"max_phases must be positive, got {max_phases}")
        if moves_per_phase <= 0:
            raise ValueError(
                f"moves_per_phase must be positive, got {moves_per_phase}"
            )
        self.movement = movement
        self.schedule = schedule if schedule is not None else AnnealingSchedule()
        self.max_phases = max_phases
        self.moves_per_phase = moves_per_phase

    def _chains(self, engine: str) -> MultiChainSearch:
        return MultiChainSearch._with_rule(
            _Metropolis(self.schedule),
            self.movement,
            n_candidates=self.moves_per_phase,
            max_phases=self.max_phases,
            engine=engine,
        )

    def __repr__(self) -> str:
        return (
            f"SimulatedAnnealing(movement={self.movement!r}, "
            f"schedule={self.schedule!r}, max_phases={self.max_phases}, "
            f"moves_per_phase={self.moves_per_phase})"
        )
