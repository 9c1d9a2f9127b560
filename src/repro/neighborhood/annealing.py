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

Every step is a single move off the incumbent, accepted or rejected
before the next is drawn, so the loop runs on one chain of the
engine's incremental cache,
:class:`~repro.core.engine.stacked.StackedDeltaEngine`:
:meth:`~repro.core.engine.stacked.StackedDeltaEngine.measure_one`
recomputes only the state the moved routers touch (matrix rows/columns
at paper scale, sparse edge/coverage-hit arrays on city-scale
instances — the engine dispatch picks automatically), and an accepted
candidate's state is adopted on commit.  Results and evaluation counts
are bit-identical to measuring every candidate with the reference
evaluator (asserted against a frozen copy of the loop by
``tests/neighborhood/test_local_search_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.anytime.deadline import DEFAULT_CLOCK
from repro.core.engine.stacked import StackedDeltaEngine
from repro.core.evaluation import Evaluator
from repro.core.problem import check_start_placement
from repro.core.solution import Placement
from repro.neighborhood.movements import MovementType
from repro.neighborhood.trace import SearchResult, SearchTrace

if TYPE_CHECKING:
    from repro.anytime.deadline import Deadline

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


class SimulatedAnnealing:
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

    def run(
        self,
        evaluator: Evaluator,
        initial: Placement,
        rng: np.random.Generator,
        deadline: "Deadline | None" = None,
    ) -> SearchResult:
        """Anneal from ``initial``; returns the best solution and trace.

        ``deadline`` is polled once per phase boundary (cooperative
        cancellation, never mid-phase): when it fires the run stops and
        returns the tracked best with ``stopped_by`` set — always a
        valid evaluated incumbent, even for an already-expired deadline.
        """
        problem = evaluator.problem
        check_start_placement(problem, initial, label="start placement")
        started = DEFAULT_CLOCK.now()
        evaluations_before = evaluator.n_evaluations
        current = evaluator.evaluate(initial)
        # The delta engine follows the evaluator's resolved engine, so a
        # forced dense/sparse choice applies to the whole run.
        engine = StackedDeltaEngine(
            problem, evaluator.fitness_function, engine=evaluator.engine
        )
        engine.reset_chain(0, initial)
        best = current
        trace = SearchTrace()
        trace.record_phase(
            phase=0,
            evaluation=current,
            improved=False,
            n_evaluations=evaluator.n_evaluations - evaluations_before,
        )
        phases_done = 0
        stopped_by: str | None = None
        for phase in range(1, self.max_phases + 1):
            if deadline is not None:
                stopped_by = deadline.stop_reason()
                if stopped_by is not None:
                    break
            phases_done = phase
            temperature = self.schedule.temperature_at(phase)
            improved_this_phase = False
            for _ in range(self.moves_per_phase):
                move = self.movement.propose(current, problem, rng)
                if move is None:
                    continue
                try:
                    placement = move.apply(current.placement)
                except ValueError:  # repro-lint: disable=RL007
                    # Invalid move for the current placement; skip it.
                    continue
                candidate = engine.measure_one(0, placement)
                evaluator.count()
                delta = candidate.fitness - current.fitness
                if delta >= 0 or rng.uniform() < math.exp(delta / temperature):
                    engine.commit_chain(0, placement)
                    current = candidate
                    if current.fitness > best.fitness:
                        best = current
                        improved_this_phase = True
            trace.record_phase(
                phase=phase,
                evaluation=current,
                improved=improved_this_phase,
                n_evaluations=evaluator.n_evaluations - evaluations_before,
            )
        return SearchResult(
            best=best,
            trace=trace,
            n_phases=phases_done,
            n_evaluations=evaluator.n_evaluations - evaluations_before,
            stopped_by=stopped_by,
            elapsed_seconds=DEFAULT_CLOCK.now() - started,
        )

    def __repr__(self) -> str:
        return (
            f"SimulatedAnnealing(movement={self.movement!r}, "
            f"schedule={self.schedule!r}, max_phases={self.max_phases}, "
            f"moves_per_phase={self.moves_per_phase})"
        )
