"""Tabu search over placement movements.

The second "full featured local search method" extension (the authors'
follow-up line also includes WMN-TS).  Classic short-term-memory tabu
search: the best sampled neighbor is taken even when worsening, recently
touched routers are tabu for ``tenure`` phases, and an aspiration
criterion overrides the tabu status of a move that beats the global
best.

Each phase samples ``n_candidates`` moves off one incumbent and moves
to one of them: exactly one lockstep phase of one chain.  So the phase
is proposed through
:meth:`~repro.neighborhood.movements.MovementType.propose_batch`,
validated on the move columns the lockstep driver
(:mod:`repro.neighborhood.multichain`) uses, and measured by one
:meth:`~repro.core.engine.stacked.StackedDeltaEngine.measure_phase`
call against the cached incumbent (adjacency/coverage matrices at paper
scale, sparse edge/coverage-hit arrays on city-scale instances — the
engine dispatch picks automatically).  The tabu and aspiration rules
run on the fitness array, and only the chosen neighbor is built and
committed.  Results and evaluation counts are bit-identical to
measuring every candidate with the reference evaluator (asserted
against a frozen copy of the loop by
``tests/neighborhood/test_local_search_reference.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.anytime.deadline import DEFAULT_CLOCK
from repro.core.engine.stacked import StackedDeltaEngine
from repro.core.evaluation import Evaluator
from repro.core.problem import check_start_placement
from repro.core.solution import Placement
from repro.neighborhood.movements import MovementType
from repro.neighborhood.multichain import _Phase
from repro.neighborhood.trace import SearchResult, SearchTrace

if TYPE_CHECKING:
    from repro.anytime.deadline import Deadline

__all__ = ["TabuSearch"]


class TabuSearch:
    """Best-of-sample tabu search with router-attribute memory."""

    def __init__(
        self,
        movement: MovementType,
        tenure: int = 8,
        n_candidates: int = 16,
        max_phases: int = 64,
    ) -> None:
        if tenure < 0:
            raise ValueError(f"tenure must be non-negative, got {tenure}")
        if n_candidates <= 0:
            raise ValueError(f"n_candidates must be positive, got {n_candidates}")
        if max_phases <= 0:
            raise ValueError(f"max_phases must be positive, got {max_phases}")
        self.movement = movement
        self.tenure = tenure
        self.n_candidates = n_candidates
        self.max_phases = max_phases

    def run(
        self,
        evaluator: Evaluator,
        initial: Placement,
        rng: np.random.Generator,
        deadline: "Deadline | None" = None,
    ) -> SearchResult:
        """Search from ``initial``; returns the best solution and trace.

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
        # Phase until which each router is tabu.  The extra last slot is
        # never set, so the -1 "no router" entries of a candidate's
        # touched routers read as not tabu.
        tabu_until = np.zeros(problem.n_routers + 1, dtype=np.intp)

        phases_done = 0
        stopped_by: str | None = None
        for phase in range(1, self.max_phases + 1):
            if deadline is not None:
                stopped_by = deadline.stop_reason()
                if stopped_by is not None:
                    break
            phases_done = phase
            proposals = self.movement.propose_batch(
                [current], problem, [rng], self.n_candidates
            )
            sample = _Phase.collect([current.placement], [0], proposals, problem)
            measurement = engine.measure_phase(sample.candidates)
            evaluator.count(len(measurement))
            # The routers each candidate's move touches: a relocation
            # one, a swap two, another move type none.
            touched = sample.table[:, 1:3]
            is_tabu = (tabu_until[touched] > phase).any(axis=1)
            # Aspiration: a tabu move that improves the global best is
            # always admissible.
            admissible = np.flatnonzero(
                ~is_tabu | (measurement.fitness > best.fitness)
            )
            improved = False
            if admissible.size:
                # Tabu search always moves to the best admissible
                # neighbor (the first maximum), even when it worsens the
                # incumbent.
                chosen = int(
                    admissible[np.argmax(measurement.fitness[admissible])]
                )
                placement = sample.placement(chosen, current.placement)
                current = measurement.evaluation(chosen, placement)
                engine.commit_chain(0, placement)
                if current.fitness > best.fitness:
                    best = current
                    improved = True
                if self.tenure > 0:
                    routers = touched[chosen]
                    tabu_until[routers[routers >= 0]] = phase + self.tenure
            trace.record_phase(
                phase=phase,
                evaluation=current,
                improved=improved,
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
            f"TabuSearch(movement={self.movement!r}, tenure={self.tenure}, "
            f"n_candidates={self.n_candidates}, max_phases={self.max_phases})"
        )
