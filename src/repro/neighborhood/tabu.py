"""Tabu search over placement movements.

The second "full featured local search method" extension (the authors'
follow-up line also includes WMN-TS).  Classic short-term-memory tabu
search: the best sampled neighbor is taken even when worsening, recently
touched routers are tabu for ``tenure`` phases, and an aspiration
criterion overrides the tabu status of a move that beats the global
best.

Every candidate is one move off the incumbent, so the sampling loop runs
on the incremental :class:`~repro.core.engine.delta.DeltaEvaluator`: the
incumbent's state is cached (adjacency/coverage matrices at paper
scale, sparse edge/coverage-hit arrays on city-scale instances — the
engine dispatch picks automatically) and each candidate recomputes only
what its move touches.  The chosen neighbor is then committed as the
new incumbent.  Results and evaluation counts are bit-identical to the
scalar path.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.anytime.deadline import DEFAULT_CLOCK
from repro.core.engine.delta import DeltaEvaluator
from repro.core.evaluation import Evaluator
from repro.core.problem import check_start_placement
from repro.core.solution import Placement
from repro.neighborhood.moves import Move, RelocateMove, SwapMove
from repro.neighborhood.movements import MovementType
from repro.neighborhood.trace import SearchResult, SearchTrace

if TYPE_CHECKING:
    from repro.anytime.deadline import Deadline

__all__ = ["TabuSearch"]


def _touched_routers(move: Move) -> tuple[int, ...]:
    """The router ids a move modifies (used as the tabu attribute)."""
    if isinstance(move, SwapMove):
        return (move.router_a, move.router_b)
    if isinstance(move, RelocateMove):
        return (move.router_id,)
    return ()


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
        check_start_placement(evaluator.problem, initial, label="start placement")
        started = DEFAULT_CLOCK.now()
        evaluations_before = evaluator.n_evaluations
        # The delta engine follows the evaluator's resolved engine, so a
        # forced dense/sparse choice applies to the whole run.
        engine = DeltaEvaluator(evaluator, engine=evaluator.engine)
        current = engine.reset(initial)
        best = current
        trace = SearchTrace()
        trace.record_phase(
            phase=0,
            evaluation=current,
            improved=False,
            n_evaluations=evaluator.n_evaluations - evaluations_before,
        )
        # Router id -> phase until which it is tabu; a deque of
        # (router, expiry) keeps eviction O(1).
        tabu_until: dict[int, int] = {}
        expiry_queue: deque[tuple[int, int]] = deque()

        phases_done = 0
        stopped_by: str | None = None
        for phase in range(1, self.max_phases + 1):
            if deadline is not None:
                stopped_by = deadline.stop_reason()
                if stopped_by is not None:
                    break
            phases_done = phase
            while expiry_queue and expiry_queue[0][1] <= phase:
                router, expiry = expiry_queue.popleft()
                if tabu_until.get(router) == expiry:
                    del tabu_until[router]

            chosen = None
            chosen_move: Move | None = None
            for _ in range(self.n_candidates):
                move = self.movement.propose(current, evaluator.problem, rng)
                if move is None:
                    continue
                try:
                    candidate = engine.propose(move)
                except ValueError:  # repro-lint: disable=RL007
                    # Invalid move for the current placement; skip it.
                    continue
                is_tabu = any(
                    tabu_until.get(router, 0) > phase
                    for router in _touched_routers(move)
                )
                # Aspiration: a tabu move that improves the global best
                # is always admissible.
                if is_tabu and candidate.fitness <= best.fitness:
                    continue
                if chosen is None or candidate.fitness > chosen.fitness:
                    chosen = candidate
                    chosen_move = move
            improved = False
            if chosen is not None:
                # Tabu search always moves to the best admissible
                # neighbor, even when it worsens the incumbent.
                engine.commit(chosen)
                current = chosen
                if current.fitness > best.fitness:
                    best = current
                    improved = True
                if chosen_move is not None and self.tenure > 0:
                    for router in _touched_routers(chosen_move):
                        expiry = phase + self.tenure
                        tabu_until[router] = expiry
                        expiry_queue.append((router, expiry))
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
