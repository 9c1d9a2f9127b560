"""Neighborhood search (paper Algorithm 1).

"The main idea is exploring the neighborhood of an initial solution by
means of local moves and iterate until a stopping condition is met."

:class:`NeighborhoodSearch` is the paper's algorithm: per phase it asks
:func:`~repro.neighborhood.best_neighbor.best_neighbor` for the best
sampled neighbor and moves there when it improves (or ties, if sideways
steps are enabled).  Each phase's candidate set is evaluated as one
batch through the vectorized engine (see :mod:`repro.core.engine`) with
unchanged results and evaluation counts.  The run returns a
:class:`SearchResult` holding the best solution and the full phase trace
used by Figure 4.

Stopping conditions: a phase budget (``max_phases``, the figure's x
axis), an optional patience (``stall_phases`` without improvement) and
an optional fitness target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.anytime.deadline import DEFAULT_CLOCK
from repro.core.evaluation import Evaluation, Evaluator
from repro.core.solution import Placement
from repro.neighborhood.best_neighbor import best_neighbor
from repro.neighborhood.movements import MovementType
from repro.neighborhood.trace import SearchTrace

if TYPE_CHECKING:
    from repro.anytime.deadline import Deadline

__all__ = ["SearchResult", "NeighborhoodSearch"]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one local search run.

    ``stopped_by`` is ``None`` for a run that exhausted its budget (or
    met its stall/target condition) and ``"deadline"``/``"cancelled"``
    when a :class:`~repro.anytime.deadline.Deadline` stopped it early —
    the returned ``best`` is still a fully evaluated incumbent either
    way.  ``elapsed_seconds`` is wall-clock (excluded from equality:
    two bit-identical runs never have identical timings).
    """

    best: Evaluation
    trace: SearchTrace
    n_phases: int
    n_evaluations: int
    stopped_by: str | None = None
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def giant_size(self) -> int:
        """Giant component size of the best solution found."""
        return self.best.giant_size

    @property
    def covered_clients(self) -> int:
        """Covered clients of the best solution found."""
        return self.best.covered_clients


class NeighborhoodSearch:
    """Best-improvement local search over a movement type.

    Parameters
    ----------
    movement:
        The neighborhood structure (swap, random, combined...).
    n_candidates:
        Neighbors sampled per phase (Algorithm 2's "pre-fixed number of
        movements").
    max_phases:
        Hard phase budget.
    stall_phases:
        Stop after this many consecutive phases without improvement
        (``None`` disables early stopping, as in Fig. 4 where plateaus
        persist across phases).
    accept_equal:
        Whether to move sideways on fitness ties (helps escape plateaus
        without a worsening step).
    """

    def __init__(
        self,
        movement: MovementType,
        n_candidates: int = 16,
        max_phases: int = 64,
        stall_phases: int | None = None,
        accept_equal: bool = False,
    ) -> None:
        if n_candidates <= 0:
            raise ValueError(f"n_candidates must be positive, got {n_candidates}")
        if max_phases <= 0:
            raise ValueError(f"max_phases must be positive, got {max_phases}")
        if stall_phases is not None and stall_phases <= 0:
            raise ValueError(
                f"stall_phases must be positive or None, got {stall_phases}"
            )
        self.movement = movement
        self.n_candidates = n_candidates
        self.max_phases = max_phases
        self.stall_phases = stall_phases
        self.accept_equal = accept_equal

    def run(
        self,
        evaluator: Evaluator,
        initial: Placement,
        rng: np.random.Generator,
        fitness_target: float | None = None,
        deadline: "Deadline | None" = None,
    ) -> SearchResult:
        """Search from ``initial``; returns best solution and trace.

        ``deadline`` is polled once per phase boundary (cooperative
        cancellation): when it fires the loop stops *before* the next
        phase and returns the best incumbent so far with
        ``stopped_by`` set.  An already-expired deadline still
        evaluates the initial placement, so the result is always a
        valid evaluated solution.  With ``deadline=None`` the run is
        bit-identical to one without deadline support.
        """
        started = DEFAULT_CLOCK.now()
        evaluations_before = evaluator.n_evaluations
        # One capability probe per run instead of one per phase.
        evaluate_many = getattr(evaluator, "evaluate_many", None)
        current = evaluator.evaluate(initial)
        best = current
        trace = SearchTrace()
        trace.record_phase(
            phase=0,
            evaluation=current,
            improved=False,
            n_evaluations=evaluator.n_evaluations - evaluations_before,
        )
        stall = 0
        phase = 0
        stopped_by: str | None = None
        for next_phase in range(1, self.max_phases + 1):
            if deadline is not None:
                stopped_by = deadline.stop_reason()
                if stopped_by is not None:
                    break
            phase = next_phase
            candidate = best_neighbor(
                evaluator,
                current,
                self.movement,
                rng,
                n_candidates=self.n_candidates,
                evaluate_many=evaluate_many,
            )
            improved = False
            if candidate is not None:
                accept = candidate.fitness > current.fitness or (
                    self.accept_equal and candidate.fitness == current.fitness
                )
                if accept:
                    improved = candidate.fitness > current.fitness
                    current = candidate
                    if current.fitness > best.fitness:
                        best = current
            trace.record_phase(
                phase=phase,
                evaluation=current,
                improved=improved,
                n_evaluations=evaluator.n_evaluations - evaluations_before,
            )
            stall = 0 if improved else stall + 1
            if fitness_target is not None and best.fitness >= fitness_target:
                break
            if self.stall_phases is not None and stall >= self.stall_phases:
                break
        return SearchResult(
            best=best,
            trace=trace,
            n_phases=phase,
            n_evaluations=evaluator.n_evaluations - evaluations_before,
            stopped_by=stopped_by,
            elapsed_seconds=DEFAULT_CLOCK.now() - started,
        )

    def __repr__(self) -> str:
        return (
            f"NeighborhoodSearch(movement={self.movement!r}, "
            f"n_candidates={self.n_candidates}, max_phases={self.max_phases}, "
            f"stall_phases={self.stall_phases}, accept_equal={self.accept_equal})"
        )
