"""Neighborhood search (paper Algorithm 1).

"The main idea is exploring the neighborhood of an initial solution by
means of local moves and iterate until a stopping condition is met."

:class:`NeighborhoodSearch` is the paper's algorithm: per phase it
samples ``n_candidates`` neighbors from the movement type (Algorithm 2's
"pre-fixed number of movements"), and moves to the fittest one when it
improves (or ties, if sideways steps are enabled).  It runs as a
one-chain :class:`~repro.neighborhood.multichain.MultiChainSearch`, the
repository's one local-search loop, on its default best-improvement
rule and the evaluator's problem, fitness and engine tier, and charges
the run's evaluations to the evaluator.  The run returns a
:class:`SearchResult` holding the best solution and the full phase
trace used by Figure 4.

Stopping conditions: a phase budget (``max_phases``, the figure's x
axis), an optional patience (``stall_phases`` without improvement) and
an optional fitness target.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.evaluation import Evaluator
from repro.core.solution import Placement
from repro.neighborhood.movements import MovementType
from repro.neighborhood.multichain import MultiChainSearch, check_search_parameters
from repro.neighborhood.trace import SearchResult

if TYPE_CHECKING:
    from repro.anytime.deadline import Deadline

__all__ = ["SearchResult", "NeighborhoodSearch"]


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
        check_search_parameters(n_candidates, max_phases, stall_phases)
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
        (result,) = MultiChainSearch(
            self.movement,
            n_candidates=self.n_candidates,
            max_phases=self.max_phases,
            stall_phases=self.stall_phases,
            accept_equal=self.accept_equal,
            engine=evaluator.engine,
        ).run(
            evaluator.problem,
            [initial],
            [rng],
            fitness=evaluator.fitness_function,
            fitness_target=fitness_target,
            deadline=deadline,
        )
        evaluator.count(result.n_evaluations)
        return result

    def __repr__(self) -> str:
        return (
            f"NeighborhoodSearch(movement={self.movement!r}, "
            f"n_candidates={self.n_candidates}, max_phases={self.max_phases}, "
            f"stall_phases={self.stall_phases}, accept_equal={self.accept_equal})"
        )
