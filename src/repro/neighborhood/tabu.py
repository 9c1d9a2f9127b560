"""Tabu search over placement movements.

The second "full featured local search method" extension (the authors'
follow-up line also includes WMN-TS).  Classic short-term-memory tabu
search: the best sampled neighbor is taken even when worsening, recently
touched routers are tabu for ``tenure`` phases, and an aspiration
criterion overrides the tabu status of a move that beats the global
best.

Each phase samples ``n_candidates`` moves off one incumbent and moves
to one of them, so :class:`TabuSearch` runs as a one-chain
:class:`~repro.neighborhood.multichain.MultiChainSearch` on the tabu
rule: the phase is proposed, validated and measured by the lockstep
driver's one batched step (one
:meth:`~repro.core.engine.stacked.StackedDeltaEngine.measure_phase`
call against the cached incumbent), and the tabu and aspiration choice
runs on the chain's fitness slice.  Results and evaluation counts are
bit-identical to measuring every candidate with the reference evaluator
(asserted against a frozen copy of the loop by
``tests/neighborhood/test_local_search_reference.py``).
"""

from __future__ import annotations

from repro.neighborhood.movements import MovementType
from repro.neighborhood.multichain import (
    MultiChainSearch,
    _OneChainSearch,
    _Tabu,
    check_search_parameters,
)

__all__ = ["TabuSearch"]


class TabuSearch(_OneChainSearch):
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
        check_search_parameters(n_candidates, max_phases, None)
        self.movement = movement
        self.tenure = tenure
        self.n_candidates = n_candidates
        self.max_phases = max_phases

    def _chains(self, engine: str) -> MultiChainSearch:
        return MultiChainSearch._with_rule(
            _Tabu(self.tenure),
            self.movement,
            n_candidates=self.n_candidates,
            max_phases=self.max_phases,
            engine=engine,
        )

    def __repr__(self) -> str:
        return (
            f"TabuSearch(movement={self.movement!r}, tenure={self.tenure}, "
            f"n_candidates={self.n_candidates}, max_phases={self.max_phases})"
        )
