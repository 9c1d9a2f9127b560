"""Unit tests for sampled best-neighbor selection (Algorithm 2).

One search phase samples ``n_candidates`` moves, drops the ones that do
not apply (:func:`apply_valid_move`) and keeps the fittest neighbor.
The phase is exercised through a one-phase :class:`NeighborhoodSearch`.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.evaluation import Evaluator
from repro.core.solution import Placement
from repro.neighborhood.best_neighbor import apply_valid_move
from repro.neighborhood.moves import MoveBatch, RelocateMove, SwapMove
from repro.neighborhood.movements import MovementType, RandomMovement
from repro.neighborhood.search import NeighborhoodSearch


class NoneMovement(MovementType):
    """Never proposes anything."""

    name = "none"

    def _proposer(self, current, problem):
        return lambda draws: MoveBatch.NO_MOVE


class StaleMovement(MovementType):
    """Proposes a move that can never be applied (target occupied)."""

    name = "stale"

    def _proposer(self, current, problem):
        x, y = current.placement[1]
        return lambda draws: (MoveBatch.RELOCATE, 0, -1, x, y)


def one_phase(problem, movement, rng, n_candidates):
    initial = Placement.random(problem.grid, problem.n_routers, rng)
    evaluator = Evaluator(problem)
    search = NeighborhoodSearch(movement, n_candidates=n_candidates, max_phases=1)
    return initial, evaluator, search.run(evaluator, initial, rng)


class TestOnePhase:
    def test_keeps_first_fittest_sampled_neighbor(self, tiny_problem, rng):
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        replay = copy.deepcopy(rng)
        evaluator = Evaluator(tiny_problem, engine="dense")
        start = evaluator.evaluate(initial)
        movement = RandomMovement()
        neighbors = [
            apply_valid_move(movement.propose(start, tiny_problem, replay), initial)
            for _ in range(16)
        ]
        scored = [evaluator.evaluate(n) for n in neighbors if n is not None]
        first_best = max(scored, key=lambda e: e.fitness)  # max keeps the first
        result = NeighborhoodSearch(
            RandomMovement(), n_candidates=16, max_phases=1, accept_equal=True
        ).run(Evaluator(tiny_problem), initial, rng)
        incumbent = first_best if first_best.fitness >= start.fitness else start
        assert result.trace.final().fitness == incumbent.fitness
        if first_best.fitness > start.fitness:
            assert result.best.placement == first_best.placement
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_candidate_budget_respected(self, tiny_problem, rng):
        _, evaluator, result = one_phase(tiny_problem, RandomMovement(), rng, 7)
        assert result.n_evaluations == 1 + 7
        assert evaluator.n_evaluations == 1 + 7

    def test_idle_phase_when_no_moves_available(self, tiny_problem, rng):
        initial, evaluator, result = one_phase(tiny_problem, NoneMovement(), rng, 8)
        assert result.n_evaluations == evaluator.n_evaluations == 1
        assert result.best.placement == initial
        assert not result.trace.final().improved

    def test_stale_moves_skipped(self, tiny_problem, rng):
        initial, evaluator, result = one_phase(tiny_problem, StaleMovement(), rng, 8)
        assert result.n_evaluations == evaluator.n_evaluations == 1
        assert result.best.placement == initial


class TestApplyValidMove:
    def placement(self, problem):
        return Placement.random(
            problem.grid, problem.n_routers, np.random.default_rng(3)
        )

    def test_relocation_to_free_cell(self, tiny_problem):
        placement = self.placement(tiny_problem)
        target = next(
            cell for cell in tiny_problem.grid.cells() if placement.is_free(cell)
        )
        moved = apply_valid_move(RelocateMove(0, target), placement)
        assert moved[0] == target

    def test_stale_relocation_is_none(self, tiny_problem):
        placement = self.placement(tiny_problem)
        assert apply_valid_move(RelocateMove(0, placement[1]), placement) is None

    def test_own_cell_relocation_is_a_no_op(self, tiny_problem):
        placement = self.placement(tiny_problem)
        assert apply_valid_move(RelocateMove(0, placement[0]), placement) is placement

    def test_out_of_range_router_is_none(self, tiny_problem):
        placement = self.placement(tiny_problem)
        free = next(
            cell for cell in tiny_problem.grid.cells() if placement.is_free(cell)
        )
        assert apply_valid_move(RelocateMove(99, free), placement) is None
        assert apply_valid_move(SwapMove(0, 99), placement) is None
