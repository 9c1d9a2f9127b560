"""Unit tests for tabu search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.solution import Placement
from repro.neighborhood.moves import MoveBatch
from repro.neighborhood.movements import RandomMovement
from repro.neighborhood.multichain import _Phase
from repro.neighborhood.tabu import TabuSearch

from tests.conftest import free_cell


def touched_routers(problem, placement, row) -> tuple[int, ...]:
    """The tabu attribute of a move row: the routers its columns name."""
    phase = _Phase.collect([placement], [0], [MoveBatch.from_rows([row])], problem)
    return tuple(int(router) for router in phase.table[0, 1:3] if router >= 0)


class TestTouchedRouters:
    def test_swap_touches_both(self, tiny_problem, rng):
        placement = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        row = (MoveBatch.SWAP, 2, 5, -1, -1)
        assert touched_routers(tiny_problem, placement, row) == (2, 5)

    def test_relocate_touches_one(self, tiny_problem, rng):
        placement = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        x, y = free_cell(tiny_problem.grid, placement.occupied, rng)
        row = (MoveBatch.RELOCATE, 3, -1, x, y)
        assert touched_routers(tiny_problem, placement, row) == (3,)


class TestTabuSearch:
    def test_runs_and_traces(self, tiny_problem, rng):
        evaluator = Evaluator(tiny_problem)
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        search = TabuSearch(RandomMovement(), tenure=4, n_candidates=4, max_phases=8)
        result = search.run(evaluator, initial, rng)
        assert result.n_phases == 8
        assert len(result.trace) == 9

    def test_best_never_below_initial(self, tiny_problem, rng):
        evaluator = Evaluator(tiny_problem)
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        start = evaluator.evaluate(initial).fitness
        result = TabuSearch(
            RandomMovement(), tenure=4, n_candidates=8, max_phases=12
        ).run(evaluator, initial, rng)
        assert result.best.fitness >= start

    def test_zero_tenure_degenerates_to_greedy_walk(self, tiny_problem, rng):
        evaluator = Evaluator(tiny_problem)
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        result = TabuSearch(
            RandomMovement(), tenure=0, n_candidates=4, max_phases=6
        ).run(evaluator, initial, rng)
        assert len(result.trace) == 7

    def test_incumbent_may_move_downhill(self, tiny_problem):
        # Tabu search always moves to the best admissible neighbor, so
        # with a tiny candidate pool the incumbent fitness dips.
        evaluator = Evaluator(tiny_problem)
        rng = np.random.default_rng(3)
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        result = TabuSearch(
            RandomMovement(), tenure=2, n_candidates=1, max_phases=30
        ).run(evaluator, initial, rng)
        fitness = result.trace.fitness_values
        assert any(b < a for a, b in zip(fitness, fitness[1:]))

    def test_deterministic_with_seed(self, tiny_problem):
        initial = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, np.random.default_rng(5)
        )
        scores = [
            TabuSearch(RandomMovement(), tenure=3, n_candidates=4, max_phases=6)
            .run(Evaluator(tiny_problem), initial, np.random.default_rng(11))
            .best.fitness
            for _ in range(2)
        ]
        assert scores[0] == scores[1]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TabuSearch(RandomMovement(), tenure=-1)
        with pytest.raises(ValueError):
            TabuSearch(RandomMovement(), n_candidates=0)
        with pytest.raises(ValueError):
            TabuSearch(RandomMovement(), max_phases=0)
