"""Unit tests for tabu search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.solution import Placement
from repro.neighborhood.moves import MoveBatch
from repro.neighborhood.movements import RandomMovement
from repro.neighborhood.multichain import MultiChainSearch, _Phase

from tests.conftest import free_cell, run_one_chain


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


class TestTabu:
    def test_runs_and_traces(self, tiny_problem, rng):
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        search = MultiChainSearch.tabu(
            RandomMovement(), tenure=4, n_candidates=4, max_phases=8
        )
        result = run_one_chain(search, tiny_problem, initial, rng)
        assert result.n_phases == 8
        assert len(result.trace) == 9

    def test_best_never_below_initial(self, tiny_problem, rng):
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        start = Evaluator(tiny_problem).evaluate(initial).fitness
        search = MultiChainSearch.tabu(
            RandomMovement(), tenure=4, n_candidates=8, max_phases=12
        )
        result = run_one_chain(search, tiny_problem, initial, rng)
        assert result.best.fitness >= start

    def test_zero_tenure_degenerates_to_greedy_walk(self, tiny_problem, rng):
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        search = MultiChainSearch.tabu(
            RandomMovement(), tenure=0, n_candidates=4, max_phases=6
        )
        result = run_one_chain(search, tiny_problem, initial, rng)
        assert len(result.trace) == 7

    def test_incumbent_may_move_downhill(self, tiny_problem):
        # Tabu search always moves to the best admissible neighbor, so
        # with a tiny candidate pool the incumbent fitness dips.
        rng = np.random.default_rng(3)
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        search = MultiChainSearch.tabu(
            RandomMovement(), tenure=2, n_candidates=1, max_phases=30
        )
        result = run_one_chain(search, tiny_problem, initial, rng)
        fitness = result.trace.fitness_values
        assert any(b < a for a, b in zip(fitness, fitness[1:]))

    def test_deterministic_with_seed(self, tiny_problem):
        initial = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, np.random.default_rng(5)
        )
        search = MultiChainSearch.tabu(
            RandomMovement(), tenure=3, n_candidates=4, max_phases=6
        )
        scores = [
            run_one_chain(
                search, tiny_problem, initial, np.random.default_rng(11)
            ).best.fitness
            for _ in range(2)
        ]
        assert scores[0] == scores[1]

    @pytest.mark.parametrize(
        "knob, value, bound",
        [
            ("tenure", -1, "non-negative"),
            ("n_candidates", 0, "positive"),
            ("max_phases", 0, "positive"),
        ],
    )
    def test_parameter_validation(self, knob, value, bound):
        with pytest.raises(ValueError, match=rf"^{knob} must be {bound}"):
            MultiChainSearch.tabu(RandomMovement(), **{knob: value})
