"""Unit tests for selection operators: each returns a member's index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.solution import Placement
from repro.genetic.population import Population
from repro.genetic.selection import (
    RankSelection,
    RouletteWheelSelection,
    TournamentSelection,
)


@pytest.fixture
def evaluated_population(tiny_problem, rng):
    placements = [
        Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        for _ in range(8)
    ]
    return Population.evaluate_all(Evaluator(tiny_problem), stack_of(placements))


def stack_of(placements) -> np.ndarray:
    return np.stack([p.cells_array() for p in placements])


ALL_OPERATORS = [
    TournamentSelection(size=3),
    RouletteWheelSelection(),
    RankSelection(),
]


@pytest.mark.parametrize("operator", ALL_OPERATORS, ids=lambda o: o.name)
class TestCommonBehaviour:
    def test_selects_member_of_population(self, operator, evaluated_population, rng):
        for _ in range(20):
            chosen = operator.select(evaluated_population, rng)
            assert type(chosen) is int
            assert 0 <= chosen < len(evaluated_population)

    def test_select_pair(self, operator, evaluated_population, rng):
        a, b = operator.select_pair(evaluated_population, rng)
        assert type(a) is int and type(b) is int
        assert 0 <= a < len(evaluated_population)
        assert 0 <= b < len(evaluated_population)

    def test_deterministic_given_seed(self, operator, evaluated_population):
        a = operator.select(evaluated_population, np.random.default_rng(42))
        b = operator.select(evaluated_population, np.random.default_rng(42))
        assert a == b

    def test_biased_towards_fitter(self, operator, evaluated_population):
        # Statistical: the mean fitness of selected parents must beat the
        # population mean over many draws.
        rng = np.random.default_rng(7)
        picks = [
            evaluated_population.fitness[operator.select(evaluated_population, rng)]
            for _ in range(400)
        ]
        assert np.mean(picks) >= evaluated_population.mean_fitness()


class TestTournament:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            TournamentSelection(size=0)

    def test_large_tournament_selects_best(self, evaluated_population):
        # With a tournament far larger than the population, the best
        # individual almost surely participates and wins.
        operator = TournamentSelection(size=256)
        chosen = operator.select(evaluated_population, np.random.default_rng(0))
        fitness = evaluated_population.fitness
        assert fitness[chosen] == fitness.max()

    def test_first_drawn_contestant_wins_ties(self, tiny_problem, rng):
        # Equal fitness everywhere: the tournament's first draw wins.
        placement = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        population = Population.evaluate_all(
            Evaluator(tiny_problem), stack_of([placement] * 6)
        )
        chosen = TournamentSelection(size=4).select(population, np.random.default_rng(3))
        first = np.random.default_rng(3).integers(0, 6, size=4)[0]
        assert chosen == first

    def test_requires_measured(self, tiny_problem, rng):
        # Selection reads fitness, so a population holds only measured
        # members: cells without measurement rows cannot become one.
        placement = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        with pytest.raises(AttributeError, match="fitness"):
            Population(stack_of([placement]), None)


class TestRoulette:
    def test_degenerate_equal_fitness_uniform(self, tiny_problem, rng):
        placement = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        population = Population.evaluate_all(
            Evaluator(tiny_problem), stack_of([placement] * 4)
        )
        # All fitness equal -> shifted weights are all zero -> uniform.
        counts = np.zeros(4)
        for _ in range(200):
            counts[RouletteWheelSelection().select(population, rng)] += 1
        assert (counts > 0).all()


class TestRank:
    def test_rank_ignores_magnitude(self, tiny_problem, rng):
        placements = [
            Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
            for _ in range(4)
        ]
        population = Population.evaluate_all(Evaluator(tiny_problem), stack_of(placements))
        # Rank selection probabilities depend only on the ordering:
        # 1/10, 2/10, 3/10, 4/10 for 4 individuals.
        rng2 = np.random.default_rng(0)
        counts = np.zeros(4)
        order = np.argsort(population.fitness)
        for _ in range(2000):
            counts[RankSelection().select(population, rng2)] += 1
        best_index = order[-1]
        worst_index = order[0]
        assert counts[best_index] > counts[worst_index]
