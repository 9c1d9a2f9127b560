"""Unit tests for populations of evaluated members."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import Evaluation, Evaluator
from repro.core.solution import Placement
from repro.genetic.population import Population, stack_diversity


def random_placements(problem, rng, count: int) -> list[Placement]:
    return [Placement.random(problem.grid, problem.n_routers, rng) for _ in range(count)]


@pytest.fixture
def population(tiny_problem, rng):
    return Population.evaluate_all(
        Evaluator(tiny_problem), random_placements(tiny_problem, rng, 6)
    )


@pytest.fixture
def count_built_arrays(monkeypatch):
    """Records every cell array ``Placement.from_cell_arrays`` builds."""
    calls = []
    original = Placement.__dict__["from_cell_arrays"].__func__

    def counted(cls, grid, arrays):
        calls.extend(arrays)
        return original(cls, grid, arrays)

    monkeypatch.setattr(Placement, "from_cell_arrays", classmethod(counted))
    return calls


class TestPopulation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Population([])

    def test_evaluate_all(self, tiny_problem, rng):
        evaluator = Evaluator(tiny_problem)
        placements = random_placements(tiny_problem, rng, 6)
        population = Population.evaluate_all(evaluator, placements)
        assert evaluator.n_evaluations == len(population) == 6
        assert all(isinstance(member, Evaluation) for member in population)
        assert [member.placement for member in population] == placements

    def test_evaluate_all_measures_each_new_member_once(
        self, tiny_problem, rng, count_built_arrays
    ):
        evaluator = Evaluator(tiny_problem)
        kept = evaluator.evaluate(random_placements(tiny_problem, rng, 1)[0])
        placement, other = random_placements(tiny_problem, rng, 2)
        cells = other.cells_array()
        before, built = evaluator.n_evaluations, len(count_built_arrays)
        population = Population.evaluate_all(evaluator, [placement, kept, cells])
        # The evaluation is kept, the placement measured as it is and the
        # cell array built into one placement; two measurements, in order.
        assert evaluator.n_evaluations - before == 2
        assert len(count_built_arrays) == built + 1
        assert count_built_arrays[-1] is cells
        assert population[1] is kept
        assert population[0].placement is placement
        assert population[2].placement == other

    def test_evaluate_all_of_evaluations_measures_nothing(self, population, tiny_problem):
        evaluator = Evaluator(tiny_problem)
        again = Population.evaluate_all(evaluator, list(population))
        assert evaluator.n_evaluations == 0
        assert again.members == population.members

    def test_best_and_elites(self, population):
        best = population.best()
        assert best.fitness == max(member.fitness for member in population)
        elites = population.elites(3)
        assert len(elites) == 3
        assert elites[0].fitness == best.fitness
        fitness = [e.fitness for e in elites]
        assert fitness == sorted(fitness, reverse=True)

    def test_elites_are_the_members(self, population):
        # Evaluations are immutable snapshots, so elites share them.
        elites = population.elites(2)
        assert all(any(e is m for m in population.members) for e in elites)
        elites.clear()
        assert len(population) == 6

    def test_elites_validation(self, population):
        with pytest.raises(ValueError):
            population.elites(-1)
        assert population.elites(0) == []

    def test_mean_and_values(self, population):
        values = population.fitness_values()
        assert values.shape == (len(population),)
        assert population.mean_fitness() == pytest.approx(values.mean())
        assert population.fitness == tuple(values)

    def test_diversity_zero_for_identical(self, tiny_problem, rng):
        placement = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, rng
        )
        population = Population.evaluate_all(Evaluator(tiny_problem), [placement] * 4)
        assert population.diversity() == 0.0

    def test_diversity_positive_for_distinct(self, population):
        assert population.diversity() > 0.0

    def test_diversity_of_a_held_stack(self, population):
        # The GA hands over the cell stack it already holds, int32 like
        # the placements' arrays; an int64 stack gives the same value.
        cells = population.cell_stack()
        assert cells.shape == (6, population[0].placement.cells_array().shape[0], 2)
        assert population.diversity(cells) == population.diversity()
        assert stack_diversity(cells.astype(np.int64)) == population.diversity()

    def test_diversity_single_individual(self, tiny_problem, rng):
        population = Population.evaluate_all(
            Evaluator(tiny_problem), random_placements(tiny_problem, rng, 1)
        )
        assert population.diversity() == 0.0

    def test_container_protocol(self, population):
        assert len(population) == 6
        assert population[0] is population.members[0]
        assert list(iter(population)) == list(population.members)
