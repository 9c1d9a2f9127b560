"""Unit tests for GA populations: a measured cell stack."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clients import ClientSet
from repro.core.evaluation import Evaluation, Evaluator
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from repro.genetic.engine import _elites
from repro.genetic.population import Population, stack_diversity


def random_placements(problem, rng, count: int) -> list[Placement]:
    return [Placement.random(problem.grid, problem.n_routers, rng) for _ in range(count)]


def stack_of(placements) -> np.ndarray:
    return np.stack([p.cells_array() for p in placements])


def same_member(a: Evaluation, b: Evaluation) -> bool:
    """Field-wise equality (evaluations compare by identity)."""
    return (
        a.placement == b.placement
        and a.metrics == b.metrics
        and a.fitness == b.fitness
        and np.array_equal(a.giant_mask, b.giant_mask)
    )


@pytest.fixture
def population(tiny_problem, rng):
    return Population.evaluate_all(
        Evaluator(tiny_problem), stack_of(random_placements(tiny_problem, rng, 6))
    )


class TestPopulation:
    def test_empty_rejected(self, tiny_problem, population):
        with pytest.raises(ValueError, match="at least one member"):
            Population.evaluate_all(Evaluator(tiny_problem), [])
        with pytest.raises(ValueError, match="at least one member"):
            Population(population.cells[:0].copy(), population.rows.take([]))

    def test_evaluate_all(self, tiny_problem, rng, measured):
        evaluator = Evaluator(tiny_problem)
        placements = random_placements(tiny_problem, rng, 6)
        population = Population.evaluate_all(evaluator, stack_of(placements))
        # One measured stack, one evaluation per member.
        assert measured == [6]
        assert evaluator.n_evaluations == len(population) == 6
        assert population.cells.dtype == np.int32
        assert np.array_equal(population.cells, stack_of(placements))
        for index, placement in enumerate(placements):
            member = population[index]
            assert isinstance(member, Evaluation)
            assert same_member(member, evaluator.evaluate(placement))

    def test_successor_measures_each_new_child_once(
        self, tiny_problem, rng, population, measured
    ):
        evaluator = Evaluator(tiny_problem)
        other, another = stack_of(random_placements(tiny_problem, rng, 2))
        source = np.array([1, -1, 0, -1, 1, 5])
        cells = [population.cells[1], other, population.cells[0], another,
                 population.cells[1], population.cells[5]]
        offspring = population.successor(evaluator, source, cells)
        # The kept slots copy their members' cells and rows; the two new
        # children are one measured stack, in slot order.
        assert measured == [2]
        assert evaluator.n_evaluations == 2
        assert len(offspring) == 6
        for slot, parent in enumerate(source):
            if parent >= 0:
                assert np.array_equal(offspring.cells[slot], population.cells[parent])
                assert same_member(offspring[slot], population[parent])
        assert np.array_equal(offspring.cells[1], other)
        assert np.array_equal(offspring.cells[3], another)
        assert same_member(
            offspring[3],
            Evaluator(tiny_problem).evaluate(
                Placement.from_cells(tiny_problem.grid, another)
            ),
        )

    def test_successor_of_kept_members_measures_nothing(
        self, population, tiny_problem, measured
    ):
        evaluator = Evaluator(tiny_problem)
        again = population.successor(evaluator, np.arange(6), population.cells)
        assert evaluator.n_evaluations == 0 and measured == []
        assert np.array_equal(again.cells, population.cells)
        assert np.array_equal(again.fitness, population.fitness)

    def test_best_and_elites(self, population):
        best = population[int(np.argmax(population.fitness))]
        assert best.fitness == max(population.fitness)
        elites = _elites(population.fitness, 3)
        assert len(elites) == 3
        assert population.fitness[elites[0]] == best.fitness
        fitness = population.fitness[elites].tolist()
        assert fitness == sorted(fitness, reverse=True)

    def test_elites_rank_ties_in_population_order(self):
        assert _elites([1.0, 3.0, 1.0, 3.0, 2.0], 4).tolist() == [1, 3, 4, 0]
        assert _elites([1.0, 3.0], 0).tolist() == []

    def test_members_are_read_only(self, population):
        # A member is built from a copy; the stack itself cannot be
        # written, so operators reading a member's row cannot change it.
        member = population[0]
        assert not population.cells.flags.writeable
        assert not np.shares_memory(member.placement.cells_array(), population.cells)
        with pytest.raises(ValueError):
            population.cells[0, 0, 0] = 1

    def test_mean_and_values(self, population):
        values = population.fitness
        assert values.shape == (len(population),)
        assert population.mean_fitness() == pytest.approx(values.mean())
        assert values is population.rows.fitness

    def test_diversity_zero_for_identical(self, tiny_problem, rng):
        placement = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, rng
        )
        population = Population.evaluate_all(
            Evaluator(tiny_problem), stack_of([placement] * 4)
        )
        assert population.diversity() == 0.0

    def test_diversity_positive_for_distinct(self, population):
        assert population.diversity() > 0.0

    def test_diversity_of_the_stack(self, population, monkeypatch):
        # The compiled kernel, when loaded, and the numpy reference give
        # the same value; an int64 stack gives it too.
        value = population.diversity()
        assert value == stack_diversity(population.cells)
        assert stack_diversity(population.cells.astype(np.int64)) == value
        monkeypatch.setenv("REPRO_COMPILED", "0")
        assert population.diversity() == value

    def test_diversity_single_individual(self, tiny_problem, rng):
        population = Population.evaluate_all(
            Evaluator(tiny_problem), stack_of(random_placements(tiny_problem, rng, 1))
        )
        assert population.diversity() == 0.0

    def test_container_protocol(self, population):
        assert len(population) == 6
        assert same_member(population[0], population[0])
        assert population[0] is not population[0]
        assert population[-1].placement.cells == tuple(
            Point(*cell) for cell in population.cells[-1].tolist()
        )


def _outcome(build):
    """A build's result, or its error as ``(type, message)``."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


def problem_on(grid: GridArea, n_routers: int) -> ProblemInstance:
    return ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii([2.0] * n_routers),
        clients=ClientSet.from_points([Point(0, 0)], grid=grid),
    )


class TestChildCheck:
    """``evaluate_all`` checks chromosomes as ``from_cells`` checks each."""

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 6),
        height=st.integers(1, 6),
        n=st.integers(1, 6),
        count=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        int32=st.booleans(),
    )
    def test_matches_one_by_one_build(self, width, height, n, count, seed, int32):
        grid = GridArea(width, height)
        # More routers than cells: every array repeats a cell or leaves
        # the grid, so the check raises before the fleet size matters.
        evaluator = Evaluator(problem_on(grid, min(n, grid.n_cells)))
        rng = np.random.default_rng(seed)
        # Coordinates a step beyond each edge, and small grids, so bad
        # rows (outside, repeated, both) come at any position.
        arrays = [
            np.stack(
                [rng.integers(-1, width + 1, n), rng.integers(-1, height + 1, n)],
                axis=1,
            ).astype(np.int32 if int32 else np.int64)
            for _ in range(count)
        ]
        checked = _outcome(lambda: Population.evaluate_all(evaluator, arrays))
        single = _outcome(lambda: [Placement.from_cells(grid, a) for a in arrays])
        if isinstance(single, list):
            assert evaluator.n_evaluations == count
            assert checked.cells.dtype == np.int32
            assert not checked.cells.flags.writeable
            for row, array in zip(checked.cells, arrays):
                assert np.array_equal(row, array)
                assert not np.shares_memory(row, array)
        else:
            assert checked == single
            assert evaluator.n_evaluations == 0

    def test_irregular_shapes_are_checked_one_by_one(self):
        grid = GridArea(8, 8)
        evaluator = Evaluator(problem_on(grid, 2))
        fleet_error = _outcome(
            lambda: evaluator.evaluate(Placement.from_cells(grid, [[2, 2]]))
        )
        # Differing router counts: each array builds, then the engine
        # refuses the one that is not the fleet's size.
        arrays = [np.array([[0, 0], [1, 1]]), np.array([[2, 2]])]
        assert _outcome(lambda: Population.evaluate_all(evaluator, arrays)) == fleet_error
        # The first array that does not build raises first.
        repeated = [np.array([[2, 2]]), np.array([[0, 0], [0, 0]])]
        with pytest.raises(ValueError, match="same cell"):
            Population.evaluate_all(evaluator, repeated)
        with pytest.raises(ValueError, match="at least one router"):
            Population.evaluate_all(evaluator, [np.zeros((0, 2), dtype=int)])
        with pytest.raises(ValueError, match="shape"):
            Population.evaluate_all(evaluator, [np.zeros((2, 3), dtype=int)])
        with pytest.raises(ValueError, match="at least one member"):
            Population.evaluate_all(evaluator, [])
        assert evaluator.n_evaluations == 0

    def test_int64_cells_are_checked_before_narrowing(self):
        grid = GridArea(8, 8)
        evaluator = Evaluator(problem_on(grid, 2))
        wide = np.array([[[0, 0], [2**32 + 3, 1]]], dtype=np.int64)
        # Narrowed first, the cell would wrap to (3, 1), inside the grid.
        expected = _outcome(lambda: Placement.from_cells(grid, wide[0]))
        assert isinstance(expected, tuple)
        assert _outcome(lambda: Population.evaluate_all(evaluator, wide)) == expected
        assert _outcome(lambda: Population.evaluate_all(evaluator, list(wide))) == expected
