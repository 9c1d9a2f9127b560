"""Unit and property tests for the Pareto archive."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import Evaluator
from repro.core.fitness import LexicographicFitness, WeightedSumFitness
from repro.core.pareto import ParetoArchive, dominates
from repro.core.solution import Placement
from repro.neighborhood.movements import RandomMovement
from repro.neighborhood.search import NeighborhoodSearch


class TestDominates:
    def test_strict_domination(self):
        assert dominates((5, 10), (4, 10))
        assert dominates((5, 10), (5, 9))
        assert dominates((5, 10), (4, 9))

    def test_equal_does_not_dominate(self):
        assert not dominates((5, 10), (5, 10))

    def test_incomparable(self):
        assert not dominates((5, 10), (6, 9))
        assert not dominates((6, 9), (5, 10))

    @given(
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
    )
    def test_antisymmetric(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))


def evaluate_some(problem, count, rng):
    evaluator = Evaluator(problem)
    return [
        evaluator.evaluate(
            Placement.random(problem.grid, problem.n_routers, rng)
        )
        for _ in range(count)
    ]


class TestParetoArchive:
    def test_front_is_mutually_non_dominated(self, tiny_problem, rng):
        archive = ParetoArchive()
        for evaluation in evaluate_some(tiny_problem, 40, rng):
            archive.observe(evaluation)
        vectors = archive.objective_vectors()
        for i, a in enumerate(vectors):
            for b in vectors[i + 1 :]:
                assert not dominates(a, b)
                assert not dominates(b, a)

    def test_front_dominates_everything_observed(self, tiny_problem, rng):
        archive = ParetoArchive()
        observed = evaluate_some(tiny_problem, 40, rng)
        for evaluation in observed:
            archive.observe(evaluation)
        front = archive.objective_vectors()
        for evaluation in observed:
            key = (evaluation.giant_size, evaluation.covered_clients)
            assert any(point == key or dominates(point, key) for point in front)

    def test_observe_counts(self, tiny_problem, rng):
        archive = ParetoArchive()
        for evaluation in evaluate_some(tiny_problem, 10, rng):
            archive.observe(evaluation)
        assert archive.n_observed == 10
        assert 1 <= len(archive) <= 10

    def test_duplicate_rejected(self, tiny_problem, rng):
        archive = ParetoArchive()
        evaluation = evaluate_some(tiny_problem, 1, rng)[0]
        assert archive.observe(evaluation)
        assert not archive.observe(evaluation)
        assert len(archive) == 1

    def test_front_sorted_by_giant_descending(self, tiny_problem, rng):
        archive = ParetoArchive()
        for evaluation in evaluate_some(tiny_problem, 30, rng):
            archive.observe(evaluation)
        giants = [point.giant_size for point in archive.front()]
        assert giants == sorted(giants, reverse=True)

    def test_best_by_fitness(self, tiny_problem, rng):
        archive = ParetoArchive()
        for evaluation in evaluate_some(tiny_problem, 30, rng):
            archive.observe(evaluation)
        connectivity_pick = archive.best_by(WeightedSumFitness(1.0, 0.0))
        lexicographic_pick = archive.best_by(LexicographicFitness())
        assert connectivity_pick.giant_size == max(
            point.giant_size for point in archive.front()
        )
        assert lexicographic_pick.giant_size == connectivity_pick.giant_size

    def test_best_by_empty_raises(self):
        with pytest.raises(ValueError):
            ParetoArchive().best_by(WeightedSumFitness())

    def test_fed_by_observe_alongside_search(self, tiny_problem, rng):
        archive = ParetoArchive()
        evaluator = Evaluator(tiny_problem)
        for evaluation in evaluate_some(tiny_problem, 12, rng):
            archive.observe(evaluation)
        initial = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, rng
        )
        search = NeighborhoodSearch(
            RandomMovement(), n_candidates=6, max_phases=8
        )
        result = search.run(evaluator, initial, rng)
        archive.observe(result.best)
        assert archive.n_observed == 13
        best_key = (result.best.giant_size, result.best.covered_clients)
        front = archive.objective_vectors()
        # The search's best solution must sit on (or be dominated by a
        # point of) the observed front.
        assert any(point == best_key or dominates(point, best_key) for point in front)


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)),
        min_size=1,
        max_size=40,
    )
)
def test_archive_front_matches_bruteforce(pairs):
    """Archive result equals a brute-force non-dominated filter."""

    class FakeEvaluation:
        def __init__(self, giant, covered):
            self.giant_size = giant
            self.covered_clients = covered

    archive = ParetoArchive()
    for giant, covered in pairs:
        archive.observe(FakeEvaluation(giant, covered))

    unique = set(pairs)
    brute = {
        p
        for p in unique
        if not any(dominates(q, p) for q in unique)
    }
    assert set(archive.objective_vectors()) == brute
