"""Parity tests for the stacked (multi-chain) evaluation entry points.

The stacked engine and its incremental (delta) companion must produce
row-for-row exactly what the reference evaluator (``engine="dense"``)
computes — the lockstep search layer relies on it for bit-identical
portfolio results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import StackedEngine, measure_stack, stacked
from repro.core.engine.components import (
    labels_from_edge_stack,
    labels_from_edges,
)
from repro.core.engine.stacked import PhaseCandidates, StackedDeltaEngine
from repro.core.evaluation import Evaluator
from repro.core.fitness import (
    LexicographicFitness,
    NetworkMetrics,
    WeightedSumFitness,
)
from repro.core.radio import CoverageRule
from repro.core.solution import Placement
from repro.instances.catalog import tiny_spec


@pytest.fixture(scope="module")
def problem():
    return tiny_spec(seed=3).generate()


def random_placements(problem, count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Placement.random(problem.grid, problem.n_routers, rng)
        for _ in range(count)
    ]


def dense_references(problem, placements):
    reference = Evaluator(problem, engine="dense")
    return [reference.evaluate(p) for p in placements]


def assert_rows_match(measurement, references):
    for index, reference in enumerate(references):
        assert measurement.metrics(index) == reference.metrics
        assert float(measurement.fitness[index]) == reference.fitness
        assert np.array_equal(
            measurement.giant_masks[index], reference.giant_mask
        )


class TestStackedEngine:
    def test_measure_placements_matches_scalar(self, problem):
        placements = random_placements(problem, 7)
        references = dense_references(problem, placements)
        measurement = StackedEngine(problem).measure_placements(placements)
        assert_rows_match(measurement, references)

    def test_measure_positions_matches_placements(self, problem):
        placements = random_placements(problem, 5, seed=4)
        engine = StackedEngine(problem)
        by_placement = engine.measure_placements(placements)
        stack = np.stack([p.positions_array() for p in placements])
        by_positions = engine.measure_positions(stack)
        assert np.array_equal(by_positions.fitness, by_placement.fitness)
        assert np.array_equal(
            by_positions.giant_sizes, by_placement.giant_sizes
        )

    def test_chunking_preserves_rows(self, problem, monkeypatch):
        placements = random_placements(problem, 9, seed=5)
        whole = StackedEngine(problem, engine="dense").measure_placements(
            placements
        )
        monkeypatch.setattr(stacked, "DEFAULT_MAX_CHUNK", 4)
        chunked = StackedEngine(problem, engine="dense").measure_placements(
            placements
        )
        for name in (
            "giant_sizes", "covered_clients", "n_components",
            "n_links", "mean_degrees", "fitness", "giant_masks",
        ):
            assert np.array_equal(getattr(whole, name), getattr(chunked, name))

    def test_materialized_evaluation_is_full(self, problem):
        placements = random_placements(problem, 3, seed=6)
        measurement = StackedEngine(problem).measure_placements(placements)
        reference = Evaluator(problem, engine="dense").evaluate(placements[1])
        evaluation = measurement.evaluation(1, placements[1])
        assert evaluation.placement is placements[1]
        assert evaluation.metrics == reference.metrics
        assert evaluation.fitness == reference.fitness

    def test_array_row_requires_placement(self, problem):
        measurement = StackedEngine(problem).measure_placements(
            random_placements(problem, 2, seed=7)
        )
        with pytest.raises(ValueError):
            measurement.evaluation(0)

    def test_empty_set(self, problem):
        measurement = StackedEngine(problem).measure_placements([])
        assert len(measurement) == 0

    def test_sparse_engine_rows_match(self, problem):
        placements = random_placements(problem, 4, seed=8)
        references = dense_references(problem, placements)
        engine = StackedEngine(problem, engine="sparse")
        measurement = engine.measure_placements(placements)
        assert engine.engine == "sparse"
        assert_rows_match(measurement, references)
        # Sparse rows come with stored evaluations.
        assert measurement.evaluation(2).metrics == references[2].metrics

    def test_sparse_rejects_position_stack(self, problem):
        engine = StackedEngine(problem, engine="sparse")
        with pytest.raises(ValueError):
            engine.measure_positions(np.zeros((1, problem.n_routers, 2)))


class TestScoreRows:
    def test_weighted_sum_matches_scalar(self, problem):
        placements = random_placements(problem, 6, seed=9)
        fitness = WeightedSumFitness(0.6, 0.4)
        measurement = measure_stack(
            problem, fitness, np.stack([p.positions_array() for p in placements])
        )
        for index in range(len(measurement)):
            assert float(measurement.fitness[index]) == fitness.score(
                measurement.metrics(index)
            )

    def test_lexicographic_matches_scalar(self, problem):
        placements = random_placements(problem, 6, seed=10)
        fitness = LexicographicFitness(epsilon=0.25)
        measurement = measure_stack(
            problem, fitness, np.stack([p.positions_array() for p in placements])
        )
        for index in range(len(measurement)):
            assert float(measurement.fitness[index]) == fitness.score(
                measurement.metrics(index)
            )

    def test_custom_fitness_falls_back_to_scalar_loop(self, problem):
        # A fitness that only defines score() must still work through
        # the base-class row loop.
        from repro.core.fitness import FitnessFunction

        class Minimal(FitnessFunction):
            def score(self, metrics: NetworkMetrics) -> float:
                return float(metrics.n_links + metrics.giant_size)

        fitness = Minimal()
        placements = random_placements(problem, 4, seed=11)
        measurement = measure_stack(
            problem, fitness, np.stack([p.positions_array() for p in placements])
        )
        for index in range(len(measurement)):
            assert float(measurement.fitness[index]) == fitness.score(
                measurement.metrics(index)
            )


class TestLabelsFromEdgeStack:
    @pytest.mark.parametrize("n_nodes,n_edges", [(64, 120), (8192, 24000)])
    def test_matches_propagation_kernel(self, n_nodes, n_edges):
        rng = np.random.default_rng(12)
        rows = rng.integers(0, n_nodes, n_edges)
        cols = rng.integers(0, n_nodes, n_edges)
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
        assert np.array_equal(
            labels_from_edge_stack(n_nodes, rows, cols),
            labels_from_edges(n_nodes, rows, cols),
        )

    def test_empty_edges(self):
        labels = labels_from_edge_stack(5, np.zeros(0, int), np.zeros(0, int))
        assert labels.tolist() == [0, 1, 2, 3, 4]


def phase_candidates(items):
    """:class:`PhaseCandidates` from ``(chain, movers, new_cells)`` items."""
    chains, pair_candidate, pair_router, pair_xy = [], [], [], []
    for candidate, (chain, movers, new_cells) in enumerate(items):
        chains.append(chain)
        for router, cell in zip(movers, new_cells):
            pair_candidate.append(candidate)
            pair_router.append(router)
            pair_xy.append(cell)
    return PhaseCandidates(chains, pair_candidate, pair_router, pair_xy)


def delta_parity_case(problem, moves_per_chain, seed):
    """Run measure_phase and compare against full stacked measurement."""
    incumbents = random_placements(problem, len(moves_per_chain), seed=seed)
    engine = StackedDeltaEngine(problem)
    for chain, incumbent in enumerate(incumbents):
        engine.reset_chain(chain, incumbent)
    items = []
    placements = []
    for chain, moves in enumerate(moves_per_chain):
        incumbent = incumbents[chain]
        for movers, new_cells in moves:
            items.append((chain, movers, new_cells))
            cells = list(incumbent.cells)
            for router, cell in zip(movers, new_cells):
                cells[router] = type(cells[0])(int(cell[0]), int(cell[1]))
            placements.append(Placement.from_cells(incumbent.grid, cells))
    measurement = engine.measure_phase(phase_candidates(items))
    reference = measure_stack(
        problem,
        engine.fitness_function,
        np.stack([p.positions_array() for p in placements]),
    )
    assert np.array_equal(measurement.fitness, reference.fitness)
    assert np.array_equal(measurement.giant_sizes, reference.giant_sizes)
    assert np.array_equal(
        measurement.covered_clients, reference.covered_clients
    )
    assert np.array_equal(measurement.n_links, reference.n_links)
    assert np.array_equal(measurement.n_components, reference.n_components)
    assert np.array_equal(measurement.mean_degrees, reference.mean_degrees)
    assert np.array_equal(measurement.giant_masks, reference.giant_masks)


class TestStackedDeltaEngine:
    def _relocation_moves(self, problem, incumbent, rng, count):
        moves = []
        for _ in range(count):
            router = int(rng.integers(0, len(incumbent)))
            cell = problem.grid.random_free_cell(incumbent.occupied, rng)
            moves.append(((router,), (tuple(cell),)))
        return moves

    def test_relocations_match_full_measurement(self, problem):
        rng = np.random.default_rng(21)
        incumbents = random_placements(problem, 3, seed=21)
        moves = [
            self._relocation_moves(problem, incumbent, rng, 5)
            for incumbent in incumbents
        ]
        delta_parity_case(problem, moves, seed=21)

    def test_swaps_match_full_measurement(self, problem):
        rng = np.random.default_rng(22)
        incumbents = random_placements(problem, 2, seed=22)
        moves = []
        for incumbent in incumbents:
            chain_moves = []
            for _ in range(4):
                a = int(rng.integers(0, len(incumbent)))
                b = int(rng.integers(0, len(incumbent)))
                if a == b:
                    b = (a + 1) % len(incumbent)
                chain_moves.append(
                    (
                        (a, b),
                        (tuple(incumbent[b]), tuple(incumbent[a])),
                    )
                )
            moves.append(chain_moves)
        delta_parity_case(problem, moves, seed=22)

    def test_noop_candidate_matches_incumbent(self, problem):
        moves = [[((), ())], [((), ())]]
        delta_parity_case(problem, moves, seed=23)

    def test_any_router_rule(self):
        spec = tiny_spec(seed=5)
        problem = spec.generate().with_coverage_rule(CoverageRule.ANY_ROUTER)
        rng = np.random.default_rng(24)
        incumbent = Placement.random(problem.grid, problem.n_routers, rng)
        engine = StackedDeltaEngine(problem)
        engine.reset_chain(0, incumbent)
        router = 0
        cell = problem.grid.random_free_cell(incumbent.occupied, rng)
        measurement = engine.measure_phase(
            PhaseCandidates([0], [0], [router], [(cell.x, cell.y)])
        )
        candidate = incumbent.with_move(router, cell)
        reference = Evaluator(problem, engine="dense").evaluate(candidate)
        assert float(measurement.fitness[0]) == reference.fitness
        assert int(measurement.covered_clients[0]) == reference.covered_clients

    def test_commit_is_incremental_rebuild(self, problem):
        rng = np.random.default_rng(25)
        incumbent = Placement.random(problem.grid, problem.n_routers, rng)
        engine = StackedDeltaEngine(problem)
        engine.reset_chain(0, incumbent)
        moved = incumbent.with_move(
            2, problem.grid.random_free_cell(incumbent.occupied, rng)
        )
        engine.commit_chain(0, moved)
        fresh = StackedDeltaEngine(problem)
        fresh.reset_chain(0, moved)
        committed = engine._caches[0]
        rebuilt = fresh._caches[0]
        assert np.array_equal(committed.adjacency, rebuilt.adjacency)
        assert np.array_equal(committed.coverage, rebuilt.coverage)
        assert np.array_equal(committed.edge_rows, rebuilt.edge_rows)
        assert np.array_equal(committed.edge_cols, rebuilt.edge_cols)
        assert np.array_equal(committed.positions, rebuilt.positions)

    def test_items_must_be_chain_grouped(self, problem):
        incumbents = random_placements(problem, 2, seed=26)
        engine = StackedDeltaEngine(problem)
        for chain, incumbent in enumerate(incumbents):
            engine.reset_chain(chain, incumbent)
        interleaved = PhaseCandidates([0, 1, 0], [], [], np.zeros((0, 2)))
        with pytest.raises(ValueError):
            engine.measure_phase(interleaved)

    def test_pairs_must_be_candidate_sorted(self, problem):
        incumbent = random_placements(problem, 1, seed=27)[0]
        engine = StackedDeltaEngine(problem)
        engine.reset_chain(0, incumbent)
        free = problem.grid.random_free_cell(
            incumbent.occupied, np.random.default_rng(27)
        )
        unsorted = PhaseCandidates([0, 0], [1, 0], [0, 1], [free, free])
        with pytest.raises(ValueError):
            engine.measure_phase(unsorted)

    def test_mixed_phase_matches_full_measurement(self, problem):
        # No-ops, relocations and swaps interleaved across three chains.
        rng = np.random.default_rng(28)
        incumbents = random_placements(problem, 3, seed=28)
        moves = []
        for incumbent in incumbents:
            a, b = 1, 4
            cell = problem.grid.random_free_cell(incumbent.occupied, rng)
            moves.append(
                [
                    ((), ()),
                    ((a, b), (tuple(incumbent[b]), tuple(incumbent[a]))),
                    ((2,), (tuple(cell),)),
                    ((), ()),
                ]
            )
        delta_parity_case(problem, moves, seed=28)

    def test_empty_phase(self, problem):
        engine = StackedDeltaEngine(problem)
        empty = PhaseCandidates([], [], [], np.zeros((0, 2)))
        assert len(engine.measure_phase(empty)) == 0
