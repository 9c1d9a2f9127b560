"""Parity tests for the stacked (multi-chain) evaluation entry points.

The stacked engine and its incremental (delta) companion must produce
row-for-row exactly what the reference evaluator (``engine="dense"``)
computes — the lockstep search layer relies on it for bit-identical
portfolio results.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clients import ClientSet
from repro.core.engine import (
    StackedEngine,
    compiled,
    dispatch,
    measure_stack,
    stacked,
)
from repro.core.engine.components import (
    labels_from_edge_stack,
    labels_from_edges,
)
from repro.core.engine.dispatch import select_engine
from repro.core.engine.sparse import link_cell_size
from repro.core.engine.stacked import PhaseCandidates, StackedDeltaEngine
from repro.core.evaluation import Evaluator
from repro.core.fitness import (
    LexicographicFitness,
    NetworkMetrics,
    WeightedSumFitness,
)
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from repro.instances.catalog import city_spec, tiny_spec

from tests.conftest import (
    free_cell,
    measure_placement,
    phase_of,
    ref_apply_row,
    relocate_row,
)


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

    @pytest.mark.parametrize("tier", ["dense", "sparse", "compiled"])
    def test_cell_stack_matches_placements(self, problem, tier):
        if tier == "compiled" and not compiled.is_available():
            pytest.skip("compiled kernels not available")
        placements = random_placements(problem, 5, seed=9)
        engine = StackedEngine(problem, engine=tier)
        expected = engine.measure_placements(placements)
        cells = np.stack([placement.cells_array() for placement in placements])
        for name in ROW_FIELDS:
            assert np.array_equal(
                getattr(engine.measure_placements(cells), name),
                getattr(expected, name),
            ), name
        assert len(engine.measure_placements(cells[:0])) == 0

    def test_malformed_cell_stacks_are_refused(self, problem):
        engine = StackedEngine(problem, engine="dense")
        n = problem.n_routers
        with pytest.raises(ValueError, match="must be"):
            engine.measure_placements(np.zeros((2, n), dtype=np.int32))
        with pytest.raises(ValueError, match="must be"):
            engine.measure_placements(np.zeros((2, n, 3), dtype=np.int32))
        with pytest.raises(ValueError, match="routers but the fleet"):
            engine.measure_placements(np.zeros((2, n + 1, 2), dtype=np.int32))

    def test_take_gathers_rows(self, problem):
        measurement = StackedEngine(problem).measure_placements(
            random_placements(problem, 4, seed=10)
        )
        rows = np.array([3, 0, 3])
        taken = measurement.take(rows)
        for name in ROW_FIELDS:
            assert np.array_equal(
                getattr(taken, name), getattr(measurement, name)[rows]
            ), name

    def test_sparse_engine_rows_match(self, problem):
        placements = random_placements(problem, 4, seed=8)
        references = dense_references(problem, placements)
        engine = StackedEngine(problem, engine="sparse")
        measurement = engine.measure_placements(placements)
        assert engine.engine == "sparse"
        assert_rows_match(measurement, references)
        # Sparse rows materialize like every other tier's.
        evaluation = measurement.evaluation(2, placements[2])
        assert evaluation.metrics == references[2].metrics
        with pytest.raises(ValueError):
            measurement.evaluation(2)


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
            cell = free_cell(problem.grid, incumbent.occupied, rng)
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
        cell = free_cell(problem.grid, incumbent.occupied, rng)
        measurement = engine.measure_phase(
            PhaseCandidates([0], [0], [router], [(cell.x, cell.y)])
        )
        candidate = ref_apply_row(relocate_row(router, cell), incumbent)
        reference = Evaluator(problem, engine="dense").evaluate(candidate)
        assert float(measurement.fitness[0]) == reference.fitness
        assert int(measurement.covered_clients[0]) == reference.covered_clients

    def test_commit_is_incremental_rebuild(self, problem):
        rng = np.random.default_rng(25)
        incumbent = Placement.random(problem.grid, problem.n_routers, rng)
        engine = StackedDeltaEngine(problem)
        engine.reset_chain(0, incumbent)
        moved = ref_apply_row(
            relocate_row(2, free_cell(problem.grid, incumbent.occupied, rng)),
            incumbent,
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
        free = free_cell(
            problem.grid, incumbent.occupied, np.random.default_rng(27)
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
            cell = free_cell(problem.grid, incumbent.occupied, rng)
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


# ----------------------------------------------------------------------
# Sparse chain-cache layout
# ----------------------------------------------------------------------

ROW_FIELDS = (
    "giant_sizes", "covered_clients", "n_components",
    "n_links", "mean_degrees", "fitness", "giant_masks",
)

needs_kernels = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)


def random_moves(problem, placement, rng, count):
    """``(movers, new_cells)`` candidates of every phase shape.

    No-ops, relocations to a free cell, literal swaps (two routers
    exchange cells) and two-router relocations, in random order.
    """
    grid = problem.grid
    n = problem.n_routers
    cells = placement.cells_array()
    moves = []
    for _ in range(count):
        kind = int(rng.integers(4))
        free = grid.n_cells - n
        if kind == 0 or (kind != 2 and free == 0) or (kind >= 2 and n < 2):
            moves.append(((), ()))
        elif kind == 1:
            router = int(rng.integers(n))
            cell = free_cell(grid, placement.occupied, rng)
            moves.append(((router,), (tuple(cell),)))
        elif kind == 2:
            a, b = (int(r) for r in rng.choice(n, size=2, replace=False))
            moves.append(((a, b), (tuple(cells[b]), tuple(cells[a]))))
        else:
            a, b = (int(r) for r in rng.choice(n, size=2, replace=False))
            first = free_cell(grid, placement.occupied, rng)
            taken = set(placement.occupied) | {first}
            if len(taken) >= grid.n_cells:
                moves.append(((a,), (tuple(first),)))
                continue
            second = free_cell(grid, taken, rng)
            moves.append(((a, b), (tuple(first), tuple(second))))
    return moves


def candidate_placement(incumbent, movers, new_cells):
    cells = incumbent.cells_array().copy()
    for router, cell in zip(movers, new_cells):
        cells[router] = cell
    return Placement.from_cells(incumbent.grid, cells)


def assert_phase_matches(engine, reference, incumbents, moves_per_chain):
    """One phase through ``engine`` against a full ``reference`` measure.

    Returns the candidate placements, chain-major.
    """
    items, placements = [], []
    for chain, moves in enumerate(moves_per_chain):
        for movers, new_cells in moves:
            items.append((chain, movers, new_cells))
            placements.append(
                candidate_placement(incumbents[chain], movers, new_cells)
            )
    measurement = engine.measure_phase(phase_candidates(items))
    expected = reference.measure_placements(placements)
    for name in ROW_FIELDS:
        assert np.array_equal(
            getattr(measurement, name), getattr(expected, name)
        ), name
    return placements


def sparse_phase_loop(engine, reference, incumbents, rng, count, phases=2):
    """Measure, commit one candidate per chain, measure again."""
    for chain, incumbent in enumerate(incumbents):
        engine.reset_chain(chain, incumbent)
    problem = engine.problem
    incumbents = list(incumbents)
    for _ in range(phases):
        moves = [
            random_moves(problem, incumbent, rng, count)
            for incumbent in incumbents
        ]
        placements = assert_phase_matches(engine, reference, incumbents, moves)
        for chain in range(len(incumbents)):
            incumbents[chain] = placements[chain * count + int(rng.integers(count))]
            engine.commit_chain(chain, incumbents[chain])


@st.composite
def small_cases(draw):
    """``(problem, incumbents, seed)`` on grids up to 14x14."""
    width = draw(st.integers(1, 14))
    height = draw(st.integers(1, 14))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    n_routers = draw(st.integers(1, min(width * height, 20)))
    client_cells = draw(st.lists(cell, max_size=30))
    if client_cells:
        # Coincident clients: repeat some drawn cells verbatim.
        client_cells += draw(st.lists(st.sampled_from(client_cells), max_size=4))
    radii = draw(
        st.lists(
            st.floats(0.5, 20.0, allow_nan=False, allow_infinity=False),
            min_size=n_routers,
            max_size=n_routers,
        )
    )
    grid = GridArea(width, height)
    problem = ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii(radii),
        clients=ClientSet.from_points(
            [Point(x, y) for x, y in client_cells], grid=grid
        ),
        link_rule=draw(st.sampled_from(list(LinkRule))),
        coverage_rule=draw(st.sampled_from(list(CoverageRule))),
    )
    incumbents = [
        Placement.from_cells(
            grid,
            draw(st.lists(cell, min_size=n_routers, max_size=n_routers, unique=True)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return problem, incumbents, draw(st.integers(0, 2**32 - 1))


class TestSparseChainCache:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=small_cases())
    def test_numpy_sparse_matches_full_measurement(self, case):
        problem, incumbents, seed = case
        engine = StackedDeltaEngine(problem, engine="sparse")
        assert engine.layout == "sparse"
        reference = StackedEngine(problem, engine="dense")
        sparse_phase_loop(
            engine, reference, incumbents, np.random.default_rng(seed), count=6
        )

    @pytest.mark.parametrize("coverage_rule", list(CoverageRule))
    def test_zero_clients_and_one_router(self, coverage_rule):
        grid = GridArea(9, 7)
        for n_routers, client_points in ((1, [Point(2, 2), Point(8, 6)]), (5, [])):
            problem = ProblemInstance(
                grid=grid,
                fleet=RouterFleet.from_radii([2.5] * n_routers),
                clients=ClientSet.from_points(client_points, grid=grid),
                coverage_rule=coverage_rule,
            )
            rng = np.random.default_rng(n_routers)
            incumbents = [
                Placement.random(grid, n_routers, rng) for _ in range(2)
            ]
            sparse_phase_loop(
                StackedDeltaEngine(problem, engine="sparse"),
                StackedEngine(problem, engine="dense"),
                incumbents, rng, count=5, phases=3,
            )

    @pytest.mark.parametrize("link_rule", list(LinkRule))
    def test_mover_outside_the_incumbent_index_extent(self, link_rule):
        # Routers crowd one corner; the movers land bins beyond the
        # router index's extent, next to clients on the far side.
        grid = GridArea(64, 64)
        clients = [Point(60, 60), Point(61, 59), Point(2, 2), Point(5, 1)]
        problem = ProblemInstance(
            grid=grid,
            fleet=RouterFleet.from_radii([3.0, 2.0, 3.5, 2.5]),
            clients=ClientSet.from_points(clients, grid=grid),
            link_rule=link_rule,
        )
        incumbent = Placement.from_cells(grid, [(0, 0), (2, 1), (4, 3), (1, 5)])
        engine = StackedDeltaEngine(problem, engine="sparse")
        engine.reset_chain(0, incumbent)
        cell = link_cell_size(problem.fleet.radii, link_rule)
        extent = np.floor(incumbent.positions_array() / cell).max()
        moves = [
            ((1,), ((61, 61),)),
            ((0, 2), ((60, 62), (62, 60))),
            ((3, 1), ((59, 59), (63, 63))),
            ((), ()),
        ]
        for _, targets in moves[:3]:
            assert np.floor(np.array(targets) / cell).min() > extent + 1
        placements = assert_phase_matches(
            engine, StackedEngine(problem, engine="dense"), [incumbent], [moves]
        )
        # Commit a far mover, then measure back towards the corner.
        engine.commit_chain(0, placements[1])
        assert_phase_matches(
            engine,
            StackedEngine(problem, engine="dense"),
            [placements[1]],
            [[((0,), ((3, 3),)), ((2, 1), ((1, 1), (61, 61))), ((), ())]],
        )

    def test_commit_matches_a_fresh_cache(self):
        problem = city_spec(512, 6_000, seed=4).generate()
        rng = np.random.default_rng(41)
        incumbent = Placement.random(problem.grid, problem.n_routers, rng)
        engine = StackedDeltaEngine(problem, engine="sparse")
        engine.reset_chain(0, incumbent)
        for movers, new_cells in random_moves(problem, incumbent, rng, 6):
            incumbent = candidate_placement(incumbent, movers, new_cells)
            engine.commit_chain(0, incumbent)
        fresh = StackedDeltaEngine(problem, engine="sparse")
        fresh.reset_chain(0, incumbent)
        committed, rebuilt = engine._caches[0], fresh._caches[0]
        assert np.array_equal(committed.positions, rebuilt.positions)
        assert np.array_equal(committed.hit_ptr, rebuilt.hit_ptr)
        assert sorted(zip(*committed.hit_pairs())) == sorted(
            zip(*rebuilt.hit_pairs())
        )
        assert {
            (min(a, b), max(a, b))
            for a, b in zip(committed.edge_rows, committed.edge_cols)
        } == {
            (min(a, b), max(a, b))
            for a, b in zip(rebuilt.edge_rows, rebuilt.edge_cols)
        }

    def test_cache_bytes_are_linear_in_routers_edges_and_hits(self):
        # Many more clients than routers: an (M, N) or (K, M, N) array
        # would dwarf the bound below by two orders of magnitude.
        problem = city_spec(128, 20_000, seed=5).generate()
        rng = np.random.default_rng(42)
        incumbent = Placement.random(problem.grid, problem.n_routers, rng)
        engine = StackedDeltaEngine(problem, engine="sparse")
        engine.reset_chain(0, incumbent)
        engine.commit_chain(
            0, candidate_placement(incumbent, (3,), ((500, 7),))
        )
        cache = engine._caches[0]
        n, m = problem.n_routers, problem.n_clients
        edges = cache.edge_rows.size
        hits = cache.hit_client.size
        arrays = cache_arrays(cache)
        total = sum(array.nbytes for array in arrays)
        # Per router: positions, index order and ids, CSR offsets; per
        # edge two endpoints; per hit one client id — 8 bytes at most.
        assert total <= 8 * (2 * n + 2 * n + (n + 1) + 2 * edges + hits)
        assert max(array.size for array in arrays) < m
        assert m * n > 100 * total

    def test_layout_follows_the_tier(self):
        problem = tiny_spec(seed=3).generate()
        assert StackedDeltaEngine(problem, engine="dense").layout == "dense"
        assert StackedDeltaEngine(problem, engine="sparse").layout == "sparse"

    @needs_kernels
    @pytest.mark.parametrize("coverage_rule", list(CoverageRule))
    @pytest.mark.parametrize("link_rule", list(LinkRule))
    def test_compiled_tier_matches_full_measurement(self, link_rule, coverage_rule):
        problem = (
            city_spec(1024, 4_000, seed=3)
            .generate()
            .with_link_rule(link_rule)
            .with_coverage_rule(coverage_rule)
        )
        assert select_engine(problem) == "sparse"
        engine = StackedDeltaEngine(problem, engine="compiled")
        assert engine.layout == "sparse"
        rng = np.random.default_rng(43)
        incumbents = [
            Placement.random(problem.grid, problem.n_routers, rng)
            for _ in range(2)
        ]
        sparse_phase_loop(
            engine, StackedEngine(problem, engine="sparse"), incumbents, rng,
            count=6,
        )

    @needs_kernels
    def test_compiled_tier_without_clients(self):
        problem = city_spec(2100, 0, seed=3).generate()
        assert select_engine(problem) == "sparse"
        engine = StackedDeltaEngine(problem, engine="compiled")
        assert engine.layout == "sparse"
        rng = np.random.default_rng(44)
        incumbents = [Placement.random(problem.grid, problem.n_routers, rng)]
        sparse_phase_loop(
            engine, StackedEngine(problem, engine="sparse"), incumbents, rng,
            count=4,
        )


def cache_arrays(value) -> list[np.ndarray]:
    """Every array a chain cache holds, through its index too.

    The incumbent placement is the caller's object, not cache state.
    """
    if isinstance(value, np.ndarray):
        return [value]
    if not hasattr(type(value), "__slots__"):
        return []
    return [
        array
        for name in type(value).__slots__
        if name != "placement"
        for array in cache_arrays(getattr(value, name, None))
    ]


# ----------------------------------------------------------------------
# Every tier and layout against the dense reference
# ----------------------------------------------------------------------

#: Every tier this machine can run (compiled only when its kernels build).
TIERS = ("dense", "sparse") + (("compiled",) if compiled.is_available() else ())

#: ``(tier, layout)`` pairs: a numpy tier caches its own layout, the
#: compiled tier whichever one ``select_engine`` names.
TIER_LAYOUTS = [
    (tier, layout)
    for tier in TIERS
    for layout in ("dense", "sparse")
    if tier in ("compiled", layout)
]


def force_layout(monkeypatch, layout):
    """Make ``select_engine`` name ``layout`` for every instance."""
    if layout == "dense":
        monkeypatch.setattr(dispatch, "DENSE_CELL_BUDGET", math.inf)
    else:
        monkeypatch.setattr(dispatch, "DENSE_CELL_BUDGET", 0)
        monkeypatch.setattr(dispatch, "_RING_AREA_FRACTION", math.inf)


def assert_same_evaluation(evaluation, reference):
    assert evaluation.metrics == reference.metrics
    assert evaluation.fitness == reference.fitness
    assert np.array_equal(evaluation.giant_mask, reference.giant_mask)


class TestRouterCount:
    @pytest.mark.parametrize(
        "tier,layout", TIER_LAYOUTS, ids=[f"{t}-{l}" for t, l in TIER_LAYOUTS]
    )
    @pytest.mark.parametrize("offset", (-1, 1), ids=("short", "long"))
    def test_wrong_size_placement_is_refused(
        self, problem, tier, layout, offset, monkeypatch
    ):
        force_layout(monkeypatch, layout)
        n = problem.n_routers
        rng = np.random.default_rng(33)
        right = Placement.random(problem.grid, n, rng)
        wrong = Placement.random(problem.grid, n + offset, rng)
        message = re.escape(
            f"placement positions {n + offset} routers but the fleet has {n}"
        )
        engine = StackedEngine(problem, engine=tier)
        delta = StackedDeltaEngine(problem, engine=tier)
        assert delta.layout == layout
        for stack in ([wrong], [right, wrong]):
            with pytest.raises(ValueError, match=message):
                engine.measure_placements(stack)
        with pytest.raises(ValueError, match=message):
            delta.reset_chain(0, wrong)
        # The refused start left no incumbent behind.
        phase, _ = phase_of([(0, right, (), ())])
        with pytest.raises(ValueError, match="no incumbent"):
            delta.measure_phase(phase)
        reference = Evaluator(problem, engine="dense").evaluate(right)
        assert_same_evaluation(delta.reset_chain(0, right), reference)
        with pytest.raises(ValueError, match=message):
            delta.commit_chain(0, wrong)
        assert_same_evaluation(measure_placement(delta, 0, right), reference)


@st.composite
def generated_instances(draw):
    """``(problem, placements)`` over the degenerate instance shapes.

    1xK and Kx1 grids, one router or a full grid, no clients or
    coincident ones, radii at or above the grid diagonal, every link
    and coverage rule.
    """
    shape = draw(st.sampled_from(("row", "column", "block")))
    if shape == "block":
        width, height = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    else:
        width, height = draw(st.integers(1, 16)), 1
        if shape == "column":
            width, height = height, width
    n_cells = width * height
    n_routers = draw(
        st.one_of(st.just(1), st.just(n_cells), st.integers(1, n_cells))
    )
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    client_cells = draw(st.lists(cell, max_size=30))
    if client_cells:
        client_cells += draw(st.lists(st.sampled_from(client_cells), max_size=6))
    diagonal = max(math.hypot(width - 1, height - 1), 0.5)
    if draw(st.booleans()):
        radius = st.one_of(
            st.just(diagonal), st.floats(diagonal, 2.0 * diagonal + 1.0)
        )
    else:
        # Short radii split the graph, so GIANT_ONLY coverage differs
        # from ANY_ROUTER coverage.
        radius = st.floats(0.5, 3.0)
    grid = GridArea(width, height)
    problem = ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii(
            draw(st.lists(radius, min_size=n_routers, max_size=n_routers))
        ),
        clients=ClientSet.from_points(
            [Point(x, y) for x, y in client_cells], grid=grid
        ),
        link_rule=draw(st.sampled_from(list(LinkRule))),
        coverage_rule=draw(st.sampled_from(list(CoverageRule))),
    )
    placements = []
    for _ in range(draw(st.integers(1, 3))):
        flat = draw(st.permutations(range(n_cells)))[:n_routers]
        placements.append(
            Placement.from_cells(grid, [(i % width, i // width) for i in flat])
        )
    return problem, placements


class TestGeneratedInstances:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=generated_instances())
    def test_every_tier_and_layout_matches_the_reference(self, case):
        problem, placements = case
        reference = Evaluator(problem, engine="dense")
        expected = [reference.evaluate(placement) for placement in placements]
        for tier, layout in TIER_LAYOUTS:
            with pytest.MonkeyPatch.context() as monkeypatch:
                force_layout(monkeypatch, layout)
                engine = StackedEngine(problem, engine=tier)
                measurement = engine.measure_placements(placements)
                # A GA generation's entry: the checked cell stack.
                stack = engine.measure_placements(
                    np.stack([placement.cells_array() for placement in placements])
                )
                delta = StackedDeltaEngine(problem, engine=tier)
                assert delta.layout == layout
                for chain, placement in enumerate(placements):
                    assert_same_evaluation(
                        measurement.evaluation(chain, placement), expected[chain]
                    )
                    assert_same_evaluation(
                        stack.evaluation(chain, placement), expected[chain]
                    )
                    assert_same_evaluation(
                        delta.reset_chain(chain, placement), expected[chain]
                    )
