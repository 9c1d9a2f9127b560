"""Spatial-grid index edge cases and engine dispatch.

The sparse engine's correctness rests on the bin prune being strictly
conservative; these tests drive the index through the degenerate
geometries where that is easiest to get wrong — one giant bin, bins
larger than the data, queries outside the indexed extent, float
positions — and pin the dispatch heuristic on representative instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coverage import coverage_matrix
from repro.core.engine import (
    SparseEngine,
    SpatialGridIndex,
    StackedEngine,
    select_engine,
    sparse_edges,
)
from repro.core.engine import sparse
from repro.core.engine.dispatch import resolve_engine
from repro.core.engine.sparse import (
    coverage_cell_size,
    expand_ranges,
    link_cell_size,
)
from repro.core.evaluation import Evaluator
from repro.core.network import adjacency_matrix
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule, RadioProfile
from repro.core.solution import Placement
from repro.instances.catalog import city_medium, city_spec, paper_normal, tiny_spec


def pair_set(rows: np.ndarray, cols: np.ndarray) -> set[tuple[int, int]]:
    return {
        (min(a, b), max(a, b)) for a, b in zip(rows.tolist(), cols.tolist())
    }


def dense_pair_set(adjacency: np.ndarray) -> set[tuple[int, int]]:
    rows, cols = np.nonzero(np.triu(adjacency))
    return set(zip(rows.tolist(), cols.tolist()))


class TestSpatialGridIndex:
    def test_all_points_in_one_bin(self):
        # Cell size dwarfs the data: every unordered pair is a candidate,
        # exactly once.
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 5, size=(20, 2))
        index = SpatialGridIndex(points, cell_size=100.0)
        rows, cols = index.candidate_pairs()
        assert rows.size == 20 * 19 // 2
        assert len(pair_set(rows, cols)) == rows.size
        assert not np.any(rows == cols)

    def test_empty_index(self):
        index = SpatialGridIndex(np.zeros((0, 2)), cell_size=4.0)
        rows, cols = index.candidate_pairs()
        assert rows.size == 0 and cols.size == 0
        queries, members = index.query_points(np.array([[1.0, 1.0]]))
        assert queries.size == 0 and members.size == 0

    def test_single_point(self):
        index = SpatialGridIndex(np.array([[2.0, 3.0]]), cell_size=4.0)
        rows, cols = index.candidate_pairs()
        assert rows.size == 0
        queries, members = index.query_points(np.array([[2.5, 3.5]]))
        assert members.tolist() == [0]

    def test_candidate_pairs_are_superset_of_in_range_pairs(self):
        rng = np.random.default_rng(11)
        points = rng.uniform(0, 200, size=(120, 2))
        cell = 7.0
        index = SpatialGridIndex(points, cell_size=cell)
        candidates = pair_set(*index.candidate_pairs())
        dx = points[:, 0:1] - points[np.newaxis, :, 0]
        dy = points[:, 1:2] - points[np.newaxis, :, 1]
        within = dx * dx + dy * dy <= cell * cell
        for a, b in zip(*np.nonzero(np.triu(within, k=1))):
            assert (int(a), int(b)) in candidates

    def test_query_far_outside_extent_finds_nothing(self):
        points = np.arange(10, dtype=float).reshape(5, 2)
        index = SpatialGridIndex(points, cell_size=4.0)
        queries, members = index.query_points(np.array([[1000.0, -500.0]]))
        assert queries.size == 0 and members.size == 0

    def test_query_just_outside_extent_sees_boundary_bins(self):
        # A query one bin off the extent still reaches the edge bins.
        points = np.array([[0.5, 0.5], [3.5, 3.5]])
        index = SpatialGridIndex(points, cell_size=4.0)
        queries, members = index.query_points(np.array([[-1.0, 0.0]]))
        assert set(members.tolist()) == {0, 1}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SpatialGridIndex(np.zeros((3, 3)), cell_size=1.0)
        with pytest.raises(ValueError):
            SpatialGridIndex(np.zeros((3, 2)), cell_size=0.0)
        index = SpatialGridIndex(np.zeros((3, 2)), cell_size=1.0)
        with pytest.raises(ValueError):
            index.query_points(np.zeros((2, 3)))


class TestExpandRanges:
    def test_matches_a_python_loop(self):
        starts = np.array([3, 0, 5, 7, 2])
        ends = np.array([6, 0, 4, 9, 3])
        sources, slots = expand_ranges(starts, ends)
        expected = [
            (i, slot)
            for i, (start, end) in enumerate(zip(starts, ends))
            for slot in range(start, end)
        ]
        assert list(zip(sources.tolist(), slots.tolist())) == expected

    def test_empty_ranges(self):
        sources, slots = expand_ranges(np.array([2, 4]), np.array([2, 1]))
        assert sources.size == 0 and slots.size == 0


class TestSparseEdgesEdgeCases:
    def test_radius_larger_than_whole_grid(self):
        # Every router reaches every other: the sparse edge set must be
        # the complete graph, exactly like the dense matrix.
        rng = np.random.default_rng(5)
        problem = ProblemInstance.build(
            16, 16, 8, [(1, 1), (14, 14)], RadioProfile(50.0, 50.0), rng
        )
        placement = Placement.random(problem.grid, 8, rng)
        positions = placement.positions_array()
        for rule in LinkRule:
            rows, cols = sparse_edges(positions, problem.fleet.radii, rule)
            assert pair_set(rows, cols) == dense_pair_set(
                adjacency_matrix(positions, problem.fleet.radii, rule)
            )
            assert rows.size == 8 * 7 // 2

    def test_all_routers_in_one_bin(self):
        # A tight cluster on a big area: one occupied bin, dense-complete
        # candidate set, still exact.
        rng = np.random.default_rng(9)
        radii = rng.uniform(50, 60, size=12)
        positions = rng.uniform(100, 104, size=(12, 2))
        for rule in LinkRule:
            rows, cols = sparse_edges(positions, radii, rule)
            assert pair_set(rows, cols) == dense_pair_set(
                adjacency_matrix(positions, radii, rule)
            )

    def test_non_integral_positions_float_path(self):
        # The sparse predicate always runs the float64 reference
        # formulas, so fractional coordinates need no special casing.
        rng = np.random.default_rng(13)
        positions = rng.uniform(0, 90, size=(40, 2))
        radii = rng.uniform(2, 9, size=40)
        for rule in LinkRule:
            rows, cols = sparse_edges(positions, radii, rule)
            assert pair_set(rows, cols) == dense_pair_set(
                adjacency_matrix(positions, radii, rule)
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sparse_edges(
                np.zeros((4, 2)), np.zeros(3), LinkRule.BIDIRECTIONAL
            )


class TestSparseCoverageEdgeCases:
    def make_problem(self, client_cells, radio=RadioProfile(2.0, 2.0), side=64):
        rng = np.random.default_rng(2)
        return ProblemInstance.build(
            side, side, 4, client_cells, radio, rng,
            coverage_rule=CoverageRule.ANY_ROUTER,
        )

    def test_clients_outside_every_occupied_bin(self):
        # Routers cluster in one corner, clients in the opposite one:
        # no candidate pairs, zero coverage — and bit-equal to dense.
        problem = self.make_problem([(60, 60), (61, 61), (63, 60)])
        placement = Placement.from_cells(
            problem.grid, [(0, 0), (1, 0), (0, 1), (1, 1)]
        )
        evaluation = sparse_evaluation(problem, placement)
        assert evaluation.covered_clients == 0
        reference = Evaluator(problem, engine="dense").evaluate(placement)
        assert reference.metrics == evaluation.metrics

    def test_no_clients(self):
        problem = self.make_problem([])
        placement = Placement.from_cells(
            problem.grid, [(0, 0), (5, 5), (10, 10), (15, 15)]
        )
        evaluation = sparse_evaluation(problem, placement)
        assert evaluation.covered_clients == 0
        assert evaluation.metrics.n_clients == 0

    def test_covered_count_matches_dense_matrix(self):
        rng = np.random.default_rng(23)
        cells = [tuple(map(int, c)) for c in rng.integers(0, 64, size=(50, 2))]
        problem = self.make_problem(cells, radio=RadioProfile(3.0, 9.0))
        placement = Placement.random(problem.grid, 4, rng)
        positions = placement.positions_array()
        matrix = coverage_matrix(
            problem.clients.positions, positions, problem.fleet.radii
        )
        assert sparse_evaluation(problem, placement).covered_clients == int(
            matrix.any(axis=1).sum()
        )
        # GIANT_ONLY counts the giant's routers only.
        giant_only = problem.with_coverage_rule(CoverageRule.GIANT_ONLY)
        evaluation = sparse_evaluation(giant_only, placement)
        mask = evaluation.giant_mask
        assert evaluation.covered_clients == int(
            matrix[:, mask].any(axis=1).sum()
        )

    def test_router_hits_are_router_major_coverage_pairs(self, monkeypatch):
        rng = np.random.default_rng(30)
        cells = [tuple(map(int, c)) for c in rng.integers(0, 64, size=(120, 2))]
        problem = self.make_problem(cells, radio=RadioProfile(3.0, 9.0))
        positions = Placement.random(problem.grid, 4, rng).positions_array()
        matrix = coverage_matrix(
            problem.clients.positions, positions, problem.fleet.radii
        )
        monkeypatch.setattr(sparse, "HIT_QUERY_CHUNK", 3)
        routers, clients = SparseEngine(problem).router_hits(positions)
        assert np.all(np.diff(routers) >= 0)
        assert sorted(zip(routers.tolist(), clients.tolist())) == sorted(
            (int(r), int(c)) for c, r in zip(*np.nonzero(matrix))
        )

    def test_hit_query_chunk_does_not_change_counts(self, monkeypatch):
        rng = np.random.default_rng(29)
        cells = [tuple(map(int, c)) for c in rng.integers(0, 64, size=(80, 2))]
        problem = self.make_problem(cells, radio=RadioProfile(3.0, 9.0))
        placement = Placement.random(problem.grid, 4, rng)
        baseline = sparse_evaluation(problem, placement)
        monkeypatch.setattr(sparse, "HIT_QUERY_CHUNK", 1)
        queries = []
        point_hits = SparseEngine.point_hits
        monkeypatch.setattr(
            SparseEngine,
            "point_hits",
            lambda engine, points, radii_squared: queries.append(len(points))
            or point_hits(engine, points, radii_squared),
        )
        chunked = sparse_evaluation(problem, placement)
        assert queries and set(queries) == {1}
        assert baseline.metrics == chunked.metrics


def sparse_evaluation(problem, placement):
    """``placement`` measured on the numpy sparse tier."""
    measurement = StackedEngine(problem, engine="sparse").measure_placements(
        [placement]
    )
    return measurement.evaluation(0, placement)


class TestEngineDispatch:
    def test_paper_scale_stays_dense(self):
        problem = paper_normal().generate()
        assert select_engine(problem) == "dense"
        # "auto" promotes to the compiled tier when its kernels built;
        # the layout heuristic is asserted above either way.
        assert Evaluator(problem).engine in ("dense", "compiled")
        assert Evaluator(problem, engine="dense").engine == "dense"

    def test_city_scale_goes_sparse(self):
        spec = city_medium()
        assert spec.n_routers == 2048 and spec.n_clients == 20_000
        # 1024 routers / 4k clients already crosses the dense cell
        # budget on the city frame.
        problem = city_spec(1024, 4_000, seed=3).generate()
        assert select_engine(problem) == "sparse"
        assert Evaluator(problem).engine in ("sparse", "compiled")
        assert Evaluator(problem, engine="sparse").engine == "sparse"

    def test_whole_grid_radio_stays_dense(self):
        # Big instance but the bin ring tiles the area: binning would
        # prune nothing, so dispatch keeps the dense path.
        rng = np.random.default_rng(7)
        problem = ProblemInstance.build(
            64, 64, 512,
            [tuple(map(int, c)) for c in rng.integers(0, 64, size=(5000, 2))],
            RadioProfile(30.0, 60.0), rng,
        )
        assert select_engine(problem) == "dense"

    def test_override_and_validation(self):
        problem = tiny_spec(seed=1).generate()
        assert resolve_engine(problem, "sparse") == "sparse"
        assert resolve_engine(problem, "dense") == "dense"
        assert Evaluator(problem, engine="sparse").engine == "sparse"
        with pytest.raises(ValueError):
            resolve_engine(problem, "turbo")
        with pytest.raises(ValueError):
            Evaluator(problem, engine="turbo")

    def test_cell_sizes(self):
        radii = np.array([1.5, 7.0])
        assert link_cell_size(radii, LinkRule.OVERLAP) == 14.0
        assert link_cell_size(radii, LinkRule.BIDIRECTIONAL) == 7.0
        assert link_cell_size(radii, LinkRule.UNIDIRECTIONAL) == 7.0
        assert coverage_cell_size(radii) == 7.0
        assert link_cell_size(np.zeros(0), LinkRule.OVERLAP) == 1.0
        assert coverage_cell_size(np.zeros(0)) == 1.0
