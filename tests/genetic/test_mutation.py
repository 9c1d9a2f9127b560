"""Unit and property tests for mutation operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import GridArea
from repro.core.solution import Placement
from repro.genetic.mutation import (
    CompositeMutation,
    GeneSwapMutation,
    JiggleMutation,
    ResetMutation,
    TowardCentroidMutation,
)

ALL_OPERATORS = [
    JiggleMutation(),
    ResetMutation(),
    GeneSwapMutation(),
    TowardCentroidMutation(),
    CompositeMutation([JiggleMutation(), ResetMutation()]),
]


def random_cells(seed: int, n: int = 10, size: int = 20):
    """A grid and a random placement's read-only cell array on it."""
    grid = GridArea(size, size)
    return grid, Placement.random(grid, n, np.random.default_rng(seed)).cells_array()


def occupied(cells: np.ndarray) -> set[tuple[int, int]]:
    return {tuple(row) for row in cells.tolist()}


@pytest.mark.parametrize("operator", ALL_OPERATORS, ids=lambda o: o.name)
class TestCommonBehaviour:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_result_is_valid_placement(self, operator, seed):
        grid, cells = random_cells(seed)
        mutated = operator.mutate(grid, cells, np.random.default_rng(seed + 1))
        assert mutated.shape == cells.shape
        # Distinct in-grid cells: the placement constructor validates.
        assert len(Placement.from_cells(grid, mutated).occupied) == len(cells)

    def test_original_untouched(self, operator):
        grid, cells = random_cells(0)
        before = cells.copy()
        operator.mutate(grid, cells, np.random.default_rng(1))
        assert np.array_equal(cells, before)

    @pytest.mark.parametrize("seed", range(8))
    def test_read_only_input_never_written(self, operator, seed):
        grid, cells = random_cells(seed)
        assert not cells.flags.writeable  # numpy raises on any write
        mutated = operator.mutate(grid, cells, np.random.default_rng(seed))
        assert mutated is not cells
        assert not np.shares_memory(mutated, cells)

    def test_deterministic_given_seed(self, operator):
        grid, cells = random_cells(5)
        a = operator.mutate(grid, cells, np.random.default_rng(9))
        b = operator.mutate(grid, cells, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestJiggle:
    def test_displacement_bounded(self):
        grid, cells = random_cells(1)
        operator = JiggleMutation(radius=3, per_gene_rate=1.0)
        mutated = operator.mutate(grid, cells, np.random.default_rng(2))
        assert (np.abs(mutated - cells).max(axis=1) <= 3).all()

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            JiggleMutation(per_gene_rate=0.0)
        with pytest.raises(ValueError):
            JiggleMutation(radius=0)

    def test_full_neighborhood_keeps_router(self, rng):
        # A completely packed grid leaves no room to jiggle.
        grid = GridArea(3, 3)
        cells = Placement.from_cells(grid, list(grid.cells())).cells_array()
        mutated = JiggleMutation(radius=1, per_gene_rate=1.0).mutate(grid, cells, rng)
        assert occupied(mutated) == occupied(cells)


class TestReset:
    def test_exactly_count_routers_moved_at_most(self):
        grid, cells = random_cells(3)
        mutated = ResetMutation(count=2).mutate(grid, cells, np.random.default_rng(4))
        moved = int((mutated != cells).any(axis=1).sum())
        assert moved <= 2

    def test_count_validation(self):
        with pytest.raises(ValueError):
            ResetMutation(count=0)

    def test_count_larger_than_fleet_clamped(self, rng):
        grid, cells = random_cells(7, n=3)
        mutated = ResetMutation(count=100).mutate(grid, cells, rng)
        assert len(mutated) == 3


class TestGeneSwap:
    def test_preserves_occupied_cells(self):
        grid, cells = random_cells(5)
        mutated = GeneSwapMutation().mutate(grid, cells, np.random.default_rng(6))
        assert occupied(mutated) == occupied(cells)

    def test_exactly_two_genes_change(self):
        grid, cells = random_cells(6)
        mutated = GeneSwapMutation().mutate(grid, cells, np.random.default_rng(7))
        assert int((mutated != cells).any(axis=1).sum()) == 2

    def test_single_router_noop(self, rng):
        grid, cells = random_cells(8, n=1)
        mutated = GeneSwapMutation().mutate(grid, cells, rng)
        assert np.array_equal(mutated, cells)


class TestTowardCentroid:
    def test_moved_router_closer_to_centroid(self):
        # A placement with one distant outlier: any mutation of the
        # outlier must move it towards the pack (modulo jitter).
        grid = GridArea(64, 64)
        cells = [(x, y) for x in range(3) for y in range(3)]
        cells.append((60, 60))
        cells = Placement.from_cells(grid, cells).cells_array()
        operator = TowardCentroidMutation(max_step_fraction=1.0, jitter=0)
        centroid = cells.astype(float).mean(axis=0)
        for seed in range(30):
            mutated = operator.mutate(grid, cells, np.random.default_rng(seed))
            for i in range(len(cells)):
                if (mutated[i] != cells[i]).any():
                    before = np.hypot(*(cells[i] - centroid))
                    after = np.hypot(*(mutated[i] - centroid))
                    assert after <= before + 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TowardCentroidMutation(max_step_fraction=0.0)
        with pytest.raises(ValueError):
            TowardCentroidMutation(jitter=-1)


class TestComposite:
    def test_weights_normalized(self):
        composite = CompositeMutation(
            [JiggleMutation(), ResetMutation()], weights=[1.0, 3.0]
        )
        assert composite.probabilities[1] == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompositeMutation([])
        with pytest.raises(ValueError):
            CompositeMutation([JiggleMutation()], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            CompositeMutation([JiggleMutation()], weights=[0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CompositeMutation([JiggleMutation(), ResetMutation()], weights=[bad, 1.0])

    def test_zero_weight_operator_never_used(self):
        class Exploding(JiggleMutation):
            def mutate(self, grid, cells, rng):
                raise AssertionError("zero-weight operator used")

        composite = CompositeMutation(
            [JiggleMutation(), Exploding()], weights=[1.0, 0.0]
        )
        grid, cells = random_cells(9)
        for seed in range(10):
            composite.mutate(grid, cells, np.random.default_rng(seed))
