"""Unit and property tests for crossover operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import GridArea
from repro.core.solution import Placement
from repro.genetic.crossover import (
    OnePointCrossover,
    RegionExchangeCrossover,
    UniformCrossover,
)

ALL_OPERATORS = [
    UniformCrossover(),
    OnePointCrossover(),
    RegionExchangeCrossover(),
]


def random_parents(seed: int, n: int = 12, size: int = 16):
    """A grid, two parents' read-only cell arrays and an operator stream."""
    rng = np.random.default_rng(seed)
    grid = GridArea(size, size)
    return (
        grid,
        Placement.random(grid, n, rng).cells_array(),
        Placement.random(grid, n, rng).cells_array(),
        np.random.default_rng(seed + 1),
    )


def row_cells(grid: GridArea, y: int, xs) -> np.ndarray:
    return Placement.from_cells(grid, [(x, y) for x in xs]).cells_array()


def as_tuples(cells: np.ndarray) -> list[tuple[int, int]]:
    return [tuple(row) for row in cells.tolist()]


@pytest.mark.parametrize("operator", ALL_OPERATORS, ids=lambda o: o.name)
class TestCommonBehaviour:
    def test_children_valid(self, operator):
        grid, cells_a, cells_b, rng = random_parents(0)
        children = operator.crossover(grid, cells_a, cells_b, rng)
        for child in children:
            assert child.shape == cells_a.shape
            # Distinct in-grid cells: the placement constructor validates.
            assert len(Placement.from_cells(grid, child).occupied) == len(cells_a)

    def test_parents_untouched(self, operator):
        grid, cells_a, cells_b, rng = random_parents(1)
        before_a, before_b = cells_a.copy(), cells_b.copy()
        operator.crossover(grid, cells_a, cells_b, rng)
        assert np.array_equal(cells_a, before_a)
        assert np.array_equal(cells_b, before_b)

    def test_read_only_parents_never_written(self, operator):
        # Parents that hold the same cells in reverse order force the
        # repair path; numpy raises on any write to a read-only array.
        grid = GridArea(6, 6)
        cells_a = Placement.random(grid, 20, np.random.default_rng(2)).cells_array()
        cells_b = cells_a[::-1].copy()
        cells_b.setflags(write=False)
        assert not cells_a.flags.writeable
        children = operator.crossover(grid, cells_a, cells_b, np.random.default_rng(3))
        for child in children:
            assert child is not cells_a and child is not cells_b
            assert not np.shares_memory(child, cells_a)
            assert not np.shares_memory(child, cells_b)

    def test_mismatched_parents_rejected(self, operator, rng):
        grid = GridArea(8, 8)
        a = Placement.random(grid, 4, np.random.default_rng(0)).cells_array()
        b = Placement.random(grid, 5, np.random.default_rng(1)).cells_array()
        with pytest.raises(ValueError, match="equal-length"):
            operator.crossover(grid, a, b, rng)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_genes_close_to_a_parent(self, operator, seed):
        # After repair each gene sits on or near one parent's gene
        # (nudging moves at most a few cells).
        grid, cells_a, cells_b, rng = random_parents(seed)
        for child in operator.crossover(grid, cells_a, cells_b, rng):
            da = np.abs(child - cells_a).max(axis=1)
            db = np.abs(child - cells_b).max(axis=1)
            assert (np.minimum(da, db) <= 3).all()


class TestUniform:
    def test_mix_rate_zero_copies_parent_a(self):
        grid, cells_a, cells_b, rng = random_parents(2)
        child1, child2 = UniformCrossover(mix_rate=0.0).crossover(
            grid, cells_a, cells_b, rng
        )
        assert np.array_equal(child1, cells_a)
        assert np.array_equal(child2, cells_b)

    def test_mix_rate_one_swaps_parents(self):
        grid, cells_a, cells_b, rng = random_parents(3)
        child1, child2 = UniformCrossover(mix_rate=1.0).crossover(
            grid, cells_a, cells_b, rng
        )
        assert np.array_equal(child1, cells_b)
        assert np.array_equal(child2, cells_a)

    def test_mix_rate_validation(self):
        with pytest.raises(ValueError):
            UniformCrossover(mix_rate=1.5)

    def test_children_complementary(self):
        _, _, _, rng = random_parents(4)
        # Use parents with disjoint occupied cells so no repair happens.
        grid = GridArea(32, 32)
        a = row_cells(grid, 0, range(8))
        b = row_cells(grid, 20, range(8))
        child1, child2 = UniformCrossover().crossover(grid, a, b, rng)
        for i in range(8):
            genes = {tuple(child1[i]), tuple(child2[i])}
            assert genes == {tuple(a[i]), tuple(b[i])}


class TestOnePoint:
    def test_prefix_suffix_structure(self):
        grid = GridArea(32, 32)
        a = row_cells(grid, 0, range(8))
        b = row_cells(grid, 20, range(8))
        child1, _ = OnePointCrossover().crossover(
            grid, a, b, np.random.default_rng(0)
        )
        # child1 = prefix of a + suffix of b: y-coordinates step up once.
        ys = child1[:, 1].tolist()
        transitions = sum(
            1 for y1, y2 in zip(ys, ys[1:]) if y1 != y2
        )
        assert transitions == 1

    def test_single_router_parents(self, rng):
        grid = GridArea(8, 8)
        a = np.array([[0, 0]])
        b = np.array([[5, 5]])
        child1, child2 = OnePointCrossover().crossover(grid, a, b, rng)
        assert len(child1) == 1 and len(child2) == 1


class TestRegionExchange:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            RegionExchangeCrossover(min_fraction=0.0)
        with pytest.raises(ValueError):
            RegionExchangeCrossover(min_fraction=0.8, max_fraction=0.5)

    def test_child_mixes_spatially(self):
        grid = GridArea(32, 32)
        a = row_cells(grid, 5, range(0, 20, 2))
        b = row_cells(grid, 25, range(0, 20, 2))
        child1, child2 = RegionExchangeCrossover().crossover(
            grid, a, b, np.random.default_rng(3)
        )
        # Children remain valid placements drawn from both rows.
        for child in (child1, child2):
            ys = set(child[:, 1].tolist())
            assert ys <= {5, 25} or len(ys) >= 1
            assert len(set(as_tuples(child))) == len(child)
