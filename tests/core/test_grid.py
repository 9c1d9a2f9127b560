"""Unit and property tests for the deployment grid."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea


class TestConstruction:
    def test_valid(self):
        g = GridArea(4, 8)
        assert g.n_cells == 32
        assert g.bounds == Rect(0, 0, 4, 8)
        assert g.center == Point(2, 4)

    @pytest.mark.parametrize("width,height", [(0, 5), (5, 0), (-1, 5), (5, -2)])
    def test_invalid_dimensions(self, width, height):
        with pytest.raises(ValueError):
            GridArea(width, height)


class TestQueries:
    def test_contains(self, grid):
        assert grid.contains(Point(0, 0))
        assert grid.contains(Point(31, 31))
        assert not grid.contains(Point(32, 0))
        assert not grid.contains(Point(0, -1))

    def test_require_inside_raises(self, grid):
        with pytest.raises(ValueError, match="outside"):
            grid.require_inside(Point(40, 2))

    def test_cells_count(self):
        g = GridArea(3, 2)
        cells = list(g.cells())
        assert len(cells) == 6
        assert len(set(cells)) == 6

    def test_cell_index_roundtrip(self, grid):
        for p in [Point(0, 0), Point(31, 31), Point(5, 17)]:
            assert grid.cell_at(grid.cell_index(p)) == p

    def test_cell_index_row_major(self):
        g = GridArea(10, 10)
        assert g.cell_index(Point(3, 2)) == 23

    def test_cell_at_out_of_range(self, grid):
        with pytest.raises(ValueError):
            grid.cell_at(-1)
        with pytest.raises(ValueError):
            grid.cell_at(grid.n_cells)

    @given(st.integers(1, 40), st.integers(1, 40), st.data())
    def test_cell_index_bijection(self, width, height, data):
        g = GridArea(width, height)
        index = data.draw(st.integers(0, g.n_cells - 1))
        assert g.cell_index(g.cell_at(index)) == index


class TestAspect:
    def test_square_is_near_square(self):
        assert GridArea(128, 128).is_near_square()

    def test_ten_percent_tolerance(self):
        assert GridArea(100, 90).is_near_square()
        assert not GridArea(100, 89).is_near_square()

    def test_custom_tolerance(self):
        assert GridArea(100, 50).is_near_square(tolerance=0.5)


class TestSubAreas:
    def test_central_rect_centered(self):
        g = GridArea(128, 128)
        r = g.central_rect(32, 32)
        assert r == Rect(48, 48, 32, 32)

    def test_central_rect_full_grid(self, grid):
        assert grid.central_rect(32, 32) == grid.bounds

    def test_central_rect_too_large(self, grid):
        with pytest.raises(ValueError):
            grid.central_rect(33, 10)

    def test_corner_rects_positions(self):
        g = GridArea(100, 80)
        bl, br, tl, tr = g.corner_rects(10, 8)
        assert bl == Rect(0, 0, 10, 8)
        assert br == Rect(90, 0, 10, 8)
        assert tl == Rect(0, 72, 10, 8)
        assert tr == Rect(90, 72, 10, 8)

    def test_corner_rects_too_large(self, grid):
        with pytest.raises(ValueError):
            grid.corner_rects(40, 4)


class TestSampling:
    def test_random_cell_in_rect(self, grid, rng):
        rect = Rect(4, 4, 3, 3)
        for _ in range(50):
            assert rect.contains(grid.random_cell_in(rect, rng))

    def test_random_cell_in_empty_region_raises(self, grid, rng):
        with pytest.raises(ValueError):
            grid.random_cell_in(Rect(100, 100, 5, 5), rng)

    def test_random_free_index_avoids_occupied(self, rng):
        g = GridArea(3, 3)
        bitmap = bytearray(b"\x01" * g.n_cells)
        bitmap[g.cell_index(Point(1, 1))] = 0
        for _ in range(10):
            index = g.random_free_index(bitmap, rng, 0, 0, 3, 3)
            assert g.cell_at(index) == Point(1, 1)

    def test_random_free_index_no_free_raises(self, rng):
        g = GridArea(2, 2)
        bitmap = bytearray(b"\x01" * g.n_cells)
        with pytest.raises(ValueError, match="no free cell"):
            g.random_free_index(bitmap, rng, 0, 0, 2, 2)

    def test_random_free_index_empty_region_raises(self, grid, rng):
        bitmap = bytearray(grid.n_cells)
        with pytest.raises(ValueError, match="empty"):
            grid.random_free_index(bitmap, rng, 40, 40, 45, 45)

    def test_random_free_index_within(self, grid, rng):
        bitmap = grid.occupancy_bitmap(np.array([(0, 0), (1, 0), (0, 1)]))
        index = grid.random_free_index(bitmap, rng, 0, 0, 2, 2)
        assert grid.cell_at(index) == Point(1, 1)

    def test_sample_distinct_cells(self, grid, rng):
        cells = grid.sample_distinct_cells(100, rng)
        assert len(cells) == 100
        assert len(set(cells)) == 100
        assert all(grid.contains(c) for c in cells)

    def test_sample_distinct_cells_whole_grid(self, rng):
        g = GridArea(4, 4)
        cells = g.sample_distinct_cells(16, rng)
        assert set(cells) == set(g.cells())

    def test_sample_distinct_too_many(self, rng):
        g = GridArea(4, 4)
        with pytest.raises(ValueError, match="free cells"):
            g.sample_distinct_cells(17, rng)

    def test_sample_distinct_respects_occupied(self, rng):
        g = GridArea(4, 1)
        occupied = [Point(0, 0), Point(1, 0)]
        cells = g.sample_distinct_cells(2, rng, occupied=occupied)
        assert set(cells) == {Point(2, 0), Point(3, 0)}

    @settings(max_examples=25)
    @given(
        st.integers(2, 20),
        st.integers(2, 20),
        st.integers(1, 10),
        st.integers(0, 10_000),
    )
    def test_sample_distinct_property(self, width, height, count, seed):
        g = GridArea(width, height)
        count = min(count, g.n_cells)
        cells = g.sample_distinct_cells(count, np.random.default_rng(seed))
        assert len(set(cells)) == count
        assert all(g.contains(c) for c in cells)
