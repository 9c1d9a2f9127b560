"""Unit and property tests for the density engine.

The prefix-sum window counts are cross-validated against a brute-force
count over random point sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.density import DensityMap
from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea


def brute_force_count(points, rect: Rect) -> int:
    return sum(1 for x, y in points if rect.contains(Point(int(x), int(y))))


class TestBuild:
    def test_rejects_bad_window(self, grid):
        with pytest.raises(ValueError):
            DensityMap.build(grid, [], 0, 4)
        with pytest.raises(ValueError):
            DensityMap.build(grid, [], 4, 40)

    def test_rejects_out_of_grid_points(self, grid):
        with pytest.raises(ValueError):
            DensityMap.build(grid, [Point(99, 0)], 4, 4)

    def test_window_counts_shape(self, grid):
        dm = DensityMap.build(grid, [], 4, 6)
        assert dm.window_counts.shape == (32 - 6 + 1, 32 - 4 + 1)

    def test_total_points(self, grid):
        dm = DensityMap.build(grid, [Point(0, 0), Point(0, 0), Point(5, 5)], 4, 4)
        assert dm.total_points == 3


class TestCounts:
    def test_single_point(self):
        grid = GridArea(8, 8)
        dm = DensityMap.build(grid, [Point(3, 3)], 2, 2)
        # Windows containing (3,3): anchors x0 in {2,3}, y0 in {2,3}.
        expected = np.zeros((7, 7), dtype=int)
        expected[2:4, 2:4] = 1
        assert np.array_equal(dm.window_counts, expected)

    def test_count_in_matches_brute_force(self, rng):
        grid = GridArea(20, 20)
        points = [
            Point(int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            for _ in range(50)
        ]
        dm = DensityMap.build(grid, points, 5, 5)
        for rect in [Rect(0, 0, 5, 5), Rect(3, 7, 6, 2), Rect(15, 15, 5, 5)]:
            assert dm.count_in(rect) == brute_force_count(points, rect)

    def test_count_in_clips_to_grid(self):
        grid = GridArea(8, 8)
        dm = DensityMap.build(grid, [Point(7, 7)], 2, 2)
        assert dm.count_in(Rect(6, 6, 10, 10)) == 1
        assert dm.count_in(Rect(100, 100, 5, 5)) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(4, 24),
        st.integers(4, 24),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 10_000),
    )
    def test_all_window_counts_match_brute_force(
        self, width, height, ww, wh, seed
    ):
        ww = min(ww, width)
        wh = min(wh, height)
        grid = GridArea(width, height)
        rng = np.random.default_rng(seed)
        n_points = int(rng.integers(0, 30))
        points = [
            Point(int(rng.integers(0, width)), int(rng.integers(0, height)))
            for _ in range(n_points)
        ]
        dm = DensityMap.build(grid, points, ww, wh)
        counts = dm.window_counts
        for y0 in range(counts.shape[0]):
            for x0 in range(counts.shape[1]):
                assert counts[y0, x0] == brute_force_count(
                    points, Rect(x0, y0, ww, wh)
                )


class TestExtremes:
    def test_densest_window_contains_cluster(self):
        grid = GridArea(16, 16)
        cluster = [Point(10, 10), Point(11, 10), Point(10, 11), Point(11, 11)]
        dm = DensityMap.build(grid, cluster + [Point(0, 0)], 4, 4)
        dense = dm.densest_window()
        assert dm.count_in(dense) == 4

    def test_sparsest_window_is_empty(self):
        grid = GridArea(16, 16)
        dm = DensityMap.build(grid, [Point(0, 0)], 4, 4)
        assert dm.count_in(dm.sparsest_window()) == 0

    def test_window_at_validates(self, grid):
        dm = DensityMap.build(grid, [], 4, 4)
        assert dm.window_at(0, 0) == Rect(0, 0, 4, 4)
        with pytest.raises(ValueError):
            dm.window_at(29, 0)
        with pytest.raises(ValueError):
            dm.window_at(-1, 0)


class TestRankedWindows:
    def test_non_overlapping(self):
        grid = GridArea(32, 32)
        rng = np.random.default_rng(1)
        points = [
            Point(int(rng.integers(0, 32)), int(rng.integers(0, 32)))
            for _ in range(60)
        ]
        dm = DensityMap.build(grid, points, 6, 6)
        windows = dm.ranked_windows(5, densest=True)
        for i, a in enumerate(windows):
            for b in windows[i + 1 :]:
                assert not a.intersects(b)

    def test_descending_counts(self):
        grid = GridArea(32, 32)
        rng = np.random.default_rng(2)
        points = [
            Point(int(rng.integers(0, 32)), int(rng.integers(0, 32)))
            for _ in range(60)
        ]
        dm = DensityMap.build(grid, points, 6, 6)
        windows = dm.ranked_windows(4, densest=True)
        counts = [dm.count_in(w) for w in windows]
        assert counts == sorted(counts, reverse=True)

    def test_sparsest_first_when_ascending(self):
        grid = GridArea(16, 16)
        dm = DensityMap.build(grid, [Point(1, 1)] * 5, 4, 4)
        windows = dm.ranked_windows(3, densest=False)
        assert dm.count_in(windows[0]) == 0

    def test_count_validation(self, grid):
        dm = DensityMap.build(grid, [], 4, 4)
        with pytest.raises(ValueError):
            dm.ranked_windows(0)

    def test_overlapping_allowed_when_disabled(self):
        grid = GridArea(16, 16)
        cluster = [Point(8, 8)] * 10
        dm = DensityMap.build(grid, cluster, 4, 4)
        windows = dm.ranked_windows(4, densest=True, min_overlap_free=False)
        # Without suppression the top windows all cover the cluster.
        assert all(dm.count_in(w) == 10 for w in windows)

    def test_fewer_windows_than_requested(self):
        grid = GridArea(8, 8)
        dm = DensityMap.build(grid, [], 4, 4)
        # Only 4 non-overlapping 4x4 windows exist in an 8x8 grid.
        windows = dm.ranked_windows(100, densest=True)
        assert len(windows) == 4


def sort_and_walk_windows(dm: DensityMap, count, densest, min_overlap_free):
    """Frozen copy of the original ``ranked_windows`` (stable sort + walk)."""
    counts = dm.window_counts
    keys = -counts if densest else counts
    order = np.argsort(keys, axis=None, kind="stable")
    blocked = np.zeros(counts.shape, dtype=bool)
    n_rows, n_cols = counts.shape
    selected = []
    for flat_index in order:
        y0, x0 = divmod(int(flat_index), n_cols)
        if min_overlap_free and blocked[y0, x0]:
            continue
        selected.append(dm.window_at(x0, y0))
        if len(selected) == count:
            break
        if min_overlap_free:
            row_lo = max(0, y0 - dm.window_height + 1)
            row_hi = min(n_rows, y0 + dm.window_height)
            col_lo = max(0, x0 - dm.window_width + 1)
            col_hi = min(n_cols, x0 + dm.window_width)
            blocked[row_lo:row_hi, col_lo:col_hi] = True
    return selected


@st.composite
def density_cases(draw):
    shape = draw(st.sampled_from(["strip", "square", "free"]))
    if shape == "strip":
        width, height = draw(st.integers(1, 24)), 1
        if draw(st.booleans()):
            width, height = height, width
    else:
        width = draw(st.integers(1, 20))
        height = width if shape == "square" else draw(st.integers(1, 20))
    grid = GridArea(width, height)
    window_width = draw(st.integers(1, width))
    window_height = draw(st.integers(1, height))
    if draw(st.booleans()):
        # Window equal to the grid: exactly one anchor.
        window_width, window_height = width, height
    layout = draw(st.sampled_from(["none", "all-equal", "random"]))
    if layout == "none":
        points = []
    elif layout == "all-equal":
        points = [(x, y) for y in range(height) for x in range(width)]
    else:
        points = draw(
            st.lists(
                st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)),
                max_size=60,
            )
        )
    dm = DensityMap.build(grid, points, window_width, window_height)
    # Up to far more windows than fit disjointly.
    count = draw(st.integers(1, 40))
    return dm, count


@settings(max_examples=300, deadline=None)
@given(
    case=density_cases(),
    densest=st.booleans(),
    min_overlap_free=st.booleans(),
)
def test_ranked_windows_match_sort_and_walk(case, densest, min_overlap_free):
    dm, count = case
    assert dm.ranked_windows(
        count, densest=densest, min_overlap_free=min_overlap_free
    ) == sort_and_walk_windows(dm, count, densest, min_overlap_free)
