"""Stream parity of ``GridArea.sample_distinct_cells`` on degenerate edges.

The sampler draws its picks on bulk draws (``BulkDraws``), so it must
return exactly the cells of the scalar pick-by-pick loop *and* leave
the generator in exactly the same full ``bit_generator.state``.
This module keeps a frozen copy of that loop as the reference
(``frozen_sample_distinct_cells``; do not "modernise" it) and compares
on the edges where the draws change shape: one-cell-wide grids and
windows (a span of 1 draws nothing),
``count == available``, regions crowded enough to reach the 64-attempt
enumeration, ``within`` regions clipped by the grid edge, ``occupied``
cells with duplicates, and large grids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea

SEEDS = range(6)


def frozen_free_index(grid, bitmap, rng, x0, y0, x1, y1, fallbacks):
    """The scalar free-cell pick over ``bitmap`` (64 pairs, then enumerate)."""
    width = grid.width
    for _ in range(64):
        x = int(rng.integers(x0, x1))
        index = int(rng.integers(y0, y1)) * width + x
        if not bitmap[index]:
            return index
    fallbacks.append(1)
    window = np.frombuffer(bitmap, dtype=np.uint8).reshape(grid.height, width)
    free_y, free_x = np.nonzero(window[y0:y1, x0:x1] == 0)
    pick = int(rng.integers(0, free_y.size))
    return int(free_y[pick] + y0) * width + int(free_x[pick] + x0)


def frozen_sample_distinct_cells(
    grid, count, rng, within=None, occupied=(), fallbacks=None
):
    """The pick-by-pick loop, one scalar free-cell pick per cell."""
    fallbacks = [] if fallbacks is None else fallbacks
    region = grid.bounds if within is None else within.intersection(grid.bounds)
    width = grid.width
    bitmap = bytearray(grid.n_cells)
    for x, y in occupied:
        if 0 <= x < width and 0 <= y < grid.height:
            bitmap[y * width + x] = 1
    taken = sum(
        bitmap[y * width + x]
        for y in range(region.y0, region.y1)
        for x in range(region.x0, region.x1)
    )
    if count > region.area - taken:
        raise ValueError("not enough free cells")
    chosen = []
    for _ in range(count):
        index = frozen_free_index(
            grid, bitmap, rng, region.x0, region.y0, region.x1, region.y1, fallbacks
        )
        bitmap[index] = 1
        chosen.append(Point(index % width, index // width))
    return chosen


def assert_parity(
    grid, count, seed, within=None, occupied=(), make_rng=np.random.default_rng
):
    ours, reference = make_rng(seed), make_rng(seed)
    fallbacks = []
    expected = frozen_sample_distinct_cells(
        grid, count, reference, within, occupied, fallbacks
    )
    got = grid.sample_distinct_cells(count, ours, within=within, occupied=occupied)
    assert got == expected
    assert ours.bit_generator.state == reference.bit_generator.state
    return len(fallbacks)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "width, height",
    [
        pytest.param(1, 300, id="1xK"),
        pytest.param(300, 1, id="Kx1"),
        pytest.param(1, 1, id="1x1"),
    ],
)
def test_one_cell_wide_grids(width, height, seed):
    grid = GridArea(width, height)
    for count in (1, 9, 40, grid.n_cells // 2, grid.n_cells):
        assert_parity(grid, min(count, grid.n_cells), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_count_equals_available(seed):
    grid = GridArea(12, 9)
    occupied = [Point(x, x % 9) for x in range(12)]
    assert_parity(grid, grid.n_cells - len(occupied), seed, occupied=occupied)
    assert_parity(grid, 36, seed, within=Rect(3, 2, 6, 6))


def test_crowded_region_reaches_the_enumeration():
    # 3 free cells of 1600: the 64 rejection pairs mostly miss them.
    grid = GridArea(40, 40)
    free = {Point(3, 7), Point(20, 31), Point(39, 0)}
    occupied = [cell for cell in grid.cells() if cell not in free]
    hits = sum(assert_parity(grid, 3, seed, occupied=occupied) for seed in SEEDS)
    assert hits > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_crowding_region_falls_back_to_scalar_picks(seed):
    # 200 picks of 256 cells: the later picks reject most draws.
    assert_parity(GridArea(16, 16), 200, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "within",
    [
        pytest.param(Rect(-4, 5, 12, 30), id="left-and-top"),
        pytest.param(Rect(50, -3, 40, 10), id="right-and-bottom"),
        pytest.param(Rect(10, 10, 1, 1), id="one-cell"),
        pytest.param(Rect(10, 0, 1, 64), id="one-column"),
    ],
)
def test_within_clipped_by_the_grid_edge(within, seed):
    grid = GridArea(64, 64)
    region = within.intersection(grid.bounds)
    for count in (1, min(40, region.area), region.area):
        assert_parity(grid, count, seed, within=within)


@pytest.mark.parametrize("seed", SEEDS)
def test_occupied_with_duplicates_and_outside_cells(seed):
    grid = GridArea(24, 24)
    occupied = [Point(x % 24, (3 * x) % 24) for x in range(200)]
    occupied += occupied[:50] + [Point(-1, 4), Point(30, 2)]
    free = grid.n_cells - len({cell for cell in occupied if grid.contains(cell)})
    for count in (5, 120, free):
        assert_parity(grid, count, seed, occupied=occupied)


@pytest.mark.parametrize("seed", SEEDS)
def test_many_blocks_with_repeats(seed):
    # Blocks of ~sqrt(2 * area) picks: about one repeat per block.
    assert_parity(GridArea(32, 32), 300, seed)
    assert_parity(GridArea(512, 512), 2048, seed)
    grid = GridArea(128, 128)
    occupied = [Point((37 * i) % 128, (11 * i) % 128) for i in range(800)]
    assert_parity(grid, 600, seed, occupied=occupied)


@pytest.mark.parametrize("seed", SEEDS)
def test_buffered_half_at_entry(seed):
    def rng_with_buffered_half(seed):
        rng = np.random.default_rng(seed)
        rng.integers(0, 7)
        return rng

    assert_parity(GridArea(64, 64), 300, seed, make_rng=rng_with_buffered_half)


def same_state(a, b) -> bool:
    """Deep equality of ``bit_generator.state`` dicts (some hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("kind", [np.random.MT19937, np.random.Philox])
def test_other_generators_pass_through(kind):
    ours = np.random.Generator(kind(5))
    reference = np.random.Generator(kind(5))
    grid = GridArea(40, 40)
    expected = frozen_sample_distinct_cells(grid, 300, reference)
    assert grid.sample_distinct_cells(300, ours) == expected
    assert same_state(ours.bit_generator.state, reference.bit_generator.state)


def test_negative_count_raises():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="count must be >= 0"):
        GridArea(4, 4).sample_distinct_cells(-3, rng)
    assert rng.bit_generator.state == before


def test_zero_count_draws_nothing():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert GridArea(4, 4).sample_distinct_cells(0, rng) == []
    assert rng.bit_generator.state == before
