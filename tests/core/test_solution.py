"""Unit and property tests for placements."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.solution import Placement


def make_placement(*cells: tuple[int, int], size: int = 16) -> Placement:
    return Placement.from_cells(GridArea(size, size), [Point(*c) for c in cells])


class TestInvariants:
    def test_valid_placement(self):
        p = make_placement((0, 0), (1, 1), (2, 2))
        assert len(p) == 3
        assert p[1] == Point(1, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Placement.from_cells(GridArea(4, 4), [])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            make_placement((0, 0), (16, 0))

    def test_collision_rejected(self):
        with pytest.raises(ValueError, match="same cell"):
            make_placement((3, 3), (3, 3))

    def test_occupied_set(self):
        p = make_placement((0, 0), (5, 5))
        assert p.occupied == {Point(0, 0), Point(5, 5)}


class TestRandom:
    def test_random_valid(self, rng):
        grid = GridArea(10, 10)
        p = Placement.random(grid, 30, rng)
        assert len(p) == 30
        assert len(p.occupied) == 30

    def test_random_full_grid(self, rng):
        grid = GridArea(5, 5)
        p = Placement.random(grid, 25, rng)
        assert p.occupied == frozenset(grid.cells())

    def test_random_too_many(self, rng):
        with pytest.raises(ValueError):
            Placement.random(GridArea(3, 3), 10, rng)


class TestQueries:
    def test_positions_array(self):
        p = make_placement((1, 2), (3, 4))
        assert np.array_equal(p.positions_array(), [[1.0, 2.0], [3.0, 4.0]])

    def test_as_mapping(self):
        p = make_placement((0, 0), (5, 5))
        assert p.as_mapping() == {0: Point(0, 0), 1: Point(5, 5)}


class TestArrayBacking:
    def test_array_and_point_inputs_agree(self):
        cells = [(0, 0), (5, 5), (3, 1)]
        grid = GridArea(16, 16)
        from_points = Placement.from_cells(grid, [Point(*c) for c in cells])
        from_array = Placement.from_cells(grid, np.array(cells))
        assert from_points == from_array
        assert from_array.cells == tuple(Point(*c) for c in cells)
        assert np.array_equal(from_array.cells_array(), cells)

    def test_input_array_is_copied_and_storage_read_only(self):
        source = np.array([[0, 0], [1, 1]])
        p = Placement.from_cells(GridArea(4, 4), source)
        source[0] = (3, 3)
        assert p[0] == Point(0, 0)
        with pytest.raises(ValueError):
            p.cells_array()[0, 0] = 2

    def test_array_errors_match_point_errors(self):
        grid = GridArea(16, 16)
        with pytest.raises(ValueError, match=r"cell \(16, 0\) outside 16x16 grid"):
            Placement.from_cells(grid, np.array([[0, 0], [16, 0]]))
        with pytest.raises(ValueError, match=r"cell \(-1, 2\) outside"):
            Placement.from_cells(grid, np.array([[-1, 2]]))
        with pytest.raises(ValueError, match="same cell"):
            Placement.from_cells(grid, np.array([[3, 3], [3, 3]]))
        with pytest.raises(ValueError, match="at least one router"):
            Placement.from_cells(grid, np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError, match="shape"):
            Placement.from_cells(grid, np.zeros((2, 3), dtype=int))

    def test_hash_equality_and_pickle_are_value_based(self):
        import pickle

        p = make_placement((0, 0), (5, 5), (2, 7))
        q = make_placement((0, 0), (5, 5), (2, 7))
        restored = pickle.loads(pickle.dumps(p))
        assert p == q == restored
        assert p != make_placement((0, 0), (5, 5), (2, 8))
        # The frozen-dataclass hash: equal placements hash alike, and
        # the value is the one the tuple-of-Point form had.
        hashes = {hash(p), hash(q), hash(restored), hash((p.grid, p.cells))}  # repro-lint: disable=RL001
        assert len(hashes) == 1
        assert not restored.cells_array().flags.writeable
        assert repr(p) == f"Placement(grid={p.grid!r}, cells={p.cells!r})"


def _outcome(build):
    """A build's placements, or its error as ``(type, message)``."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


class TestFromCellArrays:
    """The batched build agrees with one ``from_cells`` per array."""

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
        batch = _outcome(lambda: Placement.from_cell_arrays(grid, arrays))
        single = _outcome(lambda: [Placement.from_cells(grid, a) for a in arrays])
        assert batch == single
        if isinstance(batch, list):
            for placement, array in zip(batch, arrays):
                stored = placement.cells_array()
                assert stored.dtype == np.int32 and not stored.flags.writeable
                assert not np.shares_memory(stored, array)

    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 6),
        height=st.integers(1, 6),
        n=st.integers(1, 6),
        count=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_check_stack_raises_what_from_cells_raises(self, width, height, n, count, seed):
        # The GA's check of a generation's int32 cell stack, with no
        # placement built for a good row.
        grid = GridArea(width, height)
        rng = np.random.default_rng(seed)
        stack = np.stack(
            [rng.integers(-1, width + 1, (count, n)), rng.integers(-1, height + 1, (count, n))],
            axis=2,
        ).astype(np.int32)
        checked = _outcome(lambda: Placement.check_stack(grid, stack))
        single = _outcome(lambda: [Placement.from_cells(grid, row) for row in stack])
        if isinstance(single, list):
            assert checked is None
        else:
            assert checked == single

    def test_irregular_shapes_are_built_one_by_one(self):
        grid = GridArea(8, 8)
        arrays = [np.array([[0, 0], [1, 1]]), np.array([[2, 2]])]
        assert Placement.from_cell_arrays(grid, arrays) == [
            Placement.from_cells(grid, a) for a in arrays
        ]
        with pytest.raises(ValueError, match="at least one router"):
            Placement.from_cell_arrays(grid, [np.zeros((0, 2), dtype=int)])
        with pytest.raises(ValueError, match="shape"):
            Placement.from_cell_arrays(grid, [np.zeros((2, 3), dtype=int)])
        assert Placement.from_cell_arrays(grid, []) == []
