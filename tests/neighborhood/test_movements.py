"""Unit tests for the movement types (neighborhood structures)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clients import ClientSet
from repro.core.evaluation import Evaluator
from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from repro.neighborhood.moves import MoveBatch
from repro.neighborhood.movements import (
    CombinedMovement,
    RandomMovement,
    SwapMovement,
)

from tests.conftest import propose_row, ref_apply_row, rows_of


@pytest.fixture
def clustered_problem():
    """Clients clustered bottom-left; routers spread with known radii.

    Router 0 (radius 6) is the strongest and sits far from the clients;
    routers 1-3 (radii 2, 3, 4) sit in / near the client cluster.
    """
    grid = GridArea(32, 32)
    fleet = RouterFleet.from_radii([6.0, 2.0, 3.0, 4.0])
    clients = ClientSet.from_points(
        [Point(2, 2), Point(3, 2), Point(2, 3), Point(4, 4), Point(3, 3)],
        grid=grid,
    )
    problem = ProblemInstance(grid=grid, fleet=fleet, clients=clients)
    placement = Placement.from_cells(
        grid, [Point(30, 30), Point(2, 2), Point(4, 3), Point(6, 6)]
    )
    return problem, placement


class TestRandomMovement:
    def test_proposes_valid_relocation(self, clustered_problem, rng):
        problem, placement = clustered_problem
        current = Evaluator(problem).evaluate(placement)
        movement = RandomMovement()
        for _ in range(25):
            move = propose_row(movement, current, problem, rng)
            assert move[0] == MoveBatch.RELOCATE
            # Applies cleanly: target is free and in-grid.
            moved = ref_apply_row(move, placement)
            assert moved is not None and moved != placement
            assert len(moved.occupied) == len(placement)

    def test_explores_all_routers(self, clustered_problem, rng):
        problem, placement = clustered_problem
        current = Evaluator(problem).evaluate(placement)
        movement = RandomMovement()
        touched = {
            propose_row(movement, current, problem, rng)[1] for _ in range(100)
        }
        assert touched == {0, 1, 2, 3}


class TestSwapMovementLiteral:
    def test_literal_swap_exchanges_weakest_dense_strongest_sparse(
        self, clustered_problem, rng
    ):
        problem, placement = clustered_problem
        current = Evaluator(problem).evaluate(placement)
        movement = SwapMovement(
            relocate=False, window_fraction=0.25, pool=1
        )
        move = propose_row(movement, current, problem, rng)
        # The densest 8x8 window holds the client cluster with routers
        # 1 (weakest, radius 2) and 2; the sparsest window holds either
        # router 0 alone or no router at all.
        if move != MoveBatch.NO_MOVE:
            assert move[0] == MoveBatch.SWAP
            assert move[1] == 1  # weakest in dense area

    def test_literal_swap_preserves_occupancy(self, clustered_problem, rng):
        problem, placement = clustered_problem
        current = Evaluator(problem).evaluate(placement)
        movement = SwapMovement(relocate=False, window_fraction=0.25)
        for _ in range(20):
            move = propose_row(movement, current, problem, rng)
            if move == MoveBatch.NO_MOVE:
                continue
            assert ref_apply_row(move, placement).occupied == placement.occupied


class TestSwapMovementRelocating:
    def test_relocates_into_dense_window(self, clustered_problem, rng):
        problem, placement = clustered_problem
        current = Evaluator(problem).evaluate(placement)
        movement = SwapMovement(
            relocate=True, window_fraction=0.25, pool=1, density_source="clients"
        )
        kind, _, _, x, y = propose_row(movement, current, problem, rng)
        assert kind == MoveBatch.RELOCATE
        # Target lies in the densest client window (bottom-left cluster).
        assert x < 16 and y < 16

    def test_mover_is_strong_router(self, clustered_problem, rng):
        problem, placement = clustered_problem
        current = Evaluator(problem).evaluate(placement)
        movement = SwapMovement(relocate=True, window_fraction=0.25, pool=1)
        movers = set()
        for _ in range(30):
            move = propose_row(movement, current, problem, rng)
            if move != MoveBatch.NO_MOVE:
                movers.add(move[1])
        # The strongest router outside the dense area (router 0) must be
        # among the proposed movers.
        assert 0 in movers

    def test_full_dense_window_yields_none(self, rng):
        # 2x2 grid fully occupied: no free cell anywhere.
        grid = GridArea(2, 2)
        problem = ProblemInstance(
            grid=grid,
            fleet=RouterFleet.from_radii([1.0, 1.0, 1.0, 1.0]),
            clients=ClientSet.from_points([Point(0, 0)]),
        )
        placement = Placement.from_cells(grid, list(grid.cells()))
        current = Evaluator(problem).evaluate(placement)
        movement = SwapMovement(relocate=True, window_fraction=1.0, pool=1)
        assert propose_row(movement, current, problem, rng) == MoveBatch.NO_MOVE

    def test_density_sources(self, clustered_problem, rng):
        problem, placement = clustered_problem
        current = Evaluator(problem).evaluate(placement)
        for source in ("clients", "routers", "both"):
            movement = SwapMovement(density_source=source)
            kind = propose_row(movement, current, problem, rng)[0]
            assert kind in (MoveBatch.NONE, MoveBatch.SWAP, MoveBatch.RELOCATE)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SwapMovement(window_fraction=0.0)
        with pytest.raises(ValueError):
            SwapMovement(density_source="gravity")
        with pytest.raises(ValueError):
            SwapMovement(pool=0)
        with pytest.raises(ValueError):
            SwapMovement(window_width=-1)

    def test_window_size(self):
        grid = GridArea(128, 128)
        assert SwapMovement(window_fraction=0.125).window_size(grid) == (16, 16)
        assert SwapMovement(window_width=5, window_height=7).window_size(grid) == (
            5,
            7,
        )


class TestCombinedMovement:
    def test_mixes_constituents(self, clustered_problem, rng):
        problem, placement = clustered_problem
        current = Evaluator(problem).evaluate(placement)
        combined = CombinedMovement(
            [RandomMovement(), SwapMovement(relocate=True)]
        )
        kinds = set()
        for _ in range(50):
            kinds.add(propose_row(combined, current, problem, rng)[0])
        assert MoveBatch.RELOCATE in kinds

    def test_weights_normalized(self):
        combined = CombinedMovement(
            [RandomMovement(), RandomMovement()], weights=[3.0, 1.0]
        )
        assert combined.probabilities[0] == pytest.approx(0.75)
        assert combined.probabilities[1] == pytest.approx(0.25)

    def test_zero_weight_never_selected(self, clustered_problem, rng):
        problem, placement = clustered_problem
        current = Evaluator(problem).evaluate(placement)

        class Marker(RandomMovement):
            def _proposer(self, current, problem):
                def row(draws):
                    raise AssertionError("zero-weight movement selected")

                return row

        combined = CombinedMovement(
            [RandomMovement(), Marker()], weights=[1.0, 0.0]
        )
        for _ in range(20):
            combined.propose(current, problem, rng)

    def test_validation(self):
        with pytest.raises(ValueError):
            CombinedMovement([])
        with pytest.raises(ValueError):
            CombinedMovement([RandomMovement()], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            CombinedMovement([RandomMovement()], weights=[0.0])
        with pytest.raises(ValueError):
            CombinedMovement([RandomMovement()], weights=[-1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", [0, 1])
    def test_non_finite_weight_rejected(self, bad, position):
        # A NaN cdf bisects every draw to the last constituent, so a
        # non-finite weight must fail at construction, not mid-search.
        weights = [1.0, 1.0]
        weights[position] = bad
        with pytest.raises(ValueError, match="finite"):
            CombinedMovement(
                [RandomMovement(), SwapMovement(relocate=False)], weights=weights
            )


def same_state(a, b) -> bool:
    """Deep equality of ``bit_generator.state`` dicts (MT19937 holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def assert_batch_matches_scalar(factory, problem, placement, make_rng, n=24):
    """The array path equals ``n`` scalar proposals on its own stream."""
    current = Evaluator(problem).evaluate(placement)
    batch_rng, scalar_rng = make_rng(), make_rng()
    (batch,) = factory().propose_batch([current], problem, [batch_rng], n)
    scalar_movement = factory()
    scalar = [propose_row(scalar_movement, current, problem, scalar_rng) for _ in range(n)]
    assert isinstance(batch, MoveBatch)
    assert len(batch) == n
    assert batch == MoveBatch.from_rows(scalar)
    assert rows_of(batch) == scalar
    assert same_state(batch_rng.bit_generator.state, scalar_rng.bit_generator.state)
    return scalar


def packed_problem(width, height, n_routers):
    grid = GridArea(width, height)
    fleet = RouterFleet.from_radii([1.0 + (i % 5) for i in range(n_routers)])
    clients = ClientSet.from_points([Point(0, 0)], grid=grid)
    return ProblemInstance(grid=grid, fleet=fleet, clients=clients)


class TestArrayProposals:
    """``propose_batch`` against scalar ``propose`` on the edge cases."""

    def test_enumeration_fallback_after_64_misses(self):
        # One free cell in 64: a third of the rejection runs miss all 64
        # samples and fall back to enumerating the free cells.
        problem = packed_problem(8, 8, 63)
        cells = [Point(x, y) for y in range(8) for x in range(8)][1:]
        placement = Placement.from_cells(problem.grid, cells)
        moves = assert_batch_matches_scalar(
            RandomMovement, problem, placement, lambda: np.random.default_rng(7)
        )
        assert all(move[3:] == (0, 0) for move in moves)

    def test_full_grid_yields_none(self):
        problem = packed_problem(4, 4, 16)
        cells = [Point(x, y) for y in range(4) for x in range(4)]
        placement = Placement.from_cells(problem.grid, cells)
        moves = assert_batch_matches_scalar(
            RandomMovement, problem, placement, lambda: np.random.default_rng(8)
        )
        assert moves == [MoveBatch.NO_MOVE] * 24

    def test_full_dense_window_yields_none(self):
        # A packed 4x4 block is the single dense window; the sparse
        # window's routers have nowhere to go.
        problem = packed_problem(16, 16, 17)
        cells = [Point(x, y) for y in range(4) for x in range(4)] + [Point(12, 12)]
        placement = Placement.from_cells(problem.grid, cells)
        moves = assert_batch_matches_scalar(
            lambda: SwapMovement(window_width=4, window_height=4, pool=1),
            problem,
            placement,
            lambda: np.random.default_rng(9),
        )
        assert moves == [MoveBatch.NO_MOVE] * 24

    def test_nearly_full_dense_window_enumerates(self):
        problem = packed_problem(16, 16, 16)
        cells = [Point(x, y) for y in range(4) for x in range(4)][1:] + [Point(12, 12)]
        placement = Placement.from_cells(problem.grid, cells)
        moves = assert_batch_matches_scalar(
            lambda: SwapMovement(window_width=4, window_height=4, pool=1),
            problem,
            placement,
            lambda: np.random.default_rng(10),
        )
        assert {move[3:] for move in moves} == {(0, 0)}

    def test_no_mover_when_every_router_is_in_the_dense_window(self):
        problem = packed_problem(16, 16, 4)
        cells = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]
        placement = Placement.from_cells(problem.grid, cells)
        moves = assert_batch_matches_scalar(
            lambda: SwapMovement(window_width=4, window_height=4, pool=1),
            problem,
            placement,
            lambda: np.random.default_rng(11),
        )
        assert moves == [MoveBatch.NO_MOVE] * 24

    def test_literal_swaps(self, tiny_problem):
        # Half-grid windows: the sparse pool's windows hold routers too.
        placement = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, np.random.default_rng(1)
        )
        moves = assert_batch_matches_scalar(
            lambda: SwapMovement(relocate=False, window_fraction=0.5),
            tiny_problem,
            placement,
            lambda: np.random.default_rng(12),
        )
        assert any(move[0] == MoveBatch.SWAP for move in moves)
        assert MoveBatch.NO_MOVE in moves

    def test_combined_draws_its_doubles_in_stream(self, tiny_problem):
        placement = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, np.random.default_rng(2)
        )
        moves = assert_batch_matches_scalar(
            lambda: CombinedMovement(
                [
                    SwapMovement(relocate=False, window_fraction=0.5),
                    RandomMovement(),
                    SwapMovement(),
                ],
                weights=[1.0, 2.0, 1.0],
            ),
            tiny_problem,
            placement,
            lambda: np.random.default_rng(13),
            n=64,
        )
        assert {move[0] for move in moves} >= {MoveBatch.SWAP, MoveBatch.RELOCATE}

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    @pytest.mark.parametrize(
        "factory",
        [
            RandomMovement,
            SwapMovement,
            lambda: SwapMovement(relocate=False),
            lambda: CombinedMovement([SwapMovement(), RandomMovement()]),
        ],
    )
    def test_non_pcg64_generators(self, clustered_problem, bit_generator, factory):
        problem, placement = clustered_problem
        assert_batch_matches_scalar(
            factory,
            problem,
            placement,
            lambda: np.random.Generator(bit_generator(14)),
        )


class TestMoveBatch:
    def test_rows_equality_and_repr(self):
        rows = [
            (MoveBatch.RELOCATE, 3, -1, 4, 5),
            MoveBatch.NO_MOVE,
            (MoveBatch.SWAP, 1, 2, -1, -1),
        ]
        batch = MoveBatch.from_rows(rows)
        assert len(batch) == 3
        assert rows_of(batch) == rows
        assert MoveBatch(batch.table.copy()) == batch
        assert batch != MoveBatch.from_rows(rows[:2])
        # A batch equals batches only, not the rows it holds.
        assert batch != rows
        assert repr(batch) == f"MoveBatch({[list(row) for row in rows]!r})"
        with pytest.raises(TypeError):
            hash(batch)  # repro-lint: disable=RL001
