"""Stream parity of ``MovementType.propose`` with the scalar formulation.

``propose`` draws one row of the movement's array sampler on bulk draws
over the generator.  It must return exactly the move the scalar
formulation of Algorithms 2-3 returned *and* leave the generator in
exactly the same full ``bit_generator.state``, after every call, or
every seeded search downstream changes.

This module keeps a frozen copy of that formulation as the reference
(``ref_*``; do not "modernise" it): the Random movement, and the Swap
movement in both readings (relocating and literal).  It compares on
generated instances and on the edges where the draws change shape: a
full grid (Random finds no cell), a full dense window, an empty sparse
window (the fallback mover), literal weak == strong, 1xK grids and a
single router.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.density import DensityMap
from repro.core.evaluation import Evaluator
from repro.core.geometry import Point
from repro.core.solution import Placement
from repro.instances.generator import InstanceSpec
from repro.neighborhood.moves import MoveBatch
from repro.neighborhood.movements import (
    CombinedMovement,
    MovementType,
    RandomMovement,
    SwapMovement,
)

from tests.conftest import (
    propose_row,
    ref_random_free_cell,
    relocate_row,
    swap_row,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# Frozen reference: the scalar proposals
# ----------------------------------------------------------------------


def ref_strongest_among(fleet, router_ids):
    return max(router_ids, key=lambda rid: (fleet[rid].radius, -rid))


def ref_weakest_among(fleet, router_ids):
    return min(router_ids, key=lambda rid: (fleet[rid].radius, rid))


def ref_random_propose(current, problem, rng):
    placement = current.placement
    router_id = int(rng.integers(0, len(placement)))
    try:
        target = ref_random_free_cell(problem.grid, placement.occupied, rng)
    except ValueError:
        return MoveBatch.NO_MOVE
    return relocate_row(router_id, target)


def ref_window_pools(movement, current, problem):
    if movement.density_source == "clients":
        points = problem.clients.positions
    elif movement.density_source == "routers":
        points = current.placement.positions_array()
    else:
        points = np.vstack(
            [problem.clients.positions, current.placement.positions_array()]
        )
    width, height = movement.window_size(problem.grid)
    density = DensityMap.build(problem.grid, points, width, height)
    return (
        density.ranked_windows(movement.pool, densest=True),
        density.ranked_windows(movement.pool, densest=False),
    )


def ref_swap_propose(movement, current, problem, rng):
    placement = current.placement
    dense_pool, sparse_pool = ref_window_pools(movement, current, problem)
    dense = dense_pool[int(rng.integers(0, len(dense_pool)))]
    sparse = sparse_pool[int(rng.integers(0, len(sparse_pool)))]
    dense_routers = [i for i, cell in enumerate(placement.cells) if dense.contains(cell)]
    sparse_routers = [
        i for i, cell in enumerate(placement.cells) if sparse.contains(cell)
    ]
    fleet = problem.fleet
    if not movement.relocate:
        if not dense_routers or not sparse_routers:
            return MoveBatch.NO_MOVE
        weak_dense = ref_weakest_among(fleet, dense_routers)
        strong_sparse = ref_strongest_among(fleet, sparse_routers)
        if weak_dense == strong_sparse:
            return MoveBatch.NO_MOVE
        return swap_row(weak_dense, strong_sparse)
    if sparse_routers:
        mover = ref_strongest_among(fleet, sparse_routers)
    else:
        outside = [
            i for i, cell in enumerate(placement.cells) if not dense.contains(cell)
        ]
        if not outside:
            return MoveBatch.NO_MOVE
        mover = ref_strongest_among(fleet, outside)
    try:
        target = ref_random_free_cell(
            problem.grid, placement.occupied, rng, within=dense
        )
    except ValueError:
        return MoveBatch.NO_MOVE
    return relocate_row(mover, target)


def ref_propose(movement, current, problem, rng):
    if isinstance(movement, CombinedMovement):
        index = int(rng.choice(len(movement.movements), p=movement.probabilities))
        return ref_propose(movement.movements[index], current, problem, rng)
    if isinstance(movement, SwapMovement):
        return ref_swap_propose(movement, current, problem, rng)
    return ref_random_propose(current, problem, rng)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def make_problem(width, height, n_routers, n_clients=12, seed=3):
    return InstanceSpec(
        name="parity", width=width, height=height, n_routers=n_routers,
        n_clients=n_clients, min_radius=1.0, max_radius=4.0, seed=seed,
    ).generate()


def incumbent(problem, cells=None, seed=5):
    if cells is None:
        placement = Placement.random(
            problem.grid, problem.n_routers, np.random.default_rng(seed)
        )
    else:
        placement = Placement(problem.grid, [Point(x, y) for x, y in cells])
    return Evaluator(problem).evaluate(placement)


def assert_stream_parity(movement, current, problem, seed, calls):
    """``calls`` proposals: equal rows and states after each; the rows."""
    rng = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    moves = []
    for _ in range(calls):
        move = propose_row(movement, current, problem, rng)
        assert move == ref_propose(movement, current, problem, reference)
        assert rng.bit_generator.state == reference.bit_generator.state
        moves.append(move)
    return moves


MOVEMENTS = {
    "random": RandomMovement,
    "swap": SwapMovement,
    "swap-literal": lambda: SwapMovement(relocate=False),
}


# ----------------------------------------------------------------------
# Generated instances
# ----------------------------------------------------------------------


@st.composite
def movements(draw):
    kind = draw(st.sampled_from(["random", "swap", "combined"]))
    if kind == "random":
        return RandomMovement()
    swap = SwapMovement(
        window_fraction=draw(st.sampled_from([0.125, 0.25, 0.5, 1.0])),
        window_width=draw(st.one_of(st.none(), st.integers(1, 6))),
        window_height=draw(st.one_of(st.none(), st.integers(1, 6))),
        density_source=draw(st.sampled_from(["routers", "clients", "both"])),
        relocate=draw(st.booleans()),
        pool=draw(st.integers(1, 8)),
    )
    if kind == "swap":
        return swap
    weights = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2))
    return CombinedMovement([swap, RandomMovement()], weights=weights)


@SETTINGS
@given(
    width=st.integers(1, 24),
    height=st.integers(1, 24),
    density=st.floats(0.0, 1.0),
    n_clients=st.integers(0, 20),
    movement=movements(),
    seed=st.integers(0, 2**32 - 1),
)
def test_propose_matches_frozen_reference(
    width, height, density, n_clients, movement, seed
):
    n_routers = max(1, round(density * width * height))
    problem = make_problem(width, height, n_routers, n_clients, seed=seed % 97)
    current = incumbent(problem, seed=seed)
    assert_stream_parity(movement, current, problem, seed, calls=12)


# ----------------------------------------------------------------------
# Degenerate edges
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(MOVEMENTS))
@pytest.mark.parametrize(
    "shape",
    [
        pytest.param((1, 17, 5), id="one-column"),
        pytest.param((17, 1, 5), id="one-row"),
        pytest.param((20, 20, 1), id="one-router"),
        pytest.param((1, 1, 1), id="one-cell"),
    ],
)
def test_degenerate_shapes(name, shape):
    width, height, n_routers = shape
    problem = make_problem(width, height, n_routers)
    current = incumbent(problem)
    for seed in range(4):
        assert_stream_parity(MOVEMENTS[name](), current, problem, seed, calls=16)


def test_full_grid_random_finds_no_cell():
    problem = make_problem(4, 3, 12)
    current = incumbent(problem)
    moves = assert_stream_parity(RandomMovement(), current, problem, 7, calls=8)
    assert moves == [MoveBatch.NO_MOVE] * 8


def test_full_dense_window():
    # A 1x1 window: the densest window always holds a router, so every
    # relocation into it finds the window full.
    problem = make_problem(12, 12, 10)
    current = incumbent(problem)
    movement = SwapMovement(window_width=1, window_height=1, pool=3)
    moves = assert_stream_parity(movement, current, problem, 11, calls=16)
    assert moves == [MoveBatch.NO_MOVE] * 16


def test_empty_sparse_window_uses_fallback_mover():
    # Routers fill the left column only, so every sparse window is empty
    # and the mover is the strongest router outside the dense window.
    problem = make_problem(16, 16, 6)
    current = incumbent(problem, cells=[(0, y) for y in range(6)])
    movement = SwapMovement(window_width=2, window_height=2, pool=4)
    moves = assert_stream_parity(movement, current, problem, 13, calls=24)
    assert any(move[0] == MoveBatch.RELOCATE for move in moves)


def test_literal_weak_equals_strong():
    # One window spans the grid: dense and sparse are the same window, so
    # with one router its weakest and strongest member coincide.
    problem = make_problem(6, 6, 1)
    current = incumbent(problem)
    movement = SwapMovement(window_fraction=1.0, relocate=False, pool=1)
    moves = assert_stream_parity(movement, current, problem, 17, calls=8)
    assert moves == [MoveBatch.NO_MOVE] * 8


def test_literal_swaps_are_drawn():
    problem = make_problem(16, 16, 24)
    current = incumbent(problem)
    movement = SwapMovement(relocate=False, window_fraction=0.5)
    moves = assert_stream_parity(movement, current, problem, 19, calls=24)
    assert any(move[0] == MoveBatch.SWAP for move in moves)


# ----------------------------------------------------------------------
# Movements without a row sampler
# ----------------------------------------------------------------------


def test_movement_without_sampler_fails_clearly():
    class Bare(MovementType):
        name = "bare"

    problem = make_problem(8, 8, 3)
    current = incumbent(problem)
    with pytest.raises(NotImplementedError, match="Bare defines no row sampler"):
        Bare().propose(current, problem, np.random.default_rng(0))
    with pytest.raises(NotImplementedError, match="Bare defines no row sampler"):
        Bare().propose_batch([current], problem, [np.random.default_rng(0)], 4)
