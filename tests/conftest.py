"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clients import ClientSet
from repro.core.engine.stacked import PhaseCandidates
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from repro.instances.catalog import tiny_spec
from repro.neighborhood.moves import MoveBatch


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def grid() -> GridArea:
    """A 32x32 grid."""
    return GridArea(32, 32)


@pytest.fixture
def tiny_problem() -> ProblemInstance:
    """The catalog's tiny instance (16 routers, 32x32, 48 normal clients)."""
    return tiny_spec().generate()


@pytest.fixture
def micro_problem() -> ProblemInstance:
    """A hand-built 4-router instance with known geometry.

    Routers 0-3 have radii 4, 3, 2 and 5; clients sit at known cells, so
    tests can compute links and coverage by hand.
    """
    grid = GridArea(16, 16)
    fleet = RouterFleet.from_radii([4.0, 3.0, 2.0, 5.0])
    clients = ClientSet.from_points(
        [Point(1, 1), Point(2, 2), Point(8, 8), Point(14, 14), Point(15, 0)],
        grid=grid,
    )
    return ProblemInstance(grid=grid, fleet=fleet, clients=clients)


# ----------------------------------------------------------------------
# Free-cell draws shared by the tests
# ----------------------------------------------------------------------


def free_cell(grid: GridArea, occupied, rng) -> Point:
    """A uniformly random cell of ``grid`` not in ``occupied``.

    Drawn by :meth:`GridArea.random_free_index` over a bitmap of
    ``occupied``; the tests use it to build relocation moves.
    """
    bitmap = bytearray(grid.n_cells)
    for x, y in occupied:
        bitmap[y * grid.width + x] = 1
    return grid.cell_at(
        grid.random_free_index(bitmap, rng, 0, 0, grid.width, grid.height)
    )


def ref_random_free_cell(grid, occupied, rng, within=None):
    """Frozen reference of the free-cell draw, on ``Point`` sets.

    Up to 64 rejection samples of an ``x`` then a ``y`` draw, then one
    pick among the region's free cells in row-major order.  The stream
    parity suites compare the array samplers against it; do not
    "modernise" it.
    """
    region = grid.bounds if within is None else within.intersection(grid.bounds)
    if region.area == 0:
        raise ValueError("sampling region is empty")
    occupied_set = set(occupied)
    for _ in range(64):
        clipped = region.intersection(grid.bounds)
        candidate = Point(
            int(rng.integers(clipped.x0, clipped.x1)),
            int(rng.integers(clipped.y0, clipped.y1)),
        )
        if candidate not in occupied_set:
            return candidate
    free = [cell for cell in region.cells() if cell not in occupied_set]
    if not free:
        raise ValueError("no free cell available in the requested region")
    return free[int(rng.integers(0, len(free)))]


# ----------------------------------------------------------------------
# Frozen reference: one proposal row applied to a placement
# ----------------------------------------------------------------------


def relocate_row(router, cell):
    """The ``MoveBatch`` row that relocates ``router`` to ``cell``."""
    x, y = cell
    return (MoveBatch.RELOCATE, router, -1, x, y)


def swap_row(router_a, router_b):
    """The ``MoveBatch`` row that exchanges the cells of two routers."""
    return (MoveBatch.SWAP, router_a, router_b, -1, -1)


def rows_of(batch):
    """The rows of a ``MoveBatch`` as ``(kind, router, partner, x, y)``
    tuples of ints."""
    return [tuple(row) for row in batch.table.tolist()]


def propose_row(movement, current, problem, rng):
    """One ``movement.propose`` call as its ``(kind, router, partner, x,
    y)`` row."""
    (row,) = rows_of(movement.propose(current, problem, rng))
    return row


def ref_apply_row(row, placement):
    """Frozen reference of one ``(kind, router, partner, x, y)`` row
    applied to ``placement``.

    Returns the neighbor the row leads to; ``placement`` itself for a
    no-op (a relocation onto the router's own cell, a swap of a router
    with itself); or ``None`` when the row does not apply (no move, an
    out-of-range router id, a target outside the grid or on another
    router's cell).  The neighbor is built on a ``Point`` list and
    checked by the ``Placement`` constructor.  The search driver's
    array path (``_Phase.collect`` then ``_Phase.placement``) and the
    serial reference loops are held to it; do not "modernise" it.
    """
    kind, router, partner, x, y = (int(value) for value in row)
    cells = list(placement.cells)
    if not 0 <= router < len(cells):
        return None
    if kind == MoveBatch.RELOCATE:
        target = Point(x, y)
        if target == cells[router]:
            return placement
        if target in cells or not placement.grid.contains(target):
            return None
        cells[router] = target
    elif kind == MoveBatch.SWAP:
        if not 0 <= partner < len(cells):
            return None
        if partner == router:
            return placement
        cells[router], cells[partner] = cells[partner], cells[router]
    else:
        return None
    return Placement(placement.grid, cells)


# ----------------------------------------------------------------------
# Delta-engine phases built by hand
# ----------------------------------------------------------------------


def phase_of(items):
    """``(PhaseCandidates, placements)`` from ``(chain, incumbent,
    movers, new_cells)`` items, in item order."""
    chains, pair_candidate, pair_router, pair_xy, placements = [], [], [], [], []
    for candidate, (chain, incumbent, movers, new_cells) in enumerate(items):
        chains.append(chain)
        cells = incumbent.cells_array().copy()
        for router, cell in zip(movers, new_cells):
            pair_candidate.append(candidate)
            pair_router.append(router)
            pair_xy.append(cell)
            cells[router] = cell
        placements.append(Placement.from_cells(incumbent.grid, cells))
    phase = PhaseCandidates(
        chains, pair_candidate, pair_router, np.reshape(pair_xy, (-1, 2))
    )
    return phase, placements


def measure_placement(delta, chain, placement):
    """``placement`` measured by the ``StackedDeltaEngine`` ``delta`` as
    a one-candidate ``measure_phase`` off chain ``chain``'s incumbent:
    its movers are the routers whose cells differ."""
    incumbent = delta._caches[chain].placement
    cells = placement.cells_array()
    movers = np.flatnonzero((cells != incumbent.cells_array()).any(axis=1))
    phase, _ = phase_of([(chain, incumbent, movers, cells[movers])])
    return delta.measure_phase(phase).evaluation(0, placement)


def run_one_chain(search, problem, initial, rng):
    """The result of a one-chain run of the lockstep driver ``search``."""
    (result,) = search.run(problem, [initial], [rng])
    return result
