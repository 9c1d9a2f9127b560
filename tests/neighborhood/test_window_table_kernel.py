"""The compiled Swap window table against ``_SwapWindowState.prepare``.

On the compiled tier a new Swap incumbent's pick table (the dense and
sparse window pools of Algorithm 3 and the router picked in each) is
built by one ``repro_swap_window_table`` call: density histogram,
integral image, window counts, the two non-maximum-suppression pools
and the strongest/weakest router picks.  The Python path
(``DensityMap`` pools, then ``_SwapWindowState.prepare``) is the
reference: the tables must be equal, entry for entry, on every grid,
window and pool size, density source and reading, and on the edges
where the pools change shape: 1x1 and full-grid windows, a pool larger
than the windows that fit (the suppression stops on its sentinel),
all-equal counts (ties everywhere) and empty sparse windows.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clients import ClientSet
from repro.core.density import DensityMap
from repro.core.engine import compiled
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from repro.neighborhood.movements import SwapMovement, _SwapWindowState, proposal_tier

pytestmark = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)

SOURCES = ("routers", "clients", "both")


def reference_table(movement, placement, problem):
    current = SimpleNamespace(placement=placement)
    pools = movement._ranked_pools(current, problem)
    return _SwapWindowState(placement, pools).prepare(
        problem.fleet.radii, movement.relocate
    )


def kernel_table(movement, placement, problem):
    grid = problem.grid
    kernel = compiled.WindowTableKernel(
        grid.width,
        grid.height,
        movement.window_size(grid),
        None if movement.density_source == "routers" else movement._client_cells(problem),
        movement.density_source != "clients",
        problem.fleet.radii,
        movement.pool,
        movement.relocate,
    )
    return kernel(placement.cells_array())


def assert_same_table(movement, placement, problem):
    expected = reference_table(movement, placement, problem)
    table = kernel_table(movement, placement, problem)
    assert table.dtype == expected.dtype == np.int64
    assert table.tolist() == expected.tolist()
    # Through the movement, on each tier.
    current = SimpleNamespace(placement=placement)
    for use_kernel in (True, False):
        movement.release_proposal_caches()
        with proposal_tier(use_kernel):
            assert movement._picks(current, problem).tolist() == expected.tolist()


def make_problem(width, height, radii, client_cells):
    grid = GridArea(width, height)
    return ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii(radii),
        clients=ClientSet.from_points([Point(x, y) for x, y in client_cells], grid=grid),
    )


@st.composite
def window_cases(draw):
    """``(movement, placement, problem)``: 1x1 up to 40x40 grids, one
    router up to a full grid, radii drawn from a few values (ties),
    clients (possibly none, possibly stacked on one cell), every density
    source and reading, windows from 1x1 to the full grid and pools from
    1 to more than the windows that fit."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    n_cells = width * height
    n_routers = draw(
        st.one_of(st.just(1), st.just(n_cells), st.integers(1, min(n_cells, 200)))
    )
    levels = draw(st.lists(st.floats(0.5, 20.0), min_size=1, max_size=4))
    radii = [levels[draw(st.integers(0, len(levels) - 1))] for _ in range(n_routers)]
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    clients = draw(st.lists(cell, max_size=60))
    if clients and draw(st.booleans()):
        clients = clients[:1] * len(clients)
    problem = make_problem(width, height, radii, clients)
    if n_routers == n_cells:
        flat = range(n_cells)
    else:
        flat = draw(
            st.lists(
                st.integers(0, n_cells - 1),
                min_size=n_routers,
                max_size=n_routers,
                unique=True,
            )
        )
    placement = Placement.from_cells(
        problem.grid, [(i % width, i // width) for i in flat]
    )
    window = draw(
        st.one_of(
            st.just((1, 1)),
            st.just((width, height)),
            st.tuples(st.integers(1, width), st.integers(1, height)),
        )
    )
    movement = SwapMovement(
        window_width=window[0],
        window_height=window[1],
        density_source=draw(st.sampled_from(SOURCES)),
        relocate=draw(st.booleans()),
        pool=draw(st.one_of(st.integers(1, 12), st.integers(1, 4 * n_cells + 4))),
    )
    return movement, placement, problem


class TestWindowTable:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=window_cases())
    def test_kernel_table_equals_prepare(self, case):
        assert_same_table(*case)

    @pytest.mark.parametrize("relocate", (True, False))
    @pytest.mark.parametrize("source", SOURCES)
    def test_edges(self, source, relocate):
        # Pool 8 everywhere: more than the windows that fit in all but
        # the first case.
        full = make_problem(6, 5, [1.0 + (i % 3) for i in range(30)], [])
        every_cell = Placement.from_cells(
            full.grid, [(i % 6, i // 6) for i in range(30)]
        )
        lone = make_problem(20, 20, [2.0], [(3, 4), (3, 4), (17, 2)])
        one = Placement.from_cells(lone.grid, [(10, 10)])
        tiny = make_problem(1, 1, [1.0], [(0, 0)])
        cases = (
            # Empty sparse windows, 1x1 windows.
            (lone, one, dict(window_width=1, window_height=1)),
            (lone, one, dict(window_width=3, window_height=5)),
            # All-equal counts: every window full of routers.
            (full, every_cell, dict(window_width=2, window_height=2)),
            (full, every_cell, dict(window_width=1, window_height=1)),
            # One window: the full grid.
            (full, every_cell, dict(window_width=6, window_height=5)),
            (lone, one, dict(window_fraction=1.0)),
            # A 1x1 grid.
            (tiny, Placement.from_cells(tiny.grid, [(0, 0)]), {}),
        )
        for problem, placement, window in cases:
            movement = SwapMovement(
                density_source=source, relocate=relocate, pool=8, **window
            )
            assert_same_table(movement, placement, problem)

    def test_a_point_outside_the_grid_is_refused_as_density_map_does(self):
        grid = GridArea(8, 6)
        cells = np.array([[1, 1], [2, 5]], dtype=np.int32)
        radii = np.ones(2)
        for points in (np.array([[0, 0], [8, 1]]), np.array([[0, -1]])):
            with pytest.raises(ValueError) as expected:
                DensityMap.build(grid, np.vstack([points, cells]), 2, 2)
            kernel = compiled.WindowTableKernel(8, 6, (2, 2), points, True, radii, 8, True)
            with pytest.raises(ValueError) as refused:
                kernel(cells)
            assert str(refused.value) == str(expected.value)
        with pytest.raises(ValueError, match="must fit"):
            compiled.WindowTableKernel(8, 6, (9, 2), None, True, radii, 8, True)
        kernel = compiled.WindowTableKernel(8, 6, (2, 2), None, True, radii, 8, True)
        with pytest.raises(ValueError, match="one radius per router"):
            kernel(cells[:1])

    def test_kernel_tier_ranks_no_density_map(self, monkeypatch):
        problem = make_problem(16, 12, [1.0, 2.0, 3.0], [(1, 1), (9, 9)])
        placement = Placement.from_cells(problem.grid, [(0, 0), (5, 5), (15, 11)])
        current = SimpleNamespace(placement=placement)
        for source in SOURCES:
            movement = SwapMovement(density_source=source)
            expected = reference_table(movement, placement, problem)
            movement.release_proposal_caches()
            monkeypatch.setattr(
                DensityMap, "ranked_windows", lambda *a, **k: pytest.fail("ranked")
            )
            with proposal_tier(True):
                assert movement._picks(current, problem).tolist() == expected.tolist()
            monkeypatch.undo()
