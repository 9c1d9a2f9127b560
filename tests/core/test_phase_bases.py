"""Shared mover bases in the compiled dense phase kernel.

``repro_measure_phase_dense`` groups each chain segment's candidates by
mover set and measures every candidate of a group off one base: the
incumbent without its movers.  These tests pin it, on all seven row
fields, against the numpy ``"dense"`` tier's ``measure_phase`` and a
full ``StackedEngine.measure_placements`` of the candidates' cell
stacks.

``random_moves`` of ``test_engine_phase_kernel.py`` draws empty mover
sets, one-router relocations to a free cell, two-router swaps and
two-router relocations to distinct free cells, on fixed-size instances
with clients; mover sets repeat only by chance.  The phases here add
what it does not draw: mover sets shared on purpose by every candidate
of a chain or used once, the same set listed in either order, sets of
up to four routers, new cells that coincide with each other or with an
unmoved router's cell, zero clients, N=1, a mover that is the only
bridge between two halves, and giant ties won by the smaller label on
either side of the merged group.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clients import ClientSet
from repro.core.engine import compiled
from repro.core.engine.stacked import (
    PhaseCandidates,
    StackedDeltaEngine,
    StackedEngine,
)
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from repro.instances.catalog import paper_normal, tiny_spec
from tests.core.test_engine_phase_kernel import (
    ROW_FIELDS,
    STACK_PARALLEL_MIN_WORK,
    assert_rows_equal,
)

pytestmark = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)

needs_openmp = pytest.mark.skipif(
    not (compiled.is_available() and compiled.has_openmp()),
    reason="kernels built without OpenMP",
)


def measure_both_ways(problem, incumbents, items):
    """The compiled phase of ``items`` — ``(chain, movers, new_cells)``,
    chain-major — checked against the numpy dense phase and a full
    measurement of the candidates' cell stack; returns the compiled
    rows."""
    kernel = StackedDeltaEngine(problem, engine="compiled")
    numpy_dense = StackedDeltaEngine(problem, engine="dense")
    assert kernel.layout == "dense"
    for chain, incumbent in enumerate(incumbents):
        kernel.reset_chain(chain, incumbent)
        numpy_dense.reset_chain(chain, incumbent)
    chains, pair_candidate, pair_router, pair_xy, stack = [], [], [], [], []
    for candidate, (chain, movers, new_cells) in enumerate(items):
        chains.append(chain)
        cells = incumbents[chain].cells_array().copy()
        for router, cell in zip(movers, new_cells):
            pair_candidate.append(candidate)
            pair_router.append(router)
            pair_xy.append(cell)
            cells[router] = cell
        stack.append(cells)
    phase = PhaseCandidates(
        chains, pair_candidate, pair_router, np.reshape(pair_xy, (-1, 2))
    )
    measurement = kernel.measure_phase(phase)
    assert len(measurement.fitness) == len(items)
    assert_rows_equal(measurement, numpy_dense.measure_phase(phase))
    if items:
        # A cell stack builds no Placement, so coincident cells pass.
        full = StackedEngine(problem, engine="dense").measure_placements(
            np.stack(stack)
        )
        assert_rows_equal(measurement, full)
    return measurement


def line_problem(xs, link_rule, coverage_rule, clients=(), width=None):
    """Routers at ``(x, 0)`` for each ``x`` of ``xs`` on a one-row grid,
    each linking exactly its horizontal neighbours (reach 1 under every
    link rule), with clients at the given x."""
    width = width or max([*xs, *clients]) + 4
    grid = GridArea(width, 1)
    radius = 0.5 if link_rule is LinkRule.OVERLAP else 1.0
    problem = ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii([radius] * len(xs)),
        clients=ClientSet.from_points([Point(x, 0) for x in clients], grid=grid),
        link_rule=link_rule,
        coverage_rule=coverage_rule,
    )
    return problem, Placement.from_cells(grid, [(x, 0) for x in xs])


@st.composite
def shared_mover_phases(draw):
    """``(problem, incumbents, items)``: R=1..3 chains on small grids,
    every link and coverage rule, zero clients allowed, and per chain a
    pool of 1..3 mover sets of 0..4 routers that its 0..8 candidates
    draw from, each listing its set in any order and moving it to any
    cells, occupied ones included."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n_cells = width * height
    n_routers = draw(st.integers(1, min(n_cells, 12)))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    grid = GridArea(width, height)
    problem = ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii(
            draw(
                st.lists(
                    st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)),
                    min_size=n_routers,
                    max_size=n_routers,
                )
            )
        ),
        clients=ClientSet.from_points(
            [Point(x, y) for x, y in draw(st.lists(cell, max_size=20))], grid=grid
        ),
        link_rule=draw(st.sampled_from(list(LinkRule))),
        coverage_rule=draw(st.sampled_from(list(CoverageRule))),
    )
    incumbents = []
    items = []
    for chain in range(draw(st.integers(1, 3))):
        flat = draw(st.permutations(range(n_cells)))[:n_routers]
        incumbents.append(
            Placement.from_cells(grid, [(i % width, i // width) for i in flat])
        )
        pool = draw(
            st.lists(
                st.lists(
                    st.integers(0, n_routers - 1),
                    max_size=min(n_routers, 4),
                    unique=True,
                ),
                min_size=1,
                max_size=3,
            )
        )
        for _ in range(draw(st.integers(0, 8))):
            movers = draw(st.permutations(draw(st.sampled_from(pool))))
            cells = [draw(cell) for _ in movers]
            items.append((chain, movers, cells))
    return problem, incumbents, items


class TestGeneratedSharedSets:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=shared_mover_phases())
    def test_kernel_matches_numpy_phase_and_full_measurement(self, case):
        measure_both_ways(*case)


@pytest.mark.parametrize("coverage_rule", list(CoverageRule))
@pytest.mark.parametrize("link_rule", list(LinkRule))
class TestEdges:
    def test_zero_clients(self, link_rule, coverage_rule):
        problem, incumbent = line_problem(
            [0, 1, 2, 4, 5], link_rule, coverage_rule
        )
        rows = measure_both_ways(
            problem,
            [incumbent],
            [(0, [], []), (0, [2], [(3, 0)]), (0, [4, 0], [(6, 0), (3, 0)])],
        )
        assert rows.covered_clients.tolist() == [0, 0, 0]

    def test_one_router(self, link_rule, coverage_rule):
        problem, incumbent = line_problem([1], link_rule, coverage_rule, [1, 3])
        rows = measure_both_ways(
            problem,
            [incumbent],
            [(0, [], []), (0, [0], [(3, 0)]), (0, [0], [(2, 0)]), (0, [0], [(1, 0)])],
        )
        assert rows.giant_sizes.tolist() == [1, 1, 1, 1]
        assert rows.n_components.tolist() == [1, 1, 1, 1]

    def test_empty_mover_set(self, link_rule, coverage_rule):
        problem, incumbent = line_problem(
            [0, 1, 3, 4, 5], link_rule, coverage_rule, [0, 4, 5, 7]
        )
        rows = measure_both_ways(problem, [incumbent], [(0, [], [])] * 3)
        assert rows.giant_sizes.tolist() == [3, 3, 3]
        assert rows.n_components.tolist() == [2, 2, 2]

    def test_coincident_new_cells(self, link_rule, coverage_rule):
        # Routers 1 and 3 land on one cell, and on the cell of unmoved
        # router 0 or 4.
        problem, incumbent = line_problem(
            [0, 2, 4, 6, 8], link_rule, coverage_rule, [0, 3, 5, 8, 9]
        )
        measure_both_ways(
            problem,
            [incumbent],
            [
                (0, [1, 3], [(5, 0), (5, 0)]),
                (0, [3, 1], [(5, 0), (5, 0)]),
                (0, [1, 3], [(0, 0), (0, 0)]),
                (0, [1], [(8, 0)]),
                (0, [1, 3], [(4, 0), (8, 0)]),
            ],
        )

    def test_only_bridge(self, link_rule, coverage_rule):
        # Router 3 alone joins {0, 1, 2} and {4, 5, 6}: moving it away
        # splits the line, moving it back along the gap rejoins it.
        problem, incumbent = line_problem(
            [0, 1, 2, 3, 4, 5, 6], link_rule, coverage_rule, [0, 3, 6, 12]
        )
        rows = measure_both_ways(
            problem,
            [incumbent],
            [
                (0, [3], [(12, 0)]),
                (0, [3], [(10, 0)]),
                (0, [3], [(7, 0)]),
                (0, [3], [(3, 0)]),
            ],
        )
        assert rows.giant_sizes.tolist() == [3, 3, 4, 7]
        assert rows.n_components.tolist() == [3, 3, 2, 1]
        assert rows.giant_masks[0].tolist() == [1, 1, 1, 0, 0, 0, 0]

    def test_giant_ties(self, link_rule, coverage_rule):
        # Base components {2, 3, 4} (label 2), {5, 6} and {8, 9}; the
        # movers 0, 1, 7 and 10 start far away.  Every candidate ends
        # with several size-3 components, and the smallest label wins.
        xs = [30, 40, 10, 11, 12, 20, 21, 50, 60, 61, 70]
        problem, incumbent = line_problem(
            xs, link_rule, coverage_rule, [10, 12, 20, 22, 60, 62]
        )
        items = [
            # Merged {0, 5, 6} (label 0) below the rival's label 2.
            (0, [0], [(22, 0)]),
            # Merged {5, 6, 7} (label 5) above it: the rival stays giant.
            (0, [7], [(22, 0)]),
            # Two merged groups, {1, 8, 9} (label 1) and {5, 6, 7}.
            (0, [7, 1], [(22, 0), (62, 0)]),
            # Merged {5, 6, 7} and {8, 9, 10}: the untouched rival wins.
            (0, [10, 7], [(62, 0), (22, 0)]),
        ]
        rows = measure_both_ways(problem, [incumbent], items)
        giant_routers = [np.flatnonzero(mask).tolist() for mask in rows.giant_masks]
        assert giant_routers == [[0, 5, 6], [2, 3, 4], [1, 8, 9], [2, 3, 4]]

    def test_shared_and_single_use_sets(self, link_rule, coverage_rule):
        problem = (
            tiny_spec(seed=13).generate()
            .with_link_rule(link_rule)
            .with_coverage_rule(coverage_rule)
        )
        rng = np.random.default_rng(3)
        incumbents = [
            Placement.random(problem.grid, problem.n_routers, rng) for _ in range(3)
        ]
        n = problem.n_routers
        cells = [
            (int(x), int(y))
            for x, y in rng.integers(0, problem.grid.width, size=(64, 2))
        ]
        items = []
        # Chain 0: every candidate moves router 5.
        items += [(0, [5], [cells[i]]) for i in range(12)]
        # Chain 1: every candidate moves its own router, once.
        items += [(1, [r], [cells[r]]) for r in range(n)]
        # Chain 2: one two-router set in either order, then one of four.
        items += [
            (2, [9, 2] if i % 2 else [2, 9], [cells[i], cells[i + 20]])
            for i in range(8)
        ]
        items += [(2, [0, 3, 7, 15], cells[40:44]) for _ in range(3)]
        measure_both_ways(problem, incumbents, items)


@needs_openmp
@pytest.mark.parametrize("coverage_rule", list(CoverageRule))
def test_one_and_two_threads_are_bit_equal(coverage_rule):
    # Paper-frame phases of 4 chains, a quarter of the candidates
    # sharing one router, on both sides of the kernel's one-thread work
    # bound.
    problem = paper_normal().generate().with_coverage_rule(coverage_rule)
    bound = -(-STACK_PARALLEL_MIN_WORK // problem.n_routers)
    rng = np.random.default_rng(8)
    incumbents = [
        Placement.random(problem.grid, problem.n_routers, rng) for _ in range(4)
    ]
    items = []
    for chain in range(4):
        for i in range(3 * bound // 4):
            router = 7 if i % 4 == 0 else int(rng.integers(problem.n_routers))
            cell = tuple(int(v) for v in rng.integers(0, 128, size=2))
            items.append((chain, [router], [cell]))
    lib = compiled.require()
    before = int(lib.repro_get_max_threads())
    try:
        for count in (bound - 1, bound, len(items)):
            runs = []
            for threads in (1, 2):
                compiled.set_num_threads(threads)
                runs.append(measure_both_ways(problem, incumbents, items[:count]))
            for name in ROW_FIELDS:
                assert np.array_equal(
                    getattr(runs[0], name), getattr(runs[1], name)
                ), name
    finally:
        compiled.set_num_threads(before)


def test_a_router_listed_twice_stays_in_bounds():
    # Outside the contract (a candidate's routers are distinct), but the
    # kernel enters each mover once, so its scratch of N labels holds.
    positions = np.zeros((1, 2))
    coverage = np.zeros((3, 1), dtype=bool)
    edges = np.zeros(0, dtype=np.int64)
    state = compiled.chain_state(
        positions, coverage, edges, edges, None, None, np.zeros(3, dtype=np.int32)
    )
    giants, covered, components, _, masks = compiled.measure_phase_dense(
        np.array([state]), np.array([0, 1]), np.zeros(3, dtype=np.int64),
        np.zeros(3, dtype=np.int64), np.zeros((3, 2)), np.zeros((1, 1)),
        np.zeros((3, 2)), np.ones(1), False,
    )
    assert giants.tolist() == [1] and components.tolist() == [1]
    assert covered.tolist() == [3] and masks.tolist() == [[True]]
