"""The compiled phase collect against the numpy reference.

On the compiled tier a lockstep phase's ``MoveBatch`` rows are validated
by one ``repro_collect_phase`` call (``_Phase.collect_kernel``, through
``compiled.collect_phase``): the kept rows, their mover counts, the
``PhaseCandidates`` pair arrays and the per-chain spans.  The numpy
``_Phase.collect`` is the reference, and every output must equal it in
value, shape and dtype: on generated placements and rows, on the edge
rows (ids and targets just outside their range or near the int64
limits, unknown kinds, stale and no-op moves), on empty phases and
chains, and on the one-row-per-chain phases of simulated annealing's
sub-steps.  Skipped without a C toolchain.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clients import ClientSet
from repro.core.engine import compiled
from repro.core.evaluation import Evaluator
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from repro.neighborhood.moves import MoveBatch
from repro.neighborhood.movements import RandomMovement, SwapMovement
from repro.neighborhood.multichain import MultiChainSearch, _Phase

from tests.conftest import relocate_row, swap_row
from tests.core.test_engine_phase_kernel import CountingLibrary

pytestmark = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)

BIG = 2**62
NONE = MoveBatch.NO_MOVE


def frame(width, height, n_routers):
    """A problem of ``n_routers`` routers on a ``width x height`` grid."""
    grid = GridArea(width, height)
    return ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii([1.0] * n_routers),
        clients=ClientSet.from_points([Point(0, 0)], grid=grid),
    )


def same(mine, theirs, name):
    assert mine.dtype == theirs.dtype, name
    assert mine.shape == theirs.shape, name
    assert np.array_equal(mine, theirs), name


def assert_same_phase(problem, incumbents, rows, chains=None):
    """Collect ``rows[i]`` off ``incumbents[i]`` both ways; every output
    must match.  Returns the compiled phase."""
    if chains is None:
        chains = list(range(len(incumbents)))
    proposals = [MoveBatch.from_rows(chain_rows) for chain_rows in rows]
    expected = _Phase.collect(incumbents, chains, proposals, problem)
    phase = _Phase.collect_kernel(incumbents, chains, proposals, problem)
    same(phase.table, expected.table, "table")
    same(phase.movers, expected.movers, "movers")
    for name in ("chains", "pair_candidate", "pair_router", "pair_xy"):
        same(getattr(phase.candidates, name), getattr(expected.candidates, name), name)
    assert phase.spans == expected.spans
    assert all(type(bound) is int for span in phase.spans for bound in span)
    return phase


class TestEdgeRows:
    """Three routers on a 10x10 grid, at (0, 0), (5, 5) and (9, 9)."""

    @pytest.fixture
    def problem(self):
        return frame(10, 10, 3)

    @pytest.fixture
    def placement(self, problem):
        return Placement.from_cells(
            problem.grid, [Point(0, 0), Point(5, 5), Point(9, 9)]
        )

    def test_zero_row_phase(self, problem, placement):
        phase = assert_same_phase(problem, [placement, placement], [[], []])
        assert phase.spans == [(0, 0), (0, 0)] and len(phase.table) == 0

    def test_chain_without_rows(self, problem, placement):
        phase = assert_same_phase(
            problem,
            [placement, placement, placement],
            [[swap_row(0, 1)], [], [relocate_row(2, (3, 3)), swap_row(1, 2)]],
            chains=[4, 1, 7],
        )
        assert phase.spans == [(0, 1), (1, 1), (1, 3)]
        assert phase.candidates.chains.tolist() == [4, 7, 7]

    def test_all_none_rows(self, problem, placement):
        phase = assert_same_phase(problem, [placement], [[NONE] * 5])
        assert phase.spans == [(0, 0)]

    @pytest.mark.parametrize("router", (-1, 3, BIG, -BIG, 2**63 - 1, -(2**63)))
    def test_router_out_of_range(self, problem, placement, router):
        rows = [relocate_row(router, (2, 2)), swap_row(router, 0), swap_row(0, router)]
        phase = assert_same_phase(problem, [placement], [rows])
        assert len(phase.table) == 0

    @pytest.mark.parametrize(
        "cell",
        ((-1, 2), (2, -1), (10, 2), (2, 10), (BIG, 2), (2, BIG), (-BIG, -BIG),
         (2**63 - 1, 2**63 - 1)),
    )
    def test_target_outside_the_grid(self, problem, placement, cell):
        phase = assert_same_phase(problem, [placement], [[relocate_row(1, cell)]])
        assert len(phase.table) == 0

    @pytest.mark.parametrize("kind", (3, -1, 7, BIG, -BIG))
    def test_unknown_kind(self, problem, placement, kind):
        rows = [(kind, 0, 1, 2, 2), (kind, 0, -1, 2, 2)]
        phase = assert_same_phase(problem, [placement], [rows])
        assert len(phase.table) == 0

    def test_relocation_onto_own_and_other_cells(self, problem, placement):
        rows = [
            relocate_row(1, (5, 5)),  # own cell: a no-op candidate
            relocate_row(0, (5, 5)),  # router 1's cell: stale
            relocate_row(2, (0, 0)),  # router 0's cell: stale
            relocate_row(0, (4, 4)),  # free
        ]
        phase = assert_same_phase(problem, [placement], [rows])
        assert phase.movers.tolist() == [0, 1]

    def test_swaps(self, problem, placement):
        rows = [swap_row(1, 1), swap_row(0, 2), swap_row(2, 0)]
        phase = assert_same_phase(problem, [placement], [rows])
        assert phase.movers.tolist() == [0, 2, 2]
        # Router first, to its partner's cell; then the partner.
        assert phase.candidates.pair_router.tolist() == [0, 2, 2, 0]
        assert phase.candidates.pair_xy.tolist() == [
            [9.0, 9.0], [0.0, 0.0], [0.0, 0.0], [9.0, 9.0],
        ]

    def test_rows_are_checked_against_their_own_chain(self, problem, placement):
        other = Placement.from_cells(
            problem.grid, [Point(0, 0), Point(4, 4), Point(9, 9)]
        )
        row = relocate_row(0, (5, 5))
        phase = assert_same_phase(problem, [placement, other], [[row], [row]])
        assert phase.spans == [(0, 0), (0, 1)]

    def test_one_router_on_one_cell(self):
        problem = frame(1, 1, 1)
        placement = Placement.from_cells(problem.grid, [Point(0, 0)])
        rows = [
            relocate_row(0, (0, 0)), swap_row(0, 0), relocate_row(0, (1, 0)),
            relocate_row(1, (0, 0)), swap_row(0, 1), NONE, (3, 0, 0, 0, 0),
        ]
        phase = assert_same_phase(problem, [placement], [rows])
        assert phase.movers.tolist() == [0, 0]

    def test_one_router_on_a_wide_grid(self):
        problem = frame(7, 3, 1)
        placement = Placement.from_cells(problem.grid, [Point(6, 2)])
        rows = [relocate_row(0, (x, y)) for x in range(-1, 8) for y in range(-1, 4)]
        assert_same_phase(problem, [placement, placement], [rows, rows[::-1]])


class TestKernelInputs:
    def test_counts_must_split_the_rows(self):
        rows = np.zeros((3, 5), dtype=np.int64)
        cells = np.zeros((2, 1, 2), dtype=np.int32)
        with pytest.raises(ValueError, match="split the rows"):
            compiled.collect_phase(rows, [1, 1], [0, 1], cells, 2, 2)
        with pytest.raises(ValueError, match="split the rows"):
            compiled.collect_phase(rows, [4, -1], [0, 1], cells, 2, 2)
        with pytest.raises(ValueError, match="split the rows"):
            compiled.collect_phase(rows, [1, 2], [0], cells, 2, 2)
        with pytest.raises(ValueError, match="int64"):
            compiled.collect_phase(rows.astype(np.int32), [1, 2], [0, 1], cells, 2, 2)

    def test_an_incumbent_cell_outside_the_grid_is_refused(self):
        rows = np.array([relocate_row(0, (1, 1))], dtype=np.int64)
        cells = np.array([[[0, 0], [2, 0]]], dtype=np.int32)
        with pytest.raises(ValueError, match="outside the grid"):
            compiled.collect_phase(rows, [1], [0], cells, 2, 2)

    def test_a_custom_table_goes_to_the_reference(self):
        problem = frame(4, 4, 2)
        placement = Placement.from_cells(problem.grid, [Point(0, 0), Point(1, 1)])
        proposals = [MoveBatch(np.array([relocate_row(0, (2, 2))], dtype=np.int32))]
        expected = _Phase.collect([placement], [0], proposals, problem)
        phase = _Phase.collect_kernel([placement], [0], proposals, problem)
        same(phase.table, expected.table, "table")
        assert phase.table.dtype == np.int32


KINDS = (
    "free", "occupied", "own", "swap", "self-swap", "bad-router",
    "bad-partner", "off-grid", "none", "unknown-kind", "raw",
)
#: Values just outside or far outside every column's range.
EXTREMES = (-1, -2, BIG, -BIG, 2**63 - 1, -(2**63))


def make_row(kind, placement, a, b, extreme):
    """One row of ``kind`` off ``placement``, from two free integers and
    one extreme value."""
    grid = placement.grid
    n = len(placement)
    cells = placement.cells
    if kind == "free":
        free = [cell for cell in grid.cells() if cell not in placement.occupied]
        return relocate_row(a % n, free[b % len(free)]) if free else NONE
    if kind == "occupied":
        return relocate_row(a % n, cells[b % n])
    if kind == "own":
        return relocate_row(a % n, cells[a % n])
    if kind == "swap":
        return swap_row(a % n, b % n)
    if kind == "self-swap":
        return swap_row(a % n, a % n)
    bad = (n, extreme, -1)[b % 3]
    if kind == "bad-router":
        return relocate_row(bad, cells[0]) if a % 2 else swap_row(bad, 0)
    if kind == "bad-partner":
        return swap_row(a % n, bad)
    if kind == "off-grid":
        x = (grid.width, extreme, -1, a % grid.width)[a % 4]
        y = (grid.height, extreme, -1, b % grid.height)[b % 4]
        if 0 <= x < grid.width and 0 <= y < grid.height:
            x = grid.width
        return relocate_row(a % n, (x, y))
    if kind == "unknown-kind":
        return ((3, -1, extreme)[a % 3], a % n, b % n, b % grid.width, a % grid.height)
    if kind == "raw":
        pick = (a % 7, b % 7, extreme, -1, a, b, n)
        return tuple(pick[(a + 3 * i + b * i * i) % 7] for i in range(5))
    return NONE


ROWS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(KINDS),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.sampled_from(EXTREMES),
    ),
    max_size=32,
)


def phase_rows(script, incumbents):
    rows = [[] for _ in incumbents]
    for chain, kind, a, b, extreme in script:
        chain %= len(incumbents)
        rows[chain].append(make_row(kind, incumbents[chain], a, b, extreme))
    return rows


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    width=st.integers(1, 9),
    height=st.integers(1, 9),
    density=st.floats(0.0, 1.0),
    n_chains=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    script=ROWS,
)
def test_collect_kernel_matches_the_reference(
    width, height, density, n_chains, seed, script
):
    n_routers = max(1, round(density * width * height))
    problem = frame(width, height, n_routers)
    rng = np.random.default_rng(seed)
    incumbents = [
        Placement.random(problem.grid, n_routers, rng) for _ in range(n_chains)
    ]
    chains = rng.permutation(3 * n_chains)[:n_chains].tolist()
    assert_same_phase(problem, incumbents, phase_rows(script, incumbents), chains)


@settings(max_examples=80, deadline=None)
@given(
    width=st.integers(1, 9),
    height=st.integers(1, 9),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    script=st.lists(
        st.tuples(
            st.sampled_from(KINDS),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
            st.sampled_from(EXTREMES),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_one_row_per_chain_phases_match(width, height, density, seed, script):
    # The Metropolis sub-step: one candidate per active chain.
    n_routers = max(1, round(density * width * height))
    problem = frame(width, height, n_routers)
    rng = np.random.default_rng(seed)
    incumbents = [
        Placement.random(problem.grid, n_routers, rng) for _ in script
    ]
    rows = [
        [make_row(kind, incumbent, a, b, extreme)]
        for (kind, a, b, extreme), incumbent in zip(script, incumbents)
    ]
    assert_same_phase(problem, incumbents, rows)


@pytest.mark.parametrize("movement", (RandomMovement, SwapMovement))
@pytest.mark.parametrize("n_candidates", (1, 16))
def test_proposed_phases_match(movement, n_candidates):
    problem = frame(24, 20, 30)
    rng = np.random.default_rng(n_candidates)
    evaluator = Evaluator(problem, engine="dense")
    currents = [
        evaluator.evaluate(Placement.random(problem.grid, 30, rng)) for _ in range(5)
    ]
    proposals = movement().propose_batch(
        currents, problem, [np.random.default_rng(seed) for seed in range(5)],
        n_candidates,
    )
    assert_same_phase(
        problem,
        [current.placement for current in currents],
        [batch.table.tolist() for batch in proposals],
    )


@pytest.mark.parametrize("movement", (RandomMovement, SwapMovement))
def test_the_driver_collects_once_per_phase_on_the_kernel(movement, monkeypatch):
    problem = frame(20, 20, 16)
    rng = np.random.default_rng(4)
    starts = [Placement.random(problem.grid, 16, rng) for _ in range(3)]

    def run():
        search = MultiChainSearch(movement(), n_candidates=6, max_phases=5)
        return search.run(
            problem, starts, [np.random.default_rng(seed) for seed in range(3)]
        )

    library = CountingLibrary(compiled.require())
    monkeypatch.setattr(compiled, "_lib", library)
    on = run()
    assert library.calls["repro_collect_phase"] == 5
    library.calls.clear()
    monkeypatch.setenv("REPRO_COMPILED", "0")
    off = run()
    assert "repro_collect_phase" not in library.calls
    for mine, theirs in zip(on, off):
        assert mine.best.placement == theirs.best.placement
        assert mine.trace.fitness_values == theirs.trace.fitness_values
        assert mine.n_evaluations == theirs.n_evaluations
