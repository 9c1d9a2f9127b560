"""Sampled best-neighbor selection (Algorithm 2) on proposal rows.

One search phase samples ``n_candidates`` moves as ``MoveBatch`` rows,
drops the ones that do not apply and keeps the fittest neighbor.  The
driver validates a phase's rows on their columns (``_Phase.collect``)
and builds only the accepted candidate, by writing its row into a copy
of the incumbent's cells (``_Phase.placement``).  Both are held here to
the scalar reference ``ref_apply_row`` of ``tests/conftest.py``, and the
phase itself is exercised through a one-phase
:class:`NeighborhoodSearch`.
"""

from __future__ import annotations

import copy

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
from repro.neighborhood.movements import MovementType, RandomMovement
from repro.neighborhood.multichain import _Phase
from repro.neighborhood.search import NeighborhoodSearch
from repro.solvers import make_solver

from tests.conftest import propose_row, ref_apply_row, relocate_row, swap_row


#: The evaluator tiers a phase is measured on.
ENGINE_TIERS = [
    "dense",
    "sparse",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not compiled.is_available(),
            reason="compiled kernels not available (no C toolchain?)",
        ),
    ),
]


class NoneMovement(MovementType):
    """Never proposes anything."""

    name = "none"

    def _proposer(self, current, problem):
        return lambda draws: MoveBatch.NO_MOVE


class StaleMovement(MovementType):
    """Proposes a move that can never be applied (target occupied)."""

    name = "stale"

    def _proposer(self, current, problem):
        x, y = current.placement[1]
        return lambda draws: (MoveBatch.RELOCATE, 0, -1, x, y)


def one_phase(problem, movement, rng, n_candidates, engine):
    initial = Placement.random(problem.grid, problem.n_routers, rng)
    evaluator = Evaluator(problem, engine=engine)
    search = NeighborhoodSearch(movement, n_candidates=n_candidates, max_phases=1)
    return initial, evaluator, search.run(evaluator, initial, rng)


@pytest.mark.parametrize("engine", ENGINE_TIERS)
class TestOnePhase:
    def test_keeps_first_fittest_sampled_neighbor(self, tiny_problem, rng, engine):
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        replay = copy.deepcopy(rng)
        evaluator = Evaluator(tiny_problem, engine="dense")
        start = evaluator.evaluate(initial)
        movement = RandomMovement()
        neighbors = [
            ref_apply_row(propose_row(movement, start, tiny_problem, replay), initial)
            for _ in range(16)
        ]
        scored = [evaluator.evaluate(n) for n in neighbors if n is not None]
        first_best = max(scored, key=lambda e: e.fitness)  # max keeps the first
        result = NeighborhoodSearch(
            RandomMovement(), n_candidates=16, max_phases=1, accept_equal=True
        ).run(Evaluator(tiny_problem, engine=engine), initial, rng)
        incumbent = first_best if first_best.fitness >= start.fitness else start
        assert result.trace.final().fitness == incumbent.fitness
        if first_best.fitness > start.fitness:
            assert result.best.placement == first_best.placement
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_candidate_budget_respected(self, tiny_problem, rng, engine):
        _, evaluator, result = one_phase(
            tiny_problem, RandomMovement(), rng, 7, engine
        )
        assert result.n_evaluations == 1 + 7
        assert evaluator.n_evaluations == 1 + 7

    def test_idle_phase_when_no_moves_available(self, tiny_problem, rng, engine):
        initial, evaluator, result = one_phase(
            tiny_problem, NoneMovement(), rng, 8, engine
        )
        assert result.n_evaluations == evaluator.n_evaluations == 1
        assert result.best.placement == initial
        assert not result.trace.final().improved

    def test_stale_moves_skipped(self, tiny_problem, rng, engine):
        initial, evaluator, result = one_phase(
            tiny_problem, StaleMovement(), rng, 8, engine
        )
        assert result.n_evaluations == evaluator.n_evaluations == 1
        assert result.best.placement == initial


# ----------------------------------------------------------------------
# _Phase.collect + _Phase.placement against the reference
# ----------------------------------------------------------------------


def frame(width, height, n_routers):
    """A problem of ``n_routers`` routers on a ``width x height`` grid."""
    grid = GridArea(width, height)
    return ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii([1.0] * n_routers),
        clients=ClientSet.from_points([Point(0, 0)], grid=grid),
    )


def built_phase(problem, incumbents, rows):
    """The phase of ``rows[i]`` off ``incumbents[i]``: the kept rows and
    each one's built placement, per incumbent."""
    phase = _Phase.collect(
        incumbents,
        list(range(len(incumbents))),
        [MoveBatch.from_rows(chain_rows) for chain_rows in rows],
        problem,
    )
    kept = [
        [tuple(row) for row in phase.table[start:end].tolist()]
        for start, end in phase.spans
    ]
    built = [
        [phase.placement(k, incumbent) for k in range(start, end)]
        for (start, end), incumbent in zip(phase.spans, incumbents)
    ]
    return kept, built


class TestPhaseRows:
    @pytest.fixture
    def placement(self, tiny_problem):
        return Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, np.random.default_rng(3)
        )

    def test_relocation_to_free_cell(self, tiny_problem, placement):
        target = next(
            cell
            for cell in tiny_problem.grid.cells()
            if cell not in placement.occupied
        )
        kept, ((moved,),) = built_phase(
            tiny_problem, [placement], [[relocate_row(0, target)]]
        )
        assert moved[0] == target
        assert moved.cells[1:] == placement.cells[1:]
        assert kept == [[relocate_row(0, target)]]

    def test_stale_relocation_is_dropped(self, tiny_problem, placement):
        kept, built = built_phase(
            tiny_problem, [placement], [[relocate_row(0, placement[1])]]
        )
        assert kept == [[]] and built == [[]]

    def test_no_ops_are_the_incumbent(self, tiny_problem, placement):
        rows = [relocate_row(0, placement[0]), swap_row(2, 2)]
        kept, (built,) = built_phase(tiny_problem, [placement], [rows])
        assert kept == [rows]
        assert all(neighbor is placement for neighbor in built)

    def test_swap_exchanges_two_cells(self, tiny_problem, placement):
        _, ((swapped,),) = built_phase(tiny_problem, [placement], [[swap_row(0, 2)]])
        cells = list(placement.cells)
        cells[0], cells[2] = cells[2], cells[0]
        assert swapped.cells == tuple(cells)
        assert swapped.occupied == placement.occupied

    def test_out_of_range_ids_and_targets_are_dropped(self, tiny_problem, placement):
        free = next(
            cell
            for cell in tiny_problem.grid.cells()
            if cell not in placement.occupied
        )
        n = tiny_problem.n_routers
        width = tiny_problem.grid.width
        rows = [
            relocate_row(n, free),
            relocate_row(-1, free),
            swap_row(0, n),
            swap_row(-1, 0),
            relocate_row(0, (width, 0)),
            relocate_row(0, (0, -1)),
            MoveBatch.NO_MOVE,
        ]
        kept, built = built_phase(tiny_problem, [placement], [rows])
        assert kept == [[]] and built == [[]]
        assert all(ref_apply_row(row, placement) is None for row in rows)


def built_one(problem, placement, row):
    """The neighbor one ``row`` builds off ``placement``, or ``None``
    when the phase drops the row."""
    kept, ((*neighbors,),) = built_phase(problem, [placement], [[row]])
    assert len(neighbors) == len(kept[0]) <= 1
    return neighbors[0] if neighbors else None


class TestRowsOnAFixedPlacement:
    """Three routers on a 10x10 grid, at (0, 0), (5, 5) and (9, 9)."""

    @pytest.fixture
    def problem(self):
        return frame(10, 10, 3)

    @pytest.fixture
    def placement(self, problem):
        return Placement.from_cells(
            problem.grid, [Point(0, 0), Point(5, 5), Point(9, 9)]
        )

    def test_relocation_moves_a_single_router(self, problem, placement):
        moved = built_one(problem, placement, relocate_row(1, (2, 2)))
        assert moved.cells == (Point(0, 0), Point(2, 2), Point(9, 9))

    def test_relocation_leaves_the_incumbent_untouched(self, problem, placement):
        built_one(problem, placement, relocate_row(0, (2, 2)))
        assert placement.cells == (Point(0, 0), Point(5, 5), Point(9, 9))
        assert placement.occupied == {Point(0, 0), Point(5, 5), Point(9, 9)}

    def test_relocation_onto_own_cell_is_the_incumbent(self, problem, placement):
        assert built_one(problem, placement, relocate_row(0, (0, 0))) is placement

    def test_swap_exchanges_positions(self, problem, placement):
        moved = built_one(problem, placement, swap_row(0, 2))
        assert moved.cells == (Point(9, 9), Point(5, 5), Point(0, 0))

    def test_swap_keeps_the_occupied_cells(self, problem, placement):
        moved = built_one(problem, placement, swap_row(0, 1))
        assert moved.occupied == placement.occupied

    def test_swap_leaves_the_incumbent_untouched(self, problem, placement):
        built_one(problem, placement, swap_row(0, 1))
        assert placement.cells == (Point(0, 0), Point(5, 5), Point(9, 9))

    def test_self_swap_is_the_incumbent(self, problem, placement):
        assert built_one(problem, placement, swap_row(1, 1)) is placement

    @pytest.mark.parametrize(
        "row",
        [
            relocate_row(0, (5, 5)),
            relocate_row(0, (50, 0)),
            relocate_row(0, (10, 3)),
            relocate_row(0, (3, -1)),
            relocate_row(3, (1, 1)),
            relocate_row(-1, (1, 1)),
            swap_row(0, 7),
            swap_row(0, -1),
            swap_row(-1, 0),
            MoveBatch.NO_MOVE,
            (7, 0, 1, 1, 1),
        ],
        ids=[
            "occupied-target",
            "far-off-grid",
            "x-past-edge",
            "negative-y",
            "router-past-end",
            "negative-router",
            "partner-past-end",
            "negative-partner",
            "negative-swap-router",
            "no-move",
            "unknown-kind",
        ],
    )
    def test_row_that_does_not_apply_is_dropped(self, problem, placement, row):
        assert ref_apply_row(row, placement) is None
        assert built_one(problem, placement, row) is None

    @pytest.mark.parametrize("warm", [False, True], ids=["bare", "warm"])
    def test_derivation_is_the_same_with_or_without_cached_views(
        self, problem, warm
    ):
        placement = Placement.from_cells(
            problem.grid, [Point(0, 0), Point(5, 5), Point(2, 7)]
        )
        if warm:
            _ = placement.occupied, placement.positions_array()
        moved = built_one(problem, placement, relocate_row(1, (9, 9)))
        assert moved.cells == (Point(0, 0), Point(9, 9), Point(2, 7))
        assert moved.occupied == set(moved.cells)
        assert np.array_equal(moved.positions_array(), moved.cells_array())
        swapped = built_one(problem, placement, swap_row(0, 2))
        assert swapped.cells == (Point(2, 7), Point(5, 5), Point(0, 0))
        assert swapped.occupied == set(swapped.cells)
        assert built_one(problem, placement, relocate_row(1, (5, 5))) is placement
        assert built_one(problem, placement, relocate_row(1, (2, 7))) is None

    def test_rows_are_checked_against_their_own_chain(self, problem, placement):
        # (5, 5) holds router 1 in the first chain and is free in the
        # second, so the same row is stale in one chain and kept in the
        # other.
        other = Placement.from_cells(
            problem.grid, [Point(0, 0), Point(4, 4), Point(9, 9)]
        )
        row = relocate_row(0, (5, 5))
        kept, built = built_phase(problem, [placement, other], [[row], [row]])
        assert kept == [[], [row]]
        assert built[0] == []
        assert built[1][0].cells == (Point(5, 5), Point(4, 4), Point(9, 9))

    def test_swap_reads_the_cells_of_its_own_chain(self, problem, placement):
        other = Placement.from_cells(
            problem.grid, [Point(1, 1), Point(2, 2), Point(3, 3)]
        )
        _, built = built_phase(
            problem, [placement, other], [[swap_row(0, 2)], [swap_row(0, 2)]]
        )
        assert built[0][0].cells == (Point(9, 9), Point(5, 5), Point(0, 0))
        assert built[1][0].cells == (Point(3, 3), Point(2, 2), Point(1, 1))

    def test_chain_without_rows_gets_an_empty_span(self, problem, placement):
        phase = _Phase.collect(
            [placement, placement, placement],
            [4, 1, 7],
            [
                MoveBatch.from_rows([swap_row(0, 1)]),
                MoveBatch.from_rows([]),
                MoveBatch.from_rows([relocate_row(2, (3, 3)), swap_row(1, 2)]),
            ],
            problem,
        )
        assert phase.spans == [(0, 1), (1, 1), (1, 3)]
        assert phase.movers.tolist() == [2, 1, 2]
        assert phase.candidates.chains.tolist() == [4, 7, 7]


def placement_of(seed):
    """Ten routers at random on a 12x12 grid."""
    return Placement.random(GridArea(12, 12), 10, np.random.default_rng(seed))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 9), st.integers(0, 9))
def test_swap_row_keeps_the_occupied_cells(seed, a, b):
    placement = placement_of(seed)
    swapped = built_one(frame(12, 12, 10), placement, swap_row(a, b))
    assert swapped.occupied == placement.occupied
    assert len(swapped) == len(placement)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 10_000), st.integers(0, 9), st.integers(0, 11), st.integers(0, 11)
)
def test_relocation_row_changes_exactly_one_router(seed, router, x, y):
    placement = placement_of(seed)
    target = Point(x, y)
    moved = built_one(frame(12, 12, 10), placement, relocate_row(router, target))
    if target in placement.occupied and placement[router] != target:
        assert moved is None
        return
    differences = [i for i in range(len(placement)) if moved[i] != placement[i]]
    assert differences == ([] if placement[router] == target else [router])
    assert moved[router] == target


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 9), st.integers(0, 9))
def test_swap_row_is_an_involution(seed, a, b):
    problem = frame(12, 12, 10)
    placement = placement_of(seed)
    once = built_one(problem, placement, swap_row(a, b))
    assert built_one(problem, once, swap_row(a, b)).cells == placement.cells


KINDS = (
    "free", "occupied", "own", "swap", "self-swap",
    "bad-router", "bad-partner", "off-grid", "none",
)


def make_row(kind, placement, a, b):
    """One row of ``kind`` off ``placement``, from two free integers."""
    grid = placement.grid
    n = len(placement)
    cells = placement.cells
    if kind == "free":
        free = [cell for cell in grid.cells() if cell not in placement.occupied]
        return relocate_row(a % n, free[b % len(free)]) if free else MoveBatch.NO_MOVE
    if kind == "occupied":
        return relocate_row(a % n, cells[b % n])
    if kind == "own":
        return relocate_row(a % n, cells[a % n])
    if kind == "swap":
        return swap_row(a % n, b % n)
    if kind == "self-swap":
        return swap_row(a % n, a % n)
    out_of_range = n + a % 3 if b % 2 else -1 - a % 3
    if kind == "bad-router":
        return (relocate_row(out_of_range, cells[0]) if b % 4 < 2
                else swap_row(out_of_range, 0))
    if kind == "bad-partner":
        return swap_row(a % n, out_of_range)
    if kind == "off-grid":
        offset = a % 3
        x, y = ((grid.width + offset, b % grid.height) if b % 2
                else (b % grid.width, -1 - offset))
        return relocate_row(a % n, (x, y))
    return MoveBatch.NO_MOVE


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    width=st.integers(1, 8),
    height=st.integers(1, 8),
    density=st.floats(0.0, 1.0),
    n_chains=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    warm=st.booleans(),
    script=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(KINDS),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
        ),
        max_size=24,
    ),
)
def test_phase_builds_the_reference_neighbors(
    width, height, density, n_chains, seed, warm, script
):
    n_routers = max(1, round(density * width * height))
    problem = frame(width, height, n_routers)
    rng = np.random.default_rng(seed)
    incumbents = [
        Placement.random(problem.grid, n_routers, rng) for _ in range(n_chains)
    ]
    if warm:
        for incumbent in incumbents:
            _ = incumbent.occupied, incumbent.positions_array()
    before = [incumbent.cells_array().copy() for incumbent in incumbents]
    rows = [[] for _ in incumbents]
    for chain, kind, a, b in script:
        chain %= n_chains
        rows[chain].append(make_row(kind, incumbents[chain], a, b))

    kept, built = built_phase(problem, incumbents, rows)

    for incumbent, cells, chain_rows, chain_kept, chain_built in zip(
        incumbents, before, rows, kept, built
    ):
        assert np.array_equal(incumbent.cells_array(), cells)
        references = [(row, ref_apply_row(row, incumbent)) for row in chain_rows]
        references = [(row, ref) for row, ref in references if ref is not None]
        assert chain_kept == [row for row, _ in references]
        for neighbor, (row, reference) in zip(chain_built, references):
            assert neighbor.cells == reference.cells
            assert neighbor == reference
            assert hash(neighbor) == hash(reference)  # repro-lint: disable=RL001
            assert not neighbor.cells_array().flags.writeable
            assert neighbor.occupied == set(reference.cells)
            assert np.array_equal(neighbor.positions_array(), reference.cells_array())
            if reference is incumbent:
                assert neighbor is incumbent
                continue
            moved = [
                i for i in range(n_routers) if neighbor[i] != incumbent[i]
            ]
            kind, router, partner = row[:3]
            if kind == MoveBatch.SWAP:
                assert moved == sorted((router, partner))
                assert neighbor.occupied == incumbent.occupied
            else:
                assert moved == [router]
                assert neighbor[router] == Point(*row[3:])


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 8),
    height=st.integers(1, 8),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    script=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.sampled_from(KINDS),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
        ),
        max_size=16,
    ),
)
def test_phase_candidates_describe_the_built_neighbors(
    width, height, density, seed, script
):
    # The delta engine measures candidate k from its (router, cell)
    # pairs; the search commits the neighbor `placement` builds.  They
    # must be the same placement.
    n_routers = max(1, round(density * width * height))
    problem = frame(width, height, n_routers)
    rng = np.random.default_rng(seed)
    incumbents = [Placement.random(problem.grid, n_routers, rng) for _ in range(2)]
    rows = [[], []]
    for chain, kind, a, b in script:
        rows[chain].append(make_row(kind, incumbents[chain], a, b))
    phase = _Phase.collect(
        incumbents, [3, 5], [MoveBatch.from_rows(r) for r in rows], problem
    )
    candidates = phase.candidates
    assert len(candidates) == len(phase.table) == len(phase.movers)
    for (start, end), incumbent, chain in zip(phase.spans, incumbents, [3, 5]):
        assert candidates.chains[start:end].tolist() == [chain] * (end - start)
        for k in range(start, end):
            pairs = np.flatnonzero(candidates.pair_candidate == k)
            assert len(pairs) == phase.movers[k]
            cells = incumbent.cells_array().astype(float)
            cells[candidates.pair_router[pairs]] = candidates.pair_xy[pairs]
            assert np.array_equal(cells, phase.placement(k, incumbent).cells_array())


@pytest.mark.parametrize(
    "spec",
    [
        "annealing:swap",
        "annealing:random",
        "annealing:combined",
        "tabu:swap",
        "tabu:random",
        "search:swap",
        "search:random",
    ],
)
def test_searches_commit_valid_placements(tiny_problem, spec):
    # Accepted candidates are written into a copy of the incumbent's
    # cells and wrapped without re-validation; the best one a run
    # returns must still pass the full constructor and re-measure the
    # same on the dense reference evaluator.
    result = make_solver(spec).solve(tiny_problem, seed=5, budget=4)
    best = result.best.placement
    rebuilt = Placement(tiny_problem.grid, list(best.cells))
    assert rebuilt == best
    assert hash(rebuilt) == hash(best)  # repro-lint: disable=RL001
    assert not best.cells_array().flags.writeable
    assert best.occupied == set(best.cells)
    assert len(best.occupied) == tiny_problem.n_routers
    reference = Evaluator(tiny_problem, engine="dense").evaluate(rebuilt)
    assert reference.fitness == result.best.fitness
    assert reference.metrics == result.best.metrics
