"""The compiled dense commit (``repro_commit_dense``) against a fresh cache.

On the compiled tier's dense layout ``StackedDeltaEngine.commit_chain``
is one kernel call: the moved routers' adjacency rows and columns,
coverage columns and coverage aid (per-client counts under
``ANY_ROUTER``, the client-major CSR under ``GIANT_ONLY``) and the
one-way edge arrays are rewritten in place, in buffers with spare room
that grow only when a commit could overflow them.  After every commit
of a random sequence (relocations, swaps, multi-router moves, no-move
commits, and commits that make a buffer grow) the cache must hold what
a fresh ``reset_chain`` of the same placement holds, and the next
``measure_phase`` must equal the numpy ``dense`` tier's bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clients import ClientSet
from repro.core.coverage import coverage_matrix
from repro.core.engine import compiled
from repro.core.engine.stacked import StackedDeltaEngine
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from tests.conftest import phase_of
from tests.core.test_engine_phase_kernel import (
    CountingLibrary,
    assert_rows_equal,
    random_moves,
)

pytestmark = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)


def make_problem(width, height, radii, client_cells, link_rule, coverage_rule):
    grid = GridArea(width, height)
    return ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii(radii),
        clients=ClientSet.from_points([Point(x, y) for x, y in client_cells], grid=grid),
        link_rule=link_rule,
        coverage_rule=coverage_rule,
    )


def assert_cache_is_fresh(engine, chain, placement):
    """Chain ``chain``'s committed cache holds what a fresh
    ``reset_chain`` of ``placement`` builds."""
    fresh = StackedDeltaEngine(engine.problem, engine="compiled")
    fresh.reset_chain(0, placement)
    committed, rebuilt = engine._caches[chain], fresh._caches[0]
    assert committed.placement is placement
    assert np.array_equal(committed.positions, rebuilt.positions)
    assert np.array_equal(committed.adjacency, rebuilt.adjacency)
    assert np.array_equal(committed.coverage, rebuilt.coverage)
    if rebuilt.coverage_counts is not None:
        assert np.array_equal(committed.coverage_counts, rebuilt.coverage_counts)
    if rebuilt.client_ptr is not None:
        assert np.array_equal(committed.client_ptr, rebuilt.client_ptr)
        n_hits = int(rebuilt.client_ptr[-1])
        assert np.array_equal(
            committed.client_hit[:n_hits], rebuilt.client_hit[:n_hits]
        )
        assert committed.client_hit.size >= n_hits
    rows, cols = committed.edges()
    fresh_rows, fresh_cols = rebuilt.edges()
    assert rows.size == cols.size == fresh_rows.size == int(committed.state[4])
    assert (rows < cols).all()
    pairs = set(zip(rows.tolist(), cols.tolist()))
    assert len(pairs) == rows.size
    assert pairs == set(zip(fresh_rows.tolist(), fresh_cols.tolist()))
    # The row still names the cache's own buffers.
    assert committed.state[2] == committed.edge_rows.ctypes.data
    assert committed.state[3] == committed.edge_cols.ctypes.data


def moved_placement(placement, movers, new_cells):
    cells = placement.cells_array().copy()
    for router, cell in zip(movers, new_cells):
        cells[router] = cell
    return Placement.from_cells(placement.grid, cells)


@st.composite
def commit_sequences(draw):
    """``(problem, start, commits)``: 1x1 up to 8x8 grids, N=1 up to a
    full grid, zero or coincident clients, every link and coverage rule,
    and up to 8 commits of 0 (no move), 1, 2 (a swap or two
    relocations) or up to N routers (moved among their own cells and
    the free ones)."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n_cells = width * height
    n_routers = draw(st.integers(1, min(n_cells, 20)))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    client_cells = draw(st.lists(cell, max_size=24))
    if client_cells:
        client_cells += draw(st.lists(st.sampled_from(client_cells), max_size=6))
    diagonal = max(math.hypot(width - 1, height - 1), 0.5)
    radii = draw(
        st.lists(
            st.floats(0.5, 2.0 * diagonal + 1.0),
            min_size=n_routers,
            max_size=n_routers,
        )
    )
    problem = make_problem(
        width, height, radii, client_cells,
        draw(st.sampled_from(list(LinkRule))),
        draw(st.sampled_from(list(CoverageRule))),
    )
    flat = draw(st.permutations(range(n_cells)))[:n_routers]
    placement = Placement.from_cells(
        problem.grid, [(i % width, i // width) for i in flat]
    )
    start = placement
    commits = []
    for _ in range(draw(st.integers(1, 8))):
        cells = [tuple(c) for c in placement.cells_array().tolist()]
        occupied = set(cells)
        free = [
            (i % width, i // width)
            for i in range(n_cells)
            if (i % width, i // width) not in occupied
        ]
        kind = draw(st.sampled_from(("none", "relocate", "swap", "many")))
        routers = draw(st.permutations(range(n_routers)))
        if kind == "relocate" and free:
            movers, targets = routers[:1], [draw(st.sampled_from(free))]
        elif kind == "swap" and n_routers >= 2:
            a, b = routers[:2]
            movers, targets = [a, b], [cells[b], cells[a]]
        elif kind == "many" and n_routers >= 2:
            count = draw(st.integers(2, n_routers))
            movers = routers[:count]
            pool = [cells[r] for r in movers] + free
            targets = draw(st.permutations(pool))[:count]
        else:
            movers, targets = [], []
        placement = moved_placement(placement, movers, targets)
        commits.append(placement)
    return problem, start, commits


class TestCommitSequences:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=commit_sequences(), seed=st.integers(0, 2**32 - 1))
    def test_commits_match_a_fresh_cache_and_the_numpy_tier(self, case, seed):
        problem, start, commits = case
        kernel = StackedDeltaEngine(problem, engine="compiled")
        numpy_dense = StackedDeltaEngine(problem, engine="dense")
        assert kernel.layout == "dense"
        kernel.reset_chain(0, start)
        numpy_dense.reset_chain(0, start)
        rng = np.random.default_rng(seed)
        for placement in commits:
            kernel.commit_chain(0, placement)
            numpy_dense.commit_chain(0, placement)
            assert_cache_is_fresh(kernel, 0, placement)
            items = [
                (0, placement, movers, new_cells)
                for movers, new_cells in random_moves(problem, placement, rng, 4)
            ]
            phase, _ = phase_of(items)
            assert_rows_equal(
                kernel.measure_phase(phase), numpy_dense.measure_phase(phase)
            )


def clustered_problem(coverage_rule):
    """12 routers that link to no one spread out and to their neighbors
    in a 4x3 block; 30 clients around the block."""
    rng = np.random.default_rng(5)
    clients = [tuple(cell) for cell in rng.integers(0, 6, size=(30, 2)).tolist()]
    return make_problem(
        16, 16, [1.5] * 12, clients, LinkRule.BIDIRECTIONAL, coverage_rule
    )


def held_buffers(cache):
    return cache.edge_rows, cache.edge_cols, cache.client_hit, cache.state


def same_objects(these, those):
    return all(a is b for a, b in zip(these, those))


SPREAD = [(2 * (i % 6) + 3, 2 * (i // 6) * 4 + 3) for i in range(12)]
BLOCK = [(i % 4, i // 4) for i in range(12)]


class TestBuffers:
    @pytest.mark.parametrize("coverage_rule", list(CoverageRule))
    def test_a_commit_that_could_overflow_grows_the_buffers(self, coverage_rule):
        problem = clustered_problem(coverage_rule)
        spread = Placement.from_cells(problem.grid, SPREAD)
        block = Placement.from_cells(problem.grid, BLOCK)
        engine = StackedDeltaEngine(problem, engine="compiled")
        engine.reset_chain(0, spread)
        cache = engine._caches[0]
        assert int(cache.state[4]) == 0
        rooms = (cache.edge_rows.size, cache.client_hit)
        # Twelve movers may link every other router: more than the room
        # left for two.
        engine.commit_chain(0, block)
        assert cache.edge_rows.size > rooms[0]
        if coverage_rule is CoverageRule.GIANT_ONLY:
            assert cache.client_hit is not rooms[1]
        assert_cache_is_fresh(engine, 0, block)
        # Back again: the grown buffers hold it, nothing is reallocated.
        buffers = held_buffers(cache)
        engine.commit_chain(0, spread)
        assert same_objects(held_buffers(cache), buffers)
        assert_cache_is_fresh(engine, 0, spread)

    def test_steady_commits_allocate_no_buffer(self, monkeypatch):
        problem = clustered_problem(CoverageRule.GIANT_ONLY)
        rng = np.random.default_rng(6)
        placement = Placement.from_cells(problem.grid, BLOCK)
        engine = StackedDeltaEngine(problem, engine="compiled")
        engine.reset_chain(0, placement)
        cache = engine._caches[0]
        buffers = held_buffers(cache)
        library = CountingLibrary(compiled.require())
        monkeypatch.setattr(compiled, "_lib", library)
        rows = []
        monkeypatch.setattr(
            compiled, "chain_state", lambda *args: rows.append(args) or ()
        )
        # No-move commits, relocations, swaps and two-router moves.
        for _ in range(40):
            [(movers, new_cells)] = random_moves(problem, placement, rng, 1)
            placement = moved_placement(placement, movers, new_cells)
            engine.commit_chain(0, placement)
        assert library.calls == {"repro_commit_dense": 40}
        assert not rows
        assert same_objects(held_buffers(cache), buffers)
        monkeypatch.undo()
        assert_cache_is_fresh(engine, 0, placement)


class TestCommitKernel:
    def test_client_lists_match_a_full_rebuild(self):
        # 40 clients and 12 routers; routers 0, 5 and 11 move in turn,
        # and the client-major lists equal client_csr of the new
        # coverage after each commit.
        rng = np.random.default_rng(37)
        clients = [tuple(c) for c in rng.integers(0, 20, size=(40, 2)).tolist()]
        radii = rng.uniform(2.0, 8.0, size=12).tolist()
        problem = make_problem(
            20, 20, radii, clients, LinkRule.BIDIRECTIONAL, CoverageRule.GIANT_ONLY
        )
        placement = Placement.random(problem.grid, 12, rng)
        engine = StackedDeltaEngine(problem, engine="compiled")
        engine.reset_chain(0, placement)
        cache = engine._caches[0]
        for router in (0, 5, 11):
            occupied = set(map(tuple, placement.cells_array().tolist()))
            free = [
                (x, y) for x in range(20) for y in range(20) if (x, y) not in occupied
            ]
            target = free[rng.integers(len(free))]
            placement = moved_placement(placement, [router], [target])
            engine.commit_chain(0, placement)
            want_ptr, want_hit = compiled.client_csr(
                coverage_matrix(
                    problem.clients.positions,
                    placement.positions_array(),
                    problem.fleet.radii,
                )
            )
            assert np.array_equal(cache.client_ptr, want_ptr)
            assert np.array_equal(cache.client_hit[: want_hit.size], want_hit)

    def test_commit_validates_its_inputs(self):
        problem = clustered_problem(CoverageRule.ANY_ROUTER)
        placement = Placement.from_cells(problem.grid, SPREAD)
        engine = StackedDeltaEngine(problem, engine="compiled")
        engine.reset_chain(0, placement)
        cache = engine._caches[0]
        before = cache.positions.copy()
        target = moved_placement(placement, [0], [(0, 0)])
        moved = target.cells_array()
        tables = (engine._range_squared, engine._clients, engine._radii_squared)
        room = (cache.edge_rows.size, 0)
        for state, adjacency, ranges in (
            (cache.state[:7], cache.adjacency, tables),
            (cache.state.astype(np.int32), cache.adjacency, tables),
            (cache.state, cache.adjacency.astype(np.uint8), tables),
            (cache.state, cache.adjacency[:, :11], tables),
            (cache.state, cache.adjacency, (tables[0][:11],) + tables[1:]),
            (cache.state, cache.adjacency, tables[:2] + (tables[2].astype(np.float32),)),
        ):
            with pytest.raises(ValueError):
                compiled.commit_args(state, adjacency, *ranges, *room)
        with pytest.raises(ValueError, match="cells"):
            compiled.commit_dense(cache.commit_args, moved[:11])
        assert np.array_equal(cache.positions, before)
        # Too little room: nothing is written.
        no_room = compiled.commit_args(cache.state, cache.adjacency, *tables, 0, 0)
        assert compiled.commit_dense(no_room, moved) == compiled.COMMIT_GROW
        assert np.array_equal(cache.positions, before)
        assert compiled.commit_dense(cache.commit_args, moved) == 1
        cache.placement = target
        assert_cache_is_fresh(engine, 0, target)
