"""The compiled proposal sampler against the Python row sampler.

On the compiled tier, Random and Swap proposals (both readings) are
drawn by one ``repro_propose_rows`` call per phase for every chain, and
``GridArea.sample_distinct_cells`` by ``repro_distinct_cells``, through
each generator's own ``bitgen_t``.  The Python row sampler on
``BulkDraws`` is the reference: every move must agree, and every
generator must end each phase in the same full ``bit_generator.state``,
on every numpy bit generator, with and without a buffered 32-bit half.
The edges are those where the draws change shape: a full grid, a full
dense window, an empty sparse window (the fallback mover), literal
weak == strong, one router, one-cell-wide grids, crowded grids that
reach the enumeration fallback, and a Lemire rejection.  Finally the
crossings: one kernel call per lockstep phase, and none with the
``REPRO_COMPILED`` gate off.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import compiled
from repro.core.evaluation import Evaluator
from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea
from repro.core.solution import Placement
from repro.instances.generator import InstanceSpec
from repro.neighborhood.movements import RandomMovement, SwapMovement
from repro.neighborhood.multichain import MultiChainSearch

from tests.core.test_engine_phase_kernel import CountingLibrary
from tests.core.test_sample_distinct_cells import (
    frozen_free_index,
    frozen_sample_distinct_cells,
)

pytestmark = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "pcg64dxsm": np.random.PCG64DXSM,
    "mt19937": np.random.MT19937,
    "philox": np.random.Philox,
    "sfc64": np.random.SFC64,
}

MOVEMENTS = {
    "random": RandomMovement,
    "swap": SwapMovement,
    "swap-literal": lambda: SwapMovement(relocate=False, window_fraction=0.5),
}


def same_state(a, b) -> bool:
    """Deep equality of ``bit_generator.state`` dicts (MT19937 holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def twin_generators(kind, seeds, buffered):
    """Two equal lists of generators (kernel side, reference side)."""
    sides = []
    for _ in range(2):
        rngs = [np.random.Generator(BIT_GENERATORS[kind](seed)) for seed in seeds]
        if buffered:
            # Leave a buffered high half behind where the generator has one.
            for rng in rngs:
                rng.integers(0, 10)
        sides.append(rngs)
    return sides


def make_problem(width, height, n_routers, n_clients=12, seed=3):
    return InstanceSpec(
        name="kernel", width=width, height=height, n_routers=n_routers,
        n_clients=n_clients, min_radius=1.0, max_radius=4.0, seed=seed,
    ).generate()


def incumbents(problem, n_chains, seed=5, cells=None):
    evaluator = Evaluator(problem)
    if cells is not None:
        placement = Placement(problem.grid, [Point(x, y) for x, y in cells])
        return [evaluator.evaluate(placement)] * n_chains
    rng = np.random.default_rng(seed)
    return [
        evaluator.evaluate(Placement.random(problem.grid, problem.n_routers, rng))
        for _ in range(n_chains)
    ]


def assert_phases_agree(factory, currents, problem, kernel_rngs, reference_rngs,
                        count, phases=3):
    """``phases`` phases of ``count`` proposals per chain on both samplers:
    equal moves and equal generator states after every phase; the rows."""
    kernel_movement, reference_movement = factory(), factory()
    rows = []
    for _ in range(phases):
        got = kernel_movement._sample(currents, problem, kernel_rngs, count, True)
        expected = reference_movement._sample(
            currents, problem, reference_rngs, count, False
        )
        for mine, theirs in zip(got, expected):
            assert np.array_equal(mine.table, theirs.table)
            rows.append(mine.table)
        for fast, reference in zip(kernel_rngs, reference_rngs):
            assert same_state(fast.bit_generator.state, reference.bit_generator.state)
    return np.concatenate(rows)


# ----------------------------------------------------------------------
# Generators and generated instances
# ----------------------------------------------------------------------


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
@pytest.mark.parametrize("kind", list(BIT_GENERATORS))
@pytest.mark.parametrize("name", list(MOVEMENTS))
def test_every_bit_generator(name, kind, buffered):
    problem = make_problem(24, 20, 30)
    currents = incumbents(problem, 3)
    kernel_rngs, reference_rngs = twin_generators(kind, [11, 12, 13], buffered)
    rows = assert_phases_agree(
        MOVEMENTS[name], currents, problem, kernel_rngs, reference_rngs, count=24
    )
    assert (rows[:, 0] != 0).any()


@st.composite
def swap_movements(draw):
    return SwapMovement(
        window_fraction=draw(st.sampled_from([0.125, 0.25, 0.5, 1.0])),
        window_width=draw(st.one_of(st.none(), st.integers(1, 6))),
        window_height=draw(st.one_of(st.none(), st.integers(1, 6))),
        density_source=draw(st.sampled_from(["routers", "clients", "both"])),
        relocate=draw(st.booleans()),
        pool=draw(st.integers(1, 8)),
    )


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    width=st.integers(1, 20),
    height=st.integers(1, 20),
    density=st.floats(0.0, 1.0),
    swap=st.one_of(st.none(), swap_movements()),
    kind=st.sampled_from(list(BIT_GENERATORS)),
    buffered=st.booleans(),
    n_chains=st.integers(1, 4),
    count=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_generated_instances(
    width, height, density, swap, kind, buffered, n_chains, count, seed
):
    n_routers = max(1, round(density * width * height))
    problem = make_problem(width, height, n_routers, seed=seed % 97)
    currents = incumbents(problem, n_chains, seed=seed)
    kernel_rngs, reference_rngs = twin_generators(
        kind, [seed + chain for chain in range(n_chains)], buffered
    )
    if swap is None:
        factory = RandomMovement
    else:
        def factory():
            return SwapMovement(
                window_fraction=swap.window_fraction,
                window_width=swap.window_width,
                window_height=swap.window_height,
                density_source=swap.density_source,
                relocate=swap.relocate,
                pool=swap.pool,
            )
    assert_phases_agree(
        factory, currents, problem, kernel_rngs, reference_rngs, count, phases=2
    )


def test_chains_sharing_one_generator():
    # The kernel draws chain after chain, so a shared generator serves
    # them in order, and its lock is taken once.
    problem = make_problem(16, 16, 20)
    currents = incumbents(problem, 3)
    kernel_rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
    assert_phases_agree(
        SwapMovement, currents, problem, [kernel_rng] * 3, [reference_rng] * 3, 16
    )


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
        pytest.param((6, 5, 28), id="crowded-6x5"),
        pytest.param((8, 8, 60), id="crowded-8x8"),
        pytest.param((1, 9, 8), id="crowded-1x9"),
    ],
)
@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
def test_degenerate_shapes(name, shape, buffered):
    width, height, n_routers = shape
    problem = make_problem(width, height, n_routers)
    currents = incumbents(problem, 2)
    kernel_rngs, reference_rngs = twin_generators("pcg64", [7, 8], buffered)
    assert_phases_agree(
        MOVEMENTS[name], currents, problem, kernel_rngs, reference_rngs, count=32
    )


def test_full_grid_random_finds_no_cell():
    problem = make_problem(4, 3, 12)
    currents = incumbents(problem, 2)
    kernel_rngs, reference_rngs = twin_generators("pcg64", [1, 2], False)
    rows = assert_phases_agree(
        RandomMovement, currents, problem, kernel_rngs, reference_rngs, count=8
    )
    assert (rows[:, 0] == 0).all()


def test_full_dense_window():
    problem = make_problem(12, 12, 10)
    currents = incumbents(problem, 2)
    kernel_rngs, reference_rngs = twin_generators("pcg64", [11, 12], False)
    rows = assert_phases_agree(
        lambda: SwapMovement(window_width=1, window_height=1, pool=3),
        currents, problem, kernel_rngs, reference_rngs, count=16,
    )
    assert (rows[:, 0] == 0).all()


def test_empty_sparse_window_uses_fallback_mover():
    problem = make_problem(16, 16, 6)
    currents = incumbents(problem, 2, cells=[(0, y) for y in range(6)])
    kernel_rngs, reference_rngs = twin_generators("pcg64", [13, 14], False)
    rows = assert_phases_agree(
        lambda: SwapMovement(window_width=2, window_height=2, pool=4),
        currents, problem, kernel_rngs, reference_rngs, count=24,
    )
    assert (rows[:, 0] == 1).any()


def test_literal_weak_equals_strong():
    problem = make_problem(6, 6, 1)
    currents = incumbents(problem, 2)
    kernel_rngs, reference_rngs = twin_generators("pcg64", [17, 18], False)
    rows = assert_phases_agree(
        lambda: SwapMovement(window_fraction=1.0, relocate=False, pool=1),
        currents, problem, kernel_rngs, reference_rngs, count=8,
    )
    assert (rows[:, 0] == 0).all()


def test_crowded_grid_reaches_the_enumeration():
    # One free cell of 30: a free-cell draw misses 64 times with chance
    # (29/30)**64, so some of the 96 rows enumerate the free cells.
    problem = make_problem(6, 5, 29)
    (current,) = incumbents(problem, 1)
    kernel_rng, reference_rng = np.random.default_rng(19), np.random.default_rng(19)
    rows = assert_phases_agree(
        RandomMovement, [current], problem, [kernel_rng], [reference_rng], 32
    )
    # Replay the draws on the frozen free-cell pick, counting fallbacks.
    grid = problem.grid
    bitmap = grid.occupancy_bitmap(current.placement.cells_array())
    replay = np.random.default_rng(19)
    fallbacks = []
    for kind, router, _, x, y in rows.tolist():
        assert router == int(replay.integers(0, problem.n_routers))
        index = frozen_free_index(grid, bitmap, replay, 0, 0, 6, 5, fallbacks)
        assert (kind, x, y) == (1, index % 6, index // 6)
    assert fallbacks


@pytest.mark.parametrize("name", list(MOVEMENTS))
def test_lemire_rejection(name):
    # A buffered half of 0 makes the first bounded draw of a span that
    # is not a power of two reject (its low word is 0 < (2**32 - r) % r).
    problem = make_problem(12, 10, 3)
    currents = incumbents(problem, 1)
    sides = []
    for _ in range(2):
        rng = np.random.default_rng(23)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
        sides.append(rng)
    probe = np.random.default_rng(23)
    probe.bit_generator.state = sides[0].bit_generator.state
    before = probe.bit_generator.state["state"]["state"]
    probe.integers(0, 3)
    # The rejected half forced a fresh word.
    assert probe.bit_generator.state["state"]["state"] != before
    factory = MOVEMENTS[name]
    if name != "random":
        def factory():
            return SwapMovement(relocate=name == "swap", pool=3, window_fraction=0.25)
        assert len(factory()._picks(currents[0], problem)) > 2
    assert_phases_agree(factory, currents, problem, [sides[0]], [sides[1]], 8)


def test_kernel_refuses_inputs_it_cannot_draw_from():
    rngs = [np.random.default_rng(0)]
    cells = [np.array([[0, 0], [3, 1]])]
    table = np.array([1, 1, 0, 1, 0, 4, 0, 4])
    rows = compiled.propose_rows(
        compiled.PROPOSE_RANDOM, 2, [np.random.default_rng(0)], cells, None, 4, 4
    )
    assert rows.shape == (1, 2, 5)
    with pytest.raises(ValueError, match="outside the grid"):
        compiled.propose_rows(compiled.PROPOSE_RANDOM, 2, rngs, cells, None, 3, 3)
    with pytest.raises(ValueError, match="same"):
        compiled.propose_rows(
            compiled.PROPOSE_RANDOM, 2, rngs * 2, [cells[0], cells[0][:1]], None, 4, 4
        )
    with pytest.raises(ValueError, match="missing"):
        compiled.propose_rows(compiled.PROPOSE_SWAP_RELOCATE, 2, rngs, cells, None, 4, 4)
    with pytest.raises(ValueError, match="window counts"):
        compiled.propose_rows(
            compiled.PROPOSE_SWAP_LITERAL, 2, rngs, None, [table[:-1]], 4, 4
        )
    with pytest.raises(ValueError, match="movement code"):
        compiled.propose_rows(7, 2, rngs, cells, None, 4, 4)
    # Nothing above drew.
    assert rngs[0].bit_generator.state == np.random.default_rng(0).bit_generator.state
    assert compiled.propose_rows(
        compiled.PROPOSE_SWAP_LITERAL, 1, [np.random.default_rng(0)], None, [table], 4, 4
    ).tolist() == [[[2, 1, 0, -1, -1]]]


# ----------------------------------------------------------------------
# sample_distinct_cells
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(BIT_GENERATORS))
@pytest.mark.parametrize(
    "case",
    [
        pytest.param((GridArea(9, 7), 20, None, ()), id="grid"),
        pytest.param((GridArea(6, 5), 30, None, ()), id="full"),
        pytest.param((GridArea(1, 12), 11, None, ()), id="one-column"),
        pytest.param((GridArea(12, 1), 12, None, ()), id="one-row"),
        pytest.param(
            (GridArea(10, 10), 6, Rect(7, 7, 5, 5), ()), id="within-clipped"
        ),
        pytest.param(
            (
                GridArea(8, 8),
                10,
                Rect(1, 1, 4, 4),
                [Point(1, 1), Point(1, 1), Point(2, 3), Point(20, 20), Point(-1, 0)],
            ),
            id="occupied-duplicates-outside",
        ),
        pytest.param((GridArea(40, 40), 1200, None, ()), id="crowded"),
    ],
)
def test_sample_distinct_cells_on_the_kernel(case, kind):
    grid, count, within, occupied = case
    for seed in range(3):
        ours, reference = (
            np.random.Generator(BIT_GENERATORS[kind](seed)) for _ in range(2)
        )
        expected = frozen_sample_distinct_cells(grid, count, reference, within, occupied)
        got = grid.sample_distinct_cells(count, ours, within=within, occupied=occupied)
        assert got == expected
        assert same_state(ours.bit_generator.state, reference.bit_generator.state)


def test_sample_distinct_cells_draws_on_the_kernel(monkeypatch):
    library = CountingLibrary(compiled.require())
    monkeypatch.setattr(compiled, "_lib", library)
    GridArea(10, 10).sample_distinct_cells(12, np.random.default_rng(1))
    assert library.calls == {"repro_distinct_cells": 1}


def test_sample_distinct_cells_never_starts_a_build(monkeypatch):
    # Sampling cells uses the kernel only once the library is loaded:
    # before that it draws on BulkDraws, with the same cells.
    monkeypatch.setattr(compiled, "_lib", None)
    monkeypatch.setattr(
        compiled, "_load", lambda: pytest.fail("sampling started a build")
    )
    reference = np.random.default_rng(3)
    ours = np.random.default_rng(3)
    expected = frozen_sample_distinct_cells(GridArea(9, 9), 30, reference)
    assert GridArea(9, 9).sample_distinct_cells(30, ours) == expected
    assert same_state(ours.bit_generator.state, reference.bit_generator.state)


# ----------------------------------------------------------------------
# Crossings
# ----------------------------------------------------------------------


def lockstep(movement, n_chains, phases, engine="compiled"):
    problem = make_problem(20, 20, 16, n_clients=24)
    rng = np.random.default_rng(n_chains)
    starts = [
        Placement.random(problem.grid, problem.n_routers, rng)
        for _ in range(n_chains)
    ]
    search = MultiChainSearch(
        movement, n_candidates=6, max_phases=phases, engine=engine
    )
    return search.run(
        problem, starts, [np.random.default_rng(seed) for seed in range(n_chains)]
    )


@pytest.mark.parametrize("n_chains", (1, 3, 7))
@pytest.mark.parametrize("name", list(MOVEMENTS))
def test_one_kernel_call_per_phase(name, n_chains, monkeypatch):
    library = CountingLibrary(compiled.require())
    monkeypatch.setattr(compiled, "_lib", library)
    results = lockstep(MOVEMENTS[name](), n_chains, phases=5)
    assert all(result.n_phases == 5 for result in results)
    assert library.calls["repro_propose_rows"] == 5


def test_gate_turns_the_kernel_off(monkeypatch):
    library = CountingLibrary(compiled.require())
    monkeypatch.setattr(compiled, "_lib", library)
    monkeypatch.setenv("REPRO_COMPILED", "0")
    off = lockstep(SwapMovement(), 3, phases=4, engine="auto")
    assert "repro_propose_rows" not in library.calls
    monkeypatch.delenv("REPRO_COMPILED")
    on = lockstep(SwapMovement(), 3, phases=4, engine="auto")
    assert library.calls["repro_propose_rows"] == 4
    for a, b in zip(off, on):
        assert a.best.placement == b.best.placement
        assert a.trace.fitness_values == b.trace.fitness_values


@pytest.mark.parametrize("name", list(MOVEMENTS))
def test_proposals_outside_a_run_never_start_a_build(name, monkeypatch):
    # Outside a run propose_batch uses the kernel only once the library
    # is loaded: before that it draws the same rows on BulkDraws.
    problem = make_problem(16, 14, 12)
    currents = incumbents(problem, 2)
    library = CountingLibrary(compiled.require())
    monkeypatch.setattr(compiled, "_lib", library)
    on = MOVEMENTS[name]().propose_batch(
        currents, problem, [np.random.default_rng(seed) for seed in (1, 2)], 8
    )
    # One draw call, and one pick-table call per Swap incumbent.
    expected = {"repro_propose_rows": 1}
    if name != "random":
        expected["repro_swap_window_table"] = len(currents)
    assert library.calls == expected
    monkeypatch.setattr(compiled, "_lib", None)
    monkeypatch.setattr(
        compiled, "_load", lambda: pytest.fail("proposing started a build")
    )
    off = MOVEMENTS[name]().propose_batch(
        currents, problem, [np.random.default_rng(seed) for seed in (1, 2)], 8
    )
    for mine, theirs in zip(on, off):
        assert np.array_equal(mine.table, theirs.table)
