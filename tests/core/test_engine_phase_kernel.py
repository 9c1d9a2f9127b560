"""The compiled tier's one-call dense phase (``PhaseKernel``).

On the dense layout, a compiled ``StackedDeltaEngine.measure_phase`` is
one kernel call for every chain of the phase.  These tests pin it
against the numpy ``"dense"`` tier's phase and a full
``StackedEngine.measure_placements`` of the candidate placements, on
generated phases and across commits, bit for bit at one and two kernel
threads; and they count what a phase crosses into: one
kernel call, and no read of the ``REPRO_COMPILED`` gate.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import envgates
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
from repro.instances.catalog import city_spec, paper_normal, tiny_spec
from repro.neighborhood.movements import RandomMovement, SwapMovement
from repro.neighborhood.multichain import MultiChainSearch
from tests.conftest import phase_of

pytestmark = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)

ROW_FIELDS = (
    "giant_sizes", "covered_clients", "n_components", "n_links",
    "mean_degrees", "fitness", "giant_masks",
)


def random_moves(problem, placement, rng, count):
    """``(movers, new_cells)`` of every phase shape: no-ops, relocations
    to a free cell, swaps (two routers exchange cells, so the co-mover
    link is tested at both new cells) and two-router relocations."""
    n = problem.n_routers
    cells = placement.cells_array()
    occupied = set(map(tuple, cells.tolist()))
    free = [
        (x, y)
        for x in range(problem.grid.width)
        for y in range(problem.grid.height)
        if (x, y) not in occupied
    ]
    moves = []
    for _ in range(count):
        kind = int(rng.integers(4))
        if kind == 0 or (kind in (1, 3) and len(free) < 2) or n < 2:
            moves.append(((), ()))
        elif kind == 1:
            moves.append(((int(rng.integers(n)),), (free[rng.integers(len(free))],)))
        elif kind == 2:
            a, b = (int(r) for r in rng.choice(n, size=2, replace=False))
            moves.append(((a, b), (tuple(cells[b]), tuple(cells[a]))))
        else:
            a, b = (int(r) for r in rng.choice(n, size=2, replace=False))
            first, second = rng.choice(len(free), size=2, replace=False)
            moves.append(((a, b), (free[first], free[second])))
    return moves


def assert_rows_equal(measurement, expected):
    for name in ROW_FIELDS:
        assert np.array_equal(
            getattr(measurement, name), getattr(expected, name)
        ), name


@st.composite
def generated_phases(draw):
    """``(problem, incumbents, items)``: R=1..4 chains on 1xK, Kx1 and
    small block grids, N=1 up to a full grid, zero or coincident
    clients, every link and coverage rule, and per chain 0..5
    candidates of 0, 1 or 2 movers, the chains in any order."""
    shape = draw(st.sampled_from(("row", "column", "block")))
    if shape == "block":
        width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    else:
        width, height = draw(st.integers(1, 12)), 1
        if shape == "column":
            width, height = height, width
    n_cells = width * height
    n_routers = draw(st.one_of(st.just(1), st.integers(1, min(n_cells, 16))))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    client_cells = draw(st.lists(cell, max_size=24))
    if client_cells:
        client_cells += draw(st.lists(st.sampled_from(client_cells), max_size=6))
    diagonal = max(math.hypot(width - 1, height - 1), 0.5)
    grid = GridArea(width, height)
    problem = ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii(
            draw(
                st.lists(
                    st.floats(0.5, 2.0 * diagonal + 1.0),
                    min_size=n_routers,
                    max_size=n_routers,
                )
            )
        ),
        clients=ClientSet.from_points(
            [Point(x, y) for x, y in client_cells], grid=grid
        ),
        link_rule=draw(st.sampled_from(list(LinkRule))),
        coverage_rule=draw(st.sampled_from(list(CoverageRule))),
    )
    incumbents = []
    for _ in range(draw(st.integers(1, 4))):
        flat = draw(st.permutations(range(n_cells)))[:n_routers]
        incumbents.append(
            Placement.from_cells(grid, [(i % width, i // width) for i in flat])
        )
    items = []
    for chain in draw(st.permutations(range(len(incumbents)))):
        incumbent = incumbents[chain]
        occupied = set(map(tuple, incumbent.cells_array().tolist()))
        free = [
            (i % width, i // width)
            for i in range(n_cells)
            if (i % width, i // width) not in occupied
        ]
        for _ in range(draw(st.integers(0, 5))):
            kind = draw(st.sampled_from(("none", "relocate", "swap", "pair")))
            routers = draw(st.permutations(range(n_routers)))
            targets = draw(st.permutations(free)) if free else []
            if kind == "relocate" and targets:
                movers, cells = routers[:1], targets[:1]
            elif kind == "swap" and n_routers >= 2:
                a, b = routers[:2]
                cells_array = incumbent.cells_array()
                movers = [a, b]
                cells = [tuple(cells_array[b]), tuple(cells_array[a])]
            elif kind == "pair" and n_routers >= 2 and len(targets) >= 2:
                movers, cells = routers[:2], targets[:2]
            else:
                movers, cells = [], []
            items.append((chain, incumbent, movers, cells))
    return problem, incumbents, items


class TestGeneratedPhases:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=generated_phases())
    def test_kernel_phase_matches_numpy_phase_and_full_measurement(self, case):
        problem, incumbents, items = case
        kernel = StackedDeltaEngine(problem, engine="compiled")
        numpy_dense = StackedDeltaEngine(problem, engine="dense")
        assert kernel.layout == "dense"
        for chain, incumbent in enumerate(incumbents):
            kernel.reset_chain(chain, incumbent)
            numpy_dense.reset_chain(chain, incumbent)
        phase, placements = phase_of(items)
        measurement = kernel.measure_phase(phase)
        assert len(measurement.fitness) == len(items)
        assert_rows_equal(measurement, numpy_dense.measure_phase(phase))
        if placements:
            assert_rows_equal(
                measurement,
                StackedEngine(problem, engine="dense").measure_placements(
                    placements
                ),
            )


@pytest.fixture()
def kernel_threads():
    """Restores the kernel thread count a test changes."""
    lib = compiled.require()
    before = int(lib.repro_get_max_threads())
    yield compiled.set_num_threads
    compiled.set_num_threads(before)


def phase_loop(problem, engine, reference, rng, n_chains, phases, count):
    """Measure, then commit one candidate per chain, ``phases`` times;
    every phase's rows must equal ``reference``'s.

    Every chain advances through the in-place commit rule.
    """
    incumbents = [
        Placement.random(problem.grid, problem.n_routers, rng)
        for _ in range(n_chains)
    ]
    for chain, incumbent in enumerate(incumbents):
        engine.reset_chain(chain, incumbent)
        reference.reset_chain(chain, incumbent)
    rows = []
    for _ in range(phases):
        items = [
            (chain, incumbents[chain], movers, cells)
            for chain in range(n_chains)
            for movers, cells in random_moves(problem, incumbents[chain], rng, count)
        ]
        phase, placements = phase_of(items)
        measurement = engine.measure_phase(phase)
        assert_rows_equal(measurement, reference.measure_phase(phase))
        rows.append(measurement)
        for chain in range(n_chains):
            chosen = placements[chain * count + int(rng.integers(count))]
            engine.commit_chain(chain, chosen)
            reference.commit_chain(chain, chosen)
            incumbents[chain] = chosen
    return rows


class TestCommitsAndThreads:
    @pytest.mark.parametrize("coverage_rule", list(CoverageRule))
    @pytest.mark.parametrize("link_rule", list(LinkRule))
    def test_phases_across_commits(self, link_rule, coverage_rule):
        problem = (
            tiny_spec(seed=5).generate()
            .with_link_rule(link_rule)
            .with_coverage_rule(coverage_rule)
        )
        phase_loop(
            problem,
            StackedDeltaEngine(problem, engine="compiled"),
            StackedDeltaEngine(problem, engine="dense"),
            np.random.default_rng(11),
            n_chains=3,
            phases=4,
            count=6,
        )

    @pytest.mark.skipif(
        not (compiled.is_available() and compiled.has_openmp()),
        reason="kernels built without OpenMP",
    )
    def test_one_and_two_threads_are_bit_equal(self, kernel_threads):
        problem = tiny_spec(seed=9).generate()
        runs = []
        for threads in (1, 2):
            kernel_threads(threads)
            runs.append(
                phase_loop(
                    problem,
                    StackedDeltaEngine(problem, engine="compiled"),
                    StackedDeltaEngine(problem, engine="dense"),
                    np.random.default_rng(17),
                    n_chains=4,
                    phases=3,
                    count=40,
                )
            )
        for one, two in zip(*runs):
            assert_rows_equal(one, two)


#: The candidates x routers below which a compiled stack measurement
#: runs on one thread (``STACK_PARALLEL_MIN_WORK`` in ``_kernels.c``).
STACK_PARALLEL_MIN_WORK = int(
    re.search(
        r"#define STACK_PARALLEL_MIN_WORK (\d+)", compiled._SOURCE.read_text()
    ).group(1)
)


class TestStackThreads:
    """``repro_measure_stack_dense`` and ``_sparse`` at one and two
    kernel threads, on both sides of their one-thread work bound."""

    @pytest.mark.skipif(
        not (compiled.is_available() and compiled.has_openmp()),
        reason="kernels built without OpenMP",
    )
    @pytest.mark.parametrize(
        "spec,form",
        [(paper_normal(), "dense"), (city_spec(2100, 0), "sparse")],
        ids=["dense", "sparse"],
    )
    def test_one_and_two_threads_are_bit_equal(self, kernel_threads, spec, form):
        problem = spec.generate()
        engine = StackedEngine(problem, engine="compiled")
        assert engine._compiled_engine().form == form
        n = problem.n_routers
        bound = -(-STACK_PARALLEL_MIN_WORK // n)
        rng = np.random.default_rng(5)
        cells = np.stack(
            [
                Placement.random(problem.grid, n, rng).cells_array()
                for _ in range(bound)
            ]
        )
        for stack in (cells[: bound - 1], cells):
            rows = []
            for threads in (1, 2):
                kernel_threads(threads)
                rows.append(engine.measure_placements(stack))
            assert_rows_equal(*rows)


#: The clients x routers below which a client-major CSR fill runs on one
#: thread (``CSR_PARALLEL_MIN_WORK`` in ``_kernels.c``).
CSR_PARALLEL_MIN_WORK = int(
    re.search(
        r"#define CSR_PARALLEL_MIN_WORK (\d+)", compiled._SOURCE.read_text()
    ).group(1)
)


class TestClientCsrThreads:
    """``repro_client_csr_fill`` at one and two kernel threads, on both
    sides of its one-thread work bound: the lists are ``np.nonzero``'s
    row-major order either way."""

    @pytest.mark.parametrize("n_routers", (64, 100))
    def test_one_and_two_threads_match_nonzero_order(
        self, kernel_threads, n_routers
    ):
        rng = np.random.default_rng(n_routers)
        bound = -(-CSR_PARALLEL_MIN_WORK // n_routers)
        for n_clients in (bound - 1, bound, 3 * bound):
            coverage = rng.random((n_clients, n_routers)) < 0.05
            coverage[::7] = False  # clients no router covers
            want_ptr = np.concatenate(
                [[0], np.cumsum(coverage.sum(axis=1))]
            )
            want_hit = np.nonzero(coverage)[1]
            for threads in (1, 2):
                kernel_threads(threads)
                ptr, hit = compiled.client_csr(coverage)
                assert np.array_equal(ptr, want_ptr)
                assert np.array_equal(hit, want_hit)


class CountingLibrary:
    """The bound kernel library, counting calls per kernel entry."""

    def __init__(self, lib) -> None:
        self._lib = lib
        self.calls: dict[str, int] = {}

    def __getattr__(self, name):
        kernel = getattr(self._lib, name)

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return kernel(*args)

        return counted


class TestCrossings:
    @pytest.mark.parametrize("n_chains", (1, 3, 7))
    def test_one_kernel_call_per_phase(self, n_chains, monkeypatch):
        problem = tiny_spec(seed=3).generate()
        library = CountingLibrary(compiled.require())
        monkeypatch.setattr(compiled, "_lib", library)
        engine = StackedDeltaEngine(problem, engine="compiled")
        rng = np.random.default_rng(n_chains)
        incumbents = [
            Placement.random(problem.grid, problem.n_routers, rng)
            for _ in range(n_chains)
        ]
        for chain, incumbent in enumerate(incumbents):
            engine.reset_chain(chain, incumbent)
        phase, _ = phase_of(
            [
                (chain, incumbents[chain], movers, cells)
                for chain in range(n_chains)
                for movers, cells in random_moves(problem, incumbents[chain], rng, 8)
            ]
        )
        library.calls.clear()
        engine.measure_phase(phase)
        assert library.calls == {"repro_measure_phase_dense": 1}

    def test_gate_reads_do_not_grow_with_phases(self, monkeypatch):
        problem = tiny_spec(seed=4).generate()
        reads = []
        flag = envgates._flag

        def counting_flag(name):
            reads.append(name)
            return flag(name)

        monkeypatch.setattr(envgates, "_flag", counting_flag)
        counts = {}
        for phases in (1, 10):
            engine = StackedDeltaEngine(problem, engine="compiled")
            reads.clear()
            phase_loop(
                problem,
                engine,
                StackedDeltaEngine(problem, engine="dense"),
                np.random.default_rng(phases),
                n_chains=2,
                phases=phases,
                count=4,
            )
            counts[phases] = len(reads)
        assert counts[10] == counts[1]

    @pytest.mark.parametrize(
        "driver",
        [
            pytest.param(
                lambda phases: MultiChainSearch(
                    SwapMovement(), n_candidates=4, max_phases=phases,
                    engine="compiled",
                ),
                id="swap",
            ),
            pytest.param(
                lambda phases: MultiChainSearch(
                    RandomMovement(), n_candidates=4, max_phases=phases,
                    engine="compiled",
                ),
                id="random",
            ),
            pytest.param(
                lambda phases: MultiChainSearch.tabu(
                    SwapMovement(relocate=False), n_candidates=4,
                    max_phases=phases, engine="compiled",
                ),
                id="tabu",
            ),
            pytest.param(
                lambda phases: MultiChainSearch.annealing(
                    RandomMovement(), max_phases=phases, moves_per_phase=4,
                    engine="compiled",
                ),
                id="annealing",
            ),
        ],
    )
    def test_gate_reads_do_not_grow_with_phases_of_a_run(self, driver, monkeypatch):
        # A whole run, proposals included: the engine and the proposal
        # sampler resolve their tier once, where the run starts.
        problem = tiny_spec(seed=4).generate()
        reads = []
        flag = envgates._flag

        def counting_flag(name):
            reads.append(name)
            return flag(name)

        monkeypatch.setattr(envgates, "_flag", counting_flag)
        counts = {}
        for phases in (1, 10):
            rng = np.random.default_rng(phases)
            starts = [
                Placement.random(problem.grid, problem.n_routers, rng)
                for _ in range(2)
            ]
            reads.clear()
            results = driver(phases).run(
                problem, starts, [np.random.default_rng(seed) for seed in (1, 2)]
            )
            assert [result.n_phases for result in results] == [phases, phases]
            counts[phases] = len(reads)
        assert counts[10] == counts[1]


class TestKernelInputs:
    def test_chain_state_refuses_a_wrong_buffer(self):
        positions = np.zeros((2, 2))
        coverage = np.zeros((3, 2), dtype=bool)
        edges = np.zeros(0, dtype=np.int64)
        counts = np.zeros(3, dtype=np.int32)
        row = compiled.chain_state(positions, coverage, edges, edges, None, None, counts)
        assert row[4] == 0 and row[5] == row[6] == 0
        with pytest.raises(ValueError, match="coverage_counts"):
            compiled.chain_state(
                positions, coverage, edges, edges, None, None, counts.astype(np.int64)
            )
        with pytest.raises(ValueError, match="positions"):
            compiled.chain_state(
                np.zeros((2, 4))[:, ::2], coverage, edges, edges, None, None, counts
            )
        with pytest.raises(ValueError, match="shapes"):
            compiled.chain_state(
                positions, coverage, edges, edges, None, None, counts[:2]
            )
        ptr = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="shapes"):
            compiled.chain_state(
                positions, coverage, edges, edges, ptr, np.zeros(1, dtype=np.int64), None
            )

    def test_phase_refuses_a_state_without_the_rules_aid(self):
        positions = np.zeros((2, 2))
        coverage = np.zeros((3, 2), dtype=bool)
        edges = np.zeros(0, dtype=np.int64)
        counts = np.zeros(3, dtype=np.int32)
        state = compiled.chain_state(positions, coverage, edges, edges, None, None, counts)
        args = (
            np.array([state]), np.array([0, 1]),
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros((0, 2)),
        )
        constants = (np.zeros((2, 2)), np.zeros((3, 2)), np.ones(2))
        assert compiled.PhaseKernel(*constants, False)(*args)[1].tolist() == [0]
        with pytest.raises(ValueError, match="aid"):
            compiled.PhaseKernel(*constants, True)(*args)

    def test_phase_refuses_pair_arrays_of_different_lengths(self):
        positions = np.zeros((2, 2))
        coverage = np.zeros((3, 2), dtype=bool)
        edges = np.zeros(0, dtype=np.int64)
        counts = np.zeros(3, dtype=np.int32)
        state = compiled.chain_state(positions, coverage, edges, edges, None, None, counts)
        head = (np.array([state]), np.array([0, 1]))
        kernel = compiled.PhaseKernel(np.zeros((2, 2)), np.zeros((3, 2)), np.ones(2), False)
        # Each case's pair_router is a valid count the others disagree with.
        for pairs in (
            ([0], [0, 1], [[0.0, 0.0], [1.0, 1.0]]),
            ([0, 0], [0], [[0.0, 0.0]]),
            ([0], [0], [[0.0, 0.0], [1.0, 1.0]]),
            ([0, 0], [0, 1], [[0.0, 0.0]]),
        ):
            with pytest.raises(ValueError, match="disagree on their count"):
                kernel(*head, *(np.array(a) for a in pairs))
        bad = PhaseCandidates([0], [0], [1, 0], [[0, 0], [1, 1]])
        with pytest.raises(ValueError, match="disagree on their count"):
            kernel(*head, bad.pair_candidate, bad.pair_router, bad.pair_xy)

    def test_phase_refuses_out_of_range_pairs(self):
        problem = tiny_spec(seed=3).generate()
        engine = StackedDeltaEngine(problem, engine="compiled")
        placement = Placement.random(
            problem.grid, problem.n_routers, np.random.default_rng(0)
        )
        engine.reset_chain(0, placement)
        bad = PhaseCandidates([0], [0], [problem.n_routers], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="out of range"):
            engine.measure_phase(bad)
