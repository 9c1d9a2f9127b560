"""Tests for the lockstep multi-chain search engine.

The contract under test: per-chain results (best solution, trace, phase
and evaluation counts, final generator state) are **bit-identical** to
running each chain alone through the paper's serial phase loop, for
every movement type, stopping condition, engine path and chain
grouping — because the per-chain RNG streams are consumed identically
everywhere.  The serial loop is kept here as a frozen reference
(:func:`serial_reference`): it measures every candidate with the dense
reference ``Evaluator`` and shares no code with the lockstep driver
beyond the movements it samples from.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anytime.deadline import Deadline, SteppingClock
from repro.core.clients import ClientSet
from repro.core.engine import compiled
from repro.core.evaluation import Evaluator
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from repro.instances.catalog import tiny_spec
from repro.instances.generator import InstanceSpec
from repro.neighborhood import (
    AnnealingSchedule,
    MultiChainSearch,
    NeighborhoodSearch,
    chain_generators,
)
from repro.neighborhood.movements import (
    CombinedMovement,
    RandomMovement,
    SwapMovement,
)
from repro.neighborhood.registry import available_movements, make_movement
from repro.neighborhood.trace import SearchResult, SearchTrace
from repro.parallel import seed_shards
from repro.solvers import make_solver

from tests.conftest import propose_row, ref_apply_row, rows_of


def serial_reference(
    problem,
    movement,
    initial,
    rng,
    n_candidates=16,
    max_phases=64,
    stall_phases=None,
    accept_equal=False,
    fitness_target=None,
    deadline=None,
):
    """Frozen copy of the serial best-improvement loop (Algorithms 1 + 2).

    Per phase: sample ``n_candidates`` moves from the chain's generator,
    drop the ones that do not apply, measure every neighbor with the
    dense reference evaluator, keep the *first* fittest one and move
    there when it improves (or ties, with ``accept_equal``).
    """
    evaluator = Evaluator(problem, engine="dense")
    current = evaluator.evaluate(initial)
    best = current
    trace = SearchTrace()
    trace.record_phase(
        phase=0, evaluation=current, improved=False, n_evaluations=1
    )
    stall = 0
    phase = 0
    stopped_by = None
    for next_phase in range(1, max_phases + 1):
        if deadline is not None:
            stopped_by = deadline.stop_reason()
            if stopped_by is not None:
                break
        phase = next_phase
        neighbors = []
        for _ in range(n_candidates):
            neighbor = ref_apply_row(
                propose_row(movement, current, problem, rng), current.placement
            )
            if neighbor is not None:
                neighbors.append(neighbor)
        candidate = None
        for neighbor in neighbors:
            evaluation = evaluator.evaluate(neighbor)
            if candidate is None or evaluation.fitness > candidate.fitness:
                candidate = evaluation
        improved = False
        if candidate is not None:
            accept = candidate.fitness > current.fitness or (
                accept_equal and candidate.fitness == current.fitness
            )
            if accept:
                improved = candidate.fitness > current.fitness
                current = candidate
                if current.fitness > best.fitness:
                    best = current
        trace.record_phase(
            phase=phase,
            evaluation=current,
            improved=improved,
            n_evaluations=evaluator.n_evaluations,
        )
        stall = 0 if improved else stall + 1
        if fitness_target is not None and best.fitness >= fitness_target:
            break
        if stall_phases is not None and stall >= stall_phases:
            break
    return SearchResult(
        best=best,
        trace=trace,
        n_phases=phase,
        n_evaluations=evaluator.n_evaluations,
        stopped_by=stopped_by,
    )


@pytest.fixture(scope="module")
def problem():
    return tiny_spec(seed=7).generate()


MOVEMENT_FACTORIES = [
    pytest.param(SwapMovement, id="swap"),
    pytest.param(lambda: SwapMovement(relocate=False), id="swap-literal"),
    pytest.param(
        lambda: SwapMovement(density_source="clients"), id="swap-clients"
    ),
    pytest.param(RandomMovement, id="random"),
    pytest.param(
        lambda: CombinedMovement([SwapMovement(), RandomMovement()]),
        id="combined",
    ),
]


def chain_rngs(n_chains, base=42):
    return [np.random.default_rng((base, chain)) for chain in range(n_chains)]


def chain_starts(problem, rngs):
    return [
        Placement.random(problem.grid, problem.n_routers, rng) for rng in rngs
    ]


def run_serial(problem, factory, n_chains, base=42, **kwargs):
    results = []
    for chain in range(n_chains):
        rng = np.random.default_rng((base, chain))
        initial = Placement.random(problem.grid, problem.n_routers, rng)
        results.append(serial_reference(problem, factory(), initial, rng, **kwargs))
    return results


def run_lockstep(problem, factory, n_chains, base=42, **kwargs):
    rngs = chain_rngs(n_chains, base)
    initials = chain_starts(problem, rngs)
    search = MultiChainSearch(factory(), **kwargs)
    return search.run(problem, initials, rngs)


def assert_identical(serial, lockstep):
    assert len(serial) == len(lockstep)
    for a, b in zip(serial, lockstep):
        assert a.best.fitness == b.best.fitness
        assert a.best.placement.cells == b.best.placement.cells
        assert a.best.metrics == b.best.metrics
        assert np.array_equal(a.best.giant_mask, b.best.giant_mask)
        assert a.n_phases == b.n_phases
        assert a.n_evaluations == b.n_evaluations
        assert len(a.trace) == len(b.trace)
        for record_a, record_b in zip(a.trace, b.trace):
            assert record_a.as_dict() == record_b.as_dict()


class TestProposeBatchContract:
    """propose_batch must equal R scalar propose calls per chain stream."""

    @pytest.mark.parametrize("factory", MOVEMENT_FACTORIES)
    def test_agrees_with_scalar_propose(self, problem, factory):
        n_chains, n_candidates = 4, 10
        evaluator = Evaluator(problem)
        currents = [
            evaluator.evaluate(placement)
            for placement in chain_starts(problem, chain_rngs(n_chains, 3))
        ]
        batch_rngs = chain_rngs(n_chains, 11)
        scalar_rngs = chain_rngs(n_chains, 11)
        batch_movement = factory()
        scalar_movement = factory()
        batch = batch_movement.propose_batch(
            currents, problem, batch_rngs, n_candidates
        )
        scalar = [
            [
                propose_row(scalar_movement, currents[chain], problem, rng)
                for _ in range(n_candidates)
            ]
            for chain, rng in enumerate(scalar_rngs)
        ]
        assert [rows_of(chain_batch) for chain_batch in batch] == scalar
        # The streams must also END in the same state: no hidden draws.
        for fast, reference in zip(batch_rngs, scalar_rngs):
            assert fast.integers(1 << 30) == reference.integers(1 << 30)

    @pytest.mark.parametrize(
        "shape",
        [
            pytest.param((32, 32, 1), id="one-router"),
            pytest.param((1, 40, 6), id="one-column"),
            pytest.param((40, 1, 6), id="one-row"),
            pytest.param((6, 6, 30), id="crowded"),
            pytest.param((32, 32, 60), id="busy"),
        ],
    )
    @pytest.mark.parametrize(
        "factory",
        [
            pytest.param(RandomMovement, id="random"),
            pytest.param(SwapMovement, id="swap"),
            pytest.param(lambda: SwapMovement(relocate=False), id="swap-literal"),
            pytest.param(lambda: SwapMovement(pool=1), id="pool-1"),
            pytest.param(
                lambda: SwapMovement(relocate=False, pool=1), id="pool-1-literal"
            ),
            pytest.param(
                lambda: SwapMovement(window_width=1, window_height=1), id="window-1"
            ),
            pytest.param(lambda: SwapMovement(window_width=1), id="window-width-1"),
        ],
    )
    def test_agrees_with_scalar_propose_on_degenerate_edges(self, shape, factory):
        # Spans of 1 draw nothing (one router, a one-cell-wide grid or
        # window, a pool of one window), and a busy or crowded grid
        # sends the free-cell draws through their rejection retries:
        # one batch call must still draw every chain's rows, and leave
        # its generator, exactly as the scalar calls do.
        width, height, n_routers = shape
        problem = InstanceSpec(
            name="edge", width=width, height=height, n_routers=n_routers,
            n_clients=12, min_radius=1.0, max_radius=4.0, seed=3,
        ).generate()
        evaluator = Evaluator(problem)
        currents = [
            evaluator.evaluate(placement)
            for placement in chain_starts(problem, chain_rngs(3, 5))
        ]
        n_candidates = 48
        batch_rngs = chain_rngs(3, 13)
        scalar_rngs = chain_rngs(3, 13)
        batch = factory().propose_batch(currents, problem, batch_rngs, n_candidates)
        scalar_movement = factory()
        scalar = [
            [
                propose_row(scalar_movement, currents[chain], problem, rng)
                for _ in range(n_candidates)
            ]
            for chain, rng in enumerate(scalar_rngs)
        ]
        assert [rows_of(chain_batch) for chain_batch in batch] == scalar
        for fast, reference in zip(batch_rngs, scalar_rngs):
            assert fast.bit_generator.state == reference.bit_generator.state

    def test_rejects_mismatched_lengths(self, problem):
        evaluator = Evaluator(problem)
        current = evaluator.evaluate(
            Placement.random(problem.grid, problem.n_routers, chain_rngs(1)[0])
        )
        with pytest.raises(ValueError):
            RandomMovement().propose_batch(
                [current], problem, chain_rngs(2), 4
            )


class TestChainGenerators:
    def test_reproducible_and_independent(self):
        first = chain_generators(123, 4)
        second = chain_generators(123, 4)
        draws_first = [rng.integers(1 << 30) for rng in first]
        draws_second = [rng.integers(1 << 30) for rng in second]
        assert draws_first == draws_second
        assert len(set(draws_first)) == len(draws_first)

    def test_accepts_seed_sequence(self):
        sequence = np.random.SeedSequence(9)
        rngs = chain_generators(sequence, 2)
        assert len(rngs) == 2

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            chain_generators(1, 0)


class TestRuleRepr:
    def test_each_constructor_names_its_rule(self):
        best = repr(MultiChainSearch(SwapMovement(), accept_equal=True))
        tabu = repr(MultiChainSearch.tabu(SwapMovement(), tenure=5))
        annealing = repr(
            MultiChainSearch.annealing(
                SwapMovement(),
                schedule=AnnealingSchedule(initial_temperature=0.2),
            )
        )
        assert len({best, tabu, annealing}) == 3
        assert "rule=_BestImprovement(accept_equal=True)" in best
        assert "rule=_Tabu(tenure=5)" in tabu
        assert "rule=_Metropolis(schedule=AnnealingSchedule(" in annealing
        assert "initial_temperature=0.2" in annealing
        # The default schedule is spelled out too.
        assert "schedule=AnnealingSchedule(" in repr(
            MultiChainSearch.annealing(SwapMovement())
        )


class TestLockstepParity:
    @pytest.mark.parametrize("factory", MOVEMENT_FACTORIES)
    def test_matches_serial_chains(self, problem, factory):
        serial = run_serial(
            problem, factory, 5, n_candidates=6, max_phases=10
        )
        lockstep = run_lockstep(
            problem, factory, 5, n_candidates=6, max_phases=10
        )
        assert_identical(serial, lockstep)

    def test_stall_and_sideways_acceptance(self, problem):
        kwargs = dict(
            n_candidates=5, max_phases=12, stall_phases=3, accept_equal=True
        )
        serial = run_serial(problem, RandomMovement, 4, **kwargs)
        lockstep = run_lockstep(problem, RandomMovement, 4, **kwargs)
        assert_identical(serial, lockstep)

    def test_fitness_target_masks_chains(self, problem):
        serial = []
        for chain in range(4):
            rng = np.random.default_rng((42, chain))
            initial = Placement.random(problem.grid, problem.n_routers, rng)
            serial.append(
                serial_reference(
                    problem, SwapMovement(), initial, rng,
                    n_candidates=5, max_phases=15, fitness_target=0.5,
                )
            )
        rngs = chain_rngs(4)
        initials = chain_starts(problem, rngs)
        lockstep = MultiChainSearch(
            SwapMovement(), n_candidates=5, max_phases=15
        ).run(problem, initials, rngs, fitness_target=0.5)
        assert_identical(serial, lockstep)

    def test_chains_stop_at_different_phases(self, problem):
        # With a tight patience different chains stall at different
        # phases; the lockstep masking must reproduce each endpoint.
        kwargs = dict(n_candidates=4, max_phases=20, stall_phases=2)
        serial = run_serial(problem, SwapMovement, 6, **kwargs)
        lockstep = run_lockstep(problem, SwapMovement, 6, **kwargs)
        assert_identical(serial, lockstep)
        assert len({result.n_phases for result in lockstep}) > 1

    def test_sparse_engine_parity(self, problem):
        dense = run_lockstep(
            problem, SwapMovement, 3, n_candidates=5, max_phases=8
        )
        rngs = chain_rngs(3)
        initials = chain_starts(problem, rngs)
        sparse = MultiChainSearch(
            SwapMovement(), n_candidates=5, max_phases=8, engine="sparse"
        ).run(problem, initials, rngs)
        assert_identical(dense, sparse)


class TestDeterminismAndWorkers:
    def test_same_seeds_same_results(self, problem):
        first = run_lockstep(
            problem, SwapMovement, 4, n_candidates=5, max_phases=8
        )
        second = run_lockstep(
            problem, SwapMovement, 4, n_candidates=5, max_phases=8
        )
        assert_identical(first, second)

    def test_seed_shards_match_one_portfolio(self, problem):
        """Each ``seed_shards`` slice run as its own portfolio (what one
        shard task of ``replicate_movements(workers=3)`` runs) equals the
        same chains of one all-chain portfolio, traces included, with
        chains stalling out of the lockstep at different phases."""
        single = run_lockstep(
            problem, SwapMovement, 6, n_candidates=4, max_phases=6,
            stall_phases=2,
        )
        rngs = chain_rngs(6)
        initials = chain_starts(problem, rngs)
        search = MultiChainSearch(
            SwapMovement(), n_candidates=4, max_phases=6, stall_phases=2
        )
        sharded = []
        for shard in seed_shards(6, 3):
            sharded.extend(
                search.run(
                    problem,
                    initials[shard.start : shard.stop],
                    rngs[shard.start : shard.stop],
                )
            )
        assert_identical(single, sharded)

    def test_invalid_inputs(self, problem):
        search = MultiChainSearch(RandomMovement())
        rngs = chain_rngs(2)
        initials = chain_starts(problem, rngs)
        with pytest.raises(ValueError):
            search.run(problem, [], [])
        with pytest.raises(ValueError):
            search.run(problem, initials, rngs[:1])
        with pytest.raises(ValueError):
            MultiChainSearch(RandomMovement(), n_candidates=0)
        with pytest.raises(ValueError):
            MultiChainSearch(RandomMovement(), max_phases=0)
        with pytest.raises(ValueError):
            MultiChainSearch(RandomMovement(), stall_phases=0)

    def test_movement_factory_resolution(self, problem):
        rngs = chain_rngs(2)
        initials = chain_starts(problem, rngs)
        with pytest.raises(TypeError):
            MultiChainSearch(lambda: object()).run(problem, initials, rngs)


class TestMultiStartSolver:
    """``multistart`` is best-of-R over one lockstep portfolio."""

    def test_best_of_restarts(self, problem):
        solver = make_solver(
            "multistart:swap", n_restarts=5, n_candidates=5, max_phases=8
        )
        outcome = solver.solve(problem, seed=77)
        rngs = chain_generators(77, 5)
        initials = chain_starts(problem, rngs)
        chains = MultiChainSearch(
            SwapMovement(), n_candidates=5, max_phases=8
        ).run(problem, initials, rngs)
        fitnesses = [result.best.fitness for result in chains]
        winner = chains[int(np.argmax(fitnesses))]
        assert outcome.best.fitness == max(fitnesses)
        assert outcome.best.placement.cells == winner.best.placement.cells
        assert outcome.n_phases == winner.n_phases
        assert outcome.n_evaluations == sum(
            result.n_evaluations for result in chains
        )

    def test_deterministic_from_parent_seed(self, problem):
        solver = make_solver(
            "multistart:random", n_restarts=3, n_candidates=4, max_phases=6
        )
        first = solver.solve(problem, seed=5)
        second = solver.solve(problem, seed=5)
        assert first.best.fitness == second.best.fitness
        assert first.best.placement.cells == second.best.placement.cells
        assert first.n_evaluations == second.n_evaluations

    def test_validation(self):
        with pytest.raises(ValueError):
            make_solver("multistart:random", n_restarts=0)


class TestReplicationContract:
    """replicate_movements == the serial per-chain loop, per seed."""

    def test_movement_replication_matches_serial_chains(self):
        from repro.experiments.replication import (
            label_key,
            replicate_movements,
        )

        spec = tiny_spec(seed=8)
        problem = spec.generate()
        results = replicate_movements(
            spec, n_seeds=3, n_candidates=4, max_phases=5
        )
        for label, factory in (("Swap", SwapMovement), ("Random", RandomMovement)):
            giants = []
            coverages = []
            for seed in range(3):
                rng = np.random.default_rng((spec.seed, label_key(label), seed))
                initial = Placement.random(
                    problem.grid, problem.n_routers, rng
                )
                outcome = serial_reference(
                    problem, factory(), initial, rng,
                    n_candidates=4, max_phases=5,
                )
                giants.append(float(outcome.best.giant_size))
                coverages.append(float(outcome.best.covered_clients))
            assert results[label]["giant"].values == tuple(giants)
            assert results[label]["coverage"].values == tuple(coverages)

    def test_standalone_replication_matches_scalar_runs(self):
        from repro.adhoc.registry import make_method
        from repro.experiments.replication import (
            label_key,
            replicate_standalone,
        )

        spec = tiny_spec(seed=6)
        problem = spec.generate()
        results = replicate_standalone(
            spec, n_seeds=3, methods=("random", "hotspot")
        )
        for name in ("random", "hotspot"):
            fitnesses = []
            for seed in range(3):
                rng = np.random.default_rng((spec.seed, label_key(name), seed))
                evaluation = Evaluator(problem).evaluate(
                    make_method(name).place(problem, rng)
                )
                fitnesses.append(evaluation.fitness)
            assert results[name]["fitness"].values == tuple(fitnesses)


# ----------------------------------------------------------------------
# Differential property: lockstep driver vs the frozen serial loop
# ----------------------------------------------------------------------

TIERS = [
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


@st.composite
def search_cases(draw):
    """A generated instance plus one lockstep search configuration."""
    if draw(st.booleans()):
        width, height = 1, draw(st.integers(1, 10))  # 1xK strips
        if draw(st.booleans()):
            width, height = height, width
    else:
        width, height = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    n_routers = draw(st.integers(1, min(width * height, 12)))
    client_cells = draw(st.lists(cell, max_size=12))
    if client_cells:
        # Coincident clients: repeat some drawn cells verbatim.
        client_cells += draw(st.lists(st.sampled_from(client_cells), max_size=3))
    radii = draw(
        st.lists(
            st.floats(0.5, 12.0, allow_nan=False, allow_infinity=False),
            min_size=n_routers,
            max_size=n_routers,
        )
    )
    grid = GridArea(width, height)
    problem = ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii(radii),
        clients=ClientSet.from_points(
            [Point(x, y) for x, y in client_cells], grid=grid
        ),
        link_rule=draw(st.sampled_from(list(LinkRule))),
        coverage_rule=draw(st.sampled_from(list(CoverageRule))),
    )
    config = dict(
        movement=draw(st.sampled_from(available_movements())),
        n_chains=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
        n_candidates=draw(st.integers(1, 6)),
        max_phases=draw(st.integers(1, 6)),
        stall_phases=draw(st.one_of(st.none(), st.integers(1, 3))),
        accept_equal=draw(st.booleans()),
        fitness_target=draw(st.sampled_from([None, 0.3, 0.6, 0.95])),
        # Deadline fires at its k-th poll (0: already expired).
        deadline_polls=draw(st.one_of(st.none(), st.integers(0, 4))),
    )
    return problem, config


def stepping_deadline(polls):
    """A deadline that fires at its ``polls``-th ``stop_reason`` call."""
    if polls is None:
        return None
    return Deadline.at(float(polls), clock=SteppingClock(1.0))


def assert_same_run(result, reference, rng, reference_rng):
    assert result.best.placement.cells == reference.best.placement.cells
    assert result.best.fitness == reference.best.fitness
    assert result.best.metrics == reference.best.metrics
    assert np.array_equal(result.best.giant_mask, reference.best.giant_mask)
    assert result.n_phases == reference.n_phases
    assert result.n_evaluations == reference.n_evaluations
    assert result.stopped_by == reference.stopped_by
    assert [r.as_dict() for r in result.trace] == [
        r.as_dict() for r in reference.trace
    ]
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("tier", TIERS)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=search_cases())
def test_lockstep_matches_frozen_serial_loop(tier, case):
    problem, config = case
    n_chains = config["n_chains"]
    knobs = dict(
        n_candidates=config["n_candidates"],
        max_phases=config["max_phases"],
        stall_phases=config["stall_phases"],
        accept_equal=config["accept_equal"],
    )
    target = config["fitness_target"]

    def chain_streams():
        rngs = chain_generators(config["seed"], n_chains)
        starts = [
            Placement.random(problem.grid, problem.n_routers, rng) for rng in rngs
        ]
        return starts, rngs

    references, reference_rngs = [], []
    starts, rngs = chain_streams()
    for start, rng in zip(starts, rngs):
        references.append(
            serial_reference(
                problem, make_movement(config["movement"]), start, rng,
                fitness_target=target,
                deadline=stepping_deadline(config["deadline_polls"]),
                **knobs,
            )
        )
        reference_rngs.append(rng)

    starts, rngs = chain_streams()
    results = MultiChainSearch(
        make_movement(config["movement"]), engine=tier, **knobs
    ).run(
        problem, starts, rngs, fitness_target=target,
        deadline=stepping_deadline(config["deadline_polls"]),
    )
    for result, reference, rng, reference_rng in zip(
        results, references, rngs, reference_rngs
    ):
        assert_same_run(result, reference, rng, reference_rng)

    if n_chains == 1:
        # NeighborhoodSearch is the one-chain case and charges its
        # evaluator the run's evaluations.
        (start,), (rng,) = chain_streams()
        evaluator = Evaluator(problem, engine=tier)
        result = NeighborhoodSearch(make_movement(config["movement"]), **knobs).run(
            evaluator, start, rng, fitness_target=target,
            deadline=stepping_deadline(config["deadline_polls"]),
        )
        assert_same_run(result, references[0], rng, reference_rngs[0])
        assert evaluator.n_evaluations == references[0].n_evaluations

