"""Simulated annealing and tabu search against frozen reference loops.

The contract under test: a one-chain run of the lockstep driver on the
Metropolis or tabu rule (``MultiChainSearch.annealing`` or
``MultiChainSearch.tabu``) — best solution, per-phase trace, phase and
evaluation counts, ``stopped_by`` and the generator's end state — is
**bit-identical** to the plain loop that measures every candidate with
the dense reference ``Evaluator``, on every engine tier and cache
layout.  The loops below are frozen copies of the searches' phase
logic; they share no engine code with the searches beyond the
movements they sample from (the pattern of
``tests/neighborhood/test_multichain.py``).
"""

from __future__ import annotations

import math

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
from repro.instances.catalog import city_spec
from repro.neighborhood.annealing import AnnealingSchedule
from repro.neighborhood.moves import MoveBatch
from repro.neighborhood.multichain import MultiChainSearch
from repro.neighborhood.registry import available_movements, make_movement
from repro.neighborhood.trace import SearchResult, SearchTrace
from repro.solvers.adapters import AnnealingSolver, TabuSolver
from repro.solvers.base import solver_streams

from tests.conftest import propose_row, ref_apply_row

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


def touched_routers(move) -> tuple[int, ...]:
    """The routers a move row modifies: tabu search's attribute."""
    kind, router, partner = move[:3]
    if kind == MoveBatch.SWAP:
        return (router, partner)
    if kind == MoveBatch.RELOCATE:
        return (router,)
    return ()


def annealing_reference(
    problem, movement, initial, rng, schedule, max_phases, moves_per_phase,
    deadline=None,
):
    """Frozen copy of the annealing loop on the dense reference evaluator."""
    evaluator = Evaluator(problem, engine="dense")
    current = evaluator.evaluate(initial)
    best = current
    trace = SearchTrace()
    trace.record_phase(phase=0, evaluation=current, improved=False, n_evaluations=1)
    phases_done = 0
    stopped_by = None
    for phase in range(1, max_phases + 1):
        if deadline is not None:
            stopped_by = deadline.stop_reason()
            if stopped_by is not None:
                break
        phases_done = phase
        temperature = schedule.temperature_at(phase)
        improved = False
        for _ in range(moves_per_phase):
            placement = ref_apply_row(
                propose_row(movement, current, problem, rng), current.placement
            )
            if placement is None:
                continue
            candidate = evaluator.evaluate(placement)
            delta = candidate.fitness - current.fitness
            if delta >= 0 or rng.uniform() < math.exp(delta / temperature):
                current = candidate
                if current.fitness > best.fitness:
                    best = current
                    improved = True
        trace.record_phase(
            phase=phase,
            evaluation=current,
            improved=improved,
            n_evaluations=evaluator.n_evaluations,
        )
    return SearchResult(
        best=best,
        trace=trace,
        n_phases=phases_done,
        n_evaluations=evaluator.n_evaluations,
        stopped_by=stopped_by,
    )


def tabu_reference(
    problem, movement, initial, rng, tenure, n_candidates, max_phases,
    deadline=None,
):
    """Frozen copy of the tabu loop on the dense reference evaluator."""
    evaluator = Evaluator(problem, engine="dense")
    current = evaluator.evaluate(initial)
    best = current
    trace = SearchTrace()
    trace.record_phase(phase=0, evaluation=current, improved=False, n_evaluations=1)
    tabu_until: dict[int, int] = {}
    phases_done = 0
    stopped_by = None
    for phase in range(1, max_phases + 1):
        if deadline is not None:
            stopped_by = deadline.stop_reason()
            if stopped_by is not None:
                break
        phases_done = phase
        chosen = chosen_move = None
        for _ in range(n_candidates):
            move = propose_row(movement, current, problem, rng)
            placement = ref_apply_row(move, current.placement)
            if placement is None:
                continue
            candidate = evaluator.evaluate(placement)
            is_tabu = any(
                tabu_until.get(router, 0) > phase
                for router in touched_routers(move)
            )
            if is_tabu and candidate.fitness <= best.fitness:
                continue
            if chosen is None or candidate.fitness > chosen.fitness:
                chosen, chosen_move = candidate, move
        improved = False
        if chosen is not None:
            current = chosen
            if current.fitness > best.fitness:
                best = current
                improved = True
            if tenure > 0:
                for router in touched_routers(chosen_move):
                    tabu_until[router] = phase + tenure
        trace.record_phase(
            phase=phase,
            evaluation=current,
            improved=improved,
            n_evaluations=evaluator.n_evaluations,
        )
    return SearchResult(
        best=best,
        trace=trace,
        n_phases=phases_done,
        n_evaluations=evaluator.n_evaluations,
        stopped_by=stopped_by,
    )


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


@st.composite
def search_cases(draw):
    """A generated instance plus one search configuration."""
    if draw(st.booleans()):
        width, height = 1, draw(st.integers(1, 10))  # 1xK strips
        if draw(st.booleans()):
            width, height = height, width
    else:
        width, height = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    cap = min(width * height, 12)
    # Full grids (no free cell) and N=1 fleets are drawn explicitly.
    n_routers = draw(st.one_of(st.just(cap), st.just(1), st.integers(1, cap)))
    router_cells = draw(
        st.lists(cell, min_size=n_routers, max_size=n_routers, unique=True)
    )
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
        seed=draw(st.integers(0, 2**32 - 1)),
        max_phases=draw(st.integers(1, 10)),
        per_phase=draw(st.integers(1, 6)),
        tenure=draw(st.integers(0, 4)),
        temperature=draw(st.sampled_from([1e-3, 0.05, 1.0])),
        cooling_rate=draw(st.sampled_from([0.5, 0.95, 1.0])),
        # Deadline fires at its k-th poll (0: already expired).
        deadline_polls=draw(st.one_of(st.none(), st.integers(0, 4))),
    )
    return problem, Placement.from_cells(grid, router_cells), config


def run_annealing(problem, initial, config, tier):
    """``(result, rng)`` and the reference ``(result, rng)``."""
    schedule = AnnealingSchedule(
        initial_temperature=config["temperature"],
        cooling_rate=config["cooling_rate"],
    )
    reference_rng = np.random.default_rng(config["seed"])
    reference = annealing_reference(
        problem, make_movement(config["movement"]), initial, reference_rng,
        schedule, config["max_phases"], config["per_phase"],
        deadline=stepping_deadline(config["deadline_polls"]),
    )
    rng = np.random.default_rng(config["seed"])
    (result,) = MultiChainSearch.annealing(
        make_movement(config["movement"]),
        schedule=schedule,
        max_phases=config["max_phases"],
        moves_per_phase=config["per_phase"],
        engine=tier,
    ).run(
        problem, [initial], [rng],
        deadline=stepping_deadline(config["deadline_polls"]),
    )
    return (result, rng), (reference, reference_rng)


def run_tabu(problem, initial, config, tier):
    """``(result, rng)`` and the reference ``(result, rng)``."""
    reference_rng = np.random.default_rng(config["seed"])
    reference = tabu_reference(
        problem, make_movement(config["movement"]), initial, reference_rng,
        config["tenure"], config["per_phase"], config["max_phases"],
        deadline=stepping_deadline(config["deadline_polls"]),
    )
    rng = np.random.default_rng(config["seed"])
    (result,) = MultiChainSearch.tabu(
        make_movement(config["movement"]),
        tenure=config["tenure"],
        n_candidates=config["per_phase"],
        max_phases=config["max_phases"],
        engine=tier,
    ).run(
        problem, [initial], [rng],
        deadline=stepping_deadline(config["deadline_polls"]),
    )
    return (result, rng), (reference, reference_rng)


SEARCHES = [
    pytest.param(run_annealing, id="annealing"),
    pytest.param(run_tabu, id="tabu"),
]


@pytest.mark.parametrize("search", SEARCHES)
@pytest.mark.parametrize("tier", TIERS)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=search_cases())
def test_search_matches_frozen_reference_loop(search, tier, case):
    problem, initial, config = case
    (result, rng), (reference, reference_rng) = search(
        problem, initial, config, tier
    )
    assert_same_run(result, reference, rng, reference_rng)


@pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)
@pytest.mark.parametrize("search", SEARCHES)
@pytest.mark.parametrize("movement", ["swap", "random"])
def test_compiled_sparse_layout_matches_reference(search, movement):
    # Beyond the dense cell budget, so the compiled tier caches the
    # sparse layout; small enough for the dense reference loop.
    problem = city_spec(1024, 3_200, seed=9).generate()
    rng = np.random.default_rng(4)
    initial = Placement.random(problem.grid, problem.n_routers, rng)
    config = dict(
        movement=movement, seed=6, max_phases=2, per_phase=4, tenure=2,
        temperature=0.05, cooling_rate=0.95, deadline_polls=None,
    )
    (result, rng), (reference, reference_rng) = search(
        problem, initial, config, "compiled"
    )
    assert_same_run(result, reference, rng, reference_rng)


def assert_same_outcome(result, reference):
    """A solver's per-seed result equals a frozen reference run."""
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


@pytest.mark.parametrize("family", ["annealing", "tabu"])
@pytest.mark.parametrize("tier", TIERS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=search_cases(),
    movement=st.sampled_from(available_movements()),
    n_seeds=st.integers(2, 3),
    third_warm=st.booleans(),
)
def test_solve_batch_matches_frozen_reference_per_seed(
    family, tier, case, movement, n_seeds, third_warm
):
    # R lockstep chains, warm and cold, each equal to the one-chain loop
    # of its seed: the run stream of the solver split, started from the
    # warm placement or from the cold draw of the init stream.  (A shared
    # deadline is pinned by tests/solvers/test_deadline.py.)
    problem, initial, config = case
    seeds = [config["seed"] + offset for offset in range(n_seeds)]
    warm_starts = [initial, None, initial if third_warm else None][:n_seeds]
    schedule = AnnealingSchedule(
        initial_temperature=config["temperature"],
        cooling_rate=config["cooling_rate"],
    )
    if family == "annealing":
        solver = AnnealingSolver(
            movement,
            schedule=schedule,
            max_phases=config["max_phases"],
            moves_per_phase=config["per_phase"],
        )
    else:
        solver = TabuSolver(
            movement,
            tenure=config["tenure"],
            n_candidates=config["per_phase"],
            max_phases=config["max_phases"],
        )
    results = solver.solve_batch(
        problem,
        seeds,
        warm_starts=warm_starts,
        engine=tier,
    )
    assert len(results) == n_seeds
    for seed, warm_start, result in zip(seeds, warm_starts, results):
        start = warm_start
        if start is None:
            start = solver.initial_placement(problem, seed)
        _, rng = solver_streams(seed)
        if family == "annealing":
            reference = annealing_reference(
                problem, make_movement(movement), start, rng, schedule,
                config["max_phases"], config["per_phase"],
            )
        else:
            reference = tabu_reference(
                problem, make_movement(movement), start, rng,
                config["tenure"], config["per_phase"], config["max_phases"],
            )
        assert_same_outcome(result, reference)
        assert result.warm_started == (warm_start is not None)
