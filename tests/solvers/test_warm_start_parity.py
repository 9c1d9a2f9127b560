"""Warm-start parity: warm on an unchanged problem == the cold run.

The solver contract splits every seed into an *init* stream and a *run*
stream (``solver_streams``).  A cold solve draws its initial placement
from the init stream; a warm solve skips that draw.  Therefore passing
the exact placement the cold run would have drawn
(:meth:`_InitializedSolver.initial_placement`) as ``warm_start`` must
reproduce the cold run **bit-for-bit** — same best fitness, same best
placement, same evaluation count, same trace — for every search family.

This is the contract that makes the dynamic-scenario speedup trustworthy:
a warm start changes *where the search begins*, never *how it searches*.
"""

from __future__ import annotations

import pytest

from repro.solvers import make_solver

from tests.conftest import RUN_TIERS, run_tier

#: The three warm-startable search families of the satellite requirement
#: (best-neighbor search, simulated annealing, tabu search), across
#: movements, plus the GA through its warm-injection initializer.
PARITY_SPECS = (
    "search:swap",
    "search:random",
    "search:combined",
    "annealing:swap",
    "annealing:random",
    "tabu:swap",
    "tabu:random",
)


def _small(spec: str, **extra):
    """The spec's solver with a small per-phase effort knob."""
    knob = (
        {"moves_per_phase": 6}
        if spec.startswith("annealing")
        else {"n_candidates": 6}
    )
    return make_solver(spec, **knob, **extra)


@pytest.mark.parametrize("spec", PARITY_SPECS)
@pytest.mark.parametrize("seed", [0, 7, 20090629])
def test_warm_equals_cold_on_unchanged_problem(tiny_problem, spec, seed):
    solver = _small(spec)
    cold = solver.solve(tiny_problem, seed=seed, budget=6)
    warm = solver.solve(
        tiny_problem,
        seed=seed,
        budget=6,
        warm_start=solver.initial_placement(tiny_problem, seed),
    )
    assert warm.warm_started and not cold.warm_started
    assert warm.best.fitness == cold.best.fitness
    assert warm.best.placement.cells == cold.best.placement.cells
    assert warm.best.metrics == cold.best.metrics
    assert warm.n_evaluations == cold.n_evaluations
    assert warm.n_phases == cold.n_phases
    if cold.trace is not None:
        assert len(warm.trace) == len(cold.trace)
        assert all(
            a.as_dict() == b.as_dict() for a, b in zip(warm.trace, cold.trace)
        )


@pytest.mark.parametrize("tier", RUN_TIERS)
@pytest.mark.parametrize("spec", ["search:swap", "annealing:swap", "tabu:swap"])
def test_parity_on_each_tier(tiny_problem, spec, tier):
    solver = _small(spec)
    with run_tier(tier):
        cold = solver.solve(tiny_problem, seed=5, budget=4)
        warm = solver.solve(
            tiny_problem,
            seed=5,
            budget=4,
            warm_start=solver.initial_placement(tiny_problem, 5),
        )
    assert warm.best.fitness == cold.best.fitness
    assert warm.best.placement.cells == cold.best.placement.cells
    assert warm.n_evaluations == cold.n_evaluations


def test_ga_warm_run_reproducible_and_stream_aligned(tiny_problem):
    """GA warm runs share every draw with cold; only chromosome 0 differs.

    Exact equality is not expected (the warm individual changes
    selection pressure), but the run must stay deterministic and the
    evaluation count identical — the streams may not shift.
    """
    solver = make_solver("ga:random", population_size=6)
    cold = solver.solve(tiny_problem, seed=13, budget=3)
    warm_placement = cold.best.placement
    warm_a = solver.solve(
        tiny_problem, seed=13, budget=3, warm_start=warm_placement
    )
    warm_b = solver.solve(
        tiny_problem, seed=13, budget=3, warm_start=warm_placement
    )
    assert warm_a.best.fitness == warm_b.best.fitness
    assert warm_a.n_evaluations == cold.n_evaluations
