"""Adapter behavior under the uniform solve contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grid import GridArea
from repro.core.solution import Placement
from repro.solvers import make_solver

from tests.conftest import needs_compiled, run_tier

ALL_FAMILY_SPECS = (
    "adhoc:hotspot",
    "search:swap",
    "annealing:swap",
    "tabu:swap",
    "multistart:swap",
    "ga:hotspot",
)


class TestSolveContract:
    @pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
    def test_solve_returns_uniform_result(self, tiny_problem, spec):
        kwargs = {"population_size": 6} if spec.startswith("ga") else {}
        if spec.startswith("multistart"):
            kwargs["n_restarts"] = 3
        result = make_solver(spec, **kwargs).solve(
            tiny_problem, seed=5, budget=3
        )
        assert result.solver == spec
        assert result.n_evaluations > 0
        assert result.best.placement is not None
        assert 0.0 <= result.best.fitness <= 1.0
        assert not result.warm_started
        assert spec.split(":")[0] in result.summary()

    @pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
    def test_same_seed_same_result(self, tiny_problem, spec):
        kwargs = {"population_size": 6} if spec.startswith("ga") else {}
        if spec.startswith("multistart"):
            kwargs["n_restarts"] = 3
        solver = make_solver(spec, **kwargs)
        first = solver.solve(tiny_problem, seed=9, budget=3)
        second = solver.solve(tiny_problem, seed=9, budget=3)
        assert first.best.fitness == second.best.fitness
        assert first.best.placement.cells == second.best.placement.cells
        assert first.n_evaluations == second.n_evaluations

    @pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
    def test_invalid_budget_rejected(self, tiny_problem, spec):
        with pytest.raises(ValueError, match="budget"):
            make_solver(spec).solve(tiny_problem, seed=0, budget=0)

    def test_budget_controls_phases(self, tiny_problem):
        result = make_solver("tabu:swap").solve(tiny_problem, seed=1, budget=5)
        assert result.n_phases == 5

    def test_budget_controls_generations(self, tiny_problem):
        result = make_solver("ga:random", population_size=6).solve(
            tiny_problem, seed=1, budget=4
        )
        assert result.n_phases == 4

    @needs_compiled
    @pytest.mark.parametrize("tier", ["dense", "sparse"])
    @pytest.mark.parametrize("spec", ALL_FAMILY_SPECS)
    def test_numpy_tier_matches_compiled(self, tiny_problem, spec, tier):
        kwargs = {"population_size": 6} if spec.startswith("ga") else {}
        solver = make_solver(spec, **kwargs)
        runs = []
        for run in ("compiled", tier):
            with run_tier(run):
                runs.append(solver.solve(tiny_problem, seed=3, budget=3))
        fast, numpy_run = runs
        assert numpy_run.best.fitness == fast.best.fitness
        assert numpy_run.best.placement.cells == fast.best.placement.cells
        assert numpy_run.n_evaluations == fast.n_evaluations


class TestWarmStartValidation:
    def test_wrong_router_count_rejected(self, tiny_problem, rng):
        bad = Placement.random(tiny_problem.grid, tiny_problem.n_routers - 1, rng)
        with pytest.raises(ValueError, match="warm start places"):
            make_solver("search:swap").solve(
                tiny_problem, seed=0, warm_start=bad
            )

    def test_off_grid_cells_rejected(self, tiny_problem, rng):
        huge = GridArea(512, 512)
        bad = Placement.from_cells(
            huge,
            [(500, 500 - i) for i in range(tiny_problem.n_routers)],
        )
        with pytest.raises(ValueError, match="outside"):
            make_solver("tabu:swap").solve(tiny_problem, seed=0, warm_start=bad)

    def test_adhoc_refuses_warm_start(self, tiny_problem, rng):
        solver = make_solver("adhoc:hotspot")
        assert not solver.supports_warm_start
        warm = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        with pytest.raises(ValueError, match="does not accept a warm start"):
            solver.solve(tiny_problem, seed=2, warm_start=warm)
        result = solver.solve(tiny_problem, seed=2)
        assert not result.warm_started
        assert result.n_evaluations == 1

    def test_warm_started_flag_set(self, tiny_problem, rng):
        warm = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        result = make_solver("annealing:swap").solve(
            tiny_problem, seed=2, budget=3, warm_start=warm
        )
        assert result.warm_started
        assert "warm start" in result.summary()


class TestWarmStartSteering:
    """Warm starts actually steer the run, not just a flag."""

    def test_ga_warm_individual_joins_population(self, tiny_problem, rng):
        # A warm GA run must contain the warm chromosome's influence: with
        # zero generations of budget impossible, use 1 generation and
        # check the run differs from cold while staying deterministic.
        solver = make_solver("ga:random", population_size=6)
        warm = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        cold = solver.solve(tiny_problem, seed=4, budget=2)
        warmed = solver.solve(tiny_problem, seed=4, budget=2, warm_start=warm)
        again = solver.solve(tiny_problem, seed=4, budget=2, warm_start=warm)
        assert warmed.warm_started
        assert warmed.best.fitness == again.best.fitness
        # The warm individual can only help (elitism keeps the best).
        assert warmed.best.fitness >= min(cold.best.fitness, warmed.best.fitness)

    def test_multistart_warm_replaces_chain_zero(self, tiny_problem, rng):
        solver = make_solver("multistart:swap", n_restarts=3, n_candidates=4)
        warm = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        result = solver.solve(tiny_problem, seed=4, budget=3, warm_start=warm)
        assert result.warm_started


class TestSolveBatch:
    """solve_batch: the serial loop and the lockstep override agree."""

    BATCH_SPECS = (
        ("search:swap", {"n_candidates": 4}),
        ("search:random", {"n_candidates": 4}),
        ("search:swap", {"n_candidates": 4, "stall_phases": 2}),
        ("tabu:swap", {"n_candidates": 4}),
        ("annealing:swap", {"moves_per_phase": 4}),
        ("adhoc:hotspot", {}),
    )
    #: The local-search families, whose batches run in lockstep.
    LOCKSTEP_SPECS = (
        ("search:swap", {"n_candidates": 4}),
        ("tabu:swap", {"n_candidates": 4}),
        ("annealing:swap", {"moves_per_phase": 4}),
    )

    @pytest.mark.parametrize("spec,kwargs", BATCH_SPECS)
    def test_batch_matches_serial_solves(self, tiny_problem, spec, kwargs):
        solver = make_solver(spec, **kwargs)
        seeds = [3, 4, 5]
        serial = [
            solver.solve(tiny_problem, seed=seed, budget=4) for seed in seeds
        ]
        batch = solver.solve_batch(tiny_problem, seeds, budget=4)
        for a, b in zip(serial, batch):
            assert a.best.fitness == b.best.fitness
            assert a.best.placement.cells == b.best.placement.cells
            assert a.n_evaluations == b.n_evaluations
            assert a.n_phases == b.n_phases
            assert a.warm_started == b.warm_started

    @pytest.mark.parametrize("spec,kwargs", LOCKSTEP_SPECS)
    def test_batch_traces_match_serial(self, tiny_problem, spec, kwargs):
        solver = make_solver(spec, **kwargs)
        seeds = [np.random.SeedSequence(s) for s in (1, 2)]
        serial = [
            solver.solve(
                tiny_problem, seed=np.random.SeedSequence(s), budget=4
            )
            for s in (1, 2)
        ]
        batch = solver.solve_batch(tiny_problem, seeds, budget=4)
        for a, b in zip(serial, batch):
            assert [
                (r.phase, r.fitness, r.improved) for r in a.trace
            ] == [(r.phase, r.fitness, r.improved) for r in b.trace]

    @pytest.mark.parametrize("spec,kwargs", LOCKSTEP_SPECS)
    def test_batch_threads_per_seed_warm_starts(self, tiny_problem, spec, kwargs):
        solver = make_solver(spec, **kwargs)
        warm = solver.initial_placement(tiny_problem, 7)
        warm_starts = [warm, None, warm]
        seeds = [7, 8, 9]
        serial = [
            solver.solve(tiny_problem, seed=seed, budget=4, warm_start=start)
            for seed, start in zip(seeds, warm_starts)
        ]
        batch = solver.solve_batch(
            tiny_problem, seeds, budget=4, warm_starts=warm_starts
        )
        assert [r.warm_started for r in batch] == [True, False, True]
        for a, b in zip(serial, batch):
            assert a.best.fitness == b.best.fitness
            assert a.n_evaluations == b.n_evaluations

    def test_batch_validates_lengths(self, tiny_problem):
        solver = make_solver("search:swap", n_candidates=4)
        with pytest.raises(ValueError, match="at least one seed"):
            solver.solve_batch(tiny_problem, [])
        with pytest.raises(ValueError, match="warm starts"):
            solver.solve_batch(tiny_problem, [1, 2], warm_starts=[None])
