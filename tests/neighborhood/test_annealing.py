"""Unit tests for simulated annealing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine.stacked import StackedDeltaEngine
from repro.core.evaluation import Evaluator
from repro.core.solution import Placement
from repro.neighborhood.annealing import AnnealingSchedule
from repro.neighborhood.movements import RandomMovement, SwapMovement
from repro.neighborhood.multichain import MultiChainSearch

from tests.conftest import run_one_chain


class TestAnnealingSchedule:
    def test_geometric_cooling(self):
        schedule = AnnealingSchedule(
            initial_temperature=1.0, cooling_rate=0.5, floor_temperature=1e-9
        )
        assert schedule.temperature_at(1) == 1.0
        assert schedule.temperature_at(2) == 0.5
        assert schedule.temperature_at(3) == 0.25

    def test_floor_applies(self):
        schedule = AnnealingSchedule(
            initial_temperature=1.0, cooling_rate=0.1, floor_temperature=0.05
        )
        assert schedule.temperature_at(10) == 0.05

    def test_constant_schedule(self):
        schedule = AnnealingSchedule(initial_temperature=0.2, cooling_rate=1.0)
        assert schedule.temperature_at(50) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(initial_temperature=0.0)
        with pytest.raises(ValueError):
            AnnealingSchedule(cooling_rate=0.0)
        with pytest.raises(ValueError):
            AnnealingSchedule(cooling_rate=1.5)
        with pytest.raises(ValueError):
            AnnealingSchedule(floor_temperature=0.0)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule().temperature_at(0)


class TestAnnealing:
    def test_runs_and_traces(self, tiny_problem, rng):
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        sa = MultiChainSearch.annealing(
            RandomMovement(), max_phases=8, moves_per_phase=4
        )
        result = run_one_chain(sa, tiny_problem, initial, rng)
        assert result.n_phases == 8
        assert len(result.trace) == 9

    def test_best_never_below_initial(self, tiny_problem, rng):
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        start_fitness = Evaluator(tiny_problem).evaluate(initial).fitness
        sa = MultiChainSearch.annealing(
            RandomMovement(), max_phases=10, moves_per_phase=4
        )
        result = run_one_chain(sa, tiny_problem, initial, rng)
        assert result.best.fitness >= start_fitness

    def test_best_tracks_max_of_trace(self, tiny_problem, rng):
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        sa = MultiChainSearch.annealing(
            RandomMovement(), max_phases=10, moves_per_phase=4
        )
        result = run_one_chain(sa, tiny_problem, initial, rng)
        # The incumbent can move downhill, but best dominates the trace.
        assert result.best.fitness >= max(result.trace.fitness_values) - 1e-12

    def test_hot_chain_accepts_worse_moves(self, tiny_problem):
        rng = np.random.default_rng(0)
        initial = Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
        hot = MultiChainSearch.annealing(
            RandomMovement(),
            schedule=AnnealingSchedule(initial_temperature=10.0, cooling_rate=1.0),
            max_phases=10,
            moves_per_phase=4,
        )
        result = run_one_chain(hot, tiny_problem, initial, rng)
        fitness = result.trace.fitness_values
        # At such temperatures essentially every move is accepted, so the
        # incumbent fitness must fluctuate downward at least once.
        assert any(b < a for a, b in zip(fitness, fitness[1:]))

    def test_deterministic_with_seed(self, tiny_problem):
        initial = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, np.random.default_rng(5)
        )
        runs = []
        for _ in range(2):
            sa = MultiChainSearch.annealing(
                RandomMovement(), max_phases=6, moves_per_phase=4
            )
            result = run_one_chain(
                sa, tiny_problem, initial, np.random.default_rng(17)
            )
            runs.append(result.best.fitness)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "knob, value",
        [("max_phases", 0), ("moves_per_phase", 0), ("moves_per_phase", -3)],
    )
    def test_parameter_validation(self, knob, value):
        # The error names the caller's knob, not the driver's own.
        with pytest.raises(ValueError, match=rf"^{knob} must be positive"):
            MultiChainSearch.annealing(RandomMovement(), **{knob: value})


class TestLockstepSubSteps:
    """Every move of a Metropolis phase is one lockstep sub-step: one
    ``propose_batch`` and one ``measure_phase`` across all the chains,
    whatever their number, never a call per chain."""

    @pytest.mark.parametrize("n_chains", (1, 3, 7))
    @pytest.mark.parametrize("engine", ("dense", "sparse"))
    @pytest.mark.parametrize("movement", (RandomMovement, SwapMovement))
    def test_one_proposal_and_one_measurement_call_per_move(
        self, tiny_problem, monkeypatch, n_chains, engine, movement
    ):
        calls = {"propose_batch": 0, "measure_phase": 0}

        def counting(owner, name):
            method = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counting(movement, "propose_batch")
        counting(StackedDeltaEngine, "measure_phase")
        rng = np.random.default_rng(n_chains)
        starts = [
            Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
            for _ in range(n_chains)
        ]
        search = MultiChainSearch.annealing(
            movement(), max_phases=5, moves_per_phase=3, engine=engine
        )
        results = search.run(
            tiny_problem,
            starts,
            [np.random.default_rng([n_chains, chain]) for chain in range(n_chains)],
        )
        assert [result.n_phases for result in results] == [5] * n_chains
        assert calls == {"propose_batch": 5 * 3, "measure_phase": 5 * 3}
