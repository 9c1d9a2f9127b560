"""ScenarioRunner: warm-start carry, controlled baselines, accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenario import Scenario, ScenarioRunner
from repro.solvers import make_solver


class TestRun:
    def test_warm_and_cold_see_same_instances(self, tiny_problem):
        scenario = Scenario.client_drift(tiny_problem, 3)
        warm = ScenarioRunner("search:swap", budget=3, n_candidates=4).run(
            scenario, seed=5
        )
        cold = ScenarioRunner(
            "search:swap", budget=3, warm=False, n_candidates=4
        ).run(scenario, seed=5)
        for a, b in zip(warm.steps, cold.steps):
            assert np.array_equal(
                a.step.problem.clients.positions,
                b.step.problem.clients.positions,
            )
        assert warm.warm and not cold.warm

    def test_step_zero_cold_then_warm(self, tiny_problem):
        scenario = Scenario.client_drift(tiny_problem, 2)
        outcome = ScenarioRunner("tabu:swap", budget=3, n_candidates=4).run(
            scenario, seed=5
        )
        flags = [step.result.warm_started for step in outcome.steps]
        assert flags == [False, True, True]

    def test_reproducible(self, tiny_problem):
        scenario = Scenario.client_churn(tiny_problem, 3, fraction=0.2)
        runner = ScenarioRunner("search:swap", budget=3, n_candidates=4)
        a = runner.run(scenario, seed=8)
        b = runner.run(scenario, seed=8)
        assert [s.result.best.fitness for s in a.steps] == [
            s.result.best.fitness for s in b.steps
        ]
        assert a.total_evaluations == b.total_evaluations

    def test_outage_scenario_shrinks_fleet_with_warm_start(self, tiny_problem):
        scenario = Scenario.router_outages(tiny_problem, 3, count=2)
        outcome = ScenarioRunner("tabu:swap", budget=3, n_candidates=4).run(
            scenario, seed=2
        )
        placements = [len(s.result.best.placement) for s in outcome.steps]
        assert placements == [16, 14, 12, 10]
        assert all(s.result.warm_started for s in outcome.steps[1:])

    def test_solver_without_warm_support_runs_cold(self, tiny_problem):
        scenario = Scenario.client_drift(tiny_problem, 2)
        outcome = ScenarioRunner("adhoc:hotspot").run(scenario, seed=1)
        assert not outcome.warm
        assert all(not s.result.warm_started for s in outcome.steps)
        assert outcome.total_evaluations == 3  # one per step

    def test_solver_instance_accepted(self, tiny_problem):
        solver = make_solver("search:swap", n_candidates=4)
        outcome = ScenarioRunner(solver, budget=2).run(
            Scenario.client_drift(tiny_problem, 1), seed=0
        )
        assert outcome.solver_name == "search:swap"

    def test_solver_kwargs_require_spec(self):
        with pytest.raises(ValueError, match="registry spec"):
            ScenarioRunner(make_solver("search:swap"), n_candidates=4)

    def test_warm_budget_overrides_reopt_steps(self, tiny_problem):
        scenario = Scenario.client_drift(tiny_problem, 2)
        outcome = ScenarioRunner(
            "tabu:swap", budget=6, warm_budget=2, n_candidates=4
        ).run(scenario, seed=3)
        assert outcome.steps[0].result.n_phases == 6
        assert outcome.steps[1].result.n_phases == 2


class TestSeedProvenance:
    """The root entropy is recorded for int and SeedSequence seeds alike."""

    def test_int_seed_recorded(self, tiny_problem):
        outcome = ScenarioRunner("search:swap", budget=2, n_candidates=4).run(
            Scenario.client_drift(tiny_problem, 1), seed=37
        )
        assert outcome.seed == 37

    def test_seed_sequence_entropy_recorded(self, tiny_problem):
        outcome = ScenarioRunner("search:swap", budget=2, n_candidates=4).run(
            Scenario.client_drift(tiny_problem, 1),
            seed=np.random.SeedSequence(37),
        )
        assert outcome.seed == 37

    def test_spawned_child_reports_root_entropy(self, tiny_problem):
        child = np.random.SeedSequence(37).spawn(3)[2]
        outcome = ScenarioRunner("search:swap", budget=2, n_candidates=4).run(
            Scenario.client_drift(tiny_problem, 1), seed=child
        )
        assert outcome.seed == 37

    def test_threaded_into_timeline_and_summary(self, tiny_problem):
        outcome = ScenarioRunner("search:swap", budget=2, n_candidates=4).run(
            Scenario.client_drift(tiny_problem, 1), seed=37
        )
        assert all(row["seed"] == 37 for row in outcome.timeline())
        assert "seed=37" in outcome.summary()


class TestValidation:
    def test_warm_budget_with_cold_runs_rejected(self):
        with pytest.raises(ValueError, match="warm_budget"):
            ScenarioRunner("search:swap", warm_budget=4, warm=False)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be a positive"):
            ScenarioRunner("search:swap", budget=budget)

    @pytest.mark.parametrize("warm_budget", [0, -1])
    def test_non_positive_warm_budget_rejected(self, warm_budget):
        with pytest.raises(ValueError, match="warm_budget must be a positive"):
            ScenarioRunner("search:swap", budget=4, warm_budget=warm_budget)


class TestRunSteps:
    def test_run_steps_matches_run(self, tiny_problem):
        scenario = Scenario.client_drift(tiny_problem, 2)
        runner = ScenarioRunner("search:swap", budget=3, n_candidates=4)
        whole = runner.run(scenario, seed=11)
        root = np.random.SeedSequence(11)
        unfold_seq, solve_seq = root.spawn(2)
        split = runner.run_steps(
            scenario.unfold(unfold_seq),
            seed=solve_seq,
            scenario_name=scenario.name,
        )
        assert [s.result.best.fitness for s in whole.steps] == [
            s.result.best.fitness for s in split.steps
        ]
        assert [s.result.best.placement.cells for s in whole.steps] == [
            s.result.best.placement.cells for s in split.steps
        ]
        assert whole.seed == split.seed == 11
        assert split.scenario_name == scenario.name

    def test_empty_steps_rejected_before_the_checkpoint_opens(self, tmp_path):
        directory = tmp_path / "ckpt"
        with pytest.raises(ValueError, match="at least one step"):
            ScenarioRunner("search:swap").run_steps([], checkpoint=str(directory))
        assert not directory.exists()

    def test_replicates_each_match_their_own_walk(self, tiny_problem):
        scenario = Scenario.router_outages(tiny_problem, 2)
        runner = ScenarioRunner("search:swap", budget=3, n_candidates=4)
        steps, _ = runner.unfold(scenario, 5)
        seeds = np.random.SeedSequence(8).spawn(3)
        batch = runner.run_replicates(steps, seeds)
        for seed, walked in zip(seeds, batch):
            alone = runner.run_steps(steps, seed=seed)
            assert [s.result.best.placement.cells for s in walked.steps] == [
                s.result.best.placement.cells for s in alone.steps
            ]
            assert walked.seed == alone.seed

    def test_step_checkpoints_need_one_replicate(self, tiny_problem, tmp_path):
        steps, _ = ScenarioRunner.unfold(
            Scenario.client_drift(tiny_problem, 1), 0
        )
        with pytest.raises(ValueError, match="exactly one replicate"):
            ScenarioRunner("search:swap").run_replicates(
                steps, [1, 2], checkpoint=str(tmp_path / "ckpt")
            )
        assert not (tmp_path / "ckpt").exists()


class TestResult:
    def test_accounting(self, tiny_problem):
        scenario = Scenario.client_drift(tiny_problem, 2)
        outcome = ScenarioRunner("search:swap", budget=3, n_candidates=4).run(
            scenario, seed=5
        )
        assert outcome.n_steps == 3
        assert outcome.total_evaluations == sum(
            s.result.n_evaluations for s in outcome.steps
        )
        assert outcome.reopt_evaluations() == sum(
            s.result.n_evaluations for s in outcome.steps[1:]
        )
        assert outcome.final is outcome.steps[-1].result
        assert 0.0 <= outcome.mean_fitness() <= 1.0
        assert "3 steps" in outcome.summary()

    def test_timeline_records(self, tiny_problem):
        scenario = Scenario.radio_degradation(tiny_problem, 2, factor=0.8)
        outcome = ScenarioRunner("search:swap", budget=2, n_candidates=4).run(
            scenario, seed=5
        )
        rows = outcome.timeline()
        assert len(rows) == 3
        assert rows[0]["event"] == "initial deployment"
        assert all(
            {"step", "event", "fitness", "evaluations", "warm"} <= set(row)
            for row in rows
        )
