"""ScenarioFleet: determinism, serial parity, sharding, aggregation.

The contract under test: every (scenario, solver, replicate) triple of
the grid is **bit-identical** to a serial
:meth:`~repro.scenario.runner.ScenarioRunner.run_steps` loop over the
same :func:`~repro.scenario.fleet.fleet_seed_grid` sequences — at any
``workers=`` count, for both arms, and across shard-boundary edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.instances.catalog import tiny_spec
from repro.scenario import (
    Scenario,
    ScenarioFleet,
    ScenarioRunner,
    fleet_seed_grid,
)
from repro.solvers import make_solver


@pytest.fixture(scope="module")
def problem():
    return tiny_spec(seed=7).generate()


@pytest.fixture(scope="module")
def scenarios(problem):
    return [
        Scenario.client_drift(problem, 2),
        Scenario.router_outages(problem, 2, count=1),
    ]


SOLVERS = [
    ("search:swap", {"n_candidates": 4}),
    ("tabu:swap", {"n_candidates": 4}),
]


def triple_signature(result):
    """Everything a triple's identity should pin, except wall-clock."""
    return [
        (
            step.result.best.fitness,
            step.result.best.placement.cells,
            step.result.n_evaluations,
            step.result.n_phases,
            step.result.warm_started,
        )
        for step in result.steps
    ]


def run_fleet(scenarios, n_seeds=3, workers=None, warm="both", seed=9):
    fleet = ScenarioFleet(
        scenarios,
        SOLVERS,
        n_seeds=n_seeds,
        budget=3,
        warm=warm,
        workers=workers,
    )
    return fleet.run(seed=seed)


class TestSerialParity:
    def test_every_triple_matches_the_serial_loop(self, scenarios):
        """The fleet == per-triple ScenarioRunner.run_steps on the grid seeds."""
        n_seeds = 3
        report = run_fleet(scenarios, n_seeds=n_seeds)
        grid = fleet_seed_grid(9, len(scenarios) * len(SOLVERS), n_seeds)
        cell = 0
        checked = 0
        for scenario in scenarios:
            for spec, kwargs in SOLVERS:
                unfold_seq, rep_seqs = grid[cell]
                cell += 1
                steps = scenario.unfold(unfold_seq)
                for warm in (True, False):
                    runner = ScenarioRunner(
                        spec, budget=3, warm=warm, **kwargs
                    )
                    for replicate, seq in enumerate(rep_seqs):
                        serial = runner.run_steps(
                            steps, seed=seq, scenario_name=scenario.name
                        )
                        (run,) = [
                            r
                            for r in report.select(
                                scenario.name, spec, warm
                            )
                            if r.replicate == replicate
                        ]
                        assert triple_signature(serial) == triple_signature(
                            run.result
                        )
                        assert serial.seed == run.result.seed == 9
                        checked += 1
        assert checked == report.n_seeds * 2 * len(scenarios) * len(SOLVERS)


class TestWorkersDeterminism:
    def test_workers_1_vs_4_bit_identical(self, scenarios):
        serial = run_fleet(scenarios, n_seeds=4, workers=1)
        sharded = run_fleet(scenarios, n_seeds=4, workers=4)
        assert len(serial.runs) == len(sharded.runs)
        for a, b in zip(serial.runs, sharded.runs):
            assert (a.scenario, a.solver, a.warm, a.replicate) == (
                b.scenario,
                b.solver,
                b.warm,
                b.replicate,
            )
            assert triple_signature(a.result) == triple_signature(b.result)

    def test_more_workers_than_seeds(self, scenarios):
        """Shard-boundary edge case: n_seeds < workers."""
        serial = run_fleet(scenarios[:1], n_seeds=2, workers=None, warm=True)
        sharded = run_fleet(scenarios[:1], n_seeds=2, workers=5, warm=True)
        for a, b in zip(serial.runs, sharded.runs):
            assert triple_signature(a.result) == triple_signature(b.result)

    def test_single_triple_grid(self, problem):
        """Shard-boundary edge case: a 1x1x1 grid."""
        fleet_kwargs = dict(n_seeds=1, budget=3, warm=True)
        single = [Scenario.client_drift(problem, 2)]
        solver = [("search:swap", {"n_candidates": 4})]
        a = ScenarioFleet(single, solver, **fleet_kwargs).run(seed=4)
        b = ScenarioFleet(single, solver, workers=3, **fleet_kwargs).run(
            seed=4
        )
        assert len(a.runs) == len(b.runs) == 1
        assert triple_signature(a.runs[0].result) == triple_signature(
            b.runs[0].result
        )

    def test_rerun_is_deterministic(self, scenarios):
        first = run_fleet(scenarios, n_seeds=2)
        second = run_fleet(scenarios, n_seeds=2)
        for a, b in zip(first.runs, second.runs):
            assert triple_signature(a.result) == triple_signature(b.result)


class TestControlledComparison:
    def test_warm_and_cold_share_instance_sequences(self, scenarios):
        """Per root seed, both arms re-optimize identical instances."""
        report = run_fleet(scenarios, n_seeds=2)
        for scenario in report.scenarios:
            for solver in report.solvers:
                warm_runs = report.select(scenario, solver, warm=True)
                cold_runs = report.select(scenario, solver, warm=False)
                for w, c in zip(warm_runs, cold_runs):
                    assert w.replicate == c.replicate
                    for sw, sc in zip(w.result.steps, c.result.steps):
                        assert np.array_equal(
                            sw.step.problem.clients.positions,
                            sc.step.problem.clients.positions,
                        )
                        assert np.array_equal(
                            sw.step.problem.fleet.radii,
                            sc.step.problem.fleet.radii,
                        )

    def test_replicates_share_the_unfold_within_a_cell(self, scenarios):
        """All seeds of a cell see the same instance sequence."""
        report = run_fleet(scenarios, n_seeds=3, warm=True)
        for scenario in report.scenarios:
            runs = report.select(scenario, "search:swap", warm=True)
            reference = runs[0]
            for other in runs[1:]:
                for a, b in zip(
                    reference.result.steps, other.result.steps
                ):
                    assert np.array_equal(
                        a.step.problem.clients.positions,
                        b.step.problem.clients.positions,
                    )

    def test_arms_differ_only_in_warm_starts(self, scenarios):
        report = run_fleet(scenarios, n_seeds=2)
        for run in report.runs:
            flags = [
                step.result.warm_started for step in run.result.steps
            ]
            if run.warm:
                assert flags == [False] + [True] * (len(flags) - 1)
            else:
                assert not any(flags)


class TestFleetInputs:
    def test_solver_instances_accepted(self, problem):
        solver = make_solver("search:swap", n_candidates=4)
        report = ScenarioFleet(
            [Scenario.client_drift(problem, 1)], [solver], n_seeds=2, budget=2
        ).run(seed=1)
        assert report.solvers == ["search:swap"]

    def test_scenario_mapping_labels(self, problem):
        report = ScenarioFleet(
            {"quiet": Scenario.client_drift(problem, 1)},
            [("search:swap", {"n_candidates": 4})],
            n_seeds=1,
            budget=2,
        ).run(seed=1)
        assert report.scenarios == ["quiet"]

    def test_solver_mapping_labels_allow_duplicate_specs(self, problem):
        report = ScenarioFleet(
            [Scenario.client_drift(problem, 1)],
            {
                "narrow": ("search:swap", {"n_candidates": 2}),
                "wide": ("search:swap", {"n_candidates": 8}),
            },
            n_seeds=1,
            budget=2,
        ).run(seed=1)
        assert report.solvers == ["narrow", "wide"]

    def test_duplicate_labels_rejected(self, problem):
        with pytest.raises(ValueError, match="duplicate solver label"):
            ScenarioFleet(
                [Scenario.client_drift(problem, 1)],
                ["search:swap", "search:swap"],
            )

    def test_validation_mirrors_runner(self, problem):
        single = [Scenario.client_drift(problem, 1)]
        with pytest.raises(ValueError, match="n_seeds"):
            ScenarioFleet(single, ["search:swap"], n_seeds=0)
        with pytest.raises(ValueError, match="workers"):
            ScenarioFleet(single, ["search:swap"], workers=0)
        with pytest.raises(ValueError, match="budget must be a positive"):
            ScenarioFleet(single, ["search:swap"], budget=-1)
        with pytest.raises(ValueError, match="warm_budget"):
            ScenarioFleet(
                single, ["search:swap"], budget=2, warm_budget=2, warm=False
            )
        with pytest.raises(ValueError, match="warm must be"):
            ScenarioFleet(single, ["search:swap"], warm="lukewarm")


class TestReport:
    @pytest.fixture(scope="class")
    def report(self, scenarios):
        return run_fleet(scenarios, n_seeds=3)

    def test_axes(self, report, scenarios):
        assert report.scenarios == [s.name for s in scenarios]
        assert report.solvers == ["search:swap", "tabu:swap"]
        assert report.arms == ["warm", "cold"]

    def test_fitness_table_covers_every_cell_and_arm(self, report):
        table = report.fitness_table()
        assert len(table) == 2 * 2 * 2
        for metrics in table.values():
            assert metrics["fitness"].n_seeds == 3
            assert 0.0 <= metrics["fitness"].mean <= 1.0
            assert metrics["evaluations"].mean > 0

    def test_regret_pairs_replicates(self, report):
        regret = report.regret()
        assert len(regret) == 4
        for metric in regret.values():
            assert metric.n_seeds == 3

    def test_recovery_curves_mean_over_replicates(self, report, scenarios):
        curves = report.recovery_curves(scenarios[0].name)
        assert len(curves) == 4  # 2 solvers x 2 arms
        for points in curves.values():
            assert [x for x, _ in points] == list(
                range(scenarios[0].n_steps)
            )

    def test_recovery_auc_via_analysis(self, report):
        auc = report.recovery_auc()
        assert len(auc) == 8
        assert all(value > 0 for value in auc.values())

    def test_event_impact_kinds(self, report):
        impact = report.event_impact()
        assert set(impact) == {"drift", "outage"}
        for values in impact.values():
            assert values["n_events"] > 0
            assert isinstance(values["impact"], float)

    def test_scenario_type_error_reachable(self):
        with pytest.raises(TypeError, match="expected a Scenario, got str"):
            ScenarioFleet(["drift"], ["search:swap"])

    def test_seed_provenance_on_every_run(self, report):
        assert all(run.seed == 9 for run in report.runs)
        assert all(
            row["seed"] == 9
            for run in report.runs
            for row in run.result.timeline()
        )

    def test_summary(self, report):
        summary = report.summary()
        assert "2 scenarios x 2 solvers x 3 seeds" in summary
        assert "warm+cold" in summary
