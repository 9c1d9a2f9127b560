"""Checkpoint/resume: atomic stores, serialization parity, exact resume.

The acceptance gate exercised here: an interrupted run resumed from its
checkpoint matches an uninterrupted run **exactly** (wall-clock fields
excluded), for the scenario fleet, the replication harnesses and the
serial scenario runner — and a checkpoint that no longer matches the
code/seeds is rejected loudly, never silently reused.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.replication import (
    replicate_movements,
    replicate_standalone,
)
from repro.instances.catalog import tiny_spec
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointParityError,
    CheckpointStore,
    open_store,
    scenario_result_from_dict,
    scenario_result_to_dict,
    solve_result_from_dict,
    solve_result_to_dict,
    stable_scenario_dict,
)
from repro.scenario import Scenario, ScenarioFleet, ScenarioRunner
from repro.solvers import make_solver


@pytest.fixture(scope="module")
def problem():
    return tiny_spec(seed=7).generate()


MANIFEST = {"kind": "test", "seed_entropy": 42, "n": 3}


class TestStore:
    def test_fresh_store_writes_manifest_and_cells(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", MANIFEST)
        assert not store.resumed
        assert store.keys() == []
        store.save("cell-a", {"value": 1})
        assert store.has("cell-a")
        assert not store.has("cell-b")
        assert store.load("cell-a") == {"value": 1}
        assert store.keys() == ["cell-a"]
        # No stray temp files after the atomic publish.
        assert not list((tmp_path / "ck").glob(".*"))

    def test_reopen_with_matching_manifest_resumes(self, tmp_path):
        CheckpointStore(tmp_path, MANIFEST).save("x", {"v": 1})
        again = CheckpointStore(tmp_path, dict(MANIFEST))
        assert again.resumed
        assert again.keys() == ["x"]

    def test_manifest_mismatch_names_fields(self, tmp_path):
        CheckpointStore(tmp_path, MANIFEST)
        with pytest.raises(CheckpointError, match="seed_entropy"):
            CheckpointStore(tmp_path, {**MANIFEST, "seed_entropy": 43})

    def test_require_existing_refuses_cold_start(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            CheckpointStore(
                tmp_path / "missing", MANIFEST, require_existing=True
            )

    def test_corrupt_cell_is_loud(self, tmp_path):
        store = CheckpointStore(tmp_path, MANIFEST)
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load("bad")
        with pytest.raises(CheckpointError, match="no checkpointed cell"):
            store.load("never-saved")

    def test_key_validation(self, tmp_path):
        store = CheckpointStore(tmp_path, MANIFEST)
        with pytest.raises(ValueError, match="key"):
            store.save("../escape", {})
        with pytest.raises(ValueError, match="key"):
            store.has("a b")

    def test_open_store_semantics(self, tmp_path):
        assert open_store(MANIFEST) is None
        with pytest.raises(ValueError, match="same directory"):
            open_store(
                MANIFEST,
                checkpoint=str(tmp_path / "a"),
                resume_from=str(tmp_path / "b"),
            )
        created = open_store(MANIFEST, checkpoint=str(tmp_path / "a"))
        assert created is not None and not created.resumed
        resumed = open_store(MANIFEST, resume_from=str(tmp_path / "a"))
        assert resumed is not None and resumed.resumed


class TestSerialization:
    def test_solve_result_round_trip(self, problem):
        result = make_solver("tabu:swap", n_candidates=4).solve(
            problem, seed=3, budget=3
        )
        doc = solve_result_to_dict(result)
        restored = solve_result_from_dict(json.loads(json.dumps(doc)))
        assert restored.solver == result.solver
        assert restored.n_evaluations == result.n_evaluations
        assert restored.n_phases == result.n_phases
        assert restored.warm_started == result.warm_started
        assert restored.best.fitness == result.best.fitness
        assert restored.best.placement == result.best.placement
        assert restored.best.metrics == result.best.metrics
        # Serializing the restored object reproduces the document.
        assert solve_result_to_dict(restored) == json.loads(json.dumps(doc))

    def test_solve_result_rejects_foreign_documents(self):
        with pytest.raises(CheckpointError, match="format"):
            solve_result_from_dict({"format": "something.else"})

    def test_scenario_result_round_trip(self, problem):
        outcome = ScenarioRunner("search:swap", budget=3, n_candidates=4).run(
            Scenario.client_drift(problem, 2), seed=11
        )
        doc = scenario_result_to_dict(outcome)
        restored = scenario_result_from_dict(json.loads(json.dumps(doc)))
        assert restored.scenario_name == outcome.scenario_name
        assert restored.seed == outcome.seed
        assert restored.n_steps == outcome.n_steps
        assert [s.index for s in restored.steps] == [
            s.index for s in outcome.steps
        ]
        assert [s.event for s in restored.steps] == [
            s.event for s in outcome.steps
        ]
        assert scenario_result_to_dict(restored) == json.loads(json.dumps(doc))
        # Restored results drive the aggregation layers (fleet tables).
        assert restored.mean_fitness() == outcome.mean_fitness()
        assert restored.total_evaluations == outcome.total_evaluations


def _fleet(problem, workers=None):
    return ScenarioFleet(
        [Scenario.client_drift(problem, 2)],
        [("search:swap", {"n_candidates": 4})],
        n_seeds=2,
        budget=3,
        warm="both",
        workers=workers,
    )


def _stable_report(report):
    return [
        (
            run.scenario,
            run.solver,
            run.warm,
            run.replicate,
            stable_scenario_dict(scenario_result_to_dict(run.result)),
        )
        for run in report.runs
    ]


class TestFleetResume:
    def test_checkpoint_then_full_resume_matches(self, problem, tmp_path):
        directory = str(tmp_path / "fleet")
        baseline = _fleet(problem).run(seed=5, checkpoint=directory)
        resumed = _fleet(problem).run(seed=5, resume_from=directory)
        assert _stable_report(resumed) == _stable_report(baseline)

    def test_interrupted_run_resumes_to_uninterrupted_result(
        self, problem, tmp_path
    ):
        directory = tmp_path / "fleet"
        uninterrupted = _fleet(problem).run(seed=5)
        _fleet(problem).run(seed=5, checkpoint=str(directory))
        # Simulate the interruption: drop the cold arm's cells, as if
        # the run died halfway through the grid.
        removed = [p for p in directory.glob("*-cold-*.json")]
        assert removed, "expected cold-arm cells to exist"
        for path in removed:
            path.unlink()
        resumed = _fleet(problem).run(seed=5, resume_from=str(directory))
        assert _stable_report(resumed) == _stable_report(uninterrupted)

    def test_resume_works_across_worker_counts(self, problem, tmp_path):
        directory = str(tmp_path / "fleet")
        baseline = _fleet(problem).run(seed=5, checkpoint=directory)
        resumed = _fleet(problem, workers=2).run(seed=5, resume_from=directory)
        assert _stable_report(resumed) == _stable_report(baseline)

    def test_full_resume_unfolds_only_the_verified_cell(
        self, problem, tmp_path, monkeypatch
    ):
        # A 2 x 2 grid: two scenarios, two solvers.
        def fleet():
            return ScenarioFleet(
                [
                    Scenario.client_drift(problem, 2),
                    Scenario.router_outages(problem, 2, count=1),
                ],
                [("search:swap", {"n_candidates": 4}), ("tabu:swap", {"n_candidates": 4})],
                n_seeds=2,
                budget=3,
                warm="both",
            )

        directory = str(tmp_path / "fleet")
        baseline = fleet().run(seed=5, checkpoint=directory)
        calls = []
        unfold = Scenario.unfold

        def counted(self, *args, **kwargs):
            calls.append(self.name)
            return unfold(self, *args, **kwargs)

        monkeypatch.setattr(Scenario, "unfold", counted)
        resumed = fleet().run(seed=5, resume_from=directory)
        # Only the cell of the re-verified shard is unfolded.
        assert len(calls) == 1
        assert _stable_report(resumed) == _stable_report(baseline)

    def test_resume_rejects_different_grid(self, problem, tmp_path):
        directory = str(tmp_path / "fleet")
        _fleet(problem).run(seed=5, checkpoint=directory)
        with pytest.raises(CheckpointError, match="different run"):
            _fleet(problem).run(seed=6, resume_from=directory)

    def test_resume_from_nothing_is_an_error(self, problem, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            _fleet(problem).run(
                seed=5, resume_from=str(tmp_path / "missing")
            )

    def test_corrupted_cell_fails_parity_verification(
        self, problem, tmp_path
    ):
        directory = tmp_path / "fleet"
        _fleet(problem).run(seed=5, checkpoint=str(directory))
        # Tamper with the cell the resume gate re-verifies (the first
        # restored shard's first replicate).
        victim = directory / "c000-warm-r000.json"
        payload = json.loads(victim.read_text())
        payload["steps"][0]["result"]["fitness"] += 0.25
        victim.write_text(json.dumps(payload))
        with pytest.raises(CheckpointParityError, match="does not"):
            _fleet(problem).run(seed=5, resume_from=str(directory))


class TestReplicationResume:
    def test_standalone_checkpoint_resume_matches(self, tmp_path):
        spec = tiny_spec(seed=7)
        directory = str(tmp_path / "standalone")
        kwargs = dict(n_seeds=3, methods=("random", "hotspot"))
        baseline = replicate_standalone(spec, checkpoint=directory, **kwargs)
        resumed = replicate_standalone(spec, resume_from=directory, **kwargs)
        assert resumed.keys() == baseline.keys()
        for method in baseline:
            for metric in baseline[method]:
                assert (
                    resumed[method][metric].values
                    == baseline[method][metric].values
                )

    def test_partial_standalone_resume_matches(self, tmp_path):
        spec = tiny_spec(seed=7)
        directory = tmp_path / "standalone"
        kwargs = dict(n_seeds=3, methods=("random", "hotspot"))
        baseline = replicate_standalone(
            spec, checkpoint=str(directory), **kwargs
        )
        victims = sorted(directory.glob("hotspot*.json"))
        assert victims
        for path in victims:
            path.unlink()
        resumed = replicate_standalone(
            spec, resume_from=str(directory), **kwargs
        )
        for method in baseline:
            for metric in baseline[method]:
                assert (
                    resumed[method][metric].values
                    == baseline[method][metric].values
                )

    def test_movements_resume_matches_across_worker_counts(self, tmp_path):
        spec = tiny_spec(seed=7)
        directory = str(tmp_path / "movements")
        kwargs = dict(n_seeds=2, n_candidates=4, max_phases=3)
        baseline = replicate_movements(spec, checkpoint=directory, **kwargs)
        resumed = replicate_movements(
            spec, resume_from=directory, workers=2, **kwargs
        )
        for label in baseline:
            for metric in baseline[label]:
                assert (
                    resumed[label][metric].values
                    == baseline[label][metric].values
                )

    def test_tampered_movements_row_fails_parity(self, tmp_path):
        spec = tiny_spec(seed=7)
        directory = tmp_path / "movements"
        kwargs = dict(n_seeds=2, n_candidates=4, max_phases=3)
        replicate_movements(spec, checkpoint=str(directory), **kwargs)
        # Tamper with the row the resume gate re-verifies (the first
        # label's first seed).
        (victim,) = directory.glob("Swap.*-s000.json")
        payload = json.loads(victim.read_text())
        payload["values"][0] += 1.0
        victim.write_text(json.dumps(payload))
        with pytest.raises(CheckpointParityError, match="does not"):
            replicate_movements(spec, resume_from=str(directory), **kwargs)


class TestRunnerResume:
    def _runner(self):
        return ScenarioRunner("search:swap", budget=3, n_candidates=4)

    def test_step_checkpoint_full_resume_matches(self, problem, tmp_path):
        scenario = Scenario.client_drift(problem, 2)
        directory = str(tmp_path / "run")
        baseline = self._runner().run(scenario, seed=11, checkpoint=directory)
        resumed = self._runner().run(scenario, seed=11, resume_from=directory)
        assert stable_scenario_dict(
            scenario_result_to_dict(resumed)
        ) == stable_scenario_dict(scenario_result_to_dict(baseline))

    def test_interrupted_steps_resume_to_uninterrupted(
        self, problem, tmp_path
    ):
        scenario = Scenario.client_drift(problem, 3)
        directory = tmp_path / "run"
        uninterrupted = self._runner().run(scenario, seed=11)
        self._runner().run(scenario, seed=11, checkpoint=str(directory))
        # The run "died" before the last two steps.
        (directory / "step002.json").unlink()
        (directory / "step003.json").unlink()
        resumed = self._runner().run(
            scenario, seed=11, resume_from=str(directory)
        )
        assert stable_scenario_dict(
            scenario_result_to_dict(resumed)
        ) == stable_scenario_dict(scenario_result_to_dict(uninterrupted))

    def test_tampered_step_fails_parity(self, problem, tmp_path):
        scenario = Scenario.client_drift(problem, 2)
        directory = tmp_path / "run"
        self._runner().run(scenario, seed=11, checkpoint=str(directory))
        victim = directory / "step000.json"
        payload = json.loads(victim.read_text())
        payload["result"]["n_evaluations"] += 1
        victim.write_text(json.dumps(payload))
        with pytest.raises(CheckpointParityError):
            self._runner().run(
                scenario, seed=11, resume_from=str(directory)
            )


def _add_retired_field(directory) -> None:
    """Rewrite a checkpoint manifest as an older release wrote it."""
    manifest = directory / "manifest.json"
    stored = json.loads(manifest.read_text())
    stored["reuse_cache"] = True
    manifest.write_text(json.dumps(stored))


class TestRetiredManifestFields:
    """Checkpoints carrying the retired ``reuse_cache`` option are refused."""

    def test_runner_refuses_old_manifest(self, problem, tmp_path):
        scenario = Scenario.client_drift(problem, 1)
        directory = tmp_path / "run"
        runner = ScenarioRunner("search:swap", budget=2, n_candidates=4)
        runner.run(scenario, seed=11, checkpoint=str(directory))
        _add_retired_field(directory)
        with pytest.raises(CheckpointError, match="reuse_cache"):
            runner.run(scenario, seed=11, resume_from=str(directory))

    def test_fleet_refuses_old_manifest(self, problem, tmp_path):
        directory = tmp_path / "fleet"
        _fleet(problem).run(seed=5, checkpoint=str(directory))
        _add_retired_field(directory)
        with pytest.raises(CheckpointError, match="reuse_cache"):
            _fleet(problem).run(seed=5, resume_from=str(directory))
