"""Every ``workers=`` harness on the shared-memory broadcast path.

Paper-frame instances sit far below the runtime's default broadcast
threshold, so the harness suites elsewhere ship their instances by
pickle.  Here the process runtime is a ``ParallelRuntime(shm_min_bytes=0)``,
so ``ScenarioFleet`` and ``replicate_movements`` (on a spec and on an
instance) fan out with shared-memory handles.  Each must equal its serial run and
publish its instance exactly once.  The fallback cases pin the one rule
that turns a lost handle back into its instance for every harness's
task shape.
"""

from __future__ import annotations

import pytest

import repro.parallel.runtime as runtime_mod
from repro.experiments.replication import _movement_run, replicate_movements
from repro.instances.catalog import tiny_spec
from repro.instances.shm import ProblemRef
from repro.neighborhood.movements import RandomMovement
from repro.parallel import ParallelRuntime, get_runtime
from repro.resilience.faults import FAULT_ENV
from repro.scenario import Scenario, ScenarioFleet
from repro.scenario.fleet import _run_fleet_shard, fleet_seed_grid

LOST = "BroadcastLost: segment gone"


@pytest.fixture
def broadcast_all(monkeypatch):
    """The process runtime, with a broadcast threshold of zero bytes."""
    monkeypatch.delenv(FAULT_ENV, raising=False)
    runtime = ParallelRuntime(shm_min_bytes=0)
    monkeypatch.setattr(runtime_mod, "_global_runtime", runtime)
    yield runtime
    runtime.shutdown()


def fleet_signature(report):
    return [
        (
            run.scenario,
            run.solver,
            run.warm,
            run.replicate,
            [
                (
                    step.step.index,
                    step.result.best.fitness,
                    step.result.best.placement.cells,
                    step.result.n_evaluations,
                )
                for step in run.result.steps
            ],
        )
        for run in report.runs
    ]


def shard_signature(results):
    return [
        [
            (step.result.best.fitness, step.result.best.placement.cells)
            for step in result.steps
        ]
        for result in results
    ]


class TestHarnessesOnTheBroadcastPath:
    def test_scenario_fleet_matches_serial(self, broadcast_all):
        problem = tiny_spec(seed=7).generate()
        scenarios = [
            Scenario.client_drift(problem, 2),
            Scenario.router_outages(problem, 2, count=1),
        ]

        def run(workers):
            return ScenarioFleet(
                scenarios,
                [("search:swap", {"n_candidates": 4})],
                n_seeds=3,
                budget=2,
                warm="both",
                workers=workers,
            ).run(seed=9)

        serial = run(None)
        assert broadcast_all.stats.publishes == 0
        assert fleet_signature(run(2)) == fleet_signature(serial)
        # Both scenarios share one base: one publish, the rest hits.
        assert broadcast_all.stats.publishes == 1
        assert broadcast_all.stats.broadcast_hits >= 1

    def test_replicate_movements_matches_serial(self, broadcast_all):
        spec = tiny_spec(seed=8)
        kwargs = dict(n_seeds=2, n_candidates=4, max_phases=4)
        serial = replicate_movements(spec, **kwargs)
        parallel = replicate_movements(spec, workers=2, **kwargs)
        for name in serial:
            for metric in serial[name]:
                assert (
                    serial[name][metric].values
                    == parallel[name][metric].values
                )
        assert broadcast_all.stats.publishes == 1

    def test_replicate_on_an_instance_broadcasts_it(self, broadcast_all):
        problem = tiny_spec(seed=8).generate()
        kwargs = dict(n_seeds=2, n_candidates=4, max_phases=4)
        serial = replicate_movements(problem, **kwargs)
        parallel = replicate_movements(problem, workers=2, **kwargs)
        for name in serial:
            for metric in serial[name]:
                assert (
                    serial[name][metric].values
                    == parallel[name][metric].values
                )
        assert broadcast_all.stats.publishes == 1


class TestLostBroadcastFallback:
    def test_fleet_task_handle_swaps_back_to_its_instance(
        self, broadcast_all
    ):
        problem = tiny_spec(seed=7).generate()
        scenario = Scenario.client_drift(problem, 2)
        ref = get_runtime().broadcast(scenario.base)
        assert isinstance(ref, ProblemRef)
        [(unfold_seq, rep_seqs)] = fleet_seed_grid(9, 1, 1)
        solver = ("search:swap", {"n_candidates": 4})
        config = dict(budget=2, warm_budget=2, warm=True)
        task = (
            scenario.name,
            ref,
            scenario.perturbations,
            solver,
            config,
            unfold_seq,
            None,
            rep_seqs,
        )
        broadcast_all.release_broadcast(ref)
        swapped = broadcast_all.task_fallback(0, task, "error", LOST)
        assert swapped[1] is problem
        assert swapped[:1] + swapped[2:] == task[:1] + task[2:]
        # The re-shipped task runs exactly as the pickled form would.
        pickled = (scenario.name, problem) + task[2:]
        assert shard_signature(_run_fleet_shard(swapped)) == shard_signature(
            _run_fleet_shard(pickled)
        )

    def test_replication_task_runs_on_a_reshipped_instance(
        self, broadcast_all
    ):
        spec = tiny_spec(seed=8)
        ref = broadcast_all.broadcast(spec.generate())
        task = (ref, RandomMovement, 4, 3, None, [(1, 2), (1, 3)])
        broadcast_all.release_broadcast(ref)
        swapped = broadcast_all.task_fallback(0, task, "error", LOST)
        assert not isinstance(swapped[0], ProblemRef)
        assert _movement_run(swapped) == _movement_run((spec,) + task[1:])

