"""The persistent runtime: warm pools, broadcast lifecycle, recovery.

The invariants under test, in rough order of load-bearing-ness:

* results through the runtime are bit-identical to serial execution;
* a clean release keeps the pool warm (same worker processes serve the
  next call), a crash rebuilds the *pool* but never the *broadcast*;
* a broadcast released too early degrades to the pickle path via the
  supervisor's retry hook instead of failing the run;
* every bare fan-out runs on the process-wide runtime, whatever retired
  runtime variables are left in the environment.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

import repro.parallel.runtime as runtime_mod
from repro.instances.shm import ProblemRef, problem_nbytes
from repro.parallel import (
    ParallelRuntime,
    effective_pool_size,
    get_runtime,
    resolve_task_problem,
    run_tasks,
)
from repro.resilience.faults import FAULT_ENV
from repro.resilience.supervisor import (
    RetryPolicy,
    SupervisionReport,
    run_supervised,
)


def _probe_shard(task):
    """Rows derived from the (possibly broadcast) problem plus seeds."""
    payload, seeds = task
    problem = resolve_task_problem(payload)
    base = float(
        problem.fleet.radii.sum() + problem.clients.positions.sum()
    )
    return [
        base + float(np.random.default_rng(seed).random()) for seed in seeds
    ]


SEED_SHARDS = [[0, 1], [2, 3], [4, 5]]


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(FAULT_ENV, raising=False)
    monkeypatch.delenv("REPRO_COMPILED", raising=False)


@pytest.fixture
def runtime(clean_env):
    # shm_min_bytes=0 forces broadcast even for the tiny test instance.
    with ParallelRuntime(shm_min_bytes=0) as rt:
        yield rt


@pytest.fixture
def global_runtime(clean_env, monkeypatch):
    """A fresh runtime installed as the process-wide one."""
    rt = ParallelRuntime()
    monkeypatch.setattr(runtime_mod, "_global_runtime", rt)
    yield rt
    rt.shutdown()


@pytest.fixture
def expected(tiny_problem, clean_env):
    return run_supervised(
        _probe_shard,
        [(tiny_problem, seeds) for seeds in SEED_SHARDS],
    )


class TestSizing:
    def test_effective_pool_size_rule(self, monkeypatch):
        import repro.parallel.runtime as runtime_mod

        monkeypatch.setattr(runtime_mod, "_cpu_count", lambda: 4)
        assert effective_pool_size(8) == 4  # capped by cores
        assert effective_pool_size(2) == 2  # the request itself
        assert effective_pool_size(8, n_tasks=3) == 3  # capped by tasks
        assert effective_pool_size(8, n_tasks=0) == 1  # floored at 1


class TestGlobalRuntime:
    def test_bare_run_supervised_uses_the_global_runtime(
        self, global_runtime, tiny_problem, expected
    ):
        got = run_supervised(
            _probe_shard,
            [(tiny_problem, seeds) for seeds in SEED_SHARDS],
            workers=2,
        )
        assert got == expected
        assert global_runtime.stats.pool_creates == 1
        assert global_runtime.worker_pids()

    def test_run_tasks_reuses_the_global_pool(
        self, global_runtime, tiny_problem, expected
    ):
        tasks = [(tiny_problem, seeds) for seeds in SEED_SHARDS]
        # One row list per task, in task order — never flattened.
        assert run_tasks(_probe_shard, tasks, 2) == expected
        assert run_tasks(_probe_shard, tasks, 2) == expected
        assert global_runtime.stats.pool_creates == 1
        assert global_runtime.stats.pool_reuses >= 1

    def test_stale_runtime_gate_does_not_bypass_the_pool(
        self, global_runtime, monkeypatch, tiny_problem, expected
    ):
        # REPRO_RUNTIME=0 once meant "a fresh pool per call"; the setting
        # is now only flagged as unknown, never obeyed.
        monkeypatch.setenv("REPRO_RUNTIME", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = run_supervised(
                _probe_shard,
                [(tiny_problem, seeds) for seeds in SEED_SHARDS],
                workers=2,
            )
        assert got == expected
        assert global_runtime.stats.pool_creates == 1


class TestWarmPool:
    def test_clean_release_keeps_the_pool_warm(
        self, runtime, tiny_problem, expected
    ):
        tasks = [(tiny_problem, seeds) for seeds in SEED_SHARDS]
        first = run_supervised(
            _probe_shard, tasks, workers=2, pool_provider=runtime
        )
        pids = runtime.worker_pids()
        assert pids
        second = run_supervised(
            _probe_shard, tasks, workers=2, pool_provider=runtime
        )
        assert first == second == expected
        assert runtime.worker_pids() == pids  # the same warm processes
        assert runtime.stats.pool_creates == 1
        assert runtime.stats.pool_reuses >= 1

    def test_shutdown_is_idempotent_and_refuses_new_pools(self, runtime):
        runtime.acquire_pool(1)
        runtime.release_pool(runtime._pool, dirty=False)
        runtime.shutdown()
        runtime.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            runtime.acquire_pool(1)

    def test_global_runtime_recreated_after_shutdown(self, clean_env):
        first = get_runtime()
        first.shutdown()
        second = get_runtime()
        assert second is not first
        assert not second._closed


class TestBroadcastLifecycle:
    def test_rebroadcast_is_a_registry_hit(self, runtime, tiny_problem):
        ref = runtime.broadcast(tiny_problem)
        again = runtime.broadcast(tiny_problem)
        assert again is ref
        assert runtime.stats.publishes == 1
        assert runtime.stats.broadcast_hits == 1

    def test_below_threshold_stays_on_pickle_path(
        self, clean_env, tiny_problem
    ):
        with ParallelRuntime(shm_min_bytes=1 << 30) as rt:
            assert rt.broadcast(tiny_problem) is tiny_problem
            assert rt.stats.publishes == 0

    def test_threshold_is_inclusive(self, clean_env, tiny_problem):
        nbytes = problem_nbytes(tiny_problem)
        with ParallelRuntime(shm_min_bytes=nbytes + 1) as rt:
            assert rt.broadcast(tiny_problem) is tiny_problem
            assert rt.stats.publishes == 0
        with ParallelRuntime(shm_min_bytes=nbytes) as rt:
            assert isinstance(rt.broadcast(tiny_problem), ProblemRef)
            assert rt.stats.publishes == 1

    def test_stale_threshold_setting_is_ignored(
        self, clean_env, monkeypatch, tiny_problem
    ):
        # The threshold is a constructor argument only; the retired
        # REPRO_SHM_MIN_BYTES variable no longer lowers it.
        monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "0")
        assert problem_nbytes(tiny_problem) < runtime_mod.DEFAULT_SHM_MIN_BYTES
        with ParallelRuntime() as rt:
            assert rt.broadcast(tiny_problem) is tiny_problem
            assert rt.stats.publishes == 0

    def test_parent_resolves_ref_to_the_source_instance(
        self, clean_env, tiny_problem
    ):
        # In the publishing process the registry short-circuits attach —
        # but only for the *global* runtime (workers never take this
        # branch: their pid differs from the publisher's).
        rt = get_runtime()
        rt._shm_min_bytes = 0
        try:
            ref = rt.broadcast(tiny_problem)
            assert resolve_task_problem(ref) is tiny_problem
        finally:
            rt.shutdown()

    def test_shutdown_unlinks_every_segment(self, clean_env, tiny_problem):
        rt = ParallelRuntime(shm_min_bytes=0)
        ref = rt.broadcast(tiny_problem)
        names = [ref.radii.name, ref.positions.name]
        assert all(os.path.exists(f"/dev/shm/{n}") for n in names)
        rt.shutdown()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)


class TestRecovery:
    def test_crash_rebuilds_pool_without_rebroadcast(
        self, runtime, monkeypatch, tiny_problem, expected
    ):
        ref = runtime.broadcast(tiny_problem)
        assert runtime.stats.publishes == 1
        tasks = [(ref, seeds) for seeds in SEED_SHARDS]
        monkeypatch.setenv(FAULT_ENV, "kill@1")
        report = SupervisionReport()
        got = run_supervised(
            _probe_shard,
            tasks,
            workers=2,
            policy=RetryPolicy(backoff=0.0, degrade_compiled=False),
            pool_provider=runtime,
            report=report,
        )
        assert got == expected
        assert report.kinds().get("crash", 0) >= 1
        assert runtime.stats.pool_rebuilds_dirty >= 1
        # The load-bearing invariant: the dead worker cost us the pool,
        # never the broadcast — nothing was republished.
        assert runtime.stats.publishes == 1
        assert runtime.broadcast(tiny_problem) is ref

    def test_attach_after_release_falls_back_to_pickle(
        self, runtime, tiny_problem, expected
    ):
        ref = runtime.broadcast(tiny_problem)
        runtime.release_broadcast(ref)  # segments are gone...
        tasks = [(ref, seeds) for seeds in SEED_SHARDS]
        report = SupervisionReport()
        got = run_supervised(
            _probe_shard,
            tasks,
            workers=2,
            policy=RetryPolicy(backoff=0.0),
            pool_provider=runtime,
            report=report,
        )
        # ...yet the run recovers: BroadcastLost retries re-ship the
        # source instance by pickle via the runtime's task_fallback.
        assert got == expected
        assert report.n_failures >= 1

    def test_task_fallback_only_rewrites_broadcast_losses(
        self, runtime, tiny_problem
    ):
        ref = runtime.broadcast(tiny_problem)
        task = (ref, [0, 1])
        swapped = runtime.task_fallback(
            0, task, "error", "BroadcastLost: segment gone"
        )
        assert swapped is not None
        assert swapped[0] is tiny_problem
        # Crashes must never rebroadcast or rewrite anything.
        assert runtime.task_fallback(0, task, "crash", "worker died") is None


class TestParity:
    def test_broadcast_results_match_serial_at_any_worker_count(
        self, runtime, tiny_problem, expected
    ):
        ref = runtime.broadcast(tiny_problem)
        tasks = [(ref, seeds) for seeds in SEED_SHARDS]
        for workers in (2, 3):
            got = run_supervised(
                _probe_shard, tasks, workers=workers, pool_provider=runtime
            )
            assert got == expected
