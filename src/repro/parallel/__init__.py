"""Process fan-out shared by every ``workers=`` harness.

Three layers run portfolios over a process pool: the lockstep
multi-chain engine (:mod:`repro.neighborhood.multichain`), the
replication harness (:mod:`repro.experiments.replication`) and the
scenario fleet (:mod:`repro.scenario.fleet`).  They all shard the same
way — contiguous, order-preserving splits, executed serially when
``workers`` is ``None``/1 and flattened back in submission order — so
the split and the pool plumbing live here once.  One implementation also
means one determinism argument: a shard boundary can never change which
seed owns which stream, only which process advances it.

Execution itself is delegated to the supervised pool
(:mod:`repro.resilience.supervisor`): worker crashes, hung kernels and
transient task errors are retried per :class:`RetryPolicy` with only the
failed shard resubmitted — safe precisely because of the determinism
contract above — and a shard that keeps crashing under the compiled
engine tier is degraded to the bit-identical numpy engines.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.parallel.runtime import (
    ParallelRuntime,
    effective_pool_size,
    get_runtime,
    resolve_task_problem,
    shutdown_runtime,
)
from repro.resilience.supervisor import (
    RetryPolicy,
    SupervisionReport,
    run_supervised,
)

__all__ = [
    "shard_slices",
    "seed_shards",
    "run_tasks",
    "ParallelRuntime",
    "effective_pool_size",
    "get_runtime",
    "resolve_task_problem",
    "shutdown_runtime",
]


def shard_slices(count: int, shards: int) -> list[slice]:
    """Contiguous, order-preserving split of ``count`` items.

    Layout depends on ``shards`` (the caller's ``workers=`` request)
    alone — never on the machine — so which seed lands in which shard is
    reproducible everywhere.  How many *processes* actually serve those
    shards is a separate, runtime-aware decision:
    :func:`repro.parallel.runtime.effective_pool_size` caps the pool at
    ``min(workers, n_tasks, cpu count)`` so a request larger than the
    shard count (or the machine) never holds idle workers alive.
    """
    shards = min(shards, count)
    bounds = np.linspace(0, count, shards + 1).astype(int)
    return [
        slice(int(bounds[i]), int(bounds[i + 1]))
        for i in range(shards)
        if bounds[i] < bounds[i + 1]
    ]


def seed_shards(n_seeds: int, workers: "int | None") -> list[range]:
    """Contiguous seed ranges: one per worker slot (one total when serial).

    Like :func:`shard_slices`, the *layout* uses the requested
    ``workers`` so seed ownership is machine-independent; the persistent
    pool then sizes itself to ``min(workers, n_shards, cpu count)``
    (:func:`repro.parallel.runtime.effective_pool_size`), so asking for
    more workers than seeds or cores costs nothing but the request.
    """
    if workers is None or workers <= 1 or n_seeds <= 1:
        return [range(n_seeds)]
    return [
        range(part.start, part.stop) for part in shard_slices(n_seeds, workers)
    ]


def run_tasks(
    runner: Callable[[object], Sequence],
    tasks: list,
    workers: "int | None",
    *,
    policy: "RetryPolicy | None" = None,
    labels: "Sequence[str] | None" = None,
    on_shard: "Callable[[int, Sequence], None] | None" = None,
    report: "SupervisionReport | None" = None,
) -> list:
    """Run shard tasks serially or over a supervised pool, flat, in order.

    ``runner`` must be a top-level function and every task picklable when
    ``workers > 1``.  Results come back in task-submission order whatever
    the pool's scheduling, so callers can slice the flat list by shard
    arithmetic alone.

    Supervision kwargs are all optional and default to the standard
    :class:`RetryPolicy` (bounded retry, crash degradation).  ``labels``
    names each shard task for failure messages — pass the shard's
    scenario/solver/seed identity so a
    :class:`~repro.resilience.supervisor.RetryExhaustedError` says which
    seeds were lost.  ``on_shard(index, rows)`` fires in the parent as
    each shard completes (the checkpoint persistence hook); ``report``
    collects recovery activity for the caller to surface.

    Pools are warm: execution goes through the process-wide
    :class:`~repro.parallel.runtime.ParallelRuntime`, which keeps its
    worker pool alive between calls and re-ships a task's lost
    broadcast by pickle on retry
    (:meth:`~repro.parallel.runtime.ParallelRuntime.task_fallback`).
    """
    shards = run_supervised(
        runner,
        tasks,
        workers=workers,
        policy=policy,
        labels=labels,
        on_result=on_shard,
        report=report,
    )
    return [row for shard in shards for row in shard]
