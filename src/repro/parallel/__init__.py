"""Process fan-out shared by every ``workers=`` harness.

Two harnesses run seeded portfolios over a process pool: the
replication harness (:mod:`repro.experiments.replication`) and the
scenario fleet (:mod:`repro.scenario.fleet`).  Both walk the same kind
of grid — entries (a method, a movement, a scenario cell's arm) times
``n_seeds`` — and both walk it through :func:`run_sharded`: contiguous,
order-preserving seed shards (:func:`seed_shards`), executed serially
when ``workers`` is ``None``/1, with optional checkpointing per seed.
One walk also means one determinism argument: a shard boundary can
never change which seed owns which stream, only which process advances
it, so a checkpoint written at one worker count resumes at any other.

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
    "check_grid",
    "seed_shards",
    "run_tasks",
    "run_sharded",
    "ParallelRuntime",
    "effective_pool_size",
    "get_runtime",
    "resolve_task_problem",
    "shutdown_runtime",
]


def check_grid(n_seeds: int, workers: "int | None") -> None:
    """Refuse a seed grid's shape before anything runs or touches disk."""
    if n_seeds <= 0:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    if workers is not None and workers < 1:
        raise ValueError(
            f"workers must be a positive int or None, got {workers}"
        )


def seed_shards(n_seeds: int, workers: "int | None") -> list[range]:
    """Contiguous seed ranges: one per worker slot (one total when serial).

    The layout depends on ``workers`` (the caller's request) alone —
    never on the machine — so which seed lands in which shard is
    reproducible everywhere.  How many *processes* actually serve those
    shards is a separate, runtime-aware decision:
    :func:`repro.parallel.runtime.effective_pool_size` caps the pool at
    ``min(workers, n_tasks, cpu count)``, so asking for more workers
    than seeds or cores costs nothing but the request.
    """
    if workers is None or workers <= 1 or n_seeds <= 1:
        return [range(n_seeds)]
    bounds = np.linspace(0, n_seeds, min(workers, n_seeds) + 1).astype(int)
    return [
        range(int(start), int(stop))
        for start, stop in zip(bounds[:-1], bounds[1:])
        if start < stop
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
    """Run shard tasks serially or over a supervised pool, in task order.

    ``runner`` must be a top-level function and every task picklable when
    ``workers > 1``.  Each task's rows come back as one list, in
    task-submission order whatever the pool's scheduling.

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
    return run_supervised(
        runner,
        tasks,
        workers=workers,
        policy=policy,
        labels=labels,
        on_result=on_shard,
        report=report,
    )


def run_sharded(
    runner: Callable[[object], Sequence],
    entries: Sequence,
    n_seeds: int,
    workers: "int | None",
    make_task: Callable[[object, range], object],
    *,
    key: Callable[[object, int], str],
    encode: Callable[[object, int, object], dict],
    decode: Callable[[dict], object],
    label: Callable[[object, range], str],
    store=None,
    policy: "RetryPolicy | None" = None,
    report: "SupervisionReport | None" = None,
) -> list[list]:
    """Walk an ``entries x n_seeds`` grid; each entry's rows in seed order.

    Every entry's seeds split into :func:`seed_shards`, and
    ``make_task(entry, seeds)`` builds the picklable task ``runner``
    turns into one row per seed.  ``key(entry, seed)`` names a row in
    the checkpoint ``store`` (seed-granular, never shard-granular), and
    ``encode(entry, seed, row)`` / ``decode(document)`` convert between
    a row and its stored document.  ``label(entry, seeds)`` names a
    shard task in supervision failures.

    With a store, a shard whose keys are all stored is restored from
    disk rather than re-run (a partially stored shard re-runs whole —
    deterministic, so merely redundant).  Restored cells are trusted
    but verified: the first restored shard's first seed is recomputed
    in-process and must match its document exactly
    (:meth:`~repro.resilience.checkpoint.CheckpointStore.verify_cell`).
    Every other shard runs through one :func:`run_tasks` call, which
    persists each shard's rows as it completes.
    """
    shards = seed_shards(n_seeds, workers)
    cells = [(entry, shard) for entry in entries for shard in shards]
    restored = {
        index
        for index, (entry, shard) in enumerate(cells)
        if store is not None
        and all(store.has(key(entry, seed)) for seed in shard)
    }
    if restored:
        entry, shard = cells[min(restored)]
        seed = shard.start
        [row] = runner(make_task(entry, range(seed, seed + 1)))
        store.verify_cell(key(entry, seed), encode(entry, seed, row))
    pending = [cell for index, cell in enumerate(cells) if index not in restored]

    def persist(position: int, rows: Sequence) -> None:
        entry, shard = pending[position]
        for seed, row in zip(shard, rows):
            store.save(key(entry, seed), encode(entry, seed, row))

    fresh = iter(
        run_tasks(
            runner,
            [make_task(entry, shard) for entry, shard in pending],
            workers,
            policy=policy,
            labels=[label(entry, shard) for entry, shard in pending],
            on_shard=persist if store is not None else None,
            report=report,
        )
    )
    rows: list[list] = [[] for _ in entries]
    for index, (entry, shard) in enumerate(cells):
        rows[index // len(shards)].extend(
            [decode(store.load(key(entry, seed))) for seed in shard]
            if index in restored
            else next(fresh)
        )
    return rows
