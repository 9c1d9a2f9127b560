"""The process-wide persistent parallel runtime.

Every ``workers=`` harness used to build a fresh ``ProcessPoolExecutor``
per call (and per retry round) and pickle full problem instances into
every shard task.  For one-shot CLI runs that is merely wasteful; for
the fleet/live/service layers — thousands of fan-outs against the same
city-scale instance — pool cold-start plus per-task serialization
dominates wall-clock.  :class:`ParallelRuntime` amortizes both:

* **Warm worker pools.**  One supervised pool per process, created
  lazily, reused across ``run_tasks``/``run_supervised`` calls, and
  sized ``min(workers, n_tasks, cpu count)`` so idle slots never hold
  processes alive (see :func:`effective_pool_size`).  A dirty release —
  worker crash, hung task — terminates and discards the pool; the next
  acquire rebuilds it.  Supervision semantics are unchanged: the
  supervisor marks the pool dirty exactly where it used to tear its
  per-round pool down.
* **Zero-copy problem broadcast.**  :meth:`broadcast` publishes an
  instance's numpy payloads once through :mod:`repro.instances.shm` and
  hands back a small picklable :class:`~repro.instances.shm.ProblemRef`;
  workers attach read-only views (cached per process, keyed by content
  hash).  Broadcasts are content-addressed, so a crashed worker rebuilds
  the *pool* without republishing anything, and re-broadcasting an
  already-published instance is a dictionary hit.
* **Deterministic results.**  Neither layer touches any result stream:
  pools only decide *where* a task runs, broadcasts only change *how*
  its bytes travel.  Results stay bit-identical to serial execution at
  any worker count (the existing parity suites run through this runtime
  unchanged).

The process-global instance (:func:`get_runtime`) is the only fan-out
path: every ``workers=`` harness and every bare
:func:`~repro.resilience.supervisor.run_supervised` call executes
through it.  A private ``ParallelRuntime(shm_min_bytes=...)`` passed as
``pool_provider`` gets its own pool and broadcast threshold (the test
and benchmark seam).  Long-running services should call
:func:`shutdown_runtime` (or use the runtime as a context manager) when
a workload ends; an ``atexit`` hook covers interpreter exit, so no
``/dev/shm`` segment ever outlives the parent.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.instances.shm import (
    ProblemRef,
    attach_problem,
    problem_nbytes,
    publish_problem,
)

__all__ = [
    "ParallelRuntime",
    "RuntimeStats",
    "effective_pool_size",
    "get_runtime",
    "resolve_task_problem",
    "shutdown_runtime",
]

#: Instances whose array payload is below this many bytes are pickled
#: rather than broadcast — segment setup is pure overhead for the
#: paper-scale instances that dominate the test suite.
DEFAULT_SHM_MIN_BYTES = 1 << 16


def _cpu_count() -> int:
    count = getattr(os, "process_cpu_count", os.cpu_count)() or 1
    return max(1, count)


def effective_pool_size(workers: int, n_tasks: "int | None" = None) -> int:
    """How many worker processes a fan-out actually warrants.

    The sizing rule of the persistent pool: ``workers`` is the caller's
    parallelism *request*, but a pool never holds more processes than
    there are tasks to run or cores to run them on —
    ``min(workers, n_tasks, cpu count)``, floored at 1.  Shard *layout*
    (:func:`repro.parallel.seed_shards`) deliberately keeps using the
    raw ``workers`` value: which seed lands in which shard is part of
    the determinism contract and must not depend on the machine.
    """
    size = min(workers, _cpu_count())
    if n_tasks is not None:
        size = min(size, n_tasks)
    return max(1, size)


def _worker_init() -> None:
    """Pool-worker bootstrap: pin each worker to one compute thread.

    The compiled kernels parallelize with OpenMP; with the process pool
    already saturating the cores, nested threading would oversubscribe
    them.  Runs once per worker process at pool start.
    """
    os.environ["OMP_NUM_THREADS"] = "1"
    try:
        from repro.core.engine import compiled

        if compiled.is_available():
            compiled.set_num_threads(1)
    except Exception:  # repro-lint: disable=RL007
        # Thread pinning is a performance nicety; a worker that cannot
        # build or load the kernels simply runs the numpy paths.
        pass


def _close_pool(pool: ProcessPoolExecutor, force: bool) -> None:
    """Shut a pool down; ``force`` abandons hung/dead workers."""
    if not force:
        pool.shutdown(wait=True)
        return
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # repro-lint: disable=RL007
            # Best-effort teardown of an already-dying process.
            pass


@dataclass
class RuntimeStats:
    """Observable runtime activity, mostly for tests and diagnostics."""

    pool_creates: int = 0
    pool_reuses: int = 0
    pool_rebuilds_dirty: int = 0
    publishes: int = 0
    broadcast_hits: int = 0
    broadcast_fallbacks: int = 0


@dataclass
class _Broadcast:
    """One live broadcast: handle, owned segments, source instance."""

    ref: ProblemRef
    segments: list
    problem: object
    nbytes: int = 0


class ParallelRuntime:
    """A persistent pool provider plus broadcast registry (see module doc).

    Thread-safe; the global instance is shared by every harness in the
    process.  Usable as a context manager::

        with ParallelRuntime() as runtime:
            run_supervised(fn, tasks, workers=4, pool_provider=runtime)

    The pool-provider protocol consumed by
    :func:`repro.resilience.supervisor.run_supervised` is
    ``acquire_pool(workers) -> executor`` / ``release_pool(executor,
    dirty=...)``: a clean release keeps the pool warm for the next call,
    a dirty one terminates its processes so no crashed or hung worker is
    ever reused.
    """

    def __init__(self, shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES) -> None:
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._pool: "ProcessPoolExecutor | None" = None
        self._pool_size = 0
        self._pool_in_use = False
        self._broadcasts: dict[str, _Broadcast] = {}
        #: Source instances of released broadcasts, kept so a task that
        #: still carries the old handle can be re-shipped by pickle.
        self._lost: dict[str, object] = {}
        self._by_id: dict[int, str] = {}
        self._shm_min_bytes = shm_min_bytes
        self._closed = False
        self.stats = RuntimeStats()

    # ------------------------------------------------------------------
    # Pool provider protocol
    # ------------------------------------------------------------------

    def acquire_pool(self, workers: int) -> ProcessPoolExecutor:
        """A warm executor with at least ``min(workers, cpus)`` slots.

        Reuses the kept pool when it is big enough and free; otherwise
        builds a fresh one (replacing a too-small kept pool).  A second
        concurrent acquisition — nested harnesses — gets a private
        throwaway pool rather than sharing submission order with the
        first caller.
        """
        size = effective_pool_size(workers)
        with self._lock:
            if self._closed:
                raise RuntimeError("parallel runtime is shut down")
            healthy = self._pool is not None and not getattr(
                self._pool, "_broken", False
            )
            if (
                healthy
                and not self._pool_in_use
                and self._pool_size >= size
            ):
                self._pool_in_use = True
                self.stats.pool_reuses += 1
                return self._pool
            if self._pool is not None and not self._pool_in_use:
                # Too small for this request — or a worker died while
                # the pool sat warm: retire it and build fresh (workers
                # are fungible; only warmth is lost).
                _close_pool(self._pool, force=not healthy)
                self._pool = None
            pool = ProcessPoolExecutor(
                max_workers=size, initializer=_worker_init
            )
            self.stats.pool_creates += 1
            if not self._pool_in_use:
                self._pool = pool
                self._pool_size = size
                self._pool_in_use = True
            return pool

    def release_pool(self, pool: ProcessPoolExecutor, dirty: bool) -> None:
        """Return an executor; ``dirty`` discards it, clean keeps it warm."""
        with self._lock:
            if pool is not self._pool:
                # A private overflow pool: always torn down.
                _close_pool(pool, force=dirty)
                return
            self._pool_in_use = False
            if dirty:
                self.stats.pool_rebuilds_dirty += 1
                self._pool = None
                self._pool_size = 0
                _close_pool(pool, force=True)

    def worker_pids(self) -> set[int]:
        """Pids of the kept pool's processes (empty when no pool lives)."""
        with self._lock:
            if self._pool is None:
                return set()
            processes = getattr(self._pool, "_processes", None) or {}
            return set(processes.keys())

    # ------------------------------------------------------------------
    # Broadcast registry
    # ------------------------------------------------------------------

    def broadcast(self, problem):
        """Publish ``problem`` once; returns its task payload.

        The payload is a :class:`~repro.instances.shm.ProblemRef` when
        the instance was broadcast and the instance itself when it was
        not (below ``shm_min_bytes``, SHM unavailable, or the runtime
        shut down) — so call sites can splice the return value straight
        into task tuples and let :func:`resolve_task_problem` undo it on
        the worker side.
        Re-broadcasting an already-published instance is a registry hit;
        nothing is republished (the invariant the crash path relies on:
        a dead worker rebuilds the *pool*, never the broadcast).
        """
        with self._lock:
            if self._closed:
                return problem
            token = self._by_id.get(id(problem))
            entry = self._broadcasts.get(token) if token is not None else None
            # The identity check guards against id() reuse after a
            # broadcast instance was garbage-collected.
            if entry is not None and entry.problem is problem:
                self.stats.broadcast_hits += 1
                return entry.ref
        if problem_nbytes(problem) < self._shm_min_bytes:
            return problem
        try:
            ref, segments = publish_problem(problem)
        except Exception:
            # No usable /dev/shm (or an exotic platform failure): the
            # pickle path is always correct, just slower.
            self.stats.broadcast_fallbacks += 1
            return problem
        with self._lock:
            if self._closed or ref.token in self._broadcasts:
                # Lost a publish race with ourselves (same content via a
                # different object) or shut down meanwhile: drop ours.
                for shm in segments:
                    _destroy_segment(shm)
                entry = self._broadcasts.get(ref.token)
                if entry is None:
                    return problem
                self.stats.broadcast_hits += 1
            else:
                entry = _Broadcast(
                    ref=ref,
                    segments=segments,
                    problem=problem,
                    nbytes=problem_nbytes(problem),
                )
                self._broadcasts[ref.token] = entry
                self.stats.publishes += 1
            self._by_id[id(problem)] = ref.token
            return entry.ref

    def broadcast_problem(self, token: str):
        """The source instance of a (possibly released) broadcast."""
        with self._lock:
            entry = self._broadcasts.get(token)
            if entry is not None:
                return entry.problem
            return self._lost.get(token)

    def release_broadcast(self, payload) -> None:
        """Unlink one broadcast's segments (no-op for pickle payloads).

        Callers that know a broadcast instance is done for good — e.g. a
        service evicting a problem — release it explicitly; everything
        else is reclaimed at :meth:`shutdown`.
        """
        token = payload.token if isinstance(payload, ProblemRef) else None
        with self._lock:
            entry = self._broadcasts.pop(token, None) if token else None
            if entry is not None:
                self._by_id.pop(id(entry.problem), None)
                self._lost[token] = entry.problem
        if entry is not None:
            for shm in entry.segments:
                _destroy_segment(shm)

    def task_fallback(self, index: int, task, kind: str, error: str):
        """The supervisor's retry hook: re-ship lost broadcasts by pickle.

        When a task failed because a worker attached after the segments
        were gone (:class:`~repro.instances.shm.BroadcastLost`), the
        retry gets the task with every top-level :class:`ProblemRef`
        element replaced by its source instance — every harness ships
        its instance as such an element, and
        :func:`resolve_task_problem` passes the instance through.  Any
        other failure keeps the original payload — crashes must *not*
        rebroadcast.
        """
        if "BroadcastLost" not in error or not isinstance(task, tuple):
            return None
        replaced = False
        swapped = []
        for element in task:
            if isinstance(element, ProblemRef):
                problem = self.broadcast_problem(element.token)
                if problem is not None:
                    element = problem
                    replaced = True
            swapped.append(element)
        return tuple(swapped) if replaced else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Tear down the pool and unlink every broadcast segment.

        Idempotent.  After shutdown the runtime refuses new pools;
        :func:`get_runtime` builds a fresh instance next time.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool = self._pool
            self._pool = None
            self._pool_size = 0
            entries = list(self._broadcasts.values())
            for entry in entries:
                self._lost[entry.ref.token] = entry.problem
            self._broadcasts.clear()
            self._by_id.clear()
        if pool is not None:
            _close_pool(pool, force=True)
        for entry in entries:
            for shm in entry.segments:
                _destroy_segment(shm)

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _destroy_segment(shm) -> None:
    try:
        shm.close()
    except Exception:  # repro-lint: disable=RL007
        # Best-effort: the segment may already be gone.
        pass
    try:
        shm.unlink()
    except Exception:  # repro-lint: disable=RL007
        # Best-effort: another owner may have unlinked it first.
        pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process cache of attached instances, keyed by broadcast token.
#: Workers are recycled with their pool; entries pin the mapped segments
#: for exactly as long as the attached instance is reachable.
_ATTACHED: dict[str, object] = {}


def resolve_task_problem(payload):
    """Turn a task's problem payload back into a :class:`ProblemInstance`.

    Identity for plain instances (the pickle path); for a
    :class:`~repro.instances.shm.ProblemRef` the segment is attached
    once per process and cached by content hash.  Raises
    :class:`~repro.instances.shm.BroadcastLost` when the parent already
    unlinked the segments — the supervisor's retry hook then re-ships
    the instance by pickle (:meth:`ParallelRuntime.task_fallback`).
    """
    if not isinstance(payload, ProblemRef):
        return payload
    # In the publishing process itself (the resume-verify and packing
    # paths) the registry already holds the source instance — no reason
    # to map a second view of our own segments.  The pid check keeps
    # forked workers off this path: their inherited registry snapshot
    # would bypass shared memory entirely.
    runtime = _global_runtime
    if (
        runtime is not None
        and runtime._pid == os.getpid()
    ):
        problem = runtime.broadcast_problem(payload.token)
        if problem is not None:
            return problem
    cached = _ATTACHED.get(payload.token)
    if cached is not None:
        return cached
    problem = attach_problem(payload)
    _ATTACHED[payload.token] = problem
    return problem


# ----------------------------------------------------------------------
# The process-global runtime
# ----------------------------------------------------------------------

_global_lock = threading.Lock()
_global_runtime: "ParallelRuntime | None" = None


def get_runtime() -> ParallelRuntime:
    """The process-wide runtime, created lazily (atexit-managed)."""
    global _global_runtime
    with _global_lock:
        if _global_runtime is None or _global_runtime._closed:
            _global_runtime = ParallelRuntime()
        return _global_runtime


def shutdown_runtime() -> None:
    """Shut the global runtime down now (idempotent; atexit calls this)."""
    with _global_lock:
        runtime = _global_runtime
    if runtime is not None:
        runtime.shutdown()


atexit.register(shutdown_runtime)
