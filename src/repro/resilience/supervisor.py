"""The supervised process pool behind every ``workers=`` harness.

A bare ``ProcessPoolExecutor`` fails catastrophically: one worker death
marks the pool broken and every in-flight future — a whole replication
grid — raises ``BrokenProcessPool``; a hung kernel blocks ``pool.map``
forever.  :func:`run_supervised` replaces that with bounded, *verified*
recovery built on the repository's determinism contract
(:mod:`repro.parallel`): every task is a pure function of its payload
(seeds included), so re-running a failed task — and only that task —
reproduces exactly the rows the lost worker would have returned.
Executors come from a pool provider — the process-wide
:class:`~repro.parallel.runtime.ParallelRuntime` unless the caller
passes its own — so a warm pool serves every round and every call.

Failure handling, per task attempt:

* **Errors** (an exception raised inside the task) are retried up to
  ``policy.max_retries`` times with exponential backoff plus
  deterministic jitter.
* **Crashes** (worker process death) break the pool; completed results
  are kept, a fresh pool is built, and only the unfinished tasks are
  resubmitted.  Any task in flight during the crash counts one attempt.
* **Timeouts** (``policy.timeout`` seconds without a result) abandon the
  pool — a hung worker cannot be joined — and retry the stuck task in a
  fresh one.  The budget is generous by construction: it is measured
  from the moment supervision starts *waiting* on that task's future,
  never shorter than the configured value.  Serial execution cannot
  preempt a hung call, so ``timeout`` only applies under ``workers>1``.
* **Degradation**: after a crash or timeout, the retry runs with
  ``REPRO_COMPILED=0`` when the compiled tier was enabled — a
  segfaulting or deadlocked kernel build degrades that shard to the
  bit-identical numpy engines instead of killing the run.  The
  downgrade is reported through a ``RuntimeWarning`` and the
  :class:`SupervisionReport`.
* **Exhaustion** raises :class:`RetryExhaustedError` carrying the
  task's label — callers pass shard/seed identity in ``labels`` so the
  error names exactly which seeds were lost.

Fault injection (:mod:`repro.resilience.faults`) hooks in at the start
of every attempt, in the executing process, which is how the test suite
and the CI ``fault-injection`` job drive each of these paths
deterministically.
"""

from __future__ import annotations

import inspect
import os
import time
import warnings
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro import envgates
from repro.resilience.faults import FAULT_ENV, InjectedCrash, inject

__all__ = [
    "RetryPolicy",
    "TaskFailure",
    "SupervisionReport",
    "RetryExhaustedError",
    "backoff_seconds",
    "retry_call",
    "run_supervised",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor reacts to task failures.

    ``max_retries`` bounds the *extra* attempts per task (0 disables
    retry entirely).  ``timeout`` is the per-task wall-clock budget in
    seconds (``None`` waits forever).  Under a pool an overrunning task
    is abandoned and retried in a fresh pool; serially it is enforced
    *cooperatively* — when the callable accepts a ``deadline=`` keyword
    it receives ``Deadline.after(timeout)`` per attempt and stops
    itself at the next phase boundary, returning its best-so-far (see
    :func:`retry_call`; a callable without the keyword cannot be
    preempted and keeps the old unbounded behavior).  Backoff before
    retry round ``k``
    sleeps ``backoff * backoff_factor**k`` seconds, capped at
    ``max_backoff`` and stretched by up to ``jitter`` (fractional),
    drawn deterministically from ``seed`` — supervision never perturbs
    any result stream.  ``degrade_compiled`` enables the crash/timeout
    downgrade to ``REPRO_COMPILED=0`` described in the module docstring.
    """

    max_retries: int = 3
    timeout: "float | None" = None
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.25
    degrade_compiled: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be positive or None, got {self.timeout}"
            )
        if self.backoff < 0 or self.backoff_factor < 1 or self.max_backoff < 0:
            raise ValueError(
                "backoff must be >= 0, backoff_factor >= 1 and "
                f"max_backoff >= 0, got ({self.backoff}, "
                f"{self.backoff_factor}, {self.max_backoff})"
            )
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


@dataclass(frozen=True)
class TaskFailure:
    """One recorded failure: which task, which attempt, what happened."""

    task: int
    attempt: int
    kind: str  # "error" | "crash" | "timeout"
    error: str
    label: "str | None" = None

    def describe(self) -> str:
        """Human-readable one-liner naming the shard."""
        who = self.label if self.label else f"task {self.task}"
        return f"{who} [{self.kind} on attempt {self.attempt}] {self.error}"


@dataclass
class SupervisionReport:
    """What supervision had to do during one run.

    Empty after a fault-free run.  Callers pass an instance into
    :func:`run_supervised` (or the harness layers above it) to surface
    recovery activity — the CLI prints :meth:`summary` when non-empty.
    """

    failures: list[TaskFailure] = field(default_factory=list)
    degraded: set[int] = field(default_factory=set)

    @property
    def n_failures(self) -> int:
        """Total recorded failures (every failed attempt counts one)."""
        return len(self.failures)

    def kinds(self) -> dict[str, int]:
        """Failure counts per kind, in first-seen order."""
        counts: dict[str, int] = {}
        for failure in self.failures:
            counts[failure.kind] = counts.get(failure.kind, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line account, e.g. for CLI stderr."""
        if not self.failures and not self.degraded:
            return "[supervision] clean run: no failures"
        kinds = ", ".join(
            f"{count} {kind}" for kind, count in self.kinds().items()
        )
        parts = [f"[supervision] {self.n_failures} failure(s) ({kinds})"]
        if self.degraded:
            tasks = ", ".join(str(task) for task in sorted(self.degraded))
            parts.append(
                f"{len(self.degraded)} shard(s) degraded to numpy "
                f"engines (tasks {tasks})"
            )
        return "; ".join(parts)


class RetryExhaustedError(RuntimeError):
    """A task failed on every allowed attempt.

    Carries the shard identity (``label``, as passed by the harness —
    scenario/solver/seed coordinates), the attempt count and the last
    error, so a lost grid cell is nameable and individually re-runnable.
    """

    def __init__(
        self,
        task: int,
        attempts: int,
        last_error: str,
        label: "str | None" = None,
    ) -> None:
        self.task = task
        self.attempts = attempts
        self.last_error = last_error
        self.label = label
        who = label if label else f"task {task}"
        super().__init__(
            f"{who} failed on all {attempts} attempt(s); last error: "
            f"{last_error}"
        )


def backoff_seconds(policy: RetryPolicy, round_index: int) -> float:
    """Deterministic backoff before retry round ``round_index`` (0-based).

    Exponential growth, capped, with jitter drawn from a generator
    seeded by ``(policy.seed, round_index)`` — reproducible, and never
    touching global RNG state.
    """
    base = policy.backoff * policy.backoff_factor**round_index
    base = min(base, policy.max_backoff)
    if base and policy.jitter:
        draw = np.random.default_rng((policy.seed, round_index)).random()
        base *= 1.0 + policy.jitter * draw
    return base


@contextmanager
def _degraded_env(active: bool):
    """Force ``REPRO_COMPILED=0`` for the duration of one task attempt.

    The compiled tier reads the gate live (``engine="auto"`` resolves
    per call), so flipping the variable in the executing process is the
    whole downgrade; restoring it afterwards keeps a reused pool worker
    from silently degrading later tasks.  Engines are bit-identical, so
    the flag only ever changes speed, never results.
    """
    if not active:
        yield
        return
    prior = envgates.raw("REPRO_COMPILED")
    os.environ["REPRO_COMPILED"] = "0"
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop("REPRO_COMPILED", None)
        else:
            os.environ["REPRO_COMPILED"] = prior


def _compiled_enabled() -> bool:
    return envgates.compiled_enabled()


#: Environment the parent snapshots into every task payload.  Persistent
#: pool workers fork *once* and are reused across calls, so variables
#: the caller (or a test) flips after pool creation — fault plans, the
#: compiled-tier gate — would otherwise be stale inside the worker.
_SNAPSHOT_VARS = (FAULT_ENV, "REPRO_COMPILED")


def _env_snapshot() -> dict:
    """The parent-side values of :data:`_SNAPSHOT_VARS`, at submit time."""
    return {name: envgates.raw(name) for name in _SNAPSHOT_VARS}


@contextmanager
def _applied_env(snapshot: "dict | None"):
    """Impose the parent's env snapshot for one task attempt."""
    if not snapshot:
        yield
        return
    prior = {name: os.environ.get(name) for name in snapshot}
    for name, value in snapshot.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    try:
        yield
    finally:
        for name, value in prior.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _supervised_call(payload):
    """One task attempt inside a pool worker (top-level: pickling)."""
    runner, task, index, attempt, degraded, env = payload
    with _applied_env(env), _degraded_env(degraded):
        inject(index, attempt, degraded=degraded, in_process=False)
        return runner(task)


def _record(
    report: "SupervisionReport | None", failure: TaskFailure
) -> None:
    if report is not None:
        report.failures.append(failure)


def _mark_degraded(
    report: "SupervisionReport | None",
    task: int,
    label: "str | None",
    kind: str,
) -> None:
    if report is not None:
        report.degraded.add(task)
    who = label if label else f"task {task}"
    warnings.warn(
        f"{who} hit a {kind} under supervision; retrying with "
        "REPRO_COMPILED=0 (numpy engines, identical results)",
        RuntimeWarning,
        stacklevel=3,
    )


def _accepts_deadline(fn: Callable) -> bool:
    """Whether ``fn`` can receive a ``deadline=`` keyword argument."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if parameter.name == "deadline" and parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


def retry_call(
    fn: Callable[..., object],
    *,
    task: int = 0,
    policy: "RetryPolicy | None" = None,
    label: "str | None" = None,
    report: "SupervisionReport | None" = None,
):
    """Run ``fn`` under the serial retry/degradation loop.

    The in-process half of the supervisor, shared by serial
    :func:`run_supervised` execution and by step-level callers like
    :class:`~repro.scenario.runner.ScenarioRunner`: fault injection
    fires per attempt (``task`` keys the fault plan), injected crashes
    degrade to the numpy engines exactly like real pool crashes, and
    exhaustion raises :class:`RetryExhaustedError` with the label.

    ``policy.timeout`` is enforced cooperatively: when ``fn`` accepts a
    ``deadline=`` keyword, every attempt receives a fresh
    ``Deadline.after(policy.timeout)`` and is expected to stop itself
    at its next phase boundary (an anytime solve returns its tracked
    best with ``stopped_by="deadline"`` — a *successful* attempt, so no
    retry fires).  This makes the serial path honor the same budget the
    pool path enforces by abandoning workers; the semantic difference —
    truncate-and-keep versus abandon-and-retry — is inherent to
    cooperative cancellation.
    """
    policy = policy if policy is not None else RetryPolicy()
    pass_deadline = policy.timeout is not None and _accepts_deadline(fn)
    attempt = 0
    degraded = False
    while True:
        try:
            with _degraded_env(degraded):
                inject(task, attempt, degraded=degraded, in_process=True)
                if pass_deadline:
                    # Deferred import: repro.anytime is a leaf package,
                    # but keep the hot no-timeout path import-free.
                    from repro.anytime.deadline import Deadline

                    return fn(deadline=Deadline.after(policy.timeout))
                return fn()
        except Exception as exc:  # noqa: BLE001 — supervision boundary
            kind = "crash" if isinstance(exc, InjectedCrash) else "error"
            _record(
                report,
                TaskFailure(
                    task=task,
                    attempt=attempt,
                    kind=kind,
                    error=repr(exc),
                    label=label,
                ),
            )
            attempt += 1
            if attempt > policy.max_retries:
                raise RetryExhaustedError(
                    task=task,
                    attempts=attempt,
                    last_error=repr(exc),
                    label=label,
                ) from exc
            if (
                kind == "crash"
                and policy.degrade_compiled
                and not degraded
                and _compiled_enabled()
            ):
                degraded = True
                _mark_degraded(report, task, label, kind)
            delay = backoff_seconds(policy, attempt - 1)
            if delay:
                time.sleep(delay)


def run_supervised(
    runner: Callable[[object], object],
    tasks: Sequence,
    *,
    workers: "int | None" = None,
    policy: "RetryPolicy | None" = None,
    labels: "Sequence[str] | None" = None,
    on_result: "Callable[[int, object], None] | None" = None,
    report: "SupervisionReport | None" = None,
    pool_provider: object = None,
) -> list:
    """Run every task to completion (or exhaustion); results in order.

    ``runner`` must be a top-level function and tasks picklable when
    ``workers > 1`` (the :mod:`repro.parallel` contract).  ``labels``
    optionally names each task for error messages and the report;
    ``on_result(index, value)`` fires in the parent as each task
    completes — completion order under a pool, task order serially —
    which is the checkpoint layer's persistence hook.  Failed tasks are
    retried per ``policy``; results already completed are never
    recomputed.  Raises :class:`RetryExhaustedError` when a task runs
    out of attempts (results completed by then have already been
    delivered to ``on_result``).

    ``pool_provider`` supplies executors (``acquire_pool(workers)`` /
    ``release_pool(pool, dirty=...)``) and rewrites failed tasks before
    resubmission (``task_fallback(index, task, kind, error)``, the
    broadcast-loss hook).  ``None`` means the process-wide
    :class:`~repro.parallel.runtime.ParallelRuntime`, which keeps one
    warm pool across calls; a crash or timeout releases the pool
    *dirty* — its processes are terminated and the next round rebuilds
    — so no broken worker is ever reused.
    """
    policy = policy if policy is not None else RetryPolicy()
    if workers is not None and workers < 1:
        raise ValueError(
            f"workers must be a positive int or None, got {workers}"
        )
    if labels is not None and len(labels) != len(tasks):
        raise ValueError(f"{len(labels)} labels for {len(tasks)} tasks")
    n = len(tasks)
    results: list = [None] * n
    if n == 0:
        return results

    def label_of(index: int) -> "str | None":
        return labels[index] if labels is not None else None

    if workers is None or workers == 1:
        for index, task in enumerate(tasks):
            value = retry_call(
                lambda runner=runner, task=task: runner(task),
                task=index,
                policy=policy,
                label=label_of(index),
                report=report,
            )
            results[index] = value
            if on_result is not None:
                on_result(index, value)
        return results

    if pool_provider is None:
        # Deferred import: repro.parallel imports this module at load
        # time, so the runtime can only be reached lazily from here.
        from repro.parallel.runtime import get_runtime

        pool_provider = get_runtime()
    tasks = list(tasks)
    attempts = [0] * n
    degraded = [False] * n
    pending = list(range(n))
    round_index = 0
    while pending:
        pool = pool_provider.acquire_pool(min(workers, len(pending)))
        env = _env_snapshot()
        futures = []
        unsubmitted: list[int] = []
        for position, index in enumerate(pending):
            try:
                futures.append(
                    (
                        index,
                        pool.submit(
                            _supervised_call,
                            (runner, tasks[index], index, attempts[index],
                             degraded[index], env),
                        ),
                    )
                )
            except BrokenProcessPool:
                # A warm pool can lose a worker between calls and only
                # reveal it at submit time; classify the unsubmitted
                # tail as crashed and let the retry round rebuild.
                unsubmitted = pending[position:]
                break
        failed: list[tuple[int, str, str]] = []
        dirty = bool(unsubmitted)
        for index, future in futures:
            try:
                value = future.result(timeout=policy.timeout)
            except FuturesTimeoutError:
                dirty = True
                failed.append(
                    (
                        index,
                        "timeout",
                        f"no result within {policy.timeout:g}s",
                    )
                )
                continue
            except BrokenProcessPool:
                dirty = True
                failed.append(
                    (index, "crash", "worker process died (BrokenProcessPool)")
                )
                continue
            except CancelledError:
                dirty = True
                failed.append((index, "crash", "future cancelled"))
                continue
            except Exception as exc:  # noqa: BLE001 — supervision boundary
                failed.append((index, "error", repr(exc)))
                continue
            results[index] = value
            if on_result is not None:
                on_result(index, value)
        for index in unsubmitted:
            failed.append(
                (index, "crash", "worker process died (BrokenProcessPool)")
            )
        pool_provider.release_pool(pool, dirty=dirty)

        pending = []
        for index, kind, error in failed:
            _record(
                report,
                TaskFailure(
                    task=index,
                    attempt=attempts[index],
                    kind=kind,
                    error=error,
                    label=label_of(index),
                ),
            )
            attempts[index] += 1
            if attempts[index] > policy.max_retries:
                raise RetryExhaustedError(
                    task=index,
                    attempts=attempts[index],
                    last_error=error,
                    label=label_of(index),
                )
            if (
                kind in ("crash", "timeout")
                and policy.degrade_compiled
                and not degraded[index]
                and _compiled_enabled()
            ):
                degraded[index] = True
                _mark_degraded(report, index, label_of(index), kind)
            replacement = pool_provider.task_fallback(
                index, tasks[index], kind, error
            )
            if replacement is not None:
                tasks[index] = replacement
            pending.append(index)
        if pending:
            delay = backoff_seconds(policy, round_index)
            if delay:
                time.sleep(delay)
        round_index += 1
    return results
