"""Deterministic fault injection for the supervised execution layer.

Testing recovery paths needs *reproducible* failures: a worker that dies
on exactly task 2's first attempt, a shard that hangs for exactly half a
second, a kernel that segfaults only while the compiled tier is active.
A :class:`FaultPlan` encodes such a schedule; the supervised runner
consults it before executing every task attempt, in the process that
will run the task.

Plans are plain strings so they travel through the environment into pool
workers unchanged::

    REPRO_FAULT_INJECT="kill@0,poison@1:2,delay@2:0.5,crash-compiled@3"

Grammar: comma-separated ``kind@index[:param]`` entries.

* ``kill@i[:n]`` — hard worker death on task ``i`` (``os._exit`` in a
  pool worker, :class:`InjectedCrash` when running in-process); fires on
  the first ``n`` attempts (default 1), so a retried attempt succeeds.
* ``poison@i[:n]`` — raises :class:`InjectedFault` (an ordinary task
  error) on the first ``n`` attempts.  ``n`` larger than the retry
  budget forces retry exhaustion.
* ``delay@i[:seconds]`` — sleeps (default 1.0 s) on every attempt; pair
  with a per-task timeout to exercise hung-worker handling.
* ``crash-compiled@i`` — dies like ``kill`` on **every** attempt made
  while the compiled engine tier is enabled, and never once supervision
  has degraded the task to ``REPRO_COMPILED=0`` — the deterministic
  stand-in for a segfaulting kernel build.

Because a fault fires as a function of ``(task index, attempt,
degraded)`` only, an injected run's *recovery* is deterministic: retries
draw nothing from any result stream, so the recovered results are
bit-identical to a fault-free run (asserted by
``tests/resilience/test_supervisor.py``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro import envgates

__all__ = [
    "FAULT_ENV",
    "Fault",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "active_plan",
    "inject",
]

#: The environment variable a plan travels through (parent -> workers).
FAULT_ENV = "REPRO_FAULT_INJECT"

#: Exit code of an injected hard worker death — distinctive in CI logs.
_KILL_EXIT_CODE = 73

_KINDS = ("kill", "poison", "delay", "crash-compiled")


class InjectedFault(RuntimeError):
    """An injected ordinary task failure (the ``poison`` kind)."""


class InjectedCrash(RuntimeError):
    """An injected worker death, simulated in-process.

    Pool workers really die (``os._exit``); serial execution raises this
    instead so the supervisor's crash classification — and its
    compiled-tier degradation — can be exercised without a pool.
    """


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: ``kind`` on task ``index`` with ``param``.

    ``param`` is the attempt count for ``kill``/``poison`` and the sleep
    seconds for ``delay``; ``crash-compiled`` ignores it.
    """

    kind: str
    index: int
    param: float

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(_KINDS)}"
            )
        if self.index < 0:
            raise ValueError(f"fault index must be >= 0, got {self.index}")
        if self.param <= 0:
            raise ValueError(f"fault param must be positive, got {self.param}")

    def fires(self, attempt: int, degraded: bool) -> bool:
        """Whether this fault triggers on the given task attempt."""
        if self.kind == "crash-compiled":
            return not degraded and envgates.compiled_enabled()
        if self.kind == "delay":
            return True
        return attempt < int(self.param)

    def to_entry(self) -> str:
        """The ``kind@index[:param]`` form :meth:`FaultPlan.parse` reads."""
        if self.kind == "crash-compiled":
            return f"{self.kind}@{self.index}"
        if self.kind == "delay":
            return f"{self.kind}@{self.index}:{self.param:g}"
        param = int(self.param)
        if param == 1:
            return f"{self.kind}@{self.index}"
        return f"{self.kind}@{self.index}:{param}"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults, keyed by task index."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``kind@index[:param]`` comma list (see module doc)."""
        faults = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            kind, at, rest = entry.partition("@")
            if not at:
                raise ValueError(
                    f"bad fault entry {entry!r}: expected kind@index[:param]"
                )
            index_text, colon, param_text = rest.partition(":")
            try:
                index = int(index_text)
            except ValueError:
                raise ValueError(
                    f"bad fault entry {entry!r}: index {index_text!r} is "
                    "not an integer"
                ) from None
            if colon:
                try:
                    param = float(param_text)
                except ValueError:
                    raise ValueError(
                        f"bad fault entry {entry!r}: param {param_text!r} "
                        "is not a number"
                    ) from None
            else:
                param = 1.0
            faults.append(Fault(kind=kind.strip(), index=index, param=param))
        return cls(faults=tuple(faults))

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_tasks: int,
        rate: float = 0.25,
        kinds: tuple[str, ...] = ("kill", "poison"),
    ) -> "FaultPlan":
        """A reproducible random schedule: ``seed`` fixes the victims.

        Each task index independently receives one fault with
        probability ``rate``; the kind cycles through ``kinds`` on the
        same stream.  The point is CI chaos runs that are still exactly
        re-runnable: the same seed always injects the same schedule.
        """
        if n_tasks <= 0:
            raise ValueError(f"n_tasks must be positive, got {n_tasks}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if not kinds:
            raise ValueError("seeded plans need at least one fault kind")
        rng = np.random.default_rng(seed)
        faults = []
        for index in range(n_tasks):
            if rng.random() >= rate:
                continue
            kind = kinds[int(rng.integers(len(kinds)))]
            param = 0.25 if kind == "delay" else 1.0
            faults.append(Fault(kind=kind, index=index, param=param))
        return cls(faults=tuple(faults))

    def to_spec(self) -> str:
        """The environment-variable form; ``parse`` round-trips it."""
        return ",".join(fault.to_entry() for fault in self.faults)

    def faults_for(self, index: int) -> tuple[Fault, ...]:
        """The scheduled faults of one task index, in plan order."""
        return tuple(fault for fault in self.faults if fault.index == index)

    def __bool__(self) -> bool:
        return bool(self.faults)


#: Per-process parse cache: workers consult the plan on every task, the
#: spec string almost never changes.
_plan_cache: "tuple[str, FaultPlan] | None" = None

_EMPTY_PLAN = FaultPlan()


def active_plan() -> FaultPlan:
    """The plan in :data:`FAULT_ENV`, or an empty plan when unset.

    Read live (never cached across value changes) so tests and CI can
    flip the variable between runs; workers inherit it at fork.
    """
    global _plan_cache
    spec = envgates.fault_spec()
    if not spec:
        return _EMPTY_PLAN
    if _plan_cache is not None and _plan_cache[0] == spec:
        return _plan_cache[1]
    plan = FaultPlan.parse(spec)
    _plan_cache = (spec, plan)
    return plan


def inject(
    index: int,
    attempt: int,
    *,
    degraded: bool = False,
    in_process: bool = True,
    plan: "FaultPlan | None" = None,
) -> None:
    """Fire the scheduled faults of one task attempt, if any.

    Called by the supervised runner in the process about to execute the
    task.  ``in_process`` selects kill semantics: a pool worker really
    exits, an in-process (serial) run raises :class:`InjectedCrash` so
    the supervising loop survives to retry.  Delays happen before any
    raising fault so a ``delay`` + ``kill`` schedule hangs *then* dies,
    like real stuck-worker crashes do.
    """
    plan = active_plan() if plan is None else plan
    if not plan:
        return
    faults = [
        fault
        for fault in plan.faults_for(index)
        if fault.fires(attempt, degraded)
    ]
    for fault in faults:
        if fault.kind == "delay":
            time.sleep(fault.param)
    for fault in faults:
        if fault.kind == "poison":
            raise InjectedFault(
                f"injected poison on task {index} attempt {attempt}"
            )
        if fault.kind in ("kill", "crash-compiled"):
            if in_process:
                raise InjectedCrash(
                    f"injected {fault.kind} on task {index} attempt {attempt}"
                )
            os._exit(_KILL_EXIT_CODE)
