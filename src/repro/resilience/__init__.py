"""Fault-tolerant execution: supervision, retry, checkpoint, fault injection.

The ``workers=`` harnesses (replication and the scenario fleet) fan
deterministic shard tasks over a process pool.  The
pool alone is brittle: one segfaulting kernel raises
``BrokenProcessPool`` and loses the whole grid, a hung worker stalls it
forever, and an interrupted long run restarts from zero.  This package
is the robustness layer the production roadmap items (placement service,
streaming re-optimization) sit on:

* :mod:`repro.resilience.supervisor` — a supervised pool with per-task
  timeouts, crash detection, bounded retry with exponential backoff +
  deterministic jitter, and graceful degradation of crashed shards to
  the numpy engines (``REPRO_COMPILED=0``).  Safe because every shard
  is deterministic per seed: a re-run shard returns bit-identical rows.
* :mod:`repro.resilience.checkpoint` — atomic JSON checkpoints with a
  seed-provenance manifest, so fleets, replications and scenario runs
  persist completed cells and ``resume_from=`` skips them (with a
  parity re-verification of one completed cell).
* :mod:`repro.resilience.faults` — a deterministic, seedable fault
  injector (kill / delay / poison specific task indices), activatable
  through ``REPRO_FAULT_INJECT`` so CI can prove the recovery paths.

The determinism contract of :mod:`repro.parallel` is what makes all of
this *verifiable* rather than hopeful: because shard results depend only
on their seeds, recovery can be asserted bit-identical to a fault-free
serial run — and the test suite does exactly that.
"""

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
from repro.resilience.faults import (
    FAULT_ENV,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    active_plan,
    inject,
)
from repro.resilience.supervisor import (
    RetryExhaustedError,
    RetryPolicy,
    SupervisionReport,
    TaskFailure,
    retry_call,
    run_supervised,
)

__all__ = [
    "CheckpointError",
    "CheckpointParityError",
    "CheckpointStore",
    "FAULT_ENV",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "RetryExhaustedError",
    "RetryPolicy",
    "SupervisionReport",
    "TaskFailure",
    "active_plan",
    "inject",
    "open_store",
    "retry_call",
    "run_supervised",
    "scenario_result_from_dict",
    "scenario_result_to_dict",
    "solve_result_from_dict",
    "solve_result_to_dict",
    "stable_scenario_dict",
]
