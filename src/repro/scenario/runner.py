"""Re-optimizing a deployment as its scenario unfolds.

:class:`ScenarioRunner` walks the instance sequence of a
:class:`~repro.scenario.scenario.Scenario` and solves every step through
one :class:`~repro.solvers.base.Solver`.  Step 0 is a cold solve; each
later step is *re-optimized* rather than re-solved: the previous step's
best placement — carried across fleet changes by
:meth:`~repro.scenario.perturbations.StepChange.carry_placement` —
becomes the solver's ``warm_start``.

Warm-started searches converge in a fraction of a cold solve's phases
(``benchmarks/bench_scenario.py`` pins the speedup), and on an
*unchanged* instance they reproduce the cold run bit-for-bit (the
warm-start parity tests), so the runner trades no quality for the
speed.  ``warm=False`` switches to cold re-solves of the identical
instance sequence — the controlled baseline of that benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.anytime.deadline import DEFAULT_CLOCK
from repro.resilience.checkpoint import (
    entropy_payload,
    open_store,
    solve_result_from_dict,
    solve_result_to_dict,
)
from repro.resilience.supervisor import (
    RetryPolicy,
    SupervisionReport,
    retry_call,
)
from repro.scenario.scenario import Scenario, ScenarioStep
from repro.seeding import root_sequence, spawn_children
from repro.solvers.base import SolveResult, Solver

_STEP_FORMAT = "repro.scenario_step.v1"

__all__ = ["ScenarioStepResult", "ScenarioResult", "ScenarioRunner"]


def _validate_budgets(
    budget: "int | None", warm_budget: "int | None", warm_enabled: bool
) -> None:
    """The runner/fleet budget rules — one implementation, one message set."""
    if budget is not None and budget <= 0:
        raise ValueError(
            f"budget must be a positive int or None, got {budget}"
        )
    if warm_budget is not None:
        if warm_budget <= 0:
            raise ValueError(
                "warm_budget must be a positive int or None, "
                f"got {warm_budget}"
            )
        if not warm_enabled:
            raise ValueError(
                "warm_budget only applies to warm-started steps; "
                "with warm=False it would be silently ignored — drop "
                "it or enable warm starts"
            )


@dataclass(frozen=True)
class ScenarioStepResult:
    """One step's re-optimization outcome."""

    step: ScenarioStep
    result: SolveResult
    seconds: float

    @property
    def index(self) -> int:
        """The step's position in the scenario timeline."""
        return self.step.index

    @property
    def event(self) -> str:
        """What changed going into this step."""
        return self.step.event


@dataclass(frozen=True)
class ScenarioResult:
    """A full scenario run: one solved step per instance.

    ``seed`` is the run's reproducibility provenance: the root
    ``SeedSequence.entropy``, recorded uniformly whether the caller
    passed an int or a ``SeedSequence`` (spawned children inherit their
    root's entropy, so fleet replicates all report the fleet seed).
    """

    scenario_name: str
    solver_name: str
    warm: bool
    steps: tuple[ScenarioStepResult, ...]
    seed: "int | tuple | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a scenario result needs at least one step")

    @property
    def n_steps(self) -> int:
        """Number of solved steps (including the initial deployment)."""
        return len(self.steps)

    @property
    def total_evaluations(self) -> int:
        """Evaluations spent across all steps."""
        return sum(step.result.n_evaluations for step in self.steps)

    @property
    def final(self) -> SolveResult:
        """The last step's solve outcome."""
        return self.steps[-1].result

    @property
    def deadline_hits(self) -> int:
        """Steps whose solve was stopped by a deadline or cancellation."""
        return sum(1 for step in self.steps if step.result.stopped_by)

    def reopt_seconds(self) -> float:
        """Wall-clock spent on steps 1..n (the re-optimizations).

        Step 0 is excluded: both warm and cold runs solve it cold, so
        per-step speedup claims compare only the re-optimized steps.
        """
        return sum(step.seconds for step in self.steps[1:])

    def reopt_evaluations(self) -> int:
        """Evaluations spent on steps 1..n (the re-optimizations)."""
        return sum(step.result.n_evaluations for step in self.steps[1:])

    def mean_fitness(self) -> float:
        """Mean best fitness across all steps (solution quality held)."""
        return float(
            np.mean([step.result.best.fitness for step in self.steps])
        )

    def timeline(self) -> list[dict]:
        """Per-step records for reporting and rendering."""
        return [
            {
                "step": step.index,
                "seed": self.seed,
                "event": step.event,
                "giant": step.result.best.giant_size,
                "n_routers": step.result.best.metrics.n_routers,
                "coverage": step.result.best.covered_clients,
                "n_clients": step.result.best.metrics.n_clients,
                "fitness": step.result.best.fitness,
                "phases": step.result.n_phases,
                "evaluations": step.result.n_evaluations,
                "seconds": step.seconds,
                "warm": step.result.warm_started,
                "stopped_by": step.result.stopped_by,
            }
            for step in self.steps
        ]

    def summary(self) -> str:
        """One-line account of the whole run."""
        start = "warm" if self.warm else "cold"
        provenance = "" if self.seed is None else f" seed={self.seed},"
        hits = self.deadline_hits
        deadline = f", {hits} deadline-stopped step(s)" if hits else ""
        return (
            f"[{self.scenario_name} / {self.solver_name} / {start}]"
            f"{provenance} "
            f"{self.n_steps} steps, {self.total_evaluations} evaluations, "
            f"{sum(s.seconds for s in self.steps):.2f}s, "
            f"mean fitness {self.mean_fitness():.4f}{deadline}"
        )


class ScenarioRunner:
    """Drives one solver through a scenario, warm-starting each step.

    Parameters
    ----------
    solver:
        A :class:`~repro.solvers.base.Solver` or a registry spec such as
        ``"tabu:swap"`` (resolved via
        :func:`~repro.solvers.registry.make_solver`).
    budget:
        Per-step effort in the solver's native unit (``None`` keeps the
        solver's default).
    warm_budget:
        Effort for the warm-started steps 1..n; defaults to ``budget``.
        Stall-based solvers stop early on their own once the warm start
        is near-converged, so most runs leave this alone.
    warm:
        ``False`` re-solves every step cold (the benchmark baseline).
    engine / fitness:
        Threaded into every solve, as on :meth:`Solver.solve`.
    policy:
        The :class:`~repro.resilience.supervisor.RetryPolicy` for the
        per-step retry loop (transient step failures — injected or real
        — are retried with backoff; a crashing compiled tier degrades
        that step to the numpy engines).
    """

    def __init__(
        self,
        solver: "Solver | str",
        *,
        budget: "int | None" = None,
        warm_budget: "int | None" = None,
        warm: bool = True,
        engine: str = "auto",
        fitness=None,
        policy: "RetryPolicy | None" = None,
        **solver_kwargs,
    ) -> None:
        if isinstance(solver, str):
            from repro.solvers.registry import make_solver

            solver = make_solver(solver, **solver_kwargs)
        elif solver_kwargs:
            raise ValueError(
                "solver keyword arguments require a registry spec, "
                "not a Solver instance"
            )
        _validate_budgets(budget, warm_budget, warm)
        self.solver = solver
        self.budget = budget
        self.warm_budget = warm_budget if warm_budget is not None else budget
        self.warm = warm
        self.engine = engine
        self.fitness = fitness
        self.policy = policy

    def run(
        self,
        scenario: Scenario,
        *,
        seed: "int | np.random.SeedSequence" = 0,
        checkpoint: "str | None" = None,
        resume_from: "str | None" = None,
        report: "SupervisionReport | None" = None,
    ) -> ScenarioResult:
        """Unfold ``scenario`` and (re-)optimize every step.

        One root seed reproduces everything: its first child drives the
        scenario's perturbations, the second spawns one solve stream per
        step — so warm and cold runs of the same seed see the *same*
        instance sequence and the same per-step solver streams.

        ``checkpoint`` persists every completed step; ``resume_from``
        restores checkpointed steps (re-verifying the first restored one
        against a fresh recompute) and solves only the rest — semantics
        as on :meth:`repro.scenario.fleet.ScenarioFleet.run`, at step
        granularity.
        """
        root = root_sequence(seed)
        unfold_seq, solve_seq = spawn_children(root, 2)
        steps = scenario.unfold(unfold_seq)
        return self.run_steps(
            steps,
            seed=solve_seq,
            scenario_name=scenario.name,
            checkpoint=checkpoint,
            resume_from=resume_from,
            report=report,
        )

    def run_steps(
        self,
        steps: Sequence[ScenarioStep],
        *,
        seed: "int | np.random.SeedSequence" = 0,
        scenario_name: str = "steps",
        checkpoint: "str | None" = None,
        resume_from: "str | None" = None,
        report: "SupervisionReport | None" = None,
    ) -> ScenarioResult:
        """(Re-)optimize an already-unfolded step sequence.

        The solve half of :meth:`run`, split out so several runs can
        share one unfold: the scenario fleet replays the *same* instance
        sequence under many replication seeds (and both warm and cold),
        which is what makes its portfolios controlled comparisons.
        ``seed`` spawns one solve stream per step; the recorded
        provenance is its root entropy, exactly as :meth:`run` records
        the scenario seed.

        With a ``policy``, each step runs under the serial supervision
        loop (:func:`~repro.resilience.supervisor.retry_call`); without
        one, step errors propagate unwrapped as before.  With
        ``checkpoint``/``resume_from``, completed
        steps persist as ``step###`` documents and a resumed walk solves
        only the missing ones.  The warm-start chain survives resume
        because a restored step's best placement is exactly the computed
        one.
        """
        solve_seq = root_sequence(seed)
        step_seeds = spawn_children(solve_seq, len(steps))
        warm_capable = self.warm and self.solver.supports_warm_start
        store = open_store(
            {
                "kind": "scenario-run",
                "scenario": scenario_name,
                "solver": self.solver.name,
                "n_steps": len(steps),
                "seed_entropy": entropy_payload(solve_seq.entropy),
                "budget": self.budget,
                "warm_budget": self.warm_budget,
                "warm": warm_capable,
                "engine": self.engine,
                "fitness": (
                    repr(self.fitness) if self.fitness is not None else None
                ),
            },
            checkpoint=checkpoint,
            resume_from=resume_from,
        )

        results: list[ScenarioStepResult] = []
        previous: "SolveResult | None" = None
        verified_restore = False
        for step, step_seed in zip(steps, step_seeds):
            key = f"step{step.index:03d}"
            restored = store is not None and store.has(key)
            if restored and verified_restore:
                payload = store.load(key)
                result = solve_result_from_dict(payload["result"])
                results.append(
                    ScenarioStepResult(
                        step=step,
                        result=result,
                        seconds=float(payload["seconds"]),
                    )
                )
                previous = result
                continue
            warm_start = None
            if warm_capable and previous is not None:
                warm_start = step.change.carry_placement(
                    previous.best.placement
                )
            budget = (
                self.budget if warm_start is None else self.warm_budget
            )
            # ``deadline`` makes the step cooperatively preemptible:
            # retry_call passes Deadline.after(policy.timeout) when
            # the policy carries one, so RetryPolicy(timeout=) now
            # bounds serial steps exactly like pooled tasks.
            def solve_step(
                step=step,
                step_seed=step_seed,
                budget=budget,
                warm_start=warm_start,
                deadline=None,
            ):
                return self.solver.solve(
                    step.problem,
                    seed=step_seed,
                    budget=budget,
                    warm_start=warm_start,
                    engine=self.engine,
                    fitness=self.fitness,
                    deadline=deadline,
                )

            began = DEFAULT_CLOCK.now()
            if self.policy is None:
                # No policy: exceptions propagate unwrapped — a
                # genuinely broken step should fail loudly, not
                # spend retries on a deterministic error.
                result = solve_step()
            else:
                result = retry_call(
                    solve_step,
                    task=step.index,
                    policy=self.policy,
                    label=(
                        f"{scenario_name}/{self.solver.name} "
                        f"step {step.index}"
                    ),
                    report=report,
                )
            elapsed = DEFAULT_CLOCK.now() - began
            step_result = ScenarioStepResult(
                step=step, result=result, seconds=elapsed
            )
            if store is not None:
                payload = {
                    "format": _STEP_FORMAT,
                    "index": int(step.index),
                    "event": step.event,
                    "seconds": float(elapsed),
                    "result": solve_result_to_dict(result),
                }
                if restored:
                    # The first checkpointed step on a resumed walk
                    # is recomputed and compared, never trusted —
                    # the store-level parity gate.
                    store.verify_cell(key, payload)
                    verified_restore = True
                else:
                    store.save(key, payload)
            results.append(step_result)
            previous = result
        return ScenarioResult(
            scenario_name=scenario_name,
            solver_name=self.solver.name,
            warm=warm_capable,
            steps=tuple(results),
            seed=solve_seq.entropy,
        )
