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

:meth:`ScenarioRunner.run_replicates` is the one re-optimization walk
of the package: R replicate solve streams advance through the steps in
lockstep, one :meth:`~repro.solvers.base.Solver.solve_batch` call per
step.  :meth:`~ScenarioRunner.run_steps` is its one-replicate call, the
scenario fleet runs it once per (cell, arm, shard), and the live loop
(:class:`~repro.anytime.live.LiveRunner`) takes its step seeds, carry
and budget rule from :meth:`~ScenarioRunner.step_seeds` and
:meth:`~ScenarioRunner.plan`.
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
    fitness:
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
        self.check_budgets(budget, warm_budget, warm)
        self.solver = solver
        self.budget = budget
        self.warm_budget = warm_budget if warm_budget is not None else budget
        self.warm = warm
        self.fitness = fitness
        self.policy = policy

    @staticmethod
    def check_budgets(
        budget: "int | None", warm_budget: "int | None", warm: bool
    ) -> None:
        """The budget rules of every scenario driver, one message set."""
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
            if not warm:
                raise ValueError(
                    "warm_budget only applies to warm-started steps; "
                    "with warm=False it would be silently ignored — drop "
                    "it or enable warm starts"
                )

    @staticmethod
    def unfold(
        scenario: Scenario, seed: "int | np.random.SeedSequence"
    ) -> tuple[list[ScenarioStep], np.random.SeedSequence]:
        """The scenario's steps and the solve stream of one root seed.

        The root's first child drives the perturbations, the second is
        the solve stream — so warm, cold and live runs of one seed see
        the *same* instance sequence and per-step solver streams.
        """
        unfold_seq, solve_seq = spawn_children(root_sequence(seed), 2)
        return scenario.unfold(unfold_seq), solve_seq

    @staticmethod
    def step_seeds(
        seed: "int | np.random.SeedSequence", steps: Sequence[ScenarioStep]
    ) -> list[np.random.SeedSequence]:
        """One solve stream per step, by position (not ``step.index``)."""
        if not steps:
            raise ValueError("a scenario run needs at least one step")
        return spawn_children(root_sequence(seed), len(steps))

    def plan(
        self,
        previous: "Sequence[SolveResult] | None",
        changes: Sequence[ScenarioStep],
    ) -> "tuple[list | None, int | None]":
        """``(warm_starts, budget)`` of the next solve.

        ``previous`` holds each replicate's last result (``None`` before
        the first solve); the carry of every step in ``changes`` (one
        step, or a live coalesced run) is composed onto its best
        placement.  Cold solves get ``(None, budget)``.
        """
        if not self._warm_capable or previous is None:
            return None, self.budget
        warm_starts = []
        for result in previous:
            placement = result.best.placement
            for step in changes:
                if step.change is not None:
                    placement = step.change.carry_placement(placement)
            warm_starts.append(placement)
        return warm_starts, self.warm_budget

    @property
    def _warm_capable(self) -> bool:
        return self.warm and self.solver.supports_warm_start

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

        One root seed reproduces everything (see :meth:`unfold`).
        ``checkpoint`` persists every completed step; ``resume_from``
        restores checkpointed steps (re-verifying the first restored one
        against a fresh recompute) and solves only the rest — semantics
        as on :meth:`repro.scenario.fleet.ScenarioFleet.run`, at step
        granularity.
        """
        steps, solve_seq = self.unfold(scenario, seed)
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
        the scenario seed.  The one-replicate :meth:`run_replicates`.
        """
        [result] = self.run_replicates(
            steps,
            [seed],
            scenario_name=scenario_name,
            checkpoint=checkpoint,
            resume_from=resume_from,
            report=report,
        )
        return result

    def run_replicates(
        self,
        steps: Sequence[ScenarioStep],
        seeds: Sequence["int | np.random.SeedSequence"],
        *,
        scenario_name: str = "steps",
        checkpoint: "str | None" = None,
        resume_from: "str | None" = None,
        report: "SupervisionReport | None" = None,
    ) -> list[ScenarioResult]:
        """Walk ``steps`` once per replicate seed, replicates in lockstep.

        Replicate ``r`` solves step ``i`` on ``step_seeds(seeds[r],
        steps)[i]``, warm-started from its own previous best
        (:meth:`plan`).  Each step solves all replicates in one
        :meth:`Solver.solve_batch` call — one stacked engine pass per
        phase for lockstep families, the same results at any batch size
        — and ``seconds`` is that call's wall-clock per replicate.

        With a ``policy``, each step's batch runs under the serial
        supervision loop (:func:`~repro.resilience.supervisor.retry_call`);
        without one, step errors propagate unwrapped.  With
        ``checkpoint``/``resume_from`` (one replicate only), completed
        steps persist as ``step###`` documents and a resumed walk solves
        only the missing ones; the first restored step is recomputed and
        compared, never trusted.  The warm-start chain survives resume
        because a restored step's best placement is exactly the computed
        one.
        """
        streams = [root_sequence(seed) for seed in seeds]
        seed_grid = [self.step_seeds(stream, steps) for stream in streams]
        checkpointed = checkpoint is not None or resume_from is not None
        if checkpointed and len(streams) != 1:
            raise ValueError("step checkpoints need exactly one replicate")
        store = open_store(
            {
                "kind": "scenario-run",
                "scenario": scenario_name,
                "solver": self.solver.name,
                "n_steps": len(steps),
                "seed_entropy": entropy_payload(streams[0].entropy),
                "budget": self.budget,
                "warm_budget": self.warm_budget,
                "warm": self._warm_capable,
                "fitness": (
                    repr(self.fitness) if self.fitness is not None else None
                ),
            },
            checkpoint=checkpoint,
            resume_from=resume_from,
        )

        walks: list[list[ScenarioStepResult]] = [[] for _ in streams]
        previous: "list[SolveResult] | None" = None
        verified_restore = False
        for position, step in enumerate(steps):
            key = f"step{step.index:03d}"
            restored = store is not None and store.has(key)
            if restored and verified_restore:
                payload = store.load(key)
                result = solve_result_from_dict(payload["result"])
                walks[0].append(
                    ScenarioStepResult(
                        step=step,
                        result=result,
                        seconds=float(payload["seconds"]),
                    )
                )
                previous = [result]
                continue
            warm_starts, budget = self.plan(previous, (step,))
            step_seeds = [grid[position] for grid in seed_grid]

            # ``deadline`` makes the step cooperatively preemptible:
            # retry_call passes Deadline.after(policy.timeout) when the
            # policy carries one.
            def solve_step(deadline=None):
                return self.solver.solve_batch(
                    step.problem,
                    step_seeds,
                    budget=budget,
                    warm_starts=warm_starts,
                    fitness=self.fitness,
                    deadline=deadline,
                )

            began = DEFAULT_CLOCK.now()
            if self.policy is None:
                # No policy: exceptions propagate unwrapped — a
                # genuinely broken step should fail loudly, not
                # spend retries on a deterministic error.
                results = solve_step()
            else:
                results = retry_call(
                    solve_step,
                    task=step.index,
                    policy=self.policy,
                    label=(
                        f"{scenario_name}/{self.solver.name} "
                        f"step {step.index}"
                    ),
                    report=report,
                )
            seconds = (DEFAULT_CLOCK.now() - began) / len(streams)
            if store is not None:
                payload = {
                    "format": _STEP_FORMAT,
                    "index": int(step.index),
                    "event": step.event,
                    "seconds": float(seconds),
                    "result": solve_result_to_dict(results[0]),
                }
                if restored:
                    store.verify_cell(key, payload)
                    verified_restore = True
                else:
                    store.save(key, payload)
            for walk, result in zip(walks, results):
                walk.append(
                    ScenarioStepResult(step=step, result=result, seconds=seconds)
                )
            previous = results
        return [
            ScenarioResult(
                scenario_name=scenario_name,
                solver_name=self.solver.name,
                warm=self._warm_capable,
                steps=tuple(walk),
                seed=stream.entropy,
            )
            for walk, stream in zip(walks, streams)
        ]
