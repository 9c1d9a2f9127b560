"""Scenario-fleet portfolios: every (scenario, solver, seed) triple at once.

The paper's evaluation is statistical — distributions over many seeds,
not single runs — and the dynamic-scenario subsystem deserves the same
treatment: *does warm-start re-optimization stay robust across scenario
regimes, solver families and replication seeds?*  Answering that with
:class:`~repro.scenario.runner.ScenarioRunner` alone means a hand-rolled
serial loop over every triple.  :class:`ScenarioFleet` runs the whole
grid instead:

* **Deterministic sharding** — one root ``SeedSequence`` spawns one
  child per (scenario, solver) cell; each cell splits into an *unfold*
  stream (shared by every replicate, so all seeds of a cell re-optimize
  the **same** instance sequence — the controlled-comparison layout of
  the replication harness) and ``n_seeds`` per-replicate solve streams.
  Warm and cold arms reuse the same cell seeds, so a warm/cold delta is
  never an instance artifact.
* **Lockstep steps** — each (cell, arm, shard) task builds the cell's
  :class:`~repro.scenario.runner.ScenarioRunner` and runs its one walk,
  :meth:`~repro.scenario.runner.ScenarioRunner.run_replicates`, on the
  shard's replicate streams: per scenario step, one
  :meth:`~repro.solvers.base.Solver.solve_batch` call re-optimizes every
  replicate (the search family measures all chains' candidates in one
  stacked engine pass), with the runner's per-step warm-start carry.
* **Process fan-out** — ``workers=`` shards each cell's replicates over
  a pool through the shared sharded grid walk
  (:func:`repro.parallel.run_sharded`), which also restores, verifies
  and persists checkpointed triples.

Because every replicate's streams are parent-derived and consumed only
by that replicate, the per-triple results are **bit-identical** to
``ScenarioRunner.run_steps`` on the same seeds at any worker count —
asserted by ``tests/scenario/test_fleet.py``, and the speedup over that
serial loop is pinned by ``benchmarks/bench_scenario_fleet.py``.

The outcome is a :class:`FleetReport`: per-(scenario, solver) mean/std
fitness tables, per-event recovery curves, and warm-vs-cold regret —
the aggregation layer the CLI ``scenario-fleet`` subcommand and
:func:`repro.viz.timeline.render_fleet_report` print.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.parallel import (
    check_grid,
    get_runtime,
    resolve_task_problem,
    run_sharded,
)
from repro.resilience.checkpoint import (
    RestoredStep,
    entropy_payload,
    open_store,
    scenario_result_from_dict,
    scenario_result_to_dict,
)
from repro.resilience.supervisor import RetryPolicy, SupervisionReport
from repro.scenario.runner import ScenarioResult, ScenarioRunner
from repro.scenario.scenario import Scenario
from repro.seeding import root_sequence, spawn_children
from repro.solvers.base import Solver

__all__ = ["FleetRun", "FleetReport", "ScenarioFleet", "fleet_seed_grid"]


def fleet_seed_grid(
    seed: "int | np.random.SeedSequence", n_cells: int, n_seeds: int
) -> list[tuple[np.random.SeedSequence, list[np.random.SeedSequence]]]:
    """The fleet's deterministic seed layout, exposed for parity checks.

    One root spawns ``n_cells`` children (scenario-major (scenario,
    solver) cells); each cell child splits into ``(unfold, solve)`` and
    the solve stream spawns one ``SeedSequence`` per replicate.  Every
    layer is pure ``SeedSequence.spawn`` arithmetic, so any shard of the
    grid can be reproduced in any process from the root seed alone —
    and a serial :meth:`~repro.scenario.runner.ScenarioRunner.run_steps`
    loop over the returned sequences is the fleet's exact reference
    execution.
    """
    root = root_sequence(seed)
    grid = []
    for cell in spawn_children(root, n_cells):
        unfold_seq, solve_seq = spawn_children(cell, 2)
        grid.append((unfold_seq, spawn_children(solve_seq, n_seeds)))
    return grid


@dataclass(frozen=True)
class FleetRun:
    """One solved (scenario, solver, replicate) triple of the grid."""

    scenario: str
    solver: str
    warm: bool
    replicate: int
    result: ScenarioResult

    @property
    def seed(self):
        """Root-entropy provenance of this triple (see ``ScenarioResult.seed``)."""
        return self.result.seed

    @property
    def arm(self) -> str:
        """``"warm"`` or ``"cold"`` — the re-optimization mode."""
        return "warm" if self.warm else "cold"


@dataclass(frozen=True)
class FleetReport:
    """Aggregation layer over a full fleet run.

    ``runs`` is ordered scenario-major, then solver, then arm (warm
    before cold), then replicate — the same order the grid executes in.
    """

    runs: tuple[FleetRun, ...]
    n_seeds: int

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError("a fleet report needs at least one run")

    # ------------------------------------------------------------------
    # Axes
    # ------------------------------------------------------------------

    @property
    def scenarios(self) -> list[str]:
        """Scenario labels, in grid order."""
        return _unique(run.scenario for run in self.runs)

    @property
    def solvers(self) -> list[str]:
        """Solver labels, in grid order."""
        return _unique(run.solver for run in self.runs)

    @property
    def arms(self) -> list[str]:
        """The re-optimization arms present (``warm``/``cold``)."""
        return _unique(run.arm for run in self.runs)

    def select(
        self,
        scenario: "str | None" = None,
        solver: "str | None" = None,
        warm: "bool | None" = None,
    ) -> list[FleetRun]:
        """The runs matching every given axis value."""
        return [
            run
            for run in self.runs
            if (scenario is None or run.scenario == scenario)
            and (solver is None or run.solver == solver)
            and (warm is None or run.warm == warm)
        ]

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def fitness_table(self) -> dict:
        """``{(scenario, solver, arm): {metric: ReplicatedMetric}}``.

        Per cell and arm, across its replicates: the run-mean fitness,
        the final step's fitness, and the evaluations spent — mean/std
        through the replication harness's
        :class:`~repro.experiments.replication.ReplicatedMetric`.
        """
        from repro.experiments.replication import ReplicatedMetric

        table: dict = {}
        for scenario, solver, warm, runs in self._cells():
            table[(scenario, solver, "warm" if warm else "cold")] = {
                "fitness": ReplicatedMetric(
                    tuple(run.result.mean_fitness() for run in runs)
                ),
                "final": ReplicatedMetric(
                    tuple(run.result.final.best.fitness for run in runs)
                ),
                "evaluations": ReplicatedMetric(
                    tuple(float(run.result.total_evaluations) for run in runs)
                ),
            }
        return table

    def regret(self) -> dict:
        """Warm-vs-cold regret per (scenario, solver): cold − warm.

        For every replicate that ran both arms (same seeds, same
        instance sequence), the difference of run-mean fitness.
        Positive values mean the cold re-solves beat warm tracking —
        the warm start trapped the search in a stale basin; values
        around zero mean re-optimization held quality at a fraction of
        the cost.  Empty when the fleet ran a single arm.
        """
        from repro.experiments.replication import ReplicatedMetric

        table: dict = {}
        for scenario in self.scenarios:
            for solver in self.solvers:
                warm_runs = self.select(scenario, solver, warm=True)
                cold_runs = self.select(scenario, solver, warm=False)
                if not warm_runs or not cold_runs:
                    continue
                by_replicate = {run.replicate: run for run in cold_runs}
                deltas = tuple(
                    by_replicate[run.replicate].result.mean_fitness()
                    - run.result.mean_fitness()
                    for run in warm_runs
                    if run.replicate in by_replicate
                )
                if deltas:
                    table[(scenario, solver)] = ReplicatedMetric(deltas)
        return table

    # ------------------------------------------------------------------
    # Curves
    # ------------------------------------------------------------------

    def recovery_curves(
        self, scenario: "str | None" = None
    ) -> dict[str, list[tuple[int, float]]]:
        """Mean fitness per step, one labelled curve per (cell, arm).

        The fleet's recovery picture: a perturbation event dents the
        curve, the re-optimizer climbs back.  Labels are
        ``"scenario / solver (arm)"``; restrict to one scenario to
        overlay its solvers and arms.  Feed the result straight into
        :func:`repro.viz.ascii_chart.render_chart` (or through
        :func:`repro.viz.timeline.render_fleet_report`).
        """
        curves: dict[str, list[tuple[int, float]]] = {}
        for cell_scenario, solver, warm, runs in self._cells():
            if scenario is not None and cell_scenario != scenario:
                continue
            arm = "warm" if warm else "cold"
            label = f"{cell_scenario} / {solver} ({arm})"
            per_step = np.array(
                [
                    [step.result.best.fitness for step in run.result.steps]
                    for run in runs
                ]
            )
            curves[label] = [
                (step, float(value))
                for step, value in enumerate(per_step.mean(axis=0))
            ]
        return curves

    def recovery_series(self, scenario: str, solver: str, warm: bool = True):
        """The cell's mean giant-size curve as an analysis-ready series.

        Returns a :class:`~repro.experiments.figures.Series` (x = step,
        y = mean giant size across replicates), so the convergence
        toolbox of :mod:`repro.experiments.analysis` —
        :func:`~repro.experiments.analysis.area_under_curve`,
        :func:`~repro.experiments.analysis.effort_to_reach` — applies to
        scenario recovery exactly as it does to search convergence.
        """
        from repro.experiments.figures import Series

        runs = self.select(scenario, solver, warm)
        if not runs:
            raise KeyError(
                f"no fleet runs for ({scenario!r}, {solver!r}, "
                f"{'warm' if warm else 'cold'})"
            )
        per_step = np.array(
            [
                [step.result.best.giant_size for step in run.result.steps]
                for run in runs
            ]
        )
        means = per_step.mean(axis=0)
        arm = "warm" if warm else "cold"
        return Series(
            label=f"{solver} ({arm})",
            x=tuple(range(len(means))),
            giant_sizes=tuple(float(value) for value in means),
        )

    def recovery_auc(self) -> dict:
        """``{(scenario, solver, arm): AUC}`` of the mean giant curves.

        The scale-free "average connectivity held over the scenario"
        number, via :func:`repro.experiments.analysis.area_under_curve`.
        """
        from repro.experiments.analysis import area_under_curve

        table: dict = {}
        for scenario, solver, warm, _ in self._cells():
            arm = "warm" if warm else "cold"
            table[(scenario, solver, arm)] = area_under_curve(
                self.recovery_series(scenario, solver, warm)
            )
        return table

    def event_impact(self) -> dict:
        """Mean net fitness impact per perturbation event kind.

        For every non-initial step, keyed by the event's first word
        (``"drift"``, ``"churn"``, ``"outage"``, ``"radio"`` for the
        built-in perturbations): ``impact`` is the mean fitness change
        from the previous step to the event step, across every run
        containing the event.  Each step's fitness is measured *after*
        its re-optimization, so the number is the event's damage net of
        what the re-optimizer clawed back — negative means the solver
        could not keep up with that event kind, around zero means it
        absorbed it.  (A separate "recovery one step later" reading
        would be meaningless here: every step carries its own event, so
        the next step's change is dominated by the next perturbation.)
        """
        impacts: dict[str, list[float]] = {}
        for run in self.runs:
            steps = run.result.steps
            for index in range(1, len(steps)):
                kind = steps[index].event.split()[0]
                before = steps[index - 1].result.best.fitness
                at = steps[index].result.best.fitness
                impacts.setdefault(kind, []).append(at - before)
        return {
            kind: {
                "impact": float(np.mean(values)),
                "n_events": len(values),
            }
            for kind, values in impacts.items()
        }

    def summary(self) -> str:
        """One-line account of the whole fleet."""
        evaluations = sum(run.result.total_evaluations for run in self.runs)
        return (
            f"[fleet] {len(self.scenarios)} scenarios x "
            f"{len(self.solvers)} solvers x {self.n_seeds} seeds "
            f"({'+'.join(self.arms)}): {len(self.runs)} runs, "
            f"{evaluations} evaluations"
        )

    def _cells(self):
        """Iterate ``(scenario, solver, warm, runs)`` in grid order."""
        for scenario in self.scenarios:
            for solver in self.solvers:
                for warm in (True, False):
                    runs = self.select(scenario, solver, warm)
                    if runs:
                        yield scenario, solver, warm, runs


def _unique(values) -> list:
    seen: dict = {}
    for value in values:
        seen.setdefault(value, None)
    return list(seen)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Entry:
    """One (cell, arm) row of the grid: its labels and shard-task parts."""

    cell: int
    scenario: str
    solver: str
    warm: bool
    #: The shard task without its replicate streams (see
    #: :func:`_run_fleet_shard`).
    task: tuple
    rep_seqs: list

    def make_task(self, replicates: range) -> tuple:
        return (*self.task, [self.rep_seqs[r] for r in replicates])

    def key(self, replicate: int) -> str:
        """Grid-stable checkpoint key of one triple.

        Keyed by (cell index, arm, replicate) — never by shard/worker
        layout, so a run checkpointed at one worker count resumes at any
        other.
        """
        arm = "warm" if self.warm else "cold"
        return f"c{self.cell:03d}-{arm}-r{replicate:03d}"

    def label(self, replicates: range) -> str:
        """The supervision label naming one shard task's grid identity."""
        arm = "warm" if self.warm else "cold"
        seeds = (
            f"replicate {replicates.start}"
            if len(replicates) == 1
            else f"replicates {replicates.start}..{replicates.stop - 1}"
        )
        return f"{self.scenario}/{self.solver} ({arm}) {seeds}"


def _compact_results(results: list[ScenarioResult]) -> list[ScenarioResult]:
    """Shed the per-step problem instances from a shard's return payload.

    A fan-out shard's results would otherwise pickle every perturbed
    instance back to the parent — at city scale, megabytes per step that
    the broadcast just saved on the way *in*.  The steps are swapped for
    the same :class:`~repro.resilience.checkpoint.RestoredStep` stand-ins
    checkpoint restore produces: every aggregation downstream reads only
    ``index``/``event`` off a completed step.
    """
    return [
        replace(
            result,
            steps=tuple(
                replace(
                    item, step=RestoredStep(item.step.index, item.step.event)
                )
                for item in result.steps
            ),
        )
        for result in results
    ]


def _task_scenario(task) -> Scenario:
    """Rebuild a shard task's scenario around its (attached) base.

    A task carries ``(name, base, perturbations, ...)`` with ``base``
    exactly what :meth:`~repro.parallel.runtime.ParallelRuntime.broadcast`
    returned — a shared-memory handle or the instance itself — so
    :func:`~repro.parallel.runtime.resolve_task_problem` undoes it the
    same way for every harness.
    """
    name, base, perturbations = task[:3]
    return Scenario(
        name=name,
        base=resolve_task_problem(base),
        perturbations=perturbations,
    )


class _CellSteps:
    """A cell's unfolded steps, unfolded on first use and then shared by
    the cell's arm and shard tasks (in-process runs)."""

    __slots__ = ("_scenario", "_unfold_seq", "_steps")

    def __init__(self, scenario: Scenario, unfold_seq) -> None:
        self._scenario = scenario
        self._unfold_seq = unfold_seq
        self._steps = None

    def __call__(self) -> list:
        if self._steps is None:
            self._steps = self._scenario.unfold(self._unfold_seq)
        return self._steps


def _run_fleet_shard(task) -> list[ScenarioResult]:
    """One (cell, arm, replicate-shard) task (top-level: pickling).

    ``steps`` is the cell's :class:`_CellSteps` when the fleet runs
    in-process (so a cell is unfolded at most once, and only when one of
    its tasks runs: a resume whose shards are all restored unfolds
    none), and ``None`` under ``workers=`` fan-out — there each worker
    re-unfolds from the deterministic unfold stream, which beats
    pickling every step's problem across the process boundary, and the
    returned rows carry step stand-ins instead of the instances
    (:func:`_compact_results`).
    """
    solver_payload, config, unfold_seq, steps, rep_seqs = task[3:]
    scenario = _task_scenario(task)
    fanned_out = steps is None
    steps = scenario.unfold(unfold_seq) if fanned_out else steps()
    solver, kwargs = solver_payload
    results = ScenarioRunner(solver, **config, **kwargs).run_replicates(
        steps, rep_seqs, scenario_name=scenario.name
    )
    return _compact_results(results) if fanned_out else results


class ScenarioFleet:
    """A full (scenario x solver x seed) re-optimization portfolio.

    Parameters
    ----------
    scenarios:
        The scenario axis: a sequence of :class:`Scenario` (labelled by
        their ``name``) or a ``{label: Scenario}`` mapping.  Labels must
        be unique — they key every report table.
    solvers:
        The solver axis: registry specs (``"tabu:swap"``), ``(spec,
        kwargs)`` pairs, or :class:`~repro.solvers.base.Solver`
        instances.  Specs are re-instantiated inside worker processes;
        instances are pickled.  Labels (the spec, or the instance's
        ``name``) must be unique.
    n_seeds:
        Replicates per (scenario, solver) cell.
    budget / warm_budget / warm / engine / fitness:
        As on :class:`~repro.scenario.runner.ScenarioRunner` — applied
        uniformly to every cell.  ``warm`` additionally accepts
        ``"both"`` to run warm *and* cold arms on identical seeds, which
        is what feeds :meth:`FleetReport.regret`.
    workers:
        Fan each cell's replicate shards out over a process pool
        (results identical to serial at any count).
    policy:
        The :class:`~repro.resilience.supervisor.RetryPolicy` governing
        crash/timeout recovery of shard tasks (default: bounded retry
        with compiled-tier degradation).
    """

    def __init__(
        self,
        scenarios: "Sequence[Scenario] | Mapping[str, Scenario]",
        solvers: Sequence,
        *,
        n_seeds: int = 8,
        budget: "int | None" = None,
        warm_budget: "int | None" = None,
        warm: "bool | str" = True,
        engine: str = "auto",
        fitness=None,
        workers: "int | None" = None,
        policy: "RetryPolicy | None" = None,
    ) -> None:
        self._scenarios = _label_scenarios(scenarios)
        self._solvers = _label_solvers(solvers)
        check_grid(n_seeds, workers)
        self._arms = _resolve_arms(warm)
        ScenarioRunner.check_budgets(budget, warm_budget, True in self._arms)
        self.n_seeds = n_seeds
        self.budget = budget
        self.warm_budget = warm_budget if warm_budget is not None else budget
        self.engine = engine
        self.fitness = fitness
        self.workers = workers
        self.policy = policy

    @property
    def n_cells(self) -> int:
        """Number of (scenario, solver) grid cells."""
        return len(self._scenarios) * len(self._solvers)

    @property
    def n_runs(self) -> int:
        """Total triples the fleet will solve (cells x arms x seeds)."""
        return self.n_cells * len(self._arms) * self.n_seeds

    def run(
        self,
        seed: "int | np.random.SeedSequence" = 0,
        *,
        checkpoint: "str | None" = None,
        resume_from: "str | None" = None,
        report: "SupervisionReport | None" = None,
    ) -> FleetReport:
        """Execute the whole grid; returns the :class:`FleetReport`.

        The root seed fixes everything: cell unfolds, per-replicate
        solve streams, and their sharding over workers (which never
        changes a stream, only where it is consumed).

        ``checkpoint`` names a directory where every completed
        (scenario, solver, arm, replicate) triple is persisted as an
        atomic JSON document under a manifest pinning the grid's
        configuration and root-seed provenance.  ``resume_from`` opens
        such a directory (it must exist and its manifest must match this
        fleet exactly), skips every fully checkpointed shard, re-runs
        the rest, and — because completed cells are trusted but verified
        — recomputes one checkpointed triple and asserts it matches its
        stored document field-for-field
        (:class:`~repro.resilience.checkpoint.CheckpointParityError`
        otherwise).  ``report`` collects supervision activity (retries,
        degradations) for the caller to surface.
        """
        root = root_sequence(seed)
        grid = fleet_seed_grid(root, self.n_cells, self.n_seeds)
        store = open_store(
            self._manifest(root), checkpoint=checkpoint, resume_from=resume_from
        )
        configs = {
            # warm_budget defaults to budget for the manifest; the cold
            # arm's runner must not receive it (a cold runner refuses one).
            warm: dict(
                budget=self.budget,
                warm_budget=self.warm_budget if warm else None,
                warm=warm,
                engine=self.engine,
                fitness=self.fitness,
            )
            for warm in self._arms
        }
        serial = self.workers is None or self.workers == 1
        entries: list[_Entry] = []
        cells = itertools.product(self._scenarios, self._solvers)
        for cell, ((scenario_label, scenario), (solver_label, payload)) in (
            enumerate(cells)
        ):
            unfold_seq, rep_seqs = grid[cell]
            # In-process execution unfolds each cell at most once, on
            # first use, and shares the steps across its arm/shard
            # tasks; worker processes re-unfold from the seed instead
            # (see _run_fleet_shard), attaching the broadcast base
            # rather than unpickling it when it is above the runtime's
            # threshold.
            steps = _CellSteps(scenario, unfold_seq) if serial else None
            base = (
                scenario.base
                if serial
                else get_runtime().broadcast(scenario.base)
            )
            for warm in self._arms:
                task = (
                    scenario.name,
                    base,
                    scenario.perturbations,
                    payload,
                    configs[warm],
                    unfold_seq,
                    steps,
                )
                entries.append(
                    _Entry(cell, scenario_label, solver_label, warm, task, rep_seqs)
                )

        rows = run_sharded(
            _run_fleet_shard,
            entries,
            self.n_seeds,
            self.workers,
            _Entry.make_task,
            key=_Entry.key,
            encode=lambda entry, replicate, result: scenario_result_to_dict(
                result
            ),
            decode=scenario_result_from_dict,
            label=_Entry.label,
            store=store,
            policy=self.policy,
            report=report,
        )
        # Key each run by its *arm* (what the grid asked for), not by
        # ``result.warm`` — a warm-incapable solver still belongs to the
        # warm arm it ran in, or a "both" grid would collapse its two
        # arms into one cell.
        runs = [
            FleetRun(
                scenario=entry.scenario,
                solver=entry.solver,
                warm=entry.warm,
                replicate=replicate,
                result=result,
            )
            for entry, results in zip(entries, rows)
            for replicate, result in enumerate(results)
        ]
        return FleetReport(runs=tuple(runs), n_seeds=self.n_seeds)

    def _manifest(self, root: np.random.SeedSequence) -> dict:
        """The checkpoint identity of this grid: config + seed provenance."""
        return {
            "kind": "scenario-fleet",
            "seed_entropy": entropy_payload(root.entropy),
            "scenarios": [label for label, _ in self._scenarios],
            "solvers": [label for label, _ in self._solvers],
            "n_seeds": self.n_seeds,
            "arms": ["warm" if arm else "cold" for arm in self._arms],
            "budget": self.budget,
            "warm_budget": self.warm_budget,
            "engine": self.engine,
            "fitness": repr(self.fitness) if self.fitness is not None else None,
        }

    def __repr__(self) -> str:
        scenarios = [label for label, _ in self._scenarios]
        solvers = [label for label, _ in self._solvers]
        return (
            f"ScenarioFleet(scenarios={scenarios!r}, solvers={solvers!r}, "
            f"n_seeds={self.n_seeds}, arms={len(self._arms)}, "
            f"workers={self.workers!r})"
        )


def _label_scenarios(scenarios) -> list[tuple[str, Scenario]]:
    if isinstance(scenarios, Mapping):
        items = [(str(label), s) for label, s in scenarios.items()]
    else:
        items = [(None, s) for s in scenarios]
    pairs: list[tuple[str, Scenario]] = []
    for label, scenario in items:
        if not isinstance(scenario, Scenario):
            raise TypeError(
                f"expected a Scenario, got {type(scenario).__name__}"
            )
        pairs.append((label or scenario.name, scenario))
    if not pairs:
        raise ValueError("a fleet needs at least one scenario")
    _check_unique("scenario", [label for label, _ in pairs])
    return pairs


def _label_solvers(solvers) -> list[tuple[str, tuple]]:
    """``(label, (solver, kwargs))`` pairs; payloads stay picklable.

    A payload is what :class:`ScenarioRunner` takes: a registry spec
    and its solver kwargs, re-instantiated in the process that runs the
    shard, or a solver instance (pickled) with no kwargs.

    A ``{label: item}`` mapping overrides the default labels (the spec
    string, or an instance's ``name``) — the way to put two
    configurations of one registry spec into the same fleet.
    """
    if isinstance(solvers, Mapping):
        items = [(str(label), item) for label, item in solvers.items()]
    else:
        items = [(None, item) for item in solvers]
    pairs: list[tuple[str, tuple]] = []
    for label, item in items:
        if isinstance(item, Solver):
            pairs.append((label or item.name, (item, {})))
        elif isinstance(item, str):
            pairs.append((label or item, (item, {})))
        elif (
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], Mapping)
        ):
            pairs.append((label or item[0], (item[0], dict(item[1]))))
        else:
            raise TypeError(
                "solvers items must be a registry spec, a (spec, kwargs) "
                f"pair or a Solver instance, got {item!r}"
            )
    if not pairs:
        raise ValueError("a fleet needs at least one solver")
    _check_unique("solver", [label for label, _ in pairs])
    return pairs


def _resolve_arms(warm: "bool | str") -> tuple[bool, ...]:
    if warm is True or warm == "warm":
        return (True,)
    if warm is False or warm == "cold":
        return (False,)
    if warm == "both":
        return (True, False)
    raise ValueError(
        f"warm must be True, False, 'warm', 'cold' or 'both', got {warm!r}"
    )


def _check_unique(axis: str, labels: list[str]) -> None:
    seen: set = set()
    for label in labels:
        if label in seen:
            raise ValueError(
                f"duplicate {axis} label {label!r}; labels key the report "
                "tables and must be unique (use a mapping or (spec, kwargs) "
                "labels to disambiguate)"
            )
        seen.add(label)
