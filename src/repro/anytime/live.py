"""Live re-optimization under per-event latency SLAs.

:class:`LiveRunner` is the online counterpart of
:class:`~repro.scenario.runner.ScenarioRunner`: the same unfolded
perturbation steps, but arriving as *events* on a clock — one every
``interval`` seconds — each with a response SLA.  The runner keeps a
live incumbent (warm starts, exactly the scenario runner's layout) and
bounds every re-optimization with a cooperative
:class:`~repro.anytime.deadline.Deadline` so the response ships by its
SLA with whatever best-so-far the solver holds.

Under load — when solving one event pushes the runner past the next
arrivals — a **degradation ladder** sheds work instead of queueing
without bound: mild lag shrinks the per-phase candidate budget, heavier
lag shrinks restart chains and the phase budget, and saturation skips to
the latest arrived event, *coalescing* the skipped perturbations into
one warm-start carry.  Every rung decision, shed event and response
latency lands in the :class:`LiveReport`.

Two clock modes:

* **Real clock** (default, ``seconds_per_evaluation=None``): solve
  durations are measured wall-clock and solver deadlines run on the
  monotonic clock — the latency numbers in ``BENCH_live_sla.json``.
* **Simulated clock** (``seconds_per_evaluation`` set): each solve is
  *charged* ``n_evaluations * seconds_per_evaluation`` on a
  :class:`~repro.anytime.deadline.SimulatedClock`, making the entire
  run — lag, ladder rungs, shedding, latencies — a pure function of
  the seed.  A simulated-clock run with no deadline pressure is
  bit-identical to the plain :class:`ScenarioRunner` walk (asserted by
  the bench and the tests/anytime suite).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.anytime.deadline import (
    DEFAULT_CLOCK,
    Clock,
    Deadline,
    MonotonicClock,
    SimulatedClock,
)
from repro.parallel import (
    get_runtime,
    resolve_task_problem,
    run_tasks,
    runtime_enabled,
)
from repro.scenario.runner import _validate_budgets
from repro.scenario.scenario import Scenario, ScenarioStep
from repro.seeding import root_sequence, spawn_children
from repro.solvers.base import SolveResult, Solver

if TYPE_CHECKING:
    from repro.scenario.runner import ScenarioResult

__all__ = [
    "LadderRung",
    "DEFAULT_LADDER",
    "LiveEvent",
    "LiveReport",
    "LiveRunner",
]


@dataclass(frozen=True)
class LadderRung:
    """One degradation rung, selected by the lag/SLA ratio.

    A rung applies while ``lag / sla <= max_lag_ratio`` (the first
    matching rung wins; the last rung should be ``inf`` to catch
    saturation).  ``candidate_scale`` shrinks per-phase candidate
    sampling (``n_candidates`` / ``moves_per_phase``), ``chain_scale``
    shrinks restart portfolios (``n_restarts``), ``budget_scale``
    shrinks the per-event phase budget, and ``coalesce`` allows
    skipping to the latest arrived event, composing the skipped
    perturbations' placement carries.  All scales clamp at 1 unit —
    a rung can never scale a knob to zero.
    """

    name: str
    max_lag_ratio: float
    candidate_scale: float = 1.0
    chain_scale: float = 1.0
    budget_scale: float = 1.0
    coalesce: bool = False

    def __post_init__(self) -> None:
        for label, scale in (
            ("candidate_scale", self.candidate_scale),
            ("chain_scale", self.chain_scale),
            ("budget_scale", self.budget_scale),
        ):
            if not 0.0 < scale <= 1.0:
                raise ValueError(f"{label} must be in (0, 1], got {scale}")


#: The default ladder: no pressure runs untouched; mild lag halves the
#: candidate budget; lag near one SLA also halves chains and phases;
#: saturation coalesces to the latest event at a quarter budget.
DEFAULT_LADDER: tuple[LadderRung, ...] = (
    LadderRung("full", max_lag_ratio=0.25),
    LadderRung("shrink-candidates", max_lag_ratio=0.75, candidate_scale=0.5),
    LadderRung(
        "shrink-chains",
        max_lag_ratio=1.5,
        candidate_scale=0.5,
        chain_scale=0.5,
        budget_scale=0.5,
    ),
    LadderRung(
        "coalesce",
        max_lag_ratio=math.inf,
        candidate_scale=0.25,
        chain_scale=0.5,
        budget_scale=0.25,
        coalesce=True,
    ),
)


def _select_rung(ladder: Sequence[LadderRung], lag_ratio: float) -> LadderRung:
    for rung in ladder:
        if lag_ratio <= rung.max_lag_ratio:
            return rung
    return ladder[-1]


#: Solver knobs each scale family touches (only the attributes a given
#: adapter actually has are scaled).
_CANDIDATE_KNOBS = ("n_candidates", "moves_per_phase")
_CHAIN_KNOBS = ("n_restarts",)


@contextmanager
def _scaled_solver(solver: Solver, rung: LadderRung):
    """Temporarily shrink a solver's effort knobs for one event.

    The prior values are restored whatever happens, so a caller-owned
    solver never keeps a rung's downscaling as a lasting side effect.
    """
    prior: dict[str, int] = {}
    try:
        for scale, names in (
            (rung.candidate_scale, _CANDIDATE_KNOBS),
            (rung.chain_scale, _CHAIN_KNOBS),
        ):
            if scale >= 1.0:
                continue
            for name in names:
                value = getattr(solver, name, None)
                if isinstance(value, int) and value > 1:
                    prior[name] = value
                    setattr(solver, name, max(1, int(value * scale)))
        yield
    finally:
        for name, value in prior.items():
            setattr(solver, name, value)


#: Worker request used by the offload path.  ``run_supervised`` treats
#: ``workers <= 1`` as "run in-process", so the single-event solve asks
#: for 2; the persistent pool then sizes itself to the actual task count
#: (:func:`repro.parallel.effective_pool_size` → one process).
_OFFLOAD_WORKERS = 2


def _solve_offloaded(task):
    """Pool-side solve of one live event (the ``offload=True`` path).

    The task carries everything a worker needs to reproduce the
    in-process solve bit-for-bit: the solver (with its *unscaled*
    knobs), the problem payload (a broadcast handle or the instance
    itself), the event's seed/budget/warm start, and the rung plus
    deadline budget to re-derive the solver deadline locally.  The
    deadline is rebuilt on a worker-local clock: a fresh
    :class:`~repro.anytime.deadline.SimulatedClock` never advances
    mid-solve — exactly like the parent's, which only advances *between*
    solves — and a fresh monotonic deadline counts from solve start just
    as the parent's did.
    """
    (
        solver,
        problem,
        seed,
        budget,
        warm_start,
        engine,
        fitness,
        solve_budget,
        simulated,
        rung,
    ) = task
    problem = resolve_task_problem(problem)
    clock = SimulatedClock() if simulated else MonotonicClock()
    event_deadline = Deadline.after(solve_budget, clock=clock)
    with _scaled_solver(solver, rung):
        result = solver.solve(
            problem,
            seed=seed,
            budget=budget,
            warm_start=warm_start,
            engine=engine,
            fitness=fitness,
            deadline=event_deadline,
        )
    return (result,)


@dataclass(frozen=True)
class LiveEvent:
    """One event's live outcome (or its shedding record).

    ``arrival``/``started``/``finished`` are seconds on the run's
    timeline (0 = run start).  A *shed* event (``shed=True``) was never
    solved: the saturation rung coalesced it into event
    ``coalesced_into``, whose warm start absorbed this event's
    perturbation carry.  For responded events ``latency`` is
    ``finished - arrival`` — the per-event response time the SLA
    bounds — and ``result`` is the solver's (possibly
    deadline-truncated) outcome.
    """

    index: int
    event: str
    arrival: float
    rung: str
    queue_depth: int
    shed: bool = False
    coalesced_into: "int | None" = None
    started: float = 0.0
    finished: float = 0.0
    result: "SolveResult | None" = field(default=None, compare=False)

    @property
    def latency(self) -> float:
        """Response latency in seconds (0 for shed events)."""
        return self.finished - self.arrival if not self.shed else 0.0

    @property
    def deadline_hit(self) -> bool:
        """Whether the solve was cut short by its deadline."""
        return self.result is not None and self.result.stopped_by is not None


@dataclass(frozen=True)
class LiveReport:
    """The SLA account of one live run."""

    scenario_name: str
    solver_name: str
    sla: float
    interval: float
    events: tuple[LiveEvent, ...]
    seed: "int | tuple | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError("a live report needs at least one event")

    # ------------------------------------------------------------------
    # Event views
    # ------------------------------------------------------------------

    @property
    def responded(self) -> tuple[LiveEvent, ...]:
        """Events that produced a response (shed events excluded)."""
        return tuple(event for event in self.events if not event.shed)

    @property
    def shed_count(self) -> int:
        """Events coalesced away by the saturation rung."""
        return sum(1 for event in self.events if event.shed)

    @property
    def deadline_hits(self) -> int:
        """Responses whose solve was stopped by its deadline."""
        return sum(1 for event in self.responded if event.deadline_hit)

    def rung_counts(self) -> dict[str, int]:
        """How often each ladder rung fired, in first-seen order."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.rung] = counts.get(event.rung, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Latency statistics
    # ------------------------------------------------------------------

    def latencies(self) -> list[float]:
        """Response latencies of the responded events, in event order."""
        return [event.latency for event in self.responded]

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile response latency (q in [0, 100])."""
        return float(np.percentile(self.latencies(), q))

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency(self) -> float:
        return self.latency_percentile(95.0)

    def sla_violations(self) -> int:
        """Responded events whose latency exceeded the SLA."""
        return sum(1 for event in self.responded if event.latency > self.sla)

    def max_queue_depth(self) -> int:
        """Deepest backlog observed when starting any event."""
        return max(event.queue_depth for event in self.events)

    # ------------------------------------------------------------------
    # Quality statistics
    # ------------------------------------------------------------------

    def mean_fitness(self) -> float:
        """Mean best fitness over the responded events."""
        return float(
            np.mean([event.result.best.fitness for event in self.responded])
        )

    def regret_curve(self, baseline: "ScenarioResult") -> list[tuple[int, float]]:
        """Per-event fitness regret against an unbounded baseline run.

        ``baseline`` is the plain :class:`~repro.scenario.runner.ScenarioRunner`
        outcome on the same scenario and seed (no deadlines, no
        shedding).  Each responded event contributes
        ``baseline_fitness - live_fitness`` at its step index; shed
        events have no response to compare.
        """
        by_step = {step.index: step.result for step in baseline.steps}
        curve: list[tuple[int, float]] = []
        for event in self.responded:
            reference = by_step.get(event.index)
            if reference is None:
                continue
            curve.append(
                (event.index, reference.best.fitness - event.result.best.fitness)
            )
        return curve

    def mean_regret(self, baseline: "ScenarioResult") -> float:
        """Mean per-event fitness regret versus the unbounded baseline."""
        curve = self.regret_curve(baseline)
        if not curve:
            return 0.0
        return float(np.mean([regret for _, regret in curve]))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def timeline(self) -> list[dict]:
        """Per-event records for rendering (shed events included)."""
        rows = []
        for event in self.events:
            row = {
                "step": event.index,
                "event": event.event,
                "arrival": event.arrival,
                "rung": event.rung,
                "queue_depth": event.queue_depth,
                "shed": event.shed,
                "coalesced_into": event.coalesced_into,
                "latency": event.latency,
                "sla_met": (not event.shed) and event.latency <= self.sla,
                "stopped_by": (
                    event.result.stopped_by if event.result is not None else None
                ),
            }
            if event.result is not None:
                best = event.result.best
                row.update(
                    {
                        "giant": best.giant_size,
                        "n_routers": best.metrics.n_routers,
                        "coverage": best.covered_clients,
                        "n_clients": best.metrics.n_clients,
                        "fitness": best.fitness,
                        "phases": event.result.n_phases,
                        "evaluations": event.result.n_evaluations,
                        "warm": event.result.warm_started,
                    }
                )
            rows.append(row)
        return rows

    def summary(self) -> str:
        """One-line account of the run's SLA performance."""
        responded = self.responded
        return (
            f"[live {self.scenario_name} / {self.solver_name}] "
            f"{len(self.events)} events, {len(responded)} responded, "
            f"{self.shed_count} shed, {self.deadline_hits} deadline hit(s), "
            f"p50 {self.p50_latency * 1e3:.1f}ms / "
            f"p95 {self.p95_latency * 1e3:.1f}ms vs SLA "
            f"{self.sla * 1e3:.1f}ms, {self.sla_violations()} violation(s), "
            f"mean fitness {self.mean_fitness():.4f}"
        )


class LiveRunner:
    """Event-loop re-optimization with SLAs and overload shedding.

    Parameters mirror :class:`~repro.scenario.runner.ScenarioRunner`
    (solver spec, budgets, warm starts, engine, fitness) plus the
    live knobs:

    sla:
        Per-event response budget in seconds (arrival to response).
    interval:
        Seconds between event arrivals on the run timeline.
    clock:
        The run's clock; defaults to a fresh
        :class:`~repro.anytime.deadline.SimulatedClock` when
        ``seconds_per_evaluation`` is given, else a monotonic clock.
    seconds_per_evaluation:
        When set, solve durations are *charged* as
        ``n_evaluations * seconds_per_evaluation`` on the simulated
        clock instead of measured — the deterministic mode.
    deadline_fraction:
        Fraction of the remaining SLA budget granted to each solve's
        deadline.  Cooperative cancellation stops at phase boundaries,
        so the slack (default 10%) absorbs the final phase in flight.
    ladder:
        The degradation rungs (:data:`DEFAULT_LADDER` by default).
    offload:
        When true, each event's solve runs on the process-wide
        persistent worker pool (:mod:`repro.parallel`) instead of
        in-process: the step's problem travels by shared-memory
        broadcast, the solver and warm start by pickle, and the event
        deadline is re-derived worker-side from the same budget —
        reports are bit-identical to in-process runs in simulated-clock
        mode.  This is the service shape: the event loop stays
        responsive while solves occupy a warm worker, and a worker
        crash is retried by the supervisor without republishing the
        broadcast.  Requires a picklable solver/fitness; runs with an
        external run ``deadline`` (a shared clock or cancel token
        cannot cross a process boundary) and ``REPRO_RUNTIME=0`` runs
        fall back in-process.
    """

    def __init__(
        self,
        solver: "Solver | str",
        *,
        sla: float,
        interval: "float | None" = None,
        budget: "int | None" = None,
        warm_budget: "int | None" = None,
        warm: bool = True,
        engine: str = "auto",
        fitness=None,
        clock: "Clock | None" = None,
        seconds_per_evaluation: "float | None" = None,
        deadline_fraction: float = 0.9,
        ladder: Sequence[LadderRung] = DEFAULT_LADDER,
        offload: bool = False,
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
        if sla <= 0:
            raise ValueError(f"sla must be positive, got {sla}")
        if interval is not None and interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if seconds_per_evaluation is not None and seconds_per_evaluation <= 0:
            raise ValueError(
                "seconds_per_evaluation must be positive or None, got "
                f"{seconds_per_evaluation}"
            )
        if not 0.0 < deadline_fraction <= 1.0:
            raise ValueError(
                f"deadline_fraction must be in (0, 1], got {deadline_fraction}"
            )
        if not ladder:
            raise ValueError("the degradation ladder needs at least one rung")
        _validate_budgets(budget, warm_budget, warm)
        self.solver = solver
        self.sla = float(sla)
        self.interval = float(interval) if interval is not None else float(sla)
        self.budget = budget
        self.warm_budget = warm_budget if warm_budget is not None else budget
        self.warm = warm
        self.engine = engine
        self.fitness = fitness
        self.seconds_per_evaluation = seconds_per_evaluation
        if clock is None:
            clock = (
                SimulatedClock()
                if seconds_per_evaluation is not None
                else MonotonicClock()
            )
        self.clock = clock
        self.deadline_fraction = deadline_fraction
        self.ladder = tuple(ladder)
        self.offload = bool(offload)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(
        self,
        scenario: Scenario,
        *,
        seed: "int | np.random.SeedSequence" = 0,
        deadline: "Deadline | None" = None,
    ) -> LiveReport:
        """Unfold ``scenario`` and respond to every step as a live event.

        The seed layout is exactly :meth:`ScenarioRunner.run`'s — the
        root's first child unfolds the perturbations, the second spawns
        one solve stream per step — so a pressure-free simulated-clock
        run reproduces the scenario runner's per-step results
        bit-for-bit.  ``deadline`` optionally bounds the *whole run*
        (composed with every per-event SLA deadline; attach a
        :class:`~repro.anytime.deadline.CancelToken` for external
        cancellation).
        """
        root = root_sequence(seed)
        unfold_seq, solve_seq = spawn_children(root, 2)
        steps = scenario.unfold(unfold_seq)
        return self.run_steps(
            steps,
            seed=solve_seq,
            scenario_name=scenario.name,
            deadline=deadline,
        )

    def run_steps(
        self,
        steps: Sequence[ScenarioStep],
        *,
        seed: "int | np.random.SeedSequence" = 0,
        scenario_name: str = "steps",
        deadline: "Deadline | None" = None,
    ) -> LiveReport:
        """Respond to an already-unfolded step sequence as live events.

        Event ``i`` (the scenario's step ``i``) arrives at
        ``i * interval`` on the run timeline.  Events are served in
        order; when the saturation rung fires and later events have
        already arrived, the backlog is coalesced — skipped steps'
        perturbation carries are composed into the next warm start and
        recorded as shed.
        """
        if not steps:
            raise ValueError("a live run needs at least one step")
        solve_seq = root_sequence(seed)
        step_seeds = spawn_children(solve_seq, len(steps))
        warm_capable = self.warm and self.solver.supports_warm_start
        simulated = self.seconds_per_evaluation is not None
        # Offloading needs the persistent runtime and a per-event-only
        # deadline: an external run deadline shares a clock (or cancel
        # token) with the caller, which a forked worker cannot observe.
        offload = self.offload and deadline is None and runtime_enabled()

        origin = self.clock.now()
        now = 0.0  # run-relative timeline, seconds
        events: list[LiveEvent] = []
        previous: "SolveResult | None" = None
        index = 0
        while index < len(steps):
            step = steps[index]
            arrival = step.index * self.interval
            if now < arrival:
                # Idle until the event arrives.  Simulated clocks
                # advance explicitly; the real clock just re-bases
                # (the runner never sleeps — latency accounting
                # lives on the run timeline).
                if isinstance(self.clock, SimulatedClock):
                    self.clock.advance(arrival - now)
                now = arrival
            lag = now - arrival
            queue_depth = sum(
                1 for later in steps[index:]
                if later.index * self.interval <= now
            )
            rung = _select_rung(self.ladder, lag / self.sla)

            skipped: list[ScenarioStep] = []
            if rung.coalesce:
                # Skip-to-latest: serve the newest arrived event,
                # shedding the ones in between.
                target = index
                while (
                    target + 1 < len(steps)
                    and steps[target + 1].index * self.interval <= now
                ):
                    target += 1
                skipped = list(steps[index:target])
                step = steps[target]
                index = target
                # The served event is the latest arrival; latency
                # and the SLA deadline are measured from *its*
                # arrival time.
                arrival = step.index * self.interval

            for shed_step in skipped:
                events.append(
                    LiveEvent(
                        index=shed_step.index,
                        event=shed_step.event,
                        arrival=shed_step.index * self.interval,
                        rung=rung.name,
                        queue_depth=queue_depth,
                        shed=True,
                        coalesced_into=step.index,
                    )
                )

            warm_start = None
            if warm_capable and previous is not None:
                warm_start = previous.best.placement
                # Compose every pending carry — the shed steps'
                # perturbations still happened to the deployment —
                # then the served step's own carry.
                for carry_step in (*skipped, step):
                    if carry_step.change is not None and warm_start is not None:
                        warm_start = carry_step.change.carry_placement(
                            warm_start
                        )
            budget = self.budget if warm_start is None else self.warm_budget
            if rung.budget_scale < 1.0 and budget is not None:
                budget = max(1, int(budget * rung.budget_scale))

            respond_by = arrival + self.sla
            solve_budget = max(0.0, (respond_by - now) * self.deadline_fraction)
            event_deadline = Deadline.after(solve_budget, clock=self.clock)
            if deadline is not None:
                event_deadline = event_deadline & deadline

            started = now
            wall_before = DEFAULT_CLOCK.now()
            if offload:
                payload = get_runtime().broadcast(step.problem)
                task = (
                    self.solver,
                    payload,
                    step_seeds[step.index],
                    budget,
                    warm_start,
                    self.engine,
                    self.fitness,
                    solve_budget,
                    simulated,
                    rung,
                )
                [result] = run_tasks(
                    _solve_offloaded,
                    [task],
                    workers=_OFFLOAD_WORKERS,
                    labels=[f"event {step.index} ({step.event})"],
                )
            else:
                with _scaled_solver(self.solver, rung):
                    result = self.solver.solve(
                        step.problem,
                        seed=step_seeds[step.index],
                        budget=budget,
                        warm_start=warm_start,
                        engine=self.engine,
                        fitness=self.fitness,
                        deadline=event_deadline,
                    )
            if simulated:
                duration = result.n_evaluations * self.seconds_per_evaluation
                self.clock.advance(duration)
                now = self.clock.now() - origin
            else:
                duration = DEFAULT_CLOCK.now() - wall_before
                now = started + duration

            events.append(
                LiveEvent(
                    index=step.index,
                    event=step.event,
                    arrival=arrival,
                    rung=rung.name,
                    queue_depth=queue_depth,
                    started=started,
                    finished=now,
                    result=result,
                )
            )
            previous = result
            index += 1
            if deadline is not None and deadline.stop_reason() is not None:
                # The run budget / external cancel fired: remaining
                # events are never served — record them as shed so
                # the report's accounting stays complete.
                for missed in steps[index:]:
                    events.append(
                        LiveEvent(
                            index=missed.index,
                            event=missed.event,
                            arrival=missed.index * self.interval,
                            rung="cancelled",
                            queue_depth=0,
                            shed=True,
                        )
                    )
                break

        return LiveReport(
            scenario_name=scenario_name,
            solver_name=self.solver.name,
            sla=self.sla,
            interval=self.interval,
            events=tuple(events),
            seed=solve_seq.entropy,
        )
