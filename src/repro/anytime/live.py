"""Live re-optimization under per-event latency SLAs.

:class:`LiveRunner` is the online counterpart of
:class:`~repro.scenario.runner.ScenarioRunner`: the same unfolded
perturbation steps, but arriving as *events* on a clock — one every
``interval`` seconds — each with a response SLA.  The runner keeps a
live incumbent and bounds every re-optimization with a cooperative
:class:`~repro.anytime.deadline.Deadline` so the response ships by its
SLA with whatever best-so-far the solver holds.

Under load — when solving one event pushes the runner past the next
arrivals — a **degradation ladder** sheds work instead of queueing
without bound: mild lag shrinks the per-phase candidate budget, heavier
lag shrinks restart chains and the phase budget, and saturation skips to
the latest arrived event, *coalescing* the skipped perturbations into
one warm-start carry.  Every rung decision, shed event and response
latency lands in the :class:`LiveReport`.

The solver, budgets and warm starts are the scenario runner's: a
:class:`LiveRunner` holds a :class:`ScenarioRunner` and takes its solver
resolution, budget rules, positional step seeds and warm-start carry
(:meth:`ScenarioRunner.step_seeds`, :meth:`ScenarioRunner.plan`) from
it; the clock, ladder and shedding loop are its own.

Two clock modes, chosen by ``seconds_per_evaluation``:

* **Real clock** (default, ``seconds_per_evaluation=None``): solve
  durations are measured wall-clock and solver deadlines run on a
  :class:`~repro.anytime.deadline.MonotonicClock` — the latency
  numbers in ``BENCH_live_sla.json``.
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
    Deadline,
    MonotonicClock,
    SimulatedClock,
)
from repro.scenario.runner import ScenarioRunner
from repro.scenario.scenario import Scenario, ScenarioStep
from repro.seeding import root_sequence
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
    (solver spec, budgets, warm starts, fitness) plus the
    live knobs:

    sla:
        Per-event response budget in seconds (arrival to response).
    interval:
        Seconds between event arrivals on the run timeline.
    seconds_per_evaluation:
        When set, solve durations are *charged* as
        ``n_evaluations * seconds_per_evaluation`` on a fresh
        :class:`~repro.anytime.deadline.SimulatedClock` instead of
        measured — the deterministic mode.  Otherwise the run's clock is
        a :class:`~repro.anytime.deadline.MonotonicClock`.
    deadline_fraction:
        Fraction of the remaining SLA budget granted to each solve's
        deadline.  Cooperative cancellation stops at phase boundaries,
        so the slack (default 10%) absorbs the final phase in flight.
    ladder:
        The degradation rungs (:data:`DEFAULT_LADDER` by default).
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
        fitness=None,
        seconds_per_evaluation: "float | None" = None,
        deadline_fraction: float = 0.9,
        ladder: Sequence[LadderRung] = DEFAULT_LADDER,
        **solver_kwargs,
    ) -> None:
        self.runner = ScenarioRunner(
            solver,
            budget=budget,
            warm_budget=warm_budget,
            warm=warm,
            fitness=fitness,
            **solver_kwargs,
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
        self.sla = float(sla)
        self.interval = float(interval) if interval is not None else float(sla)
        self.seconds_per_evaluation = seconds_per_evaluation
        self.clock = (
            SimulatedClock()
            if seconds_per_evaluation is not None
            else MonotonicClock()
        )
        self.deadline_fraction = deadline_fraction
        self.ladder = tuple(ladder)

    # The solve configuration lives on the runner; these read it.
    solver = property(lambda self: self.runner.solver)
    budget = property(lambda self: self.runner.budget)
    warm_budget = property(lambda self: self.runner.warm_budget)
    warm = property(lambda self: self.runner.warm)
    fitness = property(lambda self: self.runner.fitness)

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

        The seed layout is :meth:`ScenarioRunner.run`'s (see
        :meth:`ScenarioRunner.unfold`), so a pressure-free
        simulated-clock run reproduces the scenario runner's per-step
        results bit-for-bit.  ``deadline`` optionally bounds the *whole
        run* (composed with every per-event SLA deadline; attach a
        :class:`~repro.anytime.deadline.CancelToken` for external
        cancellation).
        """
        steps, solve_seq = self.runner.unfold(scenario, seed)
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
        step_seeds = self.runner.step_seeds(seed, steps)
        simulated = self.seconds_per_evaluation is not None

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
                if simulated:
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

            # The shed steps' perturbations still happened to the
            # deployment: the carry composes over all of them, then the
            # served step's own.
            warm_starts, budget = self.runner.plan(
                None if previous is None else [previous], (*skipped, step)
            )
            if rung.budget_scale < 1.0 and budget is not None:
                budget = max(1, int(budget * rung.budget_scale))

            respond_by = arrival + self.sla
            solve_budget = max(0.0, (respond_by - now) * self.deadline_fraction)
            event_deadline = Deadline.after(solve_budget, clock=self.clock)
            if deadline is not None:
                event_deadline = event_deadline & deadline

            started = now
            wall_before = DEFAULT_CLOCK.now()
            with _scaled_solver(self.solver, rung):
                result = self.solver.solve(
                    step.problem,
                    seed=step_seeds[index],
                    budget=budget,
                    warm_start=None if warm_starts is None else warm_starts[0],
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
            seed=root_sequence(seed).entropy,
        )
