"""Lockstep execution of whole local-search portfolios.

The paper's headline experiments are *portfolios* of independent search
runs — many seeds x many movements (Tables 1-3, Fig. 4) — and the
replication harness reruns them across even more seeds.  Executing each
chain as its own python loop leaves most of the vectorized engine's
throughput on the table: every phase of every chain pays its own small
batch evaluation and its own per-candidate object churn.

:class:`MultiChainSearch` advances ``R`` independent chains in lockstep
instead.  Under every rule (best improvement, tabu and Metropolis,
below):

* each phase samples all chains' candidates through one
  :meth:`~repro.neighborhood.movements.MovementType.propose_batch` call
  (per-chain generator streams, vectorized window scans);
* the phase's move rows are validated in one pass (:meth:`_Phase.collect`):
  on the compiled tier by one ``repro_collect_phase`` kernel call
  (:meth:`_Phase.collect_kernel`), otherwise by the numpy column rules,
  which are the reference;
* all ``R x C`` surviving candidates are measured in one pass against
  per-chain incumbent caches by a
  :class:`~repro.core.engine.stacked.StackedDeltaEngine` — matrices on
  the dense (paper-scale) layout, edge and coverage-hit arrays on the
  sparse (city-scale) one — and only each chain's *chosen* candidate
  is ever materialized as an :class:`~repro.core.evaluation.Evaluation`;
* converged/stalled chains drop out of the lockstep via boolean masking
  and the survivors keep batching.

The Metropolis rule accepts or rejects each move before the next is
drawn, so its phase of ``C`` moves is ``C`` such lockstep sub-steps of
one candidate per chain.

This is the repository's one local-search loop; only the rule a chain
chooses its next incumbent by varies.  Best improvement (paper
Algorithm 1) is the default, and
:class:`~repro.neighborhood.search.NeighborhoodSearch` is its one-chain
case.  Tabu search and simulated annealing (the authors' WMN-TS and
WMN-SA follow-up line) are the same driver on the tabu and Metropolis
rules, built by :meth:`MultiChainSearch.tabu` and
:meth:`MultiChainSearch.annealing`: Metropolis acceptance is one rule a
chain steps by, not a second search loop.  Per-chain results — trace, best
solution, phase and evaluation counts — are **bit-identical** to
running each chain alone through a serial phase loop that measures
every candidate with the dense reference evaluator (asserted against
frozen copies of those loops by ``tests/neighborhood/test_multichain.py``
and ``tests/neighborhood/test_local_search_reference.py``), because
every random draw stays on its chain's own generator and every engine
path shares the evaluation contract.

RNG contract
------------

A portfolio is reproducible because chain streams are independent and
parent-derived:

* :func:`chain_generators` spawns ``R`` child ``SeedSequence`` s from one
  parent (``SeedSequence(seed).spawn(R)``) and wraps each in its own
  ``Generator`` — the documented way to seed an ad hoc portfolio;
* callers with an existing per-chain key scheme (the replication
  harness's ``(instance_seed, label_key, seed)`` tuples) pass one
  pre-seeded ``Generator`` per chain instead;
* chain ``r`` consumes **only** ``rngs[r]``, in the same order as a
  one-chain run (initial placement first if the caller drew it there,
  then each phase's proposals and, under the Metropolis rule, its
  acceptance draws).  Results are therefore invariant to
  chain grouping: batching, seed sharding one layer up and phase
  masking never change a chain's stream.

A portfolio runs in one process.  Fanning chains out across processes
is the seed-sharded harnesses' job
(:func:`~repro.experiments.replication.replicate_movements` and
:class:`~repro.scenario.fleet.ScenarioFleet` with ``workers=``): each
shard task runs one such portfolio, and because of the stream contract
its chains' results equal those of one all-chain run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.anytime.deadline import DEFAULT_CLOCK
from repro.core.engine import compiled
from repro.core.engine.stacked import PhaseCandidates, StackedDeltaEngine
from repro.core.evaluation import Evaluation
from repro.core.fitness import FitnessFunction
from repro.core.problem import ProblemInstance, check_start_placement
from repro.core.solution import Placement
from repro.neighborhood.annealing import AnnealingSchedule
from repro.neighborhood.moves import MoveBatch
from repro.neighborhood.movements import MovementType, kernel_tier, proposal_tier
from repro.neighborhood.trace import SearchResult, SearchTrace
from repro.seeding import root_sequence, spawn_children

if TYPE_CHECKING:
    from repro.anytime.deadline import Deadline
    from repro.core.grid import GridArea

__all__ = [
    "chain_generators",
    "check_search_parameters",
    "MultiChainSearch",
]


def check_search_parameters(
    n_candidates: int, max_phases: int, stall_phases: int | None
) -> None:
    """Validate the phase knobs shared by the lockstep search entries."""
    if n_candidates <= 0:
        raise ValueError(f"n_candidates must be positive, got {n_candidates}")
    if max_phases <= 0:
        raise ValueError(f"max_phases must be positive, got {max_phases}")
    if stall_phases is not None and stall_phases <= 0:
        raise ValueError(
            f"stall_phases must be positive or None, got {stall_phases}"
        )


def chain_generators(
    seed: "int | Sequence[int] | np.random.SeedSequence", n_chains: int
) -> list[np.random.Generator]:
    """``n_chains`` independent per-chain generators from one parent seed.

    The documented spawning contract: the parent
    ``numpy.random.SeedSequence`` (built from ``seed`` unless one is
    passed directly) is ``spawn``-ed once per chain, and chain ``r``
    owns ``default_rng(child_r)``.  Spawning guarantees the child
    streams are statistically independent and that the whole portfolio
    is reproducible from the single parent seed, no matter how chains
    are later grouped into batches or worker processes.
    """
    if n_chains <= 0:
        raise ValueError(f"n_chains must be positive, got {n_chains}")
    sequence = root_sequence(seed)
    return [
        np.random.default_rng(child)
        for child in spawn_children(sequence, n_chains)
    ]


@dataclass
class _ChainState:
    """Mutable lockstep bookkeeping of one chain (internal)."""

    rng: np.random.Generator
    current: Evaluation
    best: Evaluation
    trace: SearchTrace
    n_evaluations: int = 1
    stall: int = 0
    last_phase: int = 0
    active: bool = True
    stopped_by: str | None = None
    #: Tabu rule only: the phase until which each router is tabu.
    tabu_until: np.ndarray | None = None

    def accept(
        self, chain: int, evaluation: Evaluation, delta: StackedDeltaEngine
    ) -> bool:
        """Move to ``evaluation``; True when it beats the best so far."""
        self.current = evaluation
        delta.commit_chain(chain, evaluation.placement)
        if evaluation.fitness > self.best.fitness:
            self.best = evaluation
            return True
        return False


def _cell_owners(
    cells: np.ndarray,
    slots: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    grid: "GridArea",
    mask: np.ndarray,
) -> np.ndarray:
    """Router holding cell ``(xs[i], ys[i])`` in incumbent ``slots[i]``.

    ``cells`` stacks the incumbents' ``(N, 2)`` cell arrays; the result
    is ``-1`` for a free cell and wherever ``mask`` is False (entries
    outside the grid must be masked).  One sorted-key lookup for the
    whole phase.
    """
    n_chains, n_routers = cells.shape[:2]
    n_cells = grid.n_cells
    keys = (
        np.arange(n_chains)[:, np.newaxis] * n_cells
        + cells[:, :, 1] * grid.width
        + cells[:, :, 0]
    ).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    query = slots * n_cells + ys * grid.width + xs
    found = np.searchsorted(sorted_keys, query).clip(max=keys.size - 1)
    hit = mask & (sorted_keys[found] == query)
    return np.where(hit, order[found] % n_routers, -1)


class _Phase:
    """One phase's valid candidates in array form (internal).

    Candidate ``k``'s move is row ``table[k]`` of the
    :class:`~repro.neighborhood.moves.MoveBatch` columns, so
    ``table[:, 1:3]`` names the routers it touches (``-1``: none).
    ``movers`` counts each candidate's moved routers, ``spans`` gives
    each chain's candidate range and ``candidates`` feeds the delta
    engine.
    """

    __slots__ = ("table", "movers", "candidates", "spans")

    def __init__(self, table, movers, candidates, spans) -> None:
        self.table = table
        self.movers = movers
        self.candidates = candidates
        self.spans = spans

    @classmethod
    def collect(
        cls,
        incumbents: Sequence[Placement],
        chains: Sequence[int],
        proposals: Sequence[MoveBatch],
        problem: ProblemInstance,
    ) -> "_Phase":
        """Validate the phase's proposals on their columns, in one pass.

        ``proposals[i]`` is the batch proposed off ``incumbents[i]``,
        the incumbent of chain ``chains[i]``.  Out-of-range router ids
        and out-of-grid targets are skipped, a relocation onto another
        router's cell is stale and skipped, and one onto its own cell
        (or a swap of a router with itself) is a no-op candidate equal
        to the incumbent.

        This numpy version is the reference.  It collects on the numpy
        tier (``REPRO_COMPILED=0``) and a custom movement's non-int64
        table; on the compiled tier the search collects with
        :meth:`collect_kernel`, which returns the same arrays.
        """
        lengths = [len(batch) for batch in proposals]
        table = np.concatenate([batch.table for batch in proposals])
        slots = np.repeat(np.arange(len(proposals)), lengths)
        kind, router, partner, xs, ys = table.T
        grid = problem.grid
        n_routers = problem.n_routers
        cells = np.stack(
            [incumbent.cells_array() for incumbent in incumbents]
        ).astype(np.intp)

        known = (router >= 0) & (router < n_routers)
        relocation = (
            (kind == MoveBatch.RELOCATE)
            & known
            & (xs >= 0) & (xs < grid.width)
            & (ys >= 0) & (ys < grid.height)
        )
        owner = _cell_owners(cells, slots, xs, ys, grid, relocation)
        swap = (
            (kind == MoveBatch.SWAP)
            & known
            & (partner >= 0) & (partner < n_routers)
        )
        # Moved routers per candidate: 1 for a relocation to a free
        # cell, 2 for a swap, 0 for a no-op; -1 marks a dropped slot.
        movers = np.full(len(table), -1, dtype=np.intp)
        movers[relocation & (owner == router)] = 0
        movers[relocation & (owner < 0)] = 1
        movers[swap] = np.where(router[swap] == partner[swap], 0, 2)
        keep = np.flatnonzero(movers >= 0)

        slot_of = slots[keep]
        counts = movers[keep]
        first = np.cumsum(counts) - counts
        pair_router = np.empty(int(counts.sum()), dtype=np.intp)
        pair_xy = np.empty((pair_router.size, 2), dtype=np.intp)
        moved = counts > 0
        pair_router[first[moved]] = router[keep[moved]]
        single = counts == 1
        pair_xy[first[single], 0] = xs[keep[single]]
        pair_xy[first[single], 1] = ys[keep[single]]
        double = counts == 2
        a, b = router[keep[double]], partner[keep[double]]
        pair_slots = slot_of[double]
        pair_xy[first[double]] = cells[pair_slots, b]
        pair_router[first[double] + 1] = b
        pair_xy[first[double] + 1] = cells[pair_slots, a]

        candidates = PhaseCandidates(
            np.asarray(chains, dtype=np.intp)[slot_of],
            np.repeat(np.arange(keep.size), counts),
            pair_router,
            pair_xy,
        )
        return cls(table[keep], counts, candidates, _spans(slot_of, len(proposals)))

    @classmethod
    def collect_kernel(
        cls,
        incumbents: Sequence[Placement],
        chains: Sequence[int],
        proposals: Sequence[MoveBatch],
        problem: ProblemInstance,
    ) -> "_Phase":
        """:meth:`collect` in one ``repro_collect_phase`` call
        (:func:`~repro.core.engine.compiled.collect_phase`): the same
        kept rows, mover counts, pair arrays and spans, value for value
        and dtype for dtype.

        The compiled tier's collect.  When a batch's table is not int64
        (a custom movement's own array), :meth:`collect` takes the
        phase.
        """
        lengths = [len(batch) for batch in proposals]
        table = np.concatenate([batch.table for batch in proposals])
        if table.dtype != np.int64:
            return cls.collect(incumbents, chains, proposals, problem)
        grid = problem.grid
        kept, movers, owners, pair_candidate, pair_router, pair_xy, ends = (
            compiled.collect_phase(
                table,
                lengths,
                chains,
                np.stack([incumbent.cells_array() for incumbent in incumbents]),
                grid.width,
                grid.height,
            )
        )
        candidates = PhaseCandidates(owners, pair_candidate, pair_router, pair_xy)
        return cls(kept, movers, candidates, list(zip([0, *ends[:-1]], ends)))

    def placement(self, index: int, incumbent: Placement) -> Placement:
        """Candidate ``index`` built from its row (the only one built).

        The row's movers are written into a copy of the incumbent's
        cells: a relocation puts ``router`` at ``(x, y)``, a swap
        exchanges ``router`` and ``partner``.  :meth:`collect` has
        validated the row, so the result skips re-validation.
        """
        if self.movers[index] == 0:
            return incumbent
        kind, router, partner, x, y = self.table[index].tolist()
        cells = incumbent.cells_array().copy()
        if kind == MoveBatch.SWAP:
            cells[[router, partner]] = cells[[partner, router]]
        else:
            cells[router] = (x, y)
        return Placement._trusted(incumbent.grid, cells)


def _spans(slot_of: np.ndarray, n_slots: int) -> list[tuple[int, int]]:
    """Each slot's ``(start, end)`` candidate range (slot-major order)."""
    ends = np.cumsum(np.bincount(slot_of, minlength=n_slots)).tolist()
    return list(zip([0, *ends[:-1]], ends))


class _ChoiceRule:
    """How the active chains take one phase's step: one batched phase,
    then a choice per chain (internal).

    Immutable configuration, set once at construction; per-chain memory
    lives on :class:`_ChainState`.  :meth:`step` advances chains
    ``chains`` (states ``states``) by one phase of ``n_moves``
    candidates and returns, per chain, whether the phase raised its
    best: one :meth:`~MovementType.propose_batch` call across the
    chains, one :meth:`_Phase.collect` (:meth:`_Phase.collect_kernel`
    on the compiled tier) and one ``measure_phase``;
    ``choose(phase, state, fitness, table)`` then picks the index of the
    candidate a chain moves to (or ``None``) from its non-empty slice of
    the fitness array and :class:`MoveBatch` rows.  Only that candidate
    is built.
    """

    __slots__ = ()

    def start(self, state: _ChainState, problem: ProblemInstance) -> None:
        """Set up a chain's memory before its first phase (none here)."""

    def step(
        self,
        phase: int,
        chains: Sequence[int],
        states: Sequence[_ChainState],
        movement: MovementType,
        problem: ProblemInstance,
        delta: StackedDeltaEngine,
        n_moves: int,
    ) -> list[bool]:
        proposals = movement.propose_batch(
            [state.current for state in states],
            problem,
            [state.rng for state in states],
            n_moves,
        )
        collect = _Phase.collect_kernel if kernel_tier() else _Phase.collect
        collected = collect(
            [state.current.placement for state in states],
            chains,
            proposals,
            problem,
        )
        measurement = delta.measure_phase(collected.candidates)
        improved = []
        for (start, end), chain, state in zip(collected.spans, chains, states):
            state.n_evaluations += end - start
            choice = None
            if end > start:
                choice = self.choose(
                    phase,
                    state,
                    measurement.fitness[start:end],
                    collected.table[start:end],
                )
            if choice is None:
                improved.append(False)
                continue
            winner = start + choice
            placement = collected.placement(winner, state.current.placement)
            evaluation = measurement.evaluation(winner, placement)
            improved.append(state.accept(chain, evaluation, delta))
        return improved


class _BestImprovement(_ChoiceRule):
    """Paper Algorithm 1: the fittest candidate, when it improves."""

    __slots__ = ("accept_equal",)

    def __init__(self, accept_equal: bool) -> None:
        self.accept_equal = accept_equal

    def choose(self, phase, state, fitness, table):
        # argmax keeps the first maximum — Algorithm 2's first-seen tie
        # rule.
        winner = int(np.argmax(fitness))
        current = state.current.fitness
        if fitness[winner] > current or (
            self.accept_equal and fitness[winner] == current
        ):
            return winner
        return None

    def __repr__(self) -> str:
        return f"_BestImprovement(accept_equal={self.accept_equal})"


class _Tabu(_ChoiceRule):
    """Tabu search: the best admissible candidate, even when worsening.

    The routers the chosen move touches (a relocation one, a swap two)
    are tabu for ``tenure`` phases; aspiration admits a tabu move that
    beats the chain's best.
    """

    __slots__ = ("tenure",)

    def __init__(self, tenure: int) -> None:
        self.tenure = tenure

    def start(self, state, problem):
        # The extra last slot is never set, so the -1 "no router"
        # entries of a candidate's touched routers read as not tabu.
        state.tabu_until = np.zeros(problem.n_routers + 1, dtype=np.intp)

    def choose(self, phase, state, fitness, table):
        touched = table[:, 1:3]
        is_tabu = (state.tabu_until[touched] > phase).any(axis=1)
        admissible = np.flatnonzero(~is_tabu | (fitness > state.best.fitness))
        if not admissible.size:
            return None
        chosen = int(admissible[np.argmax(fitness[admissible])])
        if self.tenure > 0:
            routers = touched[chosen]
            state.tabu_until[routers[routers >= 0]] = phase + self.tenure
        return chosen

    def __repr__(self) -> str:
        return f"_Tabu(tenure={self.tenure})"


class _Metropolis(_ChoiceRule):
    """Simulated annealing: each move accepted or rejected on its own.

    An improving or equal move is always taken, a worsening one with
    probability ``exp(delta / T)`` at the schedule's phase temperature.
    The acceptance draws interleave with the proposals on the chain's
    generator, so a phase of ``n_moves`` moves is ``n_moves`` sub-steps
    of one candidate per active chain: move ``j`` of every chain is
    proposed, collected and measured in one :class:`_ChoiceRule` step,
    then each chain that has a candidate draws its coin.
    """

    __slots__ = ("schedule",)

    def __init__(self, schedule: AnnealingSchedule) -> None:
        self.schedule = schedule

    def step(self, phase, chains, states, movement, problem, delta, n_moves):
        improved = [False] * len(states)
        for _ in range(n_moves):
            raised = super().step(phase, chains, states, movement, problem, delta, 1)
            improved = [before or now for before, now in zip(improved, raised)]
        return improved

    def choose(self, phase, state, fitness, table):
        change = fitness[0] - state.current.fitness
        if change >= 0 or state.rng.uniform() < math.exp(
            change / self.schedule.temperature_at(phase)
        ):
            return 0
        return None

    def __repr__(self) -> str:
        return f"_Metropolis(schedule={self.schedule!r})"


class MultiChainSearch:
    """``R`` independent local-search chains advanced in lockstep.

    Parameters mirror :class:`~repro.neighborhood.search.NeighborhoodSearch`
    (movement, candidates per phase, phase budget, patience, sideways
    acceptance) plus the ``engine`` tier of the stacked evaluation path.
    The chains follow the best-improvement rule; :meth:`tabu` and
    :meth:`annealing` build the driver on the tabu and Metropolis rules
    instead (see the module docstring).

    ``movement`` is a :class:`MovementType` shared by all chains or a
    zero-argument factory (one instance per run).  Either way results
    are identical — movements are stateless with respect to outcomes.
    """

    def __init__(
        self,
        movement: "MovementType | Callable[[], MovementType]",
        n_candidates: int = 16,
        max_phases: int = 64,
        stall_phases: int | None = None,
        accept_equal: bool = False,
        engine: str = "auto",
    ) -> None:
        check_search_parameters(n_candidates, max_phases, stall_phases)
        self.movement = movement
        self.n_candidates = n_candidates
        self.max_phases = max_phases
        self.stall_phases = stall_phases
        self.engine = engine
        self._rule: _ChoiceRule = _BestImprovement(accept_equal)

    @classmethod
    def annealing(
        cls,
        movement: "MovementType | Callable[[], MovementType]",
        schedule: AnnealingSchedule | None = None,
        max_phases: int = 64,
        moves_per_phase: int = 16,
        engine: str = "auto",
    ) -> "MultiChainSearch":
        """Simulated annealing: chains on the Metropolis rule.

        Per phase, ``moves_per_phase`` single moves are proposed, each
        accepted or rejected before the next is drawn: improving moves
        always, worsening ones with probability ``exp(delta / T)`` at
        the ``schedule``'s phase temperature (default
        :class:`~repro.neighborhood.annealing.AnnealingSchedule`).
        """
        if moves_per_phase <= 0:
            raise ValueError(
                f"moves_per_phase must be positive, got {moves_per_phase}"
            )
        search = cls(
            movement,
            n_candidates=moves_per_phase,
            max_phases=max_phases,
            engine=engine,
        )
        search._rule = _Metropolis(
            schedule if schedule is not None else AnnealingSchedule()
        )
        return search

    @classmethod
    def tabu(
        cls,
        movement: "MovementType | Callable[[], MovementType]",
        tenure: int = 8,
        n_candidates: int = 16,
        max_phases: int = 64,
        engine: str = "auto",
    ) -> "MultiChainSearch":
        """Tabu search: chains on the best-of-sample tabu rule.

        Each phase moves to the best of ``n_candidates`` sampled
        neighbors, even when worsening; the routers a move touches are
        tabu for ``tenure`` phases, and aspiration admits a tabu move
        that beats the chain's best.
        """
        if tenure < 0:
            raise ValueError(f"tenure must be non-negative, got {tenure}")
        search = cls(
            movement,
            n_candidates=n_candidates,
            max_phases=max_phases,
            engine=engine,
        )
        search._rule = _Tabu(tenure)
        return search

    # ------------------------------------------------------------------
    # Public entry
    # ------------------------------------------------------------------

    def run(
        self,
        problem: ProblemInstance,
        initials: Sequence[Placement],
        rngs: Sequence[np.random.Generator],
        fitness: FitnessFunction | None = None,
        fitness_target: float | None = None,
        deadline: "Deadline | None" = None,
    ) -> list[SearchResult]:
        """Search all chains; one :class:`SearchResult` per chain, in order.

        ``initials[r]`` and ``rngs[r]`` define chain ``r`` (see the
        module docstring for the stream contract).

        ``deadline`` is polled once per lockstep phase (cooperative
        cancellation): when it fires, every still-active chain is
        masked out with ``stopped_by`` set and its best-so-far kept —
        chains that already converged keep their own results and traces
        untouched (mask-out-and-finish).
        """
        if not initials:
            raise ValueError("a portfolio needs at least one chain")
        if len(initials) != len(rngs):
            raise ValueError(
                f"{len(initials)} initial placements for {len(rngs)} generators"
            )
        for index, initial in enumerate(initials):
            check_start_placement(problem, initial, label=f"chain {index} start")
        started = DEFAULT_CLOCK.now()
        movement = self._resolve_movement()
        # The delta engine's StackedEngine resolves the tier and gates
        # non-finite inputs.  Each chain start is measured once, as its
        # cache is built, and every phase incrementally against those
        # per-chain incumbent caches, on the layout the resolved tier
        # calls for: matrices at paper scale, edge and hit arrays at
        # city scale.
        delta = StackedDeltaEngine(problem, fitness, engine=self.engine)
        states = self._initial_states(delta, initials, rngs)
        for state in states:
            self._rule.start(state, problem)
        # The proposal sampler's tier is resolved once per run, after the
        # engine's: no phase reads the REPRO_COMPILED gate.
        try:
            with proposal_tier(compiled.is_loaded()):
                for phase in range(1, self.max_phases + 1):
                    active = [r for r, state in enumerate(states) if state.active]
                    if not active:
                        break
                    if deadline is not None:
                        reason = deadline.stop_reason()
                        if reason is not None:
                            # Mask-out-and-finish: surviving chains stop at
                            # their tracked best; converged chains keep
                            # their own (deadline-free) results and traces.
                            for r in active:
                                states[r].active = False
                                states[r].stopped_by = reason
                            break
                    self._advance_phase(
                        phase, states, active, movement, problem, delta,
                        fitness_target,
                    )
        finally:
            # Shared movement instances must not pin this run's
            # incumbents after the portfolio finishes.
            movement.release_proposal_caches()
        elapsed = DEFAULT_CLOCK.now() - started
        return [
            SearchResult(
                best=state.best,
                trace=state.trace,
                n_phases=state.last_phase,
                n_evaluations=state.n_evaluations,
                stopped_by=state.stopped_by,
                elapsed_seconds=elapsed,
            )
            for state in states
        ]

    # ------------------------------------------------------------------
    # Lockstep internals
    # ------------------------------------------------------------------

    def _resolve_movement(self) -> MovementType:
        if isinstance(self.movement, MovementType):
            return self.movement
        movement = self.movement()
        if not isinstance(movement, MovementType):
            raise TypeError(
                f"movement factory returned {type(movement).__name__}, "
                "expected a MovementType"
            )
        return movement

    def _initial_states(
        self,
        delta: StackedDeltaEngine,
        initials: Sequence[Placement],
        rngs: Sequence[np.random.Generator],
    ) -> list[_ChainState]:
        """Cache every chain's start; its evaluation is phase 0."""
        states: list[_ChainState] = []
        for index, (initial, rng) in enumerate(zip(initials, rngs)):
            evaluation = delta.reset_chain(index, initial)
            trace = SearchTrace()
            trace.record_phase(
                phase=0, evaluation=evaluation, improved=False, n_evaluations=1
            )
            states.append(
                _ChainState(
                    rng=rng, current=evaluation, best=evaluation, trace=trace
                )
            )
        return states

    def _advance_phase(
        self,
        phase: int,
        states: list[_ChainState],
        active: list[int],
        movement: MovementType,
        problem: ProblemInstance,
        delta: StackedDeltaEngine,
        fitness_target: float | None,
    ) -> None:
        chains = [states[r] for r in active]
        improved = self._rule.step(
            phase, active, chains, movement, problem, delta, self.n_candidates
        )
        for state, raised in zip(chains, improved):
            state.trace.record_phase(
                phase=phase,
                evaluation=state.current,
                improved=raised,
                n_evaluations=state.n_evaluations,
            )
            state.last_phase = phase
            state.stall = 0 if raised else state.stall + 1
            if (
                fitness_target is not None
                and state.best.fitness >= fitness_target
            ):
                state.active = False
            elif (
                self.stall_phases is not None
                and state.stall >= self.stall_phases
            ):
                state.active = False

    def __repr__(self) -> str:
        return (
            f"MultiChainSearch(movement={self.movement!r}, "
            f"n_candidates={self.n_candidates}, max_phases={self.max_phases}, "
            f"stall_phases={self.stall_phases}, rule={self._rule!r}, "
            f"engine={self.engine!r})"
        )
