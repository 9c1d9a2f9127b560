"""Solver adapters: every method family behind the uniform contract.

Each adapter owns one family's configuration (movement, candidates,
phases, schedule, ...) and translates :meth:`~repro.solvers.base.Solver.solve`
into the family's native run call.  The shared conventions:

* **Streams** — :func:`~repro.solvers.base.solver_streams` splits the
  seed into an *init* stream (initial placement / population) and a
  *run* stream (the optimization itself).  A warm start skips the init
  stream entirely, so warm-vs-cold parity is exact when the warm
  placement equals what the cold run would have drawn
  (:meth:`initial_placement` exposes exactly that placement).
* **Budget** — overrides the family's native effort knob: phases for
  the neighborhood family, generations for the GA; ignored (with
  ``supports_warm_start`` analogously ``False``) for ad hoc
  constructors.
* **Engine** — not a solver knob: every evaluator and stacked engine a
  family builds takes the tier ``resolve_engine(problem, "auto")``
  picks (``REPRO_COMPILED=0`` keeps a whole run on the numpy tier),
  and every tier is bit-identical.
* **Lockstep** — the local-search families (best-improvement search,
  simulated annealing, tabu search) share one ``solve``/``solve_batch``:
  every seed is one chain of a
  :class:`~repro.neighborhood.multichain.MultiChainSearch` portfolio on
  the family's acceptance rule, and ``solve`` is a one-seed batch.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import TYPE_CHECKING

import numpy as np

from repro.adhoc.registry import make_method
from repro.anytime.deadline import DEFAULT_CLOCK
from repro.core.evaluation import Evaluator
from repro.core.problem import ProblemInstance
from repro.core.solution import Placement
from repro.genetic.engine import GAConfig, GeneticAlgorithm
from repro.genetic.initializers import AdHocInitializer, PopulationInitializer
from repro.neighborhood.annealing import AnnealingSchedule
from repro.neighborhood.multichain import (
    MultiChainSearch,
    chain_generators,
    check_search_parameters,
)
from repro.neighborhood.registry import make_movement
from repro.solvers.base import SolveResult, Solver, _check_batch, solver_streams

if TYPE_CHECKING:
    from repro.anytime.deadline import Deadline
    from repro.core.fitness import FitnessFunction

__all__ = [
    "AdHocSolver",
    "NeighborhoodSolver",
    "AnnealingSolver",
    "TabuSolver",
    "MultiStartSolver",
    "GeneticSolver",
    "WarmStartInitializer",
]


def _check_budget(budget: "int | None") -> None:
    if budget is not None and budget <= 0:
        raise ValueError(f"budget must be positive or None, got {budget}")


class AdHocSolver(Solver):
    """A constructive ad hoc method as a one-shot solver.

    No budget, no warm start: the method builds its placement from
    scratch (that is its job as a scenario *baseline* and initializer
    source).  ``solve`` costs exactly one evaluation; passing a warm
    start is an error — silently discarding the caller's placement
    would be worse than refusing it.
    """

    supports_warm_start = False

    def __init__(self, method: str = "hotspot", **method_params) -> None:
        self._method_name = method
        self._method = make_method(method, **method_params)

    @property
    def name(self) -> str:
        return f"adhoc:{self._method_name}"

    def solve(
        self,
        problem: ProblemInstance,
        *,
        seed=0,
        budget=None,
        warm_start=None,
        fitness=None,
        deadline: "Deadline | None" = None,
    ) -> SolveResult:
        # ``deadline`` is accepted for contract uniformity but has no
        # phase boundaries to poll: a constructive method is one atomic
        # build-and-evaluate, which even an expired deadline must allow
        # (the anytime contract requires a valid evaluated result).
        _check_budget(budget)
        if warm_start is not None:
            raise ValueError(
                f"{self.name} is a constructive method and does not accept "
                "a warm start (it always builds from scratch)"
            )
        started = DEFAULT_CLOCK.now()
        rng_init, _ = solver_streams(seed)
        placement = self._method.place(problem, rng_init)
        evaluator = Evaluator(problem, fitness)
        evaluation = evaluator.evaluate(placement)
        return SolveResult(
            solver=self.name,
            best=evaluation,
            n_evaluations=1,
            n_phases=0,
            warm_started=False,
            elapsed_seconds=DEFAULT_CLOCK.now() - started,
        )


class _InitializedSolver(Solver):
    """Shared init-stream handling of the warm-startable families."""

    def __init__(self, init: str = "random") -> None:
        self._init_name = init
        self._init_method = make_method(init)

    def initial_placement(
        self, problem: ProblemInstance, seed
    ) -> Placement:
        """The placement a cold :meth:`solve` with this seed starts from.

        Drawn from the dedicated init stream, so passing it back as
        ``warm_start`` with the same seed reproduces the cold run
        bit-for-bit — the contract the warm-start parity tests pin.
        """
        rng_init, _ = solver_streams(seed)
        return self._init_method.place(problem, rng_init)

    def _resolve_start(
        self,
        problem: ProblemInstance,
        seed,
        warm_start: "Placement | None",
    ) -> tuple[Placement, np.random.Generator, bool]:
        """(initial placement, run stream, warm?) under the stream contract."""
        self.check_warm_start(problem, warm_start)
        rng_init, rng_run = solver_streams(seed)
        if warm_start is not None:
            return warm_start, rng_run, True
        return self._init_method.place(problem, rng_init), rng_run, False


class _LocalSearchSolver(_InitializedSolver):
    """The local-search families on the one lockstep driver.

    :meth:`solve_batch` runs every seed as one chain of a
    :class:`~repro.neighborhood.multichain.MultiChainSearch` portfolio
    on the family's acceptance rule, and :meth:`solve` is its one-seed
    batch.  A subclass names its registry ``family`` and its driver
    (:meth:`_chains`) and sets its knobs before calling this
    constructor.
    """

    family: str

    def __init__(self, movement: str, init: str, **movement_params) -> None:
        super().__init__(init)
        self._movement_name = movement
        self._movement = make_movement(movement, **movement_params)
        # The family's driver checks its knobs as it is built; building
        # one here makes a bad knob fail now, not in the first solve.
        self._chains(self.max_phases)

    @property
    def name(self) -> str:
        return f"{self.family}:{self._movement_name}"

    def _chains(self, max_phases: int) -> MultiChainSearch:
        """The family's lockstep driver at a phase budget."""
        raise NotImplementedError

    def solve(
        self,
        problem: ProblemInstance,
        *,
        seed=0,
        budget=None,
        warm_start=None,
        fitness=None,
        deadline: "Deadline | None" = None,
    ) -> SolveResult:
        return self.solve_batch(
            problem,
            [seed],
            budget=budget,
            warm_starts=[warm_start],
            fitness=fitness,
            deadline=deadline,
        )[0]

    def solve_batch(
        self,
        problem: ProblemInstance,
        seeds,
        *,
        budget=None,
        warm_starts=None,
        fitness=None,
        deadline: "Deadline | None" = None,
    ) -> list[SolveResult]:
        """All seeds as one lockstep multi-chain portfolio.

        Seed ``i``'s init/run streams come from the
        :func:`~repro.solvers.base.solver_streams` split, and each chain
        consumes only its own run stream inside
        :class:`~repro.neighborhood.multichain.MultiChainSearch`, so the
        per-seed results (best, trace, phase and evaluation counts) are
        bit-identical to solving each seed alone (:meth:`solve` is the
        one-seed batch).  A shared ``deadline`` masks the chains still
        running when it fires.
        """
        _check_budget(budget)
        warm_starts = _check_batch(seeds, warm_starts)
        initials, rngs, warm_flags = zip(
            *(
                self._resolve_start(problem, seed, warm_start)
                for seed, warm_start in zip(seeds, warm_starts)
            )
        )
        search = self._chains(budget if budget is not None else self.max_phases)
        results = search.run(
            problem, initials, rngs, fitness=fitness, deadline=deadline
        )
        return [
            SolveResult(
                solver=self.name,
                best=result.best,
                n_evaluations=result.n_evaluations,
                n_phases=result.n_phases,
                warm_started=warm,
                trace=result.trace,
                stopped_by=result.stopped_by,
                elapsed_seconds=result.elapsed_seconds,
            )
            for result, warm in zip(results, warm_flags)
        ]


class NeighborhoodSolver(_LocalSearchSolver):
    """The paper's best-improvement neighborhood search (Algorithm 1).

    This family's warm-start saving comes from ``stall_phases``: a
    near-converged start stops after a handful of phases.
    """

    family = "search"

    def __init__(
        self,
        movement: str = "swap",
        init: str = "random",
        n_candidates: int = 16,
        max_phases: int = 64,
        stall_phases: "int | None" = None,
        accept_equal: bool = False,
        **movement_params,
    ) -> None:
        self.n_candidates = n_candidates
        self.max_phases = max_phases
        self.stall_phases = stall_phases
        self.accept_equal = accept_equal
        super().__init__(movement, init, **movement_params)

    def _chains(self, max_phases: int) -> MultiChainSearch:
        return MultiChainSearch(
            self._movement,
            n_candidates=self.n_candidates,
            max_phases=max_phases,
            stall_phases=self.stall_phases,
            accept_equal=self.accept_equal,
        )


class AnnealingSolver(_LocalSearchSolver):
    """Simulated annealing (the authors' WMN-SA follow-up line)."""

    family = "annealing"

    def __init__(
        self,
        movement: str = "swap",
        init: str = "random",
        schedule: "AnnealingSchedule | None" = None,
        max_phases: int = 64,
        moves_per_phase: int = 16,
        **movement_params,
    ) -> None:
        self.schedule = schedule
        self.max_phases = max_phases
        self.moves_per_phase = moves_per_phase
        super().__init__(movement, init, **movement_params)

    def _chains(self, max_phases: int) -> MultiChainSearch:
        return MultiChainSearch.annealing(
            self._movement,
            schedule=self.schedule,
            max_phases=max_phases,
            moves_per_phase=self.moves_per_phase,
        )


class TabuSolver(_LocalSearchSolver):
    """Tabu search (the authors' WMN-TS follow-up line)."""

    family = "tabu"

    def __init__(
        self,
        movement: str = "swap",
        init: str = "random",
        tenure: int = 8,
        n_candidates: int = 16,
        max_phases: int = 64,
        **movement_params,
    ) -> None:
        self.tenure = tenure
        self.n_candidates = n_candidates
        self.max_phases = max_phases
        super().__init__(movement, init, **movement_params)

    def _chains(self, max_phases: int) -> MultiChainSearch:
        return MultiChainSearch.tabu(
            self._movement,
            tenure=self.tenure,
            n_candidates=self.n_candidates,
            max_phases=max_phases,
        )


class MultiStartSolver(Solver):
    """Best-of-``R`` restarts on the lockstep multi-chain engine.

    Chain ``r`` draws its initial placement from its own spawned
    generator (the :func:`~repro.neighborhood.multichain.chain_generators`
    contract).  A warm start replaces chain 0's initial *after* the draw
    — the draw is still consumed, so every chain's proposal stream is
    identical to the cold run's and only the start of chain 0 differs.
    """

    def __init__(
        self,
        movement: str = "swap",
        n_restarts: int = 8,
        n_candidates: int = 16,
        max_phases: int = 64,
        stall_phases: "int | None" = None,
        accept_equal: bool = False,
        **movement_params,
    ) -> None:
        if n_restarts <= 0:
            raise ValueError(f"n_restarts must be positive, got {n_restarts}")
        check_search_parameters(n_candidates, max_phases, stall_phases)
        self._movement_name = movement
        self._movement = make_movement(movement, **movement_params)
        self.n_restarts = n_restarts
        self.n_candidates = n_candidates
        self.max_phases = max_phases
        self.stall_phases = stall_phases
        self.accept_equal = accept_equal

    @property
    def name(self) -> str:
        return f"multistart:{self._movement_name}"

    def solve(
        self,
        problem: ProblemInstance,
        *,
        seed=0,
        budget=None,
        warm_start=None,
        fitness=None,
        deadline: "Deadline | None" = None,
    ) -> SolveResult:
        _check_budget(budget)
        self.check_warm_start(problem, warm_start)
        rngs = chain_generators(seed, self.n_restarts)
        initials = [
            Placement.random(problem.grid, problem.n_routers, rng)
            for rng in rngs
        ]
        warm = warm_start is not None
        if warm:
            initials[0] = warm_start
        search = MultiChainSearch(
            self._movement,
            n_candidates=self.n_candidates,
            max_phases=budget if budget is not None else self.max_phases,
            stall_phases=self.stall_phases,
            accept_equal=self.accept_equal,
        )
        results = search.run(
            problem, initials, rngs, fitness=fitness, deadline=deadline
        )
        fitnesses = np.array([result.best.fitness for result in results])
        winner = results[int(np.argmax(fitnesses))]
        # The portfolio was cut short if *any* restart chain was masked
        # out, even when the winning chain had already converged.
        stopped_by = next(
            (result.stopped_by for result in results if result.stopped_by),
            None,
        )
        return SolveResult(
            solver=self.name,
            best=winner.best,
            n_evaluations=sum(result.n_evaluations for result in results),
            n_phases=winner.n_phases,
            warm_started=warm,
            trace=winner.trace,
            stopped_by=stopped_by,
            elapsed_seconds=winner.elapsed_seconds,
        )


class WarmStartInitializer(PopulationInitializer):
    """Inject a warm-start individual into another initializer's output.

    The inner initializer generates the *full* population first (its
    stream consumption is unchanged), then individual 0 is replaced by
    the warm placement — cold and warm GA runs therefore share every
    random draw and differ only in that one chromosome.
    """

    def __init__(
        self, inner: PopulationInitializer, warm_start: Placement
    ) -> None:
        self.inner = inner
        self.warm_start = warm_start

    def generate(
        self, problem: ProblemInstance, size: int, rng: np.random.Generator
    ) -> list[Placement]:
        placements = self.inner.generate(problem, size, rng)
        placements[0] = self.warm_start
        return placements

    def __repr__(self) -> str:
        return f"WarmStartInitializer(inner={self.inner!r})"


class GeneticSolver(Solver):
    """The generational GA, initialized by an ad hoc method."""

    def __init__(
        self,
        init: str = "hotspot",
        population_size: int = 64,
        n_generations: int = 200,
        config: "GAConfig | None" = None,
    ) -> None:
        self._init_name = init
        self._initializer = AdHocInitializer(make_method(init))
        if config is None:
            config = GAConfig(
                population_size=population_size, n_generations=n_generations
            )
        self.config = config

    @property
    def name(self) -> str:
        return f"ga:{self._init_name}"

    def solve(
        self,
        problem: ProblemInstance,
        *,
        seed=0,
        budget=None,
        warm_start=None,
        fitness=None,
        deadline: "Deadline | None" = None,
    ) -> SolveResult:
        _check_budget(budget)
        self.check_warm_start(problem, warm_start)
        # The GA draws its population inside the run stream (its single
        # generator covers init + evolution); the warm individual is
        # substituted after generation, keeping the streams aligned.
        _, rng_run = solver_streams(seed)
        config = self.config
        if budget is not None:
            config = dataclass_replace(config, n_generations=budget)
        initializer: PopulationInitializer = self._initializer
        warm = warm_start is not None
        if warm:
            initializer = WarmStartInitializer(initializer, warm_start)
        evaluator = Evaluator(problem, fitness)
        result = GeneticAlgorithm(config).run(
            evaluator, initializer, rng_run, deadline=deadline
        )
        return SolveResult(
            solver=self.name,
            best=result.best,
            n_evaluations=result.n_evaluations,
            n_phases=result.n_generations,
            warm_started=warm,
            trace=result.trace,
            stopped_by=result.stopped_by,
            elapsed_seconds=result.elapsed_seconds,
        )
