"""The genetic algorithm engine.

Section 5 evaluates the ad hoc methods "by using a genetic algorithm
implementation for the problem".  The paper does not publish its GA
internals, so this is a standard generational GA with elitism:
tournament selection, spatial crossover and composite mutation by
default, all operators pluggable.

The engine reports a :class:`~repro.genetic.trace.GATrace` whose
``best_giant_size`` series is exactly what Figures 1-3 plot.

A chromosome is an int ``(N, 2)`` cell array, and the operators map
arrays to arrays.  The population is one
:class:`~repro.genetic.population.Population` on every path: the int32
``(P, N, 2)`` cell stack plus its rows of one
:class:`~repro.core.engine.batch.StackedMeasurement`.  A generation has
two producers, chosen once per run, and one tail.

A producer returns ``(source, cells)``: per slot the index of the
member kept there (the elites, fittest first, then the parents copied
unchanged) or ``-1`` for a new child, and the slots' cells.  The Python
operators are the reference producer
(:meth:`GeneticAlgorithm._next_generation`): selection returns member
indices, and crossover and mutation run on the members' rows of the
cell stack.  When the compiled tier is loaded and the operators are
exactly the default kinds (tournament selection, region-exchange
crossover, and Jiggle, TowardCentroid or Reset mutation alone or in a
:class:`CompositeMutation` of them; a subclass keeps its overrides on
the Python path), a generation's selection, crossover, collision repair
and mutation are one kernel call instead,
:func:`repro.core.engine.compiled.ga_generation`, which draws what the
Python operators draw, in their order, on the run's generator.

The tail is :meth:`~repro.genetic.population.Population.successor`: a
kept slot holds its member's cells and copies its rows, and the new
children are checked in one pass
(:meth:`~repro.core.solution.Placement.check_stack`) and measured as
one cell stack in
:meth:`~repro.genetic.population.Population.evaluate_all`.  A
:class:`~repro.core.solution.Placement` and its ``Evaluation`` are
built only for a new best, which is what the result returns.  Traces,
the best member, evaluation counts and the generator's final state are
the same on both producers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.anytime.deadline import DEFAULT_CLOCK
from repro.core.engine import compiled
from repro.core.evaluation import Evaluation, Evaluator
from repro.genetic.crossover import CrossoverOperator, RegionExchangeCrossover
from repro.genetic.initializers import PopulationInitializer
from repro.genetic.mutation import (
    CompositeMutation,
    JiggleMutation,
    MutationOperator,
    ResetMutation,
    TowardCentroidMutation,
)
from repro.genetic.population import Population
from repro.genetic.selection import SelectionOperator, TournamentSelection
from repro.genetic.trace import GATrace, GenerationRecord

if TYPE_CHECKING:
    from repro.anytime.deadline import Deadline
    from repro.core.grid import GridArea

__all__ = ["GAConfig", "GAResult", "GeneticAlgorithm"]


#: Above this many routers numpy's ``choice`` without replacement
#: shuffles a whole index array once the picks exceed 1/50 of them, a
#: path the generation kernel does not draw; ResetMutation stays in
#: Python there.
_CHOICE_TAIL_SHUFFLE_ABOVE = 10000

#: What the generation kernel runs a mutation as: its operators' rows
#: ``(MUTATE_*, radius | jitter | count, per-gene rate | max step
#: fraction)`` and a composite's cumulative table (``None`` for one
#: operator).
_KernelPlan = tuple[list[tuple[int, int, float]], list[float] | None]


def _elites(fitness: "Sequence[float]", count: int) -> np.ndarray:
    """Indices of the ``count`` fittest members, fittest first.

    A stable descending rank keeps equal-fitness members in population
    order.
    """
    return np.argsort(-np.asarray(fitness), kind="stable")[:count]


def _default_crossover() -> CrossoverOperator:
    return RegionExchangeCrossover()


def _default_mutation() -> MutationOperator:
    # Local refinement, centroid-directed compaction (the follow-up
    # WMN-GA directed mutation) and occasional teleports for exploration.
    return CompositeMutation(
        [
            JiggleMutation(radius=4, per_gene_rate=0.1),
            TowardCentroidMutation(),
            ResetMutation(count=1),
        ],
        weights=[0.5, 0.35, 0.15],
    )


def _default_selection() -> SelectionOperator:
    return TournamentSelection(size=3)


@dataclass
class GAConfig:
    """Hyper-parameters of one GA run."""

    population_size: int = 64
    n_generations: int = 200
    crossover_rate: float = 0.8
    mutation_rate: float = 0.3
    n_elites: int = 2
    selection: SelectionOperator = field(default_factory=_default_selection)
    crossover: CrossoverOperator = field(default_factory=_default_crossover)
    mutation: MutationOperator = field(default_factory=_default_mutation)

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.n_generations < 0:
            raise ValueError(
                f"n_generations must be non-negative, got {self.n_generations}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(
                f"crossover_rate must be in [0, 1], got {self.crossover_rate}"
            )
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(
                f"mutation_rate must be in [0, 1], got {self.mutation_rate}"
            )
        if not 0 <= self.n_elites < self.population_size:
            raise ValueError(
                f"n_elites must be in [0, population_size), got {self.n_elites}"
            )


@dataclass(frozen=True)
class GAResult:
    """Outcome of one GA run.

    ``stopped_by`` is ``None`` for a run that completed its generation
    budget (or hit its fitness target) and ``"deadline"``/``"cancelled"``
    when a :class:`~repro.anytime.deadline.Deadline` stopped it early.
    ``elapsed_seconds`` is wall-clock (excluded from equality).
    """

    best: Evaluation
    trace: GATrace
    n_generations: int
    n_evaluations: int
    stopped_by: str | None = None
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def giant_size(self) -> int:
        """Giant component size of the best individual found."""
        return self.best.giant_size

    @property
    def covered_clients(self) -> int:
        """Covered clients of the best individual found."""
        return self.best.covered_clients


class GeneticAlgorithm:
    """Generational GA with elitism over placement chromosomes."""

    def __init__(self, config: GAConfig | None = None) -> None:
        self.config = config if config is not None else GAConfig()

    def run(
        self,
        evaluator: Evaluator,
        initializer: PopulationInitializer,
        rng: np.random.Generator,
        fitness_target: float | None = None,
        deadline: "Deadline | None" = None,
    ) -> GAResult:
        """Evolve from ``initializer``'s population; returns best + trace.

        ``deadline`` is polled once per generation boundary (cooperative
        cancellation): when it fires the run stops and returns the best
        individual so far with ``stopped_by`` set.  An already-expired
        deadline still evaluates the initial population, so the result
        is always a valid evaluated solution.
        """
        started = DEFAULT_CLOCK.now()
        config = self.config
        evaluations_before = evaluator.n_evaluations
        placements = initializer.generate(
            evaluator.problem, config.population_size, rng
        )
        # Building the evaluator loaded the compiled tier, if it loads.
        plan = (
            self._kernel_plan(evaluator.problem.n_routers)
            if compiled.is_loaded()
            else None
        )
        grid = evaluator.problem.grid
        population = Population.evaluate_all(
            evaluator, [placement.cells_array() for placement in placements]
        )

        trace = GATrace()
        best = population[int(np.argmax(population.fitness))]
        self._record(trace, 0, population, best, evaluator, evaluations_before)

        generation = 0
        stopped_by: str | None = None
        for next_generation in range(1, config.n_generations + 1):
            if deadline is not None:
                stopped_by = deadline.stop_reason()
                if stopped_by is not None:
                    break
            generation = next_generation
            if plan is None:
                source, cells = self._next_generation(population, grid, rng)
            else:
                source, cells = self._kernel_offspring(
                    population.cells, population.fitness, plan, grid, rng
                )
            population = population.successor(evaluator, source, cells)
            # The first fittest member, built only when it beats the best.
            index = int(np.argmax(population.fitness))
            if population.fitness[index] > best.fitness:
                best = population[index]
            self._record(
                trace, generation, population, best, evaluator, evaluations_before
            )
            if fitness_target is not None and best.fitness >= fitness_target:
                break
        return GAResult(
            best=best,
            trace=trace,
            n_generations=generation,
            n_evaluations=evaluator.n_evaluations - evaluations_before,
            stopped_by=stopped_by,
            elapsed_seconds=DEFAULT_CLOCK.now() - started,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _next_generation(
        self,
        population: Population,
        grid: GridArea,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """One generation of the Python operators from ``population``:
        per slot the index of the member kept there (the elites, fittest
        first, then the parents copied unchanged) or ``-1`` for a child
        that went through crossover or mutation, and the slots' cells."""
        config = self.config
        elites = _elites(population.fitness, config.n_elites)
        source = elites.tolist()
        cells = list(population.cells[elites])
        while len(cells) < config.population_size:
            a, b = config.selection.select_pair(population, rng)
            children = [(a, population.cells[a]), (b, population.cells[b])]
            if rng.uniform() < config.crossover_rate:
                offspring = config.crossover.crossover(
                    grid, population.cells[a], population.cells[b], rng
                )
                children = [(-1, child) for child in offspring]
            for parent, child in children:
                if rng.uniform() < config.mutation_rate:
                    parent, child = -1, config.mutation.mutate(grid, child, rng)
                source.append(parent)
                cells.append(child)
                if len(cells) == config.population_size:
                    break
        return np.array(source, dtype=np.int64), cells

    def _kernel_plan(self, n_routers: int) -> "_KernelPlan | None":
        """The generation kernel's plan for this run's operators on
        ``n_routers`` routers, or ``None`` when they are not exactly the
        kinds it draws."""
        config = self.config
        mutation = config.mutation
        if (
            type(config.selection) is not TournamentSelection
            or type(config.crossover) is not RegionExchangeCrossover
        ):
            return None
        composite = type(mutation) is CompositeMutation
        rows = []
        for operator in mutation.operators if composite else [mutation]:
            kind = type(operator)
            if kind is JiggleMutation:
                rows.append(
                    (compiled.MUTATE_JIGGLE, operator.radius, operator.per_gene_rate)
                )
            # The kernel's bounded draws span at most 2**32 values.
            elif kind is TowardCentroidMutation and operator.jitter < 1 << 31:
                rows.append(
                    (
                        compiled.MUTATE_TOWARD_CENTROID,
                        operator.jitter,
                        operator.max_step_fraction,
                    )
                )
            elif kind is ResetMutation and not (
                n_routers > _CHOICE_TAIL_SHUFFLE_ABOVE
                and min(operator.count, n_routers) > n_routers // 50
            ):
                rows.append((compiled.MUTATE_RESET, operator.count, 0.0))
            else:
                return None
        return rows, mutation.cdf if composite else None

    def _kernel_offspring(
        self,
        cells: np.ndarray,
        fitness: "Sequence[float]",
        plan: _KernelPlan,
        grid: GridArea,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One generation kernel call from a population's int32 ``(P, N,
        2)`` cell stack and fitness: per slot the index of the member
        kept there (the elites, fittest first, then the parents copied
        unchanged) or ``-1`` for a new child, and the slots' cells."""
        config = self.config
        crossover = config.crossover
        rows, cdf = plan
        source, offspring = compiled.ga_generation(
            rng,
            cells,
            fitness,
            config.n_elites,
            config.selection.size,
            (config.crossover_rate, config.mutation_rate),
            (crossover.min_fraction, crossover.max_fraction),
            rows,
            cdf,
            grid.width,
            grid.height,
        )
        elites = _elites(fitness, config.n_elites)
        source[: config.n_elites] = elites
        offspring[: config.n_elites] = cells[elites]
        return source, offspring

    @staticmethod
    def _record(
        trace: GATrace,
        generation: int,
        population: Population,
        best: Evaluation,
        evaluator: Evaluator,
        evaluations_before: int,
    ) -> None:
        trace.append(
            GenerationRecord(
                generation=generation,
                best_fitness=best.fitness,
                mean_fitness=population.mean_fitness(),
                best_giant_size=best.giant_size,
                best_covered_clients=best.covered_clients,
                diversity=population.diversity(),
                n_evaluations=evaluator.n_evaluations - evaluations_before,
            )
        )

    def __repr__(self) -> str:
        return f"GeneticAlgorithm(config={self.config!r})"
