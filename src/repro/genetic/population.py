"""GA populations.

A thin, explicit container over :class:`~repro.genetic.individual.Individual`
with the aggregate queries the engine and the diversity analysis need
(best individual, mean fitness, spatial diversity of the gene pool).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.evaluation import Evaluator
from repro.genetic.individual import Individual

__all__ = ["Population"]

#: Router-pair distances computed per block by :meth:`Population.diversity`.
_DIVERSITY_BLOCK = 1 << 15

#: Largest coordinate whose squared distances (dx² + dy²) fit in int32.
_INT32_SAFE_COORDINATE = 32767


@functools.lru_cache(maxsize=8)
def _pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of every pair ``(i, j > i)`` of ``size`` items, row-major."""
    return np.triu_indices(size, 1)


@dataclass
class Population:
    """An ordered collection of individuals."""

    individuals: list[Individual] = field(default_factory=list)
    #: Fitness of every individual, set once all of them are evaluated.
    #: The GA never mutates a population after evaluating it, so the
    #: per-pick aggregates and selection read this instead of re-checking
    #: every individual.
    _fitness: tuple[float, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.individuals:
            raise ValueError("a population must contain at least one individual")

    def __len__(self) -> int:
        return len(self.individuals)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.individuals)

    def __getitem__(self, index: int) -> Individual:
        return self.individuals[index]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate_all(self, evaluator: Evaluator) -> None:
        """Ensure every individual carries an evaluation.

        The unevaluated individuals (a whole offspring generation, after
        elites carried their cached evaluations over) are measured as one
        batch through the vectorized engine — bit-identical results and
        evaluation counts, one pass instead of a Python loop.  Evaluators
        without a batch path (e.g. test doubles) fall back to the scalar
        loop.
        """
        pending = [ind for ind in self.individuals if not ind.is_evaluated]
        if not pending:
            return
        evaluate_many = getattr(evaluator, "evaluate_many", None)
        if evaluate_many is None:
            for individual in pending:
                individual.ensure_evaluated(evaluator)
            return
        evaluations = evaluate_many([ind.placement for ind in pending])
        for individual, evaluation in zip(pending, evaluations):
            individual.evaluation = evaluation

    def require_evaluated(self) -> None:
        """Raise unless every individual is evaluated."""
        for index, individual in enumerate(self.individuals):
            if not individual.is_evaluated:
                raise ValueError(f"individual {index} has not been evaluated")

    def fitness_tuple(self) -> tuple[float, ...]:
        """Fitness of every individual, in population order (cached)."""
        if self._fitness is None:
            self.require_evaluated()
            self._fitness = tuple(ind.fitness for ind in self.individuals)
        return self._fitness

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def best(self) -> Individual:
        """The fittest individual (first on ties, deterministic)."""
        fitness = self.fitness_tuple()
        return self.individuals[max(range(len(fitness)), key=fitness.__getitem__)]

    def elites(self, count: int) -> list[Individual]:
        """The ``count`` fittest individuals, fittest first."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        fitness = self.fitness_tuple()
        # A stable sort keeps equal-fitness individuals in population order.
        ranked = sorted(range(len(fitness)), key=fitness.__getitem__, reverse=True)
        return [self.individuals[index].copy() for index in ranked[:count]]

    def mean_fitness(self) -> float:
        """Average fitness over the population."""
        return float(np.mean(self.fitness_tuple()))

    def fitness_values(self) -> np.ndarray:
        """Fitness of every individual, in population order."""
        return np.array(self.fitness_tuple())

    def diversity(self) -> float:
        """Mean pairwise distance between chromosomes (gene-averaged).

        "The diversity of the population ... is a crucial factor to avoid
        premature convergence" (Section 5): this metric lets experiments
        quantify what the different ad hoc initializers contribute.
        Computed as the average over router ids of the mean pairwise
        Euclidean distance between the routers' cells across individuals.
        """
        size = len(self.individuals)
        if size < 2:
            return 0.0
        # (P, N) x and y planes: population size x routers.  Integer
        # arithmetic gives dx² + dy² exactly, as the float coordinates
        # did, in half the memory traffic of float64.
        cells = np.stack([ind.placement.cells_array() for ind in self.individuals])
        if cells.max() > _INT32_SAFE_COORDINATE:
            cells = cells.astype(np.int64)
        xs, ys = cells[:, :, 0], cells[:, :, 1]
        # Every pair (i, j > i) in row-major order, a block of pairs at a
        # time so the (pairs, N) temporaries stay small.  A full
        # (P, P, N) distance tensor would do twice the work.
        first, second = _pairs(size)
        pair_means = np.empty(len(first))
        step = max(1, _DIVERSITY_BLOCK // cells.shape[1])
        for lo in range(0, len(first), step):
            a, b = first[lo : lo + step], second[lo : lo + step]
            dx, dy = xs[b] - xs[a], ys[b] - ys[a]
            pair_means[lo : lo + step] = np.sqrt(dx * dx + dy * dy).mean(axis=1)
        # Summed per first index, then across, in the order (and so with
        # the rounding) of the row-by-row formulation.
        total = 0.0
        start = 0
        for count in range(size - 1, 0, -1):
            total += float(np.add.reduce(pair_means[start : start + count]))
            start += count
        return total / start

    @classmethod
    def from_placements(cls, placements: Sequence) -> "Population":
        """Wrap raw placements into unevaluated individuals."""
        return cls([Individual(placement=placement) for placement in placements])
