"""Parent selection operators.

Standard GA selection schemes over evaluated populations.  All operators
are maximizing and deterministic given the RNG, so experiment runs
reproduce exactly from a seed.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from repro.core.evaluation import Evaluation
from repro.genetic.population import Population

__all__ = [
    "SelectionOperator",
    "TournamentSelection",
    "RouletteWheelSelection",
    "RankSelection",
]


class SelectionOperator(abc.ABC):
    """Chooses one parent from an evaluated population."""

    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def select(self, population: Population, rng: np.random.Generator) -> Evaluation:
        """One parent."""

    def select_pair(
        self, population: Population, rng: np.random.Generator
    ) -> tuple[Evaluation, Evaluation]:
        """Two independently selected parents (may coincide)."""
        return self.select(population, rng), self.select(population, rng)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class TournamentSelection(SelectionOperator):
    """Best of ``size`` uniformly drawn contestants (with replacement)."""

    name: ClassVar[str] = "tournament"

    def __init__(self, size: int = 3) -> None:
        if size <= 0:
            raise ValueError(f"tournament size must be positive, got {size}")
        self.size = size

    def select(self, population: Population, rng: np.random.Generator) -> Evaluation:
        fitness = population.fitness
        indices = rng.integers(0, len(population), size=self.size).tolist()
        return population[max(indices, key=fitness.__getitem__)]

    def __repr__(self) -> str:
        return f"TournamentSelection(size={self.size})"


class RouletteWheelSelection(SelectionOperator):
    """Fitness-proportionate selection.

    Fitness values are shifted to be positive before normalization, so
    the operator works for any scalarization (lexicographic scores are
    large but finite).  A degenerate population (all equal fitness)
    selects uniformly.
    """

    name: ClassVar[str] = "roulette"

    def select(self, population: Population, rng: np.random.Generator) -> Evaluation:
        values = population.fitness_values()
        shifted = values - values.min()
        total = shifted.sum()
        if total <= 0:
            index = int(rng.integers(0, len(population)))
        else:
            index = int(rng.choice(len(population), p=shifted / total))
        return population[index]


class RankSelection(SelectionOperator):
    """Linear rank-proportionate selection.

    Selection pressure depends only on fitness ordering, not magnitude —
    robust when fitness scales vary wildly across instances.
    """

    name: ClassVar[str] = "rank"

    def select(self, population: Population, rng: np.random.Generator) -> Evaluation:
        values = population.fitness_values()
        # ranks: worst member gets 1, best gets len(population)
        order = np.argsort(np.argsort(values, kind="stable"), kind="stable") + 1
        probabilities = order / order.sum()
        index = int(rng.choice(len(population), p=probabilities))
        return population[index]
