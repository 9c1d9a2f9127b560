"""GA populations.

A population is an ordered tuple of :class:`~repro.core.evaluation.Evaluation`
members, so it is always measured: an evaluation carries its placement,
whose int ``(N, 2)`` cell array is the member's chromosome.  The
container adds the aggregate queries the engine and the diversity
analysis need (best member, elites, mean fitness, spatial diversity of
the gene pool).  The Python operator path of
:class:`~repro.genetic.engine.GeneticAlgorithm` holds one; a run on the
compiled tier holds a cell stack and measurement rows instead, and
:func:`stack_diversity` is the reference its C diversity
(:func:`repro.core.engine.compiled.stack_diversity`) is tested against.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

from repro.core.evaluation import Evaluation, Evaluator
from repro.core.solution import Placement

__all__ = ["Population", "stack_diversity"]

#: Router-pair distances computed per block by :func:`stack_diversity`.
_DIVERSITY_BLOCK = 1 << 15

#: Largest coordinate whose squared distances (dx² + dy²) fit in int32.
_INT32_SAFE_COORDINATE = 32767


@functools.lru_cache(maxsize=8)
def _pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of every pair ``(i, j > i)`` of ``size`` items, row-major."""
    return np.triu_indices(size, 1)


class Population:
    """An ordered, evaluated collection of GA members."""

    __slots__ = ("members", "fitness")

    def __init__(self, members: Sequence[Evaluation]) -> None:
        if not members:
            raise ValueError("a population must contain at least one member")
        self.members: tuple[Evaluation, ...] = tuple(members)
        #: Fitness of every member, in population order.
        self.fitness: tuple[float, ...] = tuple(
            member.fitness for member in self.members
        )

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Evaluation]:
        return iter(self.members)

    def __getitem__(self, index: int) -> Evaluation:
        return self.members[index]

    @classmethod
    def evaluate_all(
        cls,
        evaluator: Evaluator,
        members: "Sequence[Evaluation | Placement | np.ndarray]",
    ) -> "Population":
        """The population of ``members``, each measured at most once.

        An :class:`Evaluation` (an elite, or a parent copied unchanged)
        is kept.  The cell arrays are built into placements here, the
        one place a new chromosome becomes a placement: they are checked
        together (:meth:`Placement.from_cell_arrays`), so the invariants
        hold for every child.  Every placement is then measured in one
        ``evaluate_many`` batch, in member order.
        """
        members = list(members)
        pending = [
            index
            for index, member in enumerate(members)
            if not isinstance(member, Evaluation)
        ]
        if pending:
            arrays = [
                index for index in pending if isinstance(members[index], np.ndarray)
            ]
            built = Placement.from_cell_arrays(
                evaluator.problem.grid, [members[index] for index in arrays]
            )
            for index, placement in zip(arrays, built):
                members[index] = placement
            placements = [members[index] for index in pending]
            for index, evaluation in zip(pending, evaluator.evaluate_many(placements)):
                members[index] = evaluation
        return cls(members)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def best(self) -> Evaluation:
        """The fittest member (first on ties, deterministic)."""
        fitness = self.fitness
        return self.members[max(range(len(fitness)), key=fitness.__getitem__)]

    def elite_indices(self, count: int) -> list[int]:
        """Indices of the ``count`` fittest members, fittest first."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        fitness = self.fitness
        # A stable sort keeps equal-fitness members in population order.
        ranked = sorted(range(len(fitness)), key=fitness.__getitem__, reverse=True)
        return ranked[:count]

    def elites(self, count: int) -> list[Evaluation]:
        """The ``count`` fittest members, fittest first."""
        return [self.members[index] for index in self.elite_indices(count)]

    def mean_fitness(self) -> float:
        """Average fitness over the population."""
        return float(np.mean(self.fitness))

    def fitness_values(self) -> np.ndarray:
        """Fitness of every member, in population order."""
        return np.array(self.fitness)

    def cell_stack(self) -> np.ndarray:
        """The members' chromosomes as one ``(P, N, 2)`` cell stack."""
        return np.stack([member.placement.cells_array() for member in self.members])

    def diversity(self, cells: "np.ndarray | None" = None) -> float:
        """Mean pairwise distance between chromosomes (gene-averaged).

        "The diversity of the population ... is a crucial factor to avoid
        premature convergence" (Section 5): this metric lets experiments
        quantify what the different ad hoc initializers contribute.
        ``cells`` is the population's :meth:`cell_stack` when the caller
        already holds it; see :func:`stack_diversity`.
        """
        return stack_diversity(self.cell_stack() if cells is None else cells)


def stack_diversity(cells: np.ndarray) -> float:
    """Diversity of a ``(P, N, 2)`` cell stack.

    The average over router ids of the mean pairwise Euclidean distance
    between the routers' cells across the ``P`` chromosomes.
    """
    size = len(cells)
    if size < 2:
        return 0.0
    # (P, N) x and y planes: population size x routers.  Integer
    # arithmetic gives dx² + dy² exactly, as the float coordinates
    # did, in half the memory traffic of float64.
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
