"""GA populations.

A population is the int32 ``(P, N, 2)`` cell stack of its members'
chromosomes plus their rows of one
:class:`~repro.core.engine.batch.StackedMeasurement` (fitness, giant
sizes, covered clients, components, links and giant masks), so it is
always measured.  Both generation producers of
:class:`~repro.genetic.engine.GeneticAlgorithm`, the compiled generation
kernel and the Python operators, hand the next generation over as
``(source, cells)``, and :meth:`Population.successor` builds it: a kept
slot holds its member's cells and copies its rows, and the new children
are checked, measured as one stack and counted in :meth:`evaluate_all`.
Indexing builds a member's :class:`~repro.core.solution.Placement` and
:class:`~repro.core.evaluation.Evaluation` only when asked.  The
diversity of the gene pool is one C call
(:func:`repro.core.engine.compiled.stack_diversity`) when the compiled
library is loaded and :func:`stack_diversity`, the numpy reference it
is tested against bit for bit, otherwise.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.core.engine import compiled
from repro.core.engine.batch import StackedMeasurement
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
    """An ordered, measured collection of GA members.

    ``cells`` is the members' int32 ``(P, N, 2)`` cell stack (the
    population takes it over, read-only), ``rows`` their measurement and
    ``fitness`` its fitness row.
    """

    __slots__ = ("cells", "rows", "fitness")

    def __init__(self, cells: np.ndarray, rows: StackedMeasurement) -> None:
        if not len(cells):
            raise ValueError("a population must contain at least one member")
        cells.setflags(write=False)
        self.cells = cells
        self.rows = rows
        #: Fitness of every member, in population order.
        self.fitness: np.ndarray = rows.fitness

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, index: int) -> Evaluation:
        """Member ``index``, its placement built from a copy of its cells."""
        grid = self.rows.problem.grid
        return self.rows.evaluation(
            index, Placement._trusted(grid, self.cells[index].copy())
        )

    @classmethod
    def evaluate_all(
        cls, evaluator: Evaluator, cells: "np.ndarray | Sequence[np.ndarray]"
    ) -> "Population":
        """The population of the chromosomes ``cells``, measured as one
        stack and counted on ``evaluator``.

        ``cells`` is an int ``(K, N, 2)`` cell stack or ``K`` int ``(N,
        2)`` cell arrays, of any integer dtype.  They are checked in that
        dtype (:meth:`Placement.check_stack`: every cell inside the grid,
        no chromosome repeating a cell) before they are narrowed to
        int32, so no coordinate wraps into the grid.  The first bad
        chromosome raises what :meth:`Placement.from_cells` raises for
        it, and one whose router count is not the fleet's what the
        engine raises.
        """
        if not len(cells):
            raise ValueError("a population must contain at least one member")
        grid = evaluator.problem.grid
        if not isinstance(cells, np.ndarray) and len({np.shape(row) for row in cells}) == 1:
            cells = np.stack(cells)
        if (
            not isinstance(cells, np.ndarray)
            or cells.ndim != 3
            or not cells.shape[1]
            or cells.shape[2] != 2
        ):
            # Built one by one, the first malformed array raises; arrays
            # of differing router counts then fail the engine's check.
            evaluator.stacked.measure_placements(
                [Placement.from_cells(grid, row) for row in cells]
            )
        Placement.check_stack(grid, cells)
        stack = cells.astype(np.int32)
        rows = evaluator.stacked.measure_placements(stack)
        evaluator.count(len(stack))
        return cls(stack, rows)

    def successor(
        self,
        evaluator: Evaluator,
        source: np.ndarray,
        cells: "np.ndarray | Sequence[np.ndarray]",
    ) -> "Population":
        """The next generation of a producer's ``(source, cells)``.

        Slot ``i`` holds ``cells[i]``: the cells of the kept member
        ``source[i]``, whose rows it copies, or, where ``source[i] < 0``,
        a new child.  The new children are checked and measured together
        in one :meth:`evaluate_all`, in slot order, before the slots are
        narrowed to one int32 stack (the population takes over an int32
        ``cells`` stack).
        """
        index = np.array(source, dtype=np.intp)
        new = np.flatnonzero(index < 0)
        rows = self.rows
        if new.size:
            fresh = (
                cells[new]
                if isinstance(cells, np.ndarray)
                else [cells[slot] for slot in new]
            )
            children = self.evaluate_all(evaluator, fresh)
            rows = StackedMeasurement.concatenate([rows, children.rows])
            index[new] = len(self) + np.arange(new.size)
        return Population(np.asarray(cells, dtype=np.int32), rows.take(index))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def mean_fitness(self) -> float:
        """Average fitness over the population."""
        return float(np.mean(self.fitness))

    def diversity(self) -> float:
        """Mean pairwise distance between chromosomes (gene-averaged).

        "The diversity of the population ... is a crucial factor to avoid
        premature convergence" (Section 5): this metric lets experiments
        quantify what the different ad hoc initializers contribute.  See
        :func:`stack_diversity`; the compiled kernel, when loaded, gives
        the same value bit for bit.
        """
        if compiled.is_loaded():
            return compiled.stack_diversity(self.cells)
        return stack_diversity(self.cells)


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
