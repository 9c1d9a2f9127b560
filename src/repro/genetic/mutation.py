"""Mutation operators.

Small random changes to a chromosome.  ``JiggleMutation`` performs
radius-bounded relocations (local refinement); ``ResetMutation`` teleports
routers anywhere (exploration); ``GeneSwapMutation`` exchanges the
positions of two routers — the GA analogue of the paper's swap movement.
``CompositeMutation`` mixes them.

Every operator takes a chromosome, the int ``(N, 2)`` array of router
cells, and returns a new array of distinct in-grid cells; it never
writes its input.  The relocating operators test cells against a
row-major occupancy bitmap that lives for one call, and draw exactly
what the cell-by-cell ``Point`` formulation drew.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from typing import ClassVar, Sequence

import numpy as np

from repro.core.grid import GridArea
from repro.seeding import selection_cdf

__all__ = [
    "MutationOperator",
    "JiggleMutation",
    "ResetMutation",
    "GeneSwapMutation",
    "TowardCentroidMutation",
    "CompositeMutation",
]


class MutationOperator(abc.ABC):
    """Perturbs a chromosome's cells into new distinct in-grid cells."""

    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def mutate(
        self, grid: GridArea, cells: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """A mutated copy of ``cells`` (the input array is never written)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class JiggleMutation(MutationOperator):
    """Relocate routers within a small Chebyshev radius.

    Each router mutates independently with probability ``per_gene_rate``
    and moves to a random free cell within ``radius`` of its current
    position (falling back to staying put when its neighborhood is
    full).
    """

    name: ClassVar[str] = "jiggle"

    def __init__(self, radius: int = 4, per_gene_rate: float = 0.1) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if not 0.0 < per_gene_rate <= 1.0:
            raise ValueError(
                f"per_gene_rate must be in (0, 1], got {per_gene_rate}"
            )
        self.radius = radius
        self.per_gene_rate = per_gene_rate

    def mutate(
        self, grid: GridArea, cells: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        width = grid.width
        radius = self.radius
        xs, ys = cells.T.tolist()
        bitmap = None
        for router_id in range(len(xs)):
            # ``random()`` is the draw ``uniform()`` makes, without its
            # argument handling.
            if rng.random() >= self.per_gene_rate:
                continue
            if bitmap is None:
                bitmap = grid.occupancy_bitmap(cells)
            x, y = xs[router_id], ys[router_id]
            current = y * width + x
            bitmap[current] = 0
            try:
                target = grid.random_free_index(
                    bitmap, rng, x - radius, y - radius, x + radius + 1, y + radius + 1
                )
            except ValueError:
                # Neighborhood completely full: keep the router in place.
                target = current
            bitmap[target] = 1
            ys[router_id], xs[router_id] = divmod(target, width)
        return np.array([xs, ys], dtype=np.int64).T

    def __repr__(self) -> str:
        return (
            f"JiggleMutation(radius={self.radius}, "
            f"per_gene_rate={self.per_gene_rate})"
        )


class ResetMutation(MutationOperator):
    """Teleport ``count`` random routers to uniform random free cells."""

    name: ClassVar[str] = "reset"

    def __init__(self, count: int = 1) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self.count = count

    def mutate(
        self, grid: GridArea, cells: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        cells = cells.copy()
        n_resets = min(self.count, len(cells))
        victims = rng.choice(len(cells), size=n_resets, replace=False)
        bitmap = grid.occupancy_bitmap(cells)
        for router_id in victims.tolist():
            x, y = cells[router_id].tolist()
            bitmap[y * grid.width + x] = 0
            target = grid.random_free_index(bitmap, rng, 0, 0, grid.width, grid.height)
            bitmap[target] = 1
            y, x = divmod(target, grid.width)
            cells[router_id] = (x, y)
        return cells

    def __repr__(self) -> str:
        return f"ResetMutation(count={self.count})"


class GeneSwapMutation(MutationOperator):
    """Exchange the cells of two random routers.

    Positions are preserved; only the radii move — useful when strong
    routers should sit where the topology needs reach (the GA-internal
    mirror of Algorithm 3's literal swap).
    """

    name: ClassVar[str] = "gene-swap"

    def mutate(
        self, grid: GridArea, cells: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        swapped = cells.copy()
        if len(cells) >= 2:
            a, b = rng.choice(len(cells), size=2, replace=False)
            swapped[[a, b]] = swapped[[b, a]]
        return swapped


class TowardCentroidMutation(MutationOperator):
    """Pull a random router a step towards the fleet's centroid.

    The directed-mutation idea from the authors' follow-up WMN-GA work:
    network connectivity improves when routers compact, so one router
    moves a random fraction of the way towards the placement's centre of
    mass (with a little jitter to avoid pile-ups).  Selection still
    decides whether the compaction actually helped.
    """

    name: ClassVar[str] = "toward-centroid"

    def __init__(self, max_step_fraction: float = 0.5, jitter: int = 2) -> None:
        if not 0.0 < max_step_fraction <= 1.0:
            raise ValueError(
                f"max_step_fraction must be in (0, 1], got {max_step_fraction}"
            )
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self.max_step_fraction = max_step_fraction
        self.jitter = jitter

    def mutate(
        self, grid: GridArea, cells: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        # Integer coordinates sum exactly in float64, so the centroid is
        # the same for every int dtype ``cells`` may arrive in.
        centroid = cells.mean(axis=0)
        router_id = int(rng.integers(0, len(cells)))
        current_x, current_y = cells[router_id].tolist()
        fraction = rng.uniform(0.0, self.max_step_fraction)
        target_x = current_x + fraction * (centroid[0] - current_x)
        target_y = current_y + fraction * (centroid[1] - current_y)
        if self.jitter:
            target_x += rng.integers(-self.jitter, self.jitter + 1)
            target_y += rng.integers(-self.jitter, self.jitter + 1)
        x = min(max(int(round(target_x)), 0), grid.width - 1)
        y = min(max(int(round(target_y)), 0), grid.height - 1)
        moved = cells.copy()
        if (x, y) == (current_x, current_y):
            return moved
        if ((cells[:, 0] == x) & (cells[:, 1] == y)).any():
            # Land on the nearest free spot around the intended target.
            bitmap = grid.occupancy_bitmap(cells)
            bitmap[current_y * grid.width + current_x] = 0
            try:
                target = grid.random_free_index(bitmap, rng, x - 2, y - 2, x + 3, y + 3)
            except ValueError:
                return moved
            y, x = divmod(target, grid.width)
        moved[router_id] = (x, y)
        return moved

    def __repr__(self) -> str:
        return (
            f"TowardCentroidMutation(max_step_fraction={self.max_step_fraction}, "
            f"jitter={self.jitter})"
        )


class CompositeMutation(MutationOperator):
    """Apply one of several operators, drawn by weight."""

    name: ClassVar[str] = "composite"

    def __init__(
        self,
        operators: Sequence[MutationOperator],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not operators:
            raise ValueError("CompositeMutation needs at least one operator")
        self.operators = list(operators)
        if weights is None:
            weights = [1.0] * len(self.operators)
        if len(weights) != len(self.operators):
            raise ValueError(
                f"{len(weights)} weights for {len(self.operators)} operators"
            )
        self._probabilities, self._cdf = selection_cdf(weights)

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized operator selection probabilities."""
        return self._probabilities

    @property
    def cdf(self) -> list[float]:
        """Cumulative selection table, bisected by one ``random()`` draw."""
        return self._cdf

    def mutate(
        self, grid: GridArea, cells: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        # The pick of rng.choice(n, p=probabilities), on the precomputed
        # cdf (selection_cdf).
        index = bisect_right(self._cdf, rng.random())
        return self.operators[index].mutate(grid, cells, rng)

    def __repr__(self) -> str:
        inner = ", ".join(repr(op) for op in self.operators)
        return f"CompositeMutation([{inner}])"
