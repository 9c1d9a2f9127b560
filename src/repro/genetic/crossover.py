"""Crossover operators.

A chromosome is the int ``(N, 2)`` array of router cells, so crossover
mixes the positions two parents assign to each router: a child is a row
mask or a concatenation of the two parents' arrays.  Children can
inherit colliding cells (two routers on one cell);
:func:`~repro.adhoc.base.resolve_collisions` nudges collisions apart, so
every child holds the distinct in-grid cells of a valid placement.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from repro.adhoc.base import resolve_collisions
from repro.core.geometry import Rect
from repro.core.grid import GridArea

__all__ = [
    "CrossoverOperator",
    "UniformCrossover",
    "OnePointCrossover",
    "RegionExchangeCrossover",
]


class CrossoverOperator(abc.ABC):
    """Produces two children's cells from two parents' cells on one grid."""

    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def crossover(
        self,
        grid: GridArea,
        cells_a: np.ndarray,
        cells_b: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two new collision-free child arrays (the parents are never written)."""

    @staticmethod
    def _check_parents(cells_a: np.ndarray, cells_b: np.ndarray) -> None:
        if len(cells_a) != len(cells_b):
            raise ValueError(
                f"parents place {len(cells_a)} and {len(cells_b)} routers; "
                "crossover needs equal-length chromosomes"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UniformCrossover(CrossoverOperator):
    """Each gene comes from either parent with probability ``mix_rate``.

    Child 1 takes parent A's cell for router ``i`` unless a coin flip
    says otherwise; child 2 takes the complementary choices.
    """

    name: ClassVar[str] = "uniform"

    def __init__(self, mix_rate: float = 0.5) -> None:
        if not 0.0 <= mix_rate <= 1.0:
            raise ValueError(f"mix_rate must be in [0, 1], got {mix_rate}")
        self.mix_rate = mix_rate

    def crossover(
        self,
        grid: GridArea,
        cells_a: np.ndarray,
        cells_b: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        self._check_parents(cells_a, cells_b)
        take_b = (rng.uniform(size=len(cells_a)) < self.mix_rate)[:, None]
        child1 = np.where(take_b, cells_b, cells_a)
        child2 = np.where(take_b, cells_a, cells_b)
        return (
            resolve_collisions(grid, child1, rng),
            resolve_collisions(grid, child2, rng),
        )

    def __repr__(self) -> str:
        return f"UniformCrossover(mix_rate={self.mix_rate})"


class OnePointCrossover(CrossoverOperator):
    """Classic single cut point over the router index order."""

    name: ClassVar[str] = "one-point"

    def crossover(
        self,
        grid: GridArea,
        cells_a: np.ndarray,
        cells_b: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        self._check_parents(cells_a, cells_b)
        n = len(cells_a)
        cut = int(rng.integers(1, n)) if n > 1 else 0
        child1 = np.concatenate([cells_a[:cut], cells_b[cut:]])
        child2 = np.concatenate([cells_b[:cut], cells_a[cut:]])
        return (
            resolve_collisions(grid, child1, rng),
            resolve_collisions(grid, child2, rng),
        )


class RegionExchangeCrossover(CrossoverOperator):
    """Exchange the routers inside a random rectangle of the grid.

    Child 1 keeps parent A's assignment for routers that parent A placed
    inside the rectangle and takes parent B's genes elsewhere (child 2 is
    the mirror image).  This is a *spatial* crossover: it trades whole
    sub-topologies (a corner cluster, a diagonal segment) between
    parents, which suits a problem whose fitness is spatial.
    """

    name: ClassVar[str] = "region-exchange"

    def __init__(
        self, min_fraction: float = 0.25, max_fraction: float = 0.75
    ) -> None:
        if not 0.0 < min_fraction <= max_fraction <= 1.0:
            raise ValueError(
                "require 0 < min_fraction <= max_fraction <= 1, got "
                f"{min_fraction}, {max_fraction}"
            )
        self.min_fraction = min_fraction
        self.max_fraction = max_fraction

    def _random_region(self, grid: GridArea, rng: np.random.Generator) -> Rect:
        width = max(
            1,
            int(
                rng.uniform(self.min_fraction, self.max_fraction) * grid.width
            ),
        )
        height = max(
            1,
            int(
                rng.uniform(self.min_fraction, self.max_fraction) * grid.height
            ),
        )
        x0 = int(rng.integers(0, grid.width - width + 1))
        y0 = int(rng.integers(0, grid.height - height + 1))
        return Rect(x0, y0, width, height)

    def crossover(
        self,
        grid: GridArea,
        cells_a: np.ndarray,
        cells_b: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        self._check_parents(cells_a, cells_b)
        region = self._random_region(grid, rng)
        child1 = np.where(region.contains_cells(cells_a)[:, None], cells_a, cells_b)
        child2 = np.where(region.contains_cells(cells_b)[:, None], cells_b, cells_a)
        return (
            resolve_collisions(grid, child1, rng),
            resolve_collisions(grid, child2, rng),
        )

    def __repr__(self) -> str:
        return (
            f"RegionExchangeCrossover(min_fraction={self.min_fraction}, "
            f"max_fraction={self.max_fraction})"
        )
