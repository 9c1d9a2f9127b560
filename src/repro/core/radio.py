"""Radio coverage model.

The paper assumes "routers ... having their own radio coverage area,
oscillating between minimum and maximum values" (Abstract, Section 1).
We model that as a per-router coverage *radius* drawn from a configurable
interval; the radius doubles as the router's "power" (HotSpot places "the
most powerful mesh router in the most dense zone"; the swap movement
exchanges the "worst" and "best" routers by radio coverage).

Two routers are joined by a wireless link when they are within radio
range of each other.  Because the paper never pins down the link
predicate, :class:`LinkRule` offers the three standard readings; the
experiment configuration selects one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["LinkRule", "CoverageRule", "RadioProfile"]


class LinkRule(enum.Enum):
    """Predicate deciding when two routers share a wireless link.

    Given routers ``i`` and ``j`` at Euclidean distance ``d`` with radii
    ``r_i`` and ``r_j``:

    * ``OVERLAP`` — link iff ``d <= r_i + r_j`` (coverage disks touch).
    * ``BIDIRECTIONAL`` — link iff ``d <= min(r_i, r_j)`` (each router
      lies inside the other's coverage area; both directions work).
    * ``UNIDIRECTIONAL`` — link iff ``d <= max(r_i, r_j)`` (at least one
      direction works).
    """

    OVERLAP = "overlap"
    BIDIRECTIONAL = "bidirectional"
    UNIDIRECTIONAL = "unidirectional"

    def link_range(self, radius_a: float, radius_b: float) -> float:
        """Maximum distance at which two routers with the given radii link."""
        if self is LinkRule.OVERLAP:
            return radius_a + radius_b
        if self is LinkRule.BIDIRECTIONAL:
            return min(radius_a, radius_b)
        return max(radius_a, radius_b)

    def links(self, distance: float, radius_a: float, radius_b: float) -> bool:
        """Whether two routers at ``distance`` link under this rule."""
        return distance <= self.link_range(radius_a, radius_b)

    def range_matrix(self, radii: np.ndarray) -> np.ndarray:
        """Pairwise link-range matrix for a vector of radii.

        Vectorized companion of :meth:`link_range` used by the network
        builder: entry ``(i, j)`` is the maximum distance at which routers
        ``i`` and ``j`` link.
        """
        column = radii[:, np.newaxis]
        row = radii[np.newaxis, :]
        if self is LinkRule.OVERLAP:
            return column + row
        if self is LinkRule.BIDIRECTIONAL:
            return np.minimum(column, row)
        return np.maximum(column, row)

    def range_pairs(self, radii_a: np.ndarray, radii_b: np.ndarray) -> np.ndarray:
        """Elementwise link range for parallel radius arrays.

        Sparse-engine companion of :meth:`range_matrix`: instead of the
        full pairwise matrix, it computes the range of explicitly listed
        candidate pairs.  The arithmetic is the same float operations, so
        the resulting thresholds are bit-identical to the matrix entries.
        """
        if self is LinkRule.OVERLAP:
            return radii_a + radii_b
        if self is LinkRule.BIDIRECTIONAL:
            return np.minimum(radii_a, radii_b)
        return np.maximum(radii_a, radii_b)

    def max_reach(self, radii: np.ndarray) -> float:
        """Upper bound on the link range over any pair from ``radii``.

        The sparse engine sizes its spatial bins from this bound, so it
        must never underestimate: ``OVERLAP`` ranges reach twice the
        largest radius, the min/max rules at most the largest radius.
        """
        if radii.size == 0:
            return 0.0
        largest = float(radii.max())
        return 2.0 * largest if self is LinkRule.OVERLAP else largest


class CoverageRule(enum.Enum):
    """Which routers count towards user coverage.

    * ``GIANT_ONLY`` — a client is covered only by routers belonging to
      the giant component ("the number of mesh client nodes connected to
      the WMN", Section 2).  This is the default.
    * ``ANY_ROUTER`` — any router covers, connected or not.
    """

    GIANT_ONLY = "giant-only"
    ANY_ROUTER = "any-router"


@dataclass(frozen=True, slots=True)
class RadioProfile:
    """The oscillation interval for router coverage radii.

    A fleet created from a profile draws each router's radius uniformly
    from ``[min_radius, max_radius]`` (inclusive) — the paper's
    "oscillating between minimum and maximum values".
    """

    min_radius: float
    max_radius: float

    def __post_init__(self) -> None:
        if self.min_radius <= 0:
            raise ValueError(f"min_radius must be positive, got {self.min_radius}")
        if self.max_radius < self.min_radius:
            raise ValueError(
                f"max_radius ({self.max_radius}) must be >= "
                f"min_radius ({self.min_radius})"
            )

    @property
    def mean_radius(self) -> float:
        """Expected radius of a sampled router."""
        return (self.min_radius + self.max_radius) / 2.0

    def sample_radii(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` radii uniformly from the oscillation interval."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return rng.uniform(self.min_radius, self.max_radius, size=count)
