"""Mesh routers and the router fleet ("vector of routers").

An instance of the placement problem contains "N mesh router nodes, each
having its own radio coverage, defining thus a vector of routers"
(Section 2).  :class:`MeshRouter` is one router; :class:`RouterFleet` is
that vector.  The fleet fixes the hardware — how many routers exist and
how powerful each one is — while a *placement* (see
:mod:`repro.core.solution`) decides where each router goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.radio import RadioProfile

__all__ = ["MeshRouter", "RouterFleet"]


@dataclass(frozen=True, slots=True)
class MeshRouter:
    """A single mesh router.

    ``radius`` is the radio coverage radius in grid-cell units; it also
    serves as the router's "power" for the HotSpot placement and the swap
    movement (larger radius = more powerful router).
    """

    router_id: int
    radius: float

    def __post_init__(self) -> None:
        if self.router_id < 0:
            raise ValueError(f"router_id must be non-negative, got {self.router_id}")
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class RouterFleet:
    """An immutable, ordered collection of :class:`MeshRouter`.

    Router ids are their indices in the fleet (``fleet[i].router_id == i``),
    which lets placements, chromosomes and numpy arrays all address
    routers by position.
    """

    routers: tuple[MeshRouter, ...]
    _radii: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.routers:
            raise ValueError("a fleet must contain at least one router")
        for index, router in enumerate(self.routers):
            if router.router_id != index:
                raise ValueError(
                    f"router at position {index} has id {router.router_id}; "
                    "fleet ids must equal positions"
                )
        radii = np.array([router.radius for router in self.routers], dtype=float)
        radii.setflags(write=False)
        object.__setattr__(self, "_radii", radii)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_radii(cls, radii: Sequence[float]) -> "RouterFleet":
        """Build a fleet from an explicit radius per router."""
        return cls(
            tuple(
                MeshRouter(router_id=index, radius=float(radius))
                for index, radius in enumerate(radii)
            )
        )

    @classmethod
    def oscillating(
        cls, count: int, profile: RadioProfile, rng: np.random.Generator
    ) -> "RouterFleet":
        """Sample a fleet whose radii oscillate within ``profile``.

        This is the paper's router model: each of the ``count`` routers
        draws its own coverage radius between the profile's minimum and
        maximum values.
        """
        if count <= 0:
            raise ValueError(f"fleet size must be positive, got {count}")
        return cls.from_radii(profile.sample_radii(count, rng))

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.routers)

    def __iter__(self) -> Iterator[MeshRouter]:
        return iter(self.routers)

    def __getitem__(self, index: int) -> MeshRouter:
        return self.routers[index]

    # ------------------------------------------------------------------
    # Power queries (used by HotSpot and the swap movement)
    # ------------------------------------------------------------------

    @property
    def radii(self) -> np.ndarray:
        """Read-only radius vector, indexed by router id."""
        return self._radii

    def by_power_descending(self) -> list[MeshRouter]:
        """Routers sorted from most to least powerful (ties by id)."""
        return sorted(self.routers, key=lambda router: (-router.radius, router.router_id))
