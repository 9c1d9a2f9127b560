"""Problem instances.

Bundles everything Section 2 of the paper lists as "an instance of the
problem": the grid area, the vector of routers (with their oscillating
radio coverage) and the matrix of clients — plus the two modeling rules
(link predicate and coverage predicate) that the evaluation engine needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.clients import ClientSet
from repro.core.grid import GridArea
from repro.core.radio import CoverageRule, LinkRule, RadioProfile
from repro.core.routers import RouterFleet

if TYPE_CHECKING:
    from repro.core.solution import Placement

__all__ = ["ProblemInstance", "check_start_placement"]


@dataclass(frozen=True)
class ProblemInstance:
    """One instance of the mesh router placement problem.

    Attributes
    ----------
    grid:
        The ``W x H`` deployment area.
    fleet:
        The ``N`` mesh routers with their coverage radii.
    clients:
        The ``M`` fixed mesh clients.
    link_rule:
        When two routers form a wireless link (the paper never pins the
        link predicate down).
    coverage_rule:
        Which routers cover clients (by default only the giant
        component's: "mesh client nodes connected to the WMN").
    """

    grid: GridArea
    fleet: RouterFleet
    clients: ClientSet
    link_rule: LinkRule = LinkRule.BIDIRECTIONAL
    coverage_rule: CoverageRule = CoverageRule.GIANT_ONLY

    def __post_init__(self) -> None:
        if len(self.fleet) > self.grid.n_cells:
            raise ValueError(
                f"{len(self.fleet)} routers cannot be placed on a grid with "
                f"only {self.grid.n_cells} cells"
            )
        for client in self.clients:
            if not self.grid.contains(client.cell):
                raise ValueError(
                    f"client {client.client_id} at {tuple(client.cell)} lies "
                    f"outside the {self.grid.width}x{self.grid.height} grid"
                )
        # Non-finite radii or client positions would flow silently
        # through every engine tier (numpy comparisons with NaN are all
        # False) and come back as garbage fitness — reject them here,
        # at the single choke point every instance passes through.
        if not np.isfinite(self.fleet.radii).all():
            bad = np.flatnonzero(~np.isfinite(self.fleet.radii))
            raise ValueError(
                f"router radii must be finite; non-finite radius for "
                f"router ids {bad.tolist()}"
            )
        if not np.isfinite(self.clients.positions).all():
            bad = np.flatnonzero(
                ~np.isfinite(self.clients.positions).all(axis=1)
            )
            raise ValueError(
                f"client positions must be finite; non-finite position "
                f"for client ids {bad.tolist()}"
            )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def n_routers(self) -> int:
        """Number of mesh routers (``N``)."""
        return len(self.fleet)

    @property
    def n_clients(self) -> int:
        """Number of mesh clients (``M``)."""
        return len(self.clients)

    def with_link_rule(self, link_rule: LinkRule) -> "ProblemInstance":
        """The same instance under a different link predicate."""
        return replace(self, link_rule=link_rule)

    def with_coverage_rule(self, coverage_rule: CoverageRule) -> "ProblemInstance":
        """The same instance under a different coverage predicate."""
        return replace(self, coverage_rule=coverage_rule)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        width: int,
        height: int,
        n_routers: int,
        client_cells: "np.ndarray | list",
        radio: RadioProfile,
        rng: np.random.Generator,
        link_rule: LinkRule = LinkRule.BIDIRECTIONAL,
        coverage_rule: CoverageRule = CoverageRule.GIANT_ONLY,
    ) -> "ProblemInstance":
        """Assemble an instance from raw ingredients.

        ``client_cells`` is any sequence of ``(x, y)`` pairs; router radii
        are sampled from ``radio`` using ``rng``.
        """
        grid = GridArea(width, height)
        fleet = RouterFleet.oscillating(n_routers, radio, rng)
        from repro.core.geometry import Point

        clients = ClientSet.from_points(
            [Point(int(x), int(y)) for x, y in client_cells], grid=grid
        )
        return cls(
            grid=grid,
            fleet=fleet,
            clients=clients,
            link_rule=link_rule,
            coverage_rule=coverage_rule,
        )


def check_start_placement(
    problem: ProblemInstance,
    placement: "Placement",
    label: str = "warm start",
) -> None:
    """Refuse a start placement that does not fit ``problem``'s frame.

    The placement must place the whole fleet on the problem's own grid:
    a placement on another grid is refused even when its cells happen
    to fit, since the result would carry that other grid.  ``label``
    names the placement in the error (``"warm start"``, ``"chain 3
    start"``, ...).
    """
    if len(placement) != problem.n_routers:
        raise ValueError(
            f"{label} places {len(placement)} routers but the fleet "
            f"has {problem.n_routers}"
        )
    grid = problem.grid
    cells = placement.cells_array()
    outside = ~((cells >= 0) & (cells < (grid.width, grid.height))).all(axis=1)
    if outside.any():
        raise ValueError(
            f"{label} cell {tuple(cells[outside.argmax()].tolist())} lies "
            f"outside the {grid.width}x{grid.height} grid"
        )
    if placement.grid != grid:
        raise ValueError(
            f"{label} is placed on a {placement.grid.width}x"
            f"{placement.grid.height} grid but the problem grid is "
            f"{grid.width}x{grid.height}"
        )
