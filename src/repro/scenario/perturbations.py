"""Instance perturbations: how a deployment changes between time steps.

The paper optimizes one *static* client snapshot, but the conditions a
real mesh faces drift: users move and churn, routers fail, radios
degrade.  Each :class:`Perturbation` maps a problem instance to the next
step's instance — same grid, evolved clients/fleet — and reports, via
:class:`StepChange`, how to carry a placement across the boundary (the
warm start of the re-optimization, see :mod:`repro.scenario.runner`).

All perturbations draw from the generator they are handed, never from
global state, so an unfolded scenario is exactly reproducible from its
seed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.clients import ClientSet
from repro.core.geometry import Point
from repro.core.problem import ProblemInstance
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from repro.distributions.registry import make_distribution

__all__ = [
    "Perturbation",
    "StepChange",
    "ClientDrift",
    "ClientChurn",
    "RouterOutage",
    "RadioDegradation",
]


@dataclass(frozen=True)
class StepChange:
    """One applied perturbation: the next instance plus the carry rule.

    ``kept_routers`` lists the previous step's router ids that survive
    into the new fleet, in new-fleet order; ``None`` means the fleet is
    unchanged.  :meth:`carry_placement` uses it to map the previous
    placement onto the new problem — the warm start of the next solve.
    """

    problem: ProblemInstance
    event: str
    kept_routers: "np.ndarray | None" = field(default=None, compare=False)

    def carry_placement(self, placement: "Placement | None") -> "Placement | None":
        """The previous placement, adapted to the new problem frame.

        Surviving routers keep their cells (perturbations never change
        the grid, so the cells stay valid); routers knocked out of the
        fleet drop out of the placement.  ``None`` stays ``None``.
        """
        if placement is None:
            return None
        if self.kept_routers is None:
            return placement
        return Placement.from_cells(
            self.problem.grid, placement.cells_array()[self.kept_routers]
        )


class Perturbation(abc.ABC):
    """One kind of step-to-step change of a problem instance."""

    @abc.abstractmethod
    def apply(
        self, problem: ProblemInstance, rng: np.random.Generator
    ) -> StepChange:
        """The next step's instance (and carry rule) after this change."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _clients_from_array(problem: ProblemInstance, cells: np.ndarray) -> ClientSet:
    """A client set from an integer ``(M, 2)`` cell array (grid-clipped)."""
    width, height = problem.grid.width, problem.grid.height
    xs = np.clip(cells[:, 0], 0, width - 1).astype(int)
    ys = np.clip(cells[:, 1], 0, height - 1).astype(int)
    return ClientSet.from_points(
        [Point(int(x), int(y)) for x, y in zip(xs, ys)], grid=problem.grid
    )


@dataclass(frozen=True)
class ClientDrift(Perturbation):
    """Gaussian random-walk of the client population.

    Every step, a ``fraction`` of clients (chosen at random) takes one
    Gaussian step of standard deviation ``sigma`` cells per axis,
    clipped to the grid — the "users move around" regime of the rural
    re-optimization line (Fendji et al.).  Routers are untouched, so the
    previous placement's router network survives the step intact.
    """

    sigma: float = 2.0
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")

    def apply(
        self, problem: ProblemInstance, rng: np.random.Generator
    ) -> StepChange:
        cells = problem.clients.positions.copy()
        n_clients = cells.shape[0]
        n_moving = max(1, int(round(self.fraction * n_clients))) if n_clients else 0
        if n_moving:
            movers = (
                np.arange(n_clients)
                if n_moving >= n_clients
                else rng.choice(n_clients, size=n_moving, replace=False)
            )
            cells[movers] += rng.normal(0.0, self.sigma, size=(len(movers), 2))
        return StepChange(
            problem=replace(
                problem, clients=_clients_from_array(problem, np.rint(cells))
            ),
            event=f"drift sigma={self.sigma:g} ({n_moving} clients)",
        )


@dataclass(frozen=True)
class ClientChurn(Perturbation):
    """Client turnover: a fraction leaves, newcomers arrive.

    Leavers are drawn uniformly; arrivals are sampled from the named
    client distribution (the same laws the instance generator offers),
    so churn can both thin and re-shape the demand field.
    """

    fraction: float = 0.1
    distribution: str = "uniform"
    distribution_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")

    def apply(
        self, problem: ProblemInstance, rng: np.random.Generator
    ) -> StepChange:
        n_clients = problem.n_clients
        n_churning = max(1, int(round(self.fraction * n_clients))) if n_clients else 0
        cells = problem.clients.positions.copy()
        if n_churning:
            leavers = (
                np.arange(n_clients)
                if n_churning >= n_clients
                else rng.choice(n_clients, size=n_churning, replace=False)
            )
            law = make_distribution(self.distribution, **self.distribution_params)
            arrivals = law.sample_clients(n_churning, problem.grid, rng)
            cells[leavers] = arrivals.positions
        return StepChange(
            problem=replace(
                problem, clients=_clients_from_array(problem, np.rint(cells))
            ),
            event=f"churn {n_churning}/{n_clients} clients ({self.distribution})",
        )


@dataclass(frozen=True)
class RouterOutage(Perturbation):
    """Hard failure of ``count`` random routers.

    The failed routers leave the fleet entirely (ids compact, order of
    the survivors preserved), and :meth:`StepChange.carry_placement`
    drops their cells from the warm start — the disaster-recovery
    re-planning regime.
    """

    count: int = 1

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count}")

    def apply(
        self, problem: ProblemInstance, rng: np.random.Generator
    ) -> StepChange:
        n_routers = problem.n_routers
        if self.count >= n_routers:
            raise ValueError(
                f"cannot knock out {self.count} of {n_routers} routers; "
                "at least one must survive"
            )
        doomed = rng.choice(n_routers, size=self.count, replace=False)
        kept = np.setdiff1d(np.arange(n_routers), doomed)
        return StepChange(
            problem=replace(
                problem,
                fleet=RouterFleet.from_radii(problem.fleet.radii[kept]),
            ),
            event=f"outage of router(s) {sorted(int(i) for i in doomed)}",
            kept_routers=kept,
        )


@dataclass(frozen=True)
class RadioDegradation(Perturbation):
    """Every radio's coverage radius decays by ``factor`` per step.

    Models weather/interference margin loss; ``floor`` keeps radii
    physical.  The fleet size is unchanged, so placements carry over
    verbatim — but links and coverage shrink, which is what forces the
    re-optimization.
    """

    factor: float = 0.9
    floor: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.factor < 1:
            raise ValueError(f"factor must be in (0, 1), got {self.factor}")
        if self.floor <= 0:
            raise ValueError(f"floor must be positive, got {self.floor}")

    def apply(
        self, problem: ProblemInstance, rng: np.random.Generator
    ) -> StepChange:
        radii = np.maximum(problem.fleet.radii * self.factor, self.floor)
        return StepChange(
            problem=replace(problem, fleet=RouterFleet.from_radii(radii)),
            event=f"radio decay x{self.factor:g} (mean radius {radii.mean():.2f})",
        )
