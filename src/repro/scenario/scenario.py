"""Time-stepped deployment scenarios.

A :class:`Scenario` is a base instance plus one
:class:`~repro.scenario.perturbations.Perturbation` per transition;
:meth:`Scenario.unfold` materializes the deterministic sequence of
problem instances (step 0 is the base, step ``t`` is step ``t-1``
perturbed).  The classmethod builders cover the regimes the dynamic-WMN
literature re-optimizes under: client drift, client churn, router
knock-out and radio-range degradation — and scenarios compose freely
from any perturbation list.

Unfolding and solving are deliberately separate: the same unfolded
scenario can be replayed against any solver (and both warm and cold),
which is what makes the warm-start benchmark a controlled comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.problem import ProblemInstance
from repro.seeding import root_sequence, spawn_children
from repro.scenario.perturbations import (
    ClientChurn,
    ClientDrift,
    Perturbation,
    RadioDegradation,
    RouterOutage,
    StepChange,
)

__all__ = ["ScenarioStep", "Scenario"]


@dataclass(frozen=True)
class ScenarioStep:
    """One time step of an unfolded scenario.

    ``change`` is ``None`` for step 0 (the base instance) and otherwise
    records the perturbation outcome, including the placement carry rule
    used for warm starts.
    """

    index: int
    problem: ProblemInstance
    change: "StepChange | None" = field(default=None, compare=False)

    @property
    def event(self) -> str:
        """Human-readable description of what happened this step."""
        return "initial deployment" if self.change is None else self.change.event


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible sequence of deployment conditions."""

    name: str
    base: ProblemInstance
    perturbations: tuple[Perturbation, ...]

    def __post_init__(self) -> None:
        if not self.perturbations:
            raise ValueError("a scenario needs at least one perturbation step")

    @property
    def n_steps(self) -> int:
        """Number of time steps, including the initial one."""
        return len(self.perturbations) + 1

    def unfold(
        self, seed: "int | np.random.SeedSequence" = 0
    ) -> list[ScenarioStep]:
        """The deterministic instance sequence this scenario describes.

        Each transition draws from its own child of the seed's
        ``SeedSequence`` (one spawn per step), so inserting or editing a
        late perturbation never disturbs the earlier steps.  A passed
        ``SeedSequence`` is copied before spawning: the instance
        sequence depends only on the seed's identity (entropy and spawn
        key), never on how often it was spawned from before — what lets
        every fleet shard re-unfold the same steps independently.
        """
        sequence = root_sequence(seed)
        children = spawn_children(sequence, len(self.perturbations))
        steps = [ScenarioStep(index=0, problem=self.base)]
        problem = self.base
        for index, (perturbation, child) in enumerate(
            zip(self.perturbations, children), start=1
        ):
            change = perturbation.apply(problem, np.random.default_rng(child))
            problem = change.problem
            steps.append(ScenarioStep(index=index, problem=problem, change=change))
        return steps

    # ------------------------------------------------------------------
    # Builders for the canonical regimes
    # ------------------------------------------------------------------

    @classmethod
    def client_drift(
        cls,
        base: ProblemInstance,
        n_steps: int,
        sigma: float = 2.0,
        fraction: float = 1.0,
    ) -> "Scenario":
        """``n_steps`` transitions of Gaussian client drift."""
        return cls(
            name=f"drift-{n_steps}x{sigma:g}",
            base=base,
            perturbations=_repeat(ClientDrift(sigma, fraction), n_steps),
        )

    @classmethod
    def client_churn(
        cls,
        base: ProblemInstance,
        n_steps: int,
        fraction: float = 0.1,
        distribution: str = "uniform",
        **distribution_params,
    ) -> "Scenario":
        """``n_steps`` transitions of client turnover."""
        return cls(
            name=f"churn-{n_steps}x{fraction:g}",
            base=base,
            perturbations=_repeat(
                ClientChurn(fraction, distribution, dict(distribution_params)),
                n_steps,
            ),
        )

    @classmethod
    def router_outages(
        cls, base: ProblemInstance, n_steps: int, count: int = 1
    ) -> "Scenario":
        """``n_steps`` transitions each knocking out ``count`` routers."""
        if n_steps * count >= base.n_routers:
            raise ValueError(
                f"{n_steps} outages of {count} routers would exhaust the "
                f"{base.n_routers}-router fleet"
            )
        return cls(
            name=f"outage-{n_steps}x{count}",
            base=base,
            perturbations=_repeat(RouterOutage(count), n_steps),
        )

    @classmethod
    def radio_degradation(
        cls,
        base: ProblemInstance,
        n_steps: int,
        factor: float = 0.9,
        floor: float = 0.5,
    ) -> "Scenario":
        """``n_steps`` transitions of radio-range decay."""
        return cls(
            name=f"degrade-{n_steps}x{factor:g}",
            base=base,
            perturbations=_repeat(RadioDegradation(factor, floor), n_steps),
        )

    @classmethod
    def composite(
        cls,
        name: str,
        base: ProblemInstance,
        perturbations: "Sequence[Perturbation] | Iterable[Perturbation]",
    ) -> "Scenario":
        """A scenario from an explicit, possibly mixed perturbation list."""
        return cls(name=name, base=base, perturbations=tuple(perturbations))


def _repeat(perturbation: Perturbation, n_steps: int) -> tuple[Perturbation, ...]:
    if n_steps <= 0:
        raise ValueError(f"n_steps must be positive, got {n_steps}")
    return (perturbation,) * n_steps
