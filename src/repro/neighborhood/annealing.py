"""The cooling schedule of simulated annealing.

The paper closes with "we are currently implementing full featured local
search methods for the mesh router nodes placement" — the authors' own
follow-up line of work (WMN-SA) is simulated annealing over exactly this
movement model: hill climbing with a temperature-controlled probability
of accepting worsening moves, which escapes the local optima the plain
neighborhood search plateaus on.

Annealing is not a search loop of its own.  It is the Metropolis rule
of the one lockstep driver,
:meth:`~repro.neighborhood.multichain.MultiChainSearch.annealing`, and
this module holds only the :class:`AnnealingSchedule` that rule reads
its phase temperature from.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AnnealingSchedule"]


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling schedule.

    Temperature starts at ``initial_temperature`` and is multiplied by
    ``cooling_rate`` after every phase, never dropping below
    ``floor_temperature`` (a strictly positive floor keeps the
    acceptance probability well-defined).
    """

    initial_temperature: float = 0.05
    cooling_rate: float = 0.95
    floor_temperature: float = 1e-6

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise ValueError(
                f"initial_temperature must be positive, got "
                f"{self.initial_temperature}"
            )
        if not 0.0 < self.cooling_rate <= 1.0:
            raise ValueError(
                f"cooling_rate must be in (0, 1], got {self.cooling_rate}"
            )
        if self.floor_temperature <= 0:
            raise ValueError(
                f"floor_temperature must be positive, got {self.floor_temperature}"
            )

    def temperature_at(self, phase: int) -> float:
        """Temperature for the given phase (phase 1 = initial)."""
        if phase < 1:
            raise ValueError(f"phase must be >= 1, got {phase}")
        value = self.initial_temperature * self.cooling_rate ** (phase - 1)
        return max(value, self.floor_temperature)

