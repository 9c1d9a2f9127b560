"""Parameter sweeps around the paper's operating point.

The paper evaluates one frame (64 routers, 128x128, 192 clients, one
radio interval).  These sweeps ask how its conclusions scale: what
happens to stand-alone quality and to the Swap-vs-Random gap when the
fleet grows, when radios strengthen or when the client population
thickens.  Each sweep reruns a compact version of the relevant
experiment per parameter value.

Each point's Swap and Random searches run as best-of-``n_restarts``
portfolios on the lockstep engine (the ``multistart:swap`` /
``multistart:random`` solvers): restart chains advance together
through one stacked evaluation per phase, so
raising ``n_restarts`` costs far less than proportional wall-clock.
Search seeds derive from stable CRC32 label keys (the salted builtin
``hash`` of earlier revisions made sweep values irreproducible across
interpreter runs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.adhoc.registry import make_method
from repro.core.evaluation import Evaluator
from repro.experiments.config import ExperimentScale, current_scale
from repro.experiments.replication import label_key
from repro.instances.generator import InstanceSpec
from repro.solvers.registry import make_solver

__all__ = ["SweepPoint", "SweepResult", "sweep_router_count", "sweep_radio_range", "format_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """Outcome at one parameter value."""

    parameter: float
    standalone_giant: int
    swap_giant: int
    random_giant: int
    swap_coverage: int

    def as_dict(self) -> dict:
        """Plain-dict form for serialization and reporting."""
        return {
            "parameter": self.parameter,
            "standalone_giant": self.standalone_giant,
            "swap_giant": self.swap_giant,
            "random_giant": self.random_giant,
            "swap_coverage": self.swap_coverage,
        }


@dataclass(frozen=True)
class SweepResult:
    """A named sweep: one point per parameter value."""

    parameter_name: str
    points: tuple[SweepPoint, ...]
    base_spec: InstanceSpec
    scale_name: str
    seed: int

    def parameters(self) -> list[float]:
        """The swept parameter values, in run order."""
        return [point.parameter for point in self.points]


def _measure_point(
    spec: InstanceSpec,
    parameter: float,
    scale: ExperimentScale,
    seed: int,
    n_restarts: int,
) -> SweepPoint:
    """Stand-alone + best-of-restarts Swap/Random searches on one instance."""
    problem = spec.generate()
    parameter_key = int(parameter * 1000) & 0xFFFF
    rng = np.random.default_rng((seed, parameter_key))
    standalone = Evaluator(problem).evaluate(
        make_method("random").place(problem, rng)
    )
    outcomes = {}
    for label in ("swap", "random"):
        solver = make_solver(
            f"multistart:{label}",
            n_restarts=n_restarts,
            n_candidates=scale.ns_candidates,
            max_phases=scale.ns_phases,
            stall_phases=None,
        )
        outcome = solver.solve(problem, seed=(seed, label_key(label), parameter_key))
        outcomes[label] = outcome.best
    return SweepPoint(
        parameter=parameter,
        standalone_giant=standalone.giant_size,
        swap_giant=outcomes["swap"].giant_size,
        random_giant=outcomes["random"].giant_size,
        swap_coverage=outcomes["swap"].covered_clients,
    )


def sweep_router_count(
    base_spec: InstanceSpec,
    counts: Sequence[int] = (16, 32, 64, 96),
    scale: ExperimentScale | None = None,
    seed: int = 1,
    n_restarts: int = 1,
) -> SweepResult:
    """How fleet size changes the picture (paper fixes N = 64).

    ``n_restarts`` widens each point's search into a best-of-``R``
    lockstep portfolio per movement (default 1 keeps the historical
    single-run cost).
    """
    if scale is None:
        scale = current_scale()
    if not counts:
        raise ValueError("counts must not be empty")
    if n_restarts <= 0:
        raise ValueError(f"n_restarts must be positive, got {n_restarts}")
    points = []
    for count in counts:
        if count <= 0:
            raise ValueError(f"router counts must be positive, got {count}")
        spec = replace(base_spec, n_routers=int(count))
        points.append(
            _measure_point(spec, float(count), scale, seed, n_restarts)
        )
    return SweepResult(
        parameter_name="n_routers",
        points=tuple(points),
        base_spec=base_spec,
        scale_name=scale.name,
        seed=seed,
    )


def sweep_radio_range(
    base_spec: InstanceSpec,
    max_radii: Sequence[float] = (4.0, 7.0, 10.0, 14.0),
    scale: ExperimentScale | None = None,
    seed: int = 1,
    n_restarts: int = 1,
) -> SweepResult:
    """How radio strength changes the picture (the oscillation ceiling)."""
    if scale is None:
        scale = current_scale()
    if not max_radii:
        raise ValueError("max_radii must not be empty")
    if n_restarts <= 0:
        raise ValueError(f"n_restarts must be positive, got {n_restarts}")
    points = []
    for max_radius in max_radii:
        if max_radius < base_spec.min_radius:
            raise ValueError(
                f"max radius {max_radius} below the spec's min radius "
                f"{base_spec.min_radius}"
            )
        spec = replace(base_spec, max_radius=float(max_radius))
        points.append(
            _measure_point(spec, float(max_radius), scale, seed, n_restarts)
        )
    return SweepResult(
        parameter_name="max_radius",
        points=tuple(points),
        base_spec=base_spec,
        scale_name=scale.name,
        seed=seed,
    )


def format_sweep(result: SweepResult) -> str:
    """Aligned text table of a sweep."""
    header = (
        f"{result.parameter_name:>12s} {'alone':>7s} {'swap':>6s} "
        f"{'random':>7s} {'swap-cov':>9s}"
    )
    lines = [
        f"sweep over {result.parameter_name} "
        f"(base: {result.base_spec.describe()})",
        header,
        "-" * len(header),
    ]
    for point in result.points:
        lines.append(
            f"{point.parameter:12g} {point.standalone_giant:7d} "
            f"{point.swap_giant:6d} {point.random_giant:7d} "
            f"{point.swap_coverage:9d}"
        )
    return "\n".join(lines) + "\n"
