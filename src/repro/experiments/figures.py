"""Figures 1-4: evolution curves.

* Figures 1-3 — "evolution of size of giant component" over GA
  generations, one curve per initializing ad hoc method, for the Normal,
  Exponential and Weibull instances.
* Figure 4 — "evolution of neighborhood search for Swap and Random
  movements": giant component size per search phase on the Normal
  instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adhoc.registry import PAPER_METHOD_ORDER, make_method
from repro.core.evaluation import Evaluator
from repro.core.fitness import FitnessFunction
from repro.experiments.replication import label_key
from repro.experiments.config import ExperimentScale, current_scale
from repro.experiments.study import DistributionStudy, run_distribution_study
from repro.instances.catalog import paper_normal
from repro.instances.generator import InstanceSpec
from repro.neighborhood.movements import MovementType, RandomMovement, SwapMovement
from repro.neighborhood.search import NeighborhoodSearch

__all__ = [
    "Series",
    "FigureResult",
    "run_ga_figure",
    "run_ns_figure",
    "figure_from_study",
    "PAPER_GA_FIGURE_NUMBERS",
    "NS_FIGURE_NUMBER",
]

#: Which paper figure corresponds to which client distribution (GA study).
PAPER_GA_FIGURE_NUMBERS = {"normal": 1, "exponential": 2, "weibull": 3}

#: Figure number of the neighborhood search comparison.
NS_FIGURE_NUMBER = 4


@dataclass(frozen=True)
class Series:
    """One labelled curve: x (generations or phases) vs giant size."""

    label: str
    x: tuple[int, ...]
    giant_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.giant_sizes):
            raise ValueError(
                f"series {self.label!r}: {len(self.x)} x-values vs "
                f"{len(self.giant_sizes)} y-values"
            )

    @property
    def final_giant(self) -> int:
        """Giant size at the end of the curve."""
        if not self.giant_sizes:
            raise ValueError(f"series {self.label!r} is empty")
        return self.giant_sizes[-1]

    def value_at(self, x: int) -> int:
        """Giant size at an exact x coordinate."""
        for xi, yi in zip(self.x, self.giant_sizes):
            if xi == x:
                return yi
        raise KeyError(f"series {self.label!r} has no point at x={x}")


@dataclass(frozen=True)
class FigureResult:
    """A regenerated figure: several series plus provenance."""

    figure_number: int
    title: str
    x_label: str
    series: tuple[Series, ...]
    spec: InstanceSpec
    scale_name: str
    seed: int

    def series_by_label(self, label: str) -> Series:
        """The curve with the given label."""
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r}")

    def ranking_by_final_giant(self) -> list[str]:
        """Labels sorted by final giant size, best first."""
        return [
            series.label
            for series in sorted(
                self.series, key=lambda s: s.final_giant, reverse=True
            )
        ]


def figure_from_study(study: DistributionStudy) -> FigureResult:
    """The figure view of an initializer study."""
    all_series = tuple(
        Series(
            label=entry.method,
            x=tuple(generation for generation, _ in entry.series),
            giant_sizes=tuple(giant for _, giant in entry.series),
        )
        for entry in study.methods
    )
    spec = study.spec
    return FigureResult(
        figure_number=PAPER_GA_FIGURE_NUMBERS.get(study.distribution, 0),
        title=(
            f"Ad hoc methods initializing GA ({study.distribution} distribution "
            f"of client mesh nodes in {spec.width}x{spec.height} grid area)"
        ),
        x_label="nb generations",
        series=all_series,
        spec=spec,
        scale_name=study.scale_name,
        seed=study.seed,
    )


def run_ga_figure(
    distribution: str,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    spec: InstanceSpec | None = None,
    fitness: FitnessFunction | None = None,
    methods: tuple[str, ...] = PAPER_METHOD_ORDER,
) -> FigureResult:
    """Regenerate Figure 1, 2 or 3 (GA evolution per initializer)."""
    study = run_distribution_study(
        distribution,
        scale=scale,
        seed=seed,
        spec=spec,
        fitness=fitness,
        methods=methods,
    )
    return figure_from_study(study)


def run_ns_figure(
    scale: ExperimentScale | None = None,
    seed: int = 1,
    spec: InstanceSpec | None = None,
    fitness: FitnessFunction | None = None,
    movements: "dict[str, MovementType] | None" = None,
) -> FigureResult:
    """Regenerate Figure 4 (neighborhood search, Swap vs Random).

    Both searches start from the same Random ad hoc placement on the
    Normal-distribution instance, exactly as in Section 5.2.2.
    """
    if scale is None:
        scale = current_scale()
    if spec is None:
        spec = paper_normal()
    problem = spec.generate()
    if movements is None:
        movements = {
            "Random": RandomMovement(),
            "Swap": SwapMovement(),
        }

    initial_rng = np.random.default_rng((seed, 4))
    initial = make_method("random").place(problem, initial_rng)

    all_series: list[Series] = []
    for label, movement in movements.items():
        # Stable CRC32 key (the salted builtin ``hash`` made Figure 4
        # irreproducible across interpreter runs).
        rng = np.random.default_rng((seed, label_key(label), 5))
        evaluator = Evaluator(problem, fitness)
        search = NeighborhoodSearch(
            movement=movement,
            n_candidates=scale.ns_candidates,
            max_phases=scale.ns_phases,
            stall_phases=None,
        )
        result = search.run(evaluator, initial, rng)
        all_series.append(
            Series(
                label=label,
                x=tuple(result.trace.phases),
                giant_sizes=tuple(result.trace.giant_sizes),
            )
        )
    return FigureResult(
        figure_number=NS_FIGURE_NUMBER,
        title=(
            "Evolution of neighborhood search for Swap and Random movements "
            f"({spec.width}x{spec.height} grid size)"
        ),
        x_label="nb phases",
        series=tuple(all_series),
        spec=spec,
        scale_name=scale.name,
        seed=seed,
    )
