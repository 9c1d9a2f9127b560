"""The GA initializer study: one table plus one figure per distribution.

The paper's Tables 1-3 and Figures 1-3 are two views of the same runs:
the table reports the final giant component and coverage per ad hoc
initializer, the figure plots the evolution that produced them.
:func:`run_distribution_study` therefore runs the GA once per method and
derives both artifacts, which halves the cost of a full reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adhoc.registry import PAPER_METHOD_ORDER, make_method
from repro.core.evaluation import Evaluator
from repro.core.fitness import FitnessFunction
from repro.core.problem import ProblemInstance
from repro.experiments.config import ExperimentScale, current_scale
from repro.genetic.engine import GAConfig, GeneticAlgorithm
from repro.genetic.initializers import AdHocInitializer
from repro.instances.catalog import catalog
from repro.instances.generator import InstanceSpec

__all__ = ["MethodStudy", "DistributionStudy", "run_distribution_study"]


@dataclass(frozen=True)
class MethodStudy:
    """One ad hoc method's results: stand-alone and GA-initialized."""

    method: str
    giant_standalone: int
    coverage_standalone: int
    giant_by_ga: int
    coverage_by_ga: int
    #: ``(generation, best giant size)`` points sampled for the figure.
    series: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DistributionStudy:
    """All methods' results on one client distribution."""

    distribution: str
    spec: InstanceSpec
    scale_name: str
    seed: int
    methods: tuple[MethodStudy, ...]

    def method(self, name: str) -> MethodStudy:
        """The study entry for the given method name."""
        for entry in self.methods:
            if entry.method == name:
                return entry
        raise KeyError(f"no study entry for method {name!r}")


def resolve_spec(distribution: str, spec: InstanceSpec | None) -> InstanceSpec:
    """The catalog spec for ``distribution`` unless an override is given."""
    if spec is not None:
        return spec
    try:
        return catalog()[distribution]
    except KeyError:
        known = ", ".join(sorted(catalog()))
        raise ValueError(
            f"unknown distribution {distribution!r}; known: {known}"
        ) from None


def run_distribution_study(
    distribution: str,
    scale: ExperimentScale | None = None,
    seed: int = 1,
    spec: InstanceSpec | None = None,
    fitness: FitnessFunction | None = None,
    methods: tuple[str, ...] = PAPER_METHOD_ORDER,
) -> DistributionStudy:
    """Run the full initializer study for one client distribution."""
    if scale is None:
        scale = current_scale()
    spec = resolve_spec(distribution, spec)
    problem = spec.generate()
    entries = tuple(
        _study_method(name, problem, scale, seed, fitness) for name in methods
    )
    return DistributionStudy(
        distribution=distribution,
        spec=spec,
        scale_name=scale.name,
        seed=seed,
        methods=entries,
    )


def _study_method(
    method_name: str,
    problem: ProblemInstance,
    scale: ExperimentScale,
    seed: int,
    fitness: FitnessFunction | None,
) -> MethodStudy:
    from repro.experiments.replication import label_key

    method = make_method(method_name)

    # Stand-alone: one placement, exactly as the tables' right columns.
    # Stable CRC32 label keys — the salted builtin ``hash`` of earlier
    # revisions made `reproduce` output differ between interpreter runs.
    standalone_rng = np.random.default_rng((seed, label_key(method_name), 1))
    standalone = Evaluator(problem, fitness).evaluate(
        method.place(problem, standalone_rng)
    )

    # GA initialized by the method; the trace provides the figure series.
    ga_rng = np.random.default_rng((seed, label_key(method_name), 2))
    ga = GeneticAlgorithm(
        GAConfig(
            population_size=scale.population_size,
            n_generations=scale.n_generations,
        )
    )
    result = ga.run(Evaluator(problem, fitness), AdHocInitializer(method), ga_rng)
    sampled = result.trace.sampled(scale.record_step)

    return MethodStudy(
        method=method_name,
        giant_standalone=standalone.giant_size,
        coverage_standalone=standalone.covered_clients,
        giant_by_ga=result.giant_size,
        coverage_by_ga=result.covered_clients,
        series=tuple(
            (record.generation, record.best_giant_size) for record in sampled
        ),
    )
