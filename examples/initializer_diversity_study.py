"""Why ad hoc initializers help a GA: quality vs diversity.

Section 5 of the paper argues that ad hoc methods make better GA
initializers than pure random generation because "the diversity of the
population ... is a crucial factor to avoid premature convergence" while
good initial quality speeds up the search.  This study quantifies both:
for every ad hoc method we create an initial population and measure its
mean fitness (quality) and mean pairwise chromosome distance
(diversity), then correlate with the GA outcome after a short budget.

Run:
    python examples/initializer_diversity_study.py
"""

from __future__ import annotations

import numpy as np

from repro import envgates

#: ``REPRO_EXAMPLES_SMOKE=1`` (set by the CI examples job) shrinks the
#: effort knobs so every example still exercises its whole pipeline but
#: finishes in seconds.
SMOKE = envgates.examples_smoke()

from repro import (
    AdHocInitializer,
    Evaluator,
    GAConfig,
    GeneticAlgorithm,
    paper_methods,
    tiny_spec,
)
from repro.genetic.population import Population


def main() -> None:
    spec = tiny_spec("normal", seed=11)
    problem = spec.generate()
    print(f"instance: {spec.describe()}")
    print()
    print(
        f"{'initializer':11s} {'mean fitness':>13s} {'diversity':>10s} "
        f"{'GA giant':>9s} {'GA coverage':>12s}"
    )

    population_size = 8 if SMOKE else 16
    for method in paper_methods():
        initializer = AdHocInitializer(method)
        rng = np.random.default_rng(23)
        evaluator = Evaluator(problem)

        # Initial population statistics.
        population = Population.evaluate_all(
            evaluator, initializer.generate(problem, population_size, rng)
        )
        quality = population.mean_fitness()
        diversity = population.diversity()

        # Short GA run from the same initializer.
        ga = GeneticAlgorithm(
            GAConfig(
                population_size=population_size,
                n_generations=4 if SMOKE else 30,
            )
        )
        result = ga.run(
            Evaluator(problem), initializer, np.random.default_rng(23)
        )

        print(
            f"{method.name:11s} {quality:13.4f} {diversity:10.2f} "
            f"{result.giant_size:6d}/{problem.n_routers:<2d} "
            f"{result.covered_clients:8d}/{problem.n_clients:<3d}"
        )

    print()
    print(
        "Reading: higher initial quality accelerates early generations;\n"
        "higher diversity protects against premature convergence. The\n"
        "paper's HotSpot combines client-aware quality with enough\n"
        "in-zone randomness to stay diverse."
    )


if __name__ == "__main__":
    main()
