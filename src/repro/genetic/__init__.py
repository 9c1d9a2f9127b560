"""Genetic algorithm substrate (paper Section 5, scenario 2).

The GA the paper uses to evaluate ad hoc methods as population
initializers: measured populations (a cell stack plus its measurement
rows), selection / crossover / mutation operators on int cell arrays,
initializers wrapping the ad hoc methods, the generational engine with
elitism and the per-generation trace behind Figures 1-3.
"""

from repro.genetic.crossover import (
    CrossoverOperator,
    OnePointCrossover,
    RegionExchangeCrossover,
    UniformCrossover,
)
from repro.genetic.engine import GAConfig, GAResult, GeneticAlgorithm
from repro.genetic.initializers import (
    AdHocInitializer,
    MixedInitializer,
    PopulationInitializer,
    RandomInitializer,
)
from repro.genetic.mutation import (
    CompositeMutation,
    GeneSwapMutation,
    JiggleMutation,
    MutationOperator,
    ResetMutation,
    TowardCentroidMutation,
)
from repro.genetic.population import Population
from repro.genetic.selection import (
    RankSelection,
    RouletteWheelSelection,
    SelectionOperator,
    TournamentSelection,
)
from repro.genetic.trace import GATrace, GenerationRecord

__all__ = [
    "CrossoverOperator",
    "OnePointCrossover",
    "RegionExchangeCrossover",
    "UniformCrossover",
    "GAConfig",
    "GAResult",
    "GeneticAlgorithm",
    "AdHocInitializer",
    "MixedInitializer",
    "PopulationInitializer",
    "RandomInitializer",
    "CompositeMutation",
    "GeneSwapMutation",
    "JiggleMutation",
    "MutationOperator",
    "ResetMutation",
    "TowardCentroidMutation",
    "Population",
    "RankSelection",
    "RouletteWheelSelection",
    "SelectionOperator",
    "TournamentSelection",
    "GATrace",
    "GenerationRecord",
]
