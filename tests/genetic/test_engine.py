"""Unit tests for initializers, the GA engine and its trace."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adhoc import HotSpotPlacement, NearPlacement, RandomPlacement
from repro.core.engine import compiled
from repro.core.evaluation import Evaluator
from repro.core.solution import Placement
from repro.genetic.engine import GAConfig, GeneticAlgorithm
from repro.genetic.initializers import (
    AdHocInitializer,
    MixedInitializer,
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
from repro.genetic.trace import GATrace, GenerationRecord


kernel_only = pytest.mark.skipif(
    not compiled.is_available(), reason="no compiled kernels"
)


@pytest.fixture
def placements_built(monkeypatch):
    """Records every cell array ``Placement._trusted`` wraps."""
    built = []
    original = Placement.__dict__["_trusted"].__func__

    def counted(cls, grid, cells):
        built.append(cells)
        return original(cls, grid, cells)

    monkeypatch.setattr(Placement, "_trusted", classmethod(counted))
    return built


class TestInitializers:
    def test_adhoc_initializer_size_and_validity(self, tiny_problem, rng):
        placements = AdHocInitializer(NearPlacement()).generate(
            tiny_problem, 6, rng
        )
        assert len(placements) == 6
        for p in placements:
            assert len(p) == tiny_problem.n_routers

    def test_adhoc_initializer_diversity(self, tiny_problem, rng):
        placements = AdHocInitializer(RandomPlacement()).generate(
            tiny_problem, 4, rng
        )
        assert len({p.cells for p in placements}) > 1

    def test_random_initializer(self, tiny_problem, rng):
        placements = RandomInitializer().generate(tiny_problem, 3, rng)
        assert len(placements) == 3

    def test_mixed_initializer_round_robin(self, tiny_problem, rng):
        mixed = MixedInitializer([NearPlacement(), HotSpotPlacement()])
        placements = mixed.generate(tiny_problem, 4, rng)
        assert len(placements) == 4

    def test_mixed_requires_methods(self):
        with pytest.raises(ValueError):
            MixedInitializer([])

    def test_size_validation(self, tiny_problem, rng):
        with pytest.raises(ValueError):
            RandomInitializer().generate(tiny_problem, 0, rng)


class TestGAConfig:
    def test_defaults_valid(self):
        config = GAConfig()
        assert config.population_size >= 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"n_generations": -1},
            {"crossover_rate": 1.5},
            {"mutation_rate": -0.1},
            {"n_elites": 64, "population_size": 64},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**kwargs)


class TestGeneticAlgorithm:
    def make_ga(self, generations=10, population=8):
        return GeneticAlgorithm(
            GAConfig(
                population_size=population,
                n_generations=generations,
                n_elites=2,
            )
        )

    def test_trace_covers_every_generation(self, tiny_problem, rng):
        result = self.make_ga().run(
            Evaluator(tiny_problem), RandomInitializer(), rng
        )
        assert result.n_generations == 10
        assert len(result.trace) == 11
        assert result.trace.generations == list(range(11))

    def test_best_fitness_monotone_with_elitism(self, tiny_problem, rng):
        result = self.make_ga(generations=15).run(
            Evaluator(tiny_problem), RandomInitializer(), rng
        )
        fitness = result.trace.best_fitnesses
        assert all(b >= a - 1e-12 for a, b in zip(fitness, fitness[1:]))

    def test_improves_over_initial_population(self, tiny_problem, rng):
        evaluator = Evaluator(tiny_problem)
        result = self.make_ga(generations=20).run(
            evaluator, RandomInitializer(), rng
        )
        assert result.best.fitness >= result.trace[0].best_fitness

    def test_zero_generations_returns_initial_best(self, tiny_problem, rng):
        result = self.make_ga(generations=0).run(
            Evaluator(tiny_problem), RandomInitializer(), rng
        )
        assert result.n_generations == 0
        assert len(result.trace) == 1

    def test_fitness_target_stops_early(self, tiny_problem, rng):
        result = self.make_ga(generations=100).run(
            Evaluator(tiny_problem),
            RandomInitializer(),
            rng,
            fitness_target=0.0,
        )
        assert result.n_generations <= 1

    def test_deterministic_given_seed(self, tiny_problem):
        scores = []
        for _ in range(2):
            result = self.make_ga(generations=5).run(
                Evaluator(tiny_problem),
                RandomInitializer(),
                np.random.default_rng(31),
            )
            scores.append(result.best.fitness)
        assert scores[0] == scores[1]

    def test_evaluation_accounting(self, tiny_problem, rng):
        evaluator = Evaluator(tiny_problem)
        result = self.make_ga(generations=5).run(
            evaluator, RandomInitializer(), rng
        )
        assert result.n_evaluations == evaluator.n_evaluations
        assert result.trace.final().n_evaluations == result.n_evaluations

    def test_result_properties(self, tiny_problem, rng):
        result = self.make_ga(generations=3).run(
            Evaluator(tiny_problem), RandomInitializer(), rng
        )
        assert result.giant_size == result.best.giant_size
        assert result.covered_clients == result.best.covered_clients


@pytest.fixture(params=["compiled", "python"])
def tier(request, monkeypatch):
    """Runs a test with and without the compiled tier loaded."""
    if request.param == "compiled" and not compiled.is_available():
        pytest.skip("no compiled kernels")
    if request.param == "python":
        monkeypatch.setenv("REPRO_COMPILED", "0")
    return request.param


class TestOneRowPerChild:
    """A child that went through an operator is one measured row on both
    generation producers, and no placement is built for it."""

    POPULATION = 10
    ELITES = 2

    MUTATIONS = {
        "jiggle": JiggleMutation(radius=2, per_gene_rate=0.5),
        "reset": ResetMutation(count=2),
        "gene-swap": GeneSwapMutation(),
        "toward-centroid": TowardCentroidMutation(),
        "default": None,  # the default composite
    }
    # The generation kernel has no gene-swap mutation.
    PRODUCERS = [("python", name) for name in MUTATIONS] + [
        pytest.param("kernel", name, marks=kernel_only)
        for name in MUTATIONS
        if name != "gene-swap"
    ]

    RATES = pytest.mark.parametrize(
        "crossover_rate,mutation_rate",
        [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)],
    )

    def config(self, name, crossover_rate, mutation_rate, **overrides):
        config = GAConfig(
            population_size=self.POPULATION,
            n_elites=self.ELITES,
            crossover_rate=crossover_rate,
            mutation_rate=mutation_rate,
            **overrides,
        )
        if self.MUTATIONS[name] is not None:
            config.mutation = self.MUTATIONS[name]
        return config

    def operated(self, crossover_rate, mutation_rate):
        # At these rates either every non-elite child went through an
        # operator or none did; each operated child is measured once,
        # even when its cells came out unchanged.
        return self.POPULATION - self.ELITES if crossover_rate or mutation_rate else 0

    @pytest.mark.parametrize("producer,name", PRODUCERS)
    @RATES
    def test_one_generation(
        self, tiny_problem, placements_built, measured, producer, name,
        crossover_rate, mutation_rate,
    ):
        ga = GeneticAlgorithm(self.config(name, crossover_rate, mutation_rate))
        evaluator = Evaluator(tiny_problem)
        grid = tiny_problem.grid
        rng = np.random.default_rng(4)
        placements = RandomInitializer().generate(tiny_problem, self.POPULATION, rng)
        population = Population.evaluate_all(
            evaluator, np.stack([p.cells_array() for p in placements])
        )
        placements_built.clear()
        measured.clear()
        before = evaluator.n_evaluations
        if producer == "python":
            source, cells = ga._next_generation(population, grid, rng)
        else:
            plan = ga._kernel_plan(tiny_problem.n_routers)
            source, cells = ga._kernel_offspring(
                population.cells, population.fitness, plan, grid, rng
            )
        offspring = population.successor(evaluator, source, cells)

        # The new children are measured as one stack; no placement is
        # built (the run builds one only for a new best).
        operated = self.operated(crossover_rate, mutation_rate)
        assert placements_built == []
        assert measured == ([operated] if operated else [])
        assert evaluator.n_evaluations - before == operated
        assert len(offspring.fitness) == len(offspring.cells) == self.POPULATION
        kept = np.flatnonzero(source >= 0)
        assert len(kept) == self.POPULATION - operated
        # A kept member keeps its cells and its measured rows.
        for slot in kept:
            parent = source[slot]
            assert np.array_equal(offspring.cells[slot], population.cells[parent])
            assert offspring[slot].metrics == population[parent].metrics
            assert offspring.fitness[slot] == population.fitness[parent]
            assert np.array_equal(
                offspring.rows.giant_masks[slot], population.rows.giant_masks[parent]
            )

    @pytest.mark.parametrize("name", list(MUTATIONS))
    def test_a_run_builds_a_placement_only_for_a_new_best(
        self, tiny_problem, placements_built, monkeypatch, tier, name
    ):
        ga = GeneticAlgorithm(self.config(name, 0.8, 0.3, n_generations=25))
        built_by_generation = []
        record = GeneticAlgorithm._record

        def counted(trace, generation, *args):
            built_by_generation.append(len(placements_built))
            return record(trace, generation, *args)

        monkeypatch.setattr(GeneticAlgorithm, "_record", staticmethod(counted))
        result = ga.run(
            Evaluator(tiny_problem), RandomInitializer(), np.random.default_rng(3)
        )
        best = [record.best_fitness for record in result.trace.records]
        built = np.diff([0, *built_by_generation]).tolist()
        # At most one placement per generation: one for the initial
        # best, then one for each generation whose best beats the run's.
        assert built == [1] + [int(now > then) for then, now in zip(best, best[1:])]
        assert result.best.placement.cells_array() is placements_built[-1]


class MalformedMutation(MutationOperator):
    """Mutates every child into one malformed array; as a subclass it
    keeps the run on the Python operators."""

    name = "malformed"

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.children: list[np.ndarray] = []

    def mutate(self, grid, cells, rng):
        child = np.array(cells, dtype=np.int64)
        if self.kind == "beyond-int32":
            # Narrowed to int32 the cell wraps to (3, y), a free cell.
            y = next(y for y in range(grid.height) if [3, y] not in child[1:].tolist())
            child[0] = (2**32 + 3, y)
        elif self.kind == "repeated":
            child[1] = child[0]
        else:
            child = child[:-1]
        self.children.append(child)
        return child


class TestMalformedChildren:
    """A malformed child of a Python operator raises what building its
    placement raises, on both tiers."""

    @pytest.mark.parametrize("kind", ["beyond-int32", "repeated", "one-router-short"])
    def test_run_raises_what_from_cells_raises(self, tiny_problem, tier, kind):
        mutation = MalformedMutation(kind)
        config = GAConfig(
            population_size=6, n_generations=2, n_elites=1,
            crossover_rate=0.0, mutation_rate=1.0, mutation=mutation,
        )
        ga = GeneticAlgorithm(config)
        with pytest.raises(ValueError) as raised:
            ga.run(Evaluator(tiny_problem), RandomInitializer(), np.random.default_rng(2))
        grid = tiny_problem.grid
        first = mutation.children[0]
        if kind == "beyond-int32":
            # The narrowed array would pass: the check reads the int64 cells.
            Placement.from_cells(grid, first.astype(np.int32))
        if kind == "one-router-short":
            # A placement of N - 1 routers builds; the engine then
            # refuses its router count.
            with pytest.raises(ValueError) as expected:
                Evaluator(tiny_problem).evaluate(Placement.from_cells(grid, first))
        else:
            with pytest.raises(ValueError) as expected:
                Placement.from_cells(grid, first)
        assert str(raised.value) == str(expected.value)


class TestGATrace:
    def make_record(self, generation, giant=3):
        return GenerationRecord(
            generation=generation,
            best_fitness=0.5,
            mean_fitness=0.3,
            best_giant_size=giant,
            best_covered_clients=7,
            diversity=1.0,
            n_evaluations=generation * 10,
        )

    def test_order_enforced(self):
        trace = GATrace()
        trace.append(self.make_record(0))
        with pytest.raises(ValueError, match="out of order"):
            trace.append(self.make_record(0))

    def test_accessors(self):
        trace = GATrace()
        for g in range(5):
            trace.append(self.make_record(g, giant=g))
        assert trace.generations == [0, 1, 2, 3, 4]
        assert trace.giant_sizes == [0, 1, 2, 3, 4]
        assert trace.at_generation(3).best_giant_size == 3
        with pytest.raises(KeyError):
            trace.at_generation(99)
        assert trace.final().generation == 4

    def test_sampled_includes_endpoints(self):
        trace = GATrace()
        for g in range(11):
            trace.append(self.make_record(g))
        sampled = trace.sampled(4)
        assert sampled[0].generation == 0
        assert sampled[-1].generation == 10
        assert [r.generation for r in sampled] == [0, 4, 8, 10]

    def test_sampled_validation(self):
        trace = GATrace()
        with pytest.raises(ValueError):
            trace.sampled(0)

    def test_record_as_dict(self):
        d = self.make_record(2).as_dict()
        assert d["generation"] == 2
        assert "diversity" in d
