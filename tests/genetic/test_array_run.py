"""A whole GA run on the generation kernel against the ``REPRO_COMPILED=0`` run.

On the compiled tier a run of the default operator kinds produces every
generation in one kernel call; its population, a cell stack plus
measurement rows, is the one the Python operators work on.  The Python
operators' run is the reference: the trace records, the best member (placement, metrics, fitness and giant mask),
the evaluation count, the stop and the generator's final state must be
the same.  Generated instances and operator mixes first, then the
degenerate inputs: one router, no clients, two members, no or
all-but-one elites, a population whose fitness never changes, a
fitness target and an expired deadline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anytime.deadline import Deadline
from repro.core.engine import compiled
from repro.core.evaluation import Evaluator
from repro.genetic.crossover import RegionExchangeCrossover
from repro.genetic.engine import GAConfig, GeneticAlgorithm
from repro.genetic.initializers import RandomInitializer
from repro.genetic.selection import TournamentSelection

from tests.genetic.test_generation_kernel import make_problem, mutations
from tests.neighborhood.test_propose_kernel import BIT_GENERATORS, same_state

pytestmark = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)


def run(problem, config, compiled_tier, engine="auto", kind="pcg64", seed=9,
        fitness_target=None, deadline=None):
    """One whole run on the chosen tier: the result, the generator and
    the number of generations the kernel produced."""
    steps = []
    kernel_offspring = GeneticAlgorithm._kernel_offspring

    def counted(self, *args):
        steps.append(1)
        return kernel_offspring(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_COMPILED", "1" if compiled_tier else "0")
        patch.setattr(GeneticAlgorithm, "_kernel_offspring", counted)
        rng = np.random.Generator(BIT_GENERATORS[kind](seed))
        evaluator = Evaluator(problem, engine=engine if compiled_tier else "auto")
        result = GeneticAlgorithm(config).run(
            evaluator, RandomInitializer(), rng, fitness_target, deadline
        )
    return result, rng, len(steps)


def assert_runs_agree(problem, make_config, engine="auto", **kwargs):
    arrays, arrays_rng, steps = run(problem, make_config(), True, engine, **kwargs)
    python, python_rng, python_steps = run(problem, make_config(), False, **kwargs)
    assert steps == arrays.n_generations and python_steps == 0
    assert arrays.trace.records == python.trace.records
    assert arrays.best.placement == python.best.placement
    assert arrays.best.metrics == python.best.metrics
    assert arrays.best.fitness == python.best.fitness
    assert np.array_equal(arrays.best.giant_mask, python.best.giant_mask)
    assert arrays.n_evaluations == python.n_evaluations
    assert arrays.n_generations == python.n_generations
    assert arrays.stopped_by == python.stopped_by
    assert same_state(arrays_rng.bit_generator.state, python_rng.bit_generator.state)
    return arrays


def config_factory(**kwargs):
    def make():
        config = dict(
            population_size=8, n_generations=5, n_elites=2,
            crossover_rate=0.8, mutation_rate=0.5,
        )
        config.update(kwargs)
        return GAConfig(**config)

    return make


# ----------------------------------------------------------------------
# Generated instances
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    width=st.integers(1, 12),
    height=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    n_clients=st.integers(0, 24),
    population_size=st.integers(2, 8),
    elite_share=st.floats(0.0, 1.0),
    generations=st.integers(0, 5),
    tournament=st.integers(1, 4),
    crossover_rate=st.sampled_from([0.0, 0.5, 1.0]),
    mutation_rate=st.sampled_from([0.0, 0.5, 1.0]),
    mutation=mutations(),
    engine=st.sampled_from(["auto", "dense", "sparse"]),
    kind=st.sampled_from(list(BIT_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_generated_runs(
    width, height, density, n_clients, population_size, elite_share, generations,
    tournament, crossover_rate, mutation_rate, mutation, engine, kind, seed,
):
    n_routers = max(1, round(density * min(width * height, 24)))
    problem = make_problem(width, height, n_routers, n_clients, seed=seed % 1000)
    make_config = config_factory(
        population_size=population_size,
        n_generations=generations,
        n_elites=int(elite_share * (population_size - 1)),
        crossover_rate=crossover_rate,
        mutation_rate=mutation_rate,
        selection=TournamentSelection(size=tournament),
        crossover=RegionExchangeCrossover(),
        mutation=mutation,
    )
    assert_runs_agree(problem, make_config, engine, kind=kind, seed=seed)


# ----------------------------------------------------------------------
# Degenerate inputs
# ----------------------------------------------------------------------


def test_one_router():
    assert_runs_agree(make_problem(6, 5, 1), config_factory())


def test_zero_clients():
    assert_runs_agree(make_problem(10, 10, 8, n_clients=0), config_factory())


@pytest.mark.parametrize("n_elites", [0, 1])
def test_two_members(n_elites):
    make_config = config_factory(population_size=2, n_elites=n_elites)
    assert_runs_agree(make_problem(10, 10, 8), make_config)


@pytest.mark.parametrize("n_elites_of", ["none", "all-but-one"])
def test_elite_edges(n_elites_of):
    n_elites = 0 if n_elites_of == "none" else 6
    make_config = config_factory(population_size=7, n_elites=n_elites)
    assert_runs_agree(make_problem(12, 12, 10), make_config)


def test_all_equal_fitness():
    # One router and no clients: every placement scores the same, so
    # every generation ties the best and the first one stays.
    result = assert_runs_agree(
        make_problem(8, 8, 1, n_clients=0), config_factory(n_generations=6)
    )
    assert len({record.mean_fitness for record in result.trace.records}) == 1


def test_fitness_target_stop():
    problem = make_problem(12, 12, 10)
    reference, _, _ = run(problem, config_factory(n_generations=30)(), False)
    fitnesses = [record.best_fitness for record in reference.trace.records]
    # A target first met after some generations of improvement.
    target = next(value for value in fitnesses if value > fitnesses[0])
    result = assert_runs_agree(
        problem, config_factory(n_generations=30), fitness_target=target
    )
    assert result.n_generations < 30 and result.best.fitness >= target


def test_expired_deadline():
    result = assert_runs_agree(
        make_problem(12, 12, 10), config_factory(), deadline=Deadline.after(0.0)
    )
    assert result.stopped_by == "deadline" and result.n_generations == 0
    assert len(result.trace.records) == 1
