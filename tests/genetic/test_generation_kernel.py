"""The compiled GA generation against the Python operators.

On the compiled tier a generation of the default operator kinds
(tournament selection, region-exchange crossover, and Jiggle,
TowardCentroid or Reset mutation alone or mixed by a
``CompositeMutation``) is one ``repro_ga_generation`` call.  The Python
``GeneticAlgorithm._next_generation`` is the reference: both producers
must return the same ``source`` slots (the member each kept slot copies,
``-1`` for a new child) and the same cell stack, and the generator must
end each generation in the same full ``bit_generator.state``, on every
numpy bit generator.  The edges
are those where the draws change shape: one router, one-cell-wide
grids, grids so full that the nudge rings widen and the free-cell draw
reaches its enumeration fallback, tournament ties, a dropped second
child, no or all-but-one elites, and rates of 0 and 1.  Then the
dispatch: which operator configurations take the kernel, once per
generation, and that a whole run is the same on both paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import compiled
from repro.core.evaluation import Evaluator
from repro.core.solution import Placement
from repro.genetic.crossover import (
    OnePointCrossover,
    RegionExchangeCrossover,
    UniformCrossover,
)
from repro.genetic.engine import GAConfig, GeneticAlgorithm
from repro.genetic.initializers import RandomInitializer
from repro.genetic.mutation import (
    CompositeMutation,
    GeneSwapMutation,
    JiggleMutation,
    ResetMutation,
    TowardCentroidMutation,
)
from repro.genetic.population import Population
from repro.genetic.selection import (
    RankSelection,
    RouletteWheelSelection,
    TournamentSelection,
)
from repro.instances.generator import InstanceSpec

from tests.core.test_engine_phase_kernel import CountingLibrary
from tests.neighborhood.test_propose_kernel import BIT_GENERATORS, same_state

pytestmark = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)


def make_problem(width, height, n_routers, n_clients=10, seed=3):
    return InstanceSpec(
        name="generation", width=width, height=height, n_routers=n_routers,
        n_clients=n_clients, min_radius=1.0, max_radius=4.0, seed=seed,
    ).generate()


def twin_generators(kind, seed, buffered):
    """Two equal generators (kernel side, reference side)."""
    rngs = [np.random.Generator(BIT_GENERATORS[kind](seed)) for _ in range(2)]
    if buffered:
        # Leave a buffered high half behind where the generator has one.
        for rng in rngs:
            rng.integers(0, 10)
    return rngs


def assert_generations_agree(
    config, problem, placements, kind="pcg64", seed=7, buffered=False, generations=3
):
    """``generations`` generations of both producers from one population:
    each generation's ``source`` slots, cell stack and generator state."""
    ga = GeneticAlgorithm(config)
    plan = ga._kernel_plan(problem.n_routers)
    assert plan is not None
    evaluator = Evaluator(problem)
    population = Population.evaluate_all(
        evaluator, [placement.cells_array() for placement in placements]
    )
    kernel_rng, reference_rng = twin_generators(kind, seed, buffered)
    grid = problem.grid
    for _ in range(generations):
        expected_source, expected_cells = ga._next_generation(
            population, grid, reference_rng
        )
        source, cells = ga._kernel_offspring(
            population.cells, population.fitness, plan, grid, kernel_rng
        )
        assert source.tolist() == expected_source.tolist()
        assert cells.dtype == np.int32
        assert np.array_equal(cells, np.stack(expected_cells))
        assert same_state(kernel_rng.bit_generator.state, reference_rng.bit_generator.state)
        population = population.successor(evaluator, source, cells)


def random_placements(problem, count, seed=5):
    return RandomInitializer().generate(problem, count, np.random.default_rng(seed))


def default_config(**overrides):
    config = dict(population_size=8, n_elites=2, crossover_rate=0.8, mutation_rate=0.5)
    config.update(overrides)
    return GAConfig(**config)


# ----------------------------------------------------------------------
# Generators and generated instances
# ----------------------------------------------------------------------


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
@pytest.mark.parametrize("kind", list(BIT_GENERATORS))
def test_every_bit_generator(kind, buffered):
    problem = make_problem(16, 12, 20)
    assert_generations_agree(
        default_config(), problem, random_placements(problem, 8), kind, 11, buffered
    )


@st.composite
def mutations(draw):
    jiggle = JiggleMutation(
        radius=draw(st.integers(1, 4)),
        per_gene_rate=draw(st.sampled_from([0.05, 0.3, 1.0])),
    )
    centroid = TowardCentroidMutation(
        max_step_fraction=draw(st.sampled_from([0.1, 0.5, 1.0])),
        jitter=draw(st.integers(0, 3)),
    )
    reset = ResetMutation(count=draw(st.integers(1, 5)))
    pick = draw(st.sampled_from(["jiggle", "centroid", "reset", "composite"]))
    if pick != "composite":
        return {"jiggle": jiggle, "centroid": centroid, "reset": reset}[pick]
    operators = draw(
        st.lists(st.sampled_from([jiggle, centroid, reset]), min_size=1, max_size=4)
    )
    weights = draw(
        st.lists(
            st.sampled_from([0.0, 0.15, 0.35, 1.0, 2.5]),
            min_size=len(operators),
            max_size=len(operators),
        ).filter(any)
    )
    return CompositeMutation(operators, weights)


rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    width=st.integers(1, 14),
    height=st.integers(1, 14),
    density=st.floats(0.0, 1.0),
    population_size=st.integers(2, 9),
    elite_share=st.floats(0.0, 1.0),
    tournament=st.integers(1, 5),
    fractions=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    crossover_rate=rates,
    mutation_rate=rates,
    mutation=mutations(),
    kind=st.sampled_from(list(BIT_GENERATORS)),
    buffered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_generated_instances(
    width, height, density, population_size, elite_share, tournament, fractions,
    crossover_rate, mutation_rate, mutation, kind, buffered, seed,
):
    n_routers = max(1, round(density * width * height))
    problem = make_problem(width, height, n_routers, seed=seed % 1000)
    config = GAConfig(
        population_size=population_size,
        n_elites=int(elite_share * (population_size - 1)),
        crossover_rate=crossover_rate,
        mutation_rate=mutation_rate,
        selection=TournamentSelection(size=tournament),
        crossover=RegionExchangeCrossover(min(fractions), max(fractions)),
        mutation=mutation,
    )
    assert_generations_agree(
        config, problem, random_placements(problem, population_size, seed),
        kind, seed, buffered,
    )


# ----------------------------------------------------------------------
# Edges
# ----------------------------------------------------------------------


MUTATIONS = {
    "default": None,
    "jiggle": JiggleMutation(radius=1, per_gene_rate=1.0),
    "centroid": TowardCentroidMutation(max_step_fraction=1.0, jitter=1),
    "reset": ResetMutation(count=3),
}


def with_mutation(config, name):
    if MUTATIONS[name] is not None:
        config.mutation = MUTATIONS[name]
    return config


@pytest.mark.parametrize("name", list(MUTATIONS))
@pytest.mark.parametrize(
    "width,height,n_routers",
    [(6, 5, 1), (1, 12, 5), (12, 1, 5), (1, 1, 1), (5, 4, 20), (5, 4, 19), (9, 9, 78)],
    ids=["one-router", "1xK", "Kx1", "one-cell", "full", "full-but-one", "crowded"],
)
def test_grid_edges(width, height, n_routers, name):
    # Full and crowded grids widen the nudge rings and send the
    # free-cell draw past its 64 attempts to the enumeration fallback.
    problem = make_problem(width, height, n_routers)
    config = with_mutation(default_config(crossover_rate=1.0, mutation_rate=1.0), name)
    assert_generations_agree(config, problem, random_placements(problem, 8))


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_tournament_ties(name):
    # Equal fitness everywhere: the first drawn contestant wins, which
    # decides the member a kept slot copies.
    problem = make_problem(10, 10, 12)
    placement = Placement.random(problem.grid, 12, np.random.default_rng(1))
    config = with_mutation(default_config(crossover_rate=0.5, mutation_rate=0.5), name)
    config.selection = TournamentSelection(size=4)
    assert_generations_agree(config, problem, [placement] * 8)


@pytest.mark.parametrize("n_elites_of", ["none", "all-but-one"])
@pytest.mark.parametrize("population_size", [2, 3, 7])
def test_population_edges(population_size, n_elites_of):
    # Odd sizes drop the last pair's second child after its crossover.
    problem = make_problem(12, 12, 10)
    n_elites = 0 if n_elites_of == "none" else population_size - 1
    config = default_config(population_size=population_size, n_elites=n_elites)
    assert_generations_agree(config, problem, random_placements(problem, population_size))


@pytest.mark.parametrize("mutation_rate", [0.0, 1.0])
@pytest.mark.parametrize("crossover_rate", [0.0, 1.0])
def test_rate_edges(crossover_rate, mutation_rate):
    problem = make_problem(14, 10, 16)
    config = default_config(
        population_size=9, crossover_rate=crossover_rate, mutation_rate=mutation_rate
    )
    assert_generations_agree(config, problem, random_placements(problem, 9))


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


class SubTournament(TournamentSelection):
    pass


class SubRegionExchange(RegionExchangeCrossover):
    pass


class SubJiggle(JiggleMutation):
    pass


@pytest.fixture
def library(monkeypatch):
    """The bound kernel library, counting calls per kernel entry."""
    counting = CountingLibrary(compiled.require())
    monkeypatch.setattr(compiled, "_lib", counting)
    return counting


def run_counted(config, library, generations=4):
    """A whole run: the result, the generator and the number of
    generation kernel calls it made."""
    before = library.calls.get("repro_ga_generation", 0)
    config.n_generations = generations
    problem = make_problem(16, 16, 12)
    rng = np.random.default_rng(9)
    result = GeneticAlgorithm(config).run(Evaluator(problem), RandomInitializer(), rng)
    return result, rng, library.calls.get("repro_ga_generation", 0) - before


KERNEL_CONFIGS = {
    "default": {},
    "jiggle": {"mutation": JiggleMutation()},
    "centroid": {"mutation": TowardCentroidMutation()},
    "reset": {"mutation": ResetMutation()},
    "reset-count-3": {"mutation": ResetMutation(count=3)},
    "tournament-5": {"selection": TournamentSelection(size=5)},
}

PYTHON_CONFIGS = {
    "sub-selection": {"selection": SubTournament()},
    "sub-crossover": {"crossover": SubRegionExchange()},
    "sub-mutation": {"mutation": SubJiggle()},
    "sub-in-composite": {"mutation": CompositeMutation([JiggleMutation(), SubJiggle()])},
    "uniform": {"crossover": UniformCrossover()},
    "one-point": {"crossover": OnePointCrossover()},
    "gene-swap": {"mutation": GeneSwapMutation()},
    "gene-swap-in-composite": {
        "mutation": CompositeMutation([JiggleMutation(), GeneSwapMutation()])
    },
    "nested-composite": {
        "mutation": CompositeMutation([CompositeMutation([JiggleMutation()])])
    },
    "roulette": {"selection": RouletteWheelSelection()},
    "rank": {"selection": RankSelection()},
}


@pytest.mark.parametrize("name", list(KERNEL_CONFIGS))
def test_exact_default_kinds_take_the_kernel(name, library, monkeypatch):
    kernel, kernel_rng, calls = run_counted(GAConfig(**KERNEL_CONFIGS[name]), library)
    assert calls == 4
    monkeypatch.setenv("REPRO_COMPILED", "0")
    python, python_rng, calls = run_counted(GAConfig(**KERNEL_CONFIGS[name]), library)
    assert calls == 0
    assert kernel.trace.records == python.trace.records
    assert kernel.best.placement == python.best.placement
    assert kernel.n_evaluations == python.n_evaluations
    assert same_state(kernel_rng.bit_generator.state, python_rng.bit_generator.state)


@pytest.mark.parametrize("name", list(PYTHON_CONFIGS))
def test_other_operators_take_the_python_path(name, library):
    _, _, calls = run_counted(GAConfig(**PYTHON_CONFIGS[name]), library)
    assert calls == 0


def plan_for(mutation, n_routers):
    return GeneticAlgorithm(GAConfig(mutation=mutation))._kernel_plan(n_routers)


def test_jitter_beyond_a_32_bit_span_stays_in_python():
    assert plan_for(TowardCentroidMutation(jitter=(1 << 31) - 1), 10)
    assert plan_for(TowardCentroidMutation(jitter=1 << 31), 10) is None


def test_numpy_tail_shuffle_choice_stays_in_python():
    # Generator.choice(n, k, replace=False) shuffles a whole index array
    # when n > 10000 and k > n // 50; the kernel draws Floyd's picks only.
    assert plan_for(ResetMutation(count=200), 10001) is not None
    assert plan_for(ResetMutation(count=201), 10001) is None
    assert plan_for(ResetMutation(count=10000), 10000) is not None
    assert plan_for(
        CompositeMutation([JiggleMutation(), ResetMutation(count=201)]), 10001
    ) is None


def test_malformed_inputs_are_refused_before_the_kernel():
    rng = np.random.default_rng(0)
    cells = np.zeros((3, 1, 2), dtype=np.int32)
    cells[:, 0, 0] = [0, 1, 2]
    rows = [(compiled.MUTATE_JIGGLE, 1, 0.5)]

    def call(parents=cells, fitness=(1.0, 2.0, 3.0), n_elites=1, size=2,
             mutations=rows, cdf=None, width=4):
        return compiled.ga_generation(
            rng, parents, fitness, n_elites, size, (1.0, 1.0), (0.25, 0.75),
            mutations, cdf, width, 4,
        )

    source, children = call()
    assert len(source) == 3 and children.shape == (3, 1, 2)
    for bad in (
        {"parents": cells.astype(np.int64)},
        {"parents": np.zeros((3, 0, 2), dtype=np.int32)},
        {"fitness": (1.0, 2.0)},
        {"n_elites": 3},
        {"size": 0},
        {"mutations": []},
        {"mutations": [(7, 1, 0.5)]},
        {"cdf": [0.5, 1.0]},
    ):
        with pytest.raises(ValueError):
            call(**bad)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="outside the grid"):
        call(width=2)
    assert rng.bit_generator.state == state
