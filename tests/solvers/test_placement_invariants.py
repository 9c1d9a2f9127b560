"""Placement-quality invariants for every registered solver.

Whatever a solver does inside, its best placement must be a valid
deployment of the problem it was given: every router on a cell of the
problem's own grid, no two routers on one cell, the same placement for
the same seed and different placements across seeds.  Every concrete
``family:variant`` spec of the registry is checked, so a new family or
variant is covered the moment it is registered.

The warm-start checks pin the contract that a warm start must live on
the problem's grid: a placement from another grid whose cells happen to
fit used to be accepted, and the solve then returned a best placement
carrying that other grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grid import GridArea
from repro.core.solution import Placement
from repro.solvers import make_solver
from repro.solvers.registry import available_solvers, solver_families

SEEDS = (1, 2, 3)


def small_solver(spec: str):
    """The solver ``spec`` names, sized to run in a fraction of a second."""
    family = spec.partition(":")[0]
    kwargs = {
        "search": {"n_candidates": 4},
        "annealing": {"moves_per_phase": 4},
        "tabu": {"n_candidates": 4},
        "multistart": {"n_candidates": 4, "n_restarts": 2},
        "ga": {"population_size": 6},
    }.get(family, {})
    return make_solver(spec, **kwargs)


def solve(spec: str, problem, seed: int) -> Placement:
    budget = None if spec.startswith("adhoc") else 3
    return small_solver(spec).solve(problem, seed=seed, budget=budget).best.placement


@pytest.fixture(scope="module")
def problem():
    from repro.instances.catalog import tiny_spec

    return tiny_spec().generate()


@pytest.fixture(scope="module")
def results(problem):
    """``{spec: [placement per seed]}`` plus a repeat of the first seed."""
    return {
        spec: [solve(spec, problem, seed) for seed in SEEDS + SEEDS[:1]]
        for spec in available_solvers()
    }


@pytest.mark.parametrize("spec", available_solvers())
class TestPlacementQuality:
    def test_every_router_on_the_problem_grid(self, spec, problem, results):
        for placement in results[spec]:
            assert placement.grid == problem.grid
            assert len(placement) == problem.n_routers
            cells = placement.cells_array()
            assert (cells >= 0).all()
            assert (cells < (problem.grid.width, problem.grid.height)).all()

    def test_no_cell_used_twice(self, spec, results):
        for placement in results[spec]:
            assert len(set(placement.cells)) == len(placement)

    def test_same_seed_same_placement(self, spec, results):
        assert results[spec][-1] == results[spec][0]

    def test_seeds_give_different_placements(self, spec, results):
        distinct = {placement.cells for placement in results[spec][: len(SEEDS)]}
        assert len(distinct) > 1


WARM_FAMILIES = [
    family
    for family in solver_families()
    if small_solver(family).supports_warm_start
]


def foreign_warm_start(problem) -> Placement:
    """A placement on a larger grid whose cells all fit the problem's grid."""
    grid = problem.grid
    bigger = GridArea(2 * grid.width, 2 * grid.height)
    own = Placement.random(grid, problem.n_routers, np.random.default_rng(0))
    return Placement.from_cells(bigger, own.cells_array())


@pytest.mark.parametrize("family", WARM_FAMILIES)
class TestWarmStartGrid:
    def test_foreign_grid_rejected(self, family, problem):
        warm = foreign_warm_start(problem)
        with pytest.raises(ValueError, match=r"64x64 grid.*32x32"):
            small_solver(family).solve(problem, seed=0, budget=2, warm_start=warm)

    def test_foreign_grid_rejected_in_batch(self, family, problem):
        warm = foreign_warm_start(problem)
        with pytest.raises(ValueError, match=r"64x64 grid.*32x32"):
            small_solver(family).solve_batch(
                problem, [0, 1], budget=2, warm_starts=[None, warm]
            )

    def test_same_grid_accepted(self, family, problem):
        warm = Placement.random(problem.grid, problem.n_routers, np.random.default_rng(0))
        result = small_solver(family).solve(problem, seed=0, budget=2, warm_start=warm)
        assert result.warm_started
        assert result.best.placement.grid == problem.grid


def test_every_warm_capable_family_is_covered():
    assert set(WARM_FAMILIES) == {"annealing", "ga", "multistart", "search", "tabu"}
