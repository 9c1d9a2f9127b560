"""Every search driver refuses a start placement that does not fit the problem.

A start on another grid used to be accepted: the best placement came
back on that grid, and a router outside the problem grid failed the run
mid-search.  Each driver now runs
:func:`~repro.core.problem.check_start_placement` before any phase.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.grid import GridArea
from repro.core.solution import Placement
from repro.neighborhood.movements import RandomMovement
from repro.neighborhood.multichain import MultiChainSearch
from repro.neighborhood.search import NeighborhoodSearch


def run_search(problem, start):
    search = NeighborhoodSearch(RandomMovement(), n_candidates=4, max_phases=2)
    return search.run(Evaluator(problem), start, np.random.default_rng(1))


def run_multichain(problem, start):
    # The foreign start is chain 1; chain 0 starts on the problem grid.
    own = Placement.random(problem.grid, problem.n_routers, np.random.default_rng(2))
    search = MultiChainSearch(RandomMovement(), n_candidates=4, max_phases=2)
    rngs = [np.random.default_rng(seed) for seed in (1, 2)]
    return search.run(problem, [own, start], rngs)


def run_annealing(problem, start):
    annealing = MultiChainSearch.annealing(
        RandomMovement(), max_phases=2, moves_per_phase=4
    )
    return annealing.run(problem, [start], [np.random.default_rng(1)])


def run_tabu(problem, start):
    tabu = MultiChainSearch.tabu(RandomMovement(), n_candidates=4, max_phases=2)
    return tabu.run(problem, [start], [np.random.default_rng(1)])


DRIVERS = [
    pytest.param(run_search, "chain 0 start", id="search"),
    pytest.param(run_multichain, "chain 1 start", id="multichain"),
    pytest.param(run_annealing, "chain 0 start", id="annealing"),
    pytest.param(run_tabu, "chain 0 start", id="tabu"),
]


def foreign_starts(problem):
    """Starts on a 2x larger grid: cells that fit, and a cell outside."""
    bigger = GridArea(2 * problem.grid.width, 2 * problem.grid.height)
    own = Placement.random(problem.grid, problem.n_routers, np.random.default_rng(0))
    cells = own.cells_array().copy()
    cells[0] = (37, 37)
    return (
        Placement.from_cells(bigger, own.cells_array()),
        Placement.from_cells(bigger, cells),
    )


@pytest.mark.parametrize("run, label", DRIVERS)
def test_foreign_grid_rejected(tiny_problem, run, label):
    inside, _ = foreign_starts(tiny_problem)
    with pytest.raises(ValueError, match=rf"{label} is placed on a 64x64 grid.*32x32"):
        run(tiny_problem, inside)


@pytest.mark.parametrize("run, label", DRIVERS)
def test_cell_outside_problem_grid_rejected(tiny_problem, run, label):
    _, outside = foreign_starts(tiny_problem)
    with pytest.raises(
        ValueError, match=rf"{label} cell \(37, 37\) lies outside the 32x32 grid"
    ):
        run(tiny_problem, outside)


@pytest.mark.parametrize("run, label", DRIVERS)
def test_router_count_rejected(tiny_problem, run, label):
    own = Placement.random(
        tiny_problem.grid, tiny_problem.n_routers, np.random.default_rng(0)
    )
    short = Placement.from_cells(tiny_problem.grid, own.cells_array()[:-1])
    with pytest.raises(ValueError, match=rf"{label} places 15 routers"):
        run(tiny_problem, short)


@pytest.mark.parametrize("run, label", DRIVERS)
def test_own_grid_accepted(tiny_problem, run, label):
    start = Placement.random(
        tiny_problem.grid, tiny_problem.n_routers, np.random.default_rng(0)
    )
    result = run(tiny_problem, start)
    for outcome in result if isinstance(result, list) else [result]:
        assert outcome.best.placement.grid == tiny_problem.grid
