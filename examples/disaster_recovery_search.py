"""Rapid mesh re-planning after router failures.

WMNs are prized for "reliability, robustness, and self-configuring
properties" (paper, Section 1).  This example stress-tests that claim:
starting from an optimized deployment we knock out the strongest
routers, measure the degradation and let the neighborhood search
re-plan the survivors — comparing the paper's swap movement against
simulated annealing and tabu search under the same evaluation budget.

Run:
    python examples/disaster_recovery_search.py
"""

from __future__ import annotations

import numpy as np

from repro import envgates

#: ``REPRO_EXAMPLES_SMOKE=1`` (set by the CI examples job) shrinks the
#: effort knobs so every example still exercises its whole pipeline but
#: finishes in seconds.
SMOKE = envgates.examples_smoke()

from repro import (
    Evaluator,
    HotSpotPlacement,
    MultiChainSearch,
    NeighborhoodSearch,
    ProblemInstance,
    SwapMovement,
    paper_normal,
)
from repro.core.clients import ClientSet
from repro.core.routers import RouterFleet
from repro.core.solution import Placement


def knock_out_strongest(
    problem: ProblemInstance, placement: Placement, count: int
) -> tuple[ProblemInstance, Placement]:
    """Remove the ``count`` most powerful routers from the deployment."""
    doomed = {
        router.router_id
        for router in problem.fleet.by_power_descending()[:count]
    }
    surviving_radii = [
        router.radius for router in problem.fleet if router.router_id not in doomed
    ]
    surviving_cells = [
        placement[router.router_id]
        for router in problem.fleet
        if router.router_id not in doomed
    ]
    reduced = ProblemInstance(
        grid=problem.grid,
        fleet=RouterFleet.from_radii(surviving_radii),
        clients=ClientSet.from_points(problem.clients.cells(), grid=problem.grid),
        link_rule=problem.link_rule,
        coverage_rule=problem.coverage_rule,
    )
    return reduced, Placement.from_cells(problem.grid, surviving_cells)


def main() -> None:
    problem = paper_normal().generate()
    rng = np.random.default_rng(99)

    # 1. Pre-disaster deployment: HotSpot + a short swap search.
    evaluator = Evaluator(problem)
    initial = HotSpotPlacement().place(problem, rng)
    deployed = NeighborhoodSearch(
        SwapMovement(),
        n_candidates=8 if SMOKE else 32,
        max_phases=6 if SMOKE else 30,
        stall_phases=None,
    ).run(evaluator, initial, rng)
    print(f"deployed network      : {deployed.best.summary()}")

    # 2. Disaster: the 8 most powerful routers go dark.
    reduced_problem, surviving = knock_out_strongest(
        problem, deployed.best.placement, count=8
    )
    reduced_evaluator = Evaluator(reduced_problem)
    degraded = reduced_evaluator.evaluate(surviving)
    print(f"after losing 8 routers: {degraded.summary()}")
    print()

    # 3. Re-plan the survivors: the paper's search vs its future-work
    #    extensions, equal budgets.  All three are the one lockstep
    #    driver, here with a single chain, on its best-improvement, tabu
    #    and Metropolis rules.
    budget_phases, budget_moves = (6, 8) if SMOKE else (30, 32)
    contenders = {
        "swap neighborhood search": MultiChainSearch(
            SwapMovement(),
            n_candidates=budget_moves,
            max_phases=budget_phases,
            stall_phases=None,
        ),
        "simulated annealing": MultiChainSearch.annealing(
            SwapMovement(),
            max_phases=budget_phases,
            moves_per_phase=budget_moves,
        ),
        "tabu search": MultiChainSearch.tabu(
            SwapMovement(),
            tenure=6,
            n_candidates=budget_moves,
            max_phases=budget_phases,
        ),
    }
    print(f"{'re-planner':26s} {'giant':>7s} {'coverage':>9s} {'fitness':>9s}")
    for label, algorithm in contenders.items():
        (outcome,) = algorithm.run(
            reduced_problem, [surviving], [np.random.default_rng(5)]
        )
        best = outcome.best
        print(
            f"{label:26s} {best.giant_size:3d}/{reduced_problem.n_routers:<3d} "
            f"{best.covered_clients:4d}/{reduced_problem.n_clients:<4d} "
            f"{best.fitness:9.4f}"
        )
    print()
    print(
        "The mesh heals: local search recovers most of the lost\n"
        "connectivity by repositioning the surviving routers."
    )


if __name__ == "__main__":
    main()
