"""Ablation D — the paper's announced future work: "full featured local
search methods".

Runs the paper's neighborhood search, simulated annealing and tabu
search (the authors' own follow-up WMN-SA / WMN-TS directions) on the
Fig. 4 instance under an equal evaluation budget and compares outcomes.
All three are one chain of the lockstep driver, ``MultiChainSearch``, on
its best-improvement, Metropolis and tabu rules.
"""

from __future__ import annotations

import numpy as np
from _common import bench_scale, print_header, run_once

from repro.adhoc import RandomPlacement
from repro.instances.catalog import paper_normal
from repro.neighborhood.movements import SwapMovement
from repro.neighborhood.multichain import MultiChainSearch


def _compare(scale):
    problem = paper_normal().generate()
    initial = RandomPlacement().place(problem, np.random.default_rng(4))
    algorithms = {
        "neighborhood-search": MultiChainSearch(
            SwapMovement(),
            n_candidates=scale.ns_candidates,
            max_phases=scale.ns_phases,
            stall_phases=None,
        ),
        "simulated-annealing": MultiChainSearch.annealing(
            SwapMovement(),
            max_phases=scale.ns_phases,
            moves_per_phase=scale.ns_candidates,
        ),
        "tabu-search": MultiChainSearch.tabu(
            SwapMovement(),
            tenure=8,
            n_candidates=scale.ns_candidates,
            max_phases=scale.ns_phases,
        ),
    }
    outcomes = {}
    for label, algorithm in algorithms.items():
        (outcomes[label],) = algorithm.run(
            problem, [initial], [np.random.default_rng(6)]
        )
    return outcomes


def test_ablation_local_search(benchmark):
    scale = bench_scale()
    outcomes = run_once(benchmark, _compare, scale)

    print_header(
        "Ablation D — neighborhood search vs simulated annealing vs tabu"
    )
    print(
        f"{'algorithm':22s} {'giant':>6s} {'coverage':>9s} "
        f"{'fitness':>9s} {'evals':>7s}"
    )
    for label, result in outcomes.items():
        print(
            f"{label:22s} {result.best.giant_size:6d} "
            f"{result.best.covered_clients:9d} {result.best.fitness:9.4f} "
            f"{result.n_evaluations:7d}"
        )

    start = min(r.trace.giant_sizes[0] for r in outcomes.values())
    for result in outcomes.values():
        # Every full-featured method improves on the initial solution.
        assert result.best.giant_size >= start
