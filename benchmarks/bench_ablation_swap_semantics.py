"""Ablation B — the two readings of Algorithm 3.

Literal reading: the two routers exchange positions (the occupied-cell
multiset never changes).  Relocating reading (default): the strong
sparse-area router moves *into* the dense window.  Only the relocating
reading can reproduce Fig. 4's growth from a random start — the literal
swap is bounded by the initial position geometry, as this bench shows.
"""

from __future__ import annotations

import numpy as np
from _common import bench_scale, print_header, run_once

from repro.adhoc import RandomPlacement
from repro.core.evaluation import Evaluator
from repro.instances.catalog import paper_normal
from repro.neighborhood.movements import SwapMovement
from repro.neighborhood.search import NeighborhoodSearch


def _compare(scale):
    problem = paper_normal().generate()
    initial = RandomPlacement().place(problem, np.random.default_rng(4))
    outcomes = {}
    for label, relocate in (("literal", False), ("relocating", True)):
        search = NeighborhoodSearch(
            SwapMovement(relocate=relocate),
            n_candidates=scale.ns_candidates,
            max_phases=scale.ns_phases,
            stall_phases=None,
        )
        result = search.run(
            Evaluator(problem), initial, np.random.default_rng(9)
        )
        outcomes[label] = result
    return outcomes


def test_ablation_swap_semantics(benchmark):
    scale = bench_scale()
    outcomes = run_once(benchmark, _compare, scale)

    print_header("Ablation B — literal vs relocating swap")
    for label, result in outcomes.items():
        trace = result.trace
        print(
            f"{label:11s} giant {trace.giant_sizes[0]:3d} -> "
            f"{result.best.giant_size:3d}  coverage {result.best.covered_clients:3d}  "
            f"({result.n_evaluations} evaluations)"
        )

    literal = outcomes["literal"]
    relocating = outcomes["relocating"]
    # The literal swap cannot move routers, so its giant component is
    # bounded by what radius permutations achieve; the relocating swap
    # must clearly outgrow it.
    assert relocating.best.giant_size >= literal.best.giant_size
