"""Exact giant-size ties must break identically on every engine.

Audit of the delta engine's ``counts.argmax()`` giant selection (see
``StackedDeltaEngine.measure_phase`` in ``repro/core/engine/stacked.py``):
component labels are canonical smallest-member ids on every path, so
``argmax`` — which returns the *first* maximum — picks the smallest
label among the largest components, which is exactly
:meth:`ComponentStructure.giant_label`'s rule.  These
tests construct placements with two components of exactly equal size
(where the old union-find-root tie-break was order-dependent) and assert
that the dense reference, every tier's batch path, the delta-dense,
delta-sparse and sparse engines all select the same component,
including its GIANT_ONLY coverage consequences.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import StackedDeltaEngine, StackedEngine, compiled_available
from repro.core.evaluation import Evaluator
from repro.core.geometry import Point
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, RadioProfile
from repro.core.solution import Placement
from tests.conftest import measure_placement, ref_apply_row, relocate_row


def tie_problem() -> ProblemInstance:
    # Uniform radius 1: routers link iff adjacent cells.  One client on
    # each would-be giant, so the tie-break is visible in the coverage
    # metric under GIANT_ONLY, not just in the mask.
    rng = np.random.default_rng(0)
    return ProblemInstance.build(
        32, 32, 6, [(0, 0), (10, 10)], RadioProfile(1.0, 1.0), rng,
        coverage_rule=CoverageRule.GIANT_ONLY,
    )


def tie_placement(problem: ProblemInstance) -> Placement:
    # Components: {0, 5} at (10,10)-(10,11) and {2, 3} at (0,0)-(0,1),
    # routers 1 and 4 isolated.  Sizes tie at 2; the smallest-member
    # rule must pick the component containing router 0.
    return Placement.from_cells(
        problem.grid,
        [(10, 10), (20, 20), (0, 0), (0, 1), (25, 25), (10, 11)],
    )


EXPECTED_GIANT = np.array([True, False, False, False, False, True])


class TestExactGiantTie:
    def test_all_engines_agree_on_the_tie(self):
        problem = tie_problem()
        placement = tie_placement(problem)
        scalar = Evaluator(problem, engine="dense").evaluate(placement)
        assert scalar.giant_size == 2
        assert np.array_equal(scalar.giant_mask, EXPECTED_GIANT)
        # Router 0's component wins, so only the client at (10, 10) is
        # covered.
        assert scalar.covered_clients == 1

        tiers = ["dense", "sparse"] + (["compiled"] if compiled_available() else [])
        batches = [
            Evaluator(problem, engine=tier).evaluate_many([placement])[0]
            for tier in tiers
        ]
        sparse = StackedEngine(problem, engine="sparse").measure_placements(
            [placement]
        ).evaluation(0, placement)
        for other in (*batches, sparse):
            assert other.metrics == scalar.metrics
            assert other.fitness == scalar.fitness
            assert np.array_equal(other.giant_mask, scalar.giant_mask)

        for engine in ("dense", "sparse"):
            delta = StackedDeltaEngine(problem, engine=engine)
            start = delta.reset_chain(0, placement)
            evaluation = measure_placement(delta, 0, placement)
            for other in (start, evaluation):
                assert other.metrics == scalar.metrics
                assert np.array_equal(other.giant_mask, scalar.giant_mask)

    def test_delta_propose_into_an_exact_tie(self):
        # The tie must also break canonically when it *arises* from an
        # incremental update, not just a full rebuild: start with a
        # 3-router giant, then relocate one member into isolation so the
        # sizes tie at 2-2.
        problem = tie_problem()
        initial = Placement.from_cells(
            problem.grid,
            [(10, 10), (20, 20), (0, 0), (0, 1), (0, 2), (10, 11)],
        )
        moved = ref_apply_row(relocate_row(4, Point(25, 25)), initial)
        for engine in ("dense", "sparse"):
            delta = StackedDeltaEngine(problem, engine=engine)
            delta.reset_chain(0, initial)
            start = measure_placement(delta, 0, initial)
            assert start.giant_size == 3
            assert start.covered_clients == 1  # client (0, 0) on the giant
            candidate = measure_placement(delta, 0, moved)
            reference = Evaluator(problem, engine="dense").evaluate(moved)
            assert candidate.metrics == reference.metrics
            assert np.array_equal(candidate.giant_mask, reference.giant_mask)
            assert np.array_equal(candidate.giant_mask, EXPECTED_GIANT)
            assert candidate.covered_clients == 1  # flips to client (10, 10)
