"""Boundary tests for the engine-dispatch heuristic.

``select_engine`` draws two documented lines — the dense cell budget
and the bin-ring area fraction.  These tests pin both *exactly at* the
boundary (inclusive side) and one step past it, so a future edit cannot
silently flip an inequality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine.dispatch import (
    DENSE_CELL_BUDGET,
    ENGINE_TIERS,
    resolve_engine,
    select_engine,
)
from repro.core.engine.sparse import link_cell_size
from repro.core.problem import ProblemInstance
from repro.core.radio import LinkRule, RadioProfile
from repro.instances.catalog import tiny_spec

from tests.conftest import RUN_TIERS, run_tier


def make_problem(width, height, n_routers, n_clients, radius):
    rng = np.random.default_rng(0)
    cells = [(i % width, i // width) for i in range(n_clients)]
    return ProblemInstance.build(
        width, height, n_routers, cells, RadioProfile(radius, radius), rng
    )


class TestDenseCellBudget:
    def test_exactly_at_budget_is_dense(self):
        # 2048^2 + 0 * 2048 == 1 << 22: the budget is inclusive.
        problem = make_problem(64, 64, 2048, 0, radius=1.0)
        assert problem.n_routers**2 == DENSE_CELL_BUDGET
        assert select_engine(problem) == "dense"

    def test_one_client_past_budget_is_sparse(self):
        # 2048^2 + 1 * 2048 exceeds the budget; with unit radii the bin
        # ring is tiny, so the ring check cannot rescue dense.
        problem = make_problem(64, 64, 2048, 1, radius=1.0)
        cells = problem.n_routers**2 + problem.n_clients * problem.n_routers
        assert cells == DENSE_CELL_BUDGET + problem.n_routers
        assert select_engine(problem) == "sparse"


class TestRingAreaFraction:
    # Fixed radii make the bin width exact: BIDIRECTIONAL reach is the
    # (single) radius, so cell == radius for integer radii.
    RADIUS = 16.0

    def test_ring_covering_half_the_area_is_dense(self):
        # 9 * 16^2 == 0.5 * (64 * 72): equality stays dense (inclusive).
        problem = make_problem(64, 72, 2048, 1, radius=self.RADIUS)
        cell = link_cell_size(problem.fleet.radii, problem.link_rule)
        area = float(problem.grid.width) * float(problem.grid.height)
        assert 9.0 * cell * cell == 0.5 * area
        assert select_engine(problem) == "dense"

    def test_ring_just_under_half_the_area_is_sparse(self):
        # One extra grid row tips the fraction below one half.
        problem = make_problem(64, 73, 2048, 1, radius=self.RADIUS)
        cell = link_cell_size(problem.fleet.radii, problem.link_rule)
        area = float(problem.grid.width) * float(problem.grid.height)
        assert 9.0 * cell * cell < 0.5 * area
        assert select_engine(problem) == "sparse"

    def test_overlap_rule_doubles_the_reach(self):
        # Under OVERLAP the same radii double the bin width, pushing the
        # ring back over the half-area line: dispatch is rule-aware.
        problem = make_problem(64, 73, 2048, 1, radius=self.RADIUS)
        overlap = problem.with_link_rule(LinkRule.OVERLAP)
        assert select_engine(problem) == "sparse"
        assert select_engine(overlap) == "dense"


class TestZeroClients:
    def test_zero_client_instances_dispatch_and_evaluate(self):
        from repro.core.evaluation import Evaluator
        from repro.core.solution import Placement

        problem = make_problem(32, 32, 16, 0, radius=4.0)
        assert select_engine(problem) == "dense"
        rng = np.random.default_rng(1)
        placement = Placement.random(problem.grid, problem.n_routers, rng)
        for engine in ("dense", "sparse"):
            evaluation = Evaluator(problem, engine=engine).evaluate(placement)
            assert evaluation.covered_clients == 0
            assert evaluation.metrics.n_clients == 0


class TestResolveEngine:
    def test_forced_tiers_resolve_to_themselves(self):
        problem = tiny_spec(seed=1).generate()
        assert resolve_engine(problem, "dense") == "dense"
        assert resolve_engine(problem, "sparse") == "sparse"

    def test_auto_resolves_to_a_known_tier(self):
        problem = tiny_spec(seed=1).generate()
        resolved = resolve_engine(problem, "auto")
        assert resolved in ENGINE_TIERS and resolved != "auto"

    def test_auto_with_gate_disabled_matches_select(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        problem = tiny_spec(seed=1).generate()
        assert resolve_engine(problem, "auto") == select_engine(problem)

    def test_unknown_tier_message_derives_from_tuple(self):
        problem = tiny_spec(seed=1).generate()
        with pytest.raises(ValueError) as excinfo:
            resolve_engine(problem, "warp")
        message = str(excinfo.value)
        assert message == (
            "engine must be one of "
            + ", ".join(repr(tier) for tier in ENGINE_TIERS)
            + ", got 'warp'"
        )


@pytest.mark.parametrize("tier", RUN_TIERS)
def test_run_tier_resolves_auto_to_its_tier(tier):
    """The tests of solvers and harnesses (which have no engine option)
    reach each tier through ``run_tier``; it must land where it says."""
    problem = tiny_spec(seed=1).generate()
    with run_tier(tier):
        assert resolve_engine(problem, "auto") == tier
    assert select_engine(problem) == "dense"
