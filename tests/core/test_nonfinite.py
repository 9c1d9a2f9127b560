"""Non-finite input gates: NaN/inf must fail loudly, never flow through.

NaN compares false with everything, so a non-finite radius or client
position would silently pass every range check and come back as garbage
fitness from whichever engine tier evaluates it.  Two gates reject such
inputs with a clear ``ValueError``:

* :class:`ProblemInstance` construction — the choke point every
  instance passes through, naming the offending ids.
* :class:`~repro.core.engine.stacked.StackedEngine` construction — the
  one tier dispatch every :class:`Evaluator`, every lockstep search
  driver and every :class:`StackedDeltaEngine` builds, re-checked per
  engine tier, which also catches arrays mutated *after* instance
  validation (the frozen dataclasses hold numpy arrays;
  ``object.__setattr__`` can swap them).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.engine import StackedDeltaEngine, StackedEngine
from repro.core.evaluation import Evaluator
from repro.core.problem import ProblemInstance
from repro.core.solution import Placement
from repro.instances.catalog import city_spec, paper_normal
from repro.neighborhood.movements import SwapMovement
from repro.neighborhood.multichain import MultiChainSearch
from repro.solvers import make_solver

from tests.conftest import RUN_TIERS, needs_compiled, run_tier

ENGINE_TIERS = [
    "dense",
    "sparse",
    pytest.param("compiled", marks=needs_compiled),
]


def with_nan_radius(problem, router_id=2):
    """The problem with one radius swapped to NaN, bypassing the
    construction gate (mutation after validation)."""
    bad = problem.fleet.radii.copy()
    bad[router_id] = np.nan
    object.__setattr__(problem.fleet, "_radii", bad)
    return problem


def with_inf_position(problem, client_id=1):
    bad = problem.clients.positions.copy()
    bad[client_id, 0] = np.inf
    object.__setattr__(problem.clients, "_positions", bad)
    return problem


class TestProblemGate:
    def test_nan_radius_rejected_with_router_id(self, tiny_problem):
        fleet = with_nan_radius(tiny_problem, router_id=3).fleet
        with pytest.raises(ValueError, match=r"radii must be finite.*\[3\]"):
            dataclasses.replace(tiny_problem, fleet=fleet)

    def test_inf_radius_rejected(self, tiny_problem):
        bad = tiny_problem.fleet.radii.copy()
        bad[0] = np.inf
        object.__setattr__(tiny_problem.fleet, "_radii", bad)
        with pytest.raises(ValueError, match="radii must be finite"):
            dataclasses.replace(tiny_problem, fleet=tiny_problem.fleet)

    def test_nan_client_position_rejected_with_client_id(self, tiny_problem):
        bad = tiny_problem.clients.positions.copy()
        bad[5] = np.nan
        object.__setattr__(tiny_problem.clients, "_positions", bad)
        with pytest.raises(
            ValueError, match=r"positions must be finite.*\[5\]"
        ):
            dataclasses.replace(tiny_problem, clients=tiny_problem.clients)

    def test_finite_instance_constructs(self, tiny_problem):
        rebuilt = dataclasses.replace(tiny_problem)
        assert rebuilt.n_routers == tiny_problem.n_routers


class TestEvaluatorGate:
    """The per-tier re-check: post-validation mutations are caught
    before any engine sees them."""

    @pytest.mark.parametrize("engine", ENGINE_TIERS)
    def test_nan_radius_rejected_per_tier(self, tiny_problem, engine):
        problem = with_nan_radius(tiny_problem)
        with pytest.raises(ValueError, match="radii must be finite"):
            Evaluator(problem, engine=engine)

    @pytest.mark.parametrize("engine", ENGINE_TIERS)
    def test_inf_position_rejected_per_tier(self, tiny_problem, engine):
        problem = with_inf_position(tiny_problem)
        with pytest.raises(ValueError, match="positions must be finite"):
            Evaluator(problem, engine=engine)

    @pytest.mark.parametrize("engine", ENGINE_TIERS)
    def test_finite_instance_evaluates_per_tier(self, tiny_problem, engine):
        evaluator = Evaluator(tiny_problem, engine=engine)
        from repro.core.solution import Placement

        rng = np.random.default_rng(1)
        placement = Placement.random(
            tiny_problem.grid, tiny_problem.n_routers, rng
        )
        assert np.isfinite(evaluator.evaluate(placement).fitness)


class TestDeltaEngineGate:
    """A directly built delta engine takes its gate and its tier from
    the ``StackedEngine`` it builds."""

    @pytest.mark.parametrize("engine", ENGINE_TIERS)
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (with_nan_radius, "radii must be finite"),
            (with_inf_position, "positions must be finite"),
        ],
    )
    def test_rejects_per_tier(self, tiny_problem, engine, mutate, message):
        problem = mutate(tiny_problem)
        with pytest.raises(ValueError, match=message):
            StackedDeltaEngine(problem, engine=engine)

    @pytest.mark.parametrize(
        "spec, layout",
        [(paper_normal(), "dense"), (city_spec(1024, 4_000, seed=3), "sparse")],
        ids=["paper-frame", "city"],
    )
    def test_auto_resolves_like_stacked_engine(self, spec, layout):
        problem = spec.generate()
        delta = StackedDeltaEngine(problem, engine="auto")
        stacked = StackedEngine(problem)
        assert delta.layout == stacked.layout == layout
        assert delta.engine == stacked.engine


class TestSearchGate:
    """The lockstep searches build their own engine, never an
    ``Evaluator``, so the gate must sit in the engine they build."""

    @pytest.mark.parametrize("tier", RUN_TIERS)
    @pytest.mark.parametrize(
        "spec", ["search:swap", "multistart:swap", "annealing:swap", "tabu:swap"]
    )
    def test_nan_radius_rejected_by_solver(self, tiny_problem, spec, tier):
        problem = with_nan_radius(tiny_problem)
        with run_tier(tier), pytest.raises(
            ValueError, match="radii must be finite"
        ):
            make_solver(spec).solve(problem, seed=1, budget=2)

    @pytest.mark.parametrize("engine", ENGINE_TIERS)
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (with_nan_radius, "radii must be finite"),
            (with_inf_position, "positions must be finite"),
        ],
    )
    def test_multichain_run_rejects(self, tiny_problem, engine, mutate, message):
        rngs = [np.random.default_rng(seed) for seed in (1, 2)]
        starts = [
            Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
            for rng in rngs
        ]
        problem = mutate(tiny_problem)
        search = MultiChainSearch(
            SwapMovement(), n_candidates=4, max_phases=2, engine=engine
        )
        with pytest.raises(ValueError, match=message):
            search.run(problem, starts, rngs)
