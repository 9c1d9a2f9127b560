"""Differential property test: the delta engine against the dense reference.

Hypothesis generates small instances (grids up to 12x12, any router
count that fits, clients that may share cells, radii from half a cell
to past the grid diagonal, every link and coverage rule) and random
relocate/swap sequences, each proposal optionally committed.  Every
``reset`` and ``propose`` evaluation of :class:`DeltaEvaluator` must
equal a fresh ``Evaluator(problem, engine="dense").evaluate`` of the
same placement, on the dense layout, the forced sparse layout and (when
the kernels are built) the compiled tier.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clients import ClientSet
from repro.core.engine import compiled
from repro.core.engine.delta import DeltaEvaluator
from repro.core.evaluation import Evaluator
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from repro.neighborhood.moves import RelocateMove, SwapMove

ENGINES = [
    "dense",
    "sparse",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not compiled.is_available(),
            reason="compiled kernels not available (no C toolchain?)",
        ),
    ),
]

#: Past the diagonal of the largest grid (12 * sqrt(2) ~ 17).
MAX_RADIUS = 20.0


@st.composite
def cases(draw):
    """``(problem, initial placement, move script)`` for one example."""
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, 12))
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    n_routers = draw(st.integers(1, min(width * height, 24)))
    router_cells = draw(
        st.lists(cell, min_size=n_routers, max_size=n_routers, unique=True)
    )
    client_cells = draw(st.lists(cell, max_size=30))
    if client_cells:
        # Coincident clients: repeat some drawn cells verbatim.
        repeats = draw(st.lists(st.sampled_from(client_cells), max_size=4))
        client_cells = client_cells + repeats
    radii = draw(
        st.lists(
            st.floats(0.5, MAX_RADIUS, allow_nan=False, allow_infinity=False),
            min_size=n_routers,
            max_size=n_routers,
        )
    )
    grid = GridArea(width, height)
    problem = ProblemInstance(
        grid=grid,
        fleet=RouterFleet.from_radii(radii),
        clients=ClientSet.from_points(
            [Point(x, y) for x, y in client_cells], grid=grid
        ),
        link_rule=draw(st.sampled_from(list(LinkRule))),
        coverage_rule=draw(st.sampled_from(list(CoverageRule))),
    )
    initial = Placement.from_cells(grid, router_cells)
    script = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["relocate", "swap"]),
                st.integers(0, 10_000),
                st.integers(0, 10_000),
                st.booleans(),
            ),
            max_size=12,
        )
    )
    return problem, initial, script


def make_move(problem, kind, a, b):
    """The script entry as a move (``None`` when it cannot exist)."""
    n = problem.n_routers
    if kind == "relocate":
        width = problem.grid.width
        target = Point(b % width, (b // width) % problem.grid.height)
        return RelocateMove(a % n, target)
    if n < 2:
        return None
    first, second = a % n, b % n
    if first == second:
        second = (second + 1) % n
    return SwapMove(first, second)


def assert_same_evaluation(ours, reference):
    assert ours.placement.cells == reference.placement.cells
    assert ours.metrics == reference.metrics
    assert ours.fitness == reference.fitness
    assert np.array_equal(ours.giant_mask, reference.giant_mask)


@pytest.mark.parametrize("engine", ENGINES)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
def test_delta_matches_dense_reference(engine, case):
    problem, initial, script = case
    reference = Evaluator(problem, engine="dense")
    evaluator = Evaluator(problem, engine="dense")
    delta = DeltaEvaluator(evaluator, engine=engine)
    assert delta.engine == engine
    if engine == "sparse":
        assert delta.layout == "sparse"

    incumbent = delta.reset(initial)
    assert_same_evaluation(incumbent, reference.evaluate(initial))
    n_proposes = 0
    for kind, a, b, commit in script:
        move = make_move(problem, kind, a, b)
        if move is None:
            continue
        try:
            candidate = delta.propose(move)
        except ValueError:  # repro-lint: disable=RL007
            # Target cell occupied: the move does not apply, as in the
            # search loops, and nothing was counted.
            continue
        n_proposes += 1
        assert_same_evaluation(
            candidate, reference.evaluate(move.apply(incumbent.placement))
        )
        if commit:
            delta.commit(candidate)
            incumbent = candidate
        assert delta.incumbent is incumbent
    assert evaluator.n_evaluations == 1 + n_proposes
