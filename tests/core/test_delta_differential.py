"""Differential property test: the delta engine against the dense reference.

Hypothesis generates small instances (grids up to 12x12, any router
count that fits, clients that may share cells, radii from half a cell
to past the grid diagonal, every link and coverage rule) and random
relocate/swap sequences, each candidate optionally committed.  Every
one-candidate ``measure_phase`` evaluation of
:class:`StackedDeltaEngine` — the incumbent right after ``reset_chain``
and every candidate — must equal a fresh ``Evaluator(problem,
engine="dense").evaluate`` of the same placement, on the dense layout,
the forced sparse layout and (when the kernels are built) the compiled
tier.  A commit applies the update rule, and the chain must then
measure like a fresh ``reset_chain`` of the committed placement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clients import ClientSet
from repro.core.engine import compiled
from repro.core.engine.stacked import PhaseCandidates, StackedDeltaEngine
from repro.core.evaluation import Evaluator
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule
from repro.core.routers import RouterFleet
from repro.core.solution import Placement
from tests.conftest import measure_placement, ref_apply_row, relocate_row, swap_row

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
    """The script entry as a move row (``None`` when it cannot exist)."""
    n = problem.n_routers
    if kind == "relocate":
        width = problem.grid.width
        target = Point(b % width, (b // width) % problem.grid.height)
        return relocate_row(a % n, target)
    if n < 2:
        return None
    first, second = a % n, b % n
    if first == second:
        second = (second + 1) % n
    return swap_row(first, second)


def assert_same_evaluation(ours, reference):
    assert ours.placement.cells == reference.placement.cells
    assert ours.metrics == reference.metrics
    assert ours.fitness == reference.fitness
    assert np.array_equal(ours.giant_mask, reference.giant_mask)


def assert_same_rows(ours, reference):
    for name in (
        "giant_sizes",
        "covered_clients",
        "n_components",
        "n_links",
        "mean_degrees",
        "giant_masks",
        "fitness",
    ):
        assert np.array_equal(getattr(ours, name), getattr(reference, name)), name


def probe_candidates(problem, placement):
    """A no-op, every router relocated to a free cell, and one swap."""
    occupied = placement.occupied
    free = [
        (x, y)
        for y in range(problem.grid.height)
        for x in range(problem.grid.width)
        if Point(x, y) not in occupied
    ]
    n = problem.n_routers
    pair_candidate, pair_router, pair_xy = [], [], []
    if free:
        pair_candidate = list(range(1, n + 1))
        pair_router = list(range(n))
        pair_xy = [free[router % len(free)] for router in range(n)]
    count = len(pair_candidate) + 1
    if n > 1:
        pair_candidate += [count, count]
        pair_router += [0, n - 1]
        pair_xy += [tuple(placement[n - 1]), tuple(placement[0])]
        count += 1
    return PhaseCandidates(
        [0] * count, pair_candidate, pair_router, np.reshape(pair_xy, (-1, 2))
    )


def assert_matches_fresh_reset(delta, engine, problem, placement):
    """The chain measures exactly like a fresh cache of ``placement``."""
    fresh = StackedDeltaEngine(problem, engine=engine)
    fresh.reset_chain(0, placement)
    probe = probe_candidates(problem, placement)
    assert_same_rows(delta.measure_phase(probe), fresh.measure_phase(probe))
    assert_same_evaluation(
        measure_placement(delta, 0, placement),
        measure_placement(fresh, 0, placement),
    )


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
    delta = StackedDeltaEngine(problem, engine=engine)
    assert delta.engine == engine
    if engine == "sparse":
        assert delta.layout == "sparse"

    delta.reset_chain(0, initial)
    incumbent = measure_placement(delta, 0, initial)
    assert_same_evaluation(incumbent, reference.evaluate(initial))
    for kind, a, b, commit in script:
        move = make_move(problem, kind, a, b)
        if move is None:
            continue
        placement = ref_apply_row(move, incumbent.placement)
        if placement is None:
            # Target cell occupied: the move does not apply, as in the
            # search loops.
            continue
        candidate = measure_placement(delta, 0, placement)
        assert_same_evaluation(candidate, reference.evaluate(placement))
        if commit:
            delta.commit_chain(0, placement)
            incumbent = candidate
    assert_matches_fresh_reset(delta, engine, problem, incumbent.placement)


@pytest.mark.parametrize("engine", ENGINES)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
def test_commit_by_rule_equals_fresh_reset(engine, case):
    """Committing a measured candidate, the last one measured or an
    earlier one, applies the update rule; the chain must then equal a
    fresh ``reset_chain``."""
    problem, initial, script = case
    delta = StackedDeltaEngine(problem, engine=engine)
    delta.reset_chain(0, initial)
    incumbent = initial
    measured = []
    for kind, a, b, commit in script:
        move = make_move(problem, kind, a, b)
        if move is None:
            continue
        placement = ref_apply_row(move, incumbent)
        if placement is None:
            continue
        measure_placement(delta, 0, placement)
        measured.append(placement)
        if commit:
            # The first candidate measured since the last commit: the
            # last one only when it is the only one.
            incumbent = measured[0]
            delta.commit_chain(0, incumbent)
            measured = []
            assert_matches_fresh_reset(delta, engine, problem, incumbent)
