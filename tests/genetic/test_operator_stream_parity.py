"""Stream parity of the array-native GA operators with the ``Point`` originals.

Repair, the crossovers, the relocating mutations and the free-cell
sampler work on int ``(N, 2)`` cell arrays and flat-index bitmaps.  Each
must still return exactly the cells the cell-by-cell ``Point``
formulation returned *and* leave the generator in exactly the same
state, or every seeded experiment downstream changes.

This module keeps a frozen copy of that formulation as the reference
(``ref_*``; do not "modernise" it) and checks the operators against it
on generated grids: 1xK strips, a single router, near-full and full
grids (so the collision nudge rings and the 64-attempt enumeration
fallback of the free-cell sampler both run) and parents that share
cells.  ``Population.diversity`` is checked against its row-by-row
formulation the same way.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adhoc.base import resolve_collisions
from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea
from repro.core.solution import Placement
from repro.genetic.crossover import (
    OnePointCrossover,
    RegionExchangeCrossover,
    UniformCrossover,
)
from repro.genetic.mutation import (
    JiggleMutation,
    ResetMutation,
    TowardCentroidMutation,
)
from repro.genetic.population import Population

from tests.conftest import ref_random_free_cell

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# Frozen reference: the tuple-of-Point operators
# ----------------------------------------------------------------------


def ref_sample_distinct_cells(grid, count, rng, within=None, occupied=()):
    region = grid.bounds if within is None else within.intersection(grid.bounds)
    taken = set(occupied)
    available = region.area - sum(1 for cell in taken if region.contains(cell))
    if count > available:
        raise ValueError(
            f"cannot place {count} nodes in a region with only {available} free cells"
        )
    chosen = []
    for _ in range(count):
        cell = ref_random_free_cell(grid, taken, rng, within=region)
        chosen.append(cell)
        taken.add(cell)
    return chosen


def ref_nudge_to_free(grid, cell, taken, rng):
    start = grid.bounds.clamped(cell)
    if start not in taken:
        return start
    for radius in range(1, max(grid.width, grid.height) + 1):
        ring = []
        for dx in range(-radius, radius + 1):
            for dy in (-radius, radius):
                candidate = Point(start.x + dx, start.y + dy)
                if grid.contains(candidate) and candidate not in taken:
                    ring.append(candidate)
        for dy in range(-radius + 1, radius):
            for dx in (-radius, radius):
                candidate = Point(start.x + dx, start.y + dy)
                if grid.contains(candidate) and candidate not in taken:
                    ring.append(candidate)
        if ring:
            return ring[int(rng.integers(0, len(ring)))]
    raise ValueError("no free cell available on the grid")


def ref_resolve_collisions(grid, cells, rng, taken=()):
    occupied = set(taken)
    resolved = []
    for cell in cells:
        placed = ref_nudge_to_free(grid, cell, occupied, rng)
        occupied.add(placed)
        resolved.append(placed)
    return resolved


def ref_uniform(parent_a, parent_b, rng, mix_rate):
    take_b = rng.uniform(size=len(parent_a)) < mix_rate
    n = len(parent_a)
    child1 = [parent_b[i] if take_b[i] else parent_a[i] for i in range(n)]
    child2 = [parent_a[i] if take_b[i] else parent_b[i] for i in range(n)]
    grid = parent_a.grid
    return (
        ref_resolve_collisions(grid, child1, rng),
        ref_resolve_collisions(grid, child2, rng),
    )


def ref_one_point(parent_a, parent_b, rng):
    n = len(parent_a)
    cut = int(rng.integers(1, n)) if n > 1 else 0
    child1 = list(parent_a.cells[:cut]) + list(parent_b.cells[cut:])
    child2 = list(parent_b.cells[:cut]) + list(parent_a.cells[cut:])
    grid = parent_a.grid
    return (
        ref_resolve_collisions(grid, child1, rng),
        ref_resolve_collisions(grid, child2, rng),
    )


def ref_region_exchange(parent_a, parent_b, rng, min_fraction, max_fraction):
    grid = parent_a.grid
    width = max(1, int(rng.uniform(min_fraction, max_fraction) * grid.width))
    height = max(1, int(rng.uniform(min_fraction, max_fraction) * grid.height))
    x0 = int(rng.integers(0, grid.width - width + 1))
    y0 = int(rng.integers(0, grid.height - height + 1))
    region = Rect(x0, y0, width, height)
    n = len(parent_a)
    child1 = [
        parent_a[i] if region.contains(parent_a[i]) else parent_b[i] for i in range(n)
    ]
    child2 = [
        parent_b[i] if region.contains(parent_b[i]) else parent_a[i] for i in range(n)
    ]
    return (
        ref_resolve_collisions(grid, child1, rng),
        ref_resolve_collisions(grid, child2, rng),
    )


def ref_jiggle(placement, rng, radius, per_gene_rate):
    grid = placement.grid
    cells = list(placement.cells)
    occupied = set(cells)
    for router_id in range(len(cells)):
        if rng.uniform() >= per_gene_rate:
            continue
        current = cells[router_id]
        window = Rect(
            current.x - radius, current.y - radius, 2 * radius + 1, 2 * radius + 1
        )
        occupied.discard(current)
        try:
            target = ref_random_free_cell(grid, occupied, rng, within=window)
        except ValueError:
            target = current
        occupied.add(target)
        cells[router_id] = target
    return cells


def ref_reset(placement, rng, count):
    grid = placement.grid
    cells = list(placement.cells)
    occupied = set(cells)
    victims = rng.choice(len(cells), size=min(count, len(cells)), replace=False)
    for router_id in victims:
        router_id = int(router_id)
        occupied.discard(cells[router_id])
        target = ref_random_free_cell(grid, occupied, rng)
        occupied.add(target)
        cells[router_id] = target
    return cells


def ref_toward_centroid(placement, rng, max_step_fraction, jitter):
    grid = placement.grid
    centroid = np.array(placement.cells, dtype=float).mean(axis=0)
    router_id = int(rng.integers(0, len(placement)))
    current = placement[router_id]
    fraction = rng.uniform(0.0, max_step_fraction)
    target_x = current.x + fraction * (centroid[0] - current.x)
    target_y = current.y + fraction * (centroid[1] - current.y)
    if jitter:
        target_x += rng.integers(-jitter, jitter + 1)
        target_y += rng.integers(-jitter, jitter + 1)
    target = grid.bounds.clamped(Point(int(round(target_x)), int(round(target_y))))
    if target == current:
        return list(placement.cells)
    occupied = set(placement.cells)
    occupied.discard(current)
    if target in occupied:
        window = Rect(target.x - 2, target.y - 2, 5, 5)
        try:
            target = ref_random_free_cell(grid, occupied, rng, within=window)
        except ValueError:
            return list(placement.cells)
    cells = list(placement.cells)
    cells[router_id] = target
    return cells


def ref_diversity(placements):
    if len(placements) < 2:
        return 0.0
    stack = np.stack([p.positions_array() for p in placements])
    total = 0.0
    pairs = 0
    for i in range(len(placements)):
        deltas = stack[i + 1 :] - stack[i]
        if deltas.size:
            distances = np.sqrt((deltas**2).sum(axis=2))
            total += float(distances.mean(axis=1).sum())
            pairs += deltas.shape[0]
    return total / pairs if pairs else 0.0


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


class CountingRng:
    """Delegates to a generator and counts ``integers`` calls."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.integers_calls = 0

    def integers(self, *args, **kwargs):
        self.integers_calls += 1
        return self.rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def twin_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_stream(ours: np.random.Generator, reference: np.random.Generator):
    assert ours.bit_generator.state == reference.bit_generator.state


def as_points(cells: np.ndarray) -> list[Point]:
    """An operator's result array as the reference's ``Point`` list."""
    return [Point(x, y) for x, y in cells.tolist()]


def unmeasured_population(placements: list[Placement]) -> Population:
    """Members for :meth:`Population.diversity`, which reads only cells:
    the stack, with a zero fitness row standing in for measurement rows."""
    cells = np.stack([placement.cells_array() for placement in placements])
    return Population(cells, SimpleNamespace(fitness=np.zeros(len(cells))))


@st.composite
def grids(draw, max_side: int = 10) -> GridArea:
    shape = draw(st.sampled_from(["any", "strip", "column"]))
    if shape == "strip":
        return GridArea(draw(st.integers(1, 3 * max_side)), 1)
    if shape == "column":
        return GridArea(1, draw(st.integers(1, 3 * max_side)))
    return GridArea(draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))


@st.composite
def router_counts(draw, grid: GridArea) -> int:
    """Any count that fits, with a heavy share of near-full grids and N=1."""
    n_cells = grid.n_cells
    kind = draw(st.sampled_from(["one", "near-full", "full", "any"]))
    if kind == "one":
        return 1
    if kind == "near-full":
        return max(1, n_cells - draw(st.integers(1, 3)))
    if kind == "full":
        return n_cells
    return draw(st.integers(1, n_cells))


def random_placement(grid: GridArea, n: int, seed: int) -> Placement:
    flat = np.random.default_rng(seed).permutation(grid.n_cells)[:n]
    return Placement.from_cells(grid, np.stack([flat % grid.width, flat // grid.width], axis=1))


@st.composite
def parent_pairs(draw) -> tuple[Placement, Placement]:
    grid = draw(grids())
    n = draw(router_counts(grid))
    seed = draw(st.integers(0, 2**32 - 1))
    parent_a = random_placement(grid, n, seed)
    sharing = draw(st.sampled_from(["independent", "shuffled", "mixed"]))
    if sharing == "independent":
        return parent_a, random_placement(grid, n, seed + 1)
    rng = np.random.default_rng(seed + 2)
    cells = parent_a.cells_array()[rng.permutation(n)]
    if sharing == "mixed":
        # Keep some of parent A's genes verbatim, shuffle the rest.
        keep = rng.random(n) < 0.5
        cells = np.where(keep[:, None], parent_a.cells_array(), cells)
        if len(np.unique(cells[:, 1] * grid.width + cells[:, 0])) != n:
            cells = parent_a.cells_array()[rng.permutation(n)]
    return parent_a, Placement.from_cells(grid, cells)


@st.composite
def placements(draw) -> Placement:
    grid = draw(grids())
    return random_placement(grid, draw(router_counts(grid)), draw(st.integers(0, 2**32 - 1)))


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------


@st.composite
def repair_cases(draw):
    grid = draw(grids(max_side=8))
    # Coordinates a little outside the grid, so clamping runs too.
    coordinate = st.tuples(
        st.integers(-2, grid.width + 1), st.integers(-2, grid.height + 1)
    )
    pool = draw(st.lists(coordinate, min_size=1, max_size=6))
    # Draw from a small pool so repeats are common.
    cells = draw(
        st.lists(st.sampled_from(pool) | coordinate, max_size=min(grid.n_cells, 30))
    )
    taken = draw(
        st.lists(
            st.tuples(st.integers(0, grid.width - 1), st.integers(0, grid.height - 1)),
            max_size=3,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return grid, [Point(*c) for c in cells], [Point(*c) for c in taken], seed


@SETTINGS
@given(case=repair_cases())
def test_resolve_collisions_matches_reference(case):
    grid, cells, taken, seed = case
    try:
        expected = ref_resolve_collisions(grid, cells, np.random.default_rng(seed), taken)
    except ValueError as exc:
        for given_cells in (cells, np.array(cells, dtype=np.int64).reshape(-1, 2)):
            with pytest.raises(ValueError, match=str(exc)):
                resolve_collisions(grid, given_cells, np.random.default_rng(seed), taken)
        return
    reference_rng = np.random.default_rng(seed)
    ref_resolve_collisions(grid, cells, reference_rng, taken)

    ours_rng = np.random.default_rng(seed)
    assert resolve_collisions(grid, cells, ours_rng, taken) == expected
    assert_same_stream(ours_rng, reference_rng)

    ours_rng = np.random.default_rng(seed)
    array = np.array(cells, dtype=np.int64).reshape(-1, 2)
    resolved = resolve_collisions(grid, array, ours_rng, taken)
    assert [tuple(row) for row in resolved.tolist()] == [tuple(c) for c in expected]
    assert_same_stream(ours_rng, reference_rng)


def test_repair_nudges_a_pile_up_across_a_full_grid():
    grid = GridArea(3, 3)
    cells = [Point(1, 1)] * 9
    ours, reference = twin_rngs(7)
    assert resolve_collisions(grid, cells, ours) == ref_resolve_collisions(
        grid, cells, reference
    )
    assert_same_stream(ours, reference)


@st.composite
def sampling_cases(draw):
    grid = draw(grids(max_side=8))
    coordinate = st.tuples(
        st.integers(-2, grid.width + 1), st.integers(-2, grid.height + 1)
    )
    occupied = [Point(*c) for c in draw(st.lists(coordinate, max_size=grid.n_cells))]
    within = None
    if draw(st.booleans()):
        x0, y0 = draw(coordinate)
        within = Rect(x0, y0, draw(st.integers(0, grid.width)), draw(st.integers(0, grid.height)))
    count = draw(st.integers(0, grid.n_cells))
    return grid, count, within, occupied, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(case=sampling_cases())
def test_sample_distinct_cells_matches_reference(case):
    grid, count, within, occupied, seed = case
    ours, reference = twin_rngs(seed)
    try:
        expected = ref_sample_distinct_cells(grid, count, reference, within, occupied)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            grid.sample_distinct_cells(count, ours, within=within, occupied=occupied)
        return
    assert grid.sample_distinct_cells(count, ours, within=within, occupied=occupied) == expected
    assert_same_stream(ours, reference)


# ----------------------------------------------------------------------
# Crossovers
# ----------------------------------------------------------------------


@SETTINGS
@given(parents=parent_pairs(), seed=st.integers(0, 2**32 - 1), mix_rate=st.floats(0.0, 1.0))
def test_uniform_crossover_matches_reference(parents, seed, mix_rate):
    parent_a, parent_b = parents
    ours, reference = twin_rngs(seed)
    children = UniformCrossover(mix_rate).crossover(
        parent_a.grid, parent_a.cells_array(), parent_b.cells_array(), ours
    )
    expected = ref_uniform(parent_a, parent_b, reference, mix_rate)
    assert [as_points(child) for child in children] == list(expected)
    assert_same_stream(ours, reference)


@SETTINGS
@given(parents=parent_pairs(), seed=st.integers(0, 2**32 - 1))
def test_one_point_crossover_matches_reference(parents, seed):
    parent_a, parent_b = parents
    ours, reference = twin_rngs(seed)
    children = OnePointCrossover().crossover(
        parent_a.grid, parent_a.cells_array(), parent_b.cells_array(), ours
    )
    expected = ref_one_point(parent_a, parent_b, reference)
    assert [as_points(child) for child in children] == list(expected)
    assert_same_stream(ours, reference)


@SETTINGS
@given(
    parents=parent_pairs(),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)).map(sorted),
)
def test_region_exchange_crossover_matches_reference(parents, seed, fractions):
    parent_a, parent_b = parents
    low, high = fractions
    ours, reference = twin_rngs(seed)
    children = RegionExchangeCrossover(low, high).crossover(
        parent_a.grid, parent_a.cells_array(), parent_b.cells_array(), ours
    )
    expected = ref_region_exchange(parent_a, parent_b, reference, low, high)
    assert [as_points(child) for child in children] == list(expected)
    assert_same_stream(ours, reference)


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------


@SETTINGS
@given(
    placement=placements(),
    seed=st.integers(0, 2**32 - 1),
    radius=st.integers(1, 4),
    rate=st.floats(0.01, 1.0),
)
def test_jiggle_mutation_matches_reference(placement, seed, radius, rate):
    ours, reference = twin_rngs(seed)
    mutated = JiggleMutation(radius=radius, per_gene_rate=rate).mutate(
        placement.grid, placement.cells_array(), ours
    )
    assert as_points(mutated) == ref_jiggle(placement, reference, radius, rate)
    assert_same_stream(ours, reference)


@SETTINGS
@given(placement=placements(), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5))
def test_reset_mutation_matches_reference(placement, seed, count):
    ours, reference = twin_rngs(seed)
    mutated = ResetMutation(count=count).mutate(
        placement.grid, placement.cells_array(), ours
    )
    assert as_points(mutated) == ref_reset(placement, reference, count)
    assert_same_stream(ours, reference)


@SETTINGS
@given(
    placement=placements(),
    seed=st.integers(0, 2**32 - 1),
    step=st.floats(0.01, 1.0),
    jitter=st.integers(0, 3),
)
def test_toward_centroid_mutation_matches_reference(placement, seed, step, jitter):
    ours, reference = twin_rngs(seed)
    operator = TowardCentroidMutation(max_step_fraction=step, jitter=jitter)
    mutated = operator.mutate(placement.grid, placement.cells_array(), ours)
    assert as_points(mutated) == ref_toward_centroid(placement, reference, step, jitter)
    assert_same_stream(ours, reference)


@pytest.mark.parametrize(
    "operator",
    [ResetMutation(count=2), JiggleMutation(radius=1, per_gene_rate=1.0)],
    ids=["reset", "jiggle"],
)
def test_enumeration_fallback_runs_and_matches(operator):
    """On a full grid the sampler mostly exhausts its 64 attempts."""
    grid = GridArea(8, 8)
    placement = random_placement(grid, grid.n_cells, seed=3)
    exhausted = 0
    for seed in range(4):
        ours = CountingRng(np.random.default_rng(seed))
        reference = np.random.default_rng(seed)
        mutated = operator.mutate(grid, placement.cells_array(), ours)
        if isinstance(operator, ResetMutation):
            expected = ref_reset(placement, reference, operator.count)
        else:
            expected = ref_jiggle(placement, reference, operator.radius, 1.0)
        assert as_points(mutated) == expected
        assert_same_stream(ours.rng, reference)
        # One (x, y) pair per attempt, plus the pick among the free cells.
        exhausted += ours.integers_calls > 2 * 64
    assert exhausted


# ----------------------------------------------------------------------
# Diversity
# ----------------------------------------------------------------------


@SETTINGS
@given(
    grid=grids(max_side=40),
    size=st.integers(1, 12),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_diversity_matches_row_by_row_reference(grid, size, n, seed):
    n = min(n, grid.n_cells)
    members = [random_placement(grid, n, seed + k) for k in range(size)]
    assert unmeasured_population(members).diversity() == ref_diversity(members)


def test_diversity_on_a_grid_too_wide_for_int32_squares():
    grid = GridArea(65536, 65536)
    rng = np.random.default_rng(5)
    members = [
        Placement.from_cells(grid, rng.choice(65536, size=(8, 2), replace=False))
        for _ in range(5)
    ]
    assert unmeasured_population(members).diversity() == ref_diversity(members)
