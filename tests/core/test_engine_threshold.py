"""Compiled-vs-numpy phase parity at the exact dispatch threshold.

``select_engine`` names the dense layout up to ``DENSE_CELL_BUDGET``
matrix cells (``N^2 + M * N``) and the sparse one above it.  These are
real, unpatched instances: one exactly on the budget, the largest
instance the compiled dense phase kernel will ever measure, and one a
single cell over it.  On each, the compiled tier's ``reset_chain`` and
``measure_phase`` (across a commit) must equal the numpy tier of the
same layout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import compiled
from repro.core.engine.dispatch import DENSE_CELL_BUDGET, select_engine
from repro.core.engine.stacked import StackedDeltaEngine
from repro.core.solution import Placement
from repro.instances.catalog import city_spec
from tests.conftest import phase_of
from tests.core.test_engine_phase_kernel import assert_rows_equal

pytestmark = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)

#: ``(routers, clients, layout)``: 1024 * (1024 + 3072) is the budget,
#: 397 * (397 + 10168) the budget plus one.
THRESHOLD_CASES = [(1024, 3072, "dense"), (397, 10168, "sparse")]


def moves(placement, rng, count):
    """Relocations to free cells and swaps of two routers."""
    grid = placement.grid
    cells = placement.cells_array()
    n = len(cells)
    taken = set(map(tuple, cells.tolist()))
    result = []
    while len(result) < count:
        a, b = (int(r) for r in rng.choice(n, size=2, replace=False))
        if len(result) % 2:
            result.append(((a, b), (tuple(cells[b]), tuple(cells[a]))))
            continue
        cell = (int(rng.integers(grid.width)), int(rng.integers(grid.height)))
        if cell not in taken:
            result.append(((a,), (cell,)))
    return result


@pytest.mark.parametrize(
    "n_routers,n_clients,layout",
    THRESHOLD_CASES,
    ids=[layout for _, _, layout in THRESHOLD_CASES],
)
def test_compiled_phase_matches_numpy_at_the_threshold(
    n_routers, n_clients, layout
):
    problem = city_spec(n_routers, n_clients).generate()
    cells = n_routers * n_routers + n_clients * n_routers
    assert cells - DENSE_CELL_BUDGET == (0 if layout == "dense" else 1)
    assert select_engine(problem) == layout
    kernel = StackedDeltaEngine(problem, engine="compiled")
    reference = StackedDeltaEngine(problem, engine=layout)
    assert kernel.layout == layout
    rng = np.random.default_rng(n_routers)
    incumbents = [
        Placement.random(problem.grid, n_routers, rng) for _ in range(2)
    ]
    for chain, incumbent in enumerate(incumbents):
        start = kernel.reset_chain(chain, incumbent)
        expected = reference.reset_chain(chain, incumbent)
        assert start.metrics == expected.metrics
        assert start.fitness == expected.fitness
        assert np.array_equal(start.giant_mask, expected.giant_mask)
    for _ in range(2):
        phase, placements = phase_of(
            [
                (chain, incumbents[chain], movers, new_cells)
                for chain in range(2)
                for movers, new_cells in moves(incumbents[chain], rng, 4)
            ]
        )
        assert_rows_equal(kernel.measure_phase(phase), reference.measure_phase(phase))
        for chain in range(2):
            incumbents[chain] = placements[chain * 4 + int(rng.integers(4))]
            kernel.commit_chain(chain, incumbents[chain])
            reference.commit_chain(chain, incumbents[chain])
