"""Automatic engine selection.

Every evaluator accepts an ``engine`` argument: ``"dense"`` forces the
matrix-based paths of PR 1, ``"sparse"`` forces the spatial-grid path,
``"compiled"`` forces the C-kernel tier of
:mod:`repro.core.engine.compiled` (raising when no toolchain can build
it), and the default ``"auto"`` picks per problem instance — promoting
to the compiled tier whenever it is available and otherwise falling
back to the numpy heuristic below, with identical results either way.

:func:`select_engine` is the numpy-layout heuristic (it also decides
which *kernel form* the compiled tier runs), deliberately simple and
documented so runs stay explainable:

* below :data:`DENSE_CELL_BUDGET` matrix cells (``N^2 + M * N``) the
  dense tensors are small and their flat vectorized passes win — every
  paper-scale instance lands here;
* when one 3x3 bin ring tiles a large fraction of the deployment area,
  binning prunes nothing (the "radio covers the whole grid" regime), so
  dense also wins;
* otherwise the instance is city-scale and sparse: candidate pairs from
  neighbor bins beat materializing ``O(N^2 + M * N)`` matrices both in
  time and — decisively — in peak memory.

All engines produce bit-identical results, so dispatch is purely a
performance decision and never changes an experiment's outcome.
"""

from __future__ import annotations

from repro.core.problem import ProblemInstance

__all__ = [
    "ENGINE_AUTO",
    "ENGINE_DENSE",
    "ENGINE_SPARSE",
    "ENGINE_COMPILED",
    "ENGINE_TIERS",
    "DENSE_CELL_BUDGET",
    "select_engine",
    "resolve_engine",
]

ENGINE_AUTO = "auto"
ENGINE_DENSE = "dense"
ENGINE_SPARSE = "sparse"
ENGINE_COMPILED = "compiled"

#: Every valid ``engine`` argument, in documentation order.  The
#: ``resolve_engine`` error message lists them from here.
ENGINE_TIERS = (ENGINE_AUTO, ENGINE_DENSE, ENGINE_SPARSE, ENGINE_COMPILED)

#: Up to this many matrix cells (``N^2 + M * N``) the dense engines are
#: both fast and small; the paper frame (64 routers, 192 clients) is
#: ~16k cells, the largest paper-adjacent workloads a few million.
DENSE_CELL_BUDGET = 1 << 22

#: Binning must prune: if one 3x3 bin ring covers this fraction of the
#: deployment area or more, the sparse path degenerates to dense work
#: with extra indexing overhead.
_RING_AREA_FRACTION = 0.5


def select_engine(problem: ProblemInstance) -> str:
    """``"dense"`` or ``"sparse"``, by instance size and radio density."""
    n = problem.n_routers
    m = problem.n_clients
    if n * n + m * n <= DENSE_CELL_BUDGET:
        return ENGINE_DENSE
    from repro.core.engine.sparse import link_cell_size

    cell = link_cell_size(problem.fleet.radii, problem.link_rule)
    area = float(problem.grid.width) * float(problem.grid.height)
    if 9.0 * cell * cell >= _RING_AREA_FRACTION * area:
        return ENGINE_DENSE
    return ENGINE_SPARSE


def resolve_engine(problem: ProblemInstance, engine: str) -> str:
    """Validate an ``engine`` argument and resolve ``"auto"``.

    ``"auto"`` promotes to the compiled tier when its kernels are
    available (see :func:`repro.core.engine.compiled.is_available`) and
    falls back to :func:`select_engine` when they are not — a *failed
    kernel build* additionally raises a one-time ``RuntimeWarning``
    naming the build error (full text via
    :func:`repro.core.engine.compiled.build_error`), because the
    fallback is result-identical but not speed-identical;
    ``"compiled"`` demands the tier and raises a ``RuntimeError``
    explaining the failure when it cannot run.
    """
    if engine == ENGINE_AUTO:
        from repro.core.engine import compiled

        if compiled.is_available():
            return ENGINE_COMPILED
        return select_engine(problem)
    if engine not in ENGINE_TIERS:
        choices = ", ".join(repr(tier) for tier in ENGINE_TIERS)
        raise ValueError(f"engine must be one of {choices}, got {engine!r}")
    if engine == ENGINE_COMPILED:
        from repro.core.engine import compiled

        compiled.require()
    return engine
