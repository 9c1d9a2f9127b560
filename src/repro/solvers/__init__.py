"""Unified solver layer: one contract for every optimization family.

:func:`make_solver` resolves a ``"family:variant"`` spec into a
:class:`Solver` whose :meth:`~Solver.solve` call looks the same whether
the method is a constructive ad hoc placement, a neighborhood search, a
metaheuristic or the GA::

    from repro.solvers import make_solver

    solver = make_solver("tabu:swap")
    result = solver.solve(problem, seed=7, budget=32)
    print(result.summary())

Dynamic scenarios (:mod:`repro.scenario`) build on the same contract:
``warm_start`` seeds a run from a previous placement.
"""

from repro.solvers.adapters import (
    AdHocSolver,
    AnnealingSolver,
    GeneticSolver,
    MultiStartSolver,
    NeighborhoodSolver,
    TabuSolver,
    WarmStartInitializer,
)
from repro.solvers.base import Solver, SolveResult, solver_streams
from repro.solvers.registry import (
    available_solvers,
    make_solver,
    register_solver_family,
    solver_families,
)

__all__ = [
    "AdHocSolver",
    "AnnealingSolver",
    "GeneticSolver",
    "MultiStartSolver",
    "NeighborhoodSolver",
    "Solver",
    "SolveResult",
    "TabuSolver",
    "WarmStartInitializer",
    "available_solvers",
    "make_solver",
    "register_solver_family",
    "solver_families",
    "solver_streams",
]
