"""The solver registry: one name space for every optimization family."""

from __future__ import annotations

import pytest

from repro.adhoc.registry import available_methods
from repro.neighborhood.registry import available_movements
from repro.solvers import (
    available_solvers,
    make_solver,
    register_solver_family,
    solver_families,
)
from repro.solvers.adapters import (
    AdHocSolver,
    AnnealingSolver,
    GeneticSolver,
    MultiStartSolver,
    NeighborhoodSolver,
    TabuSolver,
)


class TestFamilies:
    def test_all_families_registered(self):
        assert set(solver_families()) == {
            "adhoc", "search", "annealing", "tabu", "multistart", "ga",
        }

    def test_every_spec_names_family_and_variant(self):
        for spec in available_solvers():
            family, _, variant = spec.partition(":")
            assert family in solver_families()
            assert variant

    def test_spec_count_covers_every_variant(self):
        n_methods = len(available_methods())
        n_movements = len(available_movements())
        # adhoc + ga enumerate methods; the four movement families
        # enumerate movements.
        assert len(available_solvers()) == 2 * n_methods + 4 * n_movements

    def test_duplicate_family_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver_family(
                "adhoc", lambda v: None, available_methods, "hotspot", "dup"
            )


class TestMakeSolver:
    @pytest.mark.parametrize(
        "spec, adapter",
        [
            ("adhoc:hotspot", AdHocSolver),
            ("search:swap", NeighborhoodSolver),
            ("annealing:random", AnnealingSolver),
            ("tabu:swap-literal", TabuSolver),
            ("multistart:combined", MultiStartSolver),
            ("ga:corners", GeneticSolver),
        ],
    )
    def test_resolves_spec(self, spec, adapter):
        solver = make_solver(spec)
        assert isinstance(solver, adapter)
        assert solver.name == spec

    @pytest.mark.parametrize(
        "family, expected",
        [
            ("adhoc", "adhoc:hotspot"),
            ("search", "search:swap"),
            ("annealing", "annealing:swap"),
            ("tabu", "tabu:swap"),
            ("multistart", "multistart:swap"),
            ("ga", "ga:hotspot"),
        ],
    )
    def test_bare_family_uses_default_variant(self, family, expected):
        assert make_solver(family).name == expected

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown solver family"):
            make_solver("quantum:swap")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown search variant"):
            make_solver("search:teleport")

    def test_kwargs_reach_adapter(self):
        solver = make_solver("search:swap", n_candidates=5, max_phases=9)
        assert solver.n_candidates == 5
        assert solver.max_phases == 9

    def test_every_listed_spec_instantiates(self):
        for spec in available_solvers():
            assert make_solver(spec).name == spec

    @pytest.mark.parametrize(
        "spec, kwargs, message",
        [
            ("search:swap", {"n_candidates": 0}, "n_candidates must be positive"),
            ("search:swap", {"stall_phases": 0}, "stall_phases must be positive"),
            (
                "annealing:swap",
                {"moves_per_phase": 0},
                "moves_per_phase must be positive",
            ),
            ("tabu:swap", {"tenure": -1}, "tenure must be non-negative"),
            ("multistart:swap", {"max_phases": 0}, "max_phases must be positive"),
        ],
    )
    def test_invalid_knobs_rejected_at_construction(self, spec, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make_solver(spec, **kwargs)
