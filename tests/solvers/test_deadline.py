"""Deadline semantics across every registered solver family.

The cooperative cancellation contract every ``Solver.solve`` honors:

* ``deadline=None`` and a never-firing deadline are **bit-identical**
  to each other — the checks consume no randomness.
* An already-expired deadline still returns a **fully evaluated
  incumbent** (``n_evaluations > 0``, finite fitness) with
  ``stopped_by`` set — mask-out-and-finish, never an exception or a
  half-built result.
* A deadline firing mid-run in :class:`MultiChainSearch` masks the
  still-active chains without touching converged siblings' results.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.anytime import CancelToken, Deadline, SimulatedClock, SteppingClock
from repro.neighborhood.movements import SwapMovement
from repro.neighborhood.multichain import MultiChainSearch, chain_generators
from repro.core.solution import Placement
from repro.solvers import make_solver, solver_families

#: One representative spec per registered family, with effort knobs
#: small enough that the whole matrix stays fast.
FAMILY_SPECS = {
    "adhoc": ("adhoc:random", {}),
    "search": ("search:swap", {"n_candidates": 4}),
    "annealing": ("annealing:swap", {"moves_per_phase": 4}),
    "tabu": ("tabu:swap", {"n_candidates": 4}),
    "multistart": ("multistart:swap", {"n_candidates": 4, "n_restarts": 2}),
    "ga": ("ga:random", {}),
}

BUDGETS = {
    "adhoc": None, "search": 4, "annealing": 4, "tabu": 4,
    "multistart": 4, "ga": 3,
}


def fingerprint(result):
    return (
        tuple(map(tuple, result.best.placement.positions_array())),
        result.best.fitness,
        result.n_evaluations,
        result.n_phases,
    )


def test_every_family_is_covered():
    assert set(FAMILY_SPECS) == set(solver_families())


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
class TestDeadlineContract:
    def _solve(self, family, problem, deadline):
        spec, kwargs = FAMILY_SPECS[family]
        solver = make_solver(spec, **kwargs)
        return solver.solve(
            problem, seed=13, budget=BUDGETS[family], deadline=deadline
        )

    def test_never_firing_deadline_is_bit_identical(self, family, tiny_problem):
        bare = self._solve(family, tiny_problem, None)
        guarded = self._solve(family, tiny_problem, Deadline.after(1e9))
        assert fingerprint(bare) == fingerprint(guarded)
        assert bare.stopped_by is None
        assert guarded.stopped_by is None

    def test_expired_deadline_returns_valid_incumbent(self, family, tiny_problem):
        clock = SimulatedClock()
        expired = Deadline.after(1.0, clock=clock)
        clock.advance(2.0)
        result = self._solve(family, tiny_problem, expired)
        assert result.n_evaluations > 0
        assert math.isfinite(result.best.fitness)
        assert len(result.best.placement) == tiny_problem.n_routers
        if family == "adhoc":
            # Constructive build: one atomic place-and-evaluate that
            # even an expired deadline must allow.
            assert result.stopped_by is None
        else:
            assert result.stopped_by == "deadline"
            assert result.n_phases == 0

    def test_cancelled_token_reports_cancelled(self, family, tiny_problem):
        token = CancelToken()
        token.cancel()
        result = self._solve(
            family, tiny_problem, Deadline.cancellable(token)
        )
        assert result.n_evaluations > 0
        if family != "adhoc":
            assert result.stopped_by == "cancelled"


@pytest.mark.parametrize("family", ["search", "annealing", "tabu"])
class TestBatchDeadline:
    def test_solve_batch_accepts_shared_deadline(self, family, tiny_problem):
        spec, kwargs = FAMILY_SPECS[family]
        solver = make_solver(spec, **kwargs)
        bare = solver.solve_batch(tiny_problem, seeds=[1, 2], budget=3)
        guarded = solver.solve_batch(
            tiny_problem, seeds=[1, 2], budget=3,
            deadline=Deadline.after(1e9),
        )
        assert [fingerprint(r) for r in bare] == [
            fingerprint(r) for r in guarded
        ]

    def test_expired_deadline_masks_every_chain(self, family, tiny_problem):
        spec, kwargs = FAMILY_SPECS[family]
        solver = make_solver(spec, **kwargs)
        clock = SimulatedClock()
        expired = Deadline.after(1.0, clock=clock)
        clock.advance(5.0)
        results = solver.solve_batch(
            tiny_problem, seeds=[1, 2, 3], budget=3, deadline=expired
        )
        assert len(results) == 3
        for result in results:
            assert result.stopped_by == "deadline"
            assert result.n_evaluations > 0

    def test_mid_run_deadline_masks_every_chain_at_one_phase(
        self, family, tiny_problem
    ):
        # The batch polls the shared deadline once per lockstep phase, so
        # it fires on the third poll for every seed alike: each result is
        # its seed's solve under a deadline of its own.
        spec, kwargs = FAMILY_SPECS[family]
        solver = make_solver(spec, **kwargs)

        def stepping():
            return Deadline.after(2.5, clock=SteppingClock(dt=1.0))

        seeds = [1, 2, 3]
        batch = solver.solve_batch(
            tiny_problem, seeds=seeds, budget=6, deadline=stepping()
        )
        for seed, result in zip(seeds, batch):
            alone = solver.solve(
                tiny_problem, seed=seed, budget=6, deadline=stepping()
            )
            assert result.stopped_by == alone.stopped_by == "deadline"
            assert result.n_phases == alone.n_phases == 2
            assert fingerprint(result) == fingerprint(alone)


class TestMultiChainMasking:
    def test_mid_run_firing_masks_active_chains_only(self, tiny_problem):
        """A deadline firing mid-lockstep masks exactly the still-active
        chains; their best-so-far incumbents and traces stay intact."""
        search = MultiChainSearch(
            SwapMovement(), n_candidates=4, max_phases=12
        )
        rngs = chain_generators(5, 3)
        initials = [
            Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
            for rng in rngs
        ]
        # The run polls the deadline once per lockstep phase and the
        # stepping clock ticks once per read: constructing the deadline
        # reads 0.0, so a 2.5s budget lets polls at 1.0 and 2.0 pass
        # and fires on the third poll — two full phases run.
        deadline = Deadline.after(2.5, clock=SteppingClock(dt=1.0))
        results = search.run(tiny_problem, initials, rngs, deadline=deadline)

        assert len(results) == 3
        for result in results:
            assert result.stopped_by == "deadline"
            assert result.n_phases <= 2
            assert math.isfinite(result.best.fitness)
            # The trace is a well-formed prefix: one record per executed
            # phase plus the initial evaluation, best matches its peak.
            fitnesses = [record.fitness for record in result.trace.records]
            assert len(fitnesses) == result.n_phases + 1
            assert result.best.fitness == max(fitnesses)

    def test_masked_run_matches_unbounded_prefix(self, tiny_problem):
        """The masked chains' incumbents equal the unbounded run's state
        at the same phase — truncation, not perturbation."""
        def portfolio(deadline):
            search = MultiChainSearch(
                SwapMovement(), n_candidates=4, max_phases=12
            )
            rngs = chain_generators(9, 2)
            initials = [
                Placement.random(
                    tiny_problem.grid, tiny_problem.n_routers, rng
                )
                for rng in rngs
            ]
            return search.run(
                tiny_problem, initials, rngs, deadline=deadline
            )

        full = portfolio(None)
        masked = portfolio(Deadline.after(2.5, clock=SteppingClock(dt=1.0)))
        for complete, truncated in zip(full, masked):
            n = truncated.n_phases
            full_curve = [r.fitness for r in complete.trace.records]
            cut_curve = [r.fitness for r in truncated.trace.records]
            assert cut_curve == full_curve[: n + 1]

    def test_converged_siblings_keep_their_results(self, tiny_problem):
        """Chains that converge before the deadline fires are untouched:
        ``stopped_by`` stays None and their traces are complete."""
        search = MultiChainSearch(
            SwapMovement(), n_candidates=4, max_phases=40, stall_phases=1
        )
        rngs = chain_generators(2, 3)
        initials = [
            Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
            for rng in rngs
        ]
        # Generous stepping budget: the stall rule retires chains at
        # their own pace well before the deadline fires.
        deadline = Deadline.after(1e6, clock=SteppingClock(dt=1.0))
        results = search.run(tiny_problem, initials, rngs, deadline=deadline)
        assert all(result.stopped_by is None for result in results)

        # And the whole run matches the no-deadline portfolio exactly.
        rngs = chain_generators(2, 3)
        initials = [
            Placement.random(tiny_problem.grid, tiny_problem.n_routers, rng)
            for rng in rngs
        ]
        bare = search.run(tiny_problem, initials, rngs)
        assert [fingerprint(r) for r in bare] == [
            fingerprint(r) for r in results
        ]
