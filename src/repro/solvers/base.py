"""The unified solver contract.

Before this layer existed the repository had three divergent run-entry
idioms: ad hoc constructors (``method.place(problem, rng)`` plus a
manual evaluation), the neighborhood family
(``search.run(evaluator, initial, rng)``) and the GA
(``ga.run(evaluator, initializer, rng)``).  Callers — the CLI, sweeps,
replication, benches — each re-implemented the glue, and nothing could
treat "an optimizer" as a value.

:class:`Solver` is the single contract every method family now speaks::

    result = solver.solve(problem, seed=7, budget=64, warm_start=None)

* ``seed`` — one integer (or entropy sequence) reproducing the whole
  run.  Adapters split it into independent *init* and *run* streams via
  ``SeedSequence.spawn``, so supplying ``warm_start`` skips the init
  stream without disturbing the search stream: a warm-started run whose
  start equals what the cold run would have drawn is **bit-identical**
  to the cold run (the warm-start parity tests assert this for
  best-neighbor search, simulated annealing and tabu search).
* ``budget`` — the family's effort knob in its native unit (search/SA/
  tabu phases, GA generations); ``None`` keeps the adapter's configured
  default.  Constructive methods have no budget and ignore it.
* ``warm_start`` — a placement to start from instead of the adapter's
  own initialization.  Dynamic scenarios seed it from the previous
  step's best placement (see :mod:`repro.scenario`).
* ``engine`` — the evaluation-engine choice (``auto``/``dense``/
  ``sparse``), threaded into every engine the family uses.

The returned :class:`SolveResult` is uniform across families: the best
evaluation, the family's trace and the evaluation count (the
machine-independent cost unit every experiment reports).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.evaluation import Evaluation
from repro.core.problem import ProblemInstance, check_start_placement
from repro.core.solution import Placement
from repro.seeding import root_sequence, spawn_children

if TYPE_CHECKING:
    from repro.anytime.deadline import Deadline
    from repro.core.fitness import FitnessFunction

__all__ = ["SolveResult", "Solver", "solver_streams"]


def _check_batch(seeds, warm_starts):
    """Normalize / validate the per-seed warm starts of a ``solve_batch`` call."""
    if not seeds:
        raise ValueError("solve_batch needs at least one seed")
    if warm_starts is None:
        return [None] * len(seeds)
    if len(warm_starts) != len(seeds):
        raise ValueError(
            f"{len(warm_starts)} warm starts for {len(seeds)} seeds"
        )
    return warm_starts


def solver_streams(
    seed: "int | tuple | np.random.SeedSequence",
) -> tuple[np.random.Generator, np.random.Generator]:
    """The two independent per-solve streams: ``(init, run)``.

    One parent ``SeedSequence`` spawns exactly two children: stream 0
    drives initialization (the initial placement / population draw),
    stream 1 drives the optimization itself.  Warm starts consume only
    stream 1, which is what makes warm-vs-cold parity exact.

    A passed ``SeedSequence`` is copied before spawning
    (:func:`repro.seeding.spawn_children`), so the two streams depend
    only on the seed's identity — re-solving with the same sequence
    object always replays the same streams.
    """
    init_child, run_child = spawn_children(root_sequence(seed), 2)
    return np.random.default_rng(init_child), np.random.default_rng(run_child)


@dataclass(frozen=True)
class SolveResult:
    """The uniform outcome of one :meth:`Solver.solve` call.

    ``n_phases`` counts the family's native effort unit actually spent
    (phases or generations; 0 for constructive methods).  ``trace`` is
    the family's own record type (``SearchTrace``, ``GATrace`` or
    ``None``) — uniform access to the best solution never requires it.

    ``stopped_by`` is ``None`` for a run that spent its whole budget
    and ``"deadline"``/``"cancelled"`` when a
    :class:`~repro.anytime.deadline.Deadline` stopped it early (the
    anytime contract: ``best`` is a fully evaluated incumbent either
    way).  ``elapsed_seconds`` is the run's wall-clock time, excluded
    from equality — bit-identical runs never share timings.
    """

    solver: str
    best: Evaluation
    n_evaluations: int
    n_phases: int
    warm_started: bool
    trace: object = field(default=None, compare=False, repr=False)
    stopped_by: str | None = None
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def giant_size(self) -> int:
        """Giant component size of the best solution found."""
        return self.best.giant_size

    @property
    def covered_clients(self) -> int:
        """Covered clients of the best solution found."""
        return self.best.covered_clients

    def summary(self) -> str:
        """One-line human-readable summary."""
        start = "warm" if self.warm_started else "cold"
        stopped = f", stopped by {self.stopped_by}" if self.stopped_by else ""
        return (
            f"[{self.solver}] {self.best.summary()} "
            f"({self.n_phases} phases, {self.n_evaluations} evaluations, "
            f"{start} start{stopped})"
        )


class Solver(abc.ABC):
    """One optimization method behind the uniform solve contract."""

    #: Whether ``warm_start`` changes this solver's behavior
    #: (constructive methods build from scratch regardless).
    supports_warm_start: bool = True

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """The registry spec of this solver (e.g. ``"search:swap"``)."""

    @abc.abstractmethod
    def solve(
        self,
        problem: ProblemInstance,
        *,
        seed: "int | tuple | np.random.SeedSequence" = 0,
        budget: "int | None" = None,
        warm_start: "Placement | None" = None,
        engine: str = "auto",
        fitness: "FitnessFunction | None" = None,
        deadline: "Deadline | None" = None,
    ) -> SolveResult:
        """Optimize ``problem``; see the module docstring for the contract.

        ``deadline`` is an optional
        :class:`~repro.anytime.deadline.Deadline` polled cooperatively
        at the family's phase boundaries; with ``deadline=None`` (or a
        deadline that never fires) results are bit-identical to a run
        without one.
        """

    def solve_batch(
        self,
        problem: ProblemInstance,
        seeds: "list[int | tuple | np.random.SeedSequence]",
        *,
        budget: "int | None" = None,
        warm_starts: "list[Placement | None] | None" = None,
        engine: str = "auto",
        fitness: "FitnessFunction | None" = None,
        deadline: "Deadline | None" = None,
    ) -> list[SolveResult]:
        """Solve one problem under many seeds; one result per seed, in order.

        The portfolio primitive behind the scenario fleet: seed ``i``
        runs with ``warm_starts[i]`` (the list defaults to all-``None``)
        under the shared ``budget``/``engine``/
        ``fitness``.  The base implementation is the literal serial loop
        over :meth:`solve`.  The local-search families (``search``,
        ``annealing``, ``tabu``) override it with one lockstep
        :class:`~repro.neighborhood.multichain.MultiChainSearch`
        portfolio whose per-seed results are **bit-identical** to this
        loop (asserted by ``tests/solvers/test_adapters.py``), so
        callers may treat the two as interchangeable.

        ``deadline`` is shared by the whole batch: each seed's solve
        polls the same deadline, so once it fires every remaining seed
        returns its evaluated start immediately.  The lockstep override
        polls it once per phase for all seeds and masks the chains still
        running when it fires.
        """
        warm_starts = _check_batch(seeds, warm_starts)
        return [
            self.solve(
                problem,
                seed=seed,
                budget=budget,
                warm_start=warm_start,
                engine=engine,
                fitness=fitness,
                deadline=deadline,
            )
            for seed, warm_start in zip(seeds, warm_starts)
        ]

    def check_warm_start(
        self, problem: ProblemInstance, warm_start: "Placement | None"
    ) -> None:
        """Validate a warm-start placement against the problem frame.

        See :func:`~repro.core.problem.check_start_placement`.
        """
        if warm_start is not None:
            check_start_placement(problem, warm_start)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
