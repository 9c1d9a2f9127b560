"""Counted placement evaluation.

Everything an optimizer needs to know about a candidate placement in one
call: the size of the router network's giant component, the clients it
covers under the instance's coverage rule, and the scalar fitness of
the configured fitness function.

The returned :class:`Evaluation` is an immutable snapshot; search
algorithms compare evaluations, never recompute pieces by hand.  The
:class:`Evaluator` also counts how many evaluations it has performed —
experiments report search cost in evaluations, which is
machine-independent.

:class:`Evaluator` is the counting adapter over the engine's one
measurement front door,
:class:`~repro.core.engine.stacked.StackedEngine`: ``evaluate_many``
measures a candidate set there and materializes the rows, and
``evaluate`` does the same for one placement.  On the ``"dense"`` tier
``evaluate`` instead runs the reference path (``RouterNetwork.build``
plus ``coverage_mask``), the ground truth every other path is tested
against.  The local searches measure through the engine's incremental
cache, :class:`~repro.core.engine.stacked.StackedDeltaEngine`, inside
their one lockstep driver — a chain start once, as its cache is built,
then every candidate against that cache.  A
:class:`~repro.neighborhood.multichain.MultiChainSearch` portfolio
(best improvement, tabu or annealing) reports each chain's
``n_evaluations``, and its callers charge them through
:meth:`Evaluator.count` (:class:`~repro.neighborhood.search.NeighborhoodSearch`
charges the evaluator it runs on), as does the GA's population, which
measures a generation's new children as one cell stack through
:attr:`Evaluator.stacked`.  All paths share this evaluator's counter and
produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.coverage import coverage_mask
from repro.core.fitness import FitnessFunction, NetworkMetrics, WeightedSumFitness
from repro.core.network import RouterNetwork
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule
from repro.core.solution import Placement

__all__ = ["Evaluation", "Evaluator"]


@dataclass(frozen=True, eq=False)
class Evaluation:
    """The full measurement of one placement.

    Carries the placement itself, its metric bundle, the scalar fitness
    and the giant-component mask (several movements and reports need to
    know *which* routers form the giant component, not just how many).
    Evaluations are snapshots and compare by identity (the mask is a
    numpy array, so field-wise equality would be ill-defined).
    """

    placement: Placement
    metrics: NetworkMetrics
    fitness: float
    giant_mask: np.ndarray

    @property
    def giant_size(self) -> int:
        """Size of the giant component."""
        return self.metrics.giant_size

    @property
    def covered_clients(self) -> int:
        """Number of covered clients."""
        return self.metrics.covered_clients

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"giant={self.metrics.giant_size}/{self.metrics.n_routers} "
            f"coverage={self.metrics.covered_clients}/{self.metrics.n_clients} "
            f"fitness={self.fitness:.4f}"
        )


class Evaluator:
    """Evaluates placements for one problem instance.

    Parameters
    ----------
    problem:
        The instance to evaluate against.
    fitness:
        The scalarization; defaults to the paper-aligned
        :class:`WeightedSumFitness` (0.7 connectivity / 0.3 coverage).
    engine:
        The tier, resolved once by the wrapped
        :class:`~repro.core.engine.stacked.StackedEngine`: ``"auto"``
        (default) promotes to ``"compiled"`` when the kernels build and
        otherwise picks ``"dense"`` at paper scale and ``"sparse"`` for
        city-scale instances (see :mod:`repro.core.engine.dispatch`);
        ``"dense"``/``"sparse"``/``"compiled"`` force one.  All tiers are
        bit-identical, so this is purely a performance knob.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        fitness: FitnessFunction | None = None,
        engine: str = "auto",
    ) -> None:
        # Deferred: the engine package's modules import this one.
        from repro.core.engine.stacked import StackedEngine

        self._problem = problem
        self._fitness = fitness if fitness is not None else WeightedSumFitness()
        self._n_evaluations = 0
        self._stacked = StackedEngine(problem, self._fitness, engine=engine)

    @property
    def engine(self) -> str:
        """The resolved path: ``"dense"``, ``"sparse"`` or ``"compiled"``."""
        return self._stacked.engine

    @property
    def stacked(self):
        """The :class:`~repro.core.engine.stacked.StackedEngine` this
        evaluator measures through.

        For callers that measure a candidate stack and keep its metric
        rows (the GA's population); they report through :meth:`count`.
        """
        return self._stacked

    @property
    def problem(self) -> ProblemInstance:
        """The instance this evaluator measures against."""
        return self._problem

    @property
    def fitness_function(self) -> FitnessFunction:
        """The configured scalarization."""
        return self._fitness

    @property
    def n_evaluations(self) -> int:
        """Number of placements evaluated so far (search cost counter)."""
        return self._n_evaluations

    def reset_counter(self) -> None:
        """Zero the evaluation counter (e.g. between experiment runs)."""
        self._n_evaluations = 0

    def count(self, n: int = 1) -> None:
        """Charge ``n`` evaluations performed on this evaluator's behalf.

        Engine hook: the delta paths and the lockstep search driver
        measure placements outside this class but keep the
        evaluation-count semantics, so they report here.
        """
        self._n_evaluations += n

    def evaluate(self, placement: Placement) -> Evaluation:
        """Measure a placement: network, giant component, coverage, fitness.

        A batch of one through :meth:`evaluate_many`, except on the
        ``"dense"`` tier, which runs the reference path.
        """
        if self.engine != "dense":
            return self.evaluate_many([placement])[0]
        network = RouterNetwork.build(self._problem, placement)
        giant_mask = network.giant_mask()
        if self._problem.coverage_rule is CoverageRule.ANY_ROUTER:
            covered = coverage_mask(self._problem, placement, router_mask=None)
        else:
            covered = coverage_mask(self._problem, placement, router_mask=giant_mask)
        metrics = NetworkMetrics(
            giant_size=network.giant_size,
            n_routers=self._problem.n_routers,
            covered_clients=int(np.count_nonzero(covered)),
            n_clients=self._problem.n_clients,
            n_components=network.components.n_components,
            n_links=network.n_links,
            mean_degree=network.mean_degree(),
        )
        evaluation = Evaluation(
            placement=placement,
            metrics=metrics,
            fitness=self._fitness.score(metrics),
            giant_mask=giant_mask,
        )
        self.count()
        return evaluation

    def evaluate_many(self, placements: Sequence[Placement]) -> list[Evaluation]:
        """Measure a whole candidate set through the dispatched engine.

        Bit-identical to calling :meth:`evaluate` in a loop (the parity
        tests assert it) and counted the same — one evaluation per
        placement.  The set is one
        :meth:`~repro.core.engine.stacked.StackedEngine.measure_placements`
        call, whose rows are then materialized in order.
        """
        measurement = self._stacked.measure_placements(placements)
        self.count(len(placements))
        return [
            measurement.evaluation(index, placement)
            for index, placement in enumerate(placements)
        ]
