"""Incremental (delta) placement evaluation.

Single-move search loops (simulated annealing, tabu search) evaluate
neighbors that differ from the incumbent by one or two routers.  The
scalar evaluator rebuilds the full ``(N, N)`` adjacency and ``(M, N)``
coverage matrices for every such neighbor; :class:`DeltaEvaluator`
instead caches the incumbent's state and recomputes only what the move
touches.  Results are bit-identical to the scalar path (asserted by the
parity tests).

Two cache layouts, selected by the shared engine dispatch (see
:mod:`repro.core.engine.dispatch`; the ``"compiled"`` tier reuses the
layout heuristic and routes the per-move measurement through the C
kernels of :mod:`repro.core.engine.compiled`):

* **dense** (paper scale) — the incumbent's boolean adjacency and
  coverage *matrices*; a move rewrites the touched rows/columns.
* **sparse** (city scale) — the incumbent's link-edge arrays and
  (client, router) coverage-hit pairs, plus a spatial index over the
  incumbent's router positions; a move drops the moved routers' entries
  and re-queries only their new neighborhoods
  (:meth:`~repro.core.engine.sparse.SparseEngine.apply_moves`, the rule
  the lockstep chain caches commit with), so per-move cost and memory
  stay ``O(E + H)`` (edges + coverage hits) instead of
  ``O(N^2 + M * N)``.

Protocol::

    delta = DeltaEvaluator(evaluator)
    current = delta.reset(initial)        # full build, caches state
    candidate = delta.propose(move)       # incumbent ⊕ move, caches untouched
    delta.commit(candidate)               # make the candidate the incumbent

``propose`` is speculative — any number of candidates can be previewed
from the same incumbent (tabu search previews a whole sample) and the
caches only advance on ``commit``.  Evaluation counting is routed
through the wrapped scalar :class:`~repro.core.evaluation.Evaluator`, so
search-cost accounting is unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.coverage import coverage_matrix
from repro.core.engine.components import labels_from_edges
from repro.core.engine.dispatch import resolve_engine
from repro.core.evaluation import Evaluation, Evaluator
from repro.core.fitness import NetworkMetrics
from repro.core.network import adjacency_matrix
from repro.core.radio import CoverageRule
from repro.core.solution import Placement

if TYPE_CHECKING:  # core must not import neighborhood at runtime
    from repro.neighborhood.moves import Move

__all__ = ["DeltaEvaluator"]


class DeltaEvaluator:
    """Incremental evaluation around a cached incumbent placement."""

    def __init__(self, evaluator: Evaluator, engine: str = "auto") -> None:
        self._evaluator = evaluator
        self._problem = evaluator.problem
        self._fitness = evaluator.fitness_function
        radii = self._problem.fleet.radii
        link_range = self._problem.link_rule.range_matrix(radii)
        self._range_squared = link_range * link_range
        self._radii = radii
        self._radii_squared = radii * radii
        self._engine = resolve_engine(self._problem, engine)
        # The compiled tier reuses the numpy cache layouts and only
        # swaps who crunches them, so layout still follows the size
        # heuristic even when the tier is "compiled".
        if self._engine == "compiled":
            from repro.core.engine import compiled
            from repro.core.engine.dispatch import select_engine

            self._compiled = compiled
            self._layout = select_engine(self._problem)
        else:
            self._compiled = None
            self._layout = self._engine
        self._positions: np.ndarray | None = None
        self._incumbent: Evaluation | None = None
        # Dense caches.
        self._adjacency: np.ndarray | None = None
        self._coverage: np.ndarray | None = None
        # Sparse caches.
        self._sparse = None
        self._router_index = None
        self._edge_rows: np.ndarray | None = None
        self._edge_cols: np.ndarray | None = None
        self._cov_router: np.ndarray | None = None
        self._cov_client: np.ndarray | None = None
        # The most recent propose()'s arrays, so the common SA pattern
        # "propose, then commit that same evaluation" skips re-querying.
        self._last_propose: tuple | None = None

    @property
    def problem(self):
        """The instance this evaluator measures against."""
        return self._problem

    @property
    def engine(self) -> str:
        """The resolved tier: ``"dense"``, ``"sparse"`` or ``"compiled"``."""
        return self._engine

    @property
    def layout(self) -> str:
        """The cache layout in use: ``"dense"`` or ``"sparse"``.

        Equal to :attr:`engine` for the numpy tiers; the compiled tier
        picks its layout from the same size heuristic
        (:func:`~repro.core.engine.dispatch.select_engine`).
        """
        return self._layout

    @property
    def incumbent(self) -> Evaluation:
        """The evaluation whose state is cached; requires :meth:`reset`."""
        if self._incumbent is None:
            raise ValueError("DeltaEvaluator has no incumbent; call reset() first")
        return self._incumbent

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def reset(self, placement: Placement) -> Evaluation:
        """Full build of ``placement``; it becomes the incumbent."""
        if len(placement) != self._problem.n_routers:
            raise ValueError(
                f"placement positions {len(placement)} routers but the fleet "
                f"has {self._problem.n_routers}"
            )
        positions = placement.positions_array().copy()
        self._last_propose = None
        if self._layout == "sparse":
            evaluation = self._sparse_reset(placement, positions)
        else:
            adjacency = adjacency_matrix(
                positions, self._problem.fleet.radii, self._problem.link_rule
            )
            coverage = coverage_matrix(
                self._problem.clients.positions, positions, self._problem.fleet.radii
            )
            evaluation = self._measure(placement, adjacency, coverage)
            self._adjacency = adjacency
            self._coverage = coverage
        self._positions = positions
        self._incumbent = evaluation
        self._evaluator.count()
        return evaluation

    def propose(self, move: Move) -> Evaluation:
        """Evaluate ``incumbent ⊕ move`` without advancing the caches.

        Raises ``ValueError`` when the move no longer applies (same
        contract as ``move.apply``); callers treat that as "candidate
        unavailable", exactly like the scalar loops do.
        """
        if self._incumbent is None:
            raise ValueError("DeltaEvaluator has no incumbent; call reset() first")
        placement = move.apply(self._incumbent.placement)
        new_positions = placement.positions_array()
        moved = np.flatnonzero((new_positions != self._positions).any(axis=1))
        if self._layout == "sparse":
            rows, cols, cov_router, cov_client = self._sparse_apply(
                new_positions, moved
            )
            evaluation = self._sparse_measure(
                placement, rows, cols, cov_router, cov_client
            )
            self._last_propose = (evaluation, rows, cols, cov_router, cov_client)
        else:
            adjacency = self._adjacency.copy()
            coverage = self._coverage.copy()
            self._apply_rows(adjacency, coverage, new_positions, moved)
            evaluation = self._measure(placement, adjacency, coverage)
        self._evaluator.count()
        return evaluation

    def commit(self, evaluation: Evaluation) -> None:
        """Advance the caches so ``evaluation`` is the new incumbent.

        Accepts any evaluation of this problem (normally one returned by
        :meth:`propose`); only the state of routers that moved relative
        to the current incumbent is rewritten.
        """
        if self._incumbent is None:
            raise ValueError("DeltaEvaluator has no incumbent; call reset() first")
        placement = evaluation.placement
        if len(placement) != self._problem.n_routers:
            raise ValueError(
                f"placement positions {len(placement)} routers but the fleet "
                f"has {self._problem.n_routers}"
            )
        new_positions = placement.positions_array()
        moved = np.flatnonzero((new_positions != self._positions).any(axis=1))
        if self._layout == "sparse":
            if moved.size:
                cached = self._last_propose
                if cached is not None and cached[0] is evaluation:
                    _, rows, cols, cov_router, cov_client = cached
                else:
                    rows, cols, cov_router, cov_client = self._sparse_apply(
                        new_positions, moved
                    )
                self._edge_rows, self._edge_cols = rows, cols
                self._cov_router, self._cov_client = cov_router, cov_client
                self._positions[moved] = new_positions[moved]
                self._rebuild_router_index()
            self._last_propose = None
        else:
            self._apply_rows(self._adjacency, self._coverage, new_positions, moved)
            self._positions[moved] = new_positions[moved]
        self._incumbent = evaluation

    # ------------------------------------------------------------------
    # Dense internals
    # ------------------------------------------------------------------

    def _apply_rows(
        self,
        adjacency: np.ndarray,
        coverage: np.ndarray,
        positions: np.ndarray,
        moved: np.ndarray,
    ) -> None:
        """Rewrite the adjacency rows/columns and coverage columns of
        every moved router in place, against ``positions``."""
        x = positions[:, 0]
        y = positions[:, 1]
        clients = self._problem.clients.positions
        for router in moved.tolist():
            dx = x[router] - x
            dy = y[router] - y
            row = dx * dx + dy * dy <= self._range_squared[router]
            row[router] = False
            adjacency[router, :] = row
            adjacency[:, router] = row
            if clients.size:
                cdx = clients[:, 0] - x[router]
                cdy = clients[:, 1] - y[router]
                coverage[:, router] = (
                    cdx * cdx + cdy * cdy <= self._radii_squared[router]
                )

    def _measure(
        self, placement: Placement, adjacency: np.ndarray, coverage: np.ndarray
    ) -> Evaluation:
        """Metrics + fitness from ready-made adjacency/coverage matrices."""
        n = self._problem.n_routers
        if self._compiled is not None:
            giant_size, covered, n_components, n_links, giant_mask = (
                self._compiled.measure_dense_matrices(
                    adjacency,
                    coverage,
                    self._problem.coverage_rule is not CoverageRule.ANY_ROUTER,
                )
            )
            degree_total = 2 * n_links
            metrics = NetworkMetrics(
                giant_size=giant_size,
                n_routers=n,
                covered_clients=covered,
                n_clients=self._problem.n_clients,
                n_components=n_components,
                n_links=n_links,
                mean_degree=degree_total / n,
            )
            return Evaluation(
                placement=placement,
                metrics=metrics,
                fitness=self._fitness.score(metrics),
                giant_mask=giant_mask,
            )
        # One flat nonzero pass: the directed endpoint count is exactly
        # the degree total, and one direction per edge suffices for the
        # propagation (its sweeps push labels both ways).
        flat = np.flatnonzero(adjacency.ravel())
        rows = flat // n
        cols = flat % n
        one_way = rows < cols
        labels = labels_from_edges(n, rows[one_way], cols[one_way])
        counts = np.bincount(labels, minlength=n)
        # Audited tie-break: ``counts`` is indexed by canonical
        # (smallest-member) component label, and argmax returns the
        # *first* maximum, i.e. the smallest label among the largest
        # components — exactly ComponentStructure.giant_label()'s rule
        # shared by the scalar and batch paths.  An exact giant-size tie
        # is pinned by tests/core/test_giant_tiebreak.py.
        giant_label = int(counts.argmax())
        giant_mask = labels == giant_label
        degree_total = int(flat.shape[0])
        if self._problem.coverage_rule is CoverageRule.ANY_ROUTER:
            covered = int(coverage.any(axis=1).sum()) if coverage.size else 0
        else:
            masked = coverage[:, giant_mask]
            covered = int(masked.any(axis=1).sum()) if masked.size else 0
        metrics = NetworkMetrics(
            giant_size=int(counts[giant_label]),
            n_routers=n,
            covered_clients=covered,
            n_clients=self._problem.n_clients,
            n_components=int((counts > 0).sum()),
            n_links=degree_total // 2,
            # Identical to degrees().mean(): an exact integer divided by N.
            mean_degree=degree_total / n,
        )
        return Evaluation(
            placement=placement,
            metrics=metrics,
            fitness=self._fitness.score(metrics),
            giant_mask=giant_mask,
        )

    # ------------------------------------------------------------------
    # Sparse internals
    # ------------------------------------------------------------------

    def _sparse_engine(self):
        if self._sparse is None:
            from repro.core.engine.sparse import SparseEngine

            self._sparse = SparseEngine(self._problem, self._fitness)
        return self._sparse

    def _rebuild_router_index(self) -> None:
        # Full re-bin + argsort per commit: O(N log N), a deliberate
        # trade against incremental bin maintenance.  Commits happen
        # once per accepted move while proposes dominate the loop, and
        # at 4096 routers the rebuild is microseconds next to the
        # propose-side query work.
        from repro.core.engine.sparse import SpatialGridIndex

        self._router_index = SpatialGridIndex(
            self._positions, self._sparse_engine().link_cell
        )

    def _sparse_reset(self, placement: Placement, positions: np.ndarray) -> Evaluation:
        from repro.core.engine.sparse import sparse_edges

        self._positions = positions
        self._rebuild_router_index()
        rows, cols = sparse_edges(
            positions, self._radii, self._problem.link_rule,
            index=self._router_index,
        )
        cov_router, cov_client = self._sparse_engine().router_hits(positions)
        self._edge_rows, self._edge_cols = rows, cols
        self._cov_router, self._cov_client = cov_router, cov_client
        return self._sparse_measure(placement, rows, cols, cov_router, cov_client)

    def _sparse_apply(
        self, new_positions: np.ndarray, moved: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The candidate's edge and coverage-hit arrays (the shared
        :meth:`~repro.core.engine.sparse.SparseEngine.apply_moves` rule)."""
        from repro.core.engine.sparse import link_hits

        return self._sparse_engine().apply_moves(
            self._router_index,
            new_positions,
            moved,
            (self._edge_rows, self._edge_cols),
            (self._cov_router, self._cov_client),
            link_filter=(
                link_hits
                if self._compiled is None
                else self._compiled.link_hits_compiled
            ),
        )

    def _sparse_measure(
        self,
        placement: Placement,
        rows: np.ndarray,
        cols: np.ndarray,
        cov_router: np.ndarray,
        cov_client: np.ndarray,
    ) -> Evaluation:
        """Metrics + fitness from edge and coverage-hit arrays."""
        from repro.core.engine.sparse import (
            _measure_from_sparse,
            components_from_edges,
        )

        problem = self._problem
        if self._compiled is not None:
            # Same canonical labels from the union-find kernel; the
            # derived pieces repeat components_from_edges verbatim.
            labels = self._compiled.label_components(problem.n_routers, rows, cols)
            counts = np.bincount(labels, minlength=problem.n_routers)
            giant_label = int(counts.argmax())
            giant_mask = labels == giant_label
        else:
            labels, counts, giant_label, giant_mask = components_from_edges(
                problem.n_routers, rows, cols
            )
        if problem.n_clients == 0:
            covered = 0
        else:
            flags = np.zeros(problem.n_clients, dtype=bool)
            if problem.coverage_rule is CoverageRule.ANY_ROUTER:
                flags[cov_client] = True
            else:
                flags[cov_client[giant_mask[cov_router]]] = True
            covered = int(np.count_nonzero(flags))
        return _measure_from_sparse(
            problem,
            self._fitness,
            placement,
            labels,
            int(rows.size),
            covered,
            giant_mask,
            counts,
            giant_label,
        )
