"""The engine's one measurement front door, plus the lockstep delta engine.

:class:`StackedEngine` is the only code that resolves an ``engine``
argument to a tier and builds the per-tier sub-engines, and
:meth:`StackedEngine.measure_placements` is its one stack entry.  Every
counted measurement (:class:`~repro.core.evaluation.Evaluator` on the
compiled and sparse tiers, its ``evaluate_many`` on every tier, and the
GA's checked cell stacks) goes through it.  It measures a whole
candidate stack in as few passes as the tier allows —

* **dense** — the ``(K, N, 2)`` position tensor goes straight into
  :func:`repro.core.engine.batch.measure_stack` in chunks of
  :data:`DEFAULT_MAX_CHUNK`.  No per-candidate
  :class:`~repro.core.evaluation.Evaluation` objects are built; callers
  materialize only the rows they keep.
* **compiled** — the same tensor goes to one fused
  :class:`~repro.core.engine.compiled.CompiledEngine` kernel call.
* **sparse** — each candidate's edges, component labels and coverage
  hits come from one shared
  :class:`~repro.core.engine.sparse.SparseEngine` (the per-candidate
  cost and memory stay ``O(N k + M k)``) and go straight into the same
  metric arrays.

Every tier produces bit-identical metric rows, so no caller needs to
know which tier it runs on.  :class:`StackedDeltaEngine` is the
engine's one incremental (delta) cache.  It builds a
:class:`StackedEngine` and stands on it for the tier, the layout, the
non-finite gate and the sparse client index:
:meth:`StackedDeltaEngine.reset_chain` builds a chain's cache and
measures the chain start in full (the lockstep search's phase 0) —
through :meth:`StackedEngine.measure_placements` on the dense layout,
from the cache's edge and hit arrays on the sparse one — and
:meth:`StackedDeltaEngine.measure_phase`
then measures every phase of every search rule off that cache —
best improvement, tabu, and the one-candidate sub-steps of simulated
annealing — on both cache layouts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.coverage import coverage_matrix
from repro.core.engine.batch import StackedMeasurement, measure_stack
from repro.core.engine.components import labels_from_edge_stack, labels_from_edges
from repro.core.engine.dispatch import resolve_engine
from repro.core.engine.sparse import (
    SparseEngine,
    SpatialGridIndex,
    expand_ranges,
    link_hits,
    sparse_edges,
)
from repro.core.evaluation import Evaluation
from repro.core.fitness import FitnessFunction, WeightedSumFitness
from repro.core.network import adjacency_matrix
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule
from repro.core.solution import Placement

__all__ = [
    "DEFAULT_MAX_CHUNK",
    "PhaseCandidates",
    "StackedEngine",
    "StackedDeltaEngine",
]

#: Candidate-count bound per dense vectorized pass: a stack of K
#: candidates allocates O(K * N^2 + K * M * N) intermediates, so larger
#: stacks are measured in chunks of this size.
DEFAULT_MAX_CHUNK = 256

_NO_PAIRS = np.zeros(0, dtype=np.intp)

#: Movers a compiled dense cache's buffers make room for (see
#: :meth:`StackedDeltaEngine._reserve`): a swap moves two routers.
_COMMIT_MOVERS = 2


class StackedEngine:
    """Tier dispatch and array-level measurement of candidate stacks.

    Pure measurement: no evaluation counters — the
    :class:`~repro.core.evaluation.Evaluator` adapter and the search
    layer on top own the bookkeeping.  Construction rejects non-finite
    router radii and client positions, for every evaluator and search
    driver at once.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        fitness: FitnessFunction | None = None,
        engine: str = "auto",
    ) -> None:
        # Cheap non-finite gate (two vectorized isfinite scans).  The
        # same check runs at ProblemInstance construction; repeating it
        # here, at the one tier dispatch every evaluator and search
        # driver builds, catches instances whose arrays were mutated
        # after the fact (e.g. through object.__setattr__) before any
        # tier sees them.
        if not np.isfinite(problem.fleet.radii).all():
            raise ValueError(
                "router radii must be finite (NaN/inf would silently "
                "produce garbage fitness in every engine tier)"
            )
        if not np.isfinite(problem.clients.positions).all():
            raise ValueError(
                "client positions must be finite (NaN/inf would silently "
                "produce garbage fitness in every engine tier)"
            )
        self._problem = problem
        self._fitness = fitness if fitness is not None else WeightedSumFitness()
        self._engine = resolve_engine(problem, engine)
        self._sparse = None
        self._compiled = None

    @property
    def problem(self) -> ProblemInstance:
        """The instance this engine measures against."""
        return self._problem

    @property
    def fitness_function(self) -> FitnessFunction:
        """The configured scalarization."""
        return self._fitness

    @property
    def engine(self) -> str:
        """The resolved path: ``"dense"``, ``"sparse"`` or ``"compiled"``."""
        return self._engine

    @property
    def layout(self) -> str:
        """The numpy cache layout this engine's instance calls for.

        ``"dense"`` or ``"sparse"`` — for the compiled tier this is the
        :func:`~repro.core.engine.dispatch.select_engine` form, the
        layout a :class:`StackedDeltaEngine` of the same tier caches.
        """
        if self._engine == "compiled":
            from repro.core.engine.dispatch import select_engine

            return select_engine(self._problem)
        return self._engine

    def _sparse_engine(self):
        if self._sparse is None:
            self._sparse = SparseEngine(self._problem)
        return self._sparse

    def _compiled_engine(self):
        if self._compiled is None:
            from repro.core.engine.compiled import CompiledEngine

            self._compiled = CompiledEngine(self._problem, self._fitness)
        return self._compiled

    def measure_placements(
        self, placements: "Sequence[Placement] | np.ndarray"
    ) -> StackedMeasurement:
        """Measure a candidate set on the dispatched path.

        ``placements`` is a sequence of placements, or an int ``(K, N,
        2)`` cell stack whose rows the caller has checked
        (:meth:`~repro.core.solution.Placement.check_stack`), such as a
        GA generation's new children; a stack builds no placement.
        Dense and compiled: one ``(K, N, 2)`` stack of positions.
        Sparse: each candidate's edges, labels and coverage hits,
        straight into the metric arrays.  Every tier raises
        ``ValueError`` for a candidate whose router count is not the
        fleet's.
        """
        if isinstance(placements, np.ndarray):
            if placements.ndim != 3 or placements.shape[2] != 2:
                raise ValueError(
                    f"a cell stack must be (K, N, 2), got {placements.shape}"
                )
            if len(placements):
                _check_router_count(self._problem, placements[0])
            positions = placements.astype(np.float64)
        else:
            for placement in placements:
                _check_router_count(self._problem, placement)
            positions = [p.positions_array() for p in placements]
            if positions and self._engine != "sparse":
                positions = np.stack(positions)
        if not len(positions):
            return self._empty_measurement()
        if self._engine == "sparse":
            return self._measure_sparse(positions)
        if self._engine == "compiled":
            # The fused kernels never materialize per-candidate tensors,
            # so no memory-bounding chunking is needed.
            return self._compiled_engine().measure_stack(positions)
        chunk = DEFAULT_MAX_CHUNK
        if len(positions) <= chunk:
            return measure_stack(self._problem, self._fitness, positions)
        return StackedMeasurement.concatenate(
            [
                measure_stack(
                    self._problem, self._fitness, positions[start : start + chunk]
                )
                for start in range(0, len(positions), chunk)
            ]
        )

    def _measure_sparse(
        self, positions: "Sequence[np.ndarray]"
    ) -> StackedMeasurement:
        """The numpy sparse tier: one candidate's ``(N, 2)`` positions at
        a time, ``O(N k + M k)``.

        Under ``GIANT_ONLY`` only the giant's routers query the client
        index.
        """
        problem = self._problem
        sparse = self._sparse_engine()
        n = problem.n_routers
        k = len(positions)
        giant_sizes = np.empty(k, dtype=np.intp)
        covered = np.empty(k, dtype=np.intp)
        n_components = np.empty(k, dtype=np.intp)
        n_links = np.empty(k, dtype=np.intp)
        giant_masks = np.empty((k, n), dtype=bool)
        giant_only = problem.coverage_rule is not CoverageRule.ANY_ROUTER
        for row, candidate in enumerate(positions):
            rows, cols = sparse_edges(
                candidate, problem.fleet.radii, problem.link_rule
            )
            counts, giant_label, giant_mask = _label_giant(
                labels_from_edges, n, rows, cols
            )
            giant_masks[row] = giant_mask
            giant_sizes[row] = counts[giant_label]
            n_components[row] = np.count_nonzero(counts)
            n_links[row] = rows.size
            routers = (
                np.flatnonzero(giant_mask)
                if giant_only
                else np.arange(n, dtype=np.intp)
            )
            _, hit_client = sparse.coverage_hits(candidate, routers)
            covered[row] = _count_covered(problem.n_clients, hit_client)
        return StackedMeasurement.scored(
            problem, self._fitness, giant_sizes, covered, n_components,
            n_links, giant_masks,
        )

    def _empty_measurement(self) -> StackedMeasurement:
        return _empty_stacked(self._problem, self._fitness)

    def __repr__(self) -> str:
        return (
            f"StackedEngine(n_routers={self._problem.n_routers}, "
            f"engine={self._engine!r})"
        )


class PhaseCandidates:
    """One phase's candidate stack as incumbent deltas, in array form.

    Candidate ``k`` belongs to chain ``chains[k]`` and differs from that
    chain's incumbent by the routers of its *pairs*: pair ``p`` moves
    router ``pair_router[p]`` of candidate ``pair_candidate[p]`` to the
    cell ``pair_xy[p]``.  Pairs are sorted by candidate, a candidate's
    routers are distinct, and a candidate without pairs is the incumbent
    itself.  Candidates must be grouped by chain (the search layer emits
    them chain-major).
    """

    __slots__ = ("chains", "pair_candidate", "pair_router", "pair_xy")

    def __init__(self, chains, pair_candidate, pair_router, pair_xy) -> None:
        self.chains = np.asarray(chains, dtype=np.intp).reshape(-1)
        self.pair_candidate = np.asarray(pair_candidate, dtype=np.intp).reshape(-1)
        self.pair_router = np.asarray(pair_router, dtype=np.intp).reshape(-1)
        self.pair_xy = np.ascontiguousarray(pair_xy, dtype=float).reshape(-1, 2)

    def __len__(self) -> int:
        return len(self.chains)

    def __repr__(self) -> str:
        return (
            f"PhaseCandidates(candidates={len(self)}, "
            f"pairs={len(self.pair_router)})"
        )


class _ChainCache:
    """Incumbent state of one chain (see :class:`StackedDeltaEngine`).

    Both layouts hold the incumbent's placement, positions and one-way
    edge arrays.  The dense layout adds the boolean adjacency and
    coverage matrices plus one per-rule coverage aid; the sparse layout
    adds a router :class:`~repro.core.engine.sparse.SpatialGridIndex`
    binned on the link cell and the coverage hits, in router-major CSR
    form (router ``r`` covers clients
    ``hit_client[hit_ptr[r]:hit_ptr[r + 1]]``).  That is
    ``O(N + E + H)`` bytes (routers, edges, hits) in all, with no array
    shaped by the client count.

    The dense *phase aids* — the edge arrays and the coverage rule's
    aid — are built once with the cache
    (:meth:`StackedDeltaEngine._build_aids`) and kept in step by every
    commit.  On the compiled tier the edge arrays and the client-hit
    list are buffers with spare room, whose used lengths are the edge
    count of the chain's ``chain_state`` row (``state``) and
    ``client_ptr[-1]`` (see :meth:`edges`).
    """

    __slots__ = (
        "placement",
        "positions",
        "edge_rows",
        "edge_cols",
        # Dense layout.
        "adjacency",
        "coverage",
        "coverage32",
        "coverage_counts",
        "client_ptr",
        "client_hit",
        # Dense layout, compiled tier: the chain_state row and the
        # commit kernel's fixed arguments.
        "state",
        "commit_args",
        # Sparse layout.
        "index",
        "hit_ptr",
        "hit_client",
    )

    def __init__(self, placement: Placement) -> None:
        for name in self.__slots__:
            setattr(self, name, None)
        self.placement = placement
        self.positions = np.array(placement.positions_array(), dtype=float)

    @classmethod
    def dense(cls, problem: ProblemInstance, placement: Placement) -> "_ChainCache":
        """Adjacency and coverage matrices by the reference builders."""
        cache = cls(placement)
        # The reference matrix builders, so the cached state is exactly
        # what the scalar/batch paths would compute.
        cache.adjacency = adjacency_matrix(
            cache.positions, problem.fleet.radii, problem.link_rule
        )
        cache.coverage = coverage_matrix(
            problem.clients.positions, cache.positions, problem.fleet.radii
        )
        return cache

    @classmethod
    def sparse(
        cls, sparse: SparseEngine, placement: Placement, link_filter
    ) -> "_ChainCache":
        """Edge and hit arrays from the spatial indexes."""
        cache = cls(placement)
        cache.index = SpatialGridIndex(cache.positions, sparse.link_cell)
        problem = sparse.problem
        cache.edge_rows, cache.edge_cols = link_filter(
            cache.positions,
            problem.fleet.radii,
            problem.link_rule,
            *cache.index.candidate_pairs(),
        )
        cache.set_hits(*sparse.router_hits(cache.positions))
        return cache

    def refresh_edges(self) -> None:
        """One-way ``(i < j)`` edge arrays from the adjacency matrix."""
        rows, cols = np.nonzero(self.adjacency)
        one_way = rows < cols
        self.edge_rows = rows[one_way].astype(np.intp)
        self.edge_cols = cols[one_way].astype(np.intp)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The one-way edge arrays, trimmed to the edge count."""
        if self.state is None:
            return self.edge_rows, self.edge_cols
        count = int(self.state[4])  # the row's edge count
        return self.edge_rows[:count], self.edge_cols[:count]

    def set_hits(self, hit_router: np.ndarray, hit_client: np.ndarray) -> None:
        """Store router-sorted ``(router, client)`` hits as the CSR."""
        self.hit_ptr = np.searchsorted(
            hit_router, np.arange(self.positions.shape[0] + 1)
        )
        # Client ids fit 32 bits; half the bytes of the largest array.
        self.hit_client = hit_client.astype(np.int32)

    def hit_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The hits as parallel ``(router, client)`` arrays."""
        routers = np.repeat(
            np.arange(self.positions.shape[0], dtype=np.intp),
            np.diff(self.hit_ptr),
        )
        return routers, self.hit_client


class StackedDeltaEngine:
    """Incremental measurement around cached chain incumbents.

    Every candidate of a local search differs from its chain's
    incumbent by at most a couple of *moved* routers, so re-measuring it
    in full wastes almost all of its work on unchanged routers.  This
    engine keeps one :class:`_ChainCache` per chain and measures only
    what the movers touch, in one entry point: :meth:`measure_phase`
    measures a whole phase of ``K`` candidates off the chains'
    incumbents — a best-improvement or tabu phase, or one sub-step of
    simulated annealing with one candidate per chain.  Per candidate,
    edge lists as *kept incumbent edges* (a boolean mask over the
    cached one-way arrays) plus the movers' new links, labeled for the
    whole phase in one connected-components pass; covered-client counts
    from the cached coverage state, corrected per moved router.

    ``engine`` is resolved by the :class:`StackedEngine` this engine
    builds (``"auto"`` included), which also rejects non-finite inputs
    and supplies the layout: the ``"dense"`` tier uses the dense
    layout, ``"sparse"`` the sparse one and ``"compiled"`` whichever
    :func:`~repro.core.engine.dispatch.select_engine` names.

    * **dense** — incumbent adjacency and coverage matrices.  A phase
      broadcasts one ``(P, N)`` adjacency row and one ``(P, M)``
      coverage column per (candidate, moved-router) pair, and counts
      ``GIANT_ONLY`` coverage with one exact ``float32`` matmul of the
      cached hits against the candidate giant masks (``ANY_ROUTER``:
      cached per-client hit counts).  On the compiled tier a phase is
      one C kernel call over the same caches, with no ``(P, N)`` or
      ``(P, M)`` array: the candidates of a chain that move the same
      routers share one base, the incumbent without them, and each
      candidate tests only its movers' links and new coverage against
      it.
    * **sparse** (city scale) — a router index, edge arrays and
      router-major coverage hits; no ``(M, N)`` or ``(N, N)`` array
      exists.  A mover's links to unmoved routers come from one query
      of all its chain's pair targets against the incumbent index,
      co-mover links are tested at both new positions, and its new
      coverage hits from one client-index query for the whole phase.
      ``GIANT_ONLY`` coverage unions the cached hits of each
      candidate's unmoved giant routers with the new hits of its giant
      movers.  The tier picks only the labeler and the pair filter (the
      compiled union-find and link filter, or their numpy twins).

    Results are bit-identical to a full
    :meth:`StackedEngine.measure_placements` of the candidate
    placements (the parity suites assert it): every link and coverage
    test is the reference float64 predicate, labels are canonical
    smallest-member ids, and the integer count arithmetic is exact.

    Protocol: :meth:`reset_chain` once per chain (it returns the
    chain start's evaluation, measured in full), then
    :meth:`measure_phase` with the candidates as
    :class:`PhaseCandidates` arrays, and
    :meth:`commit_chain` whenever a chain accepts a candidate.  Pure
    measurement — counters live in the search layer.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        fitness: FitnessFunction | None = None,
        engine: str = "dense",
    ) -> None:
        # The tier, the layout, the non-finite gate and the sparse
        # layout's client index all come from the one dispatch; the
        # dense chain start is measured through it too.
        self._stacked = StackedEngine(problem, fitness, engine=engine)
        self._problem = problem
        self._fitness = self._stacked.fitness_function
        radii = problem.fleet.radii
        self._radii = radii
        self._radii_squared = radii * radii
        self._clients = problem.clients.positions
        self._giant_only = problem.coverage_rule is not CoverageRule.ANY_ROUTER
        self._caches: dict[int, _ChainCache] = {}
        if self._stacked.engine == "compiled":
            from repro.core.engine import compiled

            self._compiled = compiled
            self._label = compiled.label_components
            self._link_filter = compiled.link_hits_compiled
        else:
            self._compiled = None
            self._label = labels_from_edge_stack
            self._link_filter = link_hits
        if self._stacked.layout == "dense":
            link_range = problem.link_rule.range_matrix(radii)
            self._range_squared = link_range * link_range
            self._sparse = None
        else:
            # One client index, shared by every chain.
            self._sparse = self._stacked._sparse_engine()

    @property
    def problem(self) -> ProblemInstance:
        """The instance this engine measures against."""
        return self._problem

    @property
    def fitness_function(self) -> FitnessFunction:
        """The configured scalarization."""
        return self._fitness

    @property
    def engine(self) -> str:
        """The resolved tier: ``"dense"``, ``"sparse"`` or ``"compiled"``."""
        return self._stacked.engine

    @property
    def layout(self) -> str:
        """The chain-cache layout in use: ``"dense"`` or ``"sparse"``."""
        return "dense" if self._sparse is None else "sparse"

    def reset_chain(self, chain: int, placement: Placement) -> Evaluation:
        """(Re)build chain ``chain``'s incumbent cache from scratch.

        Returns the placement's evaluation, the chain start's one full
        measurement: on the dense layout by
        :meth:`StackedEngine.measure_placements`, on the sparse layout
        from the edge and hit arrays just built.  Raises ``ValueError``
        for a placement whose router count is not the fleet's.
        """
        _check_router_count(self._problem, placement)
        if self._sparse is None:
            cache = _ChainCache.dense(self._problem, placement)
            self._build_aids(cache)
            measurement = self._stacked.measure_placements([placement])
        else:
            cache = _ChainCache.sparse(self._sparse, placement, self._link_filter)
            measurement = self._measure_edges_and_hits(
                cache.edge_rows, cache.edge_cols, *cache.hit_pairs()
            )
        self._caches[chain] = cache
        return measurement.evaluation(0, placement)

    def _build_aids(self, cache: _ChainCache) -> None:
        """A fresh dense cache's phase aids: the one-way edge arrays and
        the coverage rule's aid.

        Every commit keeps them in step (:meth:`_commit_dense`, or the
        compiled commit kernel), and each is an exact function of the
        incumbent matrices.
        """
        if not self._giant_only:
            cache.coverage_counts = cache.coverage.sum(axis=1, dtype=np.int32)
        if self._compiled is None:
            cache.refresh_edges()
            if self._giant_only:
                # float32 copy for the per-phase sgemm: counts stay exact
                # (at most N ones per client, far below 2**24).
                cache.coverage32 = cache.coverage.astype(np.float32)
            return
        # Byte-scan edge extraction, same (i < j) row-major order as the
        # np.nonzero path, and client-major hit lists for the phase
        # kernel's giant-only count (exact integers end to end).
        cache.edge_rows, cache.edge_cols = self._compiled.dense_edges(cache.adjacency)
        if self._giant_only:
            cache.client_ptr, cache.client_hit = self._compiled.client_csr(
                cache.coverage
            )
        self._reserve(cache, cache.edge_rows.size, _COMMIT_MOVERS)

    def _reserve(self, cache: _ChainCache, n_edges: int, movers: int) -> None:
        """(Re)allocate a compiled dense cache's edge and client-hit
        buffers, then build its ``chain_state`` row and commit arguments.

        Each buffer gets twice the room a commit of ``movers`` routers
        could need (each linking every other router, covering every
        client), so the commit kernel grows them only when the incumbent
        has grown far past its size at the last allocation.
        """
        n = self._problem.n_routers
        edge_room = 2 * (n_edges + movers * (n - 1))
        cache.edge_rows = _grown(cache.edge_rows, n_edges, edge_room)
        cache.edge_cols = _grown(cache.edge_cols, n_edges, edge_room)
        hits = None
        if cache.client_ptr is not None:
            n_hits = int(cache.client_ptr[-1])
            hit_room = 2 * (n_hits + movers * self._problem.n_clients)
            cache.client_hit = _grown(cache.client_hit, n_hits, hit_room)
            hits = cache.client_hit[:n_hits]
        # Trimmed views: the row's addresses are the buffers' own.
        cache.state = np.array(
            self._compiled.chain_state(
                cache.positions, cache.coverage,
                cache.edge_rows[:n_edges], cache.edge_cols[:n_edges],
                cache.client_ptr, hits, cache.coverage_counts,
            ),
            dtype=np.int64,
        )
        cache.commit_args = self._compiled.commit_args(
            cache.state, cache.adjacency,
            self._range_squared, self._clients, self._radii_squared,
            edge_room, 0 if hits is None else cache.client_hit.size,
        )

    def commit_chain(self, chain: int, placement: Placement) -> None:
        """Advance chain ``chain``'s incumbent to an accepted placement.

        Only the moved routers' state is rewritten.  Dense layout: their
        adjacency rows/columns and coverage columns, in place, then the
        phase aids — on the compiled tier all of it in one
        ``repro_commit_dense`` call (:meth:`_commit_kernel`).  Sparse
        layout: the shared
        :meth:`~repro.core.engine.sparse.SparseEngine.apply_moves` rule,
        then a rebuilt router index.
        """
        cache = self._caches.get(chain)
        if cache is None:
            self.reset_chain(chain, placement)
            return
        _check_router_count(self._problem, placement)
        # The cell array, not positions_array(): an accepted placement
        # carries no float copy of its cells (results keep placements).
        new_cells = placement.cells_array()
        if cache.state is not None:
            self._commit_kernel(cache, new_cells)
        else:
            moved = np.flatnonzero((new_cells != cache.positions).any(axis=1))
            if moved.size:
                new_positions = cache.positions.copy()
                new_positions[moved] = new_cells[moved]
                if self._sparse is None:
                    self._commit_dense(cache, new_positions, moved)
                else:
                    self._commit_sparse(cache, new_positions, moved)
        cache.placement = placement

    def _commit_kernel(self, cache: _ChainCache, new_cells: np.ndarray) -> None:
        """The compiled dense commit: one kernel call in place, after a
        regrowth of the buffers when they could overflow."""
        while True:
            status = self._compiled.commit_dense(cache.commit_args, new_cells)
            if status != self._compiled.COMMIT_GROW:
                return
            movers = np.count_nonzero((new_cells != cache.positions).any(axis=1))
            self._reserve(cache, cache.edges()[0].size, int(movers))

    def _commit_dense(
        self, cache: _ChainCache, new_positions: np.ndarray, moved: np.ndarray
    ) -> None:
        """The numpy dense tier's commit, and the reference of the
        compiled one (``repro_commit_dense``): rewrite every moved
        router's adjacency row/column and coverage column in place,
        against ``new_positions``, with the coverage aid following each
        column; then the edge arrays."""
        adjacency = cache.adjacency
        coverage = cache.coverage
        x = new_positions[:, 0]
        y = new_positions[:, 1]
        clients = self._clients
        for router in moved.tolist():
            dx = x[router] - x
            dy = y[router] - y
            row = dx * dx + dy * dy <= self._range_squared[router]
            row[router] = False
            adjacency[router, :] = row
            adjacency[:, router] = row
            if not clients.size:
                continue
            cdx = clients[:, 0] - x[router]
            cdy = clients[:, 1] - y[router]
            column = cdx * cdx + cdy * cdy <= self._radii_squared[router]
            if cache.coverage_counts is not None:
                # Keep the per-client totals in sync before the column
                # is overwritten.
                cache.coverage_counts += column
                cache.coverage_counts -= coverage[:, router]
            coverage[:, router] = column
            if cache.coverage32 is not None:
                cache.coverage32[:, router] = column
        cache.refresh_edges()
        cache.positions[moved] = new_positions[moved]

    def _commit_sparse(
        self, cache: _ChainCache, new_positions: np.ndarray, moved: np.ndarray
    ) -> None:
        rows, cols, hit_router, hit_client = self._sparse.apply_moves(
            cache.index,
            new_positions,
            moved,
            (cache.edge_rows, cache.edge_cols),
            cache.hit_pairs(),
            link_filter=self._link_filter,
        )
        cache.edge_rows, cache.edge_cols = rows, cols
        # Kept hits stay router-sorted and the movers' follow, so the
        # stable sort is one merge-like pass.
        order = np.argsort(hit_router, kind="stable")
        cache.set_hits(hit_router[order], hit_client[order])
        cache.positions[moved] = new_positions[moved]
        # A full re-bin: O(N log N), a fraction of a millisecond at
        # city scale, once per accepted candidate.
        cache.index = SpatialGridIndex(cache.positions, self._sparse.link_cell)

    def _measure_edges_and_hits(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        hit_router: np.ndarray,
        hit_client: np.ndarray,
    ) -> StackedMeasurement:
        """One-row measurement of one-way edge and coverage-hit arrays
        (the sparse layout's chain start)."""
        counts, giant_label, giant_mask = _label_giant(
            self._label, self._problem.n_routers, rows, cols
        )
        if self._giant_only:
            hit_client = hit_client[giant_mask[hit_router]]
        return StackedMeasurement.scored(
            self._problem,
            self._fitness,
            counts[giant_label : giant_label + 1],
            np.array([_count_covered(self._problem.n_clients, hit_client)]),
            np.array([np.count_nonzero(counts)]),
            np.array([rows.size]),
            giant_mask[np.newaxis, :],
        )

    # ------------------------------------------------------------------
    # Phase measurement
    # ------------------------------------------------------------------

    def measure_phase(self, candidates: PhaseCandidates) -> StackedMeasurement:
        """Measure one phase's candidate stack incrementally.

        ``candidates`` describes every candidate as its chain's
        incumbent plus the flat ``(candidate, router, x, y)`` pairs of
        its moved routers (see :class:`PhaseCandidates`).  Returns a
        :class:`~repro.core.engine.batch.StackedMeasurement` in
        candidate order; materialize winners with
        ``measurement.evaluation(k, placement)``.  On the compiled tier's
        dense layout the whole phase is one kernel call.  Raises
        ``ValueError`` for a chain :meth:`reset_chain` has not cached.
        """
        n = self._problem.n_routers
        k_total = len(candidates)
        if k_total == 0:
            return _empty_stacked(self._problem, self._fitness)
        segments = _chain_segments(candidates)
        if self._compiled is not None and self._sparse is None:
            return self._measure_phase_kernel(candidates, segments)

        giant_sizes = np.empty(k_total, dtype=np.intp)
        covered = np.empty(k_total, dtype=np.intp)
        n_components = np.empty(k_total, dtype=np.intp)
        n_links = np.empty(k_total, dtype=np.intp)
        giant_masks = np.empty((k_total, n), dtype=bool)

        # ---- pass 1: per-chain link deltas and edge stacks -----------
        edge_sources: list[np.ndarray] = []
        edge_targets: list[np.ndarray] = []
        chain_scratch: list[tuple] = []
        for chain, start, end, pairs in segments:
            cache = self._cache(chain)
            scratch = self._chain_edges(
                cache, candidates, start, end, pairs, n_links,
                edge_sources, edge_targets,
            )
            chain_scratch.append(scratch)

        # ---- global component labeling for the whole phase -----------
        sources = (
            np.concatenate(edge_sources) if edge_sources else np.zeros(0, np.intp)
        )
        targets = (
            np.concatenate(edge_targets) if edge_targets else np.zeros(0, np.intp)
        )
        labels = self._label(k_total * n, sources, targets)
        counts = np.bincount(labels, minlength=k_total * n).reshape(k_total, n)
        labels = labels.reshape(k_total, n)
        labels -= np.arange(k_total, dtype=np.intp)[:, np.newaxis] * n
        # First maximum = smallest canonical label among the largest
        # components — the shared giant tie-break rule.
        giant_labels = counts.argmax(axis=1)
        giant_sizes[:] = counts[np.arange(k_total), giant_labels]
        n_components[:] = (counts > 0).sum(axis=1)
        np.equal(labels, giant_labels[:, np.newaxis], out=giant_masks)

        # ---- pass 2: coverage -----------------------------------------
        if self._sparse is None:
            for (chain, start, end, _), scratch in zip(segments, chain_scratch):
                self._chain_coverage(
                    self._caches[chain], start, end, scratch, giant_masks, covered
                )
        else:
            self._sparse_coverage(
                candidates, segments, chain_scratch, giant_masks, covered
            )

        return StackedMeasurement.scored(
            self._problem, self._fitness, giant_sizes, covered, n_components,
            n_links, giant_masks,
        )

    def _measure_phase_kernel(
        self,
        candidates: PhaseCandidates,
        segments: list[tuple[int, int, int, slice]],
    ) -> StackedMeasurement:
        """The dense layout on the compiled tier: one kernel call over
        every chain's incumbent buffers."""
        # Each row was built when its chain's buffers were allocated; a
        # commit updates its edge count in place.
        states = np.stack([self._cache(chain).state for chain, _, _, _ in segments])
        starts = [start for _, start, _, _ in segments]
        starts.append(len(candidates))
        rows = self._compiled.measure_phase_dense(
            states,
            np.array(starts, dtype=np.int64),
            candidates.pair_candidate,
            candidates.pair_router,
            candidates.pair_xy,
            self._range_squared,
            self._clients,
            self._radii_squared,
            self._giant_only,
        )
        return StackedMeasurement.scored(self._problem, self._fitness, *rows)

    # ------------------------------------------------------------------
    # Per-chain internals
    # ------------------------------------------------------------------

    def _cache(self, chain: int) -> _ChainCache:
        cache = self._caches.get(chain)
        if cache is None:
            raise ValueError(f"chain {chain} has no incumbent; call reset_chain()")
        return cache

    def _chain_edges(
        self,
        cache: _ChainCache,
        candidates: PhaseCandidates,
        start: int,
        end: int,
        pairs: slice,
        n_links: np.ndarray,
        edge_sources: list[np.ndarray],
        edge_targets: list[np.ndarray],
    ) -> tuple:
        """Link deltas + stacked edge arrays for one chain's segment.

        Candidates ``start:end`` are this chain's, and ``pairs`` slices
        their (candidate, mover) pairs.  Fills ``n_links[start:end]``
        and appends this chain's globally offset edge arrays; returns
        the scratch the coverage pass reuses.
        """
        n = self._problem.n_routers
        count = end - start
        # Candidate k's pairs are the contiguous run pair_first[k - start]
        # .. pair_first[k - start] + mover_lengths[k - start].
        cand_of_pair = candidates.pair_candidate[pairs] - start
        router_of_pair = candidates.pair_router[pairs]
        new_xy = candidates.pair_xy[pairs]
        mover_lengths = np.bincount(cand_of_pair, minlength=count)
        pair_first = np.cumsum(mover_lengths) - mover_lengths
        max_movers = int(mover_lengths.max(initial=0))
        # Co-mover pairs (pair_i, pair_j) of every candidate, one
        # vectorized slice per (i, j) mover slot.
        pair_i = pair_j = _NO_PAIRS
        if max_movers > 1:
            slot_i: list[np.ndarray] = []
            slot_j: list[np.ndarray] = []
            for i in range(max_movers):
                for j in range(i + 1, max_movers):
                    local = np.flatnonzero(mover_lengths > j)
                    slot_i.append(pair_first[local] + i)
                    slot_j.append(pair_first[local] + j)
            pair_i = np.concatenate(slot_i)
            pair_j = np.concatenate(slot_j)

        # Mover links: (new_pair, new_target) to unmoved routers, and
        # the linked co-mover pairs (extra_i, extra_j), each once.
        if cache.index is None:
            new_pair, new_target, extra_i, extra_j, scratch = (
                self._dense_mover_links(
                    cache, cand_of_pair, router_of_pair, new_xy, pair_i, pair_j
                )
            )
        else:
            new_pair, new_target, extra_i, extra_j, scratch = (
                self._sparse_mover_links(
                    cache, count, cand_of_pair, router_of_pair, new_xy,
                    pair_i, pair_j,
                )
            )

        # Kept incumbent edges: both endpoints unmoved.
        base_rows = cache.edge_rows
        base_cols = cache.edge_cols
        keep = np.ones((count, base_rows.size), dtype=bool)
        if max_movers:
            padded = np.full((count, max_movers), -1, dtype=np.intp)
            padded[
                cand_of_pair, np.arange(cand_of_pair.size) - pair_first[cand_of_pair]
            ] = router_of_pair
            for w in range(max_movers):
                column = padded[:, w][:, np.newaxis]
                keep &= base_rows[np.newaxis, :] != column
                keep &= base_cols[np.newaxis, :] != column

        n_links[start:end] = keep.sum(axis=1) + np.bincount(
            cand_of_pair[new_pair], minlength=count
        )

        # Globally offset edge arrays for the phase labeling.
        offsets = (np.arange(start, end, dtype=np.intp)) * n
        kept_cand, kept_edge = np.nonzero(keep)
        edge_sources.append(offsets[kept_cand] + base_rows[kept_edge])
        edge_targets.append(offsets[kept_cand] + base_cols[kept_edge])
        if new_pair.size:
            new_offsets = offsets[cand_of_pair[new_pair]]
            edge_sources.append(new_offsets + router_of_pair[new_pair])
            edge_targets.append(new_offsets + new_target)
        if extra_i.size:
            extra_local = cand_of_pair[extra_i]
            n_links[start:end] += np.bincount(extra_local, minlength=count)
            edge_sources.append(offsets[extra_local] + router_of_pair[extra_i])
            edge_targets.append(offsets[extra_local] + router_of_pair[extra_j])
        return scratch

    def _dense_mover_links(
        self,
        cache: _ChainCache,
        cand_of_pair: np.ndarray,
        router_of_pair: np.ndarray,
        new_xy: np.ndarray,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
    ) -> tuple:
        """Dense layout: one adjacency row and coverage column per pair."""
        n = self._problem.n_routers
        n_pairs = router_of_pair.size
        if n_pairs:
            new_x = new_xy[:, 0]
            new_y = new_xy[:, 1]
            # New adjacency rows against the *incumbent* positions —
            # identical predicate to the reference adjacency_matrix.
            dx = new_x[:, np.newaxis] - cache.positions[np.newaxis, :, 0]
            dy = new_y[:, np.newaxis] - cache.positions[np.newaxis, :, 1]
            rows_new = dx * dx + dy * dy <= self._range_squared[router_of_pair]
            rows_new[np.arange(n_pairs), router_of_pair] = False
            # New coverage columns (client within the mover's radius).
            if self._clients.size:
                cdx = new_x[:, np.newaxis] - self._clients[np.newaxis, :, 0]
                cdy = new_y[:, np.newaxis] - self._clients[np.newaxis, :, 1]
                cols_new = (
                    cdx * cdx + cdy * cdy
                    <= self._radii_squared[router_of_pair, np.newaxis]
                )
            else:
                cols_new = np.zeros((n_pairs, 0), dtype=bool)
        else:
            rows_new = np.zeros((0, n), dtype=bool)
            cols_new = np.zeros((0, self._problem.n_clients), dtype=bool)

        # Co-mover links from both new positions (the row broadcast
        # above tested against the co-mover's *old* position); clear
        # both directed row entries so the pair is neither
        # double-counted nor tested against stale positions.
        extra_i = extra_j = _NO_PAIRS
        if pair_i.size:
            a = router_of_pair[pair_i]
            b = router_of_pair[pair_j]
            dx2 = new_xy[pair_i, 0] - new_xy[pair_j, 0]
            dy2 = new_xy[pair_i, 1] - new_xy[pair_j, 1]
            linked = dx2 * dx2 + dy2 * dy2 <= self._range_squared[a, b]
            rows_new[pair_i, b] = False
            rows_new[pair_j, a] = False
            extra_i, extra_j = pair_i[linked], pair_j[linked]
        new_pair, new_target = np.nonzero(rows_new)
        return (
            new_pair, new_target, extra_i, extra_j,
            (cand_of_pair, router_of_pair, cols_new),
        )

    def _sparse_mover_links(
        self,
        cache: _ChainCache,
        count: int,
        cand_of_pair: np.ndarray,
        router_of_pair: np.ndarray,
        new_xy: np.ndarray,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
    ) -> tuple:
        """Sparse layout: index queries plus the exact pair filter."""
        n = self._problem.n_routers
        moved = np.zeros((count, n), dtype=bool)
        moved[cand_of_pair, router_of_pair] = True
        # Node n + p is pair p's router at its new cell, so the one link
        # filter tests old-to-new and new-to-new pairs alike.
        points = np.concatenate((cache.positions, new_xy))
        point_radii = np.concatenate((self._radii, self._radii[router_of_pair]))
        link_rule = self._problem.link_rule
        # Unmoved partners: the incumbent index holds every unmoved
        # router where it stands; co-movers (the mover itself included)
        # are dropped.
        local, partner = cache.index.query_points(new_xy)
        usable = ~moved[cand_of_pair[local], partner]
        rows, new_target = self._link_filter(
            points, point_radii, link_rule, n + local[usable], partner[usable]
        )
        extra_i, extra_j = self._link_filter(
            points, point_radii, link_rule, n + pair_i, n + pair_j
        )
        return (
            rows - n, new_target, extra_i - n, extra_j - n,
            (cand_of_pair, router_of_pair, moved),
        )

    def _chain_coverage(
        self,
        cache: _ChainCache,
        start: int,
        end: int,
        scratch: tuple,
        giant_masks: np.ndarray,
        covered: np.ndarray,
    ) -> None:
        """Covered-client counts for one chain's segment (dense layout)."""
        m = self._problem.n_clients
        count = end - start
        if m == 0:
            covered[start:end] = 0
            return
        cand_of_pair, router_of_pair, cols_new = scratch
        if not self._giant_only:
            counts = np.repeat(
                cache.coverage_counts[np.newaxis, :], count, axis=0
            )
            if cand_of_pair.size:
                difference = (
                    cols_new.astype(np.int32)
                    - cache.coverage[:, router_of_pair].T
                )
                np.add.at(counts, cand_of_pair, difference)
            covered[start:end] = np.count_nonzero(counts > 0, axis=1)
            return
        # GIANT_ONLY: per-client count of covering giant routers =
        # hits x giant-mask, one exact float32 sgemm for the segment...
        giant32 = giant_masks[start:end].astype(np.float32)
        counts = cache.coverage32 @ giant32.T  # (M, count)
        # ...then exchange each mover's old column for its new one when
        # the mover sits in that candidate's giant component.  add.at
        # accumulates correctly when one candidate moves several giant
        # routers.
        if cand_of_pair.size:
            in_giant = giant_masks[start + cand_of_pair, router_of_pair]
            hot = np.flatnonzero(in_giant)
            if hot.size:
                difference = (
                    cols_new[hot].astype(np.float32)
                    - cache.coverage32[:, router_of_pair[hot]].T
                )
                np.add.at(counts.T, cand_of_pair[hot], difference)
        covered[start:end] = np.count_nonzero(counts > 0.5, axis=0)

    def _sparse_coverage(
        self,
        candidates: PhaseCandidates,
        segments: list[tuple[int, int, int, slice]],
        chain_scratch: list[tuple],
        giant_masks: np.ndarray,
        covered: np.ndarray,
    ) -> None:
        """Covered-client counts for the whole phase (sparse layout)."""
        m = self._problem.n_clients
        if m == 0:
            covered[:] = 0
            return
        # Every pair target's new hits from one client-index query,
        # grouped by pair so each chain takes one contiguous run.
        hit_pair, hit_client = self._sparse.point_hits(
            candidates.pair_xy, self._radii_squared[candidates.pair_router]
        )
        order = np.argsort(hit_pair, kind="stable")
        hit_pair = hit_pair[order]
        hit_client = hit_client[order]
        for (chain, start, end, pairs), scratch in zip(segments, chain_scratch):
            cache = self._caches[chain]
            cand_of_pair, router_of_pair, moved = scratch
            low, high = np.searchsorted(hit_pair, (pairs.start, pairs.stop))
            new_pair = hit_pair[low:high] - pairs.start
            new_client = hit_client[low:high]
            if self._giant_only:
                # A client is covered by an unmoved giant router's cached
                # hit or by a giant mover's new one.
                owner, router = np.nonzero(giant_masks[start:end] & ~moved)
                slot_owner, slot = expand_ranges(
                    cache.hit_ptr[router], cache.hit_ptr[router + 1]
                )
                hot = giant_masks[
                    start + cand_of_pair[new_pair], router_of_pair[new_pair]
                ]
                flags = np.zeros((end - start, m), dtype=bool)
                flags[owner[slot_owner], cache.hit_client[slot]] = True
                flags[cand_of_pair[new_pair[hot]], new_client[hot]] = True
                covered[start:end] = np.count_nonzero(flags, axis=1)
                continue
            # ANY_ROUTER: the incumbent's per-client hit counts, minus
            # each mover's cached hits, plus its new ones.
            counts = np.repeat(
                np.bincount(cache.hit_client, minlength=m).astype(np.int32)[
                    np.newaxis, :
                ],
                end - start,
                axis=0,
            )
            slot_pair, slot = expand_ranges(
                cache.hit_ptr[router_of_pair], cache.hit_ptr[router_of_pair + 1]
            )
            np.subtract.at(
                counts, (cand_of_pair[slot_pair], cache.hit_client[slot]), 1
            )
            np.add.at(counts, (cand_of_pair[new_pair], new_client), 1)
            covered[start:end] = np.count_nonzero(counts > 0, axis=1)

    def __repr__(self) -> str:
        return (
            f"StackedDeltaEngine(n_routers={self._problem.n_routers}, "
            f"layout={self.layout!r}, chains={len(self._caches)})"
        )


def _chain_segments(
    candidates: PhaseCandidates,
) -> list[tuple[int, int, int, slice]]:
    """``(chain, start, end, pairs)`` runs of chain-major candidates."""
    chains = candidates.chains
    if (np.diff(candidates.pair_candidate) < 0).any():
        raise ValueError("measure_phase pairs must be sorted by candidate")
    bounds = np.flatnonzero(chains[1:] != chains[:-1]) + 1
    starts = [0, *bounds.tolist()]
    ends = [*bounds.tolist(), len(chains)]
    run_chains = chains[starts].tolist()
    if len(set(run_chains)) != len(run_chains):
        raise ValueError("measure_phase candidates must be grouped by chain")
    pair_bounds = np.searchsorted(
        candidates.pair_candidate, [*starts, len(chains)]
    ).tolist()
    return [
        (chain, start, end, slice(pair_bounds[index], pair_bounds[index + 1]))
        for index, (chain, start, end) in enumerate(zip(run_chains, starts, ends))
    ]


def _grown(array: np.ndarray, used: int, size: int) -> np.ndarray:
    """An int64 buffer of ``size`` entries starting with ``array[:used]``."""
    grown = np.empty(size, dtype=np.int64)
    grown[:used] = array[:used]
    return grown


def _check_router_count(
    problem: ProblemInstance, placement: "Placement | np.ndarray"
) -> None:
    """The one router-count check of every placement (or cell array)
    the engines take."""
    if len(placement) != problem.n_routers:
        raise ValueError(
            f"placement positions {len(placement)} routers but the fleet "
            f"has {problem.n_routers}"
        )


def _label_giant(
    label, n: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray]:
    """``(counts, giant_label, giant_mask)`` of one ``n``-router graph.

    ``label`` is the tier's labeler (canonical smallest-member ids), so
    ``counts`` is indexed by label and its first maximum — the smallest
    label among the largest components — is the shared giant
    tie-break rule.
    """
    labels = label(n, rows, cols)
    counts = np.bincount(labels, minlength=n)
    giant_label = int(counts.argmax())
    return counts, giant_label, labels == giant_label


def _count_covered(n_clients: int, hit_client: np.ndarray) -> int:
    """Distinct clients among coverage hits (the qualifying routers')."""
    flags = np.zeros(n_clients, dtype=bool)
    flags[hit_client] = True
    return int(np.count_nonzero(flags))


def _empty_stacked(
    problem: ProblemInstance, fitness: FitnessFunction
) -> StackedMeasurement:
    empty = np.zeros(0, dtype=np.intp)
    return StackedMeasurement(
        problem=problem,
        fitness_function=fitness,
        giant_sizes=empty,
        covered_clients=empty.copy(),
        n_components=empty.copy(),
        n_links=empty.copy(),
        mean_degrees=np.zeros(0, dtype=float),
        giant_masks=np.zeros((0, problem.n_routers), dtype=bool),
        fitness=np.zeros(0, dtype=float),
    )
