"""The engine's one measurement front door, plus the lockstep delta engine.

:class:`StackedEngine` is the only code that resolves an ``engine``
argument to a tier and builds the per-tier sub-engines.  Every counted
measurement (:class:`~repro.core.evaluation.Evaluator` on the compiled
and sparse tiers, and its ``evaluate_many`` on every tier) and every
full-stack phase of the lockstep search
(:mod:`repro.neighborhood.multichain`) goes through it.  It measures a
whole candidate stack in as few passes as the tier allows —

* **dense** — the ``(K, N, 2)`` position tensor goes straight into
  :func:`repro.core.engine.batch.measure_stack` in chunks of
  :data:`DEFAULT_MAX_CHUNK`.  No per-candidate
  :class:`~repro.core.evaluation.Evaluation` objects are built; callers
  materialize only the rows they keep.
* **compiled** — the same tensor goes to one fused
  :class:`~repro.core.engine.compiled.CompiledEngine` kernel call.
* **sparse** — each candidate runs through one shared
  :class:`~repro.core.engine.sparse.SparseEngine` (the per-candidate
  cost and memory stay ``O(N k + M k)``, which dominates any object
  overhead at city scale); the resulting evaluations are wrapped in the
  same :class:`~repro.core.engine.batch.StackedMeasurement` interface.

Every tier produces bit-identical metric rows, so no caller needs to
know which tier it runs on.  :class:`StackedDeltaEngine` is the
incremental companion for lockstep chains; it takes the tier its
:class:`StackedEngine` resolved.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.coverage import coverage_matrix
from repro.core.engine.batch import StackedMeasurement, measure_stack
from repro.core.engine.components import labels_from_edge_stack
from repro.core.engine.dispatch import resolve_engine
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


class StackedEngine:
    """Tier dispatch and array-level measurement of candidate stacks.

    Pure measurement: no evaluation counters — the
    :class:`~repro.core.evaluation.Evaluator` adapter and the search
    layer on top own the bookkeeping.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        fitness: FitnessFunction | None = None,
        engine: str = "auto",
    ) -> None:
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
        :func:`~repro.core.engine.dispatch.select_engine` form, which
        also tells the search layer whether dense incumbent caches
        (:class:`StackedDeltaEngine`) are affordable.
        """
        if self._engine == "compiled":
            from repro.core.engine.dispatch import select_engine

            return select_engine(self._problem)
        return self._engine

    @property
    def accepts_positions(self) -> bool:
        """Whether :meth:`measure_positions` works on this engine.

        True for the dense and compiled tiers, whose kernels consume raw
        ``(K, N, 2)`` stacks; the numpy sparse path needs placements.
        """
        return self._engine in ("dense", "compiled")

    def _sparse_engine(self):
        if self._sparse is None:
            from repro.core.engine.sparse import SparseEngine

            self._sparse = SparseEngine(self._problem, self._fitness)
        return self._sparse

    def _compiled_engine(self):
        if self._compiled is None:
            from repro.core.engine.compiled import CompiledEngine

            self._compiled = CompiledEngine(self._problem, self._fitness)
        return self._compiled

    def measure_positions(self, positions: np.ndarray) -> StackedMeasurement:
        """Measure a raw ``(K, N, 2)`` position stack (dense/compiled).

        The fast lane for multi-chain phases: candidate rows are derived
        numerically from the incumbents' position rows, so no placement
        objects exist yet.  Raises on the numpy sparse path, which needs
        placements — use :meth:`measure_placements` there.  The compiled
        tier accepts stacks in *both* kernel forms, so city-scale
        portfolios stay on this lane too.
        """
        if not self.accepts_positions:
            raise ValueError(
                "measure_positions requires the dense or compiled engine; "
                "the sparse path measures placements (see "
                "measure_placements)"
            )
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 3 or positions.shape[2] != 2:
            raise ValueError(
                f"positions must be (K, N, 2), got {positions.shape}"
            )
        k = positions.shape[0]
        if k == 0:
            return self._empty_measurement()
        if self._engine == "compiled":
            # The fused kernels never materialize per-candidate tensors,
            # so no memory-bounding chunking is needed.
            return self._compiled_engine().measure_stack(positions)
        chunk = DEFAULT_MAX_CHUNK
        if k <= chunk:
            return measure_stack(self._problem, self._fitness, positions)
        return StackedMeasurement.concatenate(
            [
                measure_stack(
                    self._problem, self._fitness, positions[start : start + chunk]
                )
                for start in range(0, k, chunk)
            ]
        )

    def measure_placements(
        self, placements: Sequence[Placement]
    ) -> StackedMeasurement:
        """Measure a candidate set of placements on the dispatched path.

        Dense/compiled: stacks the (cached) position arrays and defers
        to :meth:`measure_positions`.  Sparse: evaluates each placement
        on the shared spatial-grid engine and keeps the evaluations, so
        :meth:`StackedMeasurement.evaluation` is free.  Every tier
        raises ``ValueError`` for a placement whose router count is not
        the fleet's.
        """
        if not placements:
            return self._empty_measurement()
        if self.accepts_positions:
            positions = np.stack([p.positions_array() for p in placements])
            return self.measure_positions(positions)
        evaluations = [
            self._sparse_engine().evaluate(placement) for placement in placements
        ]
        return StackedMeasurement(
            problem=self._problem,
            fitness_function=self._fitness,
            giant_sizes=np.array(
                [e.giant_size for e in evaluations], dtype=np.intp
            ),
            covered_clients=np.array(
                [e.covered_clients for e in evaluations], dtype=np.intp
            ),
            n_components=np.array(
                [e.metrics.n_components for e in evaluations], dtype=np.intp
            ),
            n_links=np.array(
                [e.metrics.n_links for e in evaluations], dtype=np.intp
            ),
            mean_degrees=np.array(
                [e.metrics.mean_degree for e in evaluations], dtype=float
            ),
            giant_masks=np.stack([e.giant_mask for e in evaluations]),
            fitness=np.array([e.fitness for e in evaluations], dtype=float),
            evaluations=evaluations,
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
    """Incumbent state of one chain (see :class:`StackedDeltaEngine`)."""

    __slots__ = (
        "placement",
        "positions",
        "adjacency",
        "coverage",
        "coverage32",
        "coverage_counts",
        "client_ptr",
        "client_hit",
        "edge_rows",
        "edge_cols",
    )

    def __init__(
        self,
        problem: ProblemInstance,
        placement: Placement,
        use_csr: bool = False,
    ) -> None:
        self.placement = placement
        self.positions = np.array(placement.positions_array(), dtype=float)
        # The reference matrix builders, so the cached state is exactly
        # what the scalar/batch paths would compute.
        self.adjacency = adjacency_matrix(
            self.positions, problem.fleet.radii, problem.link_rule
        )
        self.coverage = coverage_matrix(
            problem.clients.positions, self.positions, problem.fleet.radii
        )
        if use_csr:
            # Compiled tier: byte-scan edge extraction, same (i < j)
            # row-major order as the np.nonzero path below.
            from repro.core.engine.compiled import dense_edges

            self.edge_rows, self.edge_cols = dense_edges(self.adjacency)
        else:
            rows, cols = np.nonzero(self.adjacency)
            one_way = rows < cols
            self.edge_rows = rows[one_way].astype(np.intp)
            self.edge_cols = cols[one_way].astype(np.intp)
        self.coverage32 = None
        self.coverage_counts = None
        self.client_ptr = None
        self.client_hit = None
        if problem.coverage_rule is CoverageRule.ANY_ROUTER:
            self.coverage_counts = self.coverage.sum(axis=1, dtype=np.int32)
        elif use_csr:
            # Client-major hit lists for the compiled giant-only count
            # kernel (exact integers end to end).
            self.refresh_csr()
        else:
            # float32 copy for the per-phase sgemm: counts stay exact
            # (at most N ones per client, far below 2**24).
            self.coverage32 = self.coverage.astype(np.float32)

    def refresh_csr(self) -> None:
        """Rebuild the client-major CSR from the coverage matrix."""
        from repro.core.engine.compiled import client_csr

        self.client_ptr, self.client_hit = client_csr(self.coverage)


class StackedDeltaEngine:
    """Incremental stacked measurement for lockstep chains (dense layout).

    Every phase candidate differs from its chain's incumbent by at most
    a couple of *moved* routers, so rebuilding the full
    ``O(K * (N^2 + M * N))`` tensors per phase — what
    :func:`~repro.core.engine.batch.measure_stack` does — wastes almost
    all of its arithmetic on unchanged rows.  This engine keeps one
    :class:`_ChainCache` per chain (incumbent adjacency, coverage hits
    and one-way edge arrays, built by the reference formulas) and per
    phase recomputes only:

    * one ``(P, N)`` adjacency-row and one ``(P, M)`` coverage-column
      broadcast per chain for the ``P`` (candidate, moved-router) pairs;
    * per-candidate edge lists as *kept incumbent edges* (a boolean mask
      over the cached one-way arrays) plus the moved routers' new edges,
      labeled for the whole phase in one
      :func:`~repro.core.engine.components.labels_from_edge_stack` pass;
    * covered-client counts from one exact ``float32`` matmul of the
      cached hit matrix against the candidate giant masks, corrected per
      moved router (``GIANT_ONLY``), or cached per-client hit counts
      corrected per moved router (``ANY_ROUTER``).

    Results are bit-identical to ``measure_stack`` on the candidate
    placements (the multichain parity suite asserts it): the float64
    row/column predicates match the reference matrix builders
    elementwise, labels are canonical smallest-member ids, and the
    integer count arithmetic is exact.

    Protocol: :meth:`reset_chain` once per chain, :meth:`measure_phase`
    once per phase with the candidates as :class:`PhaseCandidates`
    arrays, :meth:`commit_chain` whenever a chain accepts a candidate.
    Pure measurement — counters live in the search layer.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        fitness: FitnessFunction | None = None,
        engine: str = "dense",
    ) -> None:
        self._problem = problem
        self._fitness = fitness if fitness is not None else WeightedSumFitness()
        radii = problem.fleet.radii
        link_range = problem.link_rule.range_matrix(radii)
        self._range_squared = link_range * link_range
        self._radii_squared = radii * radii
        self._clients = problem.clients.positions
        self._giant_only = problem.coverage_rule is not CoverageRule.ANY_ROUTER
        self._caches: dict[int, _ChainCache] = {}
        # The dense-layout caches are shared; ``engine`` — the tier a
        # StackedEngine already resolved — only picks who crunches them:
        # the numpy broadcasts/sgemm ("dense") or the C kernels
        # ("compiled").
        if engine == "compiled":
            from repro.core.engine import compiled

            compiled.require()
            self._compiled = compiled
        elif engine == "dense":
            self._compiled = None
        else:
            raise ValueError(
                "StackedDeltaEngine engine must be a resolved tier, "
                f"'dense' or 'compiled', got {engine!r}"
            )
        self._engine = engine

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
        """Who crunches the phase deltas: ``"dense"`` or ``"compiled"``."""
        return self._engine

    def reset_chain(self, chain: int, placement: Placement) -> None:
        """(Re)build chain ``chain``'s incumbent cache from scratch."""
        self._caches[chain] = _ChainCache(
            self._problem, placement, use_csr=self._compiled is not None
        )

    def commit_chain(self, chain: int, placement: Placement) -> None:
        """Advance chain ``chain``'s incumbent to an accepted placement.

        Rewrites only the moved routers' adjacency rows/columns and
        coverage columns in place (the same update rule as
        :meth:`~repro.core.engine.delta.DeltaEvaluator.commit`), then
        refreshes the one-way edge arrays from the patched adjacency.
        """
        cache = self._caches.get(chain)
        if cache is None:
            self.reset_chain(chain, placement)
            return
        new_positions = placement.positions_array()
        moved = np.flatnonzero((new_positions != cache.positions).any(axis=1))
        if moved.size == 0:
            cache.placement = placement
            return
        x = new_positions[:, 0]
        y = new_positions[:, 1]
        clients = self._clients
        for router in moved.tolist():
            dx = x[router] - x
            dy = y[router] - y
            row = dx * dx + dy * dy <= self._range_squared[router]
            row[router] = False
            cache.adjacency[router, :] = row
            cache.adjacency[:, router] = row
            if clients.size:
                cdx = clients[:, 0] - x[router]
                cdy = clients[:, 1] - y[router]
                column = cdx * cdx + cdy * cdy <= self._radii_squared[router]
                if cache.coverage_counts is not None:
                    # Keep the per-client totals in sync before the
                    # column is overwritten.
                    cache.coverage_counts += column
                    cache.coverage_counts -= cache.coverage[:, router]
                cache.coverage[:, router] = column
                if cache.coverage32 is not None:
                    cache.coverage32[:, router] = column
                if cache.client_ptr is not None:
                    # O(nnz) CSR rewrite for this column; rebuilding
                    # from the full matrix rescans mostly-unchanged
                    # cells (the commit hot spot at city scale).
                    cache.client_ptr, cache.client_hit = (
                        self._compiled.csr_update_column(
                            cache.client_ptr, cache.client_hit,
                            router, column,
                        )
                    )
        if self._compiled is not None:
            # Incremental edge refresh: drop edges touching a mover,
            # re-add each mover's links from its patched adjacency row
            # (final positions — the rows above already use them).
            # Edge order changes vs. np.nonzero, but every consumer
            # masks or union-finds, so the labels stay canonical.
            mover_mask = np.zeros(self._problem.n_routers, dtype=bool)
            mover_mask[moved] = True
            keep = ~(mover_mask[cache.edge_rows] | mover_mask[cache.edge_cols])
            row_parts = [cache.edge_rows[keep]]
            col_parts = [cache.edge_cols[keep]]
            for router in moved.tolist():
                partners = np.flatnonzero(cache.adjacency[router])
                # A mover-mover link appears in both rows; keep it once.
                partners = partners[
                    ~mover_mask[partners] | (partners > router)
                ]
                row_parts.append(np.minimum(partners, router))
                col_parts.append(np.maximum(partners, router))
            cache.edge_rows = np.concatenate(row_parts)
            cache.edge_cols = np.concatenate(col_parts)
        else:
            rows, cols = np.nonzero(cache.adjacency)
            one_way = rows < cols
            cache.edge_rows = rows[one_way].astype(np.intp)
            cache.edge_cols = cols[one_way].astype(np.intp)
        cache.positions[moved] = new_positions[moved]
        cache.placement = placement

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
        ``measurement.evaluation(k, placement)``.
        """
        n = self._problem.n_routers
        k_total = len(candidates)
        if k_total == 0:
            return _empty_stacked(self._problem, self._fitness)

        giant_sizes = np.empty(k_total, dtype=np.intp)
        covered = np.empty(k_total, dtype=np.intp)
        n_components = np.empty(k_total, dtype=np.intp)
        n_links = np.empty(k_total, dtype=np.intp)
        giant_masks = np.empty((k_total, n), dtype=bool)

        # ---- pass 1: per-chain adjacency deltas and edge stacks ------
        segments = _chain_segments(candidates)
        edge_sources: list[np.ndarray] = []
        edge_targets: list[np.ndarray] = []
        chain_scratch: list[tuple] = []
        for chain, start, end, pairs in segments:
            cache = self._caches[chain]
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
        if self._compiled is not None:
            # One union-find kernel for any stack size, replacing the
            # scipy-vs-propagation split (identical canonical labels).
            labels = self._compiled.label_components(k_total * n, sources, targets)
        else:
            labels = labels_from_edge_stack(k_total * n, sources, targets)
        counts = np.bincount(labels, minlength=k_total * n).reshape(k_total, n)
        labels = labels.reshape(k_total, n)
        labels -= np.arange(k_total, dtype=np.intp)[:, np.newaxis] * n
        # First maximum = smallest canonical label among the largest
        # components — the shared giant tie-break rule.
        giant_labels = counts.argmax(axis=1)
        giant_sizes[:] = counts[np.arange(k_total), giant_labels]
        n_components[:] = (counts > 0).sum(axis=1)
        np.equal(labels, giant_labels[:, np.newaxis], out=giant_masks)

        # ---- pass 2: coverage, per chain ------------------------------
        for (chain, start, end, _), scratch in zip(segments, chain_scratch):
            self._chain_coverage(
                self._caches[chain], start, end, scratch, giant_masks, covered
            )

        degree_totals = 2 * n_links
        measurement = StackedMeasurement(
            problem=self._problem,
            fitness_function=self._fitness,
            giant_sizes=giant_sizes,
            covered_clients=covered,
            n_components=n_components,
            n_links=n_links,
            mean_degrees=degree_totals / n,
            giant_masks=giant_masks,
        )
        measurement.fitness = self._fitness.score_rows(measurement)
        return measurement

    # ------------------------------------------------------------------
    # Per-chain internals
    # ------------------------------------------------------------------

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
        """Adjacency deltas + stacked edge arrays for one chain's segment.

        Candidates ``start:end`` are this chain's, and ``pairs`` slices
        their (candidate, mover) pairs.  Fills ``n_links[start:end]``
        and appends this chain's globally offset edge arrays; returns
        the scratch (pair arrays and new coverage columns) the coverage
        pass reuses.
        """
        n = self._problem.n_routers
        count = end - start
        # Candidate k's pairs are the contiguous run pair_first[k - start]
        # .. pair_first[k - start] + mover_lengths[k - start].
        cand_of_pair = candidates.pair_candidate[pairs] - start
        router_of_pair = candidates.pair_router[pairs]
        new_xy = candidates.pair_xy[pairs]
        n_pairs = router_of_pair.size
        mover_lengths = np.bincount(cand_of_pair, minlength=count)
        pair_first = np.cumsum(mover_lengths) - mover_lengths
        max_movers = int(mover_lengths.max(initial=0))

        if n_pairs:
            if self._compiled is not None:
                # Fused kernel: both broadcasts in one parallel pass,
                # same predicate order, diagonal already cleared.
                rows_new, cols_new = self._compiled.delta_rows_cols(
                    new_xy,
                    router_of_pair,
                    cache.positions,
                    self._range_squared,
                    self._clients,
                    self._radii_squared,
                )
            else:
                new_x = new_xy[:, 0]
                new_y = new_xy[:, 1]
                # New adjacency rows against the *incumbent* positions —
                # identical predicate to the reference adjacency_matrix.
                dx = new_x[:, np.newaxis] - cache.positions[np.newaxis, :, 0]
                dy = new_y[:, np.newaxis] - cache.positions[np.newaxis, :, 1]
                rows_new = (
                    dx * dx + dy * dy <= self._range_squared[router_of_pair]
                )
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

        # Mover-mover entries: computed from both new positions (the row
        # broadcast above tested against the co-mover's *old* position),
        # counted/emitted once per unordered pair.  One vectorized pass
        # per (i, j) mover slot over the candidates that have both.
        extra_local = extra_a = extra_b = np.zeros(0, dtype=np.intp)
        for i in range(max_movers):
            for j in range(i + 1, max_movers):
                local = np.flatnonzero(mover_lengths > j)
                pair_i = pair_first[local] + i
                pair_j = pair_first[local] + j
                a = router_of_pair[pair_i]
                b = router_of_pair[pair_j]
                dx2 = new_xy[pair_i, 0] - new_xy[pair_j, 0]
                dy2 = new_xy[pair_i, 1] - new_xy[pair_j, 1]
                linked = dx2 * dx2 + dy2 * dy2 <= self._range_squared[a, b]
                # Clear both directed row entries so the pair is neither
                # double-counted nor tested against stale positions.
                rows_new[pair_i, b] = False
                rows_new[pair_j, a] = False
                extra_local = np.concatenate((extra_local, local[linked]))
                extra_a = np.concatenate((extra_a, a[linked]))
                extra_b = np.concatenate((extra_b, b[linked]))

        # Kept incumbent edges: both endpoints unmoved.
        base_rows = cache.edge_rows
        base_cols = cache.edge_cols
        keep = np.ones((count, base_rows.size), dtype=bool)
        if max_movers:
            padded = np.full((count, max_movers), -1, dtype=np.intp)
            padded[cand_of_pair, np.arange(n_pairs) - pair_first[cand_of_pair]] = (
                router_of_pair
            )
            for w in range(max_movers):
                column = padded[:, w][:, np.newaxis]
                keep &= base_rows[np.newaxis, :] != column
                keep &= base_cols[np.newaxis, :] != column

        kept_counts = keep.sum(axis=1)
        new_counts = np.zeros(count, dtype=np.intp)
        if n_pairs:
            np.add.at(new_counts, cand_of_pair, rows_new.sum(axis=1))
        np.add.at(new_counts, extra_local, 1)
        n_links[start:end] = kept_counts + new_counts

        # Globally offset edge arrays for the phase labeling.
        offsets = (np.arange(start, end, dtype=np.intp)) * n
        kept_cand, kept_edge = np.nonzero(keep)
        edge_sources.append(offsets[kept_cand] + base_rows[kept_edge])
        edge_targets.append(offsets[kept_cand] + base_cols[kept_edge])
        if n_pairs:
            new_pair, new_target = np.nonzero(rows_new)
            edge_sources.append(
                offsets[cand_of_pair[new_pair]] + router_of_pair[new_pair]
            )
            edge_targets.append(offsets[cand_of_pair[new_pair]] + new_target)
        if extra_local.size:
            edge_sources.append(offsets[extra_local] + extra_a)
            edge_targets.append(offsets[extra_local] + extra_b)
        return (cand_of_pair, router_of_pair, cols_new)

    def _chain_coverage(
        self,
        cache: _ChainCache,
        start: int,
        end: int,
        scratch: tuple,
        giant_masks: np.ndarray,
        covered: np.ndarray,
    ) -> None:
        """Covered-client counts for one chain's segment."""
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
        if self._compiled is not None:
            # GIANT_ONLY via the all-integer CSR kernel: per-client
            # covering-giant counts from the incumbent's hit lists, then
            # each giant mover swaps its old column for its new one.
            covered[start:end] = self._compiled.giant_covered(
                cache.client_ptr,
                cache.client_hit,
                self._problem.n_routers,
                giant_masks[start:end],
                cand_of_pair,
                router_of_pair,
                cols_new,
                cache.coverage,
            )
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

    def __repr__(self) -> str:
        return (
            f"StackedDeltaEngine(n_routers={self._problem.n_routers}, "
            f"chains={len(self._caches)})"
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
        evaluations=[],
    )
