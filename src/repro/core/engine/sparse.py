"""Sparse spatial-grid measurement building blocks.

The dense engines materialize ``O(N^2)`` adjacency and ``O(M * N)``
coverage matrices, so memory — not compute — caps instance size around a
few hundred routers.  At city scale (thousands of routers, tens of
thousands of clients on a large area) almost every router pair is out of
radio range, which is exactly the regime where neighbor queries beat
pairwise matrices: this module bins positions into square cells at least
as large as the radio reach, generates candidate pairs only from
same-and-adjacent bins, and tests the exact link/coverage predicate on
those candidates.  A measurement drops from ``O(N^2 + M * N)`` to
roughly ``O(N k + M k)`` for realistic densities (``k`` = neighbors per
bin ring).

This module holds the edge and hit builders only; the measurement that
reduces them to metrics lives in :mod:`repro.core.engine.stacked` —
:meth:`~repro.core.engine.stacked.StackedEngine.measure_placements` on
the sparse tier, and the sparse layout of
:class:`~repro.core.engine.stacked.StackedDeltaEngine`.

Bit-identity with the dense engines: binning is purely a *conservative
prune*.  A pair in bins more than one apart along either axis is
separated by strictly more than one cell width, which is at least the
maximum link range (respectively coverage radius), so the dense
comparison would reject it anyway; every surviving candidate is tested
with the same float64 subtract/square/compare the scalar formulas use.
The resulting edge and hit sets are therefore exactly those the dense
matrices hold (the parity suite asserts it).
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import ProblemInstance
from repro.core.radio import LinkRule

__all__ = [
    "HIT_QUERY_CHUNK",
    "SpatialGridIndex",
    "expand_ranges",
    "link_cell_size",
    "coverage_cell_size",
    "sparse_edges",
    "SparseEngine",
]

#: Routers per client-index query pass of
#: :meth:`SparseEngine.coverage_hits`: the transient candidate pairs are
#: held to a small multiple of the hits a pass keeps (~25k pairs a pass
#: at city scale).
HIT_QUERY_CHUNK = 256

#: Cross-bin offsets covering each unordered bin pair exactly once.
_HALF_NEIGHBORHOOD = ((0, 1), (1, -1), (1, 0), (1, 1))

#: The full 3x3 ring, for point-against-index queries, as ``(9, 1)``
#: offset columns.
_FULL_NEIGHBORHOOD = tuple((ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1))
_RING_X = np.array([ox for ox, _ in _FULL_NEIGHBORHOOD])[:, np.newaxis]
_RING_Y = np.array([oy for _, oy in _FULL_NEIGHBORHOOD])[:, np.newaxis]


def expand_ranges(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(i, slot)`` for every slot in ``[starts[i], ends[i])``.

    The flattened ragged-range trick: one ``repeat`` for the sources,
    one ``repeat`` + ``arange`` for the in-range offsets.
    """
    lengths = np.maximum(ends - starts, 0)
    total = int(lengths.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty.copy()
    sources = np.repeat(np.arange(len(starts), dtype=np.intp), lengths)
    run_starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    slots = np.repeat(starts, lengths) + (
        np.arange(total, dtype=np.intp) - run_starts
    )
    return sources, slots.astype(np.intp, copy=False)


def link_cell_size(radii: np.ndarray, link_rule: LinkRule) -> float:
    """Bin width for router-router adjacency under ``link_rule``.

    At least the maximum pairwise link range, so two routers whose bins
    differ by more than one along an axis can never link.
    """
    return max(float(np.ceil(link_rule.max_reach(radii))), 1.0)


def coverage_cell_size(radii: np.ndarray) -> float:
    """Bin width for client coverage: at least the largest radius."""
    if radii.size == 0:
        return 1.0
    return max(float(np.ceil(float(radii.max()))), 1.0)


class SpatialGridIndex:
    """Cell-binned 2-D point index with conservative neighbor queries.

    Points are hashed to square bins of ``cell_size``; queries return
    *candidate* pairs from the same or adjacent bins (a superset of all
    pairs within ``cell_size`` of each other), which the caller filters
    with the exact predicate.  Both query styles are a handful of
    whole-array ``searchsorted``/``repeat`` passes — no per-point Python
    loop.
    """

    __slots__ = (
        "cell_size",
        "n_points",
        "_order",
        "_sorted_ids",
        "_min_bx",
        "_max_bx",
        "_min_by",
        "_max_by",
        "_stride",
    )

    def __init__(self, points: np.ndarray, cell_size: float) -> None:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or (points.size and points.shape[1] != 2):
            raise ValueError(f"points must be (P, 2), got {points.shape}")
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = float(cell_size)
        self.n_points = int(points.shape[0])
        bx = np.floor(points[:, 0] / self.cell_size).astype(np.int64)
        by = np.floor(points[:, 1] / self.cell_size).astype(np.int64)
        if self.n_points:
            self._min_bx = int(bx.min())
            self._max_bx = int(bx.max())
            self._min_by = int(by.min())
            self._max_by = int(by.max())
        else:
            self._min_bx = self._max_bx = self._min_by = self._max_by = 0
        self._stride = self._max_by - self._min_by + 1
        # Only the sorted bin ids are kept: a point's bin coordinates
        # are recoverable from its id, so the index stays two arrays.
        ids = self._bin_ids(bx, by)
        self._order = np.argsort(ids, kind="stable").astype(np.intp, copy=False)
        self._sorted_ids = ids[self._order]

    def _bin_ids(self, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
        """Row-major bin id; only meaningful for in-range bin coords."""
        return (bx - self._min_bx) * self._stride + (by - self._min_by)

    def _in_range(self, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
        return (
            (bx >= self._min_bx)
            & (bx <= self._max_bx)
            & (by >= self._min_by)
            & (by <= self._max_by)
        )

    def candidate_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All unordered point pairs from same-or-adjacent bins, each once.

        A superset of every pair within ``cell_size``; pairs whose bins
        differ by >= 2 along an axis (distance strictly greater than
        ``cell_size``) are never generated.
        """
        n = self.n_points
        if n < 2:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty.copy()
        ids = self._sorted_ids
        bx = ids // self._stride + self._min_bx
        by = ids % self._stride + self._min_by
        source_parts: list[np.ndarray] = []
        target_parts: list[np.ndarray] = []
        # Same-bin pairs: each sorted slot against the rest of its bin.
        ends = np.searchsorted(ids, ids, side="right")
        sources, targets = expand_ranges(np.arange(n, dtype=np.int64) + 1, ends)
        source_parts.append(sources)
        target_parts.append(targets)
        # Cross-bin pairs: half the ring, so each bin pair appears once.
        for ox, oy in _HALF_NEIGHBORHOOD:
            tbx = bx + ox
            tby = by + oy
            valid = self._in_range(tbx, tby)
            tids = self._bin_ids(tbx, tby)
            starts = np.searchsorted(ids, tids, side="left")
            stops = np.searchsorted(ids, tids, side="right")
            stops = np.where(valid, stops, starts)
            sources, targets = expand_ranges(starts, stops)
            source_parts.append(sources)
            target_parts.append(targets)
        order = self._order
        return (
            order[np.concatenate(source_parts)],
            order[np.concatenate(target_parts)],
        )

    def query_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ``(query, member)`` pairs from each query's 3x3 ring.

        ``points`` may lie anywhere (even outside the indexed extent):
        ring bins outside the extent simply contribute nothing, so a
        query more than one bin away from every occupied bin — strictly
        beyond ``cell_size`` of every member — returns no candidates.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or (points.size and points.shape[1] != 2):
            raise ValueError(f"points must be (P, 2), got {points.shape}")
        if points.shape[0] == 0 or self.n_points == 0:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty.copy()
        # All nine ring offsets in one pass: ``(9, P)`` bin coordinates,
        # flattened offset-major, then one ragged expansion.
        pbx = np.floor(points[:, 0] / self.cell_size).astype(np.int64)
        pby = np.floor(points[:, 1] / self.cell_size).astype(np.int64)
        tbx = pbx[np.newaxis, :] + _RING_X
        tby = pby[np.newaxis, :] + _RING_Y
        tids = self._bin_ids(tbx, tby).ravel()
        ids = self._sorted_ids
        starts = np.searchsorted(ids, tids, side="left")
        stops = np.searchsorted(ids, tids, side="right")
        stops = np.where(self._in_range(tbx, tby).ravel(), stops, starts)
        ring_queries, slots = expand_ranges(starts, stops)
        return ring_queries % points.shape[0], self._order[slots]


def link_hits(
    positions: np.ndarray,
    radii: np.ndarray,
    link_rule: LinkRule,
    rows: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Filter candidate router pairs with the exact link predicate.

    The one implementation of the float64 ``d^2 <= link_range^2``
    comparison every sparse path (full edge build, delta move updates)
    goes through, so the bit-identity contract cannot diverge between
    them.
    """
    if rows.size == 0:
        return rows, cols
    dx = positions[rows, 0] - positions[cols, 0]
    dy = positions[rows, 1] - positions[cols, 1]
    reach = link_rule.range_pairs(radii[rows], radii[cols])
    keep = dx * dx + dy * dy <= reach * reach
    return rows[keep], cols[keep]


def sparse_edges(
    positions: np.ndarray,
    radii: np.ndarray,
    link_rule: LinkRule,
    index: SpatialGridIndex | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact undirected link edges (each pair once) via bin pruning.

    Boolean-identical to the nonzero entries of
    :func:`repro.core.network.adjacency_matrix`: candidates come from the
    spatial index, the predicate is the same float64
    ``d^2 <= link_range^2`` comparison on the same subtractions.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if radii.shape != (n,):
        raise ValueError(f"radii shape {radii.shape} does not match {n} routers")
    if index is None:
        index = SpatialGridIndex(positions, link_cell_size(radii, link_rule))
    rows, cols = index.candidate_pairs()
    return link_hits(positions, radii, link_rule, rows, cols)


class SparseEngine:
    """The static spatial state of one problem instance.

    Caches everything static across placements — the client spatial
    index above all (clients never move) and the link bin width — and
    turns router positions into exact coverage hits
    (:meth:`coverage_hits`, :meth:`router_hits`) or an incumbent's
    updated edge and hit arrays (:meth:`apply_moves`).
    :class:`~repro.core.engine.stacked.StackedEngine` builds the one
    its sparse tier measures with; the sparse layout of
    :class:`~repro.core.engine.stacked.StackedDeltaEngine` builds its
    own.
    """

    def __init__(self, problem: ProblemInstance) -> None:
        self._problem = problem
        radii = problem.fleet.radii
        self._radii = radii
        self._radii_squared = radii * radii
        self.link_cell = link_cell_size(radii, problem.link_rule)
        self.client_index = SpatialGridIndex(
            problem.clients.positions, coverage_cell_size(radii)
        )

    @property
    def problem(self) -> ProblemInstance:
        """The instance this engine indexes."""
        return self._problem

    def point_hits(
        self, points: np.ndarray, radii_squared: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Passing ``(point, client)`` coverage pairs for arbitrary points.

        Point ``p`` covers with squared radius ``radii_squared[p]``.  One
        client-index query plus the exact float64 radius test — the
        single implementation every sparse coverage path builds on, so
        the coverage predicate cannot diverge between them.
        """
        local, client_idx = self.client_index.query_points(points)
        if local.size == 0:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty.copy()
        clients = self._problem.clients.positions
        dx = clients[client_idx, 0] - points[local, 0]
        dy = clients[client_idx, 1] - points[local, 1]
        hit = dx * dx + dy * dy <= radii_squared[local]
        return local[hit], client_idx[hit]

    def coverage_hits(
        self, positions: np.ndarray, router_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Passing ``(router, client)`` coverage pairs for given routers.

        Queried in passes of :data:`HIT_QUERY_CHUNK` routers, so the
        candidate-pair arrays stay bounded; pairs come pass by pass.
        """
        router_parts: list[np.ndarray] = []
        client_parts: list[np.ndarray] = []
        step = HIT_QUERY_CHUNK
        for start in range(0, router_ids.size, step):
            chunk = router_ids[start : start + step]
            local, clients = self.point_hits(
                positions[chunk], self._radii_squared[chunk]
            )
            router_parts.append(chunk[local])
            client_parts.append(clients)
        if not router_parts:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty.copy()
        return np.concatenate(router_parts), np.concatenate(client_parts)

    def router_hits(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every router's ``(router, client)`` hit pairs, router-major.

        The stable sort keeps each router's clients in query order.
        """
        routers, clients = self.coverage_hits(
            positions, np.arange(positions.shape[0], dtype=np.intp)
        )
        order = np.argsort(routers, kind="stable")
        return routers[order], clients[order]

    def apply_moves(
        self,
        router_index: SpatialGridIndex,
        positions: np.ndarray,
        moved: np.ndarray,
        edges: tuple[np.ndarray, np.ndarray],
        hits: tuple[np.ndarray, np.ndarray],
        link_filter=link_hits,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """An incumbent's edge and hit arrays after ``moved`` routers move.

        The one mover-update rule of the sparse caches: every cached
        entry touching a moved router is dropped, then only the moved
        routers' new neighborhoods are re-queried — link partners
        against ``router_index`` (the incumbent's router index: unmoved
        routers are exactly where it put them), exhaustive pairs among
        the moved routers themselves, and coverage hits against the
        static client index.  ``positions`` are the candidate's,
        ``link_filter`` is :func:`link_hits` or its compiled twin.
        Returns ``(edge_rows, edge_cols, hit_router, hit_client)``;
        kept entries stay in their cached order, new ones follow.
        """
        edge_rows, edge_cols = edges
        hit_router, hit_client = hits
        if moved.size == 0:
            return edge_rows, edge_cols, hit_router, hit_client
        moved = moved.astype(np.intp, copy=False)
        is_moved = np.zeros(self._problem.n_routers, dtype=bool)
        is_moved[moved] = True

        keep = ~(is_moved[edge_rows] | is_moved[edge_cols])
        row_parts = [edge_rows[keep]]
        col_parts = [edge_cols[keep]]
        link_rule = self._problem.link_rule
        # A moved router's new position may fall outside the index
        # extent; the query still finds every in-extent neighbor bin of
        # that position, and unmoved routers all live in the extent.
        local, partner = router_index.query_points(positions[moved])
        if local.size:
            usable = ~is_moved[partner]
            rows, cols = link_filter(
                positions, self._radii, link_rule,
                moved[local][usable], partner[usable],
            )
            row_parts.append(rows)
            col_parts.append(cols)
        # Moved-vs-moved links, each unordered pair tested once.
        if moved.size > 1:
            a_idx, b_idx = np.triu_indices(moved.size, k=1)
            rows, cols = link_filter(
                positions, self._radii, link_rule, moved[a_idx], moved[b_idx]
            )
            row_parts.append(rows)
            col_parts.append(cols)

        kept = ~is_moved[hit_router]
        new_router, new_client = self.coverage_hits(positions, moved)
        return (
            np.concatenate(row_parts),
            np.concatenate(col_parts),
            np.concatenate([hit_router[kept], new_router]),
            np.concatenate([hit_client[kept], new_client]),
        )
