"""Vectorized connected components for the evaluation engine.

The scalar path labels the router graph with a Python union-find; this
module provides the array-native equivalents the batched and incremental
evaluators run on: min-label propagation over ``np.nonzero`` edge arrays
(single graph or a whole stack of candidate graphs at once).  All label
arrays are *canonical* — each node carries the smallest node id of its
component, exactly like :func:`repro.core.connectivity.canonical_labels`
— so every evaluation path agrees bit-for-bit on components, giant-mask
tie-breaking included.
"""

from __future__ import annotations

import numpy as np

__all__ = ["labels_from_edges", "labels_from_edge_stack"]

try:  # scipy ships in the standard environment but stays optional.
    from scipy.sparse import coo_matrix as _coo_matrix
    from scipy.sparse.csgraph import connected_components as _connected_components
except ImportError:  # pragma: no cover - exercised only without scipy
    _coo_matrix = None
    _connected_components = None

#: Below this node count the propagation kernel beats scipy's sparse
#: construction overhead (measured: ~0.04 ms vs ~0.23 ms at one
#: 128-router graph, parity at ~32k nodes, ~3x the other way on
#: structured multi-chain stacks of ~60k nodes).
_SCIPY_STACK_THRESHOLD = 4096


def labels_from_edges(
    n_nodes: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Canonical component labels from parallel edge-endpoint arrays.

    Min-label propagation with pointer jumping: each sweep pushes the
    smaller endpoint label across every edge at once, then compresses
    label chains (``labels = labels[labels]``) until stable.  Converges
    in :math:`O(\\log n)` sweeps on typical graphs, and every sweep is a
    handful of whole-array numpy operations — no per-edge Python loop.
    """
    if n_nodes < 0:
        raise ValueError(f"node count must be non-negative, got {n_nodes}")
    labels = np.arange(n_nodes, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.size == 0:
        return labels
    if rows.size and not (
        0 <= int(min(rows.min(), cols.min()))
        and int(max(rows.max(), cols.max())) < n_nodes
    ):
        raise ValueError(f"edge endpoints out of range for {n_nodes} nodes")
    while True:
        np.minimum.at(labels, rows, labels[cols])
        np.minimum.at(labels, cols, labels[rows])
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels[rows], labels[cols]):
            return labels


def labels_from_edge_stack(
    n_nodes: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Canonical labels tuned for large block-diagonal edge stacks.

    Same contract and results as :func:`labels_from_edges` — canonical
    smallest-member component labels — but multi-chain phases label tens
    of thousands of stacked nodes at once, where scipy's C
    connected-components (followed by a vectorized canonicalization
    pass) beats min-label propagation by ~3x on structured placement
    graphs.  Small graphs and scipy-less environments fall back to the
    propagation kernel, which wins below sparse-construction overhead.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    if (
        _connected_components is None
        or n_nodes < _SCIPY_STACK_THRESHOLD
        or rows.size == 0
    ):
        return labels_from_edges(n_nodes, rows, cols)
    # Out-of-range endpoints are rejected by the coo constructor itself,
    # so no separate bounds scan is needed on this hot path.  int32
    # indices halve the sort bandwidth of the csr conversion; stack
    # sizes stay far below 2**31 nodes.
    if n_nodes <= np.iinfo(np.int32).max:
        rows = rows.astype(np.int32, copy=False)
        cols = cols.astype(np.int32, copy=False)
    # float64 data up front: csgraph validation casts to float64 anyway,
    # so this turns its conversion pass into a cheap same-dtype copy.
    matrix = _coo_matrix(
        (np.ones(rows.size, dtype=np.float64), (rows, cols)),
        shape=(n_nodes, n_nodes),
    ).tocsr()
    # Weak connectivity over the one-directional edge list equals
    # undirected connectivity, and skips the symmetrizing transpose that
    # directed=False would pay.
    n_components, component = _connected_components(
        matrix, directed=True, connection="weak"
    )
    # Component ids are discovery-ordered; remap each to its smallest
    # member node id, the canonical labeling every engine path shares.
    canonical = np.full(n_components, n_nodes, dtype=np.intp)
    np.minimum.at(canonical, component, np.arange(n_nodes, dtype=np.intp))
    return canonical[component]
