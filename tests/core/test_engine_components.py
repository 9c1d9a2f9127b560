"""Tests for the engine's vectorized component labeling.

Label propagation is cross-validated against the union-find reference:
same canonical (smallest-member) labels, exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connectivity import (
    UnionFind,
    canonical_labels,
    connected_components,
    connected_components_from_arrays,
    structure_from_canonical_labels,
)
from repro.core.engine.components import labels_from_edges


def random_edges(n: int, n_edges: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if n_edges == 0:
        return np.zeros((0, 2), dtype=np.intp)
    edges = rng.integers(0, n, size=(n_edges, 2))
    return edges[edges[:, 0] != edges[:, 1]]


class TestLabelsFromEdges:
    def test_empty_graph(self):
        assert labels_from_edges(0, np.array([]), np.array([])).shape == (0,)

    def test_no_edges(self):
        labels = labels_from_edges(5, np.array([]), np.array([]))
        assert np.array_equal(labels, np.arange(5))

    def test_path_graph_collapses_to_zero(self):
        rows = np.arange(9)
        cols = np.arange(1, 10)
        labels = labels_from_edges(10, rows, cols)
        assert np.array_equal(labels, np.zeros(10, dtype=np.intp))

    def test_labels_are_smallest_member(self):
        labels = labels_from_edges(6, np.array([4, 1]), np.array([5, 2]))
        assert labels.tolist() == [0, 1, 1, 3, 4, 4]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            labels_from_edges(3, np.array([0]), np.array([3]))

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError):
            labels_from_edges(3, np.array([-1]), np.array([0]))

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            labels_from_edges(-1, np.array([]), np.array([]))

    def test_self_loops_and_duplicates_change_nothing(self):
        labels = labels_from_edges(
            5, np.array([3, 0, 2, 2]), np.array([3, 2, 0, 0])
        )
        assert labels.tolist() == [0, 1, 0, 3, 4]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 120), st.integers(0, 10_000))
    def test_matches_union_find_exactly(self, n, n_edges, seed):
        edges = random_edges(n, n_edges, seed)
        reference = connected_components(
            n, [(int(a), int(b)) for a, b in edges]
        )
        labels = labels_from_edges(n, edges[:, 0], edges[:, 1])
        assert np.array_equal(labels, reference.labels)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 80), st.integers(0, 10_000))
    def test_structure_matches_reference(self, n, n_edges, seed):
        edges = random_edges(n, n_edges, seed)
        reference = connected_components_from_arrays(n, edges[:, 0], edges[:, 1])
        ours = structure_from_canonical_labels(
            labels_from_edges(n, edges[:, 0], edges[:, 1])
        )
        assert ours.sizes == reference.sizes
        assert ours.giant_size == reference.giant_size
        assert ours.giant_label() == reference.giant_label()
        assert np.array_equal(ours.giant_mask(), reference.giant_mask())


class TestCanonicalLabels:
    def test_empty(self):
        assert canonical_labels(np.array([], dtype=np.intp)).shape == (0,)

    def test_root_labels_canonicalized(self):
        # Component {0, 2} labeled by root 2, {1} by root 1.
        raw = np.array([2, 1, 2])
        assert canonical_labels(raw).tolist() == [0, 1, 0]

    def test_vectorized_union_find_labels_are_roots(self):
        dsu = UnionFind(6)
        dsu.union(0, 3)
        dsu.union(3, 5)
        labels = dsu.labels()
        assert labels[0] == labels[3] == labels[5]
        assert labels[1] != labels[0]
        # Every label is the root of its element's set.
        assert all(int(labels[i]) == dsu.find(i) for i in range(6))


class TestGiantLabelCache:
    def test_cached_value_is_stable(self):
        structure = connected_components(4, [(0, 1), (2, 3)])
        first = structure.giant_label()
        assert structure.giant_label() == first
        assert structure.giant_mask().tolist() == [True, True, False, False]
