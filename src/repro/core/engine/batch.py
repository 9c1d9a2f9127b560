"""The dense tier's vectorized stack measurement.

One :func:`measure_stack` call measures ``K`` candidate placements in a
single shot: positions are stacked into a ``(K, N, 2)`` tensor,
pairwise distances and link-rule range comparisons are broadcast over
the whole stack, connected components are labeled for all candidates in
one propagation pass and client coverage is a single ``(K, M, N)``
comparison.  :class:`~repro.core.engine.stacked.StackedEngine` calls it
in bounded chunks on the dense tier.  The per-candidate rows are
bit-identical to the reference
:meth:`~repro.core.evaluation.Evaluator.evaluate` — the parity test
suite asserts it — so search algorithms can batch their candidate sets
freely without perturbing experiment results.

:class:`StackedMeasurement` is what every tier's stack measurement
returns — the dense chunks, the compiled kernels, the numpy sparse
loop and the delta engine's phases alike: metric arrays only, one row
per candidate, and every row materializes the same way,
``measurement.evaluation(index, placement)``.

Grid coordinates are small integers, so the hot comparisons run in
``int32``: squared cell distances are exact in both ``int32`` and
``float64``, and ``d2 <= r2`` with integer ``d2`` is equivalent to
``d2 <= floor(r2)``, which turns the float threshold comparison into a
pure integer one with identical booleans.  Non-integral positions (not
produced by :class:`~repro.core.solution.Placement`, but allowed through
the public helpers) fall back to the float64 reference formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.engine.components import labels_from_edges
from repro.core.evaluation import Evaluation
from repro.core.fitness import FitnessFunction, NetworkMetrics
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule
from repro.core.solution import Placement

__all__ = [
    "StackedMeasurement",
    "batch_adjacency",
    "batch_coverage",
    "measure_stack",
]

#: Coordinates of magnitude below this keep squared distances inside
#: int32 (2 * 32767^2 = 2147352578 < 2^31 - 1).
_INT_COORD_LIMIT = 16384

#: Coordinates in [0, 128) keep squared distances inside int16 (max
#: 2 * 127^2 = 32258 < 2^15), halving memory traffic again.  The range
#: must be one-sided: mixed-sign coordinates can differ by up to twice
#: the magnitude bound, whose square would overflow int16.
_INT16_COORD_LIMIT = 128


def batch_adjacency(
    positions: np.ndarray, radii: np.ndarray, link_rule: LinkRule
) -> np.ndarray:
    """Boolean ``(K, N, N)`` adjacency stack for ``(K, N, 2)`` positions.

    Elementwise identical to
    :func:`repro.core.network.adjacency_matrix` applied per candidate
    (same per-axis broadcasting, same squared-range comparison).
    """
    if positions.ndim != 3 or positions.shape[2] != 2:
        raise ValueError(f"positions must be (K, N, 2), got {positions.shape}")
    n = positions.shape[1]
    if radii.shape != (n,):
        raise ValueError(f"radii shape {radii.shape} does not match {n} routers")
    link_range = link_rule.range_matrix(radii)
    range_squared = link_range * link_range
    int_dtype = _int_dtype(positions)
    if int_dtype is not None:
        adjacency = _pairwise_within(positions.astype(int_dtype), range_squared)
    else:
        x = positions[:, :, 0]
        y = positions[:, :, 1]
        dx = x[:, :, np.newaxis] - x[:, np.newaxis, :]
        dy = y[:, :, np.newaxis] - y[:, np.newaxis, :]
        adjacency = dx * dx + dy * dy <= range_squared
    diagonal = np.arange(n)
    adjacency[:, diagonal, diagonal] = False
    return adjacency


def batch_coverage(
    client_positions: np.ndarray, positions: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Boolean ``(K, M, N)`` coverage stack: client within router range.

    Elementwise identical to
    :func:`repro.core.coverage.coverage_matrix` applied per candidate.
    """
    n_candidates = positions.shape[0]
    if client_positions.size == 0:
        return np.zeros((n_candidates, 0, positions.shape[1]), dtype=bool)
    radii_squared = radii * radii
    position_dtype = _int_dtype(positions)
    client_dtype = _int_dtype(client_positions)
    if position_dtype is not None and client_dtype is not None:
        int_dtype = np.promote_types(position_dtype, client_dtype)
        return _client_within(
            client_positions.astype(int_dtype),
            positions.astype(int_dtype),
            radii_squared,
        )
    cx = client_positions[:, 0]
    cy = client_positions[:, 1]
    dx = cx[np.newaxis, :, np.newaxis] - positions[:, np.newaxis, :, 0]
    dy = cy[np.newaxis, :, np.newaxis] - positions[:, np.newaxis, :, 1]
    return dx * dx + dy * dy <= radii_squared[np.newaxis, np.newaxis, :]


def _int_dtype(values: np.ndarray) -> "np.dtype | None":
    """The narrowest int dtype whose squared distances cannot overflow.

    ``None`` when the coordinates are not whole numbers (or too large),
    which sends the caller down the float64 reference path.
    """
    if not bool(np.all(values == np.rint(values))):
        return None
    if bool(np.all((values >= 0) & (values < _INT16_COORD_LIMIT))):
        return np.dtype(np.int16)
    if bool(np.all(np.abs(values) < _INT_COORD_LIMIT)):
        return np.dtype(np.int32)
    return None


def _floor_threshold(threshold_squared: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``floor`` of a float squared-range threshold, clamped to ``dtype``.

    For integer squared distances, ``d2 <= t`` and ``d2 <= floor(t)``
    select exactly the same pairs, so the comparison can run entirely in
    integers without touching the float semantics of the scalar path.
    Clamping to the dtype's max is lossless: the achievable squared
    distances always fit the dtype, so a clamped threshold still admits
    every pair.
    """
    return np.minimum(np.floor(threshold_squared), np.iinfo(dtype).max).astype(dtype)


def _pairwise_within(
    positions: np.ndarray, range_squared: np.ndarray
) -> np.ndarray:
    """Integer ``(K, N, N)`` test ``d2(i, j) <= range_squared[i, j]``."""
    x = positions[:, :, 0]
    y = positions[:, :, 1]
    dx = x[:, :, np.newaxis] - x[:, np.newaxis, :]
    np.multiply(dx, dx, out=dx)
    dy = y[:, :, np.newaxis] - y[:, np.newaxis, :]
    np.multiply(dy, dy, out=dy)
    dx += dy
    return dx <= _floor_threshold(range_squared, dx.dtype)


def _client_within(
    clients: np.ndarray, positions: np.ndarray, radii_squared: np.ndarray
) -> np.ndarray:
    """Integer ``(K, M, N)`` test: client ``m`` within router ``n``'s radius."""
    dx = clients[np.newaxis, :, 0, np.newaxis] - positions[:, np.newaxis, :, 0]
    np.multiply(dx, dx, out=dx)
    dy = clients[np.newaxis, :, 1, np.newaxis] - positions[:, np.newaxis, :, 1]
    np.multiply(dy, dy, out=dy)
    dx += dy
    return dx <= _floor_threshold(radii_squared, dx.dtype)


@dataclass(eq=False)
class StackedMeasurement:
    """Array-level metrics for ``K`` stacked candidate placements.

    The multi-chain search layer measures whole candidate stacks per
    phase but only ever *materializes* the few winners, so this holds
    one metric array per field (indexed by candidate) instead of ``K``
    :class:`~repro.core.evaluation.Evaluation` objects.
    :meth:`evaluation` converts any row into a full, bit-identical
    ``Evaluation`` on demand.  Implements the row protocol that
    :meth:`repro.core.fitness.FitnessFunction.score_rows` consumes.
    """

    problem: ProblemInstance
    fitness_function: FitnessFunction
    giant_sizes: np.ndarray
    covered_clients: np.ndarray
    n_components: np.ndarray
    n_links: np.ndarray
    mean_degrees: np.ndarray
    giant_masks: np.ndarray
    #: Per-row scalar fitness, filled by :meth:`scored` via
    #: ``fitness_function.score_rows`` (bit-identical to per-row
    #: ``score`` calls).
    fitness: np.ndarray = field(default=None)

    def __len__(self) -> int:
        return int(self.giant_sizes.shape[0])

    @property
    def n_routers(self) -> int:
        """Fleet size (shared by every candidate row)."""
        return self.problem.n_routers

    @property
    def n_clients(self) -> int:
        """Client count (shared by every candidate row)."""
        return self.problem.n_clients

    def metrics(self, index: int) -> NetworkMetrics:
        """The full metric bundle of one row."""
        return NetworkMetrics(
            giant_size=int(self.giant_sizes[index]),
            n_routers=self.problem.n_routers,
            covered_clients=int(self.covered_clients[index]),
            n_clients=self.problem.n_clients,
            n_components=int(self.n_components[index]),
            n_links=int(self.n_links[index]),
            mean_degree=float(self.mean_degrees[index]),
        )

    def evaluation(self, index: int, placement: Placement | None = None) -> Evaluation:
        """Materialize row ``index`` as a full :class:`Evaluation`.

        ``placement`` must be supplied: a measurement holds metric
        arrays only, on every tier.
        """
        if placement is None:
            raise ValueError("materializing a measurement row needs its placement")
        return Evaluation(
            placement=placement,
            metrics=self.metrics(index),
            fitness=float(self.fitness[index]),
            giant_mask=self.giant_masks[index],
        )

    @classmethod
    def scored(
        cls,
        problem: ProblemInstance,
        fitness_function: FitnessFunction,
        giant_sizes: np.ndarray,
        covered_clients: np.ndarray,
        n_components: np.ndarray,
        n_links: np.ndarray,
        giant_masks: np.ndarray,
    ) -> "StackedMeasurement":
        """Integer metric rows with mean degrees and fitness filled in.

        Every tier's stack measurement ends here: ``2 * n_links / N`` is
        an exact integer divided by the same ``N`` as the reference
        ``degrees().mean()``, and ``score_rows`` is bit-identical to
        per-row ``score`` calls.
        """
        measurement = cls(
            problem=problem,
            fitness_function=fitness_function,
            giant_sizes=giant_sizes,
            covered_clients=covered_clients,
            n_components=n_components,
            n_links=n_links,
            mean_degrees=2 * n_links / problem.n_routers,
            giant_masks=giant_masks,
        )
        measurement.fitness = fitness_function.score_rows(measurement)
        return measurement

    def take(self, rows: np.ndarray) -> "StackedMeasurement":
        """The measurement of ``rows`` (row indices, repeats allowed), in
        their order."""
        return StackedMeasurement(
            problem=self.problem,
            fitness_function=self.fitness_function,
            giant_sizes=self.giant_sizes[rows],
            covered_clients=self.covered_clients[rows],
            n_components=self.n_components[rows],
            n_links=self.n_links[rows],
            mean_degrees=self.mean_degrees[rows],
            giant_masks=self.giant_masks[rows],
            fitness=self.fitness[rows],
        )

    @classmethod
    def concatenate(
        cls, parts: "Sequence[StackedMeasurement]"
    ) -> "StackedMeasurement":
        """Join chunked measurements back into one stack (row order kept)."""
        if not parts:
            raise ValueError("cannot concatenate zero measurement chunks")
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        return cls(
            problem=first.problem,
            fitness_function=first.fitness_function,
            giant_sizes=np.concatenate([p.giant_sizes for p in parts]),
            covered_clients=np.concatenate([p.covered_clients for p in parts]),
            n_components=np.concatenate([p.n_components for p in parts]),
            n_links=np.concatenate([p.n_links for p in parts]),
            mean_degrees=np.concatenate([p.mean_degrees for p in parts]),
            giant_masks=np.concatenate([p.giant_masks for p in parts]),
            fitness=np.concatenate([p.fitness for p in parts]),
        )


def measure_stack(
    problem: ProblemInstance,
    fitness: FitnessFunction,
    positions: np.ndarray,
) -> StackedMeasurement:
    """Measure a ``(K, N, 2)`` candidate-position stack in one pass.

    Array-level: no per-candidate python objects are constructed;
    :meth:`StackedMeasurement.evaluation` materializes a row on demand.
    Pure function — no counters.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[2] != 2:
        raise ValueError(f"positions must be (K, N, 2), got {positions.shape}")
    n = problem.n_routers
    if positions.shape[1] != n:
        raise ValueError(
            f"positions stack has {positions.shape[1]} routers but the "
            f"fleet has {n}"
        )
    radii = problem.fleet.radii
    adjacency = batch_adjacency(positions, radii, problem.link_rule)
    k = positions.shape[0]

    # One flat nonzero pass feeds both the degree totals and the
    # component labeling.  For a flat index f = which * N^2 + i * N + j,
    # f // N is already the block-offset source node (which * N + i) the
    # batched labeling wants, and f % N recovers the local target.
    flat = np.flatnonzero(adjacency.ravel())
    edge_sources = flat // n
    which = edge_sources // n
    edge_targets = which * n + flat % n
    degree_totals = np.bincount(which, minlength=k)
    # Keep one direction per undirected edge; the propagation sweeps push
    # labels both ways anyway, so this halves the scatter work.
    one_way = edge_sources < edge_targets
    global_labels = labels_from_edges(
        k * n, edge_sources[one_way], edge_targets[one_way]
    )
    # Component sizes per candidate: block-offset labels never collide
    # across candidates, so one flat bincount is the (K, N) count table
    # (column = local label).
    counts = np.bincount(global_labels, minlength=k * n).reshape(k, n)
    labels = global_labels.reshape(k, n)
    labels -= np.arange(k, dtype=np.intp)[:, np.newaxis] * n
    # argmax returns the *first* maximum — the smallest label among the
    # largest components, matching ComponentStructure.giant_label().
    giant_labels = counts.argmax(axis=1)
    giant_sizes = counts[np.arange(k), giant_labels]
    n_components = (counts > 0).sum(axis=1)
    giant_masks = labels == giant_labels[:, np.newaxis]

    coverage = batch_coverage(problem.clients.positions, positions, radii)
    if problem.coverage_rule is CoverageRule.ANY_ROUTER:
        covered = coverage.any(axis=2).sum(axis=1)
    else:
        covered = (coverage & giant_masks[:, np.newaxis, :]).any(axis=2).sum(axis=1)
    return StackedMeasurement.scored(
        problem, fitness, giant_sizes, covered, n_components,
        degree_totals // 2, giant_masks,
    )
