"""The evaluation engine: one measurement, one dispatch, several tiers.

Every placement is scored the same way — giant-component size, covered
clients, fitness — and every path below returns bit-identical
:class:`~repro.core.fitness.NetworkMetrics`, fitness values and
giant-component masks for the same placement:

* **One dispatch** — :class:`StackedEngine`.  The only code that
  resolves an ``engine`` argument to a tier and builds the per-tier
  sub-engines, for the counting adapter and the delta cache alike.
  Its one stack entry, ``measure_placements``, measures a
  whole candidate stack (placements, or a checked int ``(K, N, 2)``
  cell stack) into metric *arrays* (:class:`StackedMeasurement`);
  callers materialize only the rows they keep.
* **One counting adapter** — :class:`~repro.core.evaluation.Evaluator`.
  ``evaluate_many`` is one ``measure_placements`` call plus row
  materialization, ``evaluate`` the same for one placement; both count
  evaluations.  With
  ``engine="dense"``, ``evaluate`` runs the reference path
  (``RouterNetwork.build`` + ``coverage_mask``) that the parity suites
  use as ground truth.
* **One incremental cache** —
  :class:`~repro.core.engine.stacked.StackedDeltaEngine`.  Per-chain
  incumbent caches: ``reset_chain`` builds one and measures the chain
  start in full (by ``measure_placements`` on the dense layout, from
  the cached edge and hit arrays on the sparse one), then a candidate
  is measured from only what its moved routers touch.  ``measure_phase`` measures a whole phase of
  candidates for every search rule of
  :mod:`repro.neighborhood.multichain` (best improvement, tabu, and
  the one-candidate sub-steps of simulated annealing), and
  ``commit_chain`` advances a chain that accepts one.  It builds its
  :class:`StackedEngine` and takes from it the tier, the layout, the
  non-finite gate and the sparse layout's client index; it caches
  matrices on the dense layout, or edge arrays, coverage hits and a
  router index on the sparse (city-scale) layout.

The tiers (see :mod:`repro.core.engine.dispatch`):

* **dense** — :func:`measure_stack` stacks ``K`` candidates into
  ``(K, N, 2)`` tensors and measures them in one vectorized pass.
  Paper-scale instances.
* **sparse** — :class:`SparseEngine` bins positions into a spatial grid
  and generates only neighbor-bin candidate pairs, replacing the
  ``O(N^2 + M * N)`` matrices with ``O(N k + M k)`` edge and hit
  arrays, which :class:`StackedEngine` reduces to metrics one placement
  at a time.  City-scale instances the dense tensors cannot hold.
* **compiled** — :class:`CompiledEngine`
  (:mod:`repro.core.engine.compiled`).  The hottest stacked and delta
  paths as C kernels, built on demand with the system toolchain and
  bound via ctypes; it keeps the dense/sparse layout of
  :func:`select_engine` and only swaps who crunches it.
  ``engine="auto"`` promotes to it whenever :func:`compiled_available`
  reports the kernels built, and falls back silently otherwise, so the
  tier never becomes a dependency.

All paths count evaluations identically, so the machine-independent
search-cost accounting of the experiments is unaffected by which tier a
search runs on.
"""

from repro.core.engine.batch import (
    StackedMeasurement,
    batch_adjacency,
    batch_coverage,
    measure_stack,
)
from repro.core.engine.components import labels_from_edges
from repro.core.engine.compiled import CompiledEngine
from repro.core.engine.compiled import is_available as compiled_available
from repro.core.engine.dispatch import ENGINE_TIERS, resolve_engine, select_engine
from repro.core.engine.sparse import SparseEngine, SpatialGridIndex, sparse_edges
from repro.core.engine.stacked import StackedDeltaEngine, StackedEngine

__all__ = [
    "CompiledEngine",
    "ENGINE_TIERS",
    "compiled_available",
    "SparseEngine",
    "SpatialGridIndex",
    "StackedDeltaEngine",
    "StackedEngine",
    "StackedMeasurement",
    "batch_adjacency",
    "batch_coverage",
    "measure_stack",
    "sparse_edges",
    "labels_from_edges",
    "resolve_engine",
    "select_engine",
]
