"""Zero-copy problem broadcast over POSIX shared memory.

Every ``workers=`` harness used to pickle the full
:class:`~repro.core.problem.ProblemInstance` — client positions and
router radii included — into *every* shard task.  At city scale
(20k–50k clients) that serialization dominates fan-out wall-clock.  This
codec publishes an instance's numpy payloads **once** into
:mod:`multiprocessing.shared_memory` segments and ships a small
:class:`ProblemRef` handle (segment name / shape / dtype / content hash)
per task instead; workers attach read-only views and rebuild the
instance around them without copying the arrays again.

Design rules:

* **Content-addressed segments.**  Segment names embed a SHA-256 prefix
  of the array bytes plus the publishing pid, so identical payloads
  dedupe naturally and two runtimes in different processes can never
  collide.  Same-process collisions (two runtimes, or a stale segment
  left by a killed run) are survived by retrying with a counter suffix.
* **Verified attach.**  :func:`attach_array` re-hashes the mapped bytes
  and refuses a segment whose content does not match the handle — a
  name collision can misroute a task, never corrupt a result.
* **Parent owns the lifecycle.**  The publisher keeps the segment
  objects and is the only side that ever calls ``unlink``
  (:class:`~repro.parallel.runtime.ParallelRuntime` drives that).
  Pool workers are forked, so they share the parent's
  ``resource_tracker`` process; attaching registers the name into the
  same (set-semantics) cache as publishing did — a no-op — and the
  parent's eventual ``unlink`` clears it exactly once.  Attach therefore
  must *not* unregister anything (Python 3.11 has no ``track=False``):
  doing so would strip the publisher's registration and lose the
  crash-safety net the tracker provides.
* **Loss is recoverable.**  Attaching after the parent unlinked raises
  :class:`BroadcastLost`; the supervised runner catches it and retries
  the task with the original pickled instance (see
  :meth:`~repro.parallel.runtime.ParallelRuntime.task_fallback`), so a
  dropped broadcast degrades to the pickle path instead of failing the
  run.

The handles pickle in a few hundred bytes regardless of instance size —
the ≥10x per-task byte reduction gated by
``benchmarks/bench_parallel_runtime.py``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.clients import ClientSet, MeshClient
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule
from repro.core.routers import MeshRouter, RouterFleet

__all__ = [
    "ArrayRef",
    "BroadcastLost",
    "ProblemRef",
    "attach_array",
    "attach_problem",
    "problem_nbytes",
    "publish_array",
    "publish_problem",
]


class BroadcastLost(RuntimeError):
    """A shared-memory segment named by a handle no longer exists.

    Raised on attach when the publishing runtime already unlinked (or
    never owned) the segment.  The supervisor treats it as a recoverable
    task error: the retry re-ships the original instance by pickle.
    """

    def __init__(self, name: str) -> None:
        self.segment = name
        super().__init__(
            f"shared-memory segment {name!r} is gone; the broadcast was "
            "released before the task attached (retry falls back to pickle)"
        )


@dataclass(frozen=True)
class ArrayRef:
    """A picklable handle to one published array.

    ``name`` is ``None`` for empty arrays (POSIX shared memory cannot be
    zero-sized): the payload is its shape alone and attach rebuilds it
    locally.
    """

    name: "str | None"
    shape: tuple[int, ...]
    dtype: str
    digest: str

    @property
    def nbytes(self) -> int:
        """Size of the referenced payload in bytes."""
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ProblemRef:
    """A picklable handle to one broadcast :class:`ProblemInstance`.

    Everything except the two array payloads travels inline (grid
    dimensions and modeling rules are a few bytes); ``token`` is the
    combined content hash the runtime keys its registry by.
    """

    width: int
    height: int
    link_rule: LinkRule
    coverage_rule: CoverageRule
    radii: ArrayRef
    positions: ArrayRef
    token: str


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


#: Same-process uniqueness counter for segment names (collision retry).
_serial = 0


def publish_array(array: np.ndarray) -> "tuple[ArrayRef, shared_memory.SharedMemory | None]":
    """Copy ``array`` into a fresh shared-memory segment, once.

    Returns the handle plus the owning :class:`SharedMemory` object (the
    caller keeps it alive and eventually unlinks it).  Non-contiguous
    views are compacted first — the segment always holds exactly
    ``nbytes`` of C-contiguous data, whatever layout the caller had.
    """
    global _serial
    arr = np.ascontiguousarray(array)
    digest = _digest(arr.tobytes())
    ref = ArrayRef(
        name=None, shape=tuple(arr.shape), dtype=str(arr.dtype), digest=digest
    )
    if arr.nbytes == 0:
        return ref, None
    shm = None
    while shm is None:
        _serial += 1
        name = f"repro-{digest[:12]}-{os.getpid()}-{_serial}"
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=arr.nbytes
            )
        except FileExistsError:  # repro-lint: disable=RL007
            # A concurrent runtime (or a stale segment from a killed
            # run) owns this name; the serial suffix walks past it.
            continue
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return ArrayRef(
        name=shm.name, shape=ref.shape, dtype=ref.dtype, digest=digest
    ), shm


def attach_array(ref: ArrayRef) -> "tuple[np.ndarray, shared_memory.SharedMemory | None]":
    """Map the referenced segment read-only, verifying its content hash.

    The returned array is backed directly by the shared mapping (zero
    copies); the returned :class:`SharedMemory` must stay referenced as
    long as the array is in use.  Raises :class:`BroadcastLost` when the
    segment is gone and ``ValueError`` when a name collision delivered
    different bytes than the handle promises.
    """
    if ref.name is None:
        empty = np.zeros(ref.shape, dtype=ref.dtype)
        empty.setflags(write=False)
        return empty, None
    try:
        shm = shared_memory.SharedMemory(name=ref.name)
    except FileNotFoundError:
        raise BroadcastLost(ref.name) from None
    # Attaching registers the name with the resource tracker again.
    # Forked pool workers share the parent's tracker, whose cache has
    # set semantics, so this is a harmless no-op there — and must stay
    # one: unregistering here would strip the *publisher's* entry and
    # lose the tracker's crash cleanup (see module docstring).
    array = np.ndarray(ref.shape, dtype=ref.dtype, buffer=shm.buf)
    if _digest(array.tobytes()) != ref.digest:
        shm.close()
        raise ValueError(
            f"shared-memory segment {ref.name!r} holds different bytes "
            "than its handle promises (stale or colliding segment)"
        )
    array.setflags(write=False)
    return array, shm


def problem_nbytes(problem: ProblemInstance) -> int:
    """Bytes of array payload a broadcast of ``problem`` would share."""
    return int(problem.fleet.radii.nbytes + problem.clients.positions.nbytes)


def publish_problem(
    problem: ProblemInstance,
) -> "tuple[ProblemRef, list[shared_memory.SharedMemory]]":
    """Publish an instance's array payloads; returns (handle, segments)."""
    radii_ref, radii_shm = publish_array(problem.fleet.radii)
    positions_ref, positions_shm = publish_array(problem.clients.positions)
    token = _digest(
        (
            f"{problem.grid.width}x{problem.grid.height}:"
            f"{problem.link_rule.value}:{problem.coverage_rule.value}:"
            f"{radii_ref.digest}:{positions_ref.digest}"
        ).encode()
    )
    ref = ProblemRef(
        width=problem.grid.width,
        height=problem.grid.height,
        link_rule=problem.link_rule,
        coverage_rule=problem.coverage_rule,
        radii=radii_ref,
        positions=positions_ref,
        token=token,
    )
    segments = [shm for shm in (radii_shm, positions_shm) if shm is not None]
    return ref, segments


def attach_problem(ref: ProblemRef) -> ProblemInstance:
    """Rebuild a :class:`ProblemInstance` around the shared payloads.

    The value objects (routers, clients) are reconstructed locally —
    they are identity data the engines never touch in bulk — while the
    hot arrays (``fleet.radii``, ``clients.positions``) are the shared
    read-only views themselves.  The segments are pinned to the instance
    (``_shm_segments``) so the mapping lives exactly as long as the
    attached problem does.
    """
    radii, radii_shm = attach_array(ref.radii)
    positions, positions_shm = attach_array(ref.positions)
    fleet = RouterFleet(
        tuple(
            MeshRouter(router_id=index, radius=float(radius))
            for index, radius in enumerate(radii)
        )
    )
    clients = ClientSet(
        tuple(
            MeshClient(client_id=index, cell=Point(int(x), int(y)))
            for index, (x, y) in enumerate(positions)
        )
    )
    # Swap the freshly derived arrays for the shared views: same values
    # (positions are integer cells, radii round-trip exactly), zero
    # extra copies per attached instance.
    object.__setattr__(fleet, "_radii", radii)
    object.__setattr__(clients, "_positions", positions)
    problem = ProblemInstance(
        grid=GridArea(ref.width, ref.height),
        fleet=fleet,
        clients=clients,
        link_rule=ref.link_rule,
        coverage_rule=ref.coverage_rule,
    )
    object.__setattr__(
        problem,
        "_shm_segments",
        tuple(shm for shm in (radii_shm, positions_shm) if shm is not None),
    )
    return problem
