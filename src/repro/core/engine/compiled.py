"""The compiled evaluation tier (``engine="compiled"``).

The numpy engines spend their city-scale and multi-chain budgets in the
fused pairwise-distance/range tests, component labeling and the
covered-count reductions.  This module replaces them with C kernels
(:mod:`_kernels.c <repro.core.engine>`), compiled on demand by the
system toolchain into a content-hashed shared library and bound via
:mod:`ctypes` — no third-party dependency, so tier-1 environments
without a C compiler simply fall back to the numpy paths.  Every full
measurement, a dense-layout delta chain start included, is one fused
stack call (:meth:`CompiledEngine.measure_stack`).  A dense lockstep
phase of the
:class:`~repro.core.engine.stacked.StackedDeltaEngine` is one call of
its :class:`PhaseKernel`, over a table of each chain's incumbent
buffers (:func:`chain_state`): the candidates of a chain that move the
same routers share one base, the incumbent without those routers (its
component labels and sizes, and per-component client bitmasks or its
uncovered clients), and each candidate adds only its movers' links and
their new coverage to it.  A chain that accepts a move commits it to those buffers in place
in one call, :func:`commit_dense`.  Movement proposals draw in C too:
:func:`propose_rows` draws a phase's Random or Swap rows for every
chain, a :class:`WindowTableKernel` builds a new Swap incumbent's
window pick table, and :func:`distinct_cells` the picks of
``GridArea.sample_distinct_cells``, each through the chain generator's
own numpy ``bitgen_t``, so the draws, the moves and the generator's
final state are those of the Python samplers on every bit generator.
:func:`collect_phase` validates a lockstep phase's move rows on either
layout, as the numpy ``_Phase.collect`` does.
A GA generation of the default operators is one call too,
:func:`ga_generation`: selection, crossover, collision repair and
mutation for every offspring slot, with the draws of the Python
operators on the run's generator, and so is the population's
diversity, :func:`stack_diversity`, summed in numpy's order so the
trace keeps the bits of the numpy reference.

Availability contract (mirrored by the dispatch layer):

* :func:`is_available` is the quiet probe — ``False`` when the
  ``REPRO_COMPILED`` environment variable disables the tier (``0``,
  ``false``, ``off``, ``no``) or when the one-shot build fails (no
  compiler, read-only filesystem, ...).  ``engine="auto"`` promotes to
  the compiled tier exactly when this returns ``True``.
* :func:`require` is the loud probe — returns the bound library or
  raises a ``RuntimeError`` explaining why ``engine="compiled"`` cannot
  run and how to fall back.

Both are read when an engine is built.  The kernel wrappers take the
library the first successful probe cached, so no kernel call re-reads
the gate.

Bit-identity: every kernel performs the same float64 subtract / square /
add / compare sequence as the numpy reference formulas (the build passes
``-ffp-contract=off`` so no fused multiply-add can round differently),
component labels are canonical smallest-member ids from a
smaller-root-wins union-find, and all counts are integer arithmetic.
The compiled parity suite asserts equality against the dense and sparse
numpy engines across rule combinations, scales and delta move chains.

The build is cached under ``_build/`` next to this module (override with
``REPRO_COMPILED_CACHE``; falls back to a per-user temp directory when
the package tree is read-only), keyed by the source hash, so recompiles
happen only when ``_kernels.c`` changes.  OpenMP is used when the
toolchain supports it — kernels parallelize over candidates, which write
disjoint output rows, so thread count never changes results.  A stack
measurement or a dense phase too small to pay for a thread team (a GA
generation's few dozen rows) runs on one thread.
:func:`set_num_threads` pins the pool; :mod:`repro.parallel` workers pin
it to one thread each to avoid oversubscription under ``workers=``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import envgates
from repro.core.fitness import FitnessFunction, WeightedSumFitness
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule

__all__ = [
    "is_available",
    "build_error",
    "require",
    "has_openmp",
    "set_num_threads",
    "label_components",
    "link_hits_compiled",
    "stack_diversity",
    "CompiledEngine",
]

_SOURCE = Path(__file__).with_name("_kernels.c")

#: Numeric codes matching ``link_reach`` in ``_kernels.c``.
_RULE_CODES = {
    LinkRule.OVERLAP: 0,
    LinkRule.BIDIRECTIONAL: 1,
    LinkRule.UNIDIRECTIONAL: 2,
}

_lock = threading.Lock()
_lib: "ctypes.CDLL | None" = None
_build_error: "str | None" = None

_I64 = ctypes.c_int64
_PD = ctypes.POINTER(ctypes.c_double)
_PI = ctypes.POINTER(_I64)
_PU8 = ctypes.POINTER(ctypes.c_uint8)
_PV = ctypes.c_void_p


def _cache_dirs() -> "list[tuple[Path, bool]]":
    """Build directories in order of preference, each with its ownership.

    An owned directory (the package ``_build`` directory or a
    ``REPRO_COMPILED_CACHE`` override) holds this checkout's libraries
    only, so a publish there prunes the others.  The per-user tempdir
    fallback is shared with other checkouts, whose libraries may still
    be about to load, and is never pruned.
    """
    override = envgates.compiled_cache_override()
    if override:
        return [(Path(override), True)]
    return [
        (Path(__file__).with_name("_build"), True),
        (Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}", False),
    ]


def _prune_cache(directory: Path, live: str) -> None:
    """Delete other-hash libraries and stale temp files from ``directory``.

    Temp files of ``live`` itself are kept: they are concurrent builds
    of the same source (pool workers) about to publish.
    """
    stale = [
        *directory.glob("repro_kernels_*.so"),
        *directory.glob(".repro_kernels_*.tmp"),
    ]
    for path in stale:
        if path.name == live or path.name.startswith(f".{live}."):
            continue
        try:
            path.unlink()
        except OSError:  # repro-lint: disable=RL007
            # Best-effort: another builder may have removed it first.
            pass


def _find_compiler() -> "str | None":
    env_cc = os.environ.get("CC")
    if env_cc and shutil.which(env_cc):
        return env_cc
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


#: No ``-ffast-math``, and contraction off: ``dx*dx + dy*dy`` must round
#: exactly like numpy's two-operation float64 sequence.
_BASE_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


def _compile_library() -> Path:
    """Build (or reuse) the shared library; returns its path."""
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    source_bytes = _SOURCE.read_bytes()
    tag = hashlib.sha256(
        source_bytes + b"\0" + " ".join(_BASE_FLAGS).encode()
    ).hexdigest()[:16]
    lib_name = f"repro_kernels_{tag}.so"
    errors: list[str] = []
    for directory, owned in _cache_dirs():
        target = directory / lib_name
        if target.exists():
            return target
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            errors.append(f"{directory}: {exc}")
            continue
        tmp = directory / f".{lib_name}.{os.getpid()}.tmp"
        built = False
        for extra in (("-fopenmp",), ()):
            command = [
                compiler, str(_SOURCE),
                *_BASE_FLAGS, *extra,
                "-o", str(tmp), "-lm",
            ]
            result = subprocess.run(
                command, capture_output=True, text=True, timeout=120
            )
            if result.returncode == 0:
                built = True
                break
            errors.append(
                f"{' '.join(command)}: {result.stderr.strip()[-400:]}"
            )
        if not built:
            continue
        try:
            # Atomic publish: concurrent builders (pool workers) race
            # benignly — last rename wins, every path stays valid.
            os.replace(tmp, target)
        except OSError as exc:
            errors.append(f"{target}: {exc}")
            continue
        if owned:
            _prune_cache(directory, lib_name)
        return target
    raise RuntimeError("; ".join(errors) or "no writable build directory")


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_has_openmp.restype = _I64
    lib.repro_has_openmp.argtypes = ()
    lib.repro_get_max_threads.restype = _I64
    lib.repro_get_max_threads.argtypes = ()
    lib.repro_set_threads.restype = None
    lib.repro_set_threads.argtypes = (_I64,)
    lib.repro_label_components.restype = None
    lib.repro_label_components.argtypes = (_I64, _I64, _PI, _PI, _PI)
    lib.repro_measure_stack_dense.restype = None
    lib.repro_measure_stack_dense.argtypes = (
        _PV, _I64, _I64, _PV, _PV, _I64, _PV, _I64,
        _PV, _PV, _PV, _PV, _PV,
    )
    lib.repro_measure_stack_sparse.restype = None
    lib.repro_measure_stack_sparse.argtypes = (
        _PV, _I64, _I64, _PV, _I64,
        ctypes.c_double, _I64, _I64,
        _PV, _I64, _PV,
        ctypes.c_double, _I64, _I64,
        _I64, _PV, _PV, _PV, _PV, _PV,
    )
    lib.repro_measure_phase_dense.restype = None
    lib.repro_measure_phase_dense.argtypes = (
        _PV, _I64, _PV, _PV, _PV, _PV, _I64,
        _I64, _PV, _I64, _PV, _PV, _I64, _PV, _PV,
    )
    lib.repro_filter_pairs.restype = None
    lib.repro_filter_pairs.argtypes = (_PD, _PI, _PI, _I64, _PD, _I64, _PU8)
    lib.repro_dense_edges.restype = None
    lib.repro_dense_edges.argtypes = (_PU8, _I64, _PI, _PI)
    lib.repro_client_csr_fill.restype = None
    lib.repro_client_csr_fill.argtypes = (_PU8, _I64, _I64, _PI, _PI)
    lib.repro_commit_dense.restype = _I64
    lib.repro_commit_dense.argtypes = (
        _PV, _PV, _I64, _PV, _I64, _PV, _PV, _I64, _I64, _PV,
    )
    lib.repro_propose_rows.restype = _I64
    lib.repro_propose_rows.argtypes = (
        _PI, _I64, _I64, _I64, _PV, _I64, _PV, _PI, _I64, _I64, _PI,
    )
    lib.repro_swap_window_table.restype = _I64
    lib.repro_swap_window_table.argtypes = (
        _I64, _I64, _I64, _I64, _PV, _I64, _PV, _I64, _I64, _PV, _I64, _I64, _PV,
    )
    lib.repro_collect_phase.restype = _I64
    lib.repro_collect_phase.argtypes = (
        _PV, _PV, _PV, _I64, _PV, _I64, _I64, _I64,
        _PV, _PV, _PV, _PV, _PV, _PV, _PV, _PV,
    )
    lib.repro_distinct_cells.restype = None
    lib.repro_distinct_cells.argtypes = (
        _PV, _PU8, _I64, _I64, _I64, _I64, _I64, _I64, _I64, _PI,
    )
    lib.repro_ga_generation.restype = _I64
    lib.repro_ga_generation.argtypes = (
        _PV, _PV, _PD, _I64, _I64, _I64, _I64, _I64, _I64,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
        _I64, _PI, _PI, _PD, _PD, _PI, _PV,
    )
    lib.repro_stack_diversity.restype = ctypes.c_double
    lib.repro_stack_diversity.argtypes = (_PV, _I64, _I64)
    return lib


def _load() -> "ctypes.CDLL | None":
    """Build+bind once per process; the outcome (either way) is cached."""
    global _lib, _build_error
    if _lib is not None or _build_error is not None:
        return _lib
    with _lock:
        if _lib is not None or _build_error is not None:
            return _lib
        try:
            _lib = _bind(ctypes.CDLL(str(_compile_library())))
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            _build_error = str(exc)
            # One warning per process (the failure is cached, so this
            # branch runs once): ``engine="auto"`` keeps working on the
            # numpy tiers with identical results, but silence here cost
            # users the speedup without any signal as to why.
            summary = _build_error.strip().splitlines()[-1][:200]
            warnings.warn(
                "building the compiled kernel engine failed; falling "
                f"back to the numpy engines (identical results). "
                f"Build error: {summary} — see "
                "repro.core.engine.compiled.build_error() for the full "
                "text",
                RuntimeWarning,
                stacklevel=3,
            )
    return _lib


def is_available() -> bool:
    """Whether the compiled tier can run (gate enabled + build succeeds)."""
    return envgates.compiled_enabled() and _load() is not None


def is_loaded() -> bool:
    """Whether the compiled tier is enabled and already built in this
    process.  Unlike :func:`is_available` it never starts a build."""
    return envgates.compiled_enabled() and _lib is not None


def build_error() -> "str | None":
    """The cached kernel build failure, or ``None``.

    ``None`` either means the build succeeded or that nothing has
    attempted a build yet in this process (the build is lazy); after a
    failed :func:`is_available`/:func:`require` call this holds the full
    compiler/loader error text for diagnostics.
    """
    return _build_error


def require() -> ctypes.CDLL:
    """The bound kernel library, or a clear error for ``engine="compiled"``."""
    if not envgates.compiled_enabled():
        raise RuntimeError(
            "engine='compiled' is disabled by REPRO_COMPILED="
            f"{envgates.raw('REPRO_COMPILED')!r}; unset it, or use "
            "engine='auto' to fall back to the numpy engines"
        )
    lib = _load()
    if lib is None:
        raise RuntimeError(
            "engine='compiled' is unavailable: building the C kernels "
            f"failed ({_build_error}). Install a C toolchain (cc/gcc/"
            "clang), or use engine='auto' to fall back to the numpy "
            "engines with identical results"
        )
    return lib


def has_openmp() -> bool:
    """Whether the built kernels parallelize over candidates."""
    return bool(require().repro_has_openmp())


def set_num_threads(n: int) -> None:
    """Pin the kernel thread pool (no-op without OpenMP).

    Thread count never changes results — candidates write disjoint
    output rows — only wall-clock.  Worker processes pin to 1.
    """
    if n < 1:
        raise ValueError(f"thread count must be positive, got {n}")
    require().repro_set_threads(n)


# ----------------------------------------------------------------------
# ndarray plumbing
# ----------------------------------------------------------------------


def _f64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64)


def _i64a(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def _u8(values: np.ndarray) -> np.ndarray:
    """Boolean arrays reinterpreted as uint8 without copying."""
    contiguous = np.ascontiguousarray(values)
    if contiguous.dtype == np.bool_:
        return contiguous.view(np.uint8)
    return contiguous.astype(np.uint8)


def _pd(values: np.ndarray):
    return values.ctypes.data_as(_PD)


def _pi(values: np.ndarray):
    return values.ctypes.data_as(_PI)


def _pu8(values: np.ndarray):
    return values.ctypes.data_as(_PU8)


# ----------------------------------------------------------------------
# Kernel wrappers
# ----------------------------------------------------------------------


def _kernels() -> ctypes.CDLL:
    """The cached library for a kernel call; probes :func:`require`
    only while nothing has loaded it yet."""
    return _lib if _lib is not None else require()


def label_components(
    n_nodes: int,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Canonical smallest-member component labels (one kernel, any size).

    Drop-in for :func:`repro.core.engine.components.labels_from_edges`
    and :func:`labels_from_edge_stack` — same validation, same labels —
    replacing the scipy-vs-propagation split with one union-find pass.
    """
    if n_nodes < 0:
        raise ValueError(f"node count must be non-negative, got {n_nodes}")
    rows = _i64a(rows)
    cols = _i64a(cols)
    if rows.size and not (
        0 <= int(min(rows.min(), cols.min()))
        and int(max(rows.max(), cols.max())) < n_nodes
    ):
        raise ValueError(f"edge endpoints out of range for {n_nodes} nodes")
    labels = np.empty(n_nodes, dtype=np.int64)
    _kernels().repro_label_components(
        n_nodes, rows.size, _pi(rows), _pi(cols), _pi(labels)
    )
    return labels.astype(np.intp, copy=False)


def link_hits_compiled(
    positions: np.ndarray,
    radii: np.ndarray,
    link_rule: LinkRule,
    rows: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-predicate filter of candidate router pairs (bin-pair form).

    Compiled twin of :func:`repro.core.engine.sparse.link_hits`: same
    float64 reach arithmetic per rule, a keep-mask then numpy indexing,
    so the surviving pairs and their order are identical.
    """
    if rows.size == 0:
        return rows, cols
    rows64 = _i64a(rows)
    cols64 = _i64a(cols)
    keep = np.empty(rows64.size, dtype=np.uint8)
    _kernels().repro_filter_pairs(
        _pd(_f64(positions)), _pi(rows64), _pi(cols64), rows64.size,
        _pd(_f64(radii)), _RULE_CODES[link_rule], _pu8(keep),
    )
    mask = keep.view(bool)
    return rows[mask], cols[mask]


#: ``(field, dtype)`` of ``chain_state`` in ``_kernels.c``, in order:
#: the buffers a dense chain incumbent hands the phase kernel.  The
#: edge count follows the edge arrays.
_CHAIN_STATE = (
    ("positions", np.float64),
    ("coverage", np.bool_),
    ("edge_rows", np.int64),
    ("edge_cols", np.int64),
    ("client_ptr", np.int64),
    ("client_hit", np.int64),
    ("coverage_counts", np.int32),
)


def chain_state(
    positions: np.ndarray,
    coverage: np.ndarray,
    edge_rows: np.ndarray,
    edge_cols: np.ndarray,
    client_ptr: "np.ndarray | None",
    client_hit: "np.ndarray | None",
    coverage_counts: "np.ndarray | None",
) -> tuple[int, ...]:
    """One dense chain incumbent's ``chain_state`` row for a
    :class:`PhaseKernel`.

    The row holds the buffers' addresses (``0`` for the coverage aid the
    rule does not use) and the edge count, so the caller keeps every
    array alive and unmoved while the row is in use, and builds a new
    row whenever it replaces one of them.  Only ``GIANT_ONLY`` phases
    read the client-major CSR (``client_ptr``/``client_hit``), only
    ``ANY_ROUTER`` phases the per-client ``coverage_counts``.
    """
    arrays = (
        positions, coverage, edge_rows, edge_cols,
        client_ptr, client_hit, coverage_counts,
    )
    addresses = []
    for (field, dtype), array in zip(_CHAIN_STATE, arrays):
        if array is None:
            addresses.append(0)
            continue
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise ValueError(
                f"chain state {field} must be a C-contiguous "
                f"{np.dtype(dtype)} array, got {array.dtype}"
            )
        addresses.append(array.ctypes.data)
    n = positions.shape[0]
    m = coverage.shape[0]
    if (
        positions.shape != (n, 2)
        or coverage.shape != (m, n)
        or edge_rows.shape != edge_cols.shape
        or (client_ptr is not None and (
            client_ptr.shape != (m + 1,)
            or client_hit is None
            or client_hit.shape != (int(client_ptr[m]),)
        ))
        or (coverage_counts is not None and coverage_counts.shape != (m,))
    ):
        raise ValueError("chain state arrays disagree on their shapes")
    return (*addresses[:4], edge_rows.size, *addresses[4:])


class PhaseKernel:
    """``repro_measure_phase_dense`` bound to one dense instance.

    The instance's float64 ``range_squared`` ``(N, N)``, ``clients``
    ``(M, 2)`` and ``radii_squared`` ``(N,)`` are held here and their
    addresses taken once, so a phase call casts only its own arrays: a
    :class:`~repro.core.engine.stacked.StackedDeltaEngine` on the
    compiled tier's dense layout builds one per engine.  ``giant_only``
    names the coverage rule, and with it the aid every chain state must
    carry (see :func:`chain_state`).
    """

    __slots__ = ("_constants", "_n", "_m", "_aid", "_fixed")

    def __init__(
        self,
        range_squared: np.ndarray,
        clients: np.ndarray,
        radii_squared: np.ndarray,
        giant_only: bool,
    ) -> None:
        self._constants = tuple(
            _f64(array) for array in (range_squared, clients, radii_squared)
        )
        range_squared, clients, radii_squared = self._constants
        n = range_squared.shape[0]
        m = clients.shape[0]
        if (
            range_squared.shape != (n, n)
            or clients.shape != (m, 2)
            or radii_squared.shape != (n,)
        ):
            raise ValueError(
                "a phase kernel needs (N, N) ranges, (M, 2) clients and "
                "(N,) radii"
            )
        self._n = n
        self._m = m
        # The coverage rule's aid: the client CSR, or the per-client counts.
        self._aid = 5 if giant_only else 7
        self._fixed = (
            n, range_squared.ctypes.data, m, clients.ctypes.data,
            radii_squared.ctypes.data, int(giant_only),
        )

    def __call__(
        self,
        states: np.ndarray,
        segment_starts: np.ndarray,
        pair_candidate: np.ndarray,
        pair_router: np.ndarray,
        pair_xy: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """A whole dense-layout phase in one kernel call.

        ``states`` stacks one :func:`chain_state` row per chain segment,
        and candidates ``segment_starts[s]:segment_starts[s + 1]`` are
        segment ``s``'s incumbent with the routers of their pairs moved
        (``pair_candidate`` sorted, routers distinct within a
        candidate).  Returns ``(giant_sizes, covered, n_components,
        n_links, giant_masks)`` per candidate, bit-identical to the
        numpy dense delta path.  The kernel measures the candidates of a
        segment that move the same routers off one shared base
        (``_kernels.c``).
        """
        n = self._n
        states = _i64a(states)
        segment_starts = _i64a(segment_starts)
        k = int(segment_starts[-1])
        if (
            states.shape != (segment_starts.size - 1, len(_CHAIN_STATE) + 1)
            or segment_starts[0] != 0
            or (segment_starts[1:] < segment_starts[:-1]).any()
        ):
            raise ValueError("one chain state row per candidate segment expected")
        if self._m and not states[:, self._aid].all():
            raise ValueError("a chain state lacks the coverage rule's aid")
        pair_candidate = _i64a(pair_candidate)
        pair_router = _i64a(pair_router)
        pair_xy = _f64(pair_xy)
        # The kernel reads every pair array to pair_router's length.
        if (
            pair_candidate.shape != pair_router.shape
            or pair_xy.shape != (pair_router.size, 2)
        ):
            raise ValueError(
                f"phase pairs disagree on their count: {pair_candidate.shape} "
                f"candidates, {pair_router.shape} routers, {pair_xy.shape} cells"
            )
        if pair_router.size and not (
            0 <= int(pair_router.min()) and int(pair_router.max()) < n
            and 0 <= int(pair_candidate[0]) and int(pair_candidate[-1]) < k
        ):
            raise ValueError("phase pairs name a router or candidate out of range")
        # Giants, covered, components and links, one int64 row each,
        # then the giant masks, in one buffer.
        out = np.empty(32 * k + k * n, dtype=np.uint8)
        rows = out.ctypes.data
        _kernels().repro_measure_phase_dense(
            states.ctypes.data, segment_starts.size - 1, segment_starts.ctypes.data,
            pair_candidate.ctypes.data, pair_router.ctypes.data,
            pair_xy.ctypes.data, pair_router.size, *self._fixed,
            rows, rows + 32 * k,
        )
        metrics = out[: 32 * k].view(np.intp).reshape(4, k)
        return (*metrics, out[32 * k :].view(bool).reshape(k, n))


def client_csr(coverage: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Client-major CSR of a boolean ``(M, N)`` coverage matrix.

    Offsets come from one row-sum cumsum, and the kernel fills the hit
    lists in ascending router order per client, the row-major order
    ``np.nonzero`` emits.  A dense chain cache builds its lists with it;
    each commit then rewrites them in place (:func:`commit_dense`).
    """
    lib = _kernels()
    matrix = _u8(coverage)
    m = matrix.shape[0]
    n = matrix.shape[1] if matrix.ndim == 2 else 0
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(matrix.sum(axis=1, dtype=np.int64), out=ptr[1:])
    hit = np.empty(int(ptr[m]), dtype=np.int64)
    if hit.size:
        lib.repro_client_csr_fill(_pu8(matrix), m, n, _pi(ptr), _pi(hit))
    return ptr, hit


def dense_edges(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-way ``(rows, cols)`` edge arrays of a dense adjacency matrix.

    The upper-triangle scan that builds a dense chain cache's edge
    arrays; same ``(i < j)`` row-major order as the ``np.nonzero``
    path it replaces.
    """
    lib = _kernels()
    matrix = _u8(adjacency)
    n = matrix.shape[0]
    # Each undirected link sets two cells, so the popcount halves.
    n_links = int(matrix.sum(dtype=np.int64)) // 2
    rows = np.empty(n_links, dtype=np.int64)
    cols = np.empty(n_links, dtype=np.int64)
    if n_links:
        lib.repro_dense_edges(_pu8(matrix), n, _pi(rows), _pi(cols))
    return rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)


#: :func:`commit_dense` status: a buffer could overflow, nothing written.
COMMIT_GROW = -2


def commit_args(
    state: np.ndarray,
    adjacency: np.ndarray,
    range_squared: np.ndarray,
    clients: np.ndarray,
    radii_squared: np.ndarray,
    edge_capacity: int,
    hit_capacity: int,
) -> "tuple[int, ...]":
    """The fixed arguments of :func:`commit_dense` for one dense chain.

    ``state`` is the chain's :func:`chain_state` row as a writable int64
    array.  Its edge arrays are buffers of ``edge_capacity`` entries and
    its client-hit list (``GIANT_ONLY``) one of ``hit_capacity``;
    ``adjacency`` is the chain's C-contiguous boolean ``(N, N)`` matrix,
    and the float64 ``range_squared``, ``clients`` and
    ``radii_squared`` are the instance's.  Like the row, the tuple holds
    addresses: build it when the buffers are (re)allocated, and keep
    every array alive and unmoved while it is in use.
    """
    n = adjacency.shape[0]
    if (
        state.dtype != np.int64
        or state.shape != (len(_CHAIN_STATE) + 1,)
        or not state.flags.c_contiguous
        or adjacency.dtype != np.bool_
        or adjacency.shape != (n, n)
        or not adjacency.flags.c_contiguous
    ):
        raise ValueError("a commit needs a chain state row and its (N, N) adjacency")
    tables = (range_squared, clients, radii_squared)
    for array, shape in zip(tables, ((n, n), (clients.shape[0], 2), (n,))):
        if array.dtype != np.float64 or array.shape != shape or not array.flags.c_contiguous:
            raise ValueError("the commit's ranges, clients and radii must be float64")
    return (
        state.ctypes.data, adjacency.ctypes.data, n,
        range_squared.ctypes.data, clients.shape[0], clients.ctypes.data,
        radii_squared.ctypes.data, edge_capacity, hit_capacity,
    )


def commit_dense(args: "tuple[int, ...]", cells: np.ndarray) -> int:
    """Advance a dense chain incumbent to the placement of ``cells``, in
    place, in one ``repro_commit_dense`` call (``args`` from
    :func:`commit_args`).

    The movers (routers whose cell differs from the cached position)
    take their new positions, adjacency rows and columns, coverage
    columns and coverage aid, then the edge arrays and the row's edge
    count follow: the buffers then hold what a fresh build of the
    placement holds.  Returns the number of movers, or
    :data:`COMMIT_GROW`, with nothing written, when a buffer could
    overflow; the caller then grows the buffers, builds new arguments
    and commits again.
    """
    cells = np.ascontiguousarray(cells, dtype=np.int32)
    if cells.shape != (args[2], 2):
        raise ValueError(f"a commit needs ({args[2]}, 2) cells, got {cells.shape}")
    status = _kernels().repro_commit_dense(*args, cells.ctypes.data)
    if status == -1:
        raise MemoryError("no scratch for the dense commit kernel")
    return status


#: Movement codes of ``repro_propose_rows`` in ``_kernels.c``.
PROPOSE_RANDOM, PROPOSE_SWAP_RELOCATE, PROPOSE_SWAP_LITERAL = 0, 1, 2


def _held(bit_generators):
    """The generators' locks, held for a kernel that draws on them.

    ctypes releases the GIL around the call, and numpy holds the same
    lock around its own draws.  Chains may share a generator, so each
    lock is taken once, in one global order.
    """
    locks = {id(bg): bg.lock for bg in bit_generators}
    if len(locks) == 1:
        return next(iter(locks.values()))
    return _Locks([locks[key] for key in sorted(locks)])


class _Locks:
    """Locks taken in order on entry and released on exit (see
    :func:`_held`)."""

    __slots__ = ("_locks",)

    def __init__(self, locks) -> None:
        self._locks = locks

    def __enter__(self) -> None:
        taken = 0
        try:
            for lock in self._locks:
                lock.acquire()
                taken += 1
        except BaseException:
            for lock in reversed(self._locks[:taken]):
                lock.release()
            raise

    def __exit__(self, *exc_info) -> None:
        for lock in reversed(self._locks):
            lock.release()


def _address_table(values: "list[int]"):
    """A ctypes ``int64`` array of ``values`` (kernel pointer tables)."""
    return (_I64 * len(values))(*values)


def propose_rows(
    movement: int,
    count: int,
    rngs: "Sequence[np.random.Generator]",
    cells: "Sequence[np.ndarray] | None",
    picks: "Sequence[np.ndarray] | None",
    width: int,
    height: int,
) -> np.ndarray:
    """``count`` proposals of ``movement`` per chain, as ``(R, count, 5)``
    :class:`~repro.neighborhood.moves.MoveBatch` rows.

    Chain ``r`` draws on ``rngs[r]`` off the incumbent with the ``(N,
    2)`` cells ``cells[r]`` (Random and relocating Swap) and the Swap
    pick table ``picks[r]`` (layout in ``repro_propose_rows``), exactly
    as the Python row samplers of :mod:`repro.neighborhood.movements`
    draw on the same generator, which ends in the same state.  The
    draws go through each generator's own ``bitgen_t``, so every numpy
    bit generator works.
    """
    if movement not in (PROPOSE_RANDOM, PROPOSE_SWAP_RELOCATE, PROPOSE_SWAP_LITERAL):
        raise ValueError(f"unknown proposal movement code {movement}")
    if (cells is None) != (movement == PROPOSE_SWAP_LITERAL) or (
        picks is None
    ) != (movement == PROPOSE_RANDOM):
        raise ValueError("the movement's incumbent cells or pick tables are missing")
    n_chains = len(rngs)
    bit_generators = [rng.bit_generator for rng in rngs]
    bitgens = _address_table(
        [bg.ctypes.bit_generator.value for bg in bit_generators]
    )
    # The inputs stay referenced until the call returns.
    n_routers = 0
    all_cells = all_picks = starts = None
    if cells is not None:
        n_routers = len(cells[0])
        all_cells = _i64a(np.concatenate(cells))
        if all_cells.shape != (n_chains * n_routers, 2):
            raise ValueError("every incumbent must hold the same (N, 2) cells")
    if picks is not None:
        if len(picks) != n_chains:
            raise ValueError(f"{len(picks)} pick tables for {n_chains} chains")
        all_picks = _i64a(np.concatenate(picks))
        offset, offsets = 0, []
        for table in picks:
            n_dense, n_sparse = int(table[0]), int(table[1])
            if min(n_dense, n_sparse) < 1 or len(table) != 2 + n_sparse + 5 * n_dense:
                raise ValueError("a Swap pick table disagrees with its window counts")
            offsets.append(offset)
            offset += len(table)
        starts = _address_table(offsets)
    rows = (_I64 * (n_chains * count * 5))()
    with _held(bit_generators):
        status = _kernels().repro_propose_rows(
            bitgens, n_chains, movement, count,
            None if all_cells is None else all_cells.ctypes.data, n_routers,
            None if all_picks is None else all_picks.ctypes.data, starts,
            width, height, rows,
        )
    if status == -2:
        raise ValueError("an incumbent cell lies outside the grid")
    if status:
        raise MemoryError("no scratch bitmap for the proposal kernel")
    table = np.frombuffer(rows, dtype=np.int64).reshape(n_chains, count, 5)
    return table.astype(np.intp, copy=False)


_INT32_MAX = 2**31 - 1


class WindowTableKernel:
    """A Swap incumbent's pick table in one ``repro_swap_window_table``
    call, bound to one instance and Swap configuration.

    The grid is ``width x height`` and ``window`` is ``(Wg, Hg)``.  The
    density points are the int ``(P, 2)`` ``points`` (``None`` for
    none), then an incumbent's router cells when ``routers_dense``; the
    router radii ``radii`` pick the strongest and weakest routers of the
    ``pool`` densest and sparsest non-overlapping windows, for the
    relocating reading when ``relocate``.  The table is the int64
    layout of ``repro_propose_rows``, equal to
    :meth:`repro.neighborhood.movements._SwapWindowState.prepare` on the
    pools of :meth:`~repro.core.density.DensityMap.ranked_windows`.
    Everything but the incumbent is checked and its address taken once,
    so a :class:`~repro.neighborhood.movements.SwapMovement` binds one
    per problem and each new incumbent costs one call.
    """

    __slots__ = ("_points", "_radii", "_n_points", "_n", "_size", "_head", "_tail")

    def __init__(
        self,
        width: int,
        height: int,
        window: "tuple[int, int]",
        points: "np.ndarray | None",
        routers_dense: bool,
        radii: np.ndarray,
        pool: int,
        relocate: bool,
    ) -> None:
        window_width, window_height = window
        if not (0 < window_width <= width and 0 < window_height <= height) or pool < 1:
            raise ValueError(
                f"window {window_width}x{window_height} must fit the grid "
                f"{width}x{height}, and the pool ({pool}) be positive"
            )
        # No pass can take more windows than fit.
        pool = min(pool, (width - window_width + 1) * (height - window_height + 1))
        radii = _f64(radii)
        if radii.ndim != 1:
            raise ValueError("need (N, 2) router cells and one radius per router")
        n_points = 0
        if points is not None:
            points = _i64a(points).reshape(-1, 2)
            n_points = points.shape[0]
        if n_points + radii.shape[0] >= _INT32_MAX:
            # The kernel counts in int32, below its sparse sentinel.
            raise ValueError("too many density points for the Swap window kernel")
        self._points = points
        self._radii = radii
        self._n_points = n_points
        self._n = radii.shape[0]
        self._size = 2 + 6 * pool
        self._head = (
            width, height, window_width, window_height,
            None if points is None else points.ctypes.data, n_points,
        )
        self._tail = (int(routers_dense), radii.ctypes.data, pool, int(relocate))

    def __call__(self, cells: np.ndarray) -> np.ndarray:
        """The pick table of the incumbent with the ``(N, 2)`` router
        ``cells``.

        Raises ``ValueError`` for a density point outside the grid, as
        :meth:`~repro.core.density.DensityMap.build` does.
        """
        cells = np.ascontiguousarray(cells, dtype=np.int32)
        if cells.shape != (self._n, 2):
            raise ValueError("need (N, 2) router cells and one radius per router")
        table = np.empty(self._size, dtype=np.int64)
        status = _kernels().repro_swap_window_table(
            *self._head, cells.ctypes.data, self._n, *self._tail, table.ctypes.data
        )
        if status == -1:
            raise MemoryError("no scratch for the Swap window kernel")
        if status < 0:
            index = -status - 2
            n_points = self._n_points
            x, y = self._points[index] if index < n_points else cells[index - n_points]
            raise ValueError(f"point ({x}, {y}) outside the grid")
        return table[:status]


def distinct_cells(
    rng: np.random.Generator,
    bitmap: bytearray,
    width: int,
    height: int,
    region: "tuple[int, int, int, int]",
    count: int,
) -> "list[int]":
    """``count`` free cells of ``bitmap`` in ``region`` ``(x0, y0, x1,
    y1)``, as flat indices, each marked taken once drawn.

    The compiled :meth:`~repro.core.grid.GridArea.sample_distinct_cells`:
    one free-cell draw per pick on ``rng``'s own bit generator.  The
    caller checks that the region has ``count`` free cells.
    """
    picks = np.empty(count, dtype=np.int64)
    buffer = (ctypes.c_uint8 * len(bitmap)).from_buffer(bitmap)
    bit_generator = rng.bit_generator
    lib = _kernels()
    with _held([bit_generator]):
        lib.repro_distinct_cells(
            bit_generator.ctypes.bit_generator, buffer, width, height,
            *region, count, _pi(picks),
        )
    return picks.tolist()


def collect_phase(
    rows: np.ndarray,
    row_counts: "Sequence[int]",
    chains: "Sequence[int]",
    cells: np.ndarray,
    width: int,
    height: int,
) -> "tuple[np.ndarray | list[int], ...]":
    """A lockstep phase's move rows validated in one
    ``repro_collect_phase`` call.

    ``rows`` is the C-contiguous int64 ``(K, 5)`` concatenation of the
    chains' :class:`~repro.neighborhood.moves.MoveBatch` tables: the
    first ``row_counts[0]`` rows are chain ``chains[0]``'s, proposed off
    the incumbent cells ``cells[0]`` of the int ``(R, N, 2)`` stack, and
    so on.  Returns what
    :meth:`repro.neighborhood.multichain._Phase.collect` computes: the
    kept rows, their mover counts and chain ids, the
    ``(pair_candidate, pair_router, pair_xy)`` arrays of
    :class:`~repro.core.engine.stacked.PhaseCandidates`, and each
    slot's end in the kept rows.
    """
    n_chains = len(row_counts)
    cells = np.ascontiguousarray(cells, dtype=np.int32)
    if (
        rows.dtype != np.int64
        or rows.ndim != 2
        or rows.shape[1] != 5
        or not rows.flags.c_contiguous
    ):
        raise ValueError("phase rows must be a C-contiguous int64 (K, 5) table")
    k = rows.shape[0]
    if (
        cells.ndim != 3
        or cells.shape[0] != n_chains
        or cells.shape[2] != 2
        or len(chains) != n_chains
        or sum(row_counts) != k
        or min(row_counts, default=0) < 0
    ):
        raise ValueError(
            "need one incumbent (N, 2) cell array and one chain id per "
            "row count, and the counts must split the rows"
        )
    # One int64 buffer: the counts and chain ids in, then the span ends,
    # the pair count, the kept rows, their movers and chain ids, and
    # the pairs' candidates and routers.
    ints = np.empty(3 * n_chains + 1 + 11 * k, dtype=np.int64)
    ints[:n_chains] = row_counts
    ints[n_chains : 2 * n_chains] = chains
    pair_xy = np.empty((2 * k, 2))
    base = ints.ctypes.data
    kept_at = 3 * n_chains + 1
    movers_at = kept_at + 5 * k
    pairs_at = movers_at + 2 * k
    n_kept = _kernels().repro_collect_phase(
        rows.ctypes.data, base, base + 8 * n_chains, n_chains,
        cells.ctypes.data, cells.shape[1], width, height,
        base + 8 * kept_at, base + 8 * movers_at, base + 8 * (movers_at + k),
        base + 8 * pairs_at, base + 8 * (pairs_at + 2 * k),
        pair_xy.ctypes.data, base + 16 * n_chains, base + 8 * (kept_at - 1),
    )
    if n_kept == -2:
        raise ValueError("an incumbent cell lies outside the grid")
    if n_kept < 0:
        raise MemoryError("no scratch for the phase collect kernel")
    n_pairs = int(ints[kept_at - 1])
    return (
        ints[kept_at : kept_at + 5 * n_kept].reshape(n_kept, 5),
        ints[movers_at : movers_at + n_kept],
        ints[movers_at + k : movers_at + k + n_kept],
        ints[pairs_at : pairs_at + n_pairs],
        ints[pairs_at + 2 * k : pairs_at + 2 * k + n_pairs],
        pair_xy[:n_pairs],
        ints[2 * n_chains : 3 * n_chains].tolist(),
    )


#: Mutation operator codes of ``repro_ga_generation`` in ``_kernels.c``.
MUTATE_JIGGLE, MUTATE_TOWARD_CENTROID, MUTATE_RESET = 0, 1, 2


def ga_generation(
    rng: np.random.Generator,
    parents: np.ndarray,
    fitness: "Sequence[float]",
    n_elites: int,
    tournament_size: int,
    rates: "tuple[float, float]",
    region_fractions: "tuple[float, float]",
    mutations: "Sequence[tuple[int, int, float]]",
    cdf: "Sequence[float] | None",
    width: int,
    height: int,
) -> "tuple[list[int], np.ndarray]":
    """Offspring slots ``n_elites..P-1`` of one GA generation.

    ``parents`` is the int32 ``(P, N, 2)`` cell stack of the population
    (the storage dtype of :class:`~repro.core.solution.Placement`, so no
    coordinate wraps on the way in) and ``fitness`` its members'
    fitness.  The operators are tournament selection of
    ``tournament_size``, region-exchange crossover with the ``(min,
    max)`` ``region_fractions`` at the ``(crossover, mutation)``
    ``rates``, and the ``mutations`` rows ``(MUTATE_*, radius | jitter |
    count, per-gene rate | max step fraction)``: one operator, or a
    composite drawn by its cumulative table ``cdf``.  Returns the int64
    array of, per slot, the index of the parent copied there unchanged
    (``-1`` for a new child), and the int32 ``(P, N, 2)`` stack of the
    slots' cells; rows ``0..n_elites-1`` are left for the caller.  The draws are those of
    the Python operators on ``rng``, in their order (see
    ``repro_ga_generation``), through its own ``bitgen_t``.
    """
    if parents.dtype != np.int32 or parents.ndim != 3 or parents.shape[2] != 2:
        raise ValueError("parents must be an int32 (P, N, 2) cell stack")
    parents = np.ascontiguousarray(parents)
    n_parents, n_routers = parents.shape[:2]
    fitness = _f64(fitness)
    if not n_parents or not n_routers or fitness.shape != (n_parents,):
        raise ValueError("need one fitness per parent, and at least one router")
    if not 0 <= n_elites < n_parents or tournament_size < 1:
        raise ValueError("n_elites must be in [0, P) and the tournament positive")
    known = (MUTATE_JIGGLE, MUTATE_TOWARD_CENTROID, MUTATE_RESET)
    if (
        not mutations
        or any(row[0] not in known for row in mutations)
        or (cdf is not None and len(cdf) != len(mutations))
    ):
        raise ValueError("need known mutation rows, and a cdf entry per row")
    kinds = _i64a([row[0] for row in mutations])
    ints = _i64a([row[1] for row in mutations])
    reals = _f64([row[2] for row in mutations])
    cdf_table = None if cdf is None else _f64(cdf)
    source = np.full(n_parents, -1, dtype=np.int64)
    children = np.empty_like(parents)
    bit_generator = rng.bit_generator
    lib = _kernels()
    with _held([bit_generator]):
        status = lib.repro_ga_generation(
            bit_generator.ctypes.bit_generator, parents.ctypes.data,
            _pd(fitness), n_parents, n_routers, width, height,
            n_elites, tournament_size, *rates, *region_fractions,
            len(kinds), _pi(kinds), _pi(ints), _pd(reals),
            None if cdf_table is None else _pd(cdf_table),
            _pi(source), children.ctypes.data,
        )
    if status == -2:
        raise ValueError("a parent cell lies outside the grid")
    if status == -3:
        raise ValueError("no free cell available on the grid")
    if status:
        raise MemoryError("no scratch for the GA generation kernel")
    return source, children


def stack_diversity(cells: np.ndarray) -> float:
    """:func:`repro.genetic.population.stack_diversity` of an int32
    ``(P, N, 2)`` cell stack in one call, bit for bit.

    The kernel sums in numpy's order: each pair's router distances by
    numpy's pairwise sum (its 8-way unroll and 128-item blocks) divided
    by ``N``, each first index's pair means by one pairwise sum, and
    those row sums in order, divided by the pair count.
    """
    if cells.dtype != np.int32 or cells.ndim != 3 or cells.shape[2] != 2:
        raise ValueError("cells must be an int32 (P, N, 2) cell stack")
    cells = np.ascontiguousarray(cells)
    n_members, n_routers = cells.shape[:2]
    if n_members < 2:
        return 0.0
    if not n_routers:
        raise ValueError("a cell stack needs at least one router")
    diversity = _kernels().repro_stack_diversity(
        cells.ctypes.data, n_members, n_routers
    )
    if diversity < 0.0:
        raise MemoryError("no scratch for the diversity kernel")
    return diversity


# ----------------------------------------------------------------------
# Stacked measurement engine
# ----------------------------------------------------------------------


class CompiledEngine:
    """Fused stacked measurement of ``(K, N, 2)`` candidate stacks.

    Built and called by
    :class:`~repro.core.engine.stacked.StackedEngine` on the compiled
    tier.  The compiled tier's counterpart of
    :func:`~repro.core.engine.batch.measure_stack` /
    :class:`~repro.core.engine.sparse.SparseEngine`: per candidate, the
    pairwise link test, component labeling and covered-count reduction
    run fused in C with no ``(K, N, N)`` or ``(K, M, N)`` tensor ever
    materialized.  The kernel *form* follows
    :func:`~repro.core.engine.dispatch.select_engine` — at dense scale
    an all-pairs sweep against the precomputed squared range matrix, at
    city scale a per-candidate spatial binning with the same 3x3-ring
    conservative prune as the numpy sparse engine — and both forms are
    bit-identical to their numpy counterparts.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        fitness: FitnessFunction | None = None,
    ) -> None:
        from repro.core.engine.dispatch import select_engine
        from repro.core.engine.sparse import coverage_cell_size, link_cell_size

        require()
        self._problem = problem
        self._fitness = fitness if fitness is not None else WeightedSumFitness()
        self.form = select_engine(problem)
        radii = _f64(problem.fleet.radii)
        self._radii = radii
        self._radii_squared = _f64(radii * radii)
        self._clients = _f64(problem.clients.positions)
        giant_only = int(problem.coverage_rule is not CoverageRule.ANY_ROUTER)
        m = self._clients.shape[0]
        lib = _kernels()
        # The kernel arguments between (K, N) and the outputs, the
        # constant buffers as addresses: the arrays live as long as the
        # engine, so a call casts only its own.
        if self.form == "dense":
            link_range = problem.link_rule.range_matrix(radii)
            self._range_squared = _f64(link_range * link_range)
            self._kernel = lib.repro_measure_stack_dense
            self._fixed = (
                self._range_squared.ctypes.data, self._clients.ctypes.data, m,
                self._radii_squared.ctypes.data, giant_only,
            )
        else:
            link_cell = link_cell_size(radii, problem.link_rule)
            cover_cell = coverage_cell_size(radii)
            # In-grid coordinates span [0, width-1] x [0, height-1], so
            # these bin-grid dimensions are exact — no position of a
            # valid placement or client ever clamps.
            width, height = problem.grid.width, problem.grid.height
            self._kernel = lib.repro_measure_stack_sparse
            self._fixed = (
                radii.ctypes.data, _RULE_CODES[problem.link_rule],
                link_cell, _bin_count(width, link_cell), _bin_count(height, link_cell),
                self._clients.ctypes.data, m, self._radii_squared.ctypes.data,
                cover_cell, _bin_count(width, cover_cell), _bin_count(height, cover_cell),
                giant_only,
            )

    @property
    def problem(self) -> ProblemInstance:
        """The instance this engine measures against."""
        return self._problem

    @property
    def fitness_function(self) -> FitnessFunction:
        """The configured scalarization."""
        return self._fitness

    def measure_stack(self, positions: np.ndarray):
        """Measure a ``(K, N, 2)`` stack; bit-identical to the numpy paths."""
        from repro.core.engine.batch import StackedMeasurement

        positions = _f64(positions)
        if positions.ndim != 3 or positions.shape[2] != 2:
            raise ValueError(
                f"positions must be (K, N, 2), got {positions.shape}"
            )
        n = self._problem.n_routers
        if positions.shape[1] != n:
            raise ValueError(
                f"positions stack has {positions.shape[1]} routers but the "
                f"fleet has {n}"
            )
        k = positions.shape[0]
        # Giants, covered, components and links, one row each.
        out = np.empty((4, k), dtype=np.int64)
        giant_masks = np.empty((k, n), dtype=bool)
        if k:
            rows = out.ctypes.data
            self._kernel(
                positions.ctypes.data, k, n, *self._fixed,
                rows, rows + 8 * k, rows + 16 * k, rows + 24 * k,
                giant_masks.ctypes.data,
            )
        return StackedMeasurement.scored(
            self._problem, self._fitness, *out.astype(np.intp, copy=False), giant_masks
        )

    def __repr__(self) -> str:
        return (
            f"CompiledEngine(n_routers={self._problem.n_routers}, "
            f"form={self.form!r}, openmp={bool(_kernels().repro_has_openmp())})"
        )


def _bin_count(extent: int, cell: float) -> int:
    """Bins covering in-grid coordinates ``[0, extent - 1]``."""
    if extent <= 0:
        return 1
    return int(np.floor((extent - 1) / cell)) + 1
