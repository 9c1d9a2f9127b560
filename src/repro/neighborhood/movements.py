"""Movement types — neighborhood structures (paper Section 4).

"Starting from an initial solution, the algorithm first selects a
movement type, that is the way the small local perturbation is
performed, which defines the neighborhood structure."

Two movement types come from the paper:

* :class:`SwapMovement` — Algorithm 3: the worst router of the most
  dense ``Hg x Wg`` area is exchanged with the best router of the most
  sparse area, "to promote the placement of best routers in most dense
  areas of the grid area".
* :class:`RandomMovement` — the "purely random search exploration"
  baseline of Section 5.2.2: a random router relocates to a random free
  cell.

:class:`CombinedMovement` mixes movement types stochastically — the
building block for the "full featured local search methods" the paper
announces as future work.

Every movement defines its proposal once, as a sampler of
:class:`~repro.neighborhood.moves.MoveBatch` rows against an incumbent
(:meth:`MovementType._proposer`); a custom movement defines
``_proposer`` too.  The RNG-free work (ranked windows, per-window
router picks, the occupancy bitmap) is done with array operations, and
the draws are served by :class:`~repro.seeding.BulkDraws`, which
replays numpy's own algorithms on prefetched words.  That Python row
sampler is the reference.  On the compiled tier, Random and Swap
proposals are drawn by one C kernel call per phase for every chain
(:func:`~repro.core.engine.compiled.propose_rows`), through each chain
generator's own ``bitgen_t``, with the same draws in the same order:
the moves and every generator's final state equal the row sampler's.
:meth:`MovementType.propose_batch` samples a whole phase per chain as
one :class:`~repro.neighborhood.moves.MoveBatch`, the only proposal
form the search driver reads, and :meth:`MovementType.propose` is one
row of it.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, ClassVar, Iterator, Sequence

import numpy as np

from repro.core.density import DensityMap
from repro.core.engine import compiled
from repro.core.evaluation import Evaluation
from repro.core.geometry import Rect
from repro.core.grid import GridArea
from repro.core.problem import ProblemInstance
from repro.neighborhood.moves import MoveBatch
from repro.seeding import BulkDraws, selection_cdf

__all__ = ["MovementType", "SwapMovement", "RandomMovement", "CombinedMovement"]

#: One proposal in :class:`MoveBatch` row form,
#: ``(kind, router, partner, x, y)``.
Row = "tuple[int, int, int, int, int]"
_NO_MOVE = MoveBatch.NO_MOVE
_RELOCATE = MoveBatch.RELOCATE
_SWAP = MoveBatch.SWAP

#: Entry bound for the per-placement proposal caches; a multi-chain
#: portfolio holds one live entry per chain, so overflow means old
#: placements — clearing keeps memory flat without an LRU.
_CACHE_LIMIT = 512


#: One proposal drawn from a :class:`~repro.seeding.BulkDraws`.
RowSampler = "Callable[[BulkDraws], Row]"


def _router_picks(
    radii: np.ndarray, members: np.ndarray, strongest: bool
) -> np.ndarray:
    """Per-row pick of a ``(windows, routers)`` membership mask.

    The strongest member (max radius, then min id) or the weakest (min
    radius, then min id) — Algorithm 3's "best" and "worst" router of a
    window; ``-1`` for an empty row.
    """
    fill = -np.inf if strongest else np.inf
    selected = np.where(members, radii[np.newaxis, :], fill)
    extreme = selected.max(axis=1) if strongest else selected.min(axis=1)
    first = (members & (selected == extreme[:, np.newaxis])).argmax(axis=1)
    return np.where(members.any(axis=1), first, -1)


class _SwapWindowState:
    """One incumbent's Swap window pools and its pick table, in Python.

    The pick table packs, in int64 (the layout documented on
    ``repro_propose_rows`` in ``_kernels.c``): ``n_dense``,
    ``n_sparse``, the strongest router of each sparse window, per dense
    window the strongest router outside it (relocating) or its weakest
    router (literal), then each dense window's ``x0, x1, y0, y1``; ``-1``
    marks no router.  It is an RNG-free function of the incumbent, so
    sharing it across proposals never touches a chain's stream.  On the
    compiled tier one ``repro_swap_window_table`` call builds the same
    table, density pools included
    (:func:`~repro.core.engine.compiled.swap_window_table`); this class
    is the reference, and the table for ``REPRO_COMPILED=0``.  (The
    occupancy bitmap is rebuilt per call instead: one grid-sized buffer
    per cached incumbent would dominate the cache's memory.)
    """

    __slots__ = ("placement", "pools")

    def __init__(self, placement, pools) -> None:
        self.placement = placement
        self.pools = pools

    def prepare(self, radii: np.ndarray, relocate: bool) -> np.ndarray:
        """The pick table, every pooled window resolved in one array pass."""
        dense_pool, sparse_pool = self.pools
        n_dense = len(dense_pool)
        bounds = _window_bounds(dense_pool + sparse_pool)
        inside = _inside(self.placement.cells_array(), bounds)
        dense_inside = inside[:n_dense]
        if relocate:
            # The strongest router of each sparse window and outside each
            # dense window, in one pass.
            picks = _router_picks(
                radii, np.concatenate((inside[n_dense:], ~dense_inside)), True
            )
        else:
            picks = np.concatenate((
                _router_picks(radii, inside[n_dense:], strongest=True),
                _router_picks(radii, dense_inside, strongest=False),
            ))
        return np.concatenate(
            ([n_dense, len(sparse_pool)], picks, bounds[:n_dense].ravel())
        ).astype(np.int64)


def _window_bounds(windows: "list[Rect]") -> np.ndarray:
    """``(windows, 4)`` rows of ``(x0, x1, y0, y1)``."""
    return np.array(
        [(w.x0, w.x1, w.y0, w.y1) for w in windows], dtype=np.intp
    ).reshape(-1, 4)


def _inside(cells: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``(windows, routers)`` membership of every router cell."""
    xs = cells[np.newaxis, :, 0]
    ys = cells[np.newaxis, :, 1]
    return (
        (xs >= bounds[:, 0:1])
        & (xs < bounds[:, 1:2])
        & (ys >= bounds[:, 2:3])
        & (ys < bounds[:, 3:4])
    )


#: The proposal sampler's tier while a search runs (see
#: :func:`proposal_tier`); ``None`` outside a run.  A context variable,
#: not a parameter: the search rules call the public ``propose_batch``,
#: whose signature stays free of tier plumbing.
_KERNEL_TIER: "ContextVar[bool | None]" = ContextVar("proposal_kernel", default=None)


@contextmanager
def proposal_tier(use_kernel: bool) -> Iterator[None]:
    """Draw every proposal of the block on the kernel exactly when
    ``use_kernel``.

    A search run resolves the tier once, after it has built its engine,
    so no phase reads the ``REPRO_COMPILED`` gate; outside a run each
    :meth:`MovementType.propose_batch` call resolves it.  Either way the
    kernel is used when the compiled tier is enabled and already loaded
    (:func:`~repro.core.engine.compiled.is_loaded`): drawing proposals
    never starts a build, and both tiers draw the same moves.
    """
    token = _KERNEL_TIER.set(use_kernel)
    try:
        yield
    finally:
        _KERNEL_TIER.reset(token)


def _use_kernel() -> bool:
    tier = _KERNEL_TIER.get()
    return compiled.is_loaded() if tier is None else tier


class MovementType:
    """A neighborhood structure: proposes candidate moves.

    A subclass defines :meth:`_proposer`, the row sampler that
    :meth:`propose_batch` and :meth:`propose` draw from.
    """

    #: Registry name of the movement (e.g. ``"swap"``).
    name: ClassVar[str] = "abstract"

    def propose(
        self,
        current: Evaluation,
        problem: ProblemInstance,
        rng: np.random.Generator,
    ) -> MoveBatch:
        """One candidate move from the neighborhood of ``current``.

        The move is the one-row :class:`MoveBatch` of
        :meth:`propose_batch` for one chain, which leaves ``rng`` where
        the row's scalar draws leave it.  The row is
        :attr:`MoveBatch.NO_MOVE` when no move of this type is available
        (e.g. no router in the chosen window); Algorithm 2 simply
        samples again.
        """
        return self._sample([current], problem, [rng], 1, _use_kernel())[0]

    def propose_batch(
        self,
        currents: Sequence[Evaluation],
        problem: ProblemInstance,
        rngs: "Sequence[np.random.Generator]",
        n_candidates: int,
    ) -> "list[MoveBatch]":
        """One :class:`~repro.neighborhood.moves.MoveBatch` of
        ``n_candidates`` rows per lockstep chain.

        The multi-chain stream contract: chain ``r``'s proposals are
        exactly what ``n_candidates`` successive :meth:`propose` calls
        against ``currents[r]`` would draw from ``rngs[r]``, and
        ``rngs[r]`` ends in exactly the state those calls leave — each
        chain consumes *only its own* generator, in candidate order, so
        results are independent of how chains are grouped into batches,
        processes or phases.

        The RNG-free per-incumbent work is done once, and the candidates
        are drawn on the chain's generator — Random and Swap on the
        compiled tier by one kernel call for every chain
        (:func:`~repro.core.engine.compiled.propose_rows`), otherwise
        (and :class:`CombinedMovement` always) row by row from
        :meth:`_proposer` on :class:`~repro.seeding.BulkDraws`.  A row
        is :attr:`MoveBatch.NO_MOVE` where no move was available; the
        kernel's agreement with the row sampler is
        asserted by ``tests/neighborhood/test_propose_kernel.py``, and
        ``propose`` against a frozen copy of the scalar formulation by
        ``tests/neighborhood/test_proposal_stream_parity.py``.
        """
        return self._sample(currents, problem, rngs, n_candidates, _use_kernel())

    def _sample(
        self,
        currents: Sequence[Evaluation],
        problem: ProblemInstance,
        rngs: "Sequence[np.random.Generator]",
        count: int,
        use_kernel: bool,
    ) -> "list[MoveBatch]":
        """:meth:`propose_batch`, Random and Swap on the kernel when
        ``use_kernel``."""
        if len(currents) != len(rngs):
            raise ValueError(
                f"{len(currents)} chain states for {len(rngs)} generators"
            )
        if use_kernel and currents:
            inputs = [self._kernel_input(current, problem) for current in currents]
            if all(entry is not None for entry in inputs):
                codes, cells, picks = zip(*inputs)
                grid = problem.grid
                rows = compiled.propose_rows(
                    codes[0],
                    count,
                    rngs,
                    None if cells[0] is None else cells,
                    None if picks[0] is None else picks,
                    grid.width,
                    grid.height,
                )
                return [MoveBatch(table) for table in rows]
        batches = []
        for current, rng in zip(currents, rngs):
            row = self._proposer(current, problem)
            with BulkDraws(rng, words=2 * count) as draws:
                batches.append(MoveBatch.from_rows([row(draws) for _ in range(count)]))
        return batches

    def _proposer(
        self, current: Evaluation, problem: ProblemInstance
    ) -> "RowSampler":
        """The sampler of :class:`MoveBatch` rows against ``current``.

        It draws one proposal from a :class:`~repro.seeding.BulkDraws`
        as a ``(kind, router, partner, x, y)`` row: the movement's
        definition and the reference for the kernel.  Every movement
        defines it, custom ones included.
        """
        raise NotImplementedError(
            f"{type(self).__name__} defines no row sampler (_proposer())"
        )

    def _kernel_input(
        self, current: Evaluation, problem: ProblemInstance
    ) -> "tuple[int, np.ndarray | None, np.ndarray | None] | None":
        """``(movement code, cells, picks)`` of ``current`` for
        :func:`~repro.core.engine.compiled.propose_rows`, or ``None``
        when the movement is not drawn by the kernel."""
        return None

    def release_proposal_caches(self) -> None:
        """Drop any per-incumbent proposal caches (results unaffected).

        Portfolio drivers call this when a run finishes so a long-lived
        movement instance does not keep finished placements alive; the
        base implementation holds no caches.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RandomMovement(MovementType):
    """Relocate a uniformly random router to a uniformly random free cell."""

    name: ClassVar[str] = "random"

    def _proposer(self, current, problem):
        placement = current.placement
        grid = problem.grid
        n_routers = len(placement)
        width, height = grid.width, grid.height
        bitmap = grid.occupancy_bitmap(placement.cells_array())

        def row(draws: BulkDraws) -> Row:
            router = draws.integers(0, n_routers)
            try:
                index = grid.random_free_index(bitmap, draws, 0, 0, width, height)
            except ValueError:
                # Fully packed grid: no relocation exists.
                return _NO_MOVE
            return (_RELOCATE, router, -1, index % width, index // width)

        return row

    def _kernel_input(self, current, problem):
        return compiled.PROPOSE_RANDOM, current.placement.cells_array(), None


class SwapMovement(MovementType):
    """The swap movement of Algorithm 3.

    Parameters
    ----------
    window_fraction, window_width, window_height:
        Size of the ``Hg x Wg`` sub-areas ranked by density (fraction of
        the grid, or explicit cells).
    density_source:
        What "dense" counts — ``"routers"`` (default), ``"clients"`` or
        ``"both"``.  Algorithm 3 speaks of the most dense/sparse areas of
        the mesh without the "in terms of client nodes" qualifier that
        HotSpot carries, and only the router reading sustains the giant
        component growth of Fig. 4: as routers accrete, the dense window
        tracks the growing cluster instead of saturating on a fixed
        client hotspot.
    relocate:
        Which reading of Algorithm 3.  ``False`` = literal: the two
        routers exchange positions.  ``True`` (default) = the best
        sparse-area router also *relocates into* the dense window, the
        reading consistent with the growth shown in Fig. 4.
    pool:
        Candidate windows are sampled from the ``pool`` most extreme
        windows rather than always the single most extreme, so repeated
        proposals differ (Algorithm 2 samples several movements per
        phase).
    """

    name: ClassVar[str] = "swap"

    def __init__(
        self,
        window_fraction: float = 0.125,
        window_width: int | None = None,
        window_height: int | None = None,
        density_source: str = "routers",
        relocate: bool = True,
        pool: int = 8,
    ) -> None:
        if not 0.0 < window_fraction <= 1.0:
            raise ValueError(
                f"window_fraction must be in (0, 1], got {window_fraction}"
            )
        if density_source not in ("clients", "routers", "both"):
            raise ValueError(
                "density_source must be 'clients', 'routers' or 'both', "
                f"got {density_source!r}"
            )
        if pool <= 0:
            raise ValueError(f"pool must be positive, got {pool}")
        if window_width is not None and window_width <= 0:
            raise ValueError(f"window_width must be positive, got {window_width}")
        if window_height is not None and window_height <= 0:
            raise ValueError(f"window_height must be positive, got {window_height}")
        self.window_fraction = window_fraction
        self.window_width = window_width
        self.window_height = window_height
        self.density_source = density_source
        self.relocate = relocate
        self.pool = pool
        # Best-neighbor selection proposes many moves from the same
        # current solution, and a lockstep portfolio holds one incumbent
        # per chain; the pick table only depends on that solution, so an
        # identity-keyed cache of ``(placement, table)`` (one entry per
        # live placement, placements are immutable) removes the repeated
        # density and window-scan work.
        self._window_cache: "dict[int, tuple[object, np.ndarray]]" = {}
        # One-slot problem-keyed caches of placement-independent inputs:
        # the Python path's client-density pools (see _ranked_pools) and
        # the kernel's int client cells (see _client_cells).
        self._static_pools = None
        self._static_cells = None

    def __getstate__(self):
        # Worker processes rebuild their own caches; shipping cached
        # arrays would only bloat the pickle.
        state = self.__dict__.copy()
        state["_window_cache"] = {}
        state["_static_pools"] = None
        state["_static_cells"] = None
        return state

    # ------------------------------------------------------------------
    # Algorithm 3, steps 1-3: windows
    # ------------------------------------------------------------------

    def window_size(self, grid: GridArea) -> tuple[int, int]:
        """Effective ``(Wg, Hg)`` on the given grid."""
        width = (
            self.window_width
            if self.window_width is not None
            else max(1, int(round(grid.width * self.window_fraction)))
        )
        height = (
            self.window_height
            if self.window_height is not None
            else max(1, int(round(grid.height * self.window_fraction)))
        )
        return min(width, grid.width), min(height, grid.height)

    def _density_points(
        self, current: Evaluation, problem: ProblemInstance
    ) -> np.ndarray:
        client_points = problem.clients.positions
        router_points = current.placement.positions_array()
        if self.density_source == "clients":
            return client_points
        if self.density_source == "routers":
            return router_points
        return np.vstack([client_points, router_points])

    def _ranked_pools(
        self, current: Evaluation, problem: ProblemInstance
    ) -> tuple[list[Rect], list[Rect]]:
        """Dense/sparse window pools, density-built for ``current``.

        Client-only density does not depend on router positions, so its
        pools are computed once per problem instance and shared by every
        incumbent (the router picks, which do depend on the placement,
        are resolved per incumbent by :class:`_SwapWindowState`).
        """
        static = self.density_source == "clients"
        if static and self._static_pools is not None:
            problem_key, pools = self._static_pools
            if problem_key is problem:
                return pools
        width, height = self.window_size(problem.grid)
        density = DensityMap.build(
            problem.grid, self._density_points(current, problem), width, height
        )
        pools = (
            density.ranked_windows(self.pool, densest=True),
            density.ranked_windows(self.pool, densest=False),
        )
        if static:
            self._static_pools = (problem, pools)
        return pools

    def release_proposal_caches(self) -> None:
        # The problem-keyed static slots stay (one tiny entry each);
        # only the per-placement pick tables pin solutions.
        self._window_cache.clear()

    # ------------------------------------------------------------------
    # Algorithm 3, steps 4-7: pick routers and build the move
    # ------------------------------------------------------------------

    def _proposer(self, current, problem):
        """Algorithm 3 on the incumbent's precomputed window picks.

        A proposal draws a dense and a sparse window from the pools.
        Literally (``relocate=False``), the weakest router of the dense
        window swaps with the strongest of the sparse one; both windows
        must hold a router and the two must differ.  Relocating (D6),
        the strongest router of the sparse window — or, when it holds
        none, the strongest outside the dense window — moves to a free
        cell of the dense window.  Every pooled window's picks are
        resolved once per incumbent (:meth:`_picks`), so a
        proposal costs its two window draws, a table lookup and — when
        relocating — the free-cell draws.
        """
        picks = self._picks(current, problem).tolist()
        n_dense, n_sparse = picks[0], picks[1]
        strong_sparse = picks[2 : 2 + n_sparse]
        dense_picks = picks[2 + n_sparse : 2 + n_sparse + n_dense]
        flat_bounds = picks[2 + n_sparse + n_dense :]

        if not self.relocate:

            def swap_row(draws: BulkDraws) -> Row:
                weak = dense_picks[draws.integers(0, n_dense)]
                strong = strong_sparse[draws.integers(0, n_sparse)]
                if weak < 0 or strong < 0 or weak == strong:
                    return _NO_MOVE
                return (_SWAP, weak, strong, -1, -1)

            return swap_row

        grid = problem.grid
        width = grid.width
        bitmap = grid.occupancy_bitmap(current.placement.cells_array())

        def relocation_row(draws: BulkDraws) -> Row:
            dense_index = draws.integers(0, n_dense)
            mover = strong_sparse[draws.integers(0, n_sparse)]
            if mover < 0:
                # The sparse window is empty: the strongest router
                # outside the dense window moves instead.
                mover = dense_picks[dense_index]
                if mover < 0:
                    return _NO_MOVE
            left, right, bottom, top = flat_bounds[4 * dense_index : 4 * dense_index + 4]
            try:
                index = grid.random_free_index(
                    bitmap, draws, left, bottom, right, top
                )
            except ValueError:
                # The dense window is full.
                return _NO_MOVE
            return (_RELOCATE, mover, -1, index % width, index // width)

        return relocation_row

    def _kernel_input(self, current, problem):
        if not self.relocate:
            return compiled.PROPOSE_SWAP_LITERAL, None, self._picks(current, problem)
        return (
            compiled.PROPOSE_SWAP_RELOCATE,
            current.placement.cells_array(),
            self._picks(current, problem),
        )

    def _picks(self, current, problem) -> np.ndarray:
        """The incumbent's window pick table, built once per incumbent.

        On the kernel tier one
        :func:`~repro.core.engine.compiled.swap_window_table` call builds
        it, density and pools included; otherwise
        :class:`_SwapWindowState` does, the reference.  Both build the
        same table.
        """
        placement = current.placement
        key = id(placement)
        entry = self._window_cache.get(key)
        if entry is not None and entry[0] is placement:
            return entry[1]
        if len(self._window_cache) >= _CACHE_LIMIT:
            self._window_cache.clear()
        radii = problem.fleet.radii
        if _use_kernel():
            grid = problem.grid
            picks = compiled.swap_window_table(
                grid.width,
                grid.height,
                self.window_size(grid),
                None if self.density_source == "routers" else self._client_cells(problem),
                placement.cells_array(),
                self.density_source != "clients",
                radii,
                self.pool,
                self.relocate,
            )
        else:
            pools = self._ranked_pools(current, problem)
            picks = _SwapWindowState(placement, pools).prepare(radii, self.relocate)
        self._window_cache[key] = (placement, picks)
        return picks

    def _client_cells(self, problem: ProblemInstance) -> np.ndarray:
        """The clients as int density points (``DensityMap.build``'s
        conversion), computed once per problem instance."""
        if self._static_cells is None or self._static_cells[0] is not problem:
            cells = np.asarray(problem.clients.positions, dtype=int).reshape(-1, 2)
            self._static_cells = (problem, cells)
        return self._static_cells[1]

    def __repr__(self) -> str:
        return (
            f"SwapMovement(window_fraction={self.window_fraction}, "
            f"density_source={self.density_source!r}, relocate={self.relocate}, "
            f"pool={self.pool})"
        )


class CombinedMovement(MovementType):
    """A stochastic mixture of movement types.

    Each proposal draws one of the constituent movements according to
    ``weights`` (uniform when omitted).  Mixing a density-guided movement
    with a random one adds exploration — the standard diversification
    trick in the "full featured" local search methods the paper points
    to as future work.
    """

    name: ClassVar[str] = "combined"

    def __init__(
        self,
        movements: Sequence[MovementType],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not movements:
            raise ValueError("CombinedMovement needs at least one movement")
        self.movements = list(movements)
        if weights is None:
            weights = [1.0] * len(self.movements)
        if len(weights) != len(self.movements):
            raise ValueError(
                f"{len(weights)} weights for {len(self.movements)} movements"
            )
        self._probabilities, self._cdf = selection_cdf(weights)

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized selection probabilities, aligned with ``movements``."""
        return self._probabilities

    def _proposer(self, current, problem):
        rows = [movement._proposer(current, problem) for movement in self.movements]
        # The pick of Generator.choice(n, p=probabilities), on the
        # precomputed cdf (selection_cdf).
        cdf = self._cdf

        def row(draws: BulkDraws) -> Row:
            return rows[bisect_right(cdf, draws.random())](draws)

        return row

    def release_proposal_caches(self) -> None:
        for movement in self.movements:
            movement.release_proposal_caches()

    def __repr__(self) -> str:
        inner = ", ".join(repr(movement) for movement in self.movements)
        return f"CombinedMovement([{inner}])"
