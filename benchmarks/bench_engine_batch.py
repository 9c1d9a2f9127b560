"""Benchmark: batched + delta evaluation engine vs. the scalar path.

Workload: one neighborhood-search phase at production scale — ``K``
single-move candidate placements off an incumbent (paper Algorithm 2's
"pre-fixed number of movements") on a 32x32 grid with 128 routers.
Three engines evaluate the identical candidate set:

* **scalar** — ``Evaluator.evaluate`` in a loop (the reference path),
* **batch** — ``Evaluator.evaluate_many`` (one vectorized pass),
* **delta** — one ``StackedDeltaEngine.measure_phase`` per phase: one
  chain and the phase's ``K`` candidates as
  :class:`~repro.core.engine.stacked.PhaseCandidates`, measured
  incrementally off the cached incumbent (the candidates' evaluations
  are materialized after the timed call, for the parity check).

The script asserts bit-identical results across engines, prints
per-engine medians and the speedup over scalar.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_batch.py [--quick]

``--quick`` (or ``REPRO_SCALE=quick``, the default scale) trims rounds
for CI smoke runs; ``--min-speedup X`` turns the printed batch speedup
into a hard exit-code assertion for acceptance runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from _common import add_json_argument, write_bench_json
from repro.core.engine import StackedDeltaEngine
from repro.core.engine.stacked import PhaseCandidates
from repro.core.evaluation import Evaluation, Evaluator
from repro.core.solution import Placement
from repro.instances.generator import InstanceSpec


def engine_bench_spec(seed: int = 20090629) -> InstanceSpec:
    """Paper-scale engine workload: 128 routers on 32x32, 192 clients."""
    return InstanceSpec(
        name="engine-bench",
        width=32,
        height=32,
        n_routers=128,
        n_clients=192,
        distribution="normal",
        distribution_params={"mean": 16.0, "std": 3.2},
        min_radius=2.0,
        max_radius=8.0,
        seed=seed,
    )


def sample_phase(
    problem, incumbent: Placement, rng: np.random.Generator, n_candidates: int
) -> list[tuple[int, tuple[int, int]]]:
    """``n_candidates`` random single-router relocations off the
    incumbent, as ``(router, (x, y))`` pairs."""
    grid = problem.grid
    bitmap = grid.occupancy_bitmap(incumbent.cells_array())
    moves: list[tuple[int, tuple[int, int]]] = []
    while len(moves) < n_candidates:
        router = int(rng.integers(0, problem.n_routers))
        index = grid.random_free_index(bitmap, rng, 0, 0, grid.width, grid.height)
        moves.append((router, tuple(grid.cell_at(index))))
    return moves


def relocated(incumbent: Placement, router: int, cell: tuple[int, int]) -> Placement:
    """``incumbent`` with ``router`` written at ``cell`` (a free cell)."""
    cells = incumbent.cells_array().copy()
    cells[router] = cell
    return Placement.from_cells(incumbent.grid, cells)


def check_parity(
    scalar: list[Evaluation], other: list[Evaluation], name: str
) -> None:
    for reference, candidate in zip(scalar, other):
        if (
            candidate.metrics != reference.metrics
            or candidate.fitness != reference.fitness
            or not np.array_equal(candidate.giant_mask, reference.giant_mask)
        ):
            raise AssertionError(
                f"{name} engine diverged from scalar:\n"
                f"  scalar: {reference.summary()}\n"
                f"  {name}: {candidate.summary()}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--candidates", type=int, default=48,
                        help="candidate moves per phase (default 48)")
    parser.add_argument("--rounds", type=int, default=20,
                        help="timed phases per engine (default 20)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: few rounds, no perf assertion")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless batch speedup over scalar >= X")
    parser.add_argument("--seed", type=int, default=20090629)
    add_json_argument(parser)
    args = parser.parse_args(argv)

    rounds = 3 if args.quick else args.rounds
    problem = engine_bench_spec(args.seed).generate()
    rng = np.random.default_rng(args.seed)
    incumbent = Placement.random(problem.grid, problem.n_routers, rng)

    # Pre-sample every phase's moves so all engines time the identical
    # workload and no RNG cost lands inside a measured section.  Each
    # engine gets its own placement objects (same cells) so nobody
    # benefits from another engine having warmed a placement's lazily
    # cached positions array.
    phases = [
        sample_phase(problem, incumbent, rng, args.candidates)
        for _ in range(rounds)
    ]

    def fresh_placements() -> list[list[Placement]]:
        return [
            [relocated(incumbent, router, cell) for router, cell in phase]
            for phase in phases
        ]

    print("=" * 72)
    print(
        f"engine bench: grid {problem.grid.width}x{problem.grid.height}, "
        f"{problem.n_routers} routers, {problem.n_clients} clients, "
        f"{args.candidates} candidates/phase, {rounds} rounds"
    )
    print("=" * 72)

    scalar_times: list[float] = []
    scalar_results: list[list[Evaluation]] = []
    scalar = Evaluator(problem)
    for phase_placements in fresh_placements():
        start = time.perf_counter()
        scalar_results.append([scalar.evaluate(p) for p in phase_placements])
        scalar_times.append(time.perf_counter() - start)

    batch_times: list[float] = []
    batch = Evaluator(problem)
    for index, phase_placements in enumerate(fresh_placements()):
        start = time.perf_counter()
        results = batch.evaluate_many(phase_placements)
        batch_times.append(time.perf_counter() - start)
        check_parity(scalar_results[index], results, "batch")

    delta_times: list[float] = []
    delta = StackedDeltaEngine(problem, engine="auto")
    delta.reset_chain(0, incumbent)
    for index, (phase, phase_placements) in enumerate(
        zip(phases, fresh_placements())
    ):
        # Every move relocates one router to a free cell: one pair each.
        candidates = PhaseCandidates(
            np.zeros(len(phase), dtype=np.intp),
            np.arange(len(phase)),
            [router for router, _ in phase],
            [cell for _, cell in phase],
        )
        start = time.perf_counter()
        measurement = delta.measure_phase(candidates)
        delta_times.append(time.perf_counter() - start)
        results = [
            measurement.evaluation(k, placement)
            for k, placement in enumerate(phase_placements)
        ]
        check_parity(scalar_results[index], results, "delta")

    scalar_median = statistics.median(scalar_times)
    batch_median = statistics.median(batch_times)
    delta_median = statistics.median(delta_times)
    batch_speedup = scalar_median / batch_median
    delta_speedup = scalar_median / delta_median

    per = args.candidates
    print(f"{'engine':<10} {'phase (ms)':>12} {'per eval (us)':>14} {'speedup':>9}")
    for name, median, speedup in [
        ("scalar", scalar_median, 1.0),
        ("batch", batch_median, batch_speedup),
        ("delta", delta_median, delta_speedup),
    ]:
        print(
            f"{name:<10} {median * 1e3:>12.3f} {median / per * 1e6:>14.1f} "
            f"{speedup:>8.1f}x"
        )
    print("parity: batch and delta bit-identical to scalar on every phase")

    write_bench_json(
        "engine_batch",
        {
            "n_routers": problem.n_routers,
            "n_clients": problem.n_clients,
            "candidates_per_phase": args.candidates,
            "rounds": rounds,
            "scalar_median_seconds": scalar_median,
            "batch_median_seconds": batch_median,
            "delta_median_seconds": delta_median,
            "batch_speedup": batch_speedup,
            "delta_speedup": delta_speedup,
        },
        args.json,
        reduced=args.quick,
    )

    if args.min_speedup is not None and not args.quick:
        if batch_speedup < args.min_speedup:
            print(
                f"FAIL: batch speedup {batch_speedup:.1f}x below required "
                f"{args.min_speedup:.1f}x"
            )
            return 1
        print(f"OK: batch speedup {batch_speedup:.1f}x >= {args.min_speedup:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
