"""Benchmark: sparse spatial-grid engine vs. the dense batch path.

Workload: city-scale candidate evaluation — ``K`` random placements per
round on a 512x512 deployment area (see
:func:`repro.instances.catalog.city_spec`), far beyond the paper's
32x32/64-router frame.  Two engines evaluate the identical candidate
sets:

* **dense** — ``Evaluator(engine="dense").evaluate_many`` with stacked
  ``(K, N, N)`` / ``(K, M, N)`` tensors,
* **sparse** — the spatial-grid engine (bin-pruned candidate pairs,
  chunked coverage counting).

The script asserts bit-identical results before timing, measures median
round time and tracemalloc peak memory for both engines, then runs the
``city-large`` catalog instance (4096 routers / 50k clients) end-to-end
through neighborhood search on the auto-dispatched sparse engine — a
workload whose dense tensors (hundreds of GB at the default batch
chunk) cannot be held in memory.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_sparse.py [--quick]

``--quick`` trims the workload for CI smoke runs; ``--min-speedup X``
and ``--min-memory-ratio X`` turn the printed ratios into hard
exit-code assertions for acceptance runs; ``--json [DIR]`` emits a
machine-readable ``BENCH_engine_sparse.json`` record.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc

import numpy as np

from _common import add_json_argument, write_bench_json
from repro.core.engine import select_engine
from repro.core.evaluation import Evaluation, Evaluator
from repro.core.solution import Placement
from repro.instances.catalog import city_large, city_spec
from repro.neighborhood.movements import RandomMovement
from repro.neighborhood.search import NeighborhoodSearch


def check_parity(
    reference: list[Evaluation], candidate: list[Evaluation], name: str
) -> None:
    for ref, got in zip(reference, candidate):
        if (
            got.metrics != ref.metrics
            or got.fitness != ref.fitness
            or not np.array_equal(got.giant_mask, ref.giant_mask)
        ):
            raise AssertionError(
                f"{name} engine diverged:\n"
                f"  dense:  {ref.summary()}\n"
                f"  sparse: {got.summary()}"
            )


def peak_memory(func) -> tuple[object, int]:
    """Run ``func`` under tracemalloc; returns (result, peak bytes)."""
    tracemalloc.start()
    try:
        result = func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def dense_bytes_estimate(n_routers: int, n_clients: int, chunk: int) -> int:
    """Peak dense intermediates for one batch chunk (int32 fast path).

    Two ``(K, N, N)`` + two ``(K, M, N)`` int32 delta tensors plus the
    boolean adjacency/coverage stacks — the allocations
    ``measure_stack`` cannot avoid materializing.
    """
    pair_cells = chunk * n_routers * n_routers
    cover_cells = chunk * n_clients * n_routers
    return (2 * 4 + 1) * (pair_cells + cover_cells)


def format_bytes(n_bytes: float) -> str:
    value = float(n_bytes)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024.0 or unit == "GB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} GB"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--routers", type=int, default=2048,
                        help="router count for the engine comparison")
    parser.add_argument("--clients", type=int, default=20_000,
                        help="client count for the engine comparison")
    parser.add_argument("--candidates", type=int, default=4,
                        help="candidate placements per round (default 4)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed rounds per engine (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller instance, no assertions")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless sparse speedup over dense >= X")
    parser.add_argument("--min-memory-ratio", type=float, default=None,
                        help="fail unless dense/sparse peak memory >= X")
    parser.add_argument("--skip-large", action="store_true",
                        help="skip the 4096-router / 50k-client sparse stage")
    parser.add_argument("--seed", type=int, default=20260729)
    add_json_argument(parser)
    args = parser.parse_args(argv)

    n_routers = 512 if args.quick else args.routers
    n_clients = 4_000 if args.quick else args.clients
    rounds = 2 if args.quick else args.rounds
    spec = city_spec(n_routers, n_clients, seed=args.seed)
    problem = spec.generate()
    rng = np.random.default_rng(args.seed)

    print("=" * 72)
    print(
        f"sparse engine bench: grid {problem.grid.width}x"
        f"{problem.grid.height}, {problem.n_routers} routers, "
        f"{problem.n_clients} clients, {args.candidates} candidates/round, "
        f"{rounds} rounds (auto dispatch: {select_engine(problem)})"
    )
    print("=" * 72)

    round_cells = [
        [
            Placement.random(problem.grid, problem.n_routers, rng).cells
            for _ in range(args.candidates)
        ]
        for _ in range(rounds)
    ]

    def fresh_rounds() -> list[list[Placement]]:
        # Fresh Placement objects per engine so nobody benefits from
        # another engine having warmed the lazy positions cache.
        return [
            [Placement.from_cells(problem.grid, cells) for cells in one_round]
            for one_round in round_cells
        ]

    # Parity before timing.
    dense = Evaluator(problem, engine="dense")
    sparse = Evaluator(problem, engine="sparse")
    reference = dense.evaluate_many(fresh_rounds()[0])
    check_parity(reference, sparse.evaluate_many(fresh_rounds()[0]), "sparse")
    print("parity: sparse bit-identical to dense on the first round")

    dense_times: list[float] = []
    for one_round in fresh_rounds():
        start = time.perf_counter()
        dense.evaluate_many(one_round)
        dense_times.append(time.perf_counter() - start)

    sparse_times: list[float] = []
    for one_round in fresh_rounds():
        start = time.perf_counter()
        sparse.evaluate_many(one_round)
        sparse_times.append(time.perf_counter() - start)

    first_round = fresh_rounds()[0]
    _, dense_peak = peak_memory(
        lambda: Evaluator(problem, engine="dense").evaluate_many(first_round)
    )
    first_round = fresh_rounds()[0]
    _, sparse_peak = peak_memory(
        lambda: Evaluator(problem, engine="sparse").evaluate_many(first_round)
    )

    dense_median = statistics.median(dense_times)
    sparse_median = statistics.median(sparse_times)
    speedup = dense_median / sparse_median
    memory_ratio = dense_peak / max(sparse_peak, 1)

    print(f"{'engine':<10} {'round (ms)':>12} {'peak memory':>14} {'speedup':>9}")
    for name, median, peak, ratio in [
        ("dense", dense_median, dense_peak, 1.0),
        ("sparse", sparse_median, sparse_peak, speedup),
    ]:
        print(
            f"{name:<10} {median * 1e3:>12.1f} {format_bytes(peak):>14} "
            f"{ratio:>8.1f}x"
        )
    print(
        f"memory ratio: dense/sparse = {memory_ratio:.1f}x "
        f"({format_bytes(dense_peak)} vs {format_bytes(sparse_peak)})"
    )

    large = None
    if not args.skip_large and not args.quick:
        spec_large = city_large(seed=args.seed)
        problem_large = spec_large.generate()
        estimate = dense_bytes_estimate(
            problem_large.n_routers, problem_large.n_clients, 256
        )
        print("-" * 72)
        print(
            f"{spec_large.name}: dense batch intermediates would need "
            f"~{format_bytes(estimate)} at the default 256-candidate chunk "
            f"— sparse only:"
        )
        evaluator = Evaluator(problem_large)
        assert evaluator.engine == "sparse", "auto dispatch must pick sparse"
        initial = Placement.random(
            problem_large.grid, problem_large.n_routers, rng
        )
        search = NeighborhoodSearch(
            RandomMovement(), n_candidates=8, max_phases=3, stall_phases=None
        )
        start = time.perf_counter()
        outcome = search.run(evaluator, initial, rng)
        elapsed = time.perf_counter() - start
        print(
            f"neighborhood search (3 phases x 8 candidates, auto engine "
            f"{evaluator.engine}): {outcome.best.summary()}"
        )
        print(
            f"completed {outcome.n_evaluations} evaluations in {elapsed:.2f}s "
            f"({elapsed / outcome.n_evaluations * 1e3:.1f} ms/eval)"
        )
        large = {
            "instance": spec_large.name,
            "n_routers": problem_large.n_routers,
            "n_clients": problem_large.n_clients,
            "dense_bytes_estimate": estimate,
            "n_evaluations": outcome.n_evaluations,
            "seconds": elapsed,
            "best_fitness": outcome.best.fitness,
        }

    write_bench_json(
        "engine_sparse",
        {
            "instance": spec.name,
            "n_routers": problem.n_routers,
            "n_clients": problem.n_clients,
            "candidates_per_round": args.candidates,
            "rounds": rounds,
            "dense_round_seconds": dense_times,
            "sparse_round_seconds": sparse_times,
            "dense_median_seconds": dense_median,
            "sparse_median_seconds": sparse_median,
            "speedup": speedup,
            "dense_peak_bytes": dense_peak,
            "sparse_peak_bytes": sparse_peak,
            "memory_ratio": memory_ratio,
            "large": large,
        },
        args.json,
        reduced=args.quick,
    )

    failed = False
    if args.min_speedup is not None and not args.quick:
        if speedup < args.min_speedup:
            print(
                f"FAIL: sparse speedup {speedup:.1f}x below required "
                f"{args.min_speedup:.1f}x"
            )
            failed = True
        else:
            print(f"OK: sparse speedup {speedup:.1f}x >= {args.min_speedup:.1f}x")
    if args.min_memory_ratio is not None and not args.quick:
        if memory_ratio < args.min_memory_ratio:
            print(
                f"FAIL: memory ratio {memory_ratio:.1f}x below required "
                f"{args.min_memory_ratio:.1f}x"
            )
            failed = True
        else:
            print(
                f"OK: memory ratio {memory_ratio:.1f}x >= "
                f"{args.min_memory_ratio:.1f}x"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
