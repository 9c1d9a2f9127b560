"""Benchmark: persistent runtime vs per-call cold pools at city scale.

Workload: repeated scenario-fleet round trips against one city-scale
instance (the service shape — a resident problem, many fan-outs).  Each
round trip is one :meth:`~repro.scenario.fleet.ScenarioFleet.run` call
fanning replicate shards over ``--workers`` processes.  Two executions
of the *identical* portfolio:

* **cold** — the pre-runtime behavior: every call runs on a fresh
  :class:`~repro.parallel.runtime.ParallelRuntime` (a new process pool,
  shut down afterwards) whose broadcast threshold sits above the
  instance, so the full base instance — city-scale client arrays
  included — is pickled into every shard task.
* **warm** — the persistent runtime (:mod:`repro.parallel.runtime`):
  one pool reused across calls and the instance broadcast once over
  shared memory, each task carrying a few-hundred-byte handle.

Per-cell results are asserted bit-identical to a serial (in-process)
reference run before any timing is reported, so the speedup is pure
transport and pool lifecycle — no work is skipped.  Two gates:

* wall-clock: warm must be ≥ ``--min-speedup`` (default 3x) faster over
  the round trips;
* transport: the per-task scenario payload must pickle ≥
  ``--min-byte-ratio`` (default 10x) smaller under broadcast.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_parallel_runtime.py [--smoke]

``--smoke`` shrinks the instance for CI crash checks (parity and the
byte-ratio still asserted, no wall-clock assertion).  A machine-readable
record lands in ``BENCH_parallel_runtime.json`` (schema v2, repo root by
default).
"""

from __future__ import annotations

import argparse
import pickle
import sys
import time
from contextlib import contextmanager

from _common import add_json_argument, write_bench_json
import repro.parallel.runtime as runtime_mod
from repro.instances.catalog import city_spec
from repro.instances.shm import problem_nbytes
from repro.parallel import ParallelRuntime, get_runtime, shutdown_runtime
from repro.scenario import Scenario, ScenarioFleet


@contextmanager
def cold_runtime(problem):
    """The cold arm: a fresh pool for this call and no broadcast.

    A private runtime whose threshold is above ``problem`` replaces the
    process runtime for the call, so the fleet pickles the instance into
    every task; shutting it down afterwards discards its pool.
    """
    runtime = ParallelRuntime(shm_min_bytes=problem_nbytes(problem) + 1)
    prior = runtime_mod._global_runtime
    runtime_mod._global_runtime = runtime
    try:
        yield runtime
    finally:
        runtime_mod._global_runtime = prior
        runtime.shutdown()


def task_scenario(scenario, runtime) -> tuple:
    """A scenario exactly as the fleet ships it in each shard task."""
    return (
        scenario.name,
        runtime.broadcast(scenario.base),
        scenario.perturbations,
    )


def cell_signature(result) -> list[tuple]:
    """Everything a replicate's identity should pin, except wall-clock."""
    return [
        (
            step.result.best.fitness,
            step.result.best.placement.cells,
            step.result.n_evaluations,
            step.result.n_phases,
        )
        for step in result.steps
    ]


def report_signature(report) -> list[list[tuple]]:
    return [cell_signature(run.result) for run in report.runs]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--routers", type=int, default=128,
                        help="city instance routers (default 128)")
    parser.add_argument("--clients", type=int, default=20000,
                        help="city instance clients (default 20000)")
    parser.add_argument("--steps", type=int, default=1,
                        help="perturbation steps per scenario (default 1)")
    parser.add_argument("--seeds", type=int, default=4,
                        help="replicates per (scenario, solver) cell "
                        "(default 4)")
    parser.add_argument("--budget", type=int, default=1,
                        help="max search phases per step (default 1)")
    parser.add_argument("--candidates", type=int, default=2,
                        help="candidate moves per phase (default 2)")
    parser.add_argument("--workers", type=int, default=4,
                        help="process fan-out per round trip (default 4)")
    parser.add_argument("--engine", default="sparse",
                        help="evaluation engine (default sparse — the "
                        "city-scale frame's engine; see city_spec)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed round trips per arm; the minimum "
                        "counts (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI crash check: small instance, 1 round, "
                        "parity + byte-ratio asserted, no wall-clock "
                        "assertion")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail unless warm is >= X times faster than "
                        "the cold-pool baseline (default 3.0)")
    parser.add_argument("--min-byte-ratio", type=float, default=10.0,
                        help="fail unless broadcast shrinks the per-task "
                        "payload >= X times (default 10.0)")
    parser.add_argument("--seed", type=int, default=20090629)
    add_json_argument(parser)
    args = parser.parse_args(argv)

    n_routers = 48 if args.smoke else args.routers
    n_clients = 5000 if args.smoke else args.clients
    rounds = 1 if args.smoke else max(1, args.rounds)

    problem = city_spec(n_routers, n_clients).generate()
    scenarios = [
        Scenario.client_drift(problem, args.steps, sigma=2.0),
        Scenario.router_outages(problem, args.steps, count=1),
    ]
    solver_kwargs = {"n_candidates": args.candidates}
    solver_specs = [("search:swap", solver_kwargs)]
    n_cells = len(scenarios) * len(solver_specs)
    n_triples = n_cells * args.seeds

    print("=" * 72)
    print(
        f"parallel-runtime bench: {n_cells} cells x {args.seeds} seeds "
        f"({n_triples} triples) on {problem.grid.width}x"
        f"{problem.grid.height}, {problem.n_routers} routers, "
        f"{problem.n_clients} clients; {args.steps}+1 steps/triple, "
        f"workers={args.workers}, best of {rounds} round trip(s)"
    )
    print("=" * 72)

    def build_fleet(workers):
        return ScenarioFleet(
            scenarios,
            solver_specs,
            n_seeds=args.seeds,
            budget=args.budget,
            workers=workers,
            engine=args.engine,
        )

    # The untimed serial reference every parallel arm must reproduce.
    reference = report_signature(build_fleet(None).run(seed=args.seed))

    fleet = build_fleet(args.workers)
    cold_seconds = warm_seconds = float("inf")
    # Arms interleave per round and the minimum counts, so ambient load
    # cannot skew the ratio.  The warm arm's first call pays pool
    # creation + broadcast publish; min-of-rounds reports the runtime's
    # steady state, which is the amortized claim under test.
    for _ in range(rounds):
        with cold_runtime(problem):
            start = time.perf_counter()
            cold_report = fleet.run(seed=args.seed)
            cold_seconds = min(cold_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        warm_report = fleet.run(seed=args.seed)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
        if report_signature(cold_report) != reference:
            raise AssertionError(
                "cold-pool arm diverged from the serial reference"
            )
        if report_signature(warm_report) != reference:
            raise AssertionError(
                "persistent-runtime arm diverged from the serial reference"
            )
    print(
        f"parity: all {n_triples} triples bit-identical to the serial "
        "reference in both arms"
    )

    # Transport gate: the per-task scenario payload, exactly as the
    # fleet ships it (full base instance cold, broadcast handle warm).
    with cold_runtime(problem) as runtime:
        cold_bytes = max(
            len(pickle.dumps(task_scenario(s, runtime))) for s in scenarios
        )
    warm_bytes = max(
        len(pickle.dumps(task_scenario(s, get_runtime()))) for s in scenarios
    )
    byte_ratio = cold_bytes / warm_bytes
    stats = get_runtime().stats

    speedup = cold_seconds / warm_seconds
    header = f"{'arm':6s} {'seconds':>10s} {'task bytes':>12s}"
    print(header)
    print("-" * len(header))
    for label, seconds, nbytes in (
        ("cold", cold_seconds, cold_bytes),
        ("warm", warm_seconds, warm_bytes),
    ):
        print(f"{label:6s} {seconds:>10.2f} {nbytes:>12d}")
    print("-" * len(header))
    print(
        f"warm speedup: {speedup:.1f}x wall-clock, payload {byte_ratio:.0f}x "
        f"smaller; runtime stats: {stats}"
    )

    payload = {
        "n_routers": problem.n_routers,
        "n_clients": problem.n_clients,
        "n_cells": n_cells,
        "n_seeds": args.seeds,
        "n_triples": n_triples,
        "n_steps": args.steps,
        "budget": args.budget,
        "candidates_per_phase": args.candidates,
        "workers": args.workers,
        "rounds": rounds,
        "smoke": args.smoke,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "cold_task_bytes": cold_bytes,
        "warm_task_bytes": warm_bytes,
        "byte_reduction": byte_ratio,
        "pool_creates": stats.pool_creates,
        "pool_reuses": stats.pool_reuses,
        "publishes": stats.publishes,
        "broadcast_hits": stats.broadcast_hits,
    }
    write_bench_json("parallel_runtime", payload, args.json, reduced=args.smoke)
    shutdown_runtime()

    if byte_ratio < args.min_byte_ratio:
        print(
            f"FAIL: payload reduction {byte_ratio:.1f}x below required "
            f"{args.min_byte_ratio:.1f}x"
        )
        return 1
    if not args.smoke:
        if speedup < args.min_speedup:
            print(
                f"FAIL: warm speedup {speedup:.1f}x below required "
                f"{args.min_speedup:.1f}x"
            )
            return 1
        print(
            f"OK: speedup {speedup:.1f}x >= {args.min_speedup:.1f}x, "
            f"payload {byte_ratio:.0f}x >= {args.min_byte_ratio:.0f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
