"""Benchmark: lockstep multi-chain search vs. one chain at a time.

Workload: the paper-scale replication portfolio — ``R`` seeds x 6
movement types (the paper's swap and random, three swap variants, and
the combined mixture) on a 32x32 grid with 128 routers and 192 clients,
30 phases x 16 candidates per chain.  Two executions of the identical
portfolio:

* **serial** — ``R`` separate one-chain runs per movement: one
  :class:`NeighborhoodSearch` (itself a one-chain
  :class:`MultiChainSearch`) per (movement, seed) chain, each phase
  measuring its own 16-candidate batch against that chain's delta
  cache.
* **multichain** — one :class:`MultiChainSearch` per movement advancing
  all ``R`` chains in lockstep: one vectorized ``propose_batch`` and one
  stacked delta-engine measurement per phase for all ``R x 16``
  candidates.

Both run the documented per-chain RNG contract (``(seed_base,
crc32(label), seed)`` keys), so the script asserts bit-identical
per-chain results — best fitness, final placement cells and the full
phase trace — before reporting wall-clock.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_multichain.py [--smoke]

``--smoke`` trims seeds/phases for CI crash checks; ``--min-speedup X``
turns the printed portfolio speedup into a hard exit-code assertion for
acceptance runs.  A machine-readable record lands in
``BENCH_multichain.json`` (repo root by default).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _common import add_json_argument, write_bench_json
from repro.core.evaluation import Evaluator
from repro.core.solution import Placement
from repro.instances.generator import InstanceSpec
from repro.neighborhood import MultiChainSearch, NeighborhoodSearch
from repro.neighborhood.registry import movement_factory
from repro.experiments.replication import label_key

#: The 6-movement portfolio: the paper's two movements plus the natural
#: swap variants and the combined mixture — every registry family.
PORTFOLIO = (
    ("swap", movement_factory("swap")),
    ("swap-literal", movement_factory("swap-literal")),
    ("swap-clients", movement_factory("swap", density_source="clients")),
    ("swap-both", movement_factory("swap", density_source="both")),
    ("random", movement_factory("random")),
    ("combined", movement_factory("combined")),
)


def multichain_bench_spec(seed: int = 20090629) -> InstanceSpec:
    """Paper-scale portfolio workload: 128 routers on 32x32, 192 clients."""
    return InstanceSpec(
        name="multichain-bench",
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


def chain_inputs(problem, label: str, seed_base: int, n_seeds: int):
    """Per-chain generators + initial placements under the RNG contract."""
    rngs = [
        np.random.default_rng((seed_base, label_key(label), seed))
        for seed in range(n_seeds)
    ]
    initials = [
        Placement.random(problem.grid, problem.n_routers, rng) for rng in rngs
    ]
    return initials, rngs


def run_serial(problem, factory, label, seed_base, n_seeds, candidates, phases):
    """One chain at a time (one fresh search + evaluator per seed)."""
    results = []
    for seed in range(n_seeds):
        rng = np.random.default_rng((seed_base, label_key(label), seed))
        initial = Placement.random(problem.grid, problem.n_routers, rng)
        search = NeighborhoodSearch(
            factory(), n_candidates=candidates, max_phases=phases,
            stall_phases=None,
        )
        results.append(search.run(Evaluator(problem), initial, rng))
    return results


def run_multichain(problem, factory, label, seed_base, n_seeds, candidates, phases):
    """The lockstep portfolio (all seeds of one movement at once)."""
    initials, rngs = chain_inputs(problem, label, seed_base, n_seeds)
    search = MultiChainSearch(
        factory, n_candidates=candidates, max_phases=phases, stall_phases=None
    )
    return search.run(problem, initials, rngs)


def check_parity(serial, multi, label: str) -> None:
    """Per-chain results must be bit-identical, traces included."""
    for chain, (a, b) in enumerate(zip(serial, multi)):
        ok = (
            a.best.fitness == b.best.fitness
            and a.best.placement.cells == b.best.placement.cells
            and a.best.metrics == b.best.metrics
            and a.n_phases == b.n_phases
            and a.n_evaluations == b.n_evaluations
            and len(a.trace) == len(b.trace)
            and all(
                ra.as_dict() == rb.as_dict()
                for ra, rb in zip(a.trace, b.trace)
            )
        )
        if not ok:
            raise AssertionError(
                f"multichain diverged from serial on {label} chain {chain}:\n"
                f"  serial:     {a.best.summary()}\n"
                f"  multichain: {b.best.summary()}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=30,
                        help="chains per movement (default 30)")
    parser.add_argument("--phases", type=int, default=30,
                        help="search phases per chain (default 30)")
    parser.add_argument("--candidates", type=int, default=16,
                        help="candidate moves per phase (default 16)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed repetitions per stage; the minimum "
                        "counts (default 3 — single-shot timings are "
                        "noise-fragile on loaded machines)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI crash check: 4 seeds, 6 phases, 1 round, "
                        "no perf assertion")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the portfolio speedup >= X")
    parser.add_argument("--seed", type=int, default=20090629)
    add_json_argument(parser)
    args = parser.parse_args(argv)

    n_seeds = 4 if args.smoke else args.seeds
    phases = 6 if args.smoke else args.phases
    rounds = 1 if args.smoke else max(1, args.rounds)
    problem = multichain_bench_spec(args.seed).generate()

    print("=" * 72)
    print(
        f"multichain bench: grid {problem.grid.width}x{problem.grid.height}, "
        f"{problem.n_routers} routers, {problem.n_clients} clients; "
        f"{len(PORTFOLIO)} movements x {n_seeds} seeds, "
        f"{phases} phases x {args.candidates} candidates, "
        f"best of {rounds} round(s)"
    )
    print("=" * 72)

    header = f"{'movement':14s} {'serial (s)':>11} {'lockstep (s)':>13} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    per_movement = {}
    total_serial = total_multi = 0.0
    for label, factory in PORTFOLIO:
        serial_seconds = multi_seconds = float("inf")
        serial = multi = None
        # Serial and lockstep interleave per round and the minimum
        # counts, so ambient load on either stage cannot skew the ratio.
        for _ in range(rounds):
            start = time.perf_counter()
            serial = run_serial(
                problem, factory, label, args.seed, n_seeds,
                args.candidates, phases,
            )
            serial_seconds = min(serial_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            multi = run_multichain(
                problem, factory, label, args.seed, n_seeds,
                args.candidates, phases,
            )
            multi_seconds = min(multi_seconds, time.perf_counter() - start)
        check_parity(serial, multi, label)
        total_serial += serial_seconds
        total_multi += multi_seconds
        speedup = serial_seconds / multi_seconds
        per_movement[label] = {
            "serial_seconds": serial_seconds,
            "multichain_seconds": multi_seconds,
            "speedup": speedup,
        }
        print(
            f"{label:14s} {serial_seconds:>11.2f} {multi_seconds:>13.2f} "
            f"{speedup:>8.1f}x"
        )
    portfolio_speedup = total_serial / total_multi
    print("-" * len(header))
    print(
        f"{'portfolio':14s} {total_serial:>11.2f} {total_multi:>13.2f} "
        f"{portfolio_speedup:>8.1f}x"
    )
    print("parity: per-chain results and traces bit-identical on every chain")

    payload = {
        "n_routers": problem.n_routers,
        "n_clients": problem.n_clients,
        "n_movements": len(PORTFOLIO),
        "n_seeds": n_seeds,
        "phases": phases,
        "candidates_per_phase": args.candidates,
        "rounds": rounds,
        "smoke": args.smoke,
        "serial_seconds": total_serial,
        "multichain_seconds": total_multi,
        "portfolio_speedup": portfolio_speedup,
        "per_movement": per_movement,
    }
    write_bench_json("multichain", payload, args.json, reduced=args.smoke)

    if args.min_speedup is not None and not args.smoke:
        if portfolio_speedup < args.min_speedup:
            print(
                f"FAIL: portfolio speedup {portfolio_speedup:.1f}x below "
                f"required {args.min_speedup:.1f}x"
            )
            return 1
        print(
            f"OK: portfolio speedup {portfolio_speedup:.1f}x >= "
            f"{args.min_speedup:.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
