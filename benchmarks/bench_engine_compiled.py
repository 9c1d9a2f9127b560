"""Benchmark: compiled kernel tier vs. the numpy stacked engines.

Workload: the lockstep multi-chain phase loop at city scale — ``R``
chains each propose ``C`` candidates per phase (scripted relocations
and swaps), the phase stack is measured, and every chain commits its
winner.  Three paths measure the identical phase scripts:

* **numpy stacked** — the sparse :class:`StackedEngine` re-measures the
  full candidate stack each phase, and the baseline of the speedup
  gate.
* **numpy delta**  — :class:`StackedDeltaEngine` on the numpy dense
  layout (``engine="dense"``: adjacency and coverage matrices; reported
  for context, its commit path is matrix-sized).
* **compiled**     — :class:`StackedDeltaEngine` on the compiled tier.
  On this city instance the tier picks the sparse layout: per chain a
  router index, one-way edge arrays and coverage hits, the movers'
  neighbourhoods re-queried per phase, one union-find labeling pass
  and the compiled link filter.  This is what
  :class:`~repro.neighborhood.multichain.MultiChainSearch` runs on
  city-scale instances under ``engine="auto"``.

The script asserts bit-identical measurement rows across all three
paths before timing.  The one-time cost of building the shared library
and first-call binding is measured separately as *warm-up* and excluded
from the timed phases, as is each delta engine's incumbent-cache
construction (*setup*).  Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_compiled.py [--smoke]

``--smoke`` trims the workload for CI and drops the speedup gate from
5x to 3x; ``--min-speedup X`` overrides either gate; ``--json [DIR]``
emits the machine-readable ``BENCH_engine_compiled.json`` record.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from _common import add_json_argument, write_bench_json
from repro.core.engine import StackedEngine
from repro.core.engine.stacked import PhaseCandidates, StackedDeltaEngine
from repro.core.solution import Placement
from repro.instances.catalog import city_spec


def build_phase_scripts(problem, incumbents, n_candidates, n_phases, seed):
    """Scripted phases: per chain, relocations plus an occasional swap.

    Returns ``[(candidates, placements, winners)]`` — the delta engines
    measure ``candidates`` (:class:`PhaseCandidates` pair arrays), the
    full path measures the equivalent ``placements``, and
    ``winners[chain]`` is the committed candidate index.  Scripts are
    generated once so every path sees byte-identical work.
    """
    rng = np.random.default_rng(seed)
    n_routers = problem.n_routers
    width, height = problem.grid.width, problem.grid.height
    scripts = []
    current = list(incumbents)
    for _ in range(n_phases):
        chains, pair_candidate, pair_router, pair_xy = [], [], [], []
        placements = []
        for chain, incumbent in enumerate(current):
            occupied = set(incumbent.cells)
            for candidate in range(n_candidates):
                index = len(chains)
                chains.append(chain)
                cells = list(incumbent.cells)
                if candidate % 4 == 3:
                    a, b = (int(r) for r in rng.choice(
                        n_routers, size=2, replace=False
                    ))
                    pair_candidate += [index, index]
                    pair_router += [a, b]
                    pair_xy += [cells[b], cells[a]]
                    cells[a], cells[b] = cells[b], cells[a]
                else:
                    router = int(rng.integers(n_routers))
                    while True:
                        target = (
                            int(rng.integers(width)),
                            int(rng.integers(height)),
                        )
                        if target not in occupied:
                            break
                    pair_candidate.append(index)
                    pair_router.append(router)
                    pair_xy.append(target)
                    cells[router] = target
                placements.append(Placement.from_cells(problem.grid, cells))
        candidates = PhaseCandidates(chains, pair_candidate, pair_router, pair_xy)
        winners = [
            chain * n_candidates + int(rng.integers(n_candidates))
            for chain in range(len(current))
        ]
        scripts.append((candidates, placements, winners))
        current = [placements[w] for w in winners]
    return scripts


def run_delta(problem, incumbents, scripts, engine):
    """One delta engine over the scripts; returns (setup, times, rows)."""
    n_candidates = len(scripts[0][1]) // len(incumbents)
    delta = StackedDeltaEngine(problem, engine=engine)
    start = time.perf_counter()
    for chain, incumbent in enumerate(incumbents):
        delta.reset_chain(chain, incumbent)
    setup = time.perf_counter() - start
    times, rows = [], []
    for candidates, placements, winners in scripts:
        start = time.perf_counter()
        measurement = delta.measure_phase(candidates)
        for chain, winner in enumerate(winners):
            delta.commit_chain(chain, placements[winner])
        times.append(time.perf_counter() - start)
        rows.append(measurement)
    return setup, times, rows


def run_stacked(problem, scripts):
    """The full-stack numpy baseline; returns (times, rows)."""
    engine = StackedEngine(problem, engine="sparse")
    times, rows = [], []
    for _, placements, _ in scripts:
        start = time.perf_counter()
        measurement = engine.measure_placements(placements)
        times.append(time.perf_counter() - start)
        rows.append(measurement)
    return times, rows


def check_parity(reference, candidate, name):
    for phase, (ref, got) in enumerate(zip(reference, candidate)):
        same = (
            np.array_equal(ref.fitness, got.fitness)
            and np.array_equal(ref.giant_sizes, got.giant_sizes)
            and np.array_equal(ref.covered_clients, got.covered_clients)
            and np.array_equal(ref.n_components, got.n_components)
            and np.array_equal(ref.n_links, got.n_links)
            and np.array_equal(ref.mean_degrees, got.mean_degrees)
            and np.array_equal(ref.giant_masks, got.giant_masks)
        )
        if not same:
            raise AssertionError(
                f"{name} diverged from the numpy stacked engine in "
                f"phase {phase}"
            )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--routers", type=int, default=1024,
                        help="router count of the city instance")
    parser.add_argument("--clients", type=int, default=4_000,
                        help="client count of the city instance")
    parser.add_argument("--chains", type=int, default=16,
                        help="portfolio chains (default 16)")
    parser.add_argument("--candidates", type=int, default=8,
                        help="candidates per chain per phase (default 8)")
    parser.add_argument("--phases", type=int, default=8,
                        help="timed phases (default 8)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke mode: fewer chains/phases, 3x gate")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless compiled speedup over the numpy "
                        "stacked engine >= X (default: 5, smoke: 3)")
    parser.add_argument("--seed", type=int, default=20260807)
    add_json_argument(parser)
    args = parser.parse_args(argv)

    from repro.core.engine import compiled

    if not compiled.is_available():
        print("compiled kernels unavailable "
              f"(REPRO_COMPILED gate or no C toolchain); nothing to measure")
        return 1

    chains = 8 if args.smoke else args.chains
    phases = 4 if args.smoke else args.phases
    gate = args.min_speedup
    if gate is None:
        gate = 3.0 if args.smoke else 5.0

    spec = city_spec(args.routers, args.clients, seed=args.seed)
    problem = spec.generate()
    rng = np.random.default_rng(args.seed)
    incumbents = [
        Placement.random(problem.grid, problem.n_routers, rng)
        for _ in range(chains)
    ]
    scripts = build_phase_scripts(
        problem, incumbents, args.candidates, phases, args.seed
    )

    print("=" * 72)
    print(
        f"compiled engine bench: {spec.name}, {problem.n_routers} routers, "
        f"{problem.n_clients} clients, {chains} chains x {args.candidates} "
        f"candidates, {phases} phases"
    )
    print("=" * 72)

    # Warm-up: build + bind the shared library and run one phase-shaped
    # call end to end, so the timed loops see a hot library and caches.
    start = time.perf_counter()
    compiled.require()
    warm = StackedDeltaEngine(problem, engine="compiled")
    warm.reset_chain(0, incumbents[0])
    first = scripts[0][0]  # phase 0's candidate 0: a chain-0 relocation
    warm.measure_phase(
        PhaseCandidates([0], [0], first.pair_router[:1], first.pair_xy[:1])
    )
    warmup = time.perf_counter() - start
    print(f"warm-up (library build + first call): {warmup * 1e3:.1f} ms "
          f"(excluded from timed phases; openmp={compiled.has_openmp()})")

    stacked_times, stacked_rows = run_stacked(problem, scripts)
    dense_setup, dense_times, dense_rows = run_delta(
        problem, incumbents, scripts, "dense"
    )
    compiled_setup, compiled_times, compiled_rows = run_delta(
        problem, incumbents, scripts, "compiled"
    )
    check_parity(stacked_rows, dense_rows, "numpy delta")
    check_parity(stacked_rows, compiled_rows, "compiled delta")
    print("parity: all three paths bit-identical on every phase")

    stacked_median = statistics.median(stacked_times)
    dense_median = statistics.median(dense_times)
    compiled_median = statistics.median(compiled_times)
    speedup = stacked_median / compiled_median
    speedup_delta = dense_median / compiled_median

    print(f"{'path':<16} {'phase (ms)':>12} {'setup (ms)':>12} {'speedup':>9}")
    for name, median, setup, ratio in [
        ("numpy stacked", stacked_median, 0.0, 1.0),
        ("numpy delta", dense_median, dense_setup, stacked_median / dense_median),
        ("compiled delta", compiled_median, compiled_setup, speedup),
    ]:
        print(
            f"{name:<16} {median * 1e3:>12.2f} {setup * 1e3:>12.1f} "
            f"{ratio:>8.2f}x"
        )
    print(
        f"compiled vs numpy stacked: {speedup:.2f}x   "
        f"compiled vs numpy delta: {speedup_delta:.2f}x"
    )

    write_bench_json(
        "engine_compiled",
        {
            "instance": spec.name,
            "n_routers": problem.n_routers,
            "n_clients": problem.n_clients,
            "chains": chains,
            "candidates_per_chain": args.candidates,
            "phases": phases,
            "smoke": args.smoke,
            "openmp": compiled.has_openmp(),
            "warmup_seconds": warmup,
            "stacked_phase_seconds": stacked_times,
            "dense_delta_phase_seconds": dense_times,
            "compiled_phase_seconds": compiled_times,
            "dense_delta_setup_seconds": dense_setup,
            "compiled_setup_seconds": compiled_setup,
            "stacked_median_seconds": stacked_median,
            "dense_delta_median_seconds": dense_median,
            "compiled_median_seconds": compiled_median,
            "speedup_vs_stacked": speedup,
            "speedup_vs_dense_delta": speedup_delta,
            "min_speedup_gate": gate,
        },
        args.json,
        reduced=args.smoke,
    )

    if speedup < gate:
        print(f"FAIL: compiled speedup {speedup:.2f}x below required "
              f"{gate:.1f}x")
        return 1
    print(f"OK: compiled speedup {speedup:.2f}x >= {gate:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
