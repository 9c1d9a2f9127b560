"""Benchmark: scenario-fleet portfolio vs the serial per-triple loop.

Workload: the paper's Normal-distribution instance (64 routers, 128x128
grid, 192 clients) under a 4-scenario x 2-solver x 8-seed portfolio —
the four canonical dynamic regimes (client drift, client churn, router
outages, radio decay) crossed with the paper's swap- and random-movement
neighborhood searches, replicated over 8 seeds with warm-start
re-optimization at every step.  Two executions of the *identical* grid:

* **serial** — the pre-fleet workflow: one
  :meth:`~repro.scenario.runner.ScenarioRunner.run_steps` call per
  (scenario, solver, seed) triple, looped by hand over the fleet's own
  seed grid (:func:`~repro.scenario.fleet.fleet_seed_grid`), so both
  arms solve exactly the same step sequence with the same streams.
* **fleet** — one :class:`~repro.scenario.fleet.ScenarioFleet` run: per
  (scenario, solver) cell, every step re-optimizes all 8 replicates
  through one lockstep :meth:`~repro.solvers.base.Solver.solve_batch`
  call (one stacked engine pass per phase for the whole cell).

Per-triple results are asserted bit-identical (fitness, placements,
evaluation and phase counts) before any timing is reported, so the
speedup is pure execution-strategy — no work is skipped.  The lockstep
batching is what carries the gate on a single core; ``--workers`` stacks
process fan-out on top on multicore hosts (identical results).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scenario_fleet.py [--smoke]

``--smoke`` trims the grid for CI crash checks (parity still asserted,
no perf assertion); ``--min-speedup`` overrides the default 2.5x
acceptance gate.  A machine-readable record lands in
``BENCH_scenario_fleet.json`` (schema v2, repo root by default).
"""

from __future__ import annotations

import argparse
import sys
import time

from _common import add_json_argument, write_bench_json
from repro.instances.catalog import paper_normal
from repro.scenario import Scenario, ScenarioFleet, ScenarioRunner, fleet_seed_grid


def build_scenarios(problem, n_steps: int) -> list[Scenario]:
    """The four canonical regimes over one base instance."""
    return [
        Scenario.client_drift(problem, n_steps, sigma=2.0),
        Scenario.client_churn(problem, n_steps, fraction=0.1),
        Scenario.router_outages(problem, n_steps, count=1),
        Scenario.radio_degradation(problem, n_steps, factor=0.95),
    ]


def triple_signature(result) -> list[tuple]:
    """Everything a triple's identity should pin, except wall-clock."""
    return [
        (
            step.result.best.fitness,
            step.result.best.placement.cells,
            step.result.n_evaluations,
            step.result.n_phases,
        )
        for step in result.steps
    ]


def run_serial(scenarios, solver_specs, n_seeds, budget, seed):
    """The per-triple reference loop over the fleet's exact seed grid."""
    grid = fleet_seed_grid(seed, len(scenarios) * len(solver_specs), n_seeds)
    results = []
    cell = 0
    for scenario in scenarios:
        for spec, kwargs in solver_specs:
            unfold_seq, rep_seqs = grid[cell]
            cell += 1
            steps = scenario.unfold(unfold_seq)
            runner = ScenarioRunner(spec, budget=budget, **kwargs)
            for seq in rep_seqs:
                results.append(
                    runner.run_steps(
                        steps, seed=seq, scenario_name=scenario.name
                    )
                )
    return results


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=6,
                        help="perturbation steps per scenario (default 6)")
    parser.add_argument("--seeds", type=int, default=8,
                        help="replicates per (scenario, solver) cell "
                        "(default 8)")
    parser.add_argument("--budget", type=int, default=48,
                        help="max search phases per step (default 48)")
    parser.add_argument("--candidates", type=int, default=16,
                        help="candidate moves per phase (default 16)")
    parser.add_argument("--stall", type=int, default=8,
                        help="stop a step after this many non-improving "
                        "phases (default 8)")
    parser.add_argument("--workers", type=int, default=None,
                        help="also fan the fleet's replicate shards over a "
                        "process pool (default: in-process lockstep only)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed repetitions; the minimum counts "
                        "(default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI crash check: 2x2x3 grid, 2 steps, budget 8, "
                        "1 round, parity asserted, no perf assertion")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="fail unless the fleet is >= X times faster "
                        "than the serial per-triple loop (default 2.5)")
    parser.add_argument("--seed", type=int, default=20090629)
    add_json_argument(parser)
    args = parser.parse_args(argv)

    n_steps = 2 if args.smoke else args.steps
    n_seeds = 3 if args.smoke else args.seeds
    budget = 8 if args.smoke else args.budget
    rounds = 1 if args.smoke else max(1, args.rounds)

    problem = paper_normal().generate()
    scenarios = build_scenarios(problem, n_steps)
    if args.smoke:
        scenarios = scenarios[:2]
    solver_kwargs = {
        "n_candidates": args.candidates,
        "stall_phases": args.stall if args.stall > 0 else None,
    }
    solver_specs = [
        ("search:swap", solver_kwargs),
        ("search:random", solver_kwargs),
    ]
    n_triples = len(scenarios) * len(solver_specs) * n_seeds

    print("=" * 72)
    print(
        f"scenario-fleet bench: {len(scenarios)} scenarios x "
        f"{len(solver_specs)} solvers x {n_seeds} seeds "
        f"({n_triples} triples) on {problem.grid.width}x"
        f"{problem.grid.height}, {problem.n_routers} routers, "
        f"{problem.n_clients} clients; {n_steps}+1 steps/triple, "
        f"{args.candidates} candidates x <= {budget} phases "
        f"(stall {args.stall}), best of {rounds} round(s)"
    )
    print("=" * 72)

    fleet = ScenarioFleet(
        scenarios,
        solver_specs,
        n_seeds=n_seeds,
        budget=budget,
        workers=args.workers,
    )

    serial_seconds = fleet_seconds = float("inf")
    serial = report = None
    # Arms interleave per round and the minimum counts, so ambient load
    # cannot skew the ratio.
    for _ in range(rounds):
        start = time.perf_counter()
        serial = run_serial(
            scenarios, solver_specs, n_seeds, budget, args.seed
        )
        serial_seconds = min(serial_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        report = fleet.run(seed=args.seed)
        fleet_seconds = min(fleet_seconds, time.perf_counter() - start)

    # Parity gate before any number is believed: the fleet must be the
    # serial loop, bit for bit, triple for triple.
    assert len(serial) == len(report.runs) == n_triples
    for reference, run in zip(serial, report.runs):
        if triple_signature(reference) != triple_signature(run.result):
            raise AssertionError(
                "fleet diverged from the serial loop at "
                f"({run.scenario}, {run.solver}, replicate {run.replicate})"
            )
    print(f"parity: all {n_triples} triples bit-identical to the serial loop")

    speedup = serial_seconds / fleet_seconds
    evaluations = sum(run.result.total_evaluations for run in report.runs)
    header = f"{'arm':8s} {'seconds':>10s} {'ms/triple':>12s}"
    print(header)
    print("-" * len(header))
    for label, seconds in (("serial", serial_seconds), ("fleet", fleet_seconds)):
        print(
            f"{label:8s} {seconds:>10.2f} "
            f"{seconds * 1e3 / n_triples:>12.1f}"
        )
    print("-" * len(header))
    print(
        f"fleet speedup: {speedup:.1f}x wall-clock over the serial "
        f"per-triple loop ({evaluations} evaluations either way)"
    )

    payload = {
        "n_scenarios": len(scenarios),
        "n_solvers": len(solver_specs),
        "n_seeds": n_seeds,
        "n_triples": n_triples,
        "n_steps": n_steps,
        "budget": budget,
        "candidates_per_phase": args.candidates,
        "stall_phases": args.stall,
        "workers": args.workers,
        "rounds": rounds,
        "smoke": args.smoke,
        "parity_triples": n_triples,
        "serial_seconds": serial_seconds,
        "fleet_seconds": fleet_seconds,
        "speedup": speedup,
        "total_evaluations": evaluations,
    }
    write_bench_json("scenario_fleet", payload, args.json, reduced=args.smoke)

    if not args.smoke:
        if speedup < args.min_speedup:
            print(
                f"FAIL: fleet speedup {speedup:.1f}x below required "
                f"{args.min_speedup:.1f}x"
            )
            return 1
        print(f"OK: speedup {speedup:.1f}x >= {args.min_speedup:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
