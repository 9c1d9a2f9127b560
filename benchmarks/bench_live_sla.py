"""Benchmark: live re-optimization under per-event latency SLAs.

Workload: the paper's Normal-distribution instance (64 routers, 128x128
grid, 192 clients) under a client-drift scenario, served three ways:

* **unbounded** — the plain :class:`~repro.scenario.runner.ScenarioRunner`
  walk (warm starts, no deadlines): the quality reference and the
  regret baseline.
* **no-pressure live** — :class:`~repro.anytime.live.LiveRunner` on a
  deterministic simulated clock with a generous SLA.  Asserted
  **bit-identical** per step to the unbounded walk (same placements,
  fitness, evaluation counts): the deadline plumbing must be free when
  it never fires.
* **pressured live** — the real-clock event loop with a tight SLA and
  arrival interval.  Every solve runs under a cooperative
  :class:`~repro.anytime.deadline.Deadline` and the degradation ladder
  sheds load when the loop falls behind.  Acceptance (full mode): p95
  response latency <= the SLA, with mean fitness regret against the
  unbounded arm bounded by ``--max-regret``.

A fourth stage times deadline-check overhead: one unbounded solve with
``deadline=None`` against the same solve under a never-firing deadline
(acceptance: < 2% wall-clock overhead — the checks are two clock reads
per phase).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_live_sla.py [--smoke]

``--smoke`` trims the workload for CI and runs the *pressured* arm on
the simulated clock too, so every number in the record is deterministic;
the latency/overhead gates are skipped (simulated latencies are a cost
model, not a measurement).  A machine-readable record lands in
``BENCH_live_sla.json`` (repo root by default).
"""

from __future__ import annotations

import argparse
import sys
import time

from _common import add_json_argument, write_bench_json
from repro.anytime import Deadline, LiveRunner, SimulatedClock
from repro.instances.catalog import paper_normal
from repro.scenario import Scenario, ScenarioRunner
from repro.solvers import make_solver


def step_fingerprint(result) -> tuple:
    """The bit-identity fingerprint of one step's solve."""
    return (
        tuple(map(tuple, result.best.placement.positions_array())),
        result.best.fitness,
        result.n_evaluations,
        result.n_phases,
        result.stopped_by,
    )


def assert_no_pressure_parity(baseline, report) -> None:
    """The no-pressure live arm must replay the scenario walk exactly."""
    base = [step_fingerprint(step.result) for step in baseline.steps]
    live = [step_fingerprint(event.result) for event in report.responded]
    if report.shed_count or report.deadline_hits:
        raise AssertionError(
            "no-pressure live arm shed or truncated work: "
            f"{report.shed_count} shed, {report.deadline_hits} deadline hits"
        )
    if base != live:
        raise AssertionError(
            "no-pressure live arm diverged from the unbounded scenario walk"
        )


def time_deadline_overhead(problem, budget: int, candidates: int,
                           rounds: int, seed: int) -> dict:
    """Min-of-rounds wall clock of one solve, with and without a deadline.

    The deadline never fires (absurdly far expiry), so the delta is pure
    check overhead: two monotonic-clock reads per phase boundary.
    """
    solver = make_solver("search:swap", n_candidates=candidates,
                         stall_phases=None)
    # Warm the allocator/caches once so round 1 isn't systematically
    # slower for whichever arm runs first; min-of-rounds interleaved
    # arms absorb the rest of the ambient noise.
    solver.solve(problem, seed=seed, budget=budget)
    bare_seconds = guarded_seconds = float("inf")
    bare = guarded = None
    for _ in range(rounds):
        start = time.perf_counter()
        bare = solver.solve(problem, seed=seed, budget=budget)
        bare_seconds = min(bare_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        guarded = solver.solve(
            problem, seed=seed, budget=budget,
            deadline=Deadline.after(1e9),
        )
        guarded_seconds = min(guarded_seconds, time.perf_counter() - start)
    if step_fingerprint(bare) != step_fingerprint(guarded):
        raise AssertionError(
            "a never-firing deadline changed the solve result"
        )
    return {
        "bare_seconds": bare_seconds,
        "guarded_seconds": guarded_seconds,
        "overhead_fraction": guarded_seconds / bare_seconds - 1.0,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20,
                        help="drift events after the initial deployment "
                        "(default 20)")
    parser.add_argument("--sigma", type=float, default=2.0,
                        help="per-event client drift sigma in cells")
    parser.add_argument("--budget", type=int, default=64,
                        help="max search phases per event (default 64)")
    parser.add_argument("--candidates", type=int, default=32,
                        help="candidate moves per phase (default 32)")
    parser.add_argument("--stall", type=int, default=8,
                        help="stop an event after this many non-improving "
                        "phases (default 8)")
    parser.add_argument("--sla", type=float, default=0.25,
                        help="per-event response SLA in seconds "
                        "(default 0.25)")
    parser.add_argument("--interval", type=float, default=0.1,
                        help="seconds between arrivals (default 0.1 — "
                        "faster than the cold step, so the ladder and "
                        "deadlines actually engage)")
    parser.add_argument("--max-regret", type=float, default=0.05,
                        help="max mean fitness regret of the pressured arm "
                        "vs unbounded (default 0.05)")
    parser.add_argument("--max-overhead", type=float, default=0.02,
                        help="max deadline-check overhead fraction "
                        "(default 0.02)")
    parser.add_argument("--rounds", type=int, default=9,
                        help="overhead-timing repetitions; the minimum "
                        "counts (default 9)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: small workload, simulated clock "
                        "everywhere, no wall-clock gates")
    parser.add_argument("--seed", type=int, default=20090629)
    add_json_argument(parser)
    args = parser.parse_args(argv)

    n_steps = 5 if args.smoke else args.steps
    budget = 12 if args.smoke else args.budget
    candidates = 8 if args.smoke else args.candidates
    rounds = 1 if args.smoke else max(1, args.rounds)
    sla = args.sla
    interval = args.interval

    problem = paper_normal().generate()
    scenario = Scenario.client_drift(problem, n_steps, sigma=args.sigma)
    solver_kwargs = dict(n_candidates=candidates, stall_phases=args.stall)

    print("=" * 72)
    print(
        f"live SLA bench: {scenario.name} on {problem.grid.width}x"
        f"{problem.grid.height}, {problem.n_routers} routers, "
        f"{problem.n_clients} clients; search:swap, "
        f"{candidates} candidates x <= {budget} phases, "
        f"SLA {sla * 1e3:.0f}ms / interval {interval * 1e3:.0f}ms"
        f"{' [smoke: simulated clock]' if args.smoke else ''}"
    )
    print("=" * 72)

    # Arm 1 — the unbounded scenario walk (quality reference).
    start = time.perf_counter()
    baseline = ScenarioRunner(
        "search:swap", budget=budget, **solver_kwargs
    ).run(scenario, seed=args.seed)
    baseline_seconds = time.perf_counter() - start
    print(f"unbounded walk: {baseline.summary()}")

    # Arm 2 — no-pressure live run on the simulated clock: must replay
    # the walk bit-for-bit (the tentpole's determinism guarantee).
    no_pressure = LiveRunner(
        "search:swap", budget=budget,
        sla=1e6, interval=1e6, seconds_per_evaluation=1e-6,
        **solver_kwargs,
    ).run(scenario, seed=args.seed)
    assert_no_pressure_parity(baseline, no_pressure)
    print("no-pressure live arm: bit-identical to the unbounded walk")

    # Arm 3 — the pressured event loop.  Real clock in full mode (the
    # latency gate); simulated cost model in smoke (deterministic CI).
    pressured_kwargs = dict(
        sla=sla, interval=interval, budget=budget, **solver_kwargs
    )
    if args.smoke:
        # Charge each evaluation enough that the backlog builds and the
        # ladder visibly sheds — deterministic pressure.
        pressured_kwargs["seconds_per_evaluation"] = (
            2.0 * sla / (candidates * budget)
        )
    pressured = LiveRunner("search:swap", **pressured_kwargs).run(
        scenario, seed=args.seed
    )
    mean_regret = pressured.mean_regret(baseline)
    print(f"pressured live arm: {pressured.summary()}")
    print(
        f"  rungs: {pressured.rung_counts()}, "
        f"max queue depth {pressured.max_queue_depth()}, "
        f"mean regret vs unbounded {mean_regret:+.4f}"
    )

    # Stage 4 — deadline-check overhead on one unbounded solve.
    overhead = time_deadline_overhead(
        problem, budget, candidates, rounds, args.seed
    )
    print(
        f"deadline overhead: bare {overhead['bare_seconds']:.3f}s vs "
        f"guarded {overhead['guarded_seconds']:.3f}s "
        f"({overhead['overhead_fraction'] * 100:+.2f}%) — results identical"
    )

    payload = {
        "scenario": scenario.name,
        "n_routers": problem.n_routers,
        "n_clients": problem.n_clients,
        "n_steps": n_steps,
        "budget": budget,
        "candidates_per_phase": candidates,
        "stall_phases": args.stall,
        "sla_seconds": sla,
        "interval_seconds": interval,
        "smoke": args.smoke,
        "simulated_pressure": args.smoke,
        "baseline_seconds": baseline_seconds,
        "baseline_mean_fitness": baseline.mean_fitness(),
        "no_pressure_bit_identical": True,
        "p50_latency_seconds": pressured.p50_latency,
        "p95_latency_seconds": pressured.p95_latency,
        "sla_violations": pressured.sla_violations(),
        "deadline_hits": pressured.deadline_hits,
        "shed_events": pressured.shed_count,
        "rung_counts": pressured.rung_counts(),
        "max_queue_depth": pressured.max_queue_depth(),
        "pressured_mean_fitness": pressured.mean_fitness(),
        "mean_regret": mean_regret,
        "deadline_overhead": overhead,
    }
    write_bench_json("live_sla", payload, args.json, reduced=args.smoke)

    if not args.smoke:
        if pressured.p95_latency > sla:
            print(
                f"FAIL: p95 response latency "
                f"{pressured.p95_latency * 1e3:.1f}ms exceeds the "
                f"{sla * 1e3:.1f}ms SLA"
            )
            return 1
        if mean_regret > args.max_regret:
            print(
                f"FAIL: mean fitness regret {mean_regret:.4f} exceeds "
                f"{args.max_regret:.4f}"
            )
            return 1
        if overhead["overhead_fraction"] > args.max_overhead:
            print(
                f"FAIL: deadline-check overhead "
                f"{overhead['overhead_fraction'] * 100:.2f}% exceeds "
                f"{args.max_overhead * 100:.1f}%"
            )
            return 1
        print(
            f"OK: p95 {pressured.p95_latency * 1e3:.1f}ms <= SLA "
            f"{sla * 1e3:.1f}ms, regret {mean_regret:.4f} <= "
            f"{args.max_regret:.4f}, overhead "
            f"{overhead['overhead_fraction'] * 100:.2f}% <= "
            f"{args.max_overhead * 100:.1f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
