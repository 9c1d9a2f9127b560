"""Benchmark: warm-start re-optimization vs cold re-solves on a dynamic scenario.

Workload: the paper's Normal-distribution instance (64 routers, 128x128
grid, 192 clients) under a 20-step client-drift scenario — every step,
the whole client population takes a Gaussian step (sigma 2 cells) and
the deployment is re-optimized with the paper's swap-movement
neighborhood search (32 candidates/phase, up to 64 phases, stall after
8 phases without improvement).  Two runs of the *identical* instance
sequence:

* **cold** — every step solved from a fresh random initial placement
  (``ScenarioRunner(warm=False)``): the static-paper workflow applied
  per step.
* **warm** — each step seeded with the previous step's best placement:
  the re-optimization workflow of :mod:`repro.scenario`.

The warm start lands next to the optimum of a barely-changed instance,
so the stall rule stops the search after a fraction of the cold run's
phases — the per-step speedup this bench pins (acceptance: >= 3x) —
while mean solution quality must stay at least as good as cold's.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scenario.py [--smoke]

``--smoke`` trims steps/budget for CI crash checks (no perf assertion);
``--min-speedup`` overrides the default 3.0x acceptance gate.  A
machine-readable record lands in ``BENCH_scenario.json`` (repo root by
default).
"""

from __future__ import annotations

import argparse
import sys
import time

from _common import add_json_argument, write_bench_json
from repro.instances.catalog import paper_normal
from repro.scenario import Scenario, ScenarioRunner
from repro.solvers import make_solver


def drift_scenario(problem, n_steps: int, sigma: float) -> Scenario:
    """The bench workload: whole-population Gaussian drift per step."""
    return Scenario.client_drift(problem, n_steps, sigma=sigma)


def run_arm(
    solver, scenario: Scenario, seed: int, budget: int, warm: bool
):
    """One full scenario pass; returns its ScenarioResult."""
    runner = ScenarioRunner(solver, budget=budget, warm=warm)
    return runner.run(scenario, seed=seed)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20,
                        help="drift steps after the initial deployment "
                        "(default 20)")
    parser.add_argument("--sigma", type=float, default=2.0,
                        help="per-step client drift sigma in cells")
    parser.add_argument("--budget", type=int, default=64,
                        help="max search phases per step (default 64)")
    parser.add_argument("--candidates", type=int, default=32,
                        help="candidate moves per phase (default 32)")
    parser.add_argument("--stall", type=int, default=8,
                        help="stop a step after this many non-improving "
                        "phases (default 8)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed repetitions; the minimum counts "
                        "(default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI crash check: 5 steps, budget 12, 1 round, "
                        "no perf assertion")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail unless warm re-optimization is >= X "
                        "times faster per step (default 3.0)")
    parser.add_argument("--seed", type=int, default=20090629)
    add_json_argument(parser)
    args = parser.parse_args(argv)

    n_steps = 5 if args.smoke else args.steps
    budget = 12 if args.smoke else args.budget
    rounds = 1 if args.smoke else max(1, args.rounds)

    problem = paper_normal().generate()
    scenario = drift_scenario(problem, n_steps, args.sigma)
    solver = make_solver(
        "search:swap",
        n_candidates=args.candidates,
        stall_phases=args.stall,
    )

    print("=" * 72)
    print(
        f"scenario bench: {scenario.name} on {problem.grid.width}x"
        f"{problem.grid.height}, {problem.n_routers} routers, "
        f"{problem.n_clients} clients; search:swap, "
        f"{args.candidates} candidates x <= {budget} phases "
        f"(stall {args.stall}), best of {rounds} round(s)"
    )
    print("=" * 72)

    cold_seconds = warm_seconds = float("inf")
    cold = warm = None
    # Arms interleave per round and the minimum counts, so ambient load
    # cannot skew the ratio.
    for _ in range(rounds):
        start = time.perf_counter()
        cold = run_arm(solver, scenario, args.seed, budget, warm=False)
        cold_seconds = min(cold_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        warm = run_arm(solver, scenario, args.seed, budget, warm=True)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)

    n_reopt = n_steps  # steps 1..n are the re-optimizations
    cold_step = cold.reopt_seconds() / n_reopt
    warm_step = warm.reopt_seconds() / n_reopt
    step_speedup = cold_step / warm_step
    eval_ratio = cold.reopt_evaluations() / max(1, warm.reopt_evaluations())
    quality_delta = warm.mean_fitness() - cold.mean_fitness()

    header = f"{'arm':6s} {'re-opt s/step':>14} {'evals/step':>11} {'mean fitness':>13}"
    print(header)
    print("-" * len(header))
    for label, result, per_step in (
        ("cold", cold, cold_step),
        ("warm", warm, warm_step),
    ):
        print(
            f"{label:6s} {per_step:>14.3f} "
            f"{result.reopt_evaluations() / n_reopt:>11.0f} "
            f"{result.mean_fitness():>13.4f}"
        )
    print("-" * len(header))
    print(
        f"warm-start speedup: {step_speedup:.1f}x wall-clock per step "
        f"({eval_ratio:.1f}x fewer evaluations), "
        f"quality delta {quality_delta:+.4f}"
    )

    payload = {
        "scenario": scenario.name,
        "n_routers": problem.n_routers,
        "n_clients": problem.n_clients,
        "n_steps": n_steps,
        "sigma": args.sigma,
        "budget": budget,
        "candidates_per_phase": args.candidates,
        "stall_phases": args.stall,
        "rounds": rounds,
        "smoke": args.smoke,
        "cold_seconds_per_step": cold_step,
        "warm_seconds_per_step": warm_step,
        "step_speedup": step_speedup,
        "evaluation_ratio": eval_ratio,
        "cold_mean_fitness": cold.mean_fitness(),
        "warm_mean_fitness": warm.mean_fitness(),
        "quality_delta": quality_delta,
    }
    write_bench_json("scenario", payload, args.json, reduced=args.smoke)

    if not args.smoke:
        if step_speedup < args.min_speedup:
            print(
                f"FAIL: warm-start speedup {step_speedup:.1f}x below "
                f"required {args.min_speedup:.1f}x"
            )
            return 1
        if quality_delta < -0.02:
            print(
                f"FAIL: warm mean fitness trails cold by {-quality_delta:.4f} "
                "(> 0.02 tolerance)"
            )
            return 1
        print(
            f"OK: speedup {step_speedup:.1f}x >= {args.min_speedup:.1f}x "
            "with quality held"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
