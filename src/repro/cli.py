"""Command-line interface.

``wmn-placement`` exposes the library's main workflows:

* ``generate`` — materialize a benchmark instance to JSON.
* ``solve`` — run ANY registered solver (``family:variant``) on an
  instance; ``--list`` prints the registry.
* ``place`` / ``search`` / ``ga`` — familiar shorthands for the
  ``adhoc``, ``search`` and ``ga`` solver families (same registry
  underneath).
* ``scenario`` — unfold a dynamic scenario (client drift/churn, router
  outages, radio decay) and re-optimize each step with warm starts.
* ``scenario-live`` — serve a scenario's steps as live events under a
  per-event response SLA, with deadline-bounded solves and overload
  shedding (see :mod:`repro.anytime`).
* ``scenario-fleet`` — run a whole (scenario x solver x seed) portfolio
  in lockstep and print the aggregated report.
* ``reproduce`` — regenerate every table and figure of the paper.
* ``replicate`` — multi-seed replication of the headline comparisons.
* ``sweep`` — scaling sweeps around the paper's operating point.

Every command accepts ``--seed`` and prints deterministic results.  No
command takes an engine option: every evaluation runs on the tier
``resolve_engine(problem, "auto")`` picks (the compiled C kernels when
a toolchain built them, else dense at paper scale and the spatial-grid
sparse path at city scale), and every tier gives identical results.
``REPRO_COMPILED=0`` keeps a whole command on the numpy tier.

All optimization commands resolve their method through the single
:mod:`repro.solvers` registry — there are no per-family code paths left
in this module.
"""

from __future__ import annotations

import argparse
import sys

from repro.adhoc.registry import available_methods
from repro.distributions.registry import available_distributions
from repro.experiments.config import PAPER_SCALE, QUICK_SCALE
from repro.experiments.runner import run_all
from repro.instances.generator import InstanceSpec
from repro.instances.serializer import (
    load_instance,
    load_placement,
    save_instance,
    save_placement,
)
from repro.neighborhood.registry import available_movements
from repro.scenario import Scenario, ScenarioFleet, ScenarioRunner
from repro.solvers import available_solvers, make_solver, solver_families
from repro.viz.ascii_chart import render_chart
from repro.viz.ascii_map import render_evaluation
from repro.viz.timeline import render_fleet_report, render_timeline

__all__ = ["main", "build_parser"]

#: Scenario kinds the ``scenario`` subcommand can unfold.
SCENARIO_KINDS = ("drift", "churn", "outage", "degrade")


def _add_resilience(
    parser: argparse.ArgumentParser, *, timeout: bool = True
) -> None:
    """The uniform fault-tolerance knobs (see ``repro.resilience``)."""
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a failed/crashed task up to N times with exponential "
        "backoff; a shard crashing under the compiled engine is retried "
        "with REPRO_COMPILED=0 (identical results)",
    )
    if timeout:
        parser.add_argument(
            "--task-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-task wall-clock budget under --workers; a hung "
            "worker is abandoned and its task retried in a fresh pool",
        )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist every completed cell into DIR (atomic JSON + "
        "manifest with seed provenance) so an interrupted run can resume",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume from a checkpoint directory: skip completed cells "
        "(one is recomputed and verified bit-identical) and keep "
        "checkpointing new ones there",
    )


def _resilience_policy(args: argparse.Namespace):
    """A ``RetryPolicy`` from the CLI flags, or ``None`` when untouched."""
    retries = getattr(args, "retries", None)
    task_timeout = getattr(args, "task_timeout", None)
    if retries is None and task_timeout is None:
        return None
    from repro.resilience import RetryPolicy

    return RetryPolicy(
        max_retries=retries if retries is not None else 3,
        timeout=task_timeout,
    )


def _print_supervision(report) -> None:
    """Surface recovery activity on stderr (quiet on clean runs)."""
    if report.failures or report.degraded:
        print(report.summary(), file=sys.stderr)


def _add_scenario_shape(parser: argparse.ArgumentParser) -> None:
    """The per-kind perturbation knobs, shared by scenario commands."""
    parser.add_argument(
        "--sigma", type=float, default=2.0, help="drift step size (kind=drift)"
    )
    parser.add_argument(
        "--fraction",
        type=float,
        default=0.1,
        help="churning client fraction (kind=churn)",
    )
    parser.add_argument(
        "--distribution",
        default="uniform",
        choices=available_distributions(),
        help="arrival distribution for churn (default: uniform)",
    )
    parser.add_argument(
        "--count", type=int, default=1, help="routers lost per step (kind=outage)"
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=0.9,
        help="radio decay factor per step (kind=degrade)",
    )


def _build_scenario(kind: str, problem, args: argparse.Namespace) -> Scenario:
    """One scenario of the given kind from the shared shape knobs."""
    if kind == "drift":
        return Scenario.client_drift(problem, args.steps, sigma=args.sigma)
    if kind == "churn":
        return Scenario.client_churn(
            problem,
            args.steps,
            fraction=args.fraction,
            distribution=args.distribution,
        )
    if kind == "outage":
        return Scenario.router_outages(problem, args.steps, count=args.count)
    if kind == "degrade":
        return Scenario.radio_degradation(
            problem, args.steps, factor=args.factor
        )
    raise ValueError(
        f"unknown scenario kind {kind!r}; known: {', '.join(SCENARIO_KINDS)}"
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="wmn-placement",
        description=(
            "Mesh router placement in Wireless Mesh Networks: ad hoc and "
            "neighborhood search methods (Xhafa, Sanchez & Barolli, 2009)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a benchmark instance as JSON"
    )
    generate.add_argument("output", help="path of the instance JSON to write")
    generate.add_argument(
        "--distribution",
        default="normal",
        choices=available_distributions(),
        help="client distribution (default: normal)",
    )
    generate.add_argument("--width", type=int, default=128)
    generate.add_argument("--height", type=int, default=128)
    generate.add_argument("--routers", type=int, default=64)
    generate.add_argument("--clients", type=int, default=192)
    generate.add_argument("--min-radius", type=float, default=1.5)
    generate.add_argument("--max-radius", type=float, default=7.0)
    generate.add_argument("--seed", type=int, default=0)

    solve = subparsers.add_parser(
        "solve",
        help="run any registered solver (family:variant) on an instance",
    )
    solve.add_argument(
        "instance", nargs="?", help="instance JSON (from 'generate')"
    )
    solve.add_argument(
        "--solver",
        default="search:swap",
        metavar="FAMILY[:VARIANT]",
        help="registry spec, e.g. adhoc:hotspot, tabu:swap, ga:corners "
        "(default: search:swap; see --list)",
    )
    solve.add_argument(
        "--budget",
        type=int,
        default=None,
        help="effort in the solver's native unit (phases / generations)",
    )
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--warm-from",
        metavar="PLACEMENT_JSON",
        help="warm-start from a saved placement instead of the solver's "
        "own initialization",
    )
    solve.add_argument("--output", help="write the best placement JSON here")
    solve.add_argument(
        "--render", action="store_true", help="print an ASCII map of the result"
    )
    solve.add_argument(
        "--list",
        action="store_true",
        help="list every registered solver spec and exit",
    )

    place = subparsers.add_parser(
        "place", help="run one ad hoc placement method on an instance"
    )
    place.add_argument("instance", help="instance JSON (from 'generate')")
    place.add_argument(
        "--method",
        default="hotspot",
        choices=available_methods(),
        help="ad hoc method (default: hotspot)",
    )
    place.add_argument("--seed", type=int, default=0)
    place.add_argument("--output", help="write the placement JSON here")
    place.add_argument(
        "--render", action="store_true", help="print an ASCII map of the result"
    )

    search = subparsers.add_parser(
        "search", help="run neighborhood search on an instance"
    )
    search.add_argument("instance", help="instance JSON (from 'generate')")
    search.add_argument(
        "--movement",
        default="swap",
        choices=available_movements(),
        help="movement type (default: swap)",
    )
    search.add_argument(
        "--init",
        default="random",
        choices=available_methods(),
        help="ad hoc method generating the initial solution",
    )
    search.add_argument("--phases", type=int, default=64)
    search.add_argument("--candidates", type=int, default=16)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--output", help="write the best placement JSON here")
    search.add_argument(
        "--render", action="store_true", help="print an ASCII map of the result"
    )
    search.add_argument(
        "--trace", action="store_true", help="print the phase-by-phase trace"
    )

    ga = subparsers.add_parser(
        "ga", help="run the genetic algorithm on an instance"
    )
    ga.add_argument("instance", help="instance JSON (from 'generate')")
    ga.add_argument(
        "--init",
        default="hotspot",
        choices=available_methods(),
        help="ad hoc method initializing the population",
    )
    ga.add_argument("--population", type=int, default=64)
    ga.add_argument("--generations", type=int, default=200)
    ga.add_argument("--seed", type=int, default=0)
    ga.add_argument("--output", help="write the best placement JSON here")
    ga.add_argument(
        "--render", action="store_true", help="print an ASCII map of the result"
    )

    scenario = subparsers.add_parser(
        "scenario",
        help="unfold a dynamic scenario and re-optimize each step "
        "(warm-started by default)",
    )
    scenario.add_argument("instance", help="instance JSON (from 'generate')")
    scenario.add_argument(
        "--kind",
        default="drift",
        choices=SCENARIO_KINDS,
        help="what changes per step (default: drift)",
    )
    scenario.add_argument(
        "--steps", type=int, default=10, help="number of perturbation steps"
    )
    scenario.add_argument(
        "--solver",
        default="search:swap",
        metavar="FAMILY[:VARIANT]",
        help="registry spec re-optimizing each step (default: search:swap)",
    )
    scenario.add_argument(
        "--budget", type=int, default=None, help="per-step solver budget"
    )
    scenario.add_argument(
        "--candidates",
        type=int,
        default=16,
        help="per-phase effort of the step solver (candidates, or moves "
        "per phase for annealing; default 16)",
    )
    scenario.add_argument(
        "--stall",
        type=int,
        default=8,
        help="stop a search/multistart step after this many non-improving "
        "phases — what lets warm-started steps finish early (default 8; "
        "0 disables)",
    )
    _add_scenario_shape(scenario)
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument(
        "--cold",
        action="store_true",
        help="re-solve every step from scratch instead of warm-starting",
    )
    scenario.add_argument(
        "--chart",
        action="store_true",
        help="also draw the fitness-vs-step curve",
    )
    _add_resilience(scenario, timeout=False)

    live = subparsers.add_parser(
        "scenario-live",
        help="serve a scenario's steps as live events under a per-event "
        "response SLA, shedding load when the re-optimizer falls behind",
    )
    live.add_argument("instance", help="instance JSON (from 'generate')")
    live.add_argument(
        "--kind",
        default="drift",
        choices=SCENARIO_KINDS,
        help="what changes per event (default: drift)",
    )
    live.add_argument(
        "--steps", type=int, default=10, help="number of perturbation events"
    )
    live.add_argument(
        "--solver",
        default="search:swap",
        metavar="FAMILY[:VARIANT]",
        help="registry spec re-optimizing each event (default: search:swap)",
    )
    live.add_argument(
        "--budget", type=int, default=None, help="per-event solver budget"
    )
    live.add_argument(
        "--candidates",
        type=int,
        default=16,
        help="per-phase effort of the event solver (default 16)",
    )
    live.add_argument(
        "--stall",
        type=int,
        default=8,
        help="stop a search/multistart event after this many non-improving "
        "phases (default 8; 0 disables)",
    )
    live.add_argument(
        "--sla",
        type=float,
        default=0.5,
        help="per-event response SLA in seconds (default 0.5)",
    )
    live.add_argument(
        "--interval",
        type=float,
        default=None,
        help="seconds between event arrivals (default: the SLA)",
    )
    live.add_argument(
        "--sim",
        type=float,
        default=None,
        metavar="SECONDS_PER_EVAL",
        help="run on a simulated clock charging this many seconds per "
        "evaluation — fully deterministic (default: real clock)",
    )
    live.add_argument(
        "--deadline-fraction",
        type=float,
        default=0.9,
        help="fraction of the remaining SLA granted to each solve's "
        "deadline (default 0.9)",
    )
    live.add_argument(
        "--baseline",
        action="store_true",
        help="also run the unbounded scenario walk and report per-event "
        "fitness regret against it",
    )
    _add_scenario_shape(live)
    live.add_argument("--seed", type=int, default=0)

    fleet = subparsers.add_parser(
        "scenario-fleet",
        help="run a (scenario x solver x seed) portfolio in lockstep and "
        "print mean/std tables, regret and recovery curves",
    )
    fleet.add_argument("instance", help="instance JSON (from 'generate')")
    fleet.add_argument(
        "--kinds",
        default="drift,outage",
        help="comma-separated scenario kinds to put on the grid "
        f"(subset of {','.join(SCENARIO_KINDS)}; default: drift,outage)",
    )
    fleet.add_argument(
        "--steps", type=int, default=6, help="perturbation steps per scenario"
    )
    fleet.add_argument(
        "--solvers",
        default="search:swap",
        metavar="SPEC[,SPEC...]",
        help="comma-separated registry specs forming the solver axis "
        "(default: search:swap)",
    )
    fleet.add_argument(
        "--seeds", type=int, default=8, help="replicates per grid cell"
    )
    fleet.add_argument(
        "--budget", type=int, default=None, help="per-step solver budget"
    )
    fleet.add_argument(
        "--warm-budget",
        type=int,
        default=None,
        help="budget for warm-started steps 1..n (defaults to --budget)",
    )
    fleet.add_argument(
        "--arms",
        default="warm",
        choices=["warm", "cold", "both"],
        help="re-optimization arms; 'both' runs warm and cold on identical "
        "seeds and adds the regret table (default: warm)",
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan replicate shards out over a process pool "
        "(identical results at any count)",
    )
    fleet.add_argument(
        "--candidates",
        type=int,
        default=16,
        help="per-phase effort of the step solvers (default 16)",
    )
    fleet.add_argument(
        "--stall",
        type=int,
        default=8,
        help="stop a search/multistart step after this many non-improving "
        "phases (default 8; 0 disables)",
    )
    _add_scenario_shape(fleet)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--chart",
        action="store_true",
        help="also draw the mean recovery curves per scenario",
    )
    _add_resilience(fleet)

    reproduce = subparsers.add_parser(
        "reproduce", help="regenerate every table and figure of the paper"
    )
    reproduce.add_argument(
        "--scale",
        default="quick",
        choices=["quick", "paper"],
        help="effort level (default: quick)",
    )
    reproduce.add_argument("--seed", type=int, default=1)
    reproduce.add_argument(
        "--charts",
        action="store_true",
        help="also draw each figure as an ASCII chart",
    )
    reproduce.add_argument(
        "--csv-dir", help="also write one CSV per table/figure into this directory"
    )

    replicate = subparsers.add_parser(
        "replicate",
        help="multi-seed replication of the stand-alone and movement studies",
    )
    replicate.add_argument("instance", help="instance JSON (from 'generate')")
    replicate.add_argument("--seeds", type=int, default=5)
    replicate.add_argument("--phases", type=int, default=30)
    replicate.add_argument("--candidates", type=int, default=16)
    replicate.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan seed shards out over a process pool (identical results; "
        "chains still run in lockstep within each process)",
    )
    _add_resilience(replicate)

    sweep = subparsers.add_parser(
        "sweep", help="scaling sweeps around the paper's operating point"
    )
    sweep.add_argument(
        "--parameter",
        default="routers",
        choices=["routers", "radius"],
        help="what to sweep (default: routers)",
    )
    sweep.add_argument(
        "--values",
        default=None,
        help="comma-separated parameter values (e.g. 16,32,64)",
    )
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument(
        "--restarts",
        type=int,
        default=1,
        help="best-of-R restart portfolio per movement at every sweep "
        "point (lockstep multi-start; default 1)",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "place": _cmd_place,
        "search": _cmd_search,
        "ga": _cmd_ga,
        "scenario": _cmd_scenario,
        "scenario-live": _cmd_scenario_live,
        "scenario-fleet": _cmd_scenario_fleet,
        "reproduce": _cmd_reproduce,
        "replicate": _cmd_replicate,
        "sweep": _cmd_sweep,
    }
    from repro.resilience import CheckpointError, RetryExhaustedError

    try:
        return handlers[args.command](args)
    except (
        ValueError,
        OSError,
        CheckpointError,
        RetryExhaustedError,
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    spec = InstanceSpec(
        name=f"cli-{args.distribution}",
        width=args.width,
        height=args.height,
        n_routers=args.routers,
        n_clients=args.clients,
        distribution=args.distribution,
        min_radius=args.min_radius,
        max_radius=args.max_radius,
        seed=args.seed,
    )
    problem = spec.generate()
    save_instance(problem, args.output)
    print(f"wrote {args.output}: {spec.describe()}")
    return 0


def _report_solve(result, problem, args, unit: str = "phases") -> None:
    """Shared output of the solver-backed shim commands."""
    if args.render:
        print(render_evaluation(problem, result.best))
    else:
        print(result.best.summary())
    print(f"({result.n_phases} {unit}, {result.n_evaluations} evaluations)")
    if args.output:
        save_placement(result.best.placement, args.output)
        print(f"wrote {args.output}")


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.list:
        print("solver families:")
        for family, description in solver_families().items():
            print(f"  {family:12s} {description}")
        print("specs:")
        for spec in available_solvers():
            print(f"  {spec}")
        return 0
    if not args.instance:
        raise ValueError("an instance JSON is required (or use --list)")
    problem = load_instance(args.instance)
    solver = make_solver(args.solver)
    warm_start = load_placement(args.warm_from) if args.warm_from else None
    result = solver.solve(
        problem,
        seed=args.seed,
        budget=args.budget,
        warm_start=warm_start,
    )
    print(result.summary())
    if args.render:
        print(render_evaluation(problem, result.best))
    if args.output:
        save_placement(result.best.placement, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    problem = load_instance(args.instance)
    solver = make_solver(f"adhoc:{args.method}")
    result = solver.solve(problem, seed=args.seed)
    if args.render:
        print(render_evaluation(problem, result.best))
    else:
        print(result.best.summary())
    if args.output:
        save_placement(result.best.placement, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    problem = load_instance(args.instance)
    solver = make_solver(
        f"search:{args.movement}",
        init=args.init,
        n_candidates=args.candidates,
    )
    result = solver.solve(problem, seed=args.seed, budget=args.phases)
    if args.trace:
        for record in result.trace:
            marker = "*" if record.improved else " "
            print(
                f"phase {record.phase:4d}{marker} giant={record.giant_size:4d} "
                f"coverage={record.covered_clients:4d} "
                f"fitness={record.fitness:.4f}"
            )
    _report_solve(result, problem, args)
    return 0


def _cmd_ga(args: argparse.Namespace) -> int:
    problem = load_instance(args.instance)
    solver = make_solver(f"ga:{args.init}", population_size=args.population)
    result = solver.solve(problem, seed=args.seed, budget=args.generations)
    _report_solve(result, problem, args, unit="generations")
    return 0


def _scenario_solver_kwargs(spec: str, candidates: int, stall: int) -> dict:
    """Map the scenario effort flags onto the family's native knobs.

    Stall-based early stopping only exists in the best-neighbor families
    (``search``/``multistart``); SA and tabu always run their full phase
    budget, so their warm steps save time via ``--budget`` instead.
    """
    family = spec.partition(":")[0]
    if family in ("search", "multistart"):
        return {
            "n_candidates": candidates,
            "stall_phases": stall if stall > 0 else None,
        }
    if family == "tabu":
        return {"n_candidates": candidates}
    if family == "annealing":
        return {"moves_per_phase": candidates}
    print(
        f"note: --candidates/--stall do not apply to {family} solvers; "
        "using the family's own defaults",
        file=sys.stderr,
    )
    return {}


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.steps <= 0:
        raise ValueError(f"--steps must be positive, got {args.steps}")
    problem = load_instance(args.instance)
    scenario = _build_scenario(args.kind, problem, args)
    runner = ScenarioRunner(
        args.solver,
        budget=args.budget,
        warm=not args.cold,
        policy=_resilience_policy(args),
        **_scenario_solver_kwargs(args.solver, args.candidates, args.stall),
    )
    from repro.resilience import SupervisionReport

    supervision = SupervisionReport()
    outcome = runner.run(
        scenario,
        seed=args.seed,
        checkpoint=args.checkpoint,
        resume_from=args.resume,
        report=supervision,
    )
    _print_supervision(supervision)
    print(render_timeline(outcome))
    if args.chart:
        print(
            render_chart(
                {
                    outcome.solver_name: [
                        (row["step"], row["fitness"])
                        for row in outcome.timeline()
                    ]
                },
                x_label="step",
                y_label="fitness",
            )
        )
    return 0


def _cmd_scenario_live(args: argparse.Namespace) -> int:
    if args.steps <= 0:
        raise ValueError(f"--steps must be positive, got {args.steps}")
    from repro.anytime import LiveRunner
    from repro.viz import render_live_report

    problem = load_instance(args.instance)
    scenario = _build_scenario(args.kind, problem, args)
    solver_kwargs = _scenario_solver_kwargs(
        args.solver, args.candidates, args.stall
    )
    runner = LiveRunner(
        args.solver,
        sla=args.sla,
        interval=args.interval,
        budget=args.budget,
        seconds_per_evaluation=args.sim,
        deadline_fraction=args.deadline_fraction,
        **solver_kwargs,
    )
    report = runner.run(scenario, seed=args.seed)
    baseline = None
    if args.baseline:
        baseline = ScenarioRunner(
            args.solver,
            budget=args.budget,
            **solver_kwargs,
        ).run(scenario, seed=args.seed)
    print(render_live_report(report, baseline=baseline))
    return 0


def _cmd_scenario_fleet(args: argparse.Namespace) -> int:
    if args.steps <= 0:
        raise ValueError(f"--steps must be positive, got {args.steps}")
    kinds = [kind.strip() for kind in args.kinds.split(",") if kind.strip()]
    if not kinds:
        raise ValueError("--kinds needs at least one scenario kind")
    specs = [spec.strip() for spec in args.solvers.split(",") if spec.strip()]
    if not specs:
        raise ValueError("--solvers needs at least one registry spec")
    problem = load_instance(args.instance)
    scenarios = [_build_scenario(kind, problem, args) for kind in kinds]
    solvers = [
        (spec, _scenario_solver_kwargs(spec, args.candidates, args.stall))
        for spec in specs
    ]
    fleet = ScenarioFleet(
        scenarios,
        solvers,
        n_seeds=args.seeds,
        budget=args.budget,
        warm_budget=args.warm_budget,
        warm=args.arms,
        workers=args.workers,
        policy=_resilience_policy(args),
    )
    from repro.resilience import SupervisionReport

    supervision = SupervisionReport()
    report = fleet.run(
        seed=args.seed,
        checkpoint=args.checkpoint,
        resume_from=args.resume,
        report=supervision,
    )
    _print_supervision(supervision)
    print(render_fleet_report(report, chart=args.chart))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    scale = PAPER_SCALE if args.scale == "paper" else QUICK_SCALE
    report = run_all(scale=scale, seed=args.seed)
    print(report.render_text())
    if args.charts:
        for figure in report.figures:
            print(f"Figure {figure.figure_number} — {figure.title}")
            print(
                render_chart(
                    {
                        series.label: list(zip(series.x, series.giant_sizes))
                        for series in figure.series
                    },
                    x_label=figure.x_label,
                    y_label="giant",
                )
            )
            print()
    if args.csv_dir:
        written = report.save_csvs(args.csv_dir)
        for path in written:
            print(f"wrote {path}")
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.experiments.replication import (
        format_replication,
        replicate_movements,
        replicate_standalone,
    )

    problem = load_instance(args.instance)
    from repro.resilience import SupervisionReport

    import os

    # The two studies checkpoint into sibling subdirectories (each keeps
    # its own manifest).  A run interrupted during the first study has
    # no second subdirectory yet, so --resume degrades to fresh
    # checkpointing for a study whose checkpoint never started.
    def _study_dirs(name: str) -> tuple["str | None", "str | None"]:
        checkpoint = (
            os.path.join(args.checkpoint, name) if args.checkpoint else None
        )
        resume = os.path.join(args.resume, name) if args.resume else None
        if resume is not None and not os.path.isfile(
            os.path.join(resume, "manifest.json")
        ):
            # The run was interrupted before this study checkpointed
            # anything: recompute it fresh (into the same directory)
            # instead of refusing the resume of the *other* study.
            return resume, None
        return checkpoint, resume

    policy = _resilience_policy(args)
    supervision = SupervisionReport()
    checkpoint, resume = _study_dirs("standalone")
    standalone = replicate_standalone(
        problem,
        n_seeds=args.seeds,
        workers=args.workers,
        policy=policy,
        checkpoint=checkpoint,
        resume_from=resume,
        report=supervision,
    )
    print(format_replication(standalone, "stand-alone ad hoc methods"))
    checkpoint, resume = _study_dirs("movements")
    movements = replicate_movements(
        problem,
        n_seeds=args.seeds,
        n_candidates=args.candidates,
        max_phases=args.phases,
        workers=args.workers,
        policy=policy,
        checkpoint=checkpoint,
        resume_from=resume,
        report=supervision,
    )
    print(format_replication(movements, "neighborhood search movements"))
    _print_supervision(supervision)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweeps import (
        format_sweep,
        sweep_radio_range,
        sweep_router_count,
    )
    from repro.instances.catalog import paper_normal

    base = paper_normal()
    if args.parameter == "routers":
        values = (
            tuple(int(v) for v in args.values.split(","))
            if args.values
            else (16, 32, 64)
        )
        result = sweep_router_count(
            base,
            counts=values,
            seed=args.seed,
            n_restarts=args.restarts,
        )
    else:
        values = (
            tuple(float(v) for v in args.values.split(","))
            if args.values
            else (4.0, 7.0, 12.0)
        )
        result = sweep_radio_range(
            base,
            max_radii=values,
            seed=args.seed,
            n_restarts=args.restarts,
        )
    print(format_sweep(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
