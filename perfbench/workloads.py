"""The benchmark's four jobs, run through their public entry points.

Each workload turns the benchmark seed into inputs (``prepare``), runs
one whole job (``run``), and lists the job's result rows: the best
placement of every search the job reported, with the giant-component
size and covered-client count the job reported for it.  ``verify``
re-measures those rows independently; ``fingerprint`` pins a job's
whole output so repeated and traced jobs can be compared for identity.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from tracer import Patches

#: Replicate seeds and search effort of the two replication workloads.
REPLICATE_PAPER = dict(n_seeds=10, n_candidates=128, max_phases=64)
REPLICATE_CITY = dict(n_seeds=2, n_candidates=16, max_phases=8)
#: The scenario-fleet grid: 4 regimes x 2 solvers x 8 seeds x 6 steps.
FLEET_STEPS = 6
FLEET_SEEDS = 8
#: No stall rule: every step spends its whole phase budget, so the work
#: of a job does not depend on the seed.
FLEET_BUDGET = 16
FLEET_SOLVER_KWARGS = {"n_candidates": 16, "stall_phases": None}


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Row:
    """One reported result: a best placement and its reported metrics."""

    label: str
    problem: object
    placement: object
    giant: int
    covered: int
    #: Further reported values the fingerprint pins (fleet steps: the
    #: exact fitness, evaluation and phase counts, warm-start flag).
    extra: tuple = ()


class OutputMismatch(RuntimeError):
    """A job's reported values disagree with the searches that made them."""


class Capture:
    """Records the best placements of the searches a job runs.

    The reports of ``run_all`` and ``replicate_movements`` carry sizes,
    not placements, so the benchmark wraps the searches' ``run`` methods
    for the whole benchmark run and keeps ``(problem, best)`` pairs.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, object, object]] = []
        self._patches = Patches()

    def install(self, targets: tuple[str, ...]) -> None:
        from repro.genetic.engine import GeneticAlgorithm
        from repro.neighborhood.multichain import MultiChainSearch
        from repro.neighborhood.search import NeighborhoodSearch

        owners = {
            "ga": GeneticAlgorithm,
            "ns": NeighborhoodSearch,
            "multichain": MultiChainSearch,
        }
        for kind in targets:
            owner = owners[kind]
            self._patches.set(owner, "run", self._wrap(kind, owner.__dict__["run"]))

    def _wrap(self, kind: str, run):
        records = self.records

        def captured(search, first, *args, **kwargs):
            result = run(search, first, *args, **kwargs)
            problem = first if kind == "multichain" else first.problem
            bests = [r.best for r in result] if kind == "multichain" else [result.best]
            records.append((kind, problem, bests))
            return result

        captured.__wrapped__ = run
        return captured

    def restore(self) -> None:
        self._patches.restore()


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _row_payload(rows: list[Row]) -> list:
    return [
        [row.label, [list(cell) for cell in row.placement.cells], row.giant,
         row.covered, list(row.extra)]
        for row in rows
    ]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OutputMismatch(message)


class Workload:
    name = ""
    why = ""
    capture: tuple[str, ...] = ()
    #: Whether jobs fan out over the warm pool (traced in-process too).
    pooled = False
    #: Spans whose combined self time is predicted to be the largest.
    predicted_top: tuple[str, ...] = ()
    #: The work a host-speed burst does (``speed.PARTS``): that of the
    #: job.  Interpreter loop and cache-missing walk for jobs of Python
    #: objects and small arrays.
    speed_parts: tuple[str, ...] = ("loop", "walk")

    def prepare(self, seed: int) -> None:
        """Generate the inputs (the benchmark's set-up work)."""
        raise NotImplementedError

    def start_workers(self) -> None:
        """Start the warm pool, if the job uses one (also set-up work).

        Kept apart from :meth:`prepare` so that pool workers are forked
        while no tracer patches are installed.
        """

    @property
    def problem(self):
        """The instance whose engine tier the run context reports."""
        return self._problem

    def run(self, in_process: bool = False):
        """One whole job; returns its output."""
        raise NotImplementedError

    def rows(self, output, records) -> list[Row]:
        """The job's result rows (raises :class:`OutputMismatch`)."""
        raise NotImplementedError

    def fingerprint(self, output, rows: list[Row]) -> str:
        return _digest(_row_payload(rows))

    def supervision(self, output):
        """The job's ``SupervisionReport``, when it ran supervised."""
        return None


class ReproduceQuick(Workload):
    """Table 1 and Figures 1 and 4 at quick scale."""

    name = "reproduce-quick"
    why = (
        "the paper's GA initializer study plus Swap-vs-Random search: GA "
        "operators, repair and Placement building dominate, the engine does little"
    )
    capture = ("ga", "ns")
    predicted_top = ("genetic.crossover", "adhoc.repair")

    def prepare(self, seed: int) -> None:
        from repro.instances.catalog import paper_normal

        self.seed = seed
        self.spec = paper_normal()
        self._problem = self.spec.generate()

    def run(self, in_process: bool = False):
        from repro.experiments.config import QUICK_SCALE
        from repro.experiments.runner import run_all

        return run_all(
            QUICK_SCALE,
            seed=self.seed,
            distributions=("normal",),
            specs={"normal": self.spec},
        )

    def rows(self, report, records) -> list[Row]:
        ga = [r for r in records if r[0] == "ga"]
        ns = [r for r in records if r[0] == "ns"]
        (table,) = report.tables
        figure4 = report.figures[-1]
        _expect(len(ga) == len(table.rows), f"{len(ga)} GA runs for {len(table.rows)} rows")
        _expect(len(ns) == len(figure4.series), "Figure 4 series without a search")
        rows = []
        for table_row, (_, problem, (best,)) in zip(table.rows, ga):
            _expect(
                (table_row.giant_by_ga, table_row.coverage_by_ga)
                == (best.giant_size, best.covered_clients),
                f"Table 1 row {table_row.method} differs from its GA run",
            )
            rows.append(Row(f"ga/{table_row.method}", problem, best.placement,
                            best.giant_size, best.covered_clients))
        for series, (_, problem, (best,)) in zip(figure4.series, ns):
            _expect(
                series.final_giant == best.giant_size,
                f"Figure 4 series {series.label} differs from its search",
            )
            rows.append(Row(f"ns/{series.label}", problem, best.placement,
                            best.giant_size, best.covered_clients))
        return rows

    def fingerprint(self, report, rows: list[Row]) -> str:
        return _digest(
            {
                "tables": [[r.as_dict() for r in t.rows] for t in report.tables],
                "figures": [
                    [[s.label, list(s.x), list(s.giant_sizes)] for s in f.series]
                    for f in report.figures
                ],
                "rows": _row_payload(rows),
            }
        )


class _Replicate(Workload):
    """Swap and Random chains on a fixed catalog instance.

    Chain streams are keyed by ``(spec.seed, label, replicate)``; the
    benchmark seed goes into the movement labels, so each seed runs new
    chains on the same instance.
    """

    capture = ("multichain",)
    effort: dict = {}

    def _spec(self):
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        from repro.neighborhood.movements import RandomMovement, SwapMovement

        self.spec = self._spec()
        self._problem = self.spec.generate()
        self.movements = {f"Swap@{seed}": SwapMovement, f"Random@{seed}": RandomMovement}

    def run(self, in_process: bool = False):
        from repro.experiments.replication import replicate_movements

        return replicate_movements(
            self.spec, self.movements, workers=None, **self.effort
        )

    def rows(self, results, records) -> list[Row]:
        chains = [r for r in records if r[0] == "multichain"]
        _expect(len(chains) == len(results), f"{len(chains)} portfolios for {len(results)} labels")
        rows = []
        for (label, metrics), (_, problem, bests) in zip(results.items(), chains):
            giants, covered = metrics["giant"].values, metrics["coverage"].values
            _expect(len(bests) == len(giants), f"{label}: chain count differs")
            for seed, (best, giant, cover) in enumerate(zip(bests, giants, covered)):
                _expect(
                    (giant, cover) == (best.giant_size, best.covered_clients),
                    f"{label} seed {seed}: reported values differ from the chain",
                )
                rows.append(Row(f"{label}/{seed}", problem, best.placement,
                                best.giant_size, best.covered_clients))
        return rows


class ReplicatePaper(_Replicate):
    name = "replicate-paper"
    why = (
        "lockstep Swap and Random chains on the paper frame, no GA and no pool: "
        "movement proposals and the stacked delta engine do the work"
    )
    effort = REPLICATE_PAPER
    #: Movement proposals: propose_batch and the DensityMap windows it ranks.
    predicted_top = ("neighborhood.propose", "density.ranked_windows")

    def _spec(self):
        from repro.instances.catalog import paper_normal

        return paper_normal()


class ReplicateCity(_Replicate):
    name = "replicate-city"
    why = (
        "2048 routers and 20k clients, a working set far beyond the caches: "
        "the chain-cache build dominates time and peak memory"
    )
    effort = REPLICATE_CITY
    predicted_top = ("engine.cache_build",)
    #: The cache build streams arrays of hundreds of MB: without the
    #: streamed read the scaling overcorrected (job time grew as the
    #: loop+walk burst time to the power 0.63; with it, 0.82).
    speed_parts = ("loop", "walk", "stream")

    def _spec(self):
        from repro.instances.catalog import city_medium

        return city_medium()


class ScenarioFleetJob(Workload):
    name = "scenario-fleet"
    why = (
        "4 regimes x 2 searches x 8 seeds x 6 steps, warm re-optimization "
        "over the warm worker pool: the only job crossing parallel and resilience"
    )
    predicted_top = ("neighborhood.propose", "density.ranked_windows")
    pooled = True

    def prepare(self, seed: int) -> None:
        from repro.instances.catalog import paper_normal
        from repro.scenario import Scenario

        self.seed = seed
        self._problem = paper_normal().generate()
        self.scenarios = [
            Scenario.client_drift(self._problem, FLEET_STEPS, sigma=2.0),
            Scenario.client_churn(self._problem, FLEET_STEPS, fraction=0.1),
            Scenario.router_outages(self._problem, FLEET_STEPS, count=1),
            Scenario.radio_degradation(self._problem, FLEET_STEPS, factor=0.95),
        ]
        self.solvers = {
            spec: (spec, dict(FLEET_SOLVER_KWARGS))
            for spec in ("search:swap", "search:random")
        }
        self.workers = nproc()
        self._unfolded = None

    def start_workers(self) -> None:
        from repro.parallel import run_tasks

        # Every worker process starts now, not inside a job.
        run_tasks(list, [(i,) for i in range(self.workers)], self.workers)

    def _fleet(self, workers):
        from repro.scenario import ScenarioFleet

        return ScenarioFleet(
            self.scenarios,
            self.solvers,
            n_seeds=FLEET_SEEDS,
            budget=FLEET_BUDGET,
            warm=True,
            workers=workers,
        )

    def run(self, in_process: bool = False):
        from repro.resilience.supervisor import SupervisionReport

        supervision = SupervisionReport()
        fleet = self._fleet(None if in_process else self.workers)
        report = fleet.run(seed=self.seed, report=supervision)
        return report, supervision

    def supervision(self, output):
        return output[1]

    def _steps(self):
        """Every cell's unfolded steps, from the fleet's public seed grid."""
        if self._unfolded is None:
            from repro.scenario import fleet_seed_grid

            grid = fleet_seed_grid(
                self.seed, len(self.scenarios) * len(self.solvers), FLEET_SEEDS
            )
            self._unfolded = {}
            cell = 0
            for scenario in self.scenarios:
                for solver in self.solvers:
                    unfold_seq, _ = grid[cell]
                    self._unfolded[(scenario.name, solver)] = scenario.unfold(unfold_seq)
                    cell += 1
        return self._unfolded

    def rows(self, output, records) -> list[Row]:
        report, _ = output
        steps = self._steps()
        expected = len(self.scenarios) * len(self.solvers) * FLEET_SEEDS
        _expect(len(report.runs) == expected, f"{len(report.runs)} runs, expected {expected}")
        rows = []
        for run in report.runs:
            cell_steps = steps[(run.scenario, run.solver)]
            _expect(len(run.result.steps) == len(cell_steps), "step count differs")
            for item in run.result.steps:
                best = item.result.best
                rows.append(
                    Row(
                        f"{run.scenario}/{run.solver}/r{run.replicate}/s{item.step.index}",
                        cell_steps[item.step.index].problem,
                        best.placement,
                        best.giant_size,
                        best.covered_clients,
                        (repr(best.fitness), item.result.n_evaluations,
                         item.result.n_phases, item.result.warm_started),
                    )
                )
        return rows


WORKLOADS = {
    workload.name: workload
    for workload in (ReproduceQuick, ReplicatePaper, ReplicateCity, ScenarioFleetJob)
}

#: Jobs deliberately left out, recorded with every result.
OMITTED = {
    "scenario-live": (
        "its real-clock degradation ladder changes the amount of work with "
        "measured latency (probe p50 26-36 ms, p95 85-148 ms over 4 runs); its "
        "solve path is the one scenario-fleet already times"
    ),
    "reproduce-paper": (
        "paper-scale run_all takes minutes per job; it waits for the "
        "array-native Placement work"
    ),
}
