"""Multi-seed replication of the paper's experiments.

The paper reports single runs.  A faithful reproduction should also show
that the claims are not seed artifacts, so this harness reruns the
stand-alone method comparison and the movement comparison across many
seeds and reports mean +/- standard deviation per metric.

Both harnesses execute their portfolios through the vectorized engine
layer: the stand-alone placements of each method are evaluated as one
batched candidate set, and the (movement, seed) search chains advance in
lockstep through :class:`~repro.neighborhood.multichain.MultiChainSearch`
— one stacked engine pass per phase instead of one small batch per chain
per phase (see ``benchmarks/bench_multichain.py`` for the measured
speedup).

Per-chain RNG contract
----------------------

Every (method/movement, seed) run owns one ``numpy`` Generator seeded in
the parent from the stable key ``(instance_seed, crc32(label), seed)``
(:func:`label_key`; CRC32 because the builtin ``hash`` is salted per
process).  ``instance_seed`` is the spec's seed when the harness is
given an :class:`~repro.instances.generator.InstanceSpec` and 0 when it
is given a :class:`~repro.core.problem.ProblemInstance`, so a spec of
seed 0 and the instance it generates replicate identically.  A movement
chain consumes its generator in a fixed order — the initial random
placement first, then the per-phase candidate proposals — and **only**
that chain touches it, so the per-seed values are bit-identical however
the chains are grouped: the lockstep engine,
the serial per-chain loop and every ``workers=`` sharding all report the
same numbers (asserted by ``tests/experiments/test_replication_parallel``
and ``tests/neighborhood/test_multichain.py``).

``workers=`` composes both parallelism axes: chains run in lockstep
*within* a process while contiguous seed shards fan out over the warm
pool *across* cores, through the one sharded grid walk
(:func:`repro.parallel.run_sharded`).  Serial remains the default;
with ``workers > 1`` the method/movement inputs must be picklable (the
built-in registries and movements all are).
"""

from __future__ import annotations

import hashlib
import json
import re
import zlib
from dataclasses import dataclass

import numpy as np

from repro.adhoc.registry import PAPER_METHOD_ORDER, make_method
from repro.core.evaluation import Evaluator
from repro.core.fitness import FitnessFunction
from repro.core.problem import ProblemInstance
from repro.instances.generator import InstanceSpec
from repro.instances.serializer import instance_to_dict
from repro.instances.shm import ProblemRef
from repro.neighborhood.movements import MovementType
from repro.neighborhood.multichain import MultiChainSearch
from repro.parallel import (
    check_grid,
    get_runtime,
    resolve_task_problem,
    run_sharded,
)
from repro.resilience.checkpoint import open_store
from repro.resilience.supervisor import RetryPolicy, SupervisionReport

__all__ = [
    "ReplicatedMetric",
    "label_key",
    "replicate_standalone",
    "replicate_movements",
    "format_replication",
]

#: Per-process cache of generated instances, keyed by the spec's repr
#: (specs are frozen dataclasses, so the repr captures every field).
#: Workers receive the spec and regenerate once instead of pickling the
#: whole instance per task.
_PROBLEM_CACHE: dict[str, "object"] = {}


def _cached_problem(source):
    """The instance behind a task's problem payload.

    ``source`` is an :class:`InstanceSpec` (regenerate once per process,
    the pickle path), a :class:`~repro.instances.shm.ProblemRef` from
    the runtime's broadcast (attach the shared-memory payload, cached
    per process by content hash) or the instance itself (given so, or a
    lost broadcast re-shipped by pickle).
    """
    if not isinstance(source, InstanceSpec):
        return resolve_task_problem(source)
    key = repr(source)
    problem = _PROBLEM_CACHE.get(key)
    if problem is None:
        problem = source.generate()
        _PROBLEM_CACHE[key] = problem
    return problem


def _problem_source(problem, workers: "int | None"):
    """What shard tasks carry for ``problem`` (a spec or an instance).

    A broadcast handle when the fan-out is real and the instance is big
    enough, ``problem`` itself otherwise: a spec pickles smaller than
    any instance, so below the broadcast threshold workers get the
    recipe and regenerate once each.
    """
    if workers is None or workers <= 1:
        return problem
    payload = get_runtime().broadcast(_cached_problem(problem))
    return payload if isinstance(payload, ProblemRef) else problem


def _problem_identity(problem) -> dict:
    """The manifest fields pinning which instance a checkpoint replicates."""
    if isinstance(problem, InstanceSpec):
        return {"spec": repr(problem)}
    blob = json.dumps(instance_to_dict(problem), sort_keys=True)
    return {"instance": hashlib.sha256(blob.encode()).hexdigest()}


def label_key(name: str) -> int:
    """Stable 16-bit key from a method/movement label.

    Earlier revisions used the built-in ``hash``, whose per-process salt
    made replication results differ between interpreter runs; CRC32 is
    deterministic everywhere, so fixed seeds now mean fixed statistics.
    Shared by replication, sweeps, the study/figure harnesses and the
    benchmarks — one key rule, so labels mean the same stream everywhere.
    """
    return zlib.crc32(name.encode("utf-8")) & 0xFFFF


def _standalone_run(task) -> list[tuple[float, float, float]]:
    """One (method, seed-shard) batch of stand-alone runs (picklable).

    The shard's placements are generated per seed on that seed's own
    generator, then measured as one batched candidate set — identical
    values to per-seed scalar evaluation (engine parity), one stacked
    pass instead of ``len(shard)``.
    """
    source, method_name, fitness, engine, rng_keys = task
    problem = _cached_problem(source)
    placements = []
    for key in rng_keys:
        rng = np.random.default_rng(key)
        placements.append(make_method(method_name).place(problem, rng))
    evaluator = Evaluator(problem, fitness, engine=engine)
    evaluations = evaluator.evaluate_many(placements)
    return [
        (float(e.giant_size), float(e.covered_clients), e.fitness)
        for e in evaluations
    ]


def _movement_run(task) -> list[tuple[float, float]]:
    """One (movement, seed-shard) lockstep portfolio (picklable).

    Chain ``i`` draws its initial placement and all proposals from the
    generator seeded with ``rng_keys[i]`` and from nothing else, so the
    per-seed results do not depend on how seeds are sharded: each equals
    a one-chain run of that seed.
    """
    from repro.core.solution import Placement

    source, factory, n_candidates, max_phases, fitness, engine, rng_keys = task
    problem = _cached_problem(source)
    rngs = [np.random.default_rng(key) for key in rng_keys]
    initials = [
        Placement.random(problem.grid, problem.n_routers, rng) for rng in rngs
    ]
    search = MultiChainSearch(
        factory(),
        n_candidates=n_candidates,
        max_phases=max_phases,
        stall_phases=None,
        engine=engine,
    )
    outcomes = search.run(problem, initials, rngs, fitness=fitness)
    return [
        (float(outcome.best.giant_size), float(outcome.best.covered_clients))
        for outcome in outcomes
    ]


_ROW_FORMAT = "repro.replicate_row.v1"


def _rep_key(label: str, seed: int) -> str:
    """Checkpoint key of one (label, seed) row: readable + collision-free.

    The sanitized label is for humans; the CRC key (the same
    :func:`label_key` that seeds the row's generator) disambiguates
    labels that sanitize identically.  Seed-granular — never
    shard-granular — so a checkpoint written at one worker count resumes
    at any other.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-") or "label"
    return f"{safe}.{label_key(label):05d}-s{seed:03d}"


def _row_doc(label: str, seed: int, row) -> dict:
    return {
        "format": _ROW_FORMAT,
        "label": label,
        "seed": seed,
        "values": [float(value) for value in row],
    }


def _row_values(document: dict) -> tuple:
    return tuple(document["values"])


def _shard_label(label: str, seeds: range) -> str:
    return f"{label} seeds {seeds.start}..{seeds.stop - 1}"


def _replicate(
    runner,
    metrics: tuple[str, ...],
    problem: "InstanceSpec | ProblemInstance",
    settings: dict,
    manifest: dict,
    n_seeds: int,
    workers: "int | None",
    policy: "RetryPolicy | None",
    checkpoint: "str | None",
    resume_from: "str | None",
    report: "SupervisionReport | None",
) -> dict[str, dict[str, "ReplicatedMetric"]]:
    """Both harnesses' grid: ``{label: {metric: ReplicatedMetric}}``.

    ``settings`` maps each label to the task fields between the problem
    payload and the RNG keys, so one task builder serves normal
    execution and the resume check of :func:`repro.parallel.run_sharded`;
    ``metrics`` names the columns of ``runner``'s rows.
    """
    check_grid(n_seeds, workers)
    store = open_store(
        {**manifest, **_problem_identity(problem), "n_seeds": n_seeds},
        checkpoint=checkpoint,
        resume_from=resume_from,
    )
    source = _problem_source(problem, workers)
    instance_seed = problem.seed if isinstance(problem, InstanceSpec) else 0

    def make_task(label: str, seeds: range) -> tuple:
        keys = [(instance_seed, label_key(label), seed) for seed in seeds]
        return (source, *settings[label], keys)

    rows = run_sharded(
        runner,
        list(settings),
        n_seeds,
        workers,
        make_task,
        key=_rep_key,
        encode=_row_doc,
        decode=_row_values,
        label=_shard_label,
        store=store,
        policy=policy,
        report=report,
    )
    return {
        label: {
            metric: ReplicatedMetric(tuple(row[column] for row in label_rows))
            for column, metric in enumerate(metrics)
        }
        for label, label_rows in zip(settings, rows)
    }


@dataclass(frozen=True)
class ReplicatedMetric:
    """Mean / standard deviation / extremes of one metric across seeds."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a replicated metric needs at least one value")

    @property
    def n_seeds(self) -> int:
        """Number of replications."""
        return len(self.values)

    @property
    def mean(self) -> float:
        """Sample mean."""
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1; 0 for a single run)."""
        if len(self.values) < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def minimum(self) -> float:
        """Smallest observed value."""
        return float(min(self.values))

    @property
    def maximum(self) -> float:
        """Largest observed value."""
        return float(max(self.values))

    def __str__(self) -> str:
        return f"{self.mean:.1f} +/- {self.std:.1f}"


def replicate_standalone(
    spec: "InstanceSpec | ProblemInstance",
    n_seeds: int = 10,
    methods: tuple[str, ...] = PAPER_METHOD_ORDER,
    fitness: FitnessFunction | None = None,
    workers: int | None = None,
    engine: str = "auto",
    policy: "RetryPolicy | None" = None,
    checkpoint: "str | None" = None,
    resume_from: "str | None" = None,
    report: "SupervisionReport | None" = None,
) -> dict[str, dict[str, ReplicatedMetric]]:
    """Stand-alone ad hoc results across seeds.

    Returns ``{method: {"giant": ..., "coverage": ..., "fitness": ...}}``.
    The instance is fixed (``spec`` is its recipe, generated at the
    spec's seed, or the instance itself); only the methods' randomness
    varies, exactly like repeated planning runs on one deployment area.
    Every method's seed batch is evaluated in one stacked engine pass;
    with ``workers``, contiguous seed shards fan out over a process pool.
    RNG keys are computed here in the parent (see the module docstring),
    so the per-seed values are identical in every configuration.

    Execution is supervised (``policy``: retry/backoff/degradation, see
    :mod:`repro.resilience`); ``checkpoint`` persists each completed
    (method, seed) row and ``resume_from`` skips checkpointed rows
    after re-verifying one of them — semantics as on
    :meth:`repro.scenario.fleet.ScenarioFleet.run`.
    """
    return _replicate(
        _standalone_run,
        ("giant", "coverage", "fitness"),
        spec,
        {name: (name, fitness, engine) for name in methods},
        {
            "kind": "replicate-standalone",
            "methods": list(methods),
            "fitness": repr(fitness) if fitness is not None else None,
            "engine": engine,
        },
        n_seeds,
        workers,
        policy,
        checkpoint,
        resume_from,
        report,
    )


def replicate_movements(
    spec: "InstanceSpec | ProblemInstance",
    movements: dict[str, "type[MovementType] | None"] = None,
    n_seeds: int = 5,
    n_candidates: int = 16,
    max_phases: int = 30,
    fitness: FitnessFunction | None = None,
    workers: int | None = None,
    engine: str = "auto",
    policy: "RetryPolicy | None" = None,
    checkpoint: "str | None" = None,
    resume_from: "str | None" = None,
    report: "SupervisionReport | None" = None,
) -> dict[str, dict[str, ReplicatedMetric]]:
    """Final neighborhood-search giants across seeds, per movement.

    ``movements`` maps labels to zero-argument movement factories; the
    default compares the paper's Swap and Random movements.  Each label's
    seed chains advance in lockstep through one
    :class:`~repro.neighborhood.multichain.MultiChainSearch` portfolio
    (per-seed results bit-identical to the serial per-chain loop — see
    the module docstring for the RNG contract).  Each seed draws its own
    initial random placement, so the statistics cover both the start and
    the search randomness.  With ``workers``, contiguous seed shards of
    every portfolio fan out over a process pool — identical statistics,
    less wall-clock.

    Supervision and checkpoint/resume kwargs behave exactly as on
    :func:`replicate_standalone` (rows are checkpointed per (movement,
    seed); resume re-verifies one row).
    """
    from repro.neighborhood.movements import RandomMovement, SwapMovement

    if movements is None:
        movements = {"Swap": SwapMovement, "Random": RandomMovement}
    return _replicate(
        _movement_run,
        ("giant", "coverage"),
        spec,
        {
            label: (factory, n_candidates, max_phases, fitness, engine)
            for label, factory in movements.items()
        },
        {
            "kind": "replicate-movements",
            "movements": list(movements),
            "n_candidates": n_candidates,
            "max_phases": max_phases,
            "fitness": repr(fitness) if fitness is not None else None,
            "engine": engine,
        },
        n_seeds,
        workers,
        policy,
        checkpoint,
        resume_from,
        report,
    )


def format_replication(
    results: dict[str, dict[str, ReplicatedMetric]], title: str
) -> str:
    """Aligned text table of replicated metrics."""
    lines = [title]
    metric_names = list(next(iter(results.values())))
    header = f"{'name':12s}" + "".join(
        f"{metric:>20s}" for metric in metric_names
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, metrics in results.items():
        lines.append(
            f"{name:12s}"
            + "".join(f"{str(metrics[metric]):>20s}" for metric in metric_names)
        )
    return "\n".join(lines) + "\n"
