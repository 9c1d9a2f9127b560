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
the parent from the stable key ``(spec.seed, crc32(label), seed)``
(:func:`label_key`; CRC32 because the builtin ``hash`` is salted per
process).  A movement chain consumes its generator in a fixed order —
the initial random placement first, then the per-phase candidate
proposals — and **only** that chain touches it, so the per-seed values
are bit-identical however the chains are grouped: the lockstep engine,
the serial per-chain loop and every ``workers=`` sharding all report the
same numbers (asserted by ``tests/experiments/test_replication_parallel``
and ``tests/neighborhood/test_multichain.py``).

``workers=`` composes both parallelism axes: chains run in lockstep
*within* a process while contiguous seed shards fan out over a
``ProcessPoolExecutor`` *across* cores.  Serial remains the default;
with ``workers > 1`` the method/movement inputs must be picklable (the
built-in registries and movements all are).
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass

import numpy as np

from repro.adhoc.registry import PAPER_METHOD_ORDER, make_method
from repro.core.evaluation import Evaluator
from repro.core.fitness import FitnessFunction
from repro.instances.generator import InstanceSpec
from repro.instances.shm import ProblemRef
from repro.neighborhood.movements import MovementType
from repro.neighborhood.multichain import MultiChainSearch
from repro.parallel import (
    get_runtime,
    resolve_task_problem,
    run_tasks,
    seed_shards,
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
    the pickle path) or what the runtime's broadcast returned: a
    :class:`~repro.instances.shm.ProblemRef` (attach the shared-memory
    payload, cached per process by content hash) or, after a lost
    broadcast was re-shipped by pickle, the instance itself.
    """
    if not isinstance(source, InstanceSpec):
        return resolve_task_problem(source)
    key = repr(source)
    problem = _PROBLEM_CACHE.get(key)
    if problem is None:
        problem = source.generate()
        _PROBLEM_CACHE[key] = problem
    return problem


def _problem_source(spec: InstanceSpec, workers: "int | None"):
    """What shard tasks carry for ``spec``: a broadcast handle when the
    fan-out is real and the instance is big enough, the spec otherwise
    (a spec pickles smaller than any instance, so below the broadcast
    threshold workers get the recipe and regenerate once each).
    """
    if workers is None or workers <= 1:
        return spec
    payload = get_runtime().broadcast(_cached_problem(spec))
    return payload if isinstance(payload, ProblemRef) else spec


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
    spec, method_name, fitness, engine, rng_keys = task
    problem = _cached_problem(spec)
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

    spec, factory, n_candidates, max_phases, fitness, engine, rng_keys = task
    problem = _cached_problem(spec)
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


def _run_replication(
    run_fn,
    labels,
    make_task,
    n_seeds: int,
    workers: "int | None",
    policy: "RetryPolicy | None",
    store,
    report: "SupervisionReport | None",
) -> dict[str, list[tuple]]:
    """Shared supervised/checkpointed grid walk of both harnesses.

    ``make_task(label, seeds)`` builds the picklable shard task for any
    contiguous seed range — the same builder serves normal execution and
    the single-seed parity re-verification on resume.  Returns
    ``{label: rows-ordered-by-seed}``.
    """
    shards = seed_shards(n_seeds, workers)
    entries = [
        (label, shard, [_rep_key(label, seed) for seed in shard])
        for label in labels
        for shard in shards
    ]
    restored = [
        index
        for index, (_, _, keys) in enumerate(entries)
        if store is not None and all(store.has(key) for key in keys)
    ]
    if restored:
        # Trust-but-verify: recompute one checkpointed row and assert it
        # matches its stored document exactly.
        label, shard, keys = entries[restored[0]]
        seed = shard.start
        row = run_fn(make_task(label, range(seed, seed + 1)))[0]
        store.verify_cell(keys[0], _row_doc(label, seed, row))
    pending = [i for i in range(len(entries)) if i not in set(restored)]

    def persist(position: int, rows) -> None:
        label, shard, keys = entries[pending[position]]
        for seed, key, row in zip(shard, keys, rows):
            store.save(key, _row_doc(label, seed, row))

    flat = run_tasks(
        run_fn,
        [make_task(entries[i][0], entries[i][1]) for i in pending],
        workers,
        policy=policy,
        labels=[
            f"{label} seeds {shard.start}..{shard.stop - 1}"
            for label, shard, _ in (entries[i] for i in pending)
        ],
        on_shard=persist if store is not None else None,
        report=report,
    )
    rows_by_entry: dict[int, list] = {}
    offset = 0
    for position, index in enumerate(pending):
        shard = entries[index][1]
        rows_by_entry[index] = flat[offset : offset + len(shard)]
        offset += len(shard)
    for index in restored:
        rows_by_entry[index] = [
            tuple(store.load(key)["values"]) for key in entries[index][2]
        ]
    results: dict[str, list[tuple]] = {label: [] for label in labels}
    for index, (label, _, _) in enumerate(entries):
        results[label].extend(tuple(row) for row in rows_by_entry[index])
    return results


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
    spec: InstanceSpec,
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
    The instance is fixed (the spec's seed); only the methods' randomness
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
    if n_seeds <= 0:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    store = open_store(
        {
            "kind": "replicate-standalone",
            "spec": repr(spec),
            "n_seeds": n_seeds,
            "methods": list(methods),
            "fitness": repr(fitness) if fitness is not None else None,
            "engine": engine,
        },
        checkpoint=checkpoint,
        resume_from=resume_from,
    )

    source = _problem_source(spec, workers)

    def make_task(name, seeds):
        return (
            source,
            name,
            fitness,
            engine,
            [(spec.seed, label_key(name), seed) for seed in seeds],
        )

    by_label = _run_replication(
        _standalone_run,
        list(methods),
        make_task,
        n_seeds,
        workers,
        policy,
        store,
        report,
    )
    return {
        name: {
            "giant": ReplicatedMetric(tuple(row[0] for row in rows)),
            "coverage": ReplicatedMetric(tuple(row[1] for row in rows)),
            "fitness": ReplicatedMetric(tuple(row[2] for row in rows)),
        }
        for name, rows in by_label.items()
    }


def replicate_movements(
    spec: InstanceSpec,
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

    if n_seeds <= 0:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    if movements is None:
        movements = {"Swap": SwapMovement, "Random": RandomMovement}
    labels = list(movements)
    store = open_store(
        {
            "kind": "replicate-movements",
            "spec": repr(spec),
            "n_seeds": n_seeds,
            "movements": labels,
            "n_candidates": n_candidates,
            "max_phases": max_phases,
            "fitness": repr(fitness) if fitness is not None else None,
            "engine": engine,
        },
        checkpoint=checkpoint,
        resume_from=resume_from,
    )

    source = _problem_source(spec, workers)

    def make_task(label, seeds):
        return (
            source,
            movements[label],
            n_candidates,
            max_phases,
            fitness,
            engine,
            [(spec.seed, label_key(label), seed) for seed in seeds],
        )

    by_label = _run_replication(
        _movement_run,
        labels,
        make_task,
        n_seeds,
        workers,
        policy,
        store,
        report,
    )
    return {
        label: {
            "giant": ReplicatedMetric(tuple(row[0] for row in rows)),
            "coverage": ReplicatedMetric(tuple(row[1] for row in rows)),
        }
        for label, rows in by_label.items()
    }


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
