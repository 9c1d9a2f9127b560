"""Outside-in span tracer for the end-to-end benchmark.

Spans are recorded by replacing public functions and methods of the
``repro`` modules with timing wrappers for the duration of one traced
job, then putting the originals back.  No program code changes: the
wrappers live here, and :meth:`Patches.restore` undoes every
replacement, including the copies of a function that consumer modules
bound at import time (``from repro.adhoc.base import
resolve_collisions`` leaves a second reference in
``repro.genetic.crossover``; both are patched).

A span is ``(run, id, parent, name, start, end)``.  Spans are kept in
memory and written as JSONL when the benchmark run ends.  A layer's
self time is its span's duration minus the time its child spans cover.
A call that re-enters the layer it is already inside (a composite
mutation calling its parts, ``evaluate_many`` calling
``measure_placements``) opens no new span, so ``calls`` and the
counters below count outermost entries only.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from array import array
from collections import defaultdict

#: Span name -> ``"module:target"`` entries.  ``Class.method`` targets
#: patch the class and every subclass that overrides the method;
#: plain ``function`` targets patch every loaded ``repro`` module that
#: bound the function object.
SPANS: dict[str, tuple[str, ...]] = {
    "instances.generate": ("repro.instances.generator:InstanceSpec.generate",),
    "adhoc.place": ("repro.adhoc.base:AdHocMethod.place",),
    "adhoc.repair": ("repro.adhoc.base:resolve_collisions",),
    "genetic.crossover": ("repro.genetic.crossover:CrossoverOperator.crossover",),
    "genetic.mutation": ("repro.genetic.mutation:MutationOperator.mutate",),
    "genetic.selection": (
        "repro.genetic.selection:SelectionOperator.select_pair",
        "repro.genetic.selection:SelectionOperator.select",
    ),
    "genetic.diversity": ("repro.genetic.population:Population.diversity",),
    "genetic.evaluate_all": ("repro.genetic.population:Population.evaluate_all",),
    "solution.from_cells": ("repro.core.solution:Placement.from_cells",),
    "density.ranked_windows": ("repro.core.density:DensityMap.ranked_windows",),
    "neighborhood.propose": (
        "repro.neighborhood.movements:MovementType.propose_batch",
        "repro.neighborhood.movements:MovementType.propose",
    ),
    "neighborhood.driver": (
        "repro.neighborhood.multichain:MultiChainSearch.run",
        "repro.neighborhood.search:NeighborhoodSearch.run",
    ),
    "engine.measure": (
        "repro.core.evaluation:Evaluator.evaluate",
        "repro.core.evaluation:Evaluator.evaluate_many",
        "repro.core.engine.stacked:StackedEngine.measure_positions",
        "repro.core.engine.stacked:StackedEngine.measure_placements",
        "repro.core.engine.stacked:StackedDeltaEngine.measure_phase",
    ),
    "engine.commit": ("repro.core.engine.stacked:StackedDeltaEngine.commit_chain",),
    "engine.cache_build": ("repro.core.engine.stacked:StackedDeltaEngine.reset_chain",),
    "scenario.unfold": ("repro.scenario.scenario:Scenario.unfold",),
    "scenario.solve_batch": ("repro.solvers.base:Solver.solve_batch",),
    "parallel.run_tasks": ("repro.parallel:run_tasks",),
    "parallel.broadcast": ("repro.parallel.runtime:ParallelRuntime.broadcast",),
    # The parent blocks on pool workers inside Future.result.
    "parallel.wait": ("concurrent.futures._base:Future.result",),
}

#: Modules imported before patching so every subclass is registered.
_PRELOAD = (
    "repro.adhoc.registry",
    "repro.genetic.engine",
    "repro.neighborhood.registry",
    "repro.solvers.registry",
    "repro.scenario",
    "repro.experiments.runner",
    "repro.experiments.replication",
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        return module, None, path
    return module, getattr(module, owner_name), attr


def _subclasses(cls) -> list[type]:
    found, stack = [], [cls]
    while stack:
        klass = stack.pop()
        if klass not in found:
            found.append(klass)
            stack.extend(klass.__subclasses__())
    return found


def patch_callable(patches: Patches, target: str, make_wrapper) -> int:
    """Wrap one target everywhere it is reachable; returns sites patched.

    A target the program no longer has patches nothing (0 sites), so a
    refactor that renames an entry point loses its spans, not the run.
    """
    try:
        module, cls, attr = _resolve(target)
    except (ImportError, AttributeError):
        return 0
    sites = 0
    if cls is None:
        original = getattr(module, attr, None)
        if original is None:
            return 0
        wrapper = make_wrapper(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    patches.set(loaded, key, wrapper)
                    sites += 1
        return sites
    for klass in _subclasses(cls):
        raw = klass.__dict__.get(attr)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            patches.set(klass, attr, classmethod(make_wrapper(raw.__func__)))
        elif isinstance(raw, staticmethod):
            patches.set(klass, attr, staticmethod(make_wrapper(raw.__func__)))
        elif callable(raw):
            patches.set(klass, attr, make_wrapper(raw))
        else:
            continue
        sites += 1
    return sites


# ----------------------------------------------------------------------
# Exact counters taken at the span boundaries (outermost entries only)
# ----------------------------------------------------------------------


def _count_measure(tracer, args, kwargs, result) -> None:
    counters = tracer.counters
    if isinstance(result, list):
        candidates = len(result)
    elif hasattr(result, "giant_sizes"):
        candidates = len(result.giant_sizes)
    else:
        candidates = 1
    counters["engine.candidates"] += candidates
    problem = getattr(args[0], "problem", None)
    if problem is not None:
        # What a from-scratch measurement tests: K * (N^2 + N * M) pairs.
        n, m = problem.n_routers, problem.n_clients
        counters["engine.pair_tests.computed"] += candidates * (n * n + n * m)


def _count_cache_build(tracer, args, kwargs, result) -> None:
    counters = tracer.counters
    problem = getattr(args[0], "problem", None)
    if problem is not None:
        # The cached (M, N) boolean coverage matrix, one byte per cell.
        counters["engine.cache_bytes.computed"] += problem.n_clients * problem.n_routers


def _count_proposals(tracer, args, kwargs, result) -> None:
    counters = tracer.counters
    if isinstance(result, list):
        counters["neighborhood.proposals"] += sum(len(moves) for moves in result)
    else:
        counters["neighborhood.proposals"] += 1


def _count_phases(tracer, args, kwargs, result) -> None:
    counters = tracer.counters
    results = result if isinstance(result, list) else [result]
    for outcome in results:
        trace = getattr(outcome, "trace", None)
        if trace is None:
            continue
        for record in trace:
            if record.phase == 0:
                continue
            counters["neighborhood.phases"] += 1
            counters["neighborhood.improving_phases"] += int(record.improved)


def _count_solve_batch(tracer, args, kwargs, result) -> None:
    counters = tracer.counters
    counters["scenario.solve_batch_steps"] += 1
    counters["scenario.warm_steps"] += int(kwargs.get("warm_starts") is not None)


def _keep_tasks(tracer, args, kwargs, result) -> None:
    # Pickled sizes are taken after the job, outside every span.
    tracer.task_lists.append(args[1] if len(args) > 1 else kwargs.get("tasks", []))


COUNTERS = {
    "engine.measure": _count_measure,
    "engine.cache_build": _count_cache_build,
    "neighborhood.propose": _count_proposals,
    "neighborhood.driver": _count_phases,
    "scenario.solve_batch": _count_solve_batch,
    "parallel.run_tasks": _keep_tasks,
}


class Tracer:
    """In-memory spans, per-name self/inclusive time, calls and counters.

    Finished spans go to flat ``array`` columns rather than one object
    per span, so a traced job does not feed the cyclic garbage
    collector tens of thousands of extra containers.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.task_lists: list = []
        self._names: list[str] = []
        self._columns = {
            "id": array("q"), "parent": array("q"), "name": array("i"),
            "start": array("d"), "end": array("d"),
        }
        self._stack: list[list] = []
        self._next_id = itertools.count().__next__
        self._patches = Patches()

    def open(self, name: str) -> list:
        """Open a span by hand (the job's root span)."""
        frame = [name, self._next_id(), time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        self._finish(frame, time.perf_counter())

    def _finish(self, frame: list, end: float) -> None:
        stack = self._stack
        stack.pop()
        name, span_id, start, child = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[1]
        else:
            parent_id = -1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        columns = self._columns
        columns["id"].append(span_id)
        columns["parent"].append(parent_id)
        columns["name"].append(self._code(name))
        columns["start"].append(start)
        columns["end"].append(end)

    def _code(self, name: str) -> int:
        try:
            return self._names.index(name)
        except ValueError:
            self._names.append(name)
            return len(self._names) - 1

    def _wrapper(self, name: str, fn):
        stack = self._stack
        counter = COUNTERS.get(name)
        next_id, finish, clock = self._next_id, self._finish, time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, next_id(), clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(frame, clock())
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation --------------------------------------------------

    def install(self) -> dict[str, int]:
        """Patch every span target; returns patched sites per span name."""
        for module_name in _PRELOAD:
            importlib.import_module(module_name)
        sites: dict[str, int] = {}
        for name, targets in SPANS.items():
            sites[name] = sum(
                patch_callable(
                    self._patches, target, lambda fn, name=name: self._wrapper(name, fn)
                )
                for target in targets
            )
        return sites

    def restore(self) -> None:
        self._patches.restore()

    def write_jsonl(self, handle, origin: float) -> None:
        """One JSON object per span, times relative to ``origin``."""
        columns = self._columns
        for span_id, parent, code, start, end in zip(
            columns["id"], columns["parent"], columns["name"],
            columns["start"], columns["end"],
        ):
            handle.write(
                json.dumps(
                    {
                        "run": self.run_id,
                        "id": span_id,
                        "parent": None if parent < 0 else parent,
                        "name": self._names[code],
                        "start": round(start - origin, 9),
                        "end": round(end - origin, 9),
                    }
                )
                + "\n"
            )
