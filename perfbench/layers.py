"""Per-layer metrics and the self-time rollup of traced jobs.

Layers are named after the ``repro`` modules the spans wrap (see
``tracer.SPANS``).  Times are per job: the mean over the traced jobs of
one run.  Counts are exact and identical across a run's jobs.  Names
ending in ``.computed`` are work figures derived from instance sizes
(K*(N^2+N*M) pair tests, M*N cache bytes), not measurements.
"""

from __future__ import annotations

import pickle
import statistics

#: (metric, unit, source) in BENCHMARK.json order.  ``source`` is
#: ``self:<span>``, ``calls:<span>``, ``total:<span>`` or a counter name.
LAYER_METRICS = (
    ("instances.generate.self_s", "s", "self:instances.generate"),
    ("instances.generate.setup_s", "s", "setup"),
    ("adhoc.place.self_s", "s", "self:adhoc.place"),
    ("adhoc.repair.self_s", "s", "self:adhoc.repair"),
    ("adhoc.repair.calls", "count", "calls:adhoc.repair"),
    ("genetic.crossover.self_s", "s", "self:genetic.crossover"),
    ("genetic.crossover.calls", "count", "calls:genetic.crossover"),
    ("genetic.mutation.self_s", "s", "self:genetic.mutation"),
    ("genetic.mutation.calls", "count", "calls:genetic.mutation"),
    ("genetic.selection.self_s", "s", "self:genetic.selection"),
    ("genetic.diversity.self_s", "s", "self:genetic.diversity"),
    ("genetic.evaluate_all.self_s", "s", "self:genetic.evaluate_all"),
    ("solution.from_cells.self_s", "s", "self:solution.from_cells"),
    ("solution.from_cells.calls", "count", "calls:solution.from_cells"),
    ("density.ranked_windows.self_s", "s", "self:density.ranked_windows"),
    ("density.ranked_windows.calls", "count", "calls:density.ranked_windows"),
    ("neighborhood.propose.self_s", "s", "self:neighborhood.propose"),
    ("neighborhood.proposals", "count", "neighborhood.proposals"),
    ("neighborhood.driver.self_s", "s", "self:neighborhood.driver"),
    ("neighborhood.improving_phase_ratio", "ratio", "improving_phase_ratio"),
    ("engine.measure.self_s", "s", "self:engine.measure"),
    ("engine.candidates", "count", "engine.candidates"),
    ("engine.evals_per_s", "1/s", "evals_per_s"),
    ("engine.pair_tests.computed", "count", "engine.pair_tests.computed"),
    ("engine.commit.self_s", "s", "self:engine.commit"),
    ("engine.cache_build.self_s", "s", "self:engine.cache_build"),
    ("engine.cache_build.calls", "count", "calls:engine.cache_build"),
    ("engine.cache_bytes.computed", "bytes", "engine.cache_bytes.computed"),
    ("scenario.unfold.self_s", "s", "self:scenario.unfold"),
    ("scenario.solve_batch.self_s", "s", "self:scenario.solve_batch"),
    ("scenario.warm_start_ratio", "ratio", "warm_start_ratio"),
    ("parallel.run_tasks.wall_s", "s", "total:parallel.run_tasks"),
    ("parallel.wait_s", "s", "self:parallel.wait"),
    ("parallel.broadcast.self_s", "s", "self:parallel.broadcast"),
    ("parallel.publishes", "count", "runtime:publishes"),
    ("parallel.pool_creates", "count", "runtime:pool_creates"),
    ("parallel.broadcast_hits", "count", "runtime:broadcast_hits"),
    ("parallel.payload_bytes_per_task", "bytes", "payload_bytes_per_task"),
    ("resilience.failures", "count", "resilience:failures"),
    ("resilience.retries", "count", "resilience:retries"),
    ("resilience.degraded", "count", "resilience:degraded"),
    ("experiments.self_s", "s", "self:experiments"),
    ("experiments.giant_mean", "routers", "quality:giant_mean"),
    ("experiments.covered_mean", "clients", "quality:covered_mean"),
    ("trace.overhead", "ratio", "overhead"),
    ("trace.job_s", "s", "traced_job_s"),
    ("context.compiled_tier", "flag", "compiled"),
    ("context.kernel_threads", "count", "kernel_threads"),
    ("context.host_slowdown", "ratio", "host_slowdown"),
    ("context.job_wall_s", "s", "job_wall_s"),
)

#: Metrics of the pool's parent side, taken from the pooled traced jobs
#: when a workload also has an in-process traced job.
PARENT_SIDE = ("parallel.", "resilience.", "trace.")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _payload_bytes(tracer) -> float:
    sizes = [len(pickle.dumps(task)) for tasks in tracer.task_lists for task in tasks]
    return statistics.fmean(sizes) if sizes else 0.0


def _job_value(job, source: str) -> float:
    tracer = job.tracer
    kind, _, name = source.partition(":")
    if kind == "self":
        return tracer.self_s.get(name, 0.0)
    if kind == "total":
        return tracer.total_s.get(name, 0.0)
    if kind == "calls":
        return tracer.calls.get(name, 0)
    if kind == "runtime":
        return job.extra["runtime"].get(name, 0)
    if kind == "resilience":
        supervision = job.extra.get("supervision")
        if supervision is None:
            return 0
        if name == "degraded":
            return len(supervision.degraded)
        # A job that returned retried every failure it recorded.
        return supervision.n_failures
    counters = tracer.counters
    if source == "improving_phase_ratio":
        return _ratio(counters["neighborhood.improving_phases"], counters["neighborhood.phases"])
    if source == "warm_start_ratio":
        return _ratio(counters["scenario.warm_steps"], counters["scenario.solve_batch_steps"])
    if source == "evals_per_s":
        return _ratio(counters["engine.candidates"], tracer.total_s.get("engine.measure", 0.0))
    if source == "payload_bytes_per_task":
        return _payload_bytes(tracer)
    if source == "traced_job_s":
        return job.scaled_s
    return counters.get(source, 0)


def layer_metrics(traced, in_process, untraced, setup_tracer, context, quality) -> dict:
    """Every per-layer metric, by name, with its unit.

    Job times are scaled to the reference host speed, as ``job_s`` is;
    ``context.job_wall_s`` and ``context.host_slowdown`` give the wall
    time of the untraced jobs and the host slowdown that scaled them.
    """
    overhead = (
        statistics.median(j.scaled_s for j in traced)
        / statistics.median(j.scaled_s for j in untraced)
        - 1.0
    )
    metrics = {}
    for name, unit, source in LAYER_METRICS:
        if source == "overhead":
            value = overhead
        elif source == "setup":
            value = setup_tracer.self_s.get("instances.generate", 0.0)
        elif source.startswith("quality:"):
            value = quality[source.partition(":")[2]]["value"]
        elif source == "compiled":
            value = int(context["compiled_available"])
        elif source == "kernel_threads":
            value = context["kernel_threads"]
        elif source == "host_slowdown":
            value = statistics.median(j.slowdown for j in untraced)
        elif source == "job_wall_s":
            value = statistics.median(j.seconds for j in untraced)
        else:
            jobs = traced if (not in_process or name.startswith(PARENT_SIDE)) else in_process
            value = statistics.fmean(_job_value(job, source) for job in jobs)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def rollup(jobs) -> list[tuple[str, float, float]]:
    """``(span, self_s per job, share of job_s)``, largest first."""
    names = {name for job in jobs for name in job.tracer.self_s}
    job_s = statistics.fmean(job.seconds for job in jobs)
    rows = []
    for name in names:
        self_s = statistics.fmean(job.tracer.self_s.get(name, 0.0) for job in jobs)
        rows.append((name, self_s, self_s / job_s))
    return sorted(rows, key=lambda row: -row[1])


def check_prediction(rows, predicted: tuple[str, ...]) -> tuple[bool, str]:
    """Whether the predicted spans, combined, hold the largest self time."""
    combined = sum(self_s for name, self_s, _ in rows if name in predicted)
    others = [(name, self_s) for name, self_s, _ in rows if name not in predicted]
    top_other = max(others, key=lambda item: item[1], default=("-", 0.0))
    holds = combined >= top_other[1]
    largest = rows[0][0] if rows else "-"
    return holds, (
        f"largest self-time layer: {largest}; predicted {'+'.join(predicted)} "
        f"({combined:.3f} s) vs next {top_other[0]} ({top_other[1]:.3f} s): "
        + ("prediction holds" if holds else "PREDICTION DIFFERS")
    )
