"""End-to-end job benchmark: real jobs, verified outputs, per-layer spans.

Run from the repository root::

    python3 perfbench/run.py --workload reproduce-quick --seed 1 --seconds 10 --trace 0

Load shape: a closed loop in one process.  One job runs at a time and
the next starts when the previous one returns; only ``scenario-fleet``
adds pool workers (one per CPU); the others are pinned to one CPU.
Compiled-kernel threads are pinned to one.  The first job of a process is untimed warm-up.

``--trace 0`` times jobs with tracing off and reports the end-to-end
metrics.  Times are scaled to a fixed host speed measured on the job's
own CPUs while it runs (see ``speed.py``); wall times are recorded too.  ``--trace 1`` alternates untraced and traced jobs and reports
the per-layer metrics (see ``tracer.py``); spans go to
``.bench_build/perfbench/<workload>.spans.jsonl``.  Either way every
job's result rows are verified (see ``verify.py``), jobs must agree
with each other byte for byte, and the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
KERNEL_THREADS = 1

# Fixed before numpy or the kernels load: thread counts change timings.
os.environ["OMP_NUM_THREADS"] = str(KERNEL_THREADS)
os.environ["OPENBLAS_NUM_THREADS"] = str(KERNEL_THREADS)
os.environ["MKL_NUM_THREADS"] = str(KERNEL_THREADS)
os.environ["REPRO_COMPILED_CACHE"] = str(ROOT / ".bench_build" / "repro-kernels")
sys.path.insert(0, str(HERE))

import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

#: Default workload seed, and a seed held out for checking later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20090629
SETUP_PROBES = 5
MIN_TIMED_JOBS = 3


def import_repro():
    """Import the checkout's ``repro`` (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    from repro.core.engine import compiled

    if compiled.is_available():
        compiled.set_num_threads(KERNEL_THREADS)
    return repro


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def _hwm_kb(pid) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _worker_pids() -> set[int]:
    from repro.parallel import get_runtime

    return get_runtime().worker_pids()


def reset_peak_rss() -> None:
    """Restart the peak-RSS counters of this process and its pool workers."""
    for pid in ["self", *_worker_pids()]:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            pass


def peak_rss_mb() -> float:
    """Peak resident memory since the last reset, pool workers included."""
    total = 0
    for pid in ["self", *_worker_pids()]:
        try:
            total += _hwm_kb(pid)
        except OSError:
            pass
    return total / 1024.0


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------


@dataclass
class Job:
    began: float
    ended: float
    rss_mb: float
    rows: list = field(default_factory=list)
    fingerprint: str = ""
    error: str = ""
    tracer: object = None
    extra: dict = field(default_factory=dict)
    #: Host slowdown during the job (set once the samplers have stopped).
    slowdown: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.ended - self.began

    @property
    def scaled_s(self) -> float:
        return self.seconds / self.slowdown


def run_job(workload, capture, *, tracer=None, in_process=False) -> Job:
    """One whole job, timed; traced when ``tracer`` is given."""
    from repro.parallel import get_runtime

    capture.records.clear()
    reset_peak_rss()
    stats_before = dict(vars(get_runtime().stats))
    if tracer is not None:
        for name, sites in tracer.install().items():
            if not sites:
                print(f"[{workload.name}] no entry point left to trace for {name}",
                      file=sys.stderr)
        root = tracer.open("experiments")
    began = time.perf_counter()
    try:
        output, error = workload.run(in_process=in_process), ""
    except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
        output, error = None, traceback.format_exc()
    ended = time.perf_counter()
    if tracer is not None:
        tracer.close(root)
        tracer.restore()
    job = Job(began=began, ended=ended, rss_mb=peak_rss_mb(), error=error, tracer=tracer)
    job.extra["runtime"] = {
        key: value - stats_before.get(key, 0)
        for key, value in vars(get_runtime().stats).items()
    }
    if output is not None:
        job.extra["supervision"] = workload.supervision(output)
        try:
            job.rows = workload.rows(output, capture.records)
            job.fingerprint = workload.fingerprint(output, job.rows)
        except Exception:  # noqa: BLE001 - inconsistent output is a failure
            job.error = traceback.format_exc()
    if job.error:
        print(f"[{workload.name}] job failed:\n{job.error}", file=sys.stderr)
    return job


def setup_probe_window(workload_name: str, seed: int) -> tuple[float, float]:
    """Fresh interpreter to ready, timed from outside the child."""
    began = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        ended = time.perf_counter()
    finally:
        child.stdin.close()
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {child.returncode}): {line!r}")
    return began, ended


def pin_job_cpus(workload, allowed: set[int]) -> set[int]:
    """The CPUs the jobs run on: every CPU for the pool, else the first.

    A serial job is pinned so that it shares its CPU with one speed
    sampler and no other.
    """
    if workload.pooled:
        return allowed
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return {cpu}


def stop_workers() -> None:
    """Shut the warm pool down and wait for every child to end."""
    from repro.parallel import shutdown_runtime

    shutdown_runtime()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def setup_probe(workload_name: str, seed: int) -> int:
    from workloads import WORKLOADS

    import_repro()
    workload = WORKLOADS[workload_name]()
    workload.prepare(seed)
    workload.start_workers()
    print("ready", flush=True)
    sys.stdin.read()
    stop_workers()
    return 0


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def run_context(workload, allowed, cpus) -> dict:
    from repro.core.engine import compiled
    from repro.core.engine.dispatch import resolve_engine
    import numpy

    available = compiled.is_available()
    return {
        "nproc": len(allowed),
        "kernel_threads": KERNEL_THREADS,
        "compiled_available": available,
        "compiled_openmp": compiled.has_openmp() if available else False,
        "compiled_build_error": compiled.build_error(),
        "engine_auto": resolve_engine(workload.problem, "auto"),
        "pool_workers": getattr(workload, "workers", 0),
        "job_cpus": sorted(cpus),
        "speed_parts": list(workload.speed_parts),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(jobs, setup_samples) -> dict:
    return {
        "job_s": metric(statistics.median(j.scaled_s for j in jobs), "s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(statistics.median(j.rss_mb for j in jobs), "MB"),
    }


def result_quality(rows) -> dict:
    """Mean reported giant size and coverage over a job's result rows.

    Exact for a seed, but they move by 5-30% from seed to seed (search
    outcomes), so they are reported and recorded rather than gated.
    """
    return {
        "giant_mean": metric(statistics.fmean(r.giant for r in rows), "routers"),
        "covered_mean": metric(statistics.fmean(r.covered for r in rows), "clients"),
    }


def tally(jobs, reference, row_failures: list[str]) -> tuple[int, int]:
    """``(attempted, failed)``, one operation per result row.

    The first job that returned is the reference: its rows are the ones
    re-measured.  Every other job must reproduce its fingerprint; a job
    that raised, or whose output differs, fails all of its rows.
    """
    per_job = max(1, len(reference.rows))
    failed = 0
    for job in jobs:
        if job.error or job.fingerprint != reference.fingerprint:
            failed += per_job
        else:
            failed += len(row_failures)
    return per_job * len(jobs), failed


def run_benchmark(workload, args) -> dict:
    from layers import check_prediction, layer_metrics, rollup
    from speed import HostSpeed
    from tracer import Tracer
    from verify import verify_rows
    from workloads import OMITTED, Capture

    origin = time.perf_counter()
    allowed = os.sched_getaffinity(0)
    cpus = pin_job_cpus(workload, allowed)
    with HostSpeed(cpus, workload.speed_parts) as speed:
        setup_windows = []
        if not args.trace:
            setup_windows = [
                setup_probe_window(workload.name, args.seed) for _ in range(SETUP_PROBES)
            ]
        setup_tracer = Tracer(f"{workload.name}-setup") if args.trace else None
        if setup_tracer is not None:
            setup_tracer.install()
            frame = setup_tracer.open("setup")
        try:
            workload.prepare(args.seed)
        finally:
            if setup_tracer is not None:
                setup_tracer.close(frame)
                setup_tracer.restore()
        workload.start_workers()
        context = run_context(workload, allowed, cpus)
        print("context: " + json.dumps(context, sort_keys=True))

        capture = Capture()
        capture.install(workload.capture)
        timed, traced, in_process = [], [], []
        try:
            warmup = run_job(workload, capture)
            started = time.perf_counter()
            if args.trace:
                while not traced or time.perf_counter() - started < args.seconds:
                    timed.append(run_job(workload, capture))
                    run_id = f"{workload.name}-seed{args.seed}-job{len(traced)}"
                    traced.append(run_job(workload, capture, tracer=Tracer(run_id)))
                if workload.pooled:
                    # Layers inside pool workers are traced on the same job
                    # run in-process; the pooled jobs give the parent side.
                    run_id = f"{workload.name}-seed{args.seed}-inprocess"
                    in_process.append(
                        run_job(workload, capture, tracer=Tracer(run_id), in_process=True)
                    )
            else:
                while len(timed) < MIN_TIMED_JOBS or time.perf_counter() - started < args.seconds:
                    timed.append(run_job(workload, capture))
        finally:
            capture.restore()

    jobs = [warmup, *timed, *traced, *in_process]
    for job in jobs:
        job.slowdown = speed.slowdown(job.began, job.ended)
    setup_wall = [ended - began for began, ended in setup_windows]
    setup_samples = [
        (ended - began) / speed.slowdown(began, ended) for began, ended in setup_windows
    ]
    reference = next((job for job in jobs if not job.error), None)
    if reference is None:
        raise SystemExit(f"perfbench: every {workload.name} job failed")
    row_failures = verify_rows(reference.rows)
    for message in row_failures:
        print(f"[{workload.name}] verification failed: {message}", file=sys.stderr)
    attempted, failed = tally(jobs, reference, row_failures)
    ok = [job for job in timed if not job.error] or [reference]

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "omitted_workloads": OMITTED,
        "setup_s": setup_samples,
        "setup_wall_s": setup_wall,
        "jobs": {
            "warmup_s": warmup.seconds,
            "timed_s": [job.scaled_s for job in timed],
            "timed_wall_s": [job.seconds for job in timed],
            "timed_slowdown": [job.slowdown for job in timed],
            "traced_s": [job.scaled_s for job in traced],
            "traced_wall_s": [job.seconds for job in traced],
            "in_process_traced_s": [job.seconds for job in in_process],
        },
        "rows_per_job": len(reference.rows),
        "fingerprint": reference.fingerprint,
        "error_rate": failed / attempted,
    }
    quality = result_quality(reference.rows)
    record["quality"] = quality
    if args.trace:
        layer_jobs = in_process or traced
        metrics = layer_metrics(traced, in_process, timed, setup_tracer, context, quality)
        table = rollup(layer_jobs)
        holds, verdict = check_prediction(table, workload.predicted_top)
        record.update(rollup=table, prediction_holds=holds, prediction=verdict)
        print(f"rollup ({workload.name}, self time per traced job):")
        for name, self_s, share in table:
            print(f"  {name:28s} {self_s:9.4f} s  {100 * share:6.2f}% of job_s")
        print(verdict)
        print(f"trace.overhead: {metrics['trace.overhead']['value']:+.4f}")
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"{workload.name}.spans.jsonl", "w") as handle:
            for job in [None, *traced, *in_process]:
                (job.tracer if job else setup_tracer).write_jsonl(handle, origin)
    else:
        metrics = end_to_end_metrics(ok, setup_samples)
        print(f"{'metric':14s} {'value':>14s}  unit   ({workload.name}, seed {args.seed})")
        wall = {
            "job_wall_s": metric(statistics.median(j.seconds for j in ok), "s"),
            "setup_wall_s": metric(statistics.median(setup_wall), "s"),
            "host_slowdown": metric(statistics.median(j.slowdown for j in ok), "ratio"),
        }
        for name, entry in {**metrics, **wall, **quality}.items():
            print(f"{name:14s} {entry['value']:14.4f}  {entry['unit']}")
        print(f"{'error_rate':14s} {failed / attempted:14.4f}  ratio  "
              f"({failed} failed of {attempted} rows)")
    record["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import_repro()
    try:
        result = run_benchmark(WORKLOADS[args.workload](), args)
    finally:
        stop_workers()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
