"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper (or one
ablation of a modelling choice the paper leaves open) and prints the resulting rows/series, so a
``pytest benchmarks/bench_*.py --benchmark-only -s`` run reproduces the
paper's evaluation section (the files are named explicitly: ``bench_*.py``
is not pytest's default ``test_*.py`` pattern, so ``pytest benchmarks/``
collects nothing).  Scale is selected by ``REPRO_SCALE`` (``quick`` by
default; ``paper`` for full-size runs — see the README's Quickstart).

Heavy experiments run exactly once per bench via ``benchmark.pedantic``
(rounds=1): the interesting output is the *result*, the wall-clock time
is a bonus measurement.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro import envgates
from repro.experiments.config import ExperimentScale, current_scale

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_scale",
    "host_metadata",
    "run_once",
    "print_header",
    "add_json_argument",
    "write_bench_json",
]

#: Version of the ``BENCH_<name>.json`` envelope.  Bump whenever an
#: envelope key changes meaning, so trajectory tooling can tell records
#: apart instead of silently comparing incompatible shapes.
#:
#: * 1 — (implicit) bench name, scale, timestamp, payload.
#: * 2 — adds ``schema_version`` and the ``host`` metadata block;
#:   wall-clock numbers are only comparable between records whose hosts
#:   match.
BENCH_SCHEMA_VERSION = 2


def host_metadata() -> dict:
    """The machine identity stamped into every benchmark record.

    Committed ``BENCH_*.json`` records accumulate a perf trajectory
    across PRs; timings from different machines must not be compared as
    a regression signal, so every record says where it was measured.
    """
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
    }

#: Default destination for full-scale benchmark records: the repository
#: root, so every full run leaves a committed-able ``BENCH_<name>.json``
#: behind and successive PRs accumulate a perf trajectory without anyone
#: remembering a flag.
_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default destination (under :data:`_REPO_ROOT`, git-ignored) for
#: reduced-scale (``--quick``/``--smoke``) records: crash checks, not
#: trajectory points, so they never overwrite a committed record.
_REDUCED_DIR = Path(".bench_build") / "bench"


def bench_scale() -> ExperimentScale:
    """The scale benches run at (``REPRO_SCALE``, default quick)."""
    return current_scale(default="quick")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        func, args=args, kwargs=kwargs, rounds=1, iterations=1
    )


def print_header(title: str) -> None:
    """A visible banner above each regenerated artifact."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def add_json_argument(parser) -> None:
    """Install the shared ``--json [DIR]`` option on a bench parser.

    Benches call :func:`write_bench_json` with the parsed value; the
    ``REPRO_BENCH_JSON`` environment variable is the no-flag fallback so
    CI can turn on record emission without touching each invocation.
    """
    parser.add_argument(
        "--json",
        nargs="?",
        const=".",
        default=None,
        metavar="DIR",
        help="write the machine-readable BENCH_<name>.json record to DIR "
        "(default: $REPRO_BENCH_JSON, else the repository root for a "
        "full-scale run, so the perf trajectory accumulates without "
        "flags, and .bench_build/bench/ for a --quick/--smoke run)",
    )


def write_bench_json(
    name: str, payload: dict, directory: "str | None", *, reduced: bool
) -> Path:
    """Write one machine-readable benchmark record.

    ``payload`` carries the bench-specific records (timings, sizes,
    speedups); this helper stamps the shared envelope (bench name,
    scale, unix timestamp) and writes ``BENCH_<name>.json`` into
    ``directory``, falling back to ``$REPRO_BENCH_JSON`` and then, for
    a full-scale run, to the repository root, so the committed
    ``BENCH_*.json`` trajectory tracks regressions across PRs.  A
    ``reduced`` (``--quick``/``--smoke``) run falls back to
    ``.bench_build/bench/`` instead: its numbers must not replace a
    committed full-scale record.  Returns the written path.
    """
    directory = directory if directory is not None else envgates.bench_json_dir()
    if not directory:
        directory = str(_REPO_ROOT / _REDUCED_DIR if reduced else _REPO_ROOT)
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    record = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": name,
        "scale": bench_scale().name,
        "timestamp": time.time(),
        "host": host_metadata(),
        **payload,
    }
    path = target / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return path
