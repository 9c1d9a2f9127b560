"""The single registry of ``REPRO_*`` environment gates.

Every behavior knob this repository reads from the environment is
declared here, and every *read* goes through the typed accessors below
(the ``RL005`` lint invariant, :mod:`repro.lint`).  Before this module
existed the six gates were parsed at ~37 scattered ``os.environ`` call
sites, which made two failure modes silent: a typo'd variable
(``REPRO_COMPILD=0``) was simply ignored, and the accepted value
grammar ("is ``off`` falsy?") drifted between sites.

Gates
-----

========================  ======  =============================================
variable                  type    meaning
========================  ======  =============================================
``REPRO_COMPILED``        flag    compiled C kernel tier; ``0/false/off/no``
                                  disables it (default: enabled).  Read live —
                                  the supervisor flips it per task attempt to
                                  degrade a crashing shard to the numpy
                                  engines.
``REPRO_COMPILED_CACHE``  path    override directory for the on-demand kernel
                                  build cache (default: the package ``_build``
                                  directory, then a tempdir).
``REPRO_SCALE``           choice  experiment scale preset (``quick``/
                                  ``paper``); validated by
                                  :func:`repro.experiments.config.current_scale`.
``REPRO_FAULT_INJECT``    spec    deterministic fault plan, e.g.
                                  ``kill@0,poison@2:1`` (grammar in
                                  :mod:`repro.resilience.faults`).
``REPRO_BENCH_JSON``      path    dev harness: directory for the benchmark
                                  ``BENCH_<name>.json`` records.
``REPRO_EXAMPLES_SMOKE``  flag    dev harness: ``1`` shrinks every example's
                                  effort knobs for the CI smoke job.
========================  ======  =============================================

The first four are runtime gates read by ``src/repro``; the last two
belong to the benchmark/examples harness but are registered so the
unknown-variable check below recognizes them.  The parallel runtime has
no gate: it is the only fan-out path, and its broadcast threshold is the
``ParallelRuntime(shm_min_bytes=...)`` argument, so a retired runtime
variable left in an environment trips the unknown-variable warning.

Unknown variables
-----------------

Any ``REPRO_*`` variable present in the environment but absent from the
registry triggers a **one-time** :class:`RuntimeWarning` naming the
nearest known gate — a typo'd gate is now loud instead of a silent
no-op.  The check runs on the first accessor call per process (and can
be re-armed with :func:`reset_unknown_check`, which tests use).

Writes are deliberately out of scope: the only writers are the
supervisor's degradation/snapshot machinery and tests, both of which
must manipulate raw process environment for child processes to inherit.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass

__all__ = [
    "Gate",
    "GATES",
    "bench_json_dir",
    "check_environment",
    "compiled_cache_override",
    "compiled_enabled",
    "examples_smoke",
    "fault_spec",
    "raw",
    "reset_unknown_check",
    "scale_name",
]

#: Values that turn a flag gate off (everything else, including unset,
#: leaves it on).  One grammar for every flag — the drift this module
#: exists to prevent.
_FALSY = frozenset({"0", "false", "off", "no"})


@dataclass(frozen=True)
class Gate:
    """One registered environment gate."""

    name: str
    kind: str  # "flag" | "path" | "choice" | "spec"
    default: "str | None"
    description: str


GATES: "dict[str, Gate]" = {
    gate.name: gate
    for gate in (
        Gate(
            "REPRO_COMPILED",
            "flag",
            "1",
            "compiled C kernel engine tier (0/false/off/no disables)",
        ),
        Gate(
            "REPRO_COMPILED_CACHE",
            "path",
            None,
            "override directory for the kernel build cache",
        ),
        Gate(
            "REPRO_SCALE",
            "choice",
            None,
            "experiment scale preset (quick/paper)",
        ),
        Gate(
            "REPRO_FAULT_INJECT",
            "spec",
            None,
            "deterministic fault-injection plan (kind@index[:param],...)",
        ),
        Gate(
            "REPRO_BENCH_JSON",
            "path",
            None,
            "directory for benchmark BENCH_<name>.json records",
        ),
        Gate(
            "REPRO_EXAMPLES_SMOKE",
            "flag",
            None,
            "set to 1 to run examples at CI smoke scale",
        ),
    )
}

_checked = False


def check_environment(*, force: bool = False) -> "list[str]":
    """Warn once about ``REPRO_*`` variables no gate declares.

    Returns the unknown names (mostly for tests); the warning itself
    fires at most once per process unless ``force`` re-runs the scan.
    """
    global _checked
    if _checked and not force:
        return []
    _checked = True
    unknown = sorted(
        name
        for name in os.environ
        if name.startswith("REPRO_") and name not in GATES
    )
    if unknown:
        import warnings

        hints = []
        for name in unknown:
            close = difflib.get_close_matches(name, GATES, n=1)
            hint = f" (did you mean {close[0]}?)" if close else ""
            hints.append(f"{name}{hint}")
        warnings.warn(
            "unknown REPRO_* environment variable(s): "
            + ", ".join(hints)
            + "; known gates: "
            + ", ".join(sorted(GATES))
            + " — unknown variables are ignored",
            RuntimeWarning,
            stacklevel=3,
        )
    return unknown


def reset_unknown_check() -> None:
    """Re-arm the one-time unknown-variable warning (test helper)."""
    global _checked
    _checked = False


def raw(name: str) -> "str | None":
    """The raw environment value of a *registered* gate (or ``None``).

    The escape hatch for code that must ship or restore exact values —
    the supervisor's env snapshot, error messages quoting the setting.
    Unregistered names raise ``KeyError``: if a new gate is needed,
    declare it in :data:`GATES` first.
    """
    if name not in GATES:
        raise KeyError(
            f"{name!r} is not a registered REPRO_* gate; known: "
            + ", ".join(sorted(GATES))
        )
    check_environment()
    return os.environ.get(name)


def _flag(name: str) -> bool:
    check_environment()
    value = os.environ.get(name, "").strip().lower()
    return value not in _FALSY


def compiled_enabled() -> bool:
    """Live read of ``REPRO_COMPILED`` (default: enabled)."""
    return _flag("REPRO_COMPILED")


def compiled_cache_override() -> "str | None":
    """``REPRO_COMPILED_CACHE``, or ``None`` for the default cache dirs."""
    check_environment()
    return os.environ.get("REPRO_COMPILED_CACHE") or None


def scale_name(default: str) -> str:
    """``REPRO_SCALE`` normalized to lowercase, falling back to ``default``.

    Validation against the known presets stays with the consumer
    (:func:`repro.experiments.config.current_scale`), which owns the
    preset table.
    """
    check_environment()
    return os.environ.get("REPRO_SCALE", default).strip().lower()


def fault_spec() -> str:
    """The raw ``REPRO_FAULT_INJECT`` plan spec (stripped; may be empty)."""
    check_environment()
    return os.environ.get("REPRO_FAULT_INJECT", "").strip()


def bench_json_dir() -> "str | None":
    """``REPRO_BENCH_JSON``: where benchmark JSON records land."""
    check_environment()
    return os.environ.get("REPRO_BENCH_JSON") or None


def examples_smoke() -> bool:
    """Whether the examples should run at CI smoke scale."""
    check_environment()
    return os.environ.get("REPRO_EXAMPLES_SMOKE") == "1"
