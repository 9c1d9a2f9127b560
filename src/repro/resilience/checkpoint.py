"""Atomic JSON checkpoints with seed-provenance manifests.

Long grid runs — a scenario fleet, a many-seed replication, a long
scenario walk — should survive interruption.  Because every cell of
those grids is deterministic given its seeds (the :mod:`repro.parallel`
contract), a checkpoint does not need to freeze any in-flight state:
persisting each *completed* cell is enough, and a resumed run simply
recomputes the missing ones and must land bit-identically on the same
totals.

The format follows :mod:`repro.instances.serializer` conventions: plain
JSON, a ``format`` tag per document, explicit fields, no pickling.  A
:class:`CheckpointStore` is a directory of one JSON file per completed
cell plus a ``manifest.json`` recording the run's identity — root seed
entropy, grid axes, budgets — so resuming under a *different*
configuration is a loud :class:`CheckpointError`, never silent reuse.

Resume is verified, not trusted: the harnesses re-run one checkpointed
cell and compare it field-for-field (volatile wall-clock ``seconds``
excluded) against the stored document — :exc:`CheckpointParityError` on
any divergence, which catches stale directories, code drift and
corrupted files.  Writes are atomic (temp file + ``os.replace``), so a
run killed mid-write never leaves a truncated cell behind.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

# NOTE: every repro import is deferred into the conversion functions.
# The harness layers (solvers, scenario) sit above repro.parallel, which
# imports the supervisor from this package; importing them at module
# scope would close an import cycle.

__all__ = [
    "CheckpointError",
    "CheckpointParityError",
    "CheckpointStore",
    "RestoredStep",
    "entropy_payload",
    "open_store",
    "solve_result_to_dict",
    "solve_result_from_dict",
    "scenario_result_to_dict",
    "scenario_result_from_dict",
    "stable_scenario_dict",
]

_MANIFEST_FORMAT = "repro.checkpoint.v1"
_SOLVE_FORMAT = "repro.solve_result.v1"
_SCENARIO_FORMAT = "repro.scenario_result.v1"

_MANIFEST_NAME = "manifest.json"
_KEY_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class CheckpointError(RuntimeError):
    """A checkpoint directory cannot be used (missing, foreign, stale)."""


class CheckpointParityError(CheckpointError):
    """A re-verified cell no longer matches its stored document."""


def _normalize(payload: dict) -> dict:
    """JSON-roundtrip a manifest so comparisons see what disk sees."""
    return json.loads(json.dumps(payload, sort_keys=True))


def _write_json_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, path)


def entropy_payload(entropy):
    """A ``SeedSequence.entropy`` value in its JSON form (tuples→lists)."""
    if isinstance(entropy, tuple):
        return list(entropy)
    return entropy


def open_store(
    manifest: dict,
    checkpoint=None,
    resume_from=None,
) -> "CheckpointStore | None":
    """The harnesses' shared ``checkpoint=`` / ``resume_from=`` semantics.

    ``checkpoint`` names a directory to persist completed cells into
    (created, or transparently continued when its manifest matches);
    ``resume_from`` additionally *requires* an existing checkpoint —
    resuming from nothing is an error, not a silent cold start.  Both
    together must name the same directory.  ``None``/``None`` disables
    checkpointing (returns ``None``).
    """
    if checkpoint is None and resume_from is None:
        return None
    if (
        checkpoint is not None
        and resume_from is not None
        and Path(checkpoint).resolve() != Path(resume_from).resolve()
    ):
        raise ValueError(
            "checkpoint and resume_from must name the same directory when "
            f"both are given, got {checkpoint!r} and {resume_from!r}"
        )
    directory = resume_from if resume_from is not None else checkpoint
    return CheckpointStore(
        directory, manifest, require_existing=resume_from is not None
    )


class CheckpointStore:
    """One run's checkpoint directory: a manifest plus per-cell files.

    Opening semantics:

    * directory without a manifest — a fresh store; ``manifest`` is
      written (atomically) and the directory created as needed.
    * directory with a manifest — a resume; the stored manifest must
      equal the given one (after JSON normalization) or the open fails
      with :class:`CheckpointError` naming the differing fields.
    * ``require_existing=True`` — refuse to create: resuming from a
      path that holds no checkpoint is an error, not a silent cold run.
    """

    def __init__(
        self,
        directory: "str | Path",
        manifest: dict,
        *,
        require_existing: bool = False,
    ) -> None:
        if "format" in manifest and manifest["format"] != _MANIFEST_FORMAT:
            raise ValueError(
                f"manifest format must be {_MANIFEST_FORMAT}, got "
                f"{manifest['format']!r}"
            )
        manifest = _normalize({**manifest, "format": _MANIFEST_FORMAT})
        self.directory = Path(directory)
        manifest_path = self.directory / _MANIFEST_NAME
        if manifest_path.exists():
            stored = json.loads(manifest_path.read_text())
            if stored.get("format") != _MANIFEST_FORMAT:
                raise CheckpointError(
                    f"{manifest_path} is not a {_MANIFEST_FORMAT} manifest "
                    f"(format={stored.get('format')!r})"
                )
            if stored != manifest:
                differing = sorted(
                    key
                    for key in set(stored) | set(manifest)
                    if stored.get(key) != manifest.get(key)
                )
                raise CheckpointError(
                    f"checkpoint at {self.directory} was written by a "
                    "different run configuration (differing fields: "
                    f"{', '.join(differing)}); point checkpointing at a "
                    "fresh directory or rerun with the original settings"
                )
            self.resumed = True
        else:
            if require_existing:
                raise CheckpointError(
                    f"nothing to resume: {manifest_path} does not exist"
                )
            self.directory.mkdir(parents=True, exist_ok=True)
            _write_json_atomic(manifest_path, manifest)
            self.resumed = False
        self.manifest = manifest

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------

    def _path(self, key: str) -> Path:
        if not _KEY_PATTERN.match(key):
            raise ValueError(
                f"checkpoint key {key!r} must match {_KEY_PATTERN.pattern}"
            )
        return self.directory / f"{key}.json"

    def has(self, key: str) -> bool:
        """Whether a completed cell is stored under ``key``."""
        return self._path(key).exists()

    def save(self, key: str, payload: dict) -> None:
        """Atomically persist one completed cell."""
        _write_json_atomic(self._path(key), payload)

    def load(self, key: str) -> dict:
        """The stored cell document; :class:`CheckpointError` if absent."""
        path = self._path(key)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            raise CheckpointError(f"no checkpointed cell at {path}") from None
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint cell {path}: {exc}")

    def keys(self) -> list[str]:
        """Stored cell keys, sorted (manifest excluded)."""
        return sorted(
            path.stem
            for path in self.directory.glob("*.json")
            if path.name != _MANIFEST_NAME and not path.name.startswith(".")
        )

    def verify_cell(self, key: str, fresh_payload: dict) -> None:
        """Assert a recomputed cell matches its stored document.

        The resume-parity gate: volatile wall-clock fields are excluded
        (scenario step ``seconds``), everything else must be equal
        field-for-field.  JSON float round-trips are exact, so this is a
        bit-identity check on the stable fields.
        """
        stored = self.load(key)
        if _stable(stored) != _stable(_normalize(fresh_payload)):
            raise CheckpointParityError(
                f"re-verified cell {key!r} in {self.directory} does not "
                "match its checkpoint: the store was written by different "
                "code, seeds or data — refusing to resume from it"
            )

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({str(self.directory)!r}, "
            f"cells={len(self.keys())}, resumed={self.resumed})"
        )


#: Wall-clock fields: legitimately different between executions of
#: identical work, so the resume-parity comparisons must ignore them.
_VOLATILE_KEYS = frozenset({"seconds", "elapsed_seconds"})


def _stable(payload):
    """A copy with volatile wall-clock fields removed."""
    if isinstance(payload, dict):
        return {
            key: _stable(value)
            for key, value in payload.items()
            if key not in _VOLATILE_KEYS
        }
    if isinstance(payload, list):
        return [_stable(value) for value in payload]
    return payload


def stable_scenario_dict(payload: dict) -> dict:
    """The comparison form of a scenario document (``seconds`` stripped).

    What the resume-parity assertion and the interrupted-vs-uninterrupted
    tests compare: every result field except wall-clock timings, which
    legitimately differ between executions of identical work.
    """
    return _stable(payload)


# ----------------------------------------------------------------------
# SolveResult documents
# ----------------------------------------------------------------------


def solve_result_to_dict(result: SolveResult) -> dict:
    """Explicit JSON-ready form of one solve outcome.

    Captures everything the reporting layers read — best placement,
    metric bundle, fitness, effort counts — and deliberately drops the
    family trace and the engine cache: the trace is a debugging artifact
    and the cache is a performance hint that any consumer treats as
    optional (results are unaffected without it).
    """
    from repro.instances.serializer import placement_to_dict

    best = result.best
    metrics = best.metrics
    return {
        "format": _SOLVE_FORMAT,
        "solver": result.solver,
        "n_evaluations": int(result.n_evaluations),
        "n_phases": int(result.n_phases),
        "warm_started": bool(result.warm_started),
        "stopped_by": result.stopped_by,
        "elapsed_seconds": float(result.elapsed_seconds),
        "fitness": float(best.fitness),
        "placement": placement_to_dict(best.placement),
        "metrics": {
            "giant_size": int(metrics.giant_size),
            "n_routers": int(metrics.n_routers),
            "covered_clients": int(metrics.covered_clients),
            "n_clients": int(metrics.n_clients),
            "n_components": int(metrics.n_components),
            "n_links": int(metrics.n_links),
            "mean_degree": float(metrics.mean_degree),
        },
        "giant_mask": [
            int(flag) for flag in np.asarray(best.giant_mask, dtype=bool)
        ],
    }


def solve_result_from_dict(payload: dict) -> SolveResult:
    """Inverse of :func:`solve_result_to_dict` (validates the tag)."""
    from repro.core.evaluation import Evaluation
    from repro.core.fitness import NetworkMetrics
    from repro.instances.serializer import placement_from_dict
    from repro.solvers.base import SolveResult

    if payload.get("format") != _SOLVE_FORMAT:
        raise CheckpointError(
            f"not a {_SOLVE_FORMAT} document: format={payload.get('format')!r}"
        )
    metrics = NetworkMetrics(
        giant_size=int(payload["metrics"]["giant_size"]),
        n_routers=int(payload["metrics"]["n_routers"]),
        covered_clients=int(payload["metrics"]["covered_clients"]),
        n_clients=int(payload["metrics"]["n_clients"]),
        n_components=int(payload["metrics"]["n_components"]),
        n_links=int(payload["metrics"]["n_links"]),
        mean_degree=float(payload["metrics"]["mean_degree"]),
    )
    best = Evaluation(
        placement=placement_from_dict(payload["placement"]),
        metrics=metrics,
        fitness=float(payload["fitness"]),
        giant_mask=np.asarray(payload["giant_mask"], dtype=bool),
    )
    return SolveResult(
        solver=payload["solver"],
        best=best,
        n_evaluations=int(payload["n_evaluations"]),
        n_phases=int(payload["n_phases"]),
        warm_started=bool(payload["warm_started"]),
        # Absent in pre-deadline documents — restore as "ran to budget".
        stopped_by=payload.get("stopped_by"),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
    )


# ----------------------------------------------------------------------
# ScenarioResult documents
# ----------------------------------------------------------------------


class RestoredStep:
    """A checkpoint-restored stand-in for a ``ScenarioStep``.

    Carries exactly what the reporting layers read off a step — its
    ``index`` and ``event`` — without the problem instance, which a
    completed step's consumers never touch again.
    """

    __slots__ = ("index", "event")

    def __init__(self, index: int, event: str) -> None:
        self.index = index
        self.event = event

    def __repr__(self) -> str:
        return f"RestoredStep(index={self.index}, event={self.event!r})"


def _seed_payload(seed):
    if isinstance(seed, tuple):
        return list(seed)
    return seed


def _seed_restore(payload):
    if isinstance(payload, list):
        return tuple(payload)
    return payload


def scenario_result_to_dict(result: ScenarioResult) -> dict:
    """JSON-ready form of one scenario run, seed provenance included."""
    return {
        "format": _SCENARIO_FORMAT,
        "scenario": result.scenario_name,
        "solver": result.solver_name,
        "warm": bool(result.warm),
        "seed": _seed_payload(result.seed),
        "steps": [
            {
                "index": int(step.index),
                "event": step.event,
                "seconds": float(step.seconds),
                "result": solve_result_to_dict(step.result),
            }
            for step in result.steps
        ],
    }


def scenario_result_from_dict(payload: dict) -> ScenarioResult:
    """Inverse of :func:`scenario_result_to_dict`.

    Restored steps carry :class:`RestoredStep` stand-ins (index + event)
    instead of full problem instances; every aggregation the fleet and
    timeline layers perform reads only those fields.
    """
    from repro.scenario.runner import ScenarioResult, ScenarioStepResult

    if payload.get("format") != _SCENARIO_FORMAT:
        raise CheckpointError(
            f"not a {_SCENARIO_FORMAT} document: "
            f"format={payload.get('format')!r}"
        )
    steps = tuple(
        ScenarioStepResult(
            step=RestoredStep(int(item["index"]), item["event"]),
            result=solve_result_from_dict(item["result"]),
            seconds=float(item["seconds"]),
        )
        for item in payload["steps"]
    )
    return ScenarioResult(
        scenario_name=payload["scenario"],
        solver_name=payload["solver"],
        warm=bool(payload["warm"]),
        steps=steps,
        seed=_seed_restore(payload["seed"]),
    )
