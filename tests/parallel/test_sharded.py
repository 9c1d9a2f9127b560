"""The sharded grid walk: restore, verify, persist and reassemble.

:func:`repro.parallel.run_sharded` is the one checkpointed seed-grid
walk behind the replication harness and the scenario fleet.  Here it
runs a cheap picklable runner — one row per seed, a pure function of
``(entry, seed)`` — over generated grid shapes, worker counts and
partially stored checkpoints, and every shard call the runner serves is
logged to disk (so calls made in pool workers count too).  The suite
also runs under CI's ambient fault plan (``REPRO_FAULT_INJECT``): rows,
saved keys and the parity check must not change under retries.
"""

from __future__ import annotations

import tempfile
import uuid
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel import run_sharded, seed_shards
from repro.resilience.checkpoint import CheckpointParityError, CheckpointStore

WORKERS = st.sampled_from([None, 1, 2, 3, 4])


def _row(entry: int, seed: int) -> tuple:
    return (entry, seed, float(np.random.default_rng((entry, seed)).random()))


def _runner(task) -> list[tuple]:
    """One shard's rows; logs the call under ``log_dir`` when given."""
    entry, seeds, log_dir = task
    if log_dir is not None:
        # Written aside and renamed: a pool torn down after a worker
        # death terminates its other workers mid-task.
        call = Path(log_dir) / uuid.uuid4().hex
        call.write_text(f"{entry} {seeds.start} {seeds.stop}")
        call.rename(call.with_suffix(".call"))
    return [_row(entry, seed) for seed in seeds]


def _key(entry: int, seed: int) -> str:
    return f"e{entry}-s{seed:03d}"


def _encode(entry: int, seed: int, row) -> dict:
    return {"entry": entry, "seed": seed, "value": row[2]}


def _decode(document: dict) -> tuple:
    return (document["entry"], document["seed"], document["value"])


class _RecordingStore(CheckpointStore):
    """A checkpoint store that remembers which keys were saved."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.saved: list[str] = []

    def save(self, key: str, payload: dict) -> None:
        self.saved.append(key)
        super().save(key, payload)


def _walk(entries, n_seeds, workers, store=None, log_dir=None):
    return run_sharded(
        _runner,
        entries,
        n_seeds,
        workers,
        lambda entry, seeds: (entry, seeds, log_dir),
        key=_key,
        encode=_encode,
        decode=_decode,
        label=lambda entry, seeds: f"entry {entry} seeds {seeds.start}..",
        store=store,
    )


def _stored_store(directory: Path, stored) -> _RecordingStore:
    store = _RecordingStore(directory, {"kind": "sharded-walk-test"})
    for entry, seed in stored:
        store.save(_key(entry, seed), _encode(entry, seed, _row(entry, seed)))
    store.saved.clear()
    return store


def _calls(log_dir: Path) -> list[tuple[int, int, int]]:
    calls = [
        tuple(int(part) for part in path.read_text().split())
        for path in log_dir.glob("*.call")
    ]
    for path in log_dir.glob("*.call"):
        path.unlink()
    return sorted(calls)


@st.composite
def grids(draw):
    n_entries = draw(st.integers(1, 3))
    n_seeds = draw(st.integers(1, 7))
    workers = draw(WORKERS)
    other_workers = draw(WORKERS)
    cells = [(e, s) for e in range(n_entries) for s in range(n_seeds)]
    stored = draw(st.sets(st.sampled_from(cells)))
    # Make whole stored shards likely, not only scattered keys.
    for entry in draw(st.sets(st.integers(0, n_entries - 1))):
        shard = draw(st.sampled_from(seed_shards(n_seeds, workers)))
        stored |= {(entry, seed) for seed in shard}
    return n_entries, n_seeds, workers, other_workers, sorted(stored)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(grid=grids())
def test_walk_restores_verifies_and_persists(grid):
    n_entries, n_seeds, workers, other_workers, stored = grid
    entries = list(range(n_entries))
    expected = [[_row(e, s) for s in range(n_seeds)] for e in entries]
    assert _walk(entries, n_seeds, workers) == expected

    shards = seed_shards(n_seeds, workers)
    cells = [(entry, shard) for entry in entries for shard in shards]
    restored = [
        (entry, shard)
        for entry, shard in cells
        if all((entry, seed) in set(stored) for seed in shard)
    ]
    pending = [cell for cell in cells if cell not in restored]

    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        log_dir = scratch / "calls"
        log_dir.mkdir()

        store = _stored_store(scratch / "a", stored)
        assert _walk(entries, n_seeds, workers, store, log_dir) == expected
        # Only pending shards are persisted, each of their keys once.
        assert sorted(store.saved) == sorted(
            _key(entry, seed) for entry, shard in pending for seed in shard
        )
        # Pending shards run; a fully stored shard is decoded, and exactly
        # one of its seeds is recomputed for the parity check.
        runs = [(entry, shard.start, shard.stop) for entry, shard in pending]
        if restored:
            entry, shard = restored[0]
            check = (entry, shard.start, shard.start + 1)
            runs.append(check)
        calls = _calls(log_dir)
        assert set(calls) == set(runs)
        if restored:
            assert calls.count(check) == 1
        if workers is None or workers == 1:
            # In-process, an injected fault fires before the runner, so
            # every shard runs exactly once.  A pool round that loses a
            # worker resubmits every unfinished task, including ones the
            # runner already served.
            assert calls == sorted(runs)

        # A resume at another worker count returns the same rows.
        resumed = _stored_store(scratch / "b", stored)
        assert _walk(entries, n_seeds, other_workers, resumed) == expected

        if restored:
            # A tampered first restored cell refuses the resume.
            entry, shard = restored[0]
            tampered = _stored_store(scratch / "c", stored)
            document = _encode(entry, shard.start, _row(entry, shard.start))
            document["value"] += 1.0
            tampered.save(_key(entry, shard.start), document)
            tampered.saved.clear()
            with pytest.raises(CheckpointParityError):
                _walk(entries, n_seeds, workers, tampered, log_dir)
            assert tampered.saved == []
