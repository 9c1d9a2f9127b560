"""Where the benchmark harness writes its ``BENCH_<name>.json`` records.

A full-scale run without ``--json`` writes the committed record at the
repository root; a reduced (``--quick``/``--smoke``) run must leave it
alone and write under ``.bench_build/bench/`` instead.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

COMMON = Path(__file__).resolve().parents[1] / "benchmarks" / "_common.py"


@pytest.fixture()
def common(tmp_path, monkeypatch):
    """``benchmarks/_common.py`` with its repository root at ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("bench_common", COMMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_REPO_ROOT", tmp_path)
    monkeypatch.delenv("REPRO_BENCH_JSON", raising=False)
    monkeypatch.setenv("REPRO_SCALE", "quick")
    return module


def test_reduced_run_leaves_the_root_record_alone(common, tmp_path):
    path = common.write_bench_json("probe", {"value": 1}, None, reduced=True)
    assert not (tmp_path / "BENCH_probe.json").exists()
    assert path == tmp_path / ".bench_build" / "bench" / "BENCH_probe.json"
    record = json.loads(path.read_text())
    assert (record["bench"], record["scale"], record["value"]) == (
        "probe", "quick", 1,
    )


def test_full_run_writes_the_root_record(common, tmp_path):
    path = common.write_bench_json("probe", {}, None, reduced=False)
    assert path == tmp_path / "BENCH_probe.json"
    assert path.exists()


@pytest.mark.parametrize("reduced", (True, False))
def test_explicit_directory_wins(common, tmp_path, reduced):
    target = tmp_path / "artifacts"
    path = common.write_bench_json("probe", {}, str(target), reduced=reduced)
    assert path == target / "BENCH_probe.json"
    assert not (tmp_path / "BENCH_probe.json").exists()
