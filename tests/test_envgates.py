"""The env-gate registry: typed accessors and the unknown-variable check."""

from __future__ import annotations

import warnings

import pytest

from repro import envgates


@pytest.fixture(autouse=True)
def rearmed_check():
    """Each test sees a fresh one-time unknown-variable check."""
    envgates.reset_unknown_check()
    yield
    envgates.reset_unknown_check()


class TestRegistry:
    def test_all_gates_registered(self):
        assert sorted(envgates.GATES) == [
            "REPRO_BENCH_JSON",
            "REPRO_COMPILED",
            "REPRO_COMPILED_CACHE",
            "REPRO_EXAMPLES_SMOKE",
            "REPRO_FAULT_INJECT",
            "REPRO_SCALE",
        ]

    def test_every_gate_documented(self):
        for gate in envgates.GATES.values():
            assert gate.kind in {"flag", "path", "choice", "spec"}
            assert gate.description

    def test_raw_rejects_unregistered_names(self):
        with pytest.raises(KeyError, match="REPRO_NOT_A_GATE"):
            envgates.raw("REPRO_NOT_A_GATE")

    def test_raw_returns_exact_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "  weird ")
        assert envgates.raw("REPRO_COMPILED") == "  weird "


class TestFlagGates:
    @pytest.mark.parametrize("value", ["0", "false", "off", "no", "OFF", "No"])
    def test_falsy_spellings_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_COMPILED", value)
        assert envgates.compiled_enabled() is False

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", "anything"])
    def test_everything_else_enables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_COMPILED", value)
        assert envgates.compiled_enabled() is True

    def test_unset_defaults_to_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILED", raising=False)
        assert envgates.compiled_enabled() is True

    def test_reads_are_live(self, monkeypatch):
        # The supervisor flips the gate per task attempt; a cached
        # read would pin every retry to the first value seen.
        monkeypatch.setenv("REPRO_COMPILED", "1")
        assert envgates.compiled_enabled() is True
        monkeypatch.setenv("REPRO_COMPILED", "0")
        assert envgates.compiled_enabled() is False

    def test_examples_smoke_requires_exactly_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXAMPLES_SMOKE", "1")
        assert envgates.examples_smoke() is True
        monkeypatch.setenv("REPRO_EXAMPLES_SMOKE", "yes")
        assert envgates.examples_smoke() is False


class TestTypedAccessors:
    def test_scale_name_normalizes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "  PAPER ")
        assert envgates.scale_name("quick") == "paper"
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert envgates.scale_name("quick") == "quick"

    def test_fault_spec_strips(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", " kill@0 ")
        assert envgates.fault_spec() == "kill@0"
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        assert envgates.fault_spec() == ""

    def test_path_gates_treat_empty_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_CACHE", "")
        assert envgates.compiled_cache_override() is None
        monkeypatch.setenv("REPRO_COMPILED_CACHE", "/tmp/cache")
        assert envgates.compiled_cache_override() == "/tmp/cache"
        monkeypatch.setenv("REPRO_BENCH_JSON", "")
        assert envgates.bench_json_dir() is None


class TestUnknownVariableCheck:
    def test_typo_warns_once_with_hint(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILD", "0")
        with pytest.warns(RuntimeWarning, match="REPRO_COMPILD"):
            unknown = envgates.check_environment(force=True)
        assert unknown == ["REPRO_COMPILD"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Second call is a no-op: the check already ran.
            assert envgates.check_environment() == []

    def test_hint_names_nearest_gate(self, monkeypatch, recwarn):
        monkeypatch.setenv("REPRO_COMPILD", "0")
        envgates.check_environment(force=True)
        message = str(recwarn.pop(RuntimeWarning).message)
        assert "did you mean REPRO_COMPILED?" in message

    def test_registered_gates_never_warn(self, monkeypatch):
        for name in envgates.GATES:
            monkeypatch.setenv(name, "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert envgates.check_environment(force=True) == []

    def test_accessors_trigger_the_check(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILD", "0")
        envgates.reset_unknown_check()
        with pytest.warns(RuntimeWarning, match="REPRO_COMPILD"):
            envgates.compiled_enabled()

    @pytest.mark.parametrize(
        "name, value",
        [("REPRO_RUNTIME", "0"), ("REPRO_SHM_MIN_BYTES", "0")],
    )
    def test_retired_runtime_gates_warn(self, monkeypatch, name, value):
        # The parallel runtime has no gates left: a stale setting is
        # flagged, not silently obeyed.
        monkeypatch.setenv(name, value)
        with pytest.warns(RuntimeWarning, match=name):
            unknown = envgates.check_environment(force=True)
        assert unknown == [name]
