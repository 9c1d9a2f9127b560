"""The live re-optimization loop: SLAs, shedding, determinism."""

from __future__ import annotations

import math

import pytest

from repro.anytime import (
    CancelToken,
    Deadline,
    DEFAULT_LADDER,
    LadderRung,
    LiveRunner,
)
from repro.anytime.live import _scaled_solver, _select_rung
from repro.scenario import Scenario, ScenarioRunner
from repro.solvers import make_solver


def fingerprint(result):
    return (
        tuple(map(tuple, result.best.placement.positions_array())),
        result.best.fitness,
        result.n_evaluations,
        result.n_phases,
        result.stopped_by,
    )


@pytest.fixture
def drift(tiny_problem):
    return Scenario.client_drift(tiny_problem, 4)


class TestNoPressureParity:
    def test_bit_identical_to_scenario_runner(self, drift):
        baseline = ScenarioRunner(
            "search:swap", budget=4, n_candidates=6
        ).run(drift, seed=11)
        live = LiveRunner(
            "search:swap", budget=4, n_candidates=6,
            sla=1e6, interval=1e6, seconds_per_evaluation=1e-6,
        ).run(drift, seed=11)
        assert live.shed_count == 0
        assert live.deadline_hits == 0
        assert [fingerprint(s.result) for s in baseline.steps] == [
            fingerprint(e.result) for e in live.responded
        ]

    def test_simulated_run_is_reproducible(self, drift):
        def once():
            return LiveRunner(
                "search:swap", budget=3, n_candidates=4,
                sla=0.05, interval=0.02, seconds_per_evaluation=0.004,
            ).run(drift, seed=7)

        first, second = once(), once()
        assert first.events == second.events
        assert [fingerprint(e.result) for e in first.responded] == [
            fingerprint(e.result) for e in second.responded
        ]


class TestOffload:
    def test_offloaded_run_is_bit_identical_in_simulated_mode(self, drift):
        def run(offload):
            return LiveRunner(
                "search:swap", budget=3, n_candidates=4,
                sla=0.05, interval=0.02, seconds_per_evaluation=0.004,
                offload=offload,
            ).run(drift, seed=7)

        inproc, offloaded = run(False), run(True)
        # The whole timeline — rungs, shedding, simulated latencies —
        # matches, not just the solutions: the worker re-derives each
        # event deadline from the same budget and the evaluation-charged
        # clock advances identically.
        assert inproc.events == offloaded.events
        assert [fingerprint(e.result) for e in inproc.responded] == [
            fingerprint(e.result) for e in offloaded.responded
        ]

    def test_offload_respects_the_runtime_gate(self, drift, monkeypatch):
        from repro.parallel.runtime import RUNTIME_ENV

        monkeypatch.setenv(RUNTIME_ENV, "0")
        gated = LiveRunner(
            "search:swap", budget=3, n_candidates=4,
            sla=0.05, interval=0.02, seconds_per_evaluation=0.004,
            offload=True,
        ).run(drift, seed=7)
        monkeypatch.delenv(RUNTIME_ENV)
        inproc = LiveRunner(
            "search:swap", budget=3, n_candidates=4,
            sla=0.05, interval=0.02, seconds_per_evaluation=0.004,
        ).run(drift, seed=7)
        assert gated.events == inproc.events

    def test_offload_with_run_deadline_stays_in_process(self, drift):
        # A run-level deadline shares a clock/token with the caller and
        # cannot cross a process boundary: the runner solves in-process
        # and still honors the external cancel.
        token = CancelToken()
        token.cancel()
        report = LiveRunner(
            "search:swap", budget=3, n_candidates=4,
            sla=0.05, interval=0.02, seconds_per_evaluation=0.004,
            offload=True,
        ).run(drift, seed=7, deadline=Deadline.cancellable(token))
        assert report.shed_count == len(report.events) - 1
        assert all(e.rung == "cancelled" for e in report.events[1:])


class TestOverloadShedding:
    def test_saturation_sheds_and_coalesces(self, drift):
        report = LiveRunner(
            "search:swap", budget=4, n_candidates=6,
            sla=0.02, interval=0.01, seconds_per_evaluation=0.005,
        ).run(drift, seed=11)
        assert report.shed_count > 0
        shed = [e for e in report.events if e.shed]
        for event in shed:
            assert event.result is None
            assert event.coalesced_into is not None
            assert event.coalesced_into > event.index
        # Every shed event's target was actually served.
        served = {e.index for e in report.responded}
        assert {e.coalesced_into for e in shed} <= served
        # The run still covers every step exactly once.
        assert sorted(e.index for e in report.events) == list(
            range(len(drift.perturbations) + 1)
        )

    def test_pressure_engages_degraded_rungs(self, drift):
        report = LiveRunner(
            "search:swap", budget=4, n_candidates=6,
            sla=0.02, interval=0.01, seconds_per_evaluation=0.005,
        ).run(drift, seed=11)
        assert set(report.rung_counts()) - {"full"}
        assert report.max_queue_depth() >= 1

    def test_generous_sla_never_sheds(self, drift):
        report = LiveRunner(
            "search:swap", budget=4, n_candidates=6,
            sla=1e6, interval=1e6, seconds_per_evaluation=1e-6,
        ).run(drift, seed=3)
        assert report.shed_count == 0
        assert report.rung_counts() == {"full": len(report.events)}


class TestRunCancellation:
    def test_cancelled_run_sheds_remaining_events(self, drift):
        token = CancelToken()
        token.cancel()
        report = LiveRunner(
            "search:swap", budget=4, n_candidates=6,
            sla=1e6, interval=1e6, seconds_per_evaluation=1e-6,
        ).run(drift, seed=11, deadline=Deadline.cancellable(token))
        # The in-flight event still responds (mask-out-and-finish) …
        assert len(report.responded) == 1
        assert report.responded[0].result.stopped_by == "cancelled"
        # … and the rest of the timeline is accounted as shed.
        assert report.shed_count == len(report.events) - 1


class TestLadder:
    def test_select_rung_picks_first_matching(self):
        assert _select_rung(DEFAULT_LADDER, 0.0).name == "full"
        assert _select_rung(DEFAULT_LADDER, 0.5).name == "shrink-candidates"
        assert _select_rung(DEFAULT_LADDER, 1.0).name == "shrink-chains"
        assert _select_rung(DEFAULT_LADDER, math.inf).name == "coalesce"

    def test_rung_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            LadderRung("bad", 1.0, candidate_scale=0.0)
        with pytest.raises(ValueError):
            LadderRung("bad", 1.0, budget_scale=1.5)

    def test_scaled_solver_restores_knobs(self):
        solver = make_solver("search:swap", n_candidates=16)
        rung = LadderRung("half", 1.0, candidate_scale=0.5)
        with _scaled_solver(solver, rung):
            assert solver.n_candidates == 8
        assert solver.n_candidates == 16

    def test_scaled_solver_never_drops_below_one(self):
        solver = make_solver("search:swap", n_candidates=2)
        rung = LadderRung("tiny", 1.0, candidate_scale=0.01)
        with _scaled_solver(solver, rung):
            assert solver.n_candidates == 1
        assert solver.n_candidates == 2


class TestReport:
    @pytest.fixture
    def report(self, drift):
        return LiveRunner(
            "search:swap", budget=3, n_candidates=4,
            sla=0.05, interval=0.02, seconds_per_evaluation=0.002,
        ).run(drift, seed=5)

    def test_latency_percentiles_ordered(self, report):
        assert 0.0 <= report.p50_latency <= report.p95_latency

    def test_timeline_has_one_row_per_event(self, report):
        rows = report.timeline()
        assert len(rows) == len(report.events)
        for row in rows:
            assert {"step", "event", "rung", "shed", "latency"} <= set(row)

    def test_regret_against_unbounded_baseline(self, drift, report):
        baseline = ScenarioRunner(
            "search:swap", budget=3, n_candidates=4
        ).run(drift, seed=5)
        curve = report.regret_curve(baseline)
        assert len(curve) == len(report.responded)
        assert report.mean_regret(baseline) == pytest.approx(
            sum(regret for _, regret in curve) / len(curve)
        )

    def test_summary_mentions_sla(self, report):
        assert "SLA" in report.summary()


class TestValidation:
    def test_rejects_non_positive_sla(self):
        with pytest.raises(ValueError):
            LiveRunner("search:swap", sla=0.0)

    def test_rejects_bad_deadline_fraction(self):
        with pytest.raises(ValueError):
            LiveRunner("search:swap", sla=1.0, deadline_fraction=0.0)

    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError):
            LiveRunner("search:swap", sla=1.0, ladder=())

    def test_rejects_kwargs_with_solver_instance(self):
        solver = make_solver("search:swap")
        with pytest.raises(ValueError):
            LiveRunner(solver, sla=1.0, n_candidates=4)
