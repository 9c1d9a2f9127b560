"""``RetryPolicy(timeout=)`` on the serial path.

Regression suite for the serial/pooled timeout gap: pool tasks were
always abandoned at ``policy.timeout``, but :func:`retry_call` silently
ignored it.  The serial loop now enforces the same budget cooperatively
— every attempt of a ``deadline=``-accepting callable gets a fresh
``Deadline.after(policy.timeout)`` and truncates itself at its next
phase boundary.
"""

from __future__ import annotations

import pytest

from repro.anytime import Deadline
from repro.resilience import RetryPolicy, SupervisionReport, retry_call
from repro.resilience.faults import FAULT_ENV
from repro.scenario import Scenario, ScenarioRunner
from repro.solvers import make_solver


class TestDeadlineInjection:
    def test_timeout_passes_a_fresh_deadline(self):
        seen = {}

        def work(deadline=None):
            seen["deadline"] = deadline
            return 42

        assert retry_call(
            work, task=0, policy=RetryPolicy(timeout=5.0, backoff=0.0)
        ) == 42
        assert isinstance(seen["deadline"], Deadline)
        assert 0.0 < seen["deadline"].remaining() <= 5.0

    def test_no_timeout_means_no_deadline(self):
        def work(deadline="untouched"):
            return deadline

        assert retry_call(
            work, task=0, policy=RetryPolicy(backoff=0.0)
        ) == "untouched"

    def test_callable_without_deadline_keeps_old_behavior(self):
        # A legacy callable that cannot cooperate is still run (and
        # still unbounded) rather than rejected.
        assert retry_call(
            lambda: "ok", task=0, policy=RetryPolicy(timeout=5.0, backoff=0.0)
        ) == "ok"

    def test_each_attempt_gets_a_fresh_budget(self):
        remaining = []

        def work(deadline=None):
            remaining.append(deadline.remaining())
            if len(remaining) == 1:
                raise ValueError("first attempt poisoned")
            return "done"

        assert retry_call(
            work,
            task=0,
            policy=RetryPolicy(timeout=5.0, max_retries=2, backoff=0.0),
        ) == "done"
        assert len(remaining) == 2
        # The second attempt's deadline was rebuilt, not inherited
        # half-spent from the first.
        assert all(4.0 < budget <= 5.0 for budget in remaining)


class TestSerialPoolAgreement:
    @pytest.fixture(autouse=True)
    def no_ambient_faults(self, monkeypatch):
        # The assertions below pin exact supervision outcomes; an ambient
        # fault plan (the CI fault-injection job sets one) would add
        # its own crashes to them.
        monkeypatch.delenv(FAULT_ENV, raising=False)

    @staticmethod
    def _truncated_solve(tiny_problem):
        solver = make_solver("search:swap", n_candidates=4)
        report = SupervisionReport()
        result = retry_call(
            lambda deadline=None: solver.solve(
                tiny_problem, seed=1, budget=50, deadline=deadline
            ),
            task=0,
            policy=RetryPolicy(timeout=1e-9, backoff=0.0),
            report=report,
        )
        return result, report

    def test_serial_solve_truncates_at_the_timeout(self, tiny_problem):
        """The serial path now bounds a solver step like the pool does —
        but by truncate-and-keep instead of abandon-and-retry."""
        result, report = self._truncated_solve(tiny_problem)
        assert result.stopped_by == "deadline"
        assert result.n_phases == 0
        assert result.n_evaluations > 0
        # Truncation is a successful attempt: no retry, no failure kinds.
        assert report.kinds() == {}

    def test_truncation_survives_a_killed_first_attempt(
        self, tiny_problem, monkeypatch
    ):
        # kill@0 crashes task 0's first attempt; the retry truncates as
        # before, and the report holds exactly that one crash.
        monkeypatch.setenv(FAULT_ENV, "kill@0")
        result, report = self._truncated_solve(tiny_problem)
        assert result.stopped_by == "deadline"
        assert result.n_phases == 0
        assert report.kinds() == {"crash": 1}

    def test_scenario_steps_are_bounded_by_policy_timeout(self, tiny_problem):
        scenario = Scenario.client_drift(tiny_problem, 2)
        outcome = ScenarioRunner(
            "search:swap",
            budget=20,
            n_candidates=4,
            policy=RetryPolicy(timeout=1e-9, backoff=0.0),
        ).run(scenario, seed=3)
        assert outcome.deadline_hits == len(outcome.steps)
        for step in outcome.steps:
            assert step.result.stopped_by == "deadline"
            assert step.result.n_evaluations > 0

    def test_generous_timeout_is_bit_identical_to_none(self, tiny_problem):
        scenario = Scenario.client_drift(tiny_problem, 2)

        def run(policy):
            return ScenarioRunner(
                "search:swap", budget=4, n_candidates=4, policy=policy
            ).run(scenario, seed=5)

        bare = run(None)
        bounded = run(RetryPolicy(timeout=1e9, backoff=0.0))
        assert [s.result.best.fitness for s in bare.steps] == [
            s.result.best.fitness for s in bounded.steps
        ]
        assert all(s.result.stopped_by is None for s in bounded.steps)
