"""Differential property test: every scenario driver against a frozen walk.

:func:`reference_walk` is a frozen copy of the per-step
``solver.solve`` loop that ``ScenarioRunner.run_steps`` ran before the
scenario drivers shared one lockstep walk (no checkpoint store, no
retry policy).  Hypothesis draws the scenario regime, the step window,
the solver family, warm or cold, a ``warm_budget`` different from
``budget`` and 1–3 replicate streams; ``run_steps``, every in-process
fleet triple and a pressure-free simulated :class:`LiveRunner` must all
reproduce the reference step for step.
"""

from __future__ import annotations

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anytime import LiveRunner
from repro.instances.catalog import tiny_spec
from repro.scenario import (
    ClientChurn,
    ClientDrift,
    RadioDegradation,
    RouterOutage,
    Scenario,
    ScenarioFleet,
    ScenarioRunner,
    fleet_seed_grid,
)
from repro.seeding import root_sequence, spawn_children
from repro.solvers import make_solver

#: One cheap configuration per solver family, with the specs drawn from.
FAMILIES = {
    "search": (("search:swap", "search:random"), {"n_candidates": 4}),
    "multistart": (
        ("multistart:swap", "multistart:combined"),
        {"n_restarts": 2, "n_candidates": 4},
    ),
    "annealing": (("annealing:swap", "annealing:random"), {"moves_per_phase": 4}),
    "tabu": (("tabu:swap", "tabu:combined"), {"n_candidates": 4}),
    "ga": (("ga:hotspot", "ga:random"), {"population_size": 6}),
    "adhoc": (("adhoc:hotspot", "adhoc:diag"), {}),
}

MIXED = (ClientDrift(), RouterOutage(2), RadioDegradation(), ClientChurn(0.2))


@functools.lru_cache(maxsize=None)
def problem():
    return tiny_spec(seed=7).generate()


def build_scenario(kind: str, n_perturbations: int) -> Scenario:
    base = problem()
    if kind == "drift":
        return Scenario.client_drift(base, n_perturbations)
    if kind == "churn":
        return Scenario.client_churn(base, n_perturbations, fraction=0.2)
    if kind == "outage":
        return Scenario.router_outages(base, n_perturbations, count=2)
    if kind == "radio":
        return Scenario.radio_degradation(base, n_perturbations)
    return Scenario.composite("mixed", base, MIXED[:n_perturbations])


def reference_walk(solver, steps, seed, *, budget, warm_budget, warm):
    """The frozen per-step walk: ``(results, seed provenance)``."""
    solve_seq = root_sequence(seed)
    step_seeds = spawn_children(solve_seq, len(steps))
    warm_capable = warm and solver.supports_warm_start
    warm_budget = warm_budget if warm_budget is not None else budget
    results = []
    previous = None
    for step, step_seed in zip(steps, step_seeds):
        warm_start = None
        if warm_capable and previous is not None:
            warm_start = step.change.carry_placement(previous.best.placement)
        result = solver.solve(
            step.problem,
            seed=step_seed,
            budget=budget if warm_start is None else warm_budget,
            warm_start=warm_start,
        )
        results.append(result)
        previous = result
    return results, solve_seq.entropy


def signature(results, seed):
    """Everything a walk should pin, except wall-clock."""
    return [
        (
            result.best.placement.cells,
            repr(result.best.fitness),
            result.n_evaluations,
            result.n_phases,
            result.warm_started,
            result.stopped_by,
        )
        for result in results
    ], seed


@st.composite
def walks(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    specs, kwargs = FAMILIES[family]
    n_perturbations = draw(st.integers(1, 3))
    start = draw(st.integers(0, n_perturbations))
    warm = draw(st.booleans())
    budget = draw(st.integers(1, 3))
    return {
        "kind": draw(
            st.sampled_from(["drift", "churn", "outage", "radio", "mixed"])
        ),
        "n_perturbations": n_perturbations,
        # A window of 1-4 steps, not always starting at step 0.
        "window": (
            start,
            start + draw(st.integers(1, n_perturbations + 1 - start)),
        ),
        "spec": draw(st.sampled_from(specs)),
        "kwargs": kwargs,
        "warm": warm,
        "budget": budget,
        "warm_budget": (
            draw(st.integers(1, 3).filter(lambda b: b != budget))
            if warm
            else None
        ),
        "n_replicates": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=walks())
def test_every_driver_matches_the_reference_walk(case):
    scenario = build_scenario(case["kind"], case["n_perturbations"])
    solver = make_solver(case["spec"], **case["kwargs"])
    config = dict(
        budget=case["budget"],
        warm_budget=case["warm_budget"],
        warm=case["warm"],
    )

    # run_steps, one replicate stream at a time, on a step window.
    steps = ScenarioRunner.unfold(scenario, case["seed"])[0]
    window = steps[slice(*case["window"])]
    streams = spawn_children(root_sequence(case["seed"]), case["n_replicates"])
    runner = ScenarioRunner(case["spec"], **config, **case["kwargs"])
    live = LiveRunner(
        case["spec"],
        sla=1e6,
        interval=1e6,
        seconds_per_evaluation=1e-6,
        **config,
        **case["kwargs"],
    )
    for stream in streams:
        expected = signature(
            *reference_walk(solver, window, stream, **config)
        )
        ran = runner.run_steps(window, seed=stream)
        assert signature([s.result for s in ran.steps], ran.seed) == expected
        report = live.run_steps(window, seed=stream)
        assert report.shed_count == 0
        assert (
            signature([e.result for e in report.responded], report.seed)
            == expected
        )

    # Every in-process fleet triple, replicates in lockstep.
    fleet_seed = case["seed"] + 1
    report = ScenarioFleet(
        [scenario],
        {"solver": (case["spec"], case["kwargs"])},
        n_seeds=case["n_replicates"],
        **config,
    ).run(seed=fleet_seed)
    [(unfold_seq, rep_seqs)] = fleet_seed_grid(
        fleet_seed, 1, case["n_replicates"]
    )
    fleet_steps = scenario.unfold(unfold_seq)
    for run in report.runs:
        expected = signature(
            *reference_walk(
                solver, fleet_steps, rep_seqs[run.replicate], **config
            )
        )
        assert (
            signature([s.result for s in run.result.steps], run.result.seed)
            == expected
        )
