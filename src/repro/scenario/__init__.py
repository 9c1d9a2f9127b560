"""Dynamic deployment scenarios with warm-start re-optimization.

The paper places routers for one static client snapshot; this package
models what comes after deployment: clients drift and churn, routers
fail, radios degrade.  A :class:`Scenario` unfolds a reproducible
sequence of problem instances, and :class:`ScenarioRunner` re-optimizes
each step through any registered solver, seeding every re-solve with the
previous step's best placement::

    from repro.scenario import Scenario, ScenarioRunner

    scenario = Scenario.client_drift(problem, n_steps=20, sigma=2.0)
    runner = ScenarioRunner("search:swap", budget=64)
    outcome = runner.run(scenario, seed=7)
    print(outcome.summary())

:class:`ScenarioFleet` scales the same loop to a whole
(scenario x solver x seed) grid — lockstep replicates, deterministic
``SeedSequence`` sharding, optional process fan-out — and aggregates it
into a :class:`FleetReport` (mean/std tables, warm-vs-cold regret,
recovery curves).
"""

from repro.scenario.fleet import (
    FleetReport,
    FleetRun,
    ScenarioFleet,
    fleet_seed_grid,
)
from repro.scenario.perturbations import (
    ClientChurn,
    ClientDrift,
    Perturbation,
    RadioDegradation,
    RouterOutage,
    StepChange,
)
from repro.scenario.runner import (
    ScenarioResult,
    ScenarioRunner,
    ScenarioStepResult,
)
from repro.scenario.scenario import Scenario, ScenarioStep

__all__ = [
    "ClientChurn",
    "ClientDrift",
    "FleetReport",
    "FleetRun",
    "Perturbation",
    "RadioDegradation",
    "RouterOutage",
    "Scenario",
    "ScenarioFleet",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioStep",
    "ScenarioStepResult",
    "StepChange",
    "fleet_seed_grid",
]
