"""repro — mesh router placement in Wireless Mesh Networks.

A complete reproduction of *"Ad Hoc and Neighborhood Search Methods for
Placement of Mesh Routers in Wireless Mesh Networks"* (Xhafa, Sanchez &
Barolli, IEEE ICDCS Workshops 2009): the problem model, the seven ad hoc
placement methods, the swap/random neighborhood search, the genetic
algorithm used for the initializer study, and the harness that
regenerates every table and figure of the paper's evaluation.

Quickstart::

    import numpy as np
    from repro import (
        Evaluator, HotSpotPlacement, NeighborhoodSearch, SwapMovement,
        paper_normal,
    )

    problem = paper_normal().generate()
    rng = np.random.default_rng(0)
    initial = HotSpotPlacement().place(problem, rng)
    search = NeighborhoodSearch(SwapMovement(), max_phases=64)
    result = search.run(Evaluator(problem), initial, rng)
    print(result.best.summary())
"""

from repro.adhoc import (
    AdHocMethod,
    ColLeftPlacement,
    CornersPlacement,
    CrossPlacement,
    DiagPlacement,
    HotSpotPlacement,
    NearPlacement,
    RandomPlacement,
    make_method,
    paper_methods,
)
from repro.core import (
    ClientSet,
    CoverageRule,
    DensityMap,
    Evaluation,
    Evaluator,
    GridArea,
    LexicographicFitness,
    LinkRule,
    MeshClient,
    MeshRouter,
    NetworkMetrics,
    Placement,
    Point,
    ProblemInstance,
    RadioProfile,
    Rect,
    RouterFleet,
    RouterNetwork,
    WeightedSumFitness,
)
from repro.distributions import (
    ExponentialDistribution,
    NormalDistribution,
    UniformDistribution,
    WeibullDistribution,
    make_distribution,
)
from repro.experiments import (
    run_all,
    run_ga_figure,
    run_ns_figure,
    run_table,
)
from repro.genetic import (
    AdHocInitializer,
    GAConfig,
    GAResult,
    GeneticAlgorithm,
    MixedInitializer,
    RandomInitializer,
)
from repro.instances import (
    InstanceSpec,
    load_instance,
    load_placement,
    paper_exponential,
    paper_normal,
    paper_uniform,
    paper_weibull,
    save_instance,
    save_placement,
    tiny_spec,
)
from repro.neighborhood import (
    CombinedMovement,
    MultiChainSearch,
    NeighborhoodSearch,
    RandomMovement,
    SearchResult,
    SwapMovement,
)
from repro.scenario import (
    ClientChurn,
    ClientDrift,
    FleetReport,
    RadioDegradation,
    RouterOutage,
    Scenario,
    ScenarioFleet,
    ScenarioResult,
    ScenarioRunner,
)
from repro.solvers import (
    Solver,
    SolveResult,
    available_solvers,
    make_solver,
)
from repro.viz import (
    render_evaluation,
    render_fleet_report,
    render_placement,
    render_timeline,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # adhoc
    "AdHocMethod",
    "ColLeftPlacement",
    "CornersPlacement",
    "CrossPlacement",
    "DiagPlacement",
    "HotSpotPlacement",
    "NearPlacement",
    "RandomPlacement",
    "make_method",
    "paper_methods",
    # core
    "ClientSet",
    "CoverageRule",
    "DensityMap",
    "Evaluation",
    "Evaluator",
    "GridArea",
    "LexicographicFitness",
    "LinkRule",
    "MeshClient",
    "MeshRouter",
    "NetworkMetrics",
    "Placement",
    "Point",
    "ProblemInstance",
    "RadioProfile",
    "Rect",
    "RouterFleet",
    "RouterNetwork",
    "WeightedSumFitness",
    # distributions
    "ExponentialDistribution",
    "NormalDistribution",
    "UniformDistribution",
    "WeibullDistribution",
    "make_distribution",
    # experiments
    "run_all",
    "run_ga_figure",
    "run_ns_figure",
    "run_table",
    # genetic
    "AdHocInitializer",
    "GAConfig",
    "GAResult",
    "GeneticAlgorithm",
    "MixedInitializer",
    "RandomInitializer",
    # instances
    "InstanceSpec",
    "load_instance",
    "load_placement",
    "paper_exponential",
    "paper_normal",
    "paper_uniform",
    "paper_weibull",
    "save_instance",
    "save_placement",
    "tiny_spec",
    # neighborhood
    "CombinedMovement",
    "MultiChainSearch",
    "NeighborhoodSearch",
    "RandomMovement",
    "SearchResult",
    "SwapMovement",
    # scenario
    "ClientChurn",
    "ClientDrift",
    "FleetReport",
    "RadioDegradation",
    "RouterOutage",
    "Scenario",
    "ScenarioFleet",
    "ScenarioResult",
    "ScenarioRunner",
    # solvers
    "Solver",
    "SolveResult",
    "available_solvers",
    "make_solver",
    # viz
    "render_evaluation",
    "render_fleet_report",
    "render_placement",
    "render_timeline",
]
