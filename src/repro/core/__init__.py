"""Core problem model and evaluation engine.

This subpackage implements the paper's problem definition (Section 2) and
every substrate the search methods rely on: geometry, the deployment
grid, the radio model, routers and clients, placements, the router
communication graph with its giant component, user coverage, sub-area
density and the bi-objective fitness.
"""

from repro.core.clients import ClientSet, MeshClient
from repro.core.connectivity import (
    ComponentStructure,
    UnionFind,
    canonical_labels,
    connected_components,
    connected_components_from_arrays,
    giant_component_mask,
)
from repro.core.coverage import coverage_mask, coverage_matrix, covered_clients
from repro.core.density import DensityMap
from repro.core.engine import SparseEngine, StackedDeltaEngine, select_engine
from repro.core.evaluation import Evaluation, Evaluator
from repro.core.fitness import (
    FitnessFunction,
    LexicographicFitness,
    NetworkMetrics,
    WeightedSumFitness,
)
from repro.core.geometry import Point, Rect, chebyshev, euclidean, euclidean_squared, manhattan
from repro.core.grid import GridArea
from repro.core.network import RouterNetwork, adjacency_matrix, edge_array, link_edges
from repro.core.problem import ProblemInstance, check_start_placement
from repro.core.radio import CoverageRule, LinkRule, RadioProfile
from repro.core.routers import MeshRouter, RouterFleet
from repro.core.solution import Placement

__all__ = [
    "ClientSet",
    "MeshClient",
    "ComponentStructure",
    "UnionFind",
    "canonical_labels",
    "connected_components",
    "connected_components_from_arrays",
    "giant_component_mask",
    "SparseEngine",
    "StackedDeltaEngine",
    "select_engine",
    "coverage_mask",
    "coverage_matrix",
    "covered_clients",
    "DensityMap",
    "Evaluation",
    "Evaluator",
    "FitnessFunction",
    "LexicographicFitness",
    "NetworkMetrics",
    "WeightedSumFitness",
    "Point",
    "Rect",
    "chebyshev",
    "euclidean",
    "euclidean_squared",
    "manhattan",
    "GridArea",
    "RouterNetwork",
    "adjacency_matrix",
    "edge_array",
    "link_edges",
    "ProblemInstance",
    "check_start_placement",
    "CoverageRule",
    "LinkRule",
    "RadioProfile",
    "MeshRouter",
    "RouterFleet",
    "Placement",
]
