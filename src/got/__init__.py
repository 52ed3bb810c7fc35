"""Wasserstein-1 transport on finite graphs.

Static solvers (tree tails, minimal flows, the coupling LP), the dynamic
velocity/edge-distribution formulation with its energy functional, and
constant-speed geodesics between vertex distributions.
"""

from .dynamics import (
    EnergyReport,
    ResidualReport,
    TailResidualReport,
    benamou_distance,
    concatenate_pairs,
    constant_speed_norm,
    constant_speed_solution_graph,
    constant_speed_solution_tree,
    energy,
    geodesic,
    reduced_constraint_check,
    reverse_pair,
    tail_pde_check,
    transport_residual,
)
from .errors import SolverError, ValidationError
from .graphs import (
    DirectedGraph,
    SpanningTreeDecomposition,
    build_incidence,
    divergence,
    gradient,
    graph_from_json,
    graph_to_json,
    load_graph,
    shortest_path_metric,
    spanning_tree_decomposition,
    tree_flow,
)
from .measures import (
    EdgePairPath,
    TimeGrid,
    Triple,
    VertexPath,
    convex_interpolation,
    differentiate_path,
    distribution_from_json,
    edge_distribution,
    integrate_pair,
    load_distribution,
    tails,
    triple_from_json,
    triple_to_json,
    tv_distance,
    vertex_distribution,
    zero_pair,
)
from .transport import (
    beckmann_flow,
    flow_to_constant_pair,
    w1_auto,
    w1_beckmann,
    w1_difference,
    w1_kantorovich,
    w1_tree,
)

__version__ = "0.1.0"
