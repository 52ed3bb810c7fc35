"""Static Wasserstein-1 solvers: tree tails, Beckmann flows, coupling LP.

Three independent routes to the same number. The coupling LP over all
transport plans is the oracle; the tree closed form sums tail
differences; the Beckmann formulation finds a minimal-total-flow edge
vector balancing the endpoint difference. Flows convert to time-constant
velocity/edge-distribution pairs for the dynamic machinery.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError, ValidationError
from .graphs import (
    DirectedGraph,
    _net_inflow,
    is_outward_tree,
    outward_tree_structure,
    shortest_path_metric,
    tree_flow,
)
from .measures import EdgePairPath, _constant_speed_rows, vertex_distribution
from .simplex import LinearProgram, solve_lp

PLAN_TOL = 1e-8
BALANCE_TOL = 1e-8
ZERO_SUM_TOL = 1e-9  # a difference vector's sum; see measures.SUM_TOL


def w1_tree(
    tree: DirectedGraph, f0: np.ndarray, f1: np.ndarray
) -> float:
    """W1 on a rooted tree with outward edges: sum of tail differences.

    The tail difference at each edge's head is the tree flow on that edge.
    """
    outward_tree_structure(tree)
    f0 = vertex_distribution(f0, tree.n_vertices)
    f1 = vertex_distribution(f1, tree.n_vertices)
    return float(np.abs(tree_flow(tree, f1 - f0)).sum())


def w1_kantorovich(
    graph: DirectedGraph, f0: np.ndarray, f1: np.ndarray
) -> tuple[float, np.ndarray]:
    """W1 as the minimal expected hop distance over couplings.

    Solves the coupling LP with one variable per vertex pair; this is the
    oracle the other methods are checked against. Returns the optimal
    value and one optimal transport plan.
    """
    n = graph.n_vertices
    f0 = vertex_distribution(f0, n)
    f1 = vertex_distribution(f1, n)
    metric = shortest_path_metric(graph).astype(float)

    A = np.zeros((2 * n, n * n))
    for x in range(n):
        A[x, x * n : (x + 1) * n] = 1.0  # row sums: first marginal
    for y in range(n):
        A[n + y, y::n] = 1.0  # column sums: second marginal
    lp = LinearProgram(metric.ravel(), A, np.concatenate([f0, f1]))
    solution = solve_lp(lp)
    if solution.status != "optimal":
        raise SolverError(
            f"coupling LP ended {solution.status} for valid distributions "
            f"(|V|={n}); inputs sum to {f0.sum():.12g} and {f1.sum():.12g}"
        )
    plan = solution.x.reshape(n, n)
    check_transport_plan(plan, f0, f1)
    return solution.objective_value, plan


def check_transport_plan(
    plan: np.ndarray, f0: np.ndarray, f1: np.ndarray
) -> None:
    """Raise unless plan is a coupling of f0 and f1 within tolerance."""
    if float(plan.min()) < -1e-9:
        raise SolverError(f"transport plan has negative entry {plan.min():.3e}")
    row_err = float(np.abs(plan.sum(axis=1) - f0).max())
    col_err = float(np.abs(plan.sum(axis=0) - f1).max())
    if row_err > PLAN_TOL or col_err > PLAN_TOL:
        raise SolverError(
            f"transport plan marginals are off by ({row_err:.3e}, {col_err:.3e})"
        )


def beckmann_flow(graph: DirectedGraph, delta: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimal total flow balancing a signed vertex difference.

    Minimizes sum |J_k| over edge vectors J with incidence . J = delta,
    by splitting J into positive and negative parts. ``delta`` must sum
    to zero; it is usually f1 - f0 but any balanced signed vector works.
    """
    delta = np.asarray(delta, dtype=float).reshape(-1)
    n, m = graph.n_vertices, graph.n_edges
    if delta.shape[0] != n:
        raise ValidationError(f"difference vector has length {delta.shape[0]}, "
                              f"expected {n}")
    if abs(float(delta.sum())) > ZERO_SUM_TOL:
        raise ValidationError("difference vector must sum to zero")
    omega = graph.incidence
    A = np.hstack([omega, -omega])
    lp = LinearProgram(np.ones(2 * m), A, delta)
    solution = solve_lp(lp)
    if solution.status != "optimal":
        raise SolverError(f"flow LP ended {solution.status} on a balanced difference")
    J = solution.x[:m] - solution.x[m:]
    balance = float(np.abs(_net_inflow(graph, J) - delta).max())
    if balance > BALANCE_TOL:
        raise SolverError(f"flow violates its balance equation by {balance:.3e}")
    return solution.objective_value, J


def w1_beckmann(
    graph: DirectedGraph, f0: np.ndarray, f1: np.ndarray
) -> tuple[float, np.ndarray]:
    """W1 via the minimal-flow formulation; returns the value and a flow."""
    f0 = vertex_distribution(f0, graph.n_vertices)
    f1 = vertex_distribution(f1, graph.n_vertices)
    return beckmann_flow(graph, f1 - f0)


def w1_difference(graph: DirectedGraph, delta: np.ndarray) -> float:
    """Coupling-LP value for a signed balanced difference vector.

    Splits delta into its positive and negative parts, couples the two
    normalized parts, and rescales by the moved mass. Agrees with
    w1_kantorovich(f0, f1) whenever delta = f1 - f0 for distributions,
    and stays well defined for signed vectors where the coupling LP
    itself would have no feasible marginals.
    """
    delta = np.asarray(delta, dtype=float).reshape(-1)
    if abs(float(delta.sum())) > ZERO_SUM_TOL:
        raise ValidationError("difference vector must sum to zero")
    gain = np.clip(delta, 0.0, None)
    loss = np.clip(-delta, 0.0, None)
    moved = float(gain.sum())
    if moved <= 1e-15:
        return 0.0
    value, _ = w1_kantorovich(graph, loss / moved, gain / moved)
    return moved * value


def flow_to_constant_pair(J: np.ndarray, steps: int = 1) -> EdgePairPath:
    """Spread a flow over time at constant speed.

    The velocity is sign(J_k) times the total flow (sign of zero taken as
    +1), the edge distribution carries |J_k| proportionally, so v*g = J
    on every interval. A zero flow yields the stationary pair with
    uniform edge mass.
    """
    J = np.asarray(J, dtype=float).reshape(1, -1)
    v, g = _constant_speed_rows(J)
    return EdgePairPath.constant(v, g, steps)


def w1_auto(graph: DirectedGraph, f0: np.ndarray, f1: np.ndarray) -> float:
    """Tree closed form when the graph is an outward-rooted tree, else flow."""
    if graph.is_tree() and is_outward_tree(graph):
        return w1_tree(graph, f0, f1)
    value, _ = w1_beckmann(graph, f0, f1)
    return value
