"""Static Wasserstein-1 solvers: tree tails, Beckmann flows, coupling LP.

Three independent routes to the same number. The coupling LP, on the
mass that moves, is the oracle: a transportation problem solved by the
network simplex and certified by its potentials. The tree closed form
sums tail differences; the Beckmann formulation finds, through the dense
simplex, a minimal-total-flow edge vector balancing the endpoint
difference. Flows convert to time-constant velocity/edge-distribution
pairs for the dynamic machinery.
"""

from __future__ import annotations

import numpy as np

from ._network import network_simplex
from .errors import IMBALANCE_TOL, SolverError, ValidationError, _floats, _tolerance
from .graphs import DirectedGraph, _bfs, _net_inflow, _require_tree, tree_flow
from .measures import EdgePairPath, TimeGrid, _constant_speed_pair, vertex_distribution
from .simplex import LinearProgram, solve_lp

# each tolerance scales with the difference it checks (errors._tolerance)
PLAN_TOL = 1e-8
GAP_TOL = 1e-9
BALANCE_TOL = 1e-8


def w1_tree(
    tree: DirectedGraph, f0: np.ndarray, f1: np.ndarray
) -> float:
    """W1 on a tree: the sum over non-root vertices of |tail difference|.

    Edges may point either way and the root is ``tree.root`` (vertex 0
    when unset); the tail difference at each edge's deeper endpoint is,
    up to the edge's sign, the tree flow on that edge.
    """
    _require_tree(tree)
    f0 = vertex_distribution(f0, tree.n_vertices)
    f1 = vertex_distribution(f1, tree.n_vertices)
    return float(np.abs(tree_flow(tree, f1 - f0)).sum())


def w1_kantorovich(
    graph: DirectedGraph, f0: np.ndarray, f1: np.ndarray
) -> tuple[float, np.ndarray]:
    """W1 as the minimal expected hop distance over couplings of f0 and f1.

    The oracle the other methods are checked against. The common mass
    min(f0, f1) stays in place at no cost, so only the moved mass f1 - f0
    is coupled, by ``w1_difference``'s transportation problem, which the
    network simplex solves and its potentials certify. Returns the
    optimal value and one optimal plan, assembled from the certified
    moved block: diag(min(f0, f1)) plus the moved mass's plan on its
    source and target vertices. That is a coupling with no further check:
    the diagonal is non-negative, the block's marginals match the moved
    mass within PLAN_TOL, and every other row and column is exact.
    """
    n = graph.n_vertices
    f0 = vertex_distribution(f0, n)
    f1 = vertex_distribution(f1, n)
    value, sources, targets, moved = _couple_moved_mass(graph, f1 - f0)
    plan = np.diag(np.minimum(f0, f1))
    plan[np.ix_(sources, targets)] = moved
    return value, plan


def _difference(graph: DirectedGraph, delta) -> np.ndarray:
    """Read a signed vector over the vertices whose entries balance.

    The sum may miss zero by IMBALANCE_TOL times max(1, max |delta|).
    """
    delta = _floats(delta, graph.n_vertices, "difference vector")
    if abs(float(delta.sum())) > _tolerance(IMBALANCE_TOL, delta):
        raise ValidationError("difference vector must sum to zero")
    return delta


def beckmann_flow(graph: DirectedGraph, delta: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimal total flow balancing a signed vertex difference.

    Minimizes sum |J_k| over edge vectors J with incidence . J = delta,
    by splitting J into positive and negative parts. ``delta`` must sum
    to zero; it is usually f1 - f0 but any balanced signed vector works.
    """
    delta = _difference(graph, delta)
    m = graph.n_edges
    omega = graph.incidence
    A = np.hstack([omega, -omega])
    lp = LinearProgram(np.ones(2 * m), A, delta)
    solution = solve_lp(lp)
    if solution.status != "optimal":
        raise SolverError(f"flow LP ended {solution.status} on a balanced difference")
    J = solution.x[:m] - solution.x[m:]
    balance = float(np.abs(_net_inflow(graph, J) - delta).max())
    if balance > _tolerance(BALANCE_TOL, delta):
        raise SolverError(f"flow violates its balance equation by {balance:.3e}")
    return solution.objective_value, J


def w1_beckmann(
    graph: DirectedGraph, f0: np.ndarray, f1: np.ndarray
) -> tuple[float, np.ndarray]:
    """W1 via the minimal-flow formulation; returns the value and a flow."""
    f0 = vertex_distribution(f0, graph.n_vertices)
    f1 = vertex_distribution(f1, graph.n_vertices)
    return beckmann_flow(graph, f1 - f0)


def _couple_moved_mass(
    graph: DirectedGraph, delta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Send the loss part of a balanced delta to its gain part at least cost.

    The transportation problem between S = supp(delta < 0) and
    T = supp(delta > 0), with one arc per pair in S x T and hop costs from
    one breadth-first traversal per source, goes through the network
    simplex. Its result is certified from the inputs and the final
    potentials alone: a non-negative plan whose marginals match the parts
    within PLAN_TOL, cost + potential[s] - potential[t] >= 0 on every pair
    (exact, in integers), and a duality gap <reduced cost, plan> within
    GAP_TOL, both tolerances times max(1, max |delta|). Returns the value,
    S, T and the |S| x |T| plan; an empty S or T moves nothing.
    """
    sources, targets = np.flatnonzero(delta < 0), np.flatnonzero(delta > 0)
    s, t = sources.size, targets.size
    if s == 0 or t == 0:
        return 0.0, sources, targets, np.zeros((s, t))
    cost = np.array([_bfs(graph, int(x))[3] for x in sources])[:, targets]
    loss, gain = -delta[sources], delta[targets]
    where = (
        f"on the moved mass (|S|={s}, |T|={t}); the parts carry "
        f"{loss.sum():.12g} and {gain.sum():.12g}"
    )
    # node i is source i and node s + j target j; arc i * t + j joins them
    tail, head = np.divmod(np.arange(s * t), t)
    try:
        flow, potential, _ = network_simplex(
            s + t, tail, head + s, cost.ravel(), np.concatenate([loss, -gain])
        )
    except SolverError as exc:
        raise SolverError(f"coupling ended infeasible {where}: {exc}") from exc
    plan = flow.reshape(s, t)
    lowest = float(plan.min())
    off = max(
        float(np.abs(plan.sum(axis=1) - loss).max()),
        float(np.abs(plan.sum(axis=0) - gain).max()),
    )
    if lowest < 0.0 or off > _tolerance(PLAN_TOL, delta):
        raise SolverError(
            f"coupling ended infeasible {where}: min plan entry {lowest:.3e}, "
            f"marginals off by {off:.3e}"
        )
    reduced = cost + potential[:s, None] - potential[None, s:]
    gap = float((reduced * plan).sum())
    if reduced.min() < 0 or gap > _tolerance(GAP_TOL, delta):
        raise SolverError(
            f"coupling ended unproven {where}: min reduced cost "
            f"{reduced.min()}, duality gap {gap:.3e}"
        )
    return float(cost.ravel() @ flow), sources, targets, plan


def w1_difference(graph: DirectedGraph, delta: np.ndarray) -> float:
    """W1 of a signed balanced difference vector, by the coupling LP.

    Couples the loss part max(-delta, 0) to the gain part max(delta, 0)
    over hop distances, through the network simplex, whose plan its final
    potentials certify; so for delta = f1 - f0 it equals
    w1_kantorovich(f0, f1), and it scales with delta. Returns exactly 0.0
    when either part is empty.
    """
    return _couple_moved_mass(graph, _difference(graph, delta))[0]


def flow_to_constant_pair(J: np.ndarray, steps: int = 1) -> EdgePairPath:
    """Spread a flow over time at constant speed, on a uniform grid.

    Every interval carries the constant-speed factorization of J
    (``measures._constant_speed_pair``): the velocity is sign(J_k) times
    the total flow (sign of zero taken as +1), the edge distribution
    carries |J_k| proportionally, so v*g = J on every interval. A zero
    flow yields the stationary pair with uniform edge mass.
    """
    J = _floats(J, None, "flow")
    grid = TimeGrid(steps)
    return _constant_speed_pair(grid.knots, np.broadcast_to(J, (grid.steps, J.size)))


def w1_auto(graph: DirectedGraph, f0: np.ndarray, f1: np.ndarray) -> float:
    """Tree closed form when the graph is a tree, else the minimal flow."""
    if graph.is_tree():
        return w1_tree(graph, f0, f1)
    value, _ = w1_beckmann(graph, f0, f1)
    return value
