"""Dynamic transport: residuals, energy, constant-speed solutions, geodesics.

The discrete transport equation couples a vertex path f to an edge pair
(v, g) through the incidence matrix: the forward difference of f on each
interval must equal the incidence matrix applied to v*g. The energy of a
pair is the time integral of sum_k g_k |v_k|^q, taken to the power 1/q;
its infimum over pairs driving f0 to f1 equals W1 for every q >= 1, and
the minimizing pairs have constant speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _floats, _tolerance
from .graphs import DirectedGraph, SpanningTreeDecomposition, tree_flow
from .graphs import _net_inflow, _on_edges
from .measures import (
    EdgePairPath,
    TimeGrid,
    Triple,
    VertexPath,
    _check_edges,
    _constant_speed_pair,
    convex_interpolation,
    differentiate_path,
    tails,
    vertex_distribution,
    zero_pair,
)
from .transport import flow_to_constant_pair, w1_beckmann

CIRCULATION_TOL = 1e-10


def _check_exponent(q) -> float:
    q = float(q)
    if not 1.0 <= q < np.inf:
        raise ValidationError(f"energy exponent q must be finite and >= 1, got {q}")
    return q


@dataclass(frozen=True)
class EnergyReport:
    """Energy of a pair: exponent, value, and per-interval speeds."""

    q: float
    value: float
    per_knot_speed: np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: float
    worst_knot: int
    worst_vertex: int


@dataclass(frozen=True)
class TailResidualReport:
    max_abs_residual: float
    worst_knot: int
    worst_edge: int


def _worst(gap: np.ndarray) -> tuple[float, int, int]:
    """The largest entry of a (knots x entries) gap, with the knot and index
    where it is first reached; (0.0, 0, 0) when the gap is empty."""
    if gap.size == 0:
        return 0.0, 0, 0
    knot, index = np.unravel_index(int(gap.argmax()), gap.shape)
    return float(gap.max()), int(knot), int(index)


def transport_residual(triple: Triple, omega: np.ndarray) -> ResidualReport:
    """Worst deviation of the triple from the discrete transport equation."""
    if triple.path.samples.shape[1] != omega.shape[0] or (
        triple.pair.n_edges != omega.shape[1]
    ):
        raise ValidationError("triple dimensions do not match the incidence matrix")
    dfdt = differentiate_path(triple.path)
    driven = triple.pair.flux() @ omega.T
    return ResidualReport(*_worst(np.abs(dfdt - driven)))


def energy(pair: EdgePairPath, q: float) -> EnergyReport:
    """Time integral of sum_k g_k |v_k|^q, to the power 1/q."""
    q = _check_exponent(q)
    speed = np.abs(pair.v)
    # powers of |v| / max|v| lie in [0, 1]: no overflow for large |v| or q
    top = float(speed.max()) if speed.any() else 1.0
    powered = (pair.g * (speed / top) ** q).sum(axis=1)
    value = top * float(pair.durations @ powered) ** (1.0 / q)
    return EnergyReport(q, value, top * powered ** (1.0 / q))


def _tail_flux(tree: DirectedGraph, path: VertexPath) -> np.ndarray:
    """Per interval, the flux v*g that drives the path on the tree: the
    tail difference over the interval length, read onto the edges."""
    dFdt = np.diff(tails(tree, path.samples), axis=0) / path.durations[:, None]
    return _on_edges(tree, dFdt)


def tail_pde_check(triple: Triple, tree: DirectedGraph) -> TailResidualReport:
    """Residual of the tail form: on each edge, the tail derivative at the
    endpoint farther from the root, negated when that endpoint is the
    edge's tail, must equal v*g (the graph's tree-edge table)."""
    _check_edges(triple.pair, tree.n_edges)
    gap = np.abs(_tail_flux(tree, triple.path) - triple.pair.flux())
    return TailResidualReport(*_worst(gap))


def constant_speed_solution_tree(
    tree: DirectedGraph, path: VertexPath
) -> EdgePairPath:
    """The canonical pair driving a vertex path on a tree.

    Edges may point either way. Per interval, v*g on an edge equals the
    tail difference at the endpoint farther from the root over the
    interval length, negated when that endpoint is the edge's tail (the
    graph's tree-edge table, as for ``tree_flow``); factored at constant
    speed, so the resulting triple satisfies the transport
    equation exactly and the edge masses sum to one.
    """
    return _constant_speed_pair(path.knots, _tail_flux(tree, path))


def constant_speed_solution_graph(
    decomp: SpanningTreeDecomposition,
    f0: np.ndarray,
    f1: np.ndarray,
    epsilon: np.ndarray | None = None,
) -> EdgePairPath:
    """Time-constant pair whose flux integral is P (f1 - f0) + epsilon.

    P (f1 - f0) is the decomposition's spanning-tree flow, computed in
    O(|V|) by ``tree_flow`` without the dense right inverse. ``epsilon``
    must lie in the kernel of the incidence matrix (a signed
    circulation), within CIRCULATION_TOL times its largest entry (at
    least 1); it parameterizes the family of solutions on graphs with
    cycles. The returned pair minimizes the energy among all pairs with
    the same flux integral, for every exponent q.
    """
    graph = decomp.graph
    n, m = graph.n_vertices, graph.n_edges
    f0 = vertex_distribution(f0, n)
    f1 = vertex_distribution(f1, n)
    epsilon = _floats(np.zeros(m) if epsilon is None else epsilon, m, "cycle vector")
    drift = float(np.abs(_net_inflow(graph, epsilon)).max())
    # relative to epsilon's size: its entries carry round-off of that size
    if drift > _tolerance(CIRCULATION_TOL, epsilon):
        raise ValidationError(
            f"epsilon is not a circulation: incidence . epsilon reaches {drift:.3e}"
        )
    return flow_to_constant_pair(tree_flow(graph, f1 - f0) + epsilon)


def constant_speed_norm(
    decomp: SpanningTreeDecomposition,
    f0: np.ndarray,
    f1: np.ndarray,
    epsilon: np.ndarray | None = None,
) -> float:
    """The speed |P (f1 - f0) + epsilon|_1 of the associated pair."""
    pair = constant_speed_solution_graph(decomp, f0, f1, epsilon)
    return float(np.abs(pair.flux()[0]).sum())


def reduced_constraint_check(
    pair: EdgePairPath, omega: np.ndarray, f0: np.ndarray, f1: np.ndarray
) -> float:
    """Max-norm gap of incidence . (integral of v*g) against f1 - f0."""
    n, m = omega.shape
    f0 = _floats(f0, n, "f0")
    f1 = _floats(f1, n, "f1")
    _check_edges(pair, m)
    gap = omega @ pair.time_integral() - (f1 - f0)
    return float(np.abs(gap).max()) if gap.size else 0.0


def benamou_distance(
    graph: DirectedGraph, f0: np.ndarray, f1: np.ndarray, q: float = 2.0
) -> tuple[float, EdgePairPath]:
    """W1 through the dynamic formulation, with a certifying pair.

    Finds a minimal flow, spreads it at constant speed, and evaluates the
    energy of that pair; the value is independent of q.
    """
    _check_exponent(q)
    _, flow = w1_beckmann(graph, f0, f1)
    pair = flow_to_constant_pair(flow)
    return energy(pair, q).value, pair


def geodesic(
    graph: DirectedGraph,
    f0: np.ndarray,
    f1: np.ndarray,
    grid: TimeGrid,
    mode: str = "convex",
) -> VertexPath:
    """Constant-speed path from f0 to f1 sampled on the grid.

    ``convex``, the only mode, interpolates the endpoints directly; any
    minimal flow's constant pair integrates to the same path, as its flux
    is constant in time.
    """
    n = graph.n_vertices
    f0 = vertex_distribution(f0, n)
    f1 = vertex_distribution(f1, n)
    if mode != "convex":
        raise ValidationError(f"unknown geodesic mode {mode!r}")
    return convex_interpolation(f0, f1, grid)


def reverse_pair(pair: EdgePairPath) -> EdgePairPath:
    """Run the pair backwards: time reflected, velocity negated.

    Energy is unchanged; the flux integral flips sign, so a pair driving
    f0 to f1 reverses into one driving f1 to f0.
    """
    knots = 1.0 - pair.knots[::-1]
    return EdgePairPath(knots, -pair.v[::-1], pair.g[::-1])


def concatenate_pairs(
    first: EdgePairPath, second: EdgePairPath, q: float = 2.0
) -> EdgePairPath:
    """Glue two pairs into one unit-time pair with additive energy.

    The first pair is compressed onto [0, rho] and the second onto
    [rho, 1] with velocities scaled by the compression, where rho splits
    time in proportion to the two energies; that choice makes the energy
    of the result exactly the sum of the energies. Degenerate zero-energy
    inputs pass the other pair through unchanged.
    """
    if first.n_edges != second.n_edges:
        raise ValidationError("pairs live on different edge sets")
    a = energy(first, q).value
    b = energy(second, q).value
    if a == 0.0 and b == 0.0:
        return zero_pair(first.n_edges)
    if b == 0.0:
        return first
    if a == 0.0:
        return second
    rho = a / (a + b)
    knots = np.concatenate([rho * first.knots, rho + (1.0 - rho) * second.knots[1:]])
    v = np.vstack([first.v / rho, second.v / (1.0 - rho)])
    g = np.vstack([first.g, second.g])
    return EdgePairPath(knots, v, g)
