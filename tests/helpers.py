"""Shared generators and oracles for the test suite."""

import numpy as np

from got.graphs import DirectedGraph, shortest_path_metric, spanning_tree_decomposition
from got.measures import EdgePairPath
from got.simplex import LinearProgram


def row_reduction_rank(matrix, tol=1e-9):
    """Rank by Gaussian elimination with a pivot tolerance."""
    a = np.array(matrix, dtype=float)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= tol:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] /= a[rank, col]
        for r in range(rows):
            if r != rank and abs(a[r, col]) > tol:
                a[r] -= a[r, col] * a[rank]
        rank += 1
    return rank


def laplacian(omega):
    """Graph Laplacian, the incidence matrix times its transpose."""
    return omega @ omega.T


def laplacian_reference(graph):
    """Laplacian from the edge list: degrees on the diagonal, -1 per edge."""
    lap = np.zeros((graph.n_vertices, graph.n_vertices))
    for tail, head in graph.edges:
        lap[tail, tail] += 1.0
        lap[head, head] += 1.0
        lap[tail, head] = lap[head, tail] = -1.0
    return lap


def incidence_reference(graph):
    """Incidence matrix by one edge at a time: -1 at the tail, +1 at the head."""
    omega = np.zeros((graph.n_vertices, graph.n_edges))
    for k, (tail, head) in enumerate(graph.edges):
        omega[tail, k] = -1.0
        omega[head, k] = 1.0
    return omega


def cycle_basis_reference(decomp):
    """Cycle basis by one non-tree edge at a time from the right inverse's columns."""
    P, m = decomp.right_inverse, decomp.graph.n_edges
    column_of = {v: i for i, v in enumerate(decomp.kept_vertices)}

    def unit_flow(v):
        return np.zeros(m) if v == decomp.dropped_vertex else P[:, column_of[v]]

    cycles = np.zeros((decomp.nullity, m))
    for i, k in enumerate(decomp.nontree_edges):
        tail, head = decomp.graph.edges[k]
        cycles[i, k] = 1.0
        cycles[i] += unit_flow(tail) - unit_flow(head)
    return cycles


def tails_reference(tree, mass):
    """Tail masses by one vertex at a time over the reversed visiting order."""
    order, parent_vertex, _, _ = tree._traversal
    F = np.array(mass, dtype=float)
    by_vertex = F.T
    for x in reversed(order[1:]):
        by_vertex[parent_vertex[x]] += by_vertex[x]
    return F


def moved_mass_lp(graph, delta):
    """The moved-mass transportation LP of a balanced delta in dense form.

    One variable per pair in S x T, S = supp(delta < 0) and
    T = supp(delta > 0), costing the pair's hop distance; one row per
    source and per target fixes the plan's marginals to the two parts.
    """
    sources, targets = np.flatnonzero(delta < 0), np.flatnonzero(delta > 0)
    s, t = sources.size, targets.size
    cost = shortest_path_metric(graph)[np.ix_(sources, targets)]
    rows = np.vstack([np.kron(np.eye(s), np.ones(t)), np.tile(np.eye(t), s)])
    rhs = np.concatenate([-delta[sources], delta[targets]])
    return LinearProgram(cost.ravel(), rows, rhs)


def grid_graph(k):
    """The k x k grid, edges pointing right and down, vertices row by row."""
    edges = [(v, v + 1) for v in range(k * k) if (v + 1) % k]
    edges += [(v, v + k) for v in range(k * k - k)]
    return DirectedGraph(tuple(str(v) for v in range(k * k)), tuple(edges))


def reoriented(rng, graph):
    """The graph with each edge flipped with probability 1/2 and a random root."""
    edges = tuple((h, t) if rng.random() < 0.5 else (t, h) for t, h in graph.edges)
    return DirectedGraph(graph.labels, edges, root=int(rng.integers(0, graph.n_vertices)))


def random_epsilon(rng, decomp, scale=0.5):
    """Random element of the cycle space of the decomposition's graph."""
    m = decomp.graph.n_edges
    if decomp.nullity == 0:
        return np.zeros(m)
    coeff = rng.normal(0.0, scale, size=decomp.nullity)
    return coeff @ decomp.cycle_basis


def random_admissible_pair(rng, graph, f0, f1, max_steps=4, decomp=None):
    """Random pair whose flux integral drives f0 to f1.

    Builds the integral as P (f1 - f0) + epsilon for a random circulation
    epsilon, spreads it over randomly sized intervals with random
    per-interval intensity, and factors each interval either at constant
    speed or against a random positive edge distribution.
    """
    if decomp is None:
        decomp = spanning_tree_decomposition(graph)
    m = graph.n_edges
    delta = (np.asarray(f1, float) - np.asarray(f0, float))[list(decomp.kept_vertices)]
    target = decomp.right_inverse @ delta + random_epsilon(rng, decomp)

    steps = int(rng.integers(1, max_steps + 1))
    durations = rng.dirichlet(np.ones(steps))
    intensity = rng.random(steps) + 0.1
    intensity /= intensity @ durations  # so the time integral hits target
    knots = np.concatenate([[0.0], np.cumsum(durations)])
    knots[-1] = 1.0

    v = np.zeros((steps, m))
    g = np.full((steps, m), 1.0 / m)
    for i in range(steps):
        row = intensity[i] * target
        speed = np.abs(row).sum()
        if speed <= 0.0:
            continue
        if rng.random() < 0.5:
            v[i] = np.where(row >= 0.0, 1.0, -1.0) * speed
            g[i] = np.abs(row) / speed
        else:
            mix = rng.dirichlet(np.ones(m))
            g[i] = mix
            v[i] = row / mix
    return EdgePairPath(knots, v, g)


def constant_speed_rows_reference(targets):
    """Constant-speed factorization by one row at a time.

    Row h becomes v = sign(h) |h|_1 (the sign of zero taken as +1) and
    g = |h| / |h|_1; a row with zero total mass becomes v = 0, g = uniform.
    Each speed is summed over its own contiguous copy of the row.
    """
    steps, m = targets.shape
    v = np.zeros((steps, m))
    g = np.full((steps, m), 1.0 / m) if m else np.zeros((steps, 0))
    for i, h in enumerate(targets):
        speed = float(np.abs(h).sum())
        if speed <= 0.0:
            continue
        v[i] = np.where(h >= 0.0, 1.0, -1.0) * speed
        g[i] = np.abs(h) / speed
    return v, g


def dense_pivot_reference(tableau, basis, row, col):
    """The simplex pivot with the full-tableau update: the entering column
    is eliminated from every row, a zero entry included, by one outer
    product the size of the tableau."""
    inv = 1.0 / tableau[row, col]
    tableau[row] *= inv
    tableau[row, col] = 1.0
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row][None, :]
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col
