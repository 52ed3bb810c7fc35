"""Metamorphic suite: the formulation's symmetries on seeded pools.

Reversing a subset of edges, permuting the edge order, relabelling the
vertices and moving the root pose the same transport problem, so every
W1 route must return the same value. Orientation enters the flows only
as a sign: the spanning-tree flow and the tail flux negate exactly on
reversed edges, and on a tree, whose minimal flow is unique, so does the
Beckmann flow. On every transformed tree the tail form, the transport
equation and energy = W1 still hold for the constant-speed pair.
"""

import numpy as np
import pytest

from got.dynamics import (
    _tail_flux,
    benamou_distance,
    constant_speed_solution_tree,
    energy,
    tail_pde_check,
    transport_residual,
)
from got.generators import random_connected_graph, random_distribution
from got.graphs import DirectedGraph, tree_flow
from got.measures import TimeGrid, Triple, convex_interpolation
from got.transport import w1_auto, w1_beckmann, w1_difference, w1_kantorovich, w1_tree

N_POOLS = 200
TOL = 1e-12


def _pool():
    rng = np.random.default_rng(1801)
    for _ in range(N_POOLS):
        n = int(rng.integers(2, 13))
        graph = random_connected_graph(rng, n, int(rng.integers(0, 4)))
        yield rng, graph, random_distribution(rng, n), random_distribution(rng, n)


def _reversed(rng, graph):
    """Flip a random subset of edges; returns the graph and each edge's sign."""
    flip = rng.random(graph.n_edges) < 0.5
    edges = tuple((h, t) if f else (t, h) for (t, h), f in zip(graph.edges, flip))
    return DirectedGraph(graph.labels, edges, graph.root), np.where(flip, -1.0, 1.0)


def _transforms(rng, graph, f0, f1):
    """(name, graph, f0, f1) for each symmetry, applied one at a time."""
    n = graph.n_vertices
    yield "reversed", _reversed(rng, graph)[0], f0, f1
    perm = rng.permutation(graph.n_edges)
    edges = tuple(graph.edges[k] for k in perm)
    yield "edge order", DirectedGraph(graph.labels, edges, graph.root), f0, f1
    new = rng.permutation(n)  # vertex v becomes new[v]
    labels = [""] * n
    for v, label in enumerate(graph.labels):
        labels[new[v]] = label
    edges = tuple((int(new[t]), int(new[h])) for t, h in graph.edges)
    moved = DirectedGraph(labels, edges, int(new[graph.effective_root]))
    g0, g1 = np.empty(n), np.empty(n)
    g0[new], g1[new] = f0, f1
    yield "relabelled", moved, g0, g1
    root = int(rng.integers(0, n))
    yield "rerooted", DirectedGraph(graph.labels, graph.edges, root), f0, f1


def _w1_routes(graph, f0, f1):
    values = {
        "kantorovich": w1_kantorovich(graph, f0, f1)[0],
        "beckmann": w1_beckmann(graph, f0, f1)[0],
        "auto": w1_auto(graph, f0, f1),
        "benamou": benamou_distance(graph, f0, f1)[0],
        "difference": w1_difference(graph, f1 - f0),
    }
    if graph.is_tree():
        values["tree"] = w1_tree(graph, f0, f1)
    return values


def test_w1_is_invariant_under_the_symmetries():
    worst = 0.0
    for rng, graph, f0, f1 in _pool():
        base = w1_beckmann(graph, f0, f1)[0]
        for name, other, g0, g1 in _transforms(rng, graph, f0, f1):
            for route, value in _w1_routes(other, g0, g1).items():
                gap = abs(value - base)
                assert gap <= TOL, (name, route, graph.edges, value, base)
                worst = max(worst, gap)
    print(f"W1 under reversal, edge order, relabelling, root: worst gap {worst:.1e}")


def test_flows_negate_on_reversed_edges():
    for rng, graph, f0, f1 in _pool():
        other, sign = _reversed(rng, graph)
        delta = np.stack([f1 - f0, f0 - f1, f1])
        # -0.0 and 0.0 are equal: off the tree both flows are zero
        assert np.array_equal(tree_flow(other, delta), sign * tree_flow(graph, delta))
        if not graph.is_tree():
            continue
        path = convex_interpolation(f0, f1, TimeGrid(int(rng.integers(1, 4))))
        assert np.array_equal(_tail_flux(other, path), sign * _tail_flux(graph, path))
        flow = w1_beckmann(graph, f0, f1)[1]
        assert np.abs(w1_beckmann(other, f0, f1)[1] - sign * flow).max() <= TOL


def test_tail_form_and_energy_hold_on_transformed_trees():
    checked = 0
    for rng, graph, f0, f1 in _pool():
        if not graph.is_tree():
            continue
        for name, tree, g0, g1 in _transforms(rng, graph, f0, f1):
            path = convex_interpolation(g0, g1, TimeGrid(int(rng.integers(1, 5))))
            triple = Triple(path, constant_speed_solution_tree(tree, path))
            assert tail_pde_check(triple, tree).max_abs_residual <= TOL, name
            residual = transport_residual(triple, tree.incidence)
            assert residual.max_abs_residual <= TOL, name
            value = energy(triple.pair, 2.0).value
            assert value == pytest.approx(w1_tree(tree, g0, g1), abs=TOL), name
            checked += 1
    assert checked >= 200
