"""Random graphs and distributions for tests."""

from __future__ import annotations

import numpy as np

from .graphs import DirectedGraph


def random_tree(rng: np.random.Generator, n_vertices: int) -> DirectedGraph:
    """Random recursive tree rooted at 0 with outward edges.

    Each vertex v >= 1 attaches below a uniformly chosen earlier vertex;
    edge order is shuffled so edge indices carry no structure.
    """
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n_vertices)]
    order = rng.permutation(len(edges))
    edges = [edges[i] for i in order]
    labels = tuple(str(i) for i in range(n_vertices))
    return DirectedGraph(labels=labels, edges=tuple(edges), root=0)


def random_connected_graph(
    rng: np.random.Generator, n_vertices: int, extra_edges: int = 0
) -> DirectedGraph:
    """Random tree plus up to ``extra_edges`` chords with random orientation."""
    tree = random_tree(rng, n_vertices)
    edges = list(tree.edges)
    used = {(min(t, h), max(t, h)) for t, h in edges}
    attempts = 0
    added = 0
    while added < extra_edges and attempts < 50 * (extra_edges + 1):
        attempts += 1
        x, y = rng.integers(0, n_vertices, size=2)
        x, y = int(x), int(y)
        if x == y or (min(x, y), max(x, y)) in used:
            continue
        used.add((min(x, y), max(x, y)))
        edges.append((x, y))
        added += 1
    order = rng.permutation(len(edges))
    edges = [edges[i] for i in order]
    return DirectedGraph(labels=tree.labels, edges=tuple(edges), root=0)


def random_distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random probability vector; occasionally sparse to exercise zeros."""
    weights = rng.random(n)
    if n > 1 and rng.random() < 0.3:
        dead = rng.random(n) < 0.4
        if dead.all():
            dead[int(rng.integers(0, n))] = False
        weights[dead] = 0.0
    if weights.sum() <= 0.0:
        weights[int(rng.integers(0, n))] = 1.0
    return weights / weights.sum()
