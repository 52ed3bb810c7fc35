"""Directed graphs, incidence matrices, and the linear algebra of inverting them.

Conventions: the incidence matrix has +1 at an edge's head and -1 at its
tail, the gradient of a vertex function is its drop along each edge, and
the divergence of an edge function is outflow minus inflow. Vertex order
fixes vertex indices and edge order fixes edge indices, both taken from
the construction (or the JSON file) verbatim; edges are never reoriented.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class DirectedGraph:
    """A finite simple connected graph with a fixed edge orientation.

    ``root`` is optional; rooted-tree operations and the dropped row of
    the incidence system fall back to vertex 0 when it is unset.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    root: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(
            self, "edges", tuple((int(t), int(h)) for t, h in self.edges)
        )
        n = len(self.labels)
        if n == 0:
            raise ValidationError("graph needs at least one vertex")
        if len(set(self.labels)) != n:
            raise ValidationError("vertex labels must be distinct")
        seen: set[tuple[int, int]] = set()
        for k, (tail, head) in enumerate(self.edges):
            if not (0 <= tail < n and 0 <= head < n):
                raise ValidationError(f"edge {k} references a vertex out of range")
            if tail == head:
                raise ValidationError(
                    f"edge {k} is a self-loop on vertex {self.labels[tail]!r}"
                )
            key = (min(tail, head), max(tail, head))
            if key in seen:
                raise ValidationError(
                    f"edge {k} duplicates the pair "
                    f"{self.labels[key[0]]!r}--{self.labels[key[1]]!r}"
                )
            seen.add(key)
        if self.root is not None and not (0 <= int(self.root) < n):
            raise ValidationError("root vertex out of range")
        depth = self._traversal[3]
        if -1 in depth:
            raise ValidationError(
                f"graph is not connected: vertex {self.labels[depth.index(-1)]!r} "
                "is unreachable"
            )

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def effective_root(self) -> int:
        return 0 if self.root is None else int(self.root)

    @cached_property
    def incidence(self) -> np.ndarray:
        """The |V| x |E| incidence matrix (read-only view, shared)."""
        return _frozen(build_incidence(self))

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # per vertex: (neighbor, edge index), ascending in edge index
        adj: list[list[tuple[int, int]]] = [[] for _ in self.labels]
        for k, (tail, head) in enumerate(self.edges):
            adj[tail].append((head, k))
            adj[head].append((tail, k))
        return tuple(tuple(entries) for entries in adj)

    @cached_property
    def _traversal(self) -> _Traversal:
        # the one traversal from the root: connectivity check, rooted tree
        return _bfs(self, self.effective_root)

    @cached_property
    def _outward_tree(self) -> _TreeStructure:
        return _orient_tree(self)

    @cached_property
    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        # int64 tail and head index of every edge (read-only, shared)
        tail, head = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        return _frozen(tail.copy()), _frozen(head.copy())

    @cached_property
    def _sweep(self) -> _Sweep:
        return _leaves_to_root(self)

    def is_tree(self) -> bool:
        return self.n_edges == self.n_vertices - 1


_TreeStructure = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]
_Traversal = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
_Sweep = tuple[tuple[np.ndarray, np.ndarray], ...]


def _bfs(graph: DirectedGraph, source: int) -> _Traversal:
    """Breadth-first traversal of the underlying undirected graph.

    Neighbours are visited in ascending edge index. Returns (order,
    parent_vertex, parent_edge, depth) as tuples: ``order`` lists the
    reached vertices in visiting order; the source has parent -1 and
    depth 0, unreached vertices have parent -1 and depth -1.
    """
    n = graph.n_vertices
    parent_vertex = [-1] * n
    parent_edge = [-1] * n
    depth = [-1] * n
    depth[source] = 0
    order = [source]
    # order doubles as the FIFO queue: iteration reaches what is appended
    for x in order:
        for y, k in graph._adjacency[x]:
            if depth[y] < 0:
                depth[y] = depth[x] + 1
                parent_vertex[y] = x
                parent_edge[y] = k
                order.append(y)
    return tuple(order), tuple(parent_vertex), tuple(parent_edge), tuple(depth)


def _leaves_to_root(graph: DirectedGraph) -> _Sweep:
    """Batches (children, parents) that add each vertex into its parent.

    Deepest level first, within a level children in reversed visiting
    order, split by sibling rank so that a parent appears at most once per
    batch. Every parent so receives its children's sums in the order of a
    one-vertex-at-a-time pass over the reversed visiting order.
    """
    order, parent_vertex, _, depth = graph._traversal
    batches: list[tuple[list[int], list[int]]] = []
    level_start, level_depth, rank = 0, -1, {}
    for x in reversed(order[1:]):
        if depth[x] != level_depth:
            level_start, level_depth, rank = len(batches), depth[x], {}
        parent = parent_vertex[x]
        r = rank.get(parent, 0)
        rank[parent] = r + 1
        if level_start + r == len(batches):
            batches.append(([], []))
        children, parents = batches[level_start + r]
        children.append(x)
        parents.append(parent)
    return tuple(
        (_frozen(np.array(children, dtype=np.int64)),
         _frozen(np.array(parents, dtype=np.int64)))
        for children, parents in batches
    )


def _subtree_sums(graph: DirectedGraph, mass: np.ndarray) -> np.ndarray:
    """Add every vertex's entry into its parent's, leaves first, in place.

    ``mass`` is a float array with vertices on its last axis; afterwards
    entry x holds the sum over x's subtree in the graph's breadth-first
    tree, so the root holds the total.
    """
    by_vertex = mass.T
    for children, parents in graph._sweep:
        by_vertex[parents] += by_vertex[children]
    return mass


def tree_flow(graph: DirectedGraph, delta) -> np.ndarray:
    """The flow P . delta of the graph's breadth-first spanning tree.

    On the tree edge ``parent_edge[x]`` it is the mass of ``delta`` summed
    over x's subtree, with sign + when the edge's head is x; non-tree
    edges carry 0. For ``delta`` summing to zero its net inflow at every
    vertex is ``delta``. Takes one vector over the vertices or a stack of
    them, one row each, in O(|V|) per row.
    """
    n = graph.n_vertices
    D = np.array(delta, dtype=float)
    if D.ndim > 2 or D.shape[-1:] != (n,):
        raise ValidationError(
            f"delta has shape {D.shape}, expected ({n},) or (rows, {n})"
        )
    sums = _subtree_sums(graph, D)
    order, _, parent_edge, _ = graph._traversal
    kids = np.array(order[1:], dtype=np.int64)
    edges = np.array(parent_edge, dtype=np.int64)[kids]
    sign = np.where(graph._endpoints[1][edges] == kids, 1.0, -1.0)
    flow = np.zeros(D.shape[:-1] + (graph.n_edges,))
    flow[..., edges] = sign * sums[..., kids]
    return flow


def build_incidence(graph: DirectedGraph) -> np.ndarray:
    """Incidence matrix: +1 at each edge's head, -1 at its tail."""
    tail, head = graph._endpoints
    omega = np.zeros((graph.n_vertices, graph.n_edges))
    omega[tail, np.arange(graph.n_edges)] = -1.0
    omega[head, np.arange(graph.n_edges)] = 1.0
    return omega


def _net_inflow(graph: DirectedGraph, flow: np.ndarray) -> np.ndarray:
    """Incidence . flow from the edge list: inflow minus outflow per vertex.

    Takes one vector over the edges and never builds the dense matrix.
    """
    tail, head = graph._endpoints
    n = graph.n_vertices
    return np.bincount(head, flow, n) - np.bincount(tail, flow, n)


def gradient(omega: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Drop of the vertex function f along each edge: tail value minus head."""
    f = np.asarray(f, dtype=float)
    if f.shape != (omega.shape[0],):
        raise ValidationError(
            f"vertex function has length {f.shape}, expected {omega.shape[0]}"
        )
    return -(omega.T @ f)


def divergence(omega: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Net outflow of the edge function g at each vertex (sums to zero)."""
    g = np.asarray(g, dtype=float)
    if g.shape != (omega.shape[1],):
        raise ValidationError(
            f"edge function has length {g.shape}, expected {omega.shape[1]}"
        )
    return -(omega @ g)


def laplacian(omega: np.ndarray) -> np.ndarray:
    """Graph Laplacian, the incidence matrix times its transpose."""
    return omega @ omega.T


def shortest_path_metric(graph: DirectedGraph) -> np.ndarray:
    """Hop-count distance matrix on the underlying undirected graph."""
    return np.array(
        [_bfs(graph, source)[3] for source in range(graph.n_vertices)],
        dtype=np.int64,
    )


def outward_tree_structure(graph: DirectedGraph) -> _TreeStructure:
    """Validate that the graph is a tree oriented away from its root.

    Returns (root, bfs_order, parent_vertex, parent_edge) as tuples; the
    parent entries of the root are -1. Raises ValidationError naming an
    offending edge when the graph has a cycle or an edge pointing toward
    the root. The structure is computed once and cached on the graph.
    """
    return graph._outward_tree


def _orient_tree(graph: DirectedGraph) -> _TreeStructure:
    root = graph.effective_root
    order, parent_vertex, parent_edge, _ = graph._traversal
    if not graph.is_tree():
        # connected with |E| > |V|-1: an edge the traversal skipped closes a cycle
        taken = set(parent_edge)
        extra = next(k for k in range(graph.n_edges) if k not in taken)
        tail, head = graph.edges[extra]
        raise ValidationError(
            f"not a tree: edge {extra} "
            f"({graph.labels[tail]!r}->{graph.labels[head]!r}) closes a cycle"
        )
    # visiting order decides which inward edge is named
    for y in order[1:]:
        k = parent_edge[y]
        tail, head = graph.edges[k]
        if head != y:
            raise ValidationError(
                f"edge {k} ({graph.labels[tail]!r}->{graph.labels[head]!r}) "
                f"points toward the root {graph.labels[root]!r}"
            )
    return root, order, parent_vertex, parent_edge


def is_outward_tree(graph: DirectedGraph) -> bool:
    try:
        outward_tree_structure(graph)
    except ValidationError:
        return False
    return True


@dataclass(frozen=True)
class SpanningTreeDecomposition:
    """The graph's breadth-first spanning tree and its dense operators.

    Solve paths use ``tree_flow``, which applies ``right_inverse`` in
    O(|V|). The dense views are for operator-identity tests; each is
    built on first access, then cached read-only. ``right_inverse`` P
    satisfies omega-with-dropped-row . P = identity; its column for
    vertex y routes a unit of mass from the dropped vertex to y along
    tree edges, signed by orientation. ``cycle_basis`` rows span the
    kernel of the full incidence matrix, one row per non-tree edge
    (coefficient +1 there, tree edges closing the cycle elsewhere).
    """

    graph: DirectedGraph
    dropped_vertex: int
    tree_edges: tuple[int, ...]
    nontree_edges: tuple[int, ...]
    kept_vertices: tuple[int, ...]

    @property
    def nullity(self) -> int:
        return len(self.nontree_edges)

    @cached_property
    def right_inverse(self) -> np.ndarray:
        graph, dropped = self.graph, self.dropped_vertex
        _, parent_vertex, parent_edge, _ = graph._traversal
        column_of = {v: i for i, v in enumerate(self.kept_vertices)}
        P = np.zeros((graph.n_edges, len(self.kept_vertices)))
        for y in self.kept_vertices:
            x = y
            while x != dropped:
                k = parent_edge[x]
                _, head = graph.edges[k]
                P[k, column_of[y]] = 1.0 if head == x else -1.0
                x = parent_vertex[x]
        return _frozen(P)

    @cached_property
    def cycle_basis(self) -> np.ndarray:
        dropped = self.dropped_vertex
        extra = np.array(self.nontree_edges, dtype=np.int64)
        ends = np.stack(self.graph._endpoints)[:, extra]
        # P's column for vertex v is v, less one past the dropped vertex; no
        # non-tree edge ends there, as the traversal starts at the dropped
        # vertex and so takes each of its edges into the tree
        flows = self.right_inverse.T[ends - (ends > dropped)]
        cycles = flows[0] - flows[1]
        cycles[np.arange(extra.size), extra] = 1.0
        return _frozen(cycles)


def spanning_tree_decomposition(graph: DirectedGraph) -> SpanningTreeDecomposition:
    """The graph's breadth-first tree from its root, the dropped vertex.

    Ties between edges are broken by ascending edge index, so the result
    is reproducible for a given graph.
    """
    dropped = graph.effective_root
    order, _, parent_edge, _ = graph._traversal
    tree_edges = tuple(parent_edge[y] for y in order[1:])
    in_tree = set(tree_edges)
    return SpanningTreeDecomposition(
        graph=graph,
        dropped_vertex=dropped,
        tree_edges=tree_edges,
        nontree_edges=tuple(k for k in range(graph.n_edges) if k not in in_tree),
        kept_vertices=tuple(v for v in range(graph.n_vertices) if v != dropped),
    )


def graph_from_json(payload: dict) -> DirectedGraph:
    """Build a graph from the JSON schema.

    Expected shape::

        {"vertices": ["0", "1"], "edges": [{"tail": "0", "head": "1"}],
         "root": "0"}

    Vertex order fixes vertex indices; edge order fixes edge indices.
    ``root`` may be absent or null.
    """
    if not isinstance(payload, dict):
        raise ValidationError("graph JSON must be an object")
    vertices = payload.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise ValidationError("graph JSON needs a non-empty 'vertices' list")
    labels = tuple(str(v) for v in vertices)
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        raise ValidationError("vertex labels must be distinct")
    raw_edges = payload.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValidationError("graph JSON 'edges' must be a list")
    edges = []
    for k, entry in enumerate(raw_edges):
        if not isinstance(entry, dict) or "tail" not in entry or "head" not in entry:
            raise ValidationError(f"edge {k} must be an object with 'tail' and 'head'")
        tail, head = str(entry["tail"]), str(entry["head"])
        if tail not in index or head not in index:
            raise ValidationError(f"edge {k} references an unknown vertex label")
        edges.append((index[tail], index[head]))
    root = payload.get("root")
    root_index = None
    if root is not None:
        if str(root) not in index:
            raise ValidationError(f"root label {root!r} is not a vertex")
        root_index = index[str(root)]
    return DirectedGraph(labels=labels, edges=tuple(edges), root=root_index)


def graph_to_json(graph: DirectedGraph) -> dict:
    payload = {
        "vertices": list(graph.labels),
        "edges": [
            {"tail": graph.labels[t], "head": graph.labels[h]} for t, h in graph.edges
        ],
    }
    if graph.root is not None:
        payload["root"] = graph.labels[graph.root]
    return payload


def _read_json(path, what: str):
    """Parse a JSON file; an unreadable or malformed one is invalid input."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_graph(path) -> DirectedGraph:
    return graph_from_json(_read_json(path, "graph"))
