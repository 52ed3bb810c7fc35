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

    def is_tree(self) -> bool:
        return self.n_edges == self.n_vertices - 1

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown vertex label {label!r}") from None


_TreeStructure = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]
_Traversal = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


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


def build_incidence(graph: DirectedGraph) -> np.ndarray:
    """Incidence matrix: +1 at each edge's head, -1 at its tail."""
    omega = np.zeros((graph.n_vertices, graph.n_edges))
    for k, (tail, head) in enumerate(graph.edges):
        omega[tail, k] = -1.0
        omega[head, k] = 1.0
    return omega


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
    """A spanning tree's right inverse of the reduced incidence matrix.

    ``right_inverse`` P satisfies omega-with-dropped-row . P = identity;
    its column for vertex y routes a unit of mass from the dropped vertex
    to y along tree edges, signed by orientation. ``cycle_basis`` rows
    span the kernel of the full incidence matrix, one row per non-tree
    edge (coefficient +1 there, tree edges closing the cycle elsewhere).
    """

    graph: DirectedGraph
    dropped_vertex: int
    tree_edges: tuple[int, ...]
    nontree_edges: tuple[int, ...]
    kept_vertices: tuple[int, ...]
    right_inverse: np.ndarray
    cycle_basis: np.ndarray

    @property
    def nullity(self) -> int:
        return self.cycle_basis.shape[0]


def spanning_tree_decomposition(graph: DirectedGraph) -> SpanningTreeDecomposition:
    """The graph's breadth-first tree from its root, the dropped vertex.

    Ties between edges are broken by ascending edge index, so the result
    is reproducible for a given graph.
    """
    n, m = graph.n_vertices, graph.n_edges
    dropped = graph.effective_root
    order, parent_vertex, parent_edge, _ = graph._traversal
    tree_edges = tuple(parent_edge[y] for y in order[1:])
    in_tree = set(tree_edges)
    nontree_edges = tuple(k for k in range(m) if k not in in_tree)

    kept = tuple(v for v in range(n) if v != dropped)
    column_of = {v: i for i, v in enumerate(kept)}
    P = np.zeros((m, n - 1)) if n > 1 else np.zeros((m, 0))
    for y in kept:
        x = y
        while x != dropped:
            k = parent_edge[x]
            _, head = graph.edges[k]
            P[k, column_of[y]] = 1.0 if head == x else -1.0
            x = parent_vertex[x]

    def unit_flow(v: int) -> np.ndarray:
        return np.zeros(m) if v == dropped else P[:, column_of[v]]

    cycles = np.zeros((len(nontree_edges), m))
    for i, k in enumerate(nontree_edges):
        tail, head = graph.edges[k]
        cycles[i, k] = 1.0
        cycles[i] += unit_flow(tail) - unit_flow(head)

    return SpanningTreeDecomposition(
        graph=graph,
        dropped_vertex=dropped,
        tree_edges=tree_edges,
        nontree_edges=nontree_edges,
        kept_vertices=kept,
        right_inverse=_frozen(P),
        cycle_basis=_frozen(cycles),
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
