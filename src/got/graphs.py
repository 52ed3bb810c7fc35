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

from .errors import ValidationError, _floats, _is_index, _is_json_number


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class DirectedGraph:
    """A finite simple connected graph with a fixed edge orientation.

    Edge endpoints and ``root`` are vertex indices: ints or numpy
    integers, never bools or floats, stored as ints. ``root`` is optional;
    tree operations and the dropped row of the incidence system fall back
    to vertex 0 when it is unset.

    Construction checks, in this order: at least one label, distinct
    labels, an integer root, the root in range; then one pass over the
    edges in order, each a (tail, head) pair of integers, in range, not a
    self-loop and not a duplicate of an earlier pair either way round;
    last, that the root reaches every vertex. The first failed check
    raises ValidationError. The same pass keeps ``_adjacency`` (per
    vertex, (neighbour, edge index) in ascending edge index) and
    ``_endpoints`` (the read-only int64 tail and head arrays), and the
    connectivity check keeps ``_traversal``, the breadth-first traversal
    from the root (see ``_bfs``).
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    root: int | None = None

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        n, root = len(labels), self.root
        if n == 0:
            raise ValidationError("graph needs at least one vertex")
        if len(set(labels)) != n:
            raise ValidationError("vertex labels must be distinct")
        if root is not None:
            if not _is_index(root):
                raise ValidationError(f"root {root!r} is not an integer vertex index")
            if not 0 <= root < n:
                raise ValidationError("root vertex out of range")
            root = int(root)
        edges, seen = [], set()
        adjacency: list[list[tuple[int, int]]] = [[] for _ in labels]
        for k, edge in enumerate(self.edges):
            try:
                tail, head = edge
            except (TypeError, ValueError):
                raise ValidationError(
                    f"edge {k} {edge!r} is not a (tail, head) pair"
                ) from None
            if not (_is_index(tail) and _is_index(head)):
                raise ValidationError(
                    f"edge {k} ({tail!r}, {head!r}) has a vertex index "
                    "that is not an integer"
                )
            tail, head = int(tail), int(head)
            if not (0 <= tail < n and 0 <= head < n):
                raise ValidationError(f"edge {k} references a vertex out of range")
            if tail == head:
                raise ValidationError(f"edge {k} is a self-loop on vertex {labels[tail]!r}")
            key = (tail, head) if tail < head else (head, tail)
            if key in seen:
                raise ValidationError(
                    f"edge {k} duplicates the pair "
                    f"{labels[key[0]]!r}--{labels[key[1]]!r}"
                )
            seen.add(key)
            edges.append((tail, head))
            adjacency[tail].append((head, k))
            adjacency[head].append((tail, k))
        ends = _frozen(np.array(edges, dtype=np.int64).reshape(-1, 2).T.copy())
        # a frozen dataclass: fields and kept structures go in through __dict__
        vars(self).update(
            labels=labels, edges=tuple(edges), root=root,
            _adjacency=tuple(tuple(entries) for entries in adjacency),
            _endpoints=tuple(ends),
        )
        vars(self)["_traversal"] = _bfs(self, self.effective_root)
        depth = self._traversal[3]
        if -1 in depth:
            raise ValidationError(
                f"graph is not connected: vertex {labels[depth.index(-1)]!r} "
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
        return 0 if self.root is None else self.root

    @cached_property
    def incidence(self) -> np.ndarray:
        """The |V| x |E| incidence matrix (read-only view, shared)."""
        return _frozen(build_incidence(self))

    @cached_property
    def _sweep(self) -> _Sweep:
        return _leaves_to_root(self)

    @cached_property
    def _tree_edge_table(self) -> tuple[np.ndarray, np.ndarray]:
        # per edge: its carrier, the endpoint farther from the root in the
        # breadth-first tree, and its sign, +1.0 when the carrier is the
        # head, -1.0 when it is the tail, 0.0 off the tree (read-only)
        _, _, parent_edge, depth = np.array(self._traversal, dtype=np.int64)
        tail, head = self._endpoints
        carrier = np.where(depth[tail] > depth[head], tail, head)
        # a tree edge is the parent edge of its carrier
        in_tree = parent_edge[carrier] == np.arange(self.n_edges)
        sign = np.where(in_tree, np.where(carrier == head, 1.0, -1.0), 0.0)
        return _frozen(carrier), _frozen(sign)

    def is_tree(self) -> bool:
        return self.n_edges == self.n_vertices - 1


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

    One batch per depth level below the root, deepest level first; within
    a level the children stay in reversed visiting order, and a parent
    with several children appears once for each (``_subtree_sums`` adds
    repeats with ``np.add.at``). A star's leaves so make one batch, a
    path's vertices one batch each.
    """
    order, parent_vertex, _, depth = np.array(graph._traversal, dtype=np.int64)
    children = order[:0:-1]
    levels = np.split(children, np.flatnonzero(np.diff(depth[children])) + 1)
    return tuple(
        (_frozen(level), _frozen(parent_vertex[level]))
        for level in levels
        if level.size
    )


def _subtree_sums(graph: DirectedGraph, mass: np.ndarray) -> np.ndarray:
    """Add every vertex's entry into its parent's, leaves first.

    ``mass`` is a float array with vertices on its last axis; the result,
    a view of ``mass`` when it is C-contiguous, holds at entry x the sum over
    x's subtree in the graph's breadth-first tree, so the root holds the
    total. One unbuffered ``np.add.at`` per level on the flattened rows
    adds a parent's children one at a time in the batch's order, the order
    of a one-vertex-at-a-time pass over the reversed visiting order.
    """
    flat = mass.ravel()
    by_row = flat.reshape(mass.shape)
    offset = np.arange(0, flat.size, graph.n_vertices)[:, None]
    for children, parents in graph._sweep:
        np.add.at(flat, (offset + parents).ravel(), by_row[..., children].ravel())
    return by_row


def _on_edges(graph: DirectedGraph, by_vertex: np.ndarray) -> np.ndarray:
    """Each edge's entry of a per-vertex vector or (rows x |V|) stack.

    An edge reads its carrier's entry times its sign from the tree-edge
    table: signed by orientation on the tree, zero off it.
    """
    carrier, sign = graph._tree_edge_table
    return by_vertex[..., carrier] * sign


def tree_flow(graph: DirectedGraph, delta) -> np.ndarray:
    """The flow P . delta of the graph's breadth-first spanning tree.

    On each tree edge it is the mass of ``delta`` summed over the subtree
    of the edge's deeper endpoint, with sign + when the edge's head is
    that endpoint; non-tree edges carry (possibly negative) zero. For
    ``delta`` summing to zero its net inflow at every vertex is
    ``delta``. Takes one vector over the vertices or a stack of them, one
    row each, in O(|V|) per row.
    """
    D = _floats(delta, graph.n_vertices, "delta", rows=True)
    return _on_edges(graph, _subtree_sums(graph, D))


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
    f = _floats(f, omega.shape[0], "vertex function")
    return -(omega.T @ f)


def divergence(omega: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Net outflow of the edge function g at each vertex (sums to zero)."""
    g = _floats(g, omega.shape[1], "edge function")
    return -(omega @ g)


def shortest_path_metric(graph: DirectedGraph) -> np.ndarray:
    """Hop-count distance matrix on the underlying undirected graph."""
    return np.array(
        [_bfs(graph, source)[3] for source in range(graph.n_vertices)],
        dtype=np.int64,
    )


def _require_tree(graph: DirectedGraph) -> None:
    """Raise ValidationError naming an edge that closes a cycle, if any.

    Edges may point either way: the tree functions read each edge at its
    deeper endpoint in the breadth-first tree from the root.
    """
    if graph.is_tree():
        return
    # connected with |E| > |V|-1: an edge the traversal skipped closes a cycle
    extra = int(np.flatnonzero(graph._tree_edge_table[1] == 0.0)[0])
    tail, head = graph.edges[extra]
    raise ValidationError(
        f"not a tree: edge {extra} "
        f"({graph.labels[tail]!r}->{graph.labels[head]!r}) closes a cycle"
    )


@dataclass(frozen=True)
class SpanningTreeDecomposition:
    """The graph's breadth-first spanning tree and its dense operators.

    Solve paths use ``tree_flow``, which applies ``right_inverse`` in
    O(|V|). The dense views are for operator-identity tests; each is
    built on first access, then cached read-only. ``right_inverse`` P
    satisfies omega-with-dropped-row . P = identity; its column for
    vertex y routes a unit of mass from the dropped vertex to y along
    tree edges, each entry the edge's sign in the graph's tree-edge
    table; ``nontree_edges`` are the edges of sign 0, ascending.
    ``cycle_basis`` rows span the kernel of the full incidence matrix, one
    row per non-tree edge (coefficient +1 there, tree edges closing the
    cycle elsewhere).
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
        sign = graph._tree_edge_table[1]
        column_of = {v: i for i, v in enumerate(self.kept_vertices)}
        P = np.zeros((graph.n_edges, len(self.kept_vertices)))
        for y in self.kept_vertices:
            x = y
            while x != dropped:
                k = parent_edge[x]
                P[k, column_of[y]] = sign[k]
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
    off_tree = np.flatnonzero(graph._tree_edge_table[1] == 0.0)
    return SpanningTreeDecomposition(
        graph=graph,
        dropped_vertex=dropped,
        tree_edges=tuple(parent_edge[y] for y in order[1:]),
        nontree_edges=tuple(off_tree.tolist()),
        kept_vertices=tuple(v for v in range(graph.n_vertices) if v != dropped),
    )


def _json_label(value, what: str) -> str:
    """A vertex label read from JSON: a string, or a number as its text."""
    if isinstance(value, str) or _is_json_number(value):
        return str(value)
    raise ValidationError(f"{what} must be a string or a number, got {value!r}")


def graph_from_json(payload: dict) -> DirectedGraph:
    """Build a graph from the JSON schema.

    Expected shape::

        {"vertices": ["0", "1"], "edges": [{"tail": "0", "head": "1"}],
         "root": "0"}

    Vertex order fixes vertex indices; edge order fixes edge indices.
    ``root`` may be absent or null. Labels, tails, heads and the root are
    JSON strings or numbers, a number standing for its text.
    """
    if not isinstance(payload, dict):
        raise ValidationError("graph JSON must be an object")
    vertices = payload.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise ValidationError("graph JSON needs a non-empty 'vertices' list")
    labels = tuple(_json_label(v, f"vertex {i} label") for i, v in enumerate(vertices))
    index = {label: i for i, label in enumerate(labels)}
    raw_edges = payload.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValidationError("graph JSON 'edges' must be a list")
    edges = []
    for k, entry in enumerate(raw_edges):
        if not isinstance(entry, dict) or "tail" not in entry or "head" not in entry:
            raise ValidationError(f"edge {k} must be an object with 'tail' and 'head'")
        tail = _json_label(entry["tail"], f"edge {k} tail")
        head = _json_label(entry["head"], f"edge {k} head")
        if tail not in index or head not in index:
            raise ValidationError(f"edge {k} references an unknown vertex label")
        edges.append((index[tail], index[head]))
    root = payload.get("root")
    root_index = None
    if root is not None:
        root = _json_label(root, "root label")
        if root not in index:
            raise ValidationError(f"root label {root!r} is not a vertex")
        root_index = index[root]
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
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, digit limits
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_graph(path) -> DirectedGraph:
    return graph_from_json(_read_json(path, "graph"))
