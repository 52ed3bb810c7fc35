import numpy as np
import pytest

from got.errors import ValidationError
from got.generators import random_connected_graph, random_tree
from got.graphs import (
    DirectedGraph,
    _net_inflow,
    build_incidence,
    divergence,
    gradient,
    graph_from_json,
    graph_to_json,
    is_outward_tree,
    laplacian,
    outward_tree_structure,
    shortest_path_metric,
    spanning_tree_decomposition,
    tree_flow,
)
from got.dynamics import constant_speed_solution_graph
from got.generators import random_distribution
from helpers import cycle_basis_reference, incidence_reference, row_reduction_rank

SINGLE = DirectedGraph(("0", "1"), ((0, 1),))
PATH3 = DirectedGraph(("0", "1", "2"), ((0, 1), (1, 2)), root=0)
STAR3 = DirectedGraph(("0", "1", "2", "3"), ((0, 1), (0, 2), (0, 3)), root=0)
CYCLE4 = DirectedGraph(("0", "1", "2", "3"), ((0, 1), (1, 2), (3, 2), (0, 3)), root=0)


def test_incidence_single_edge():
    assert np.array_equal(build_incidence(SINGLE), [[-1.0], [1.0]])


def test_incidence_path():
    assert np.array_equal(
        build_incidence(PATH3), [[-1, 0], [1, -1], [0, 1]]
    )


def test_incidence_star_center_row():
    omega = build_incidence(STAR3)
    assert np.array_equal(omega[0], [-1, -1, -1])
    assert np.array_equal(omega.sum(axis=0), np.zeros(3))


def test_incidence_matches_edge_loop():
    rng = np.random.default_rng(910)
    graphs = [DirectedGraph(("a",), ()), SINGLE, PATH3, STAR3, CYCLE4]
    for _ in range(20):
        n = int(rng.integers(2, 40))
        graphs.append(random_connected_graph(rng, n, int(rng.integers(0, n))))
    for graph in graphs:
        omega = build_incidence(graph)
        reference = incidence_reference(graph)
        assert omega.shape == reference.shape and omega.flags.c_contiguous
        assert omega.tobytes() == reference.tobytes()


@pytest.mark.parametrize("seed", range(50))
def test_net_inflow_is_the_incidence_product(seed):
    rng = np.random.default_rng(1100 + seed)
    n = int(rng.integers(1, 40))
    graph = random_connected_graph(rng, n, int(rng.integers(0, n + 1)))
    omega = build_incidence(graph)
    # a flow moving at most one unit of mass, the scale of every solve path
    flow = rng.random(graph.n_edges) - 0.5
    flow /= max(1.0, np.abs(flow).sum())
    assert np.abs(_net_inflow(graph, flow) - omega @ flow).max() <= 1e-15
    whole = rng.integers(-9, 10, size=graph.n_edges).astype(float)
    assert np.array_equal(_net_inflow(graph, whole), omega @ whole)


def test_graph_validation():
    with pytest.raises(ValidationError, match="self-loop"):
        DirectedGraph(("a", "b"), ((0, 0),))
    with pytest.raises(ValidationError, match="duplicates"):
        DirectedGraph(("a", "b"), ((0, 1), (1, 0)))
    with pytest.raises(ValidationError, match="not connected"):
        DirectedGraph(("a", "b", "c"), ((0, 1),))
    with pytest.raises(ValidationError, match="distinct"):
        DirectedGraph(("a", "a"), ((0, 1),))


def test_gradient_examples():
    assert gradient(build_incidence(SINGLE), [3.0, 5.0]) == pytest.approx([-2.0])
    assert gradient(build_incidence(PATH3), [7.0, 7.0, 7.0]) == pytest.approx([0, 0])
    assert gradient(build_incidence(PATH3), [1.0, 0.0, 0.0]) == pytest.approx([1, 0])
    with pytest.raises(ValidationError):
        gradient(build_incidence(PATH3), [1.0, 2.0])


def test_divergence_examples():
    assert divergence(build_incidence(SINGLE), [1.0]) == pytest.approx([1, -1])
    out = divergence(build_incidence(STAR3), [1 / 3, 1 / 3, 1 / 3])
    assert out == pytest.approx([1.0, -1 / 3, -1 / 3, -1 / 3])
    with pytest.raises(ValidationError):
        divergence(build_incidence(STAR3), [1.0])


def test_laplacian_examples():
    assert np.array_equal(laplacian(build_incidence(SINGLE)), [[1, -1], [-1, 1]])
    assert np.array_equal(
        laplacian(build_incidence(PATH3)),
        [[1, -1, 0], [-1, 2, -1], [0, -1, 1]],
    )


@pytest.mark.parametrize("seed", range(8))
def test_operator_identities_random(seed):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, int(rng.integers(2, 11)), int(rng.integers(0, 4)))
    omega = build_incidence(graph)
    f = rng.normal(size=graph.n_vertices)
    g = rng.normal(size=graph.n_edges)
    # adjointness: <grad f, g> = <f, div g> = -f', Omega g
    lhs = gradient(omega, f) @ g
    rhs = f @ divergence(omega, g)
    assert abs(lhs - rhs) <= 1e-12
    assert abs(lhs - (-(f @ omega @ g))) <= 1e-12
    # divergence sums to zero
    assert abs(divergence(omega, g).sum()) <= 1e-12
    # laplacian agrees entrywise and annihilates constants
    lap = laplacian(omega)
    assert np.allclose(lap, omega @ omega.T)
    assert np.abs(lap @ np.ones(graph.n_vertices)).max() <= 1e-12
    assert np.allclose(lap @ f, divergence(omega, gradient(omega, f)))
    # rank of the incidence matrix
    assert row_reduction_rank(omega) == graph.n_vertices - 1


def test_metric_examples():
    assert shortest_path_metric(PATH3)[0, 2] == 2
    d = shortest_path_metric(STAR3)
    assert d[1, 2] == 2
    assert all(d[0, i] == 1 for i in (1, 2, 3))
    assert shortest_path_metric(CYCLE4)[0, 2] == 2


@pytest.mark.parametrize("seed", range(5))
def test_metric_axioms_random(seed):
    rng = np.random.default_rng(100 + seed)
    graph = random_connected_graph(rng, 8, 3)
    d = shortest_path_metric(graph)
    n = graph.n_vertices
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(n, dtype=d.dtype))
    assert d[~np.eye(n, dtype=bool)].min() >= 1
    for x in range(n):
        for y in range(n):
            assert (d[x] <= d[x, y] + d[y]).all()


def test_decomposition_tree_is_exact_inverse():
    decomp = spanning_tree_decomposition(PATH3)
    assert decomp.nontree_edges == ()
    assert decomp.cycle_basis.shape == (0, 2)
    omega = build_incidence(PATH3)
    reduced = np.delete(omega, decomp.dropped_vertex, axis=0)
    assert np.allclose(reduced @ decomp.right_inverse, np.eye(2))
    assert np.allclose(decomp.right_inverse @ reduced, np.eye(2))


def test_decomposition_four_cycle():
    decomp = spanning_tree_decomposition(CYCLE4)
    assert len(decomp.nontree_edges) == 1
    assert decomp.cycle_basis.shape == (1, 4)
    eps = decomp.cycle_basis[0]
    assert set(np.abs(eps)) == {1.0}
    assert np.abs(build_incidence(CYCLE4) @ eps).max() == 0.0


def test_cycle_basis_matches_edge_loop():
    rng = np.random.default_rng(920)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        shape = random_connected_graph(rng, n, int(rng.integers(0, 2 * n + 1)))
        graph = DirectedGraph(shape.labels, shape.edges, root=int(rng.integers(0, n)))
        decomp = spanning_tree_decomposition(graph)
        reference = cycle_basis_reference(decomp)
        assert decomp.cycle_basis.shape == reference.shape
        assert decomp.cycle_basis.tobytes() == reference.tobytes()


@pytest.mark.parametrize("seed", range(50))
def test_decomposition_random(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 11))
    graph = random_connected_graph(rng, n, int(rng.integers(0, 5)))
    decomp = spanning_tree_decomposition(graph)
    omega = build_incidence(graph)
    reduced = np.delete(omega, decomp.dropped_vertex, axis=0)
    assert np.abs(reduced @ decomp.right_inverse - np.eye(n - 1)).max() <= 1e-10
    assert len(decomp.tree_edges) == n - 1
    expected_nullity = graph.n_edges - n + 1
    assert decomp.nullity == expected_nullity
    if expected_nullity:
        assert np.abs(omega @ decomp.cycle_basis.T).max() <= 1e-10
        assert row_reduction_rank(decomp.cycle_basis) == expected_nullity
    # right inverse is supported on tree edges only
    for k in decomp.nontree_edges:
        assert np.abs(decomp.right_inverse[k]).max() == 0.0


def test_outward_tree_checks():
    assert is_outward_tree(PATH3)
    inward = DirectedGraph(("0", "1", "2"), ((0, 1), (2, 1)), root=0)
    with pytest.raises(ValidationError, match="points toward the root"):
        outward_tree_structure(inward)
    with pytest.raises(ValidationError, match="closes a cycle"):
        outward_tree_structure(CYCLE4)
    assert not is_outward_tree(CYCLE4)


def test_structure_errors_name_the_offending_edge():
    # edges 0 and 1 both point toward the root; the one met first is named
    inward = DirectedGraph(("0", "1", "2"), ((2, 1), (1, 0)), root=0)
    with pytest.raises(ValidationError) as info:
        outward_tree_structure(inward)
    assert str(info.value) == "edge 1 ('1'->'0') points toward the root '0'"
    with pytest.raises(ValidationError) as info:
        outward_tree_structure(CYCLE4)
    assert str(info.value) == "not a tree: edge 2 ('3'->'2') closes a cycle"
    with pytest.raises(ValidationError) as info:
        outward_tree_structure(DirectedGraph(CYCLE4.labels, CYCLE4.edges, root=2))
    assert str(info.value) == "not a tree: edge 3 ('0'->'3') closes a cycle"
    with pytest.raises(ValidationError) as info:
        DirectedGraph(("a", "b", "c", "d"), ((2, 3), (0, 1)))
    assert str(info.value) == "graph is not connected: vertex 'c' is unreachable"
    # the lowest-index vertex the root cannot reach is named
    with pytest.raises(ValidationError) as info:
        DirectedGraph(("a", "b", "c", "d"), ((2, 3), (0, 1)), root=2)
    assert str(info.value) == "graph is not connected: vertex 'a' is unreachable"


def rerooted(graph, root):
    return DirectedGraph(graph.labels, graph.edges, root=root)


def test_outward_tree_explicit_root():
    # outward from vertex 1, not from the default root 0
    graph = DirectedGraph(("0", "1", "2"), ((1, 0), (1, 2)))
    assert not is_outward_tree(graph)
    assert is_outward_tree(rerooted(graph, 1))
    expected = (1, (1, 0, 2), (1, -1, 1), (0, -1, 1))
    assert outward_tree_structure(rerooted(graph, 1)) == expected
    assert not is_outward_tree(rerooted(PATH3, 2))
    assert is_outward_tree(rerooted(STAR3, 0))
    assert not is_outward_tree(rerooted(STAR3, 3))
    for bad in (-1, 3):
        with pytest.raises(ValidationError, match="root vertex out of range"):
            rerooted(PATH3, bad)


def test_cached_tree_structure_is_shared_and_immutable():
    structure = outward_tree_structure(STAR3)
    assert outward_tree_structure(STAR3) is structure
    assert structure == (0, (0, 1, 2, 3), (-1, 0, 0, 0), (-1, 0, 1, 2))
    assert all(isinstance(part, tuple) for part in structure[1:])
    tail, head = CYCLE4._endpoints
    assert CYCLE4._endpoints[0] is tail
    assert tail.dtype == head.dtype == np.int64
    assert tail.tolist() == [0, 1, 3, 0] and head.tolist() == [1, 2, 2, 3]
    with pytest.raises(ValueError):
        head[0] = 0
    assert DirectedGraph(("a",), ())._endpoints[0].shape == (0,)


def _check_tree_flow(graph, rng):
    n = graph.n_vertices
    decomp = spanning_tree_decomposition(graph)
    kept = list(decomp.kept_vertices)
    tail, head = np.array(graph.edges, dtype=np.int64).reshape(-1, 2).T
    rows = [random_distribution(rng, n) - random_distribution(rng, n) for _ in range(4)]
    for delta in (rows[0], np.stack(rows)):
        flow = tree_flow(graph, delta)
        assert flow.shape == delta.shape[:-1] + (graph.n_edges,)
        dense = (decomp.right_inverse @ delta[..., kept].T).T
        assert np.abs(flow - dense).max(initial=0.0) <= 1e-15
        # net inflow at every vertex is delta
        for row, out in zip(np.atleast_2d(delta), np.atleast_2d(flow)):
            net = np.bincount(head, out, n) - np.bincount(tail, out, n)
            assert np.abs(net - row).max() <= 1e-15
        assert not flow[..., list(decomp.nontree_edges)].any()


def test_tree_flow_is_the_right_inverse():
    rng = np.random.default_rng(900)
    graphs = [DirectedGraph(("a",), ())]
    graphs += [DirectedGraph(SINGLE.labels, SINGLE.edges, root=root) for root in (0, 1)]
    for _ in range(50):
        n = int(rng.integers(3, 60))
        shape = random_connected_graph(rng, n, int(rng.integers(0, n)))
        graphs.append(DirectedGraph(shape.labels, shape.edges, root=int(rng.integers(1, n))))
    for graph in graphs:
        _check_tree_flow(graph, rng)
    assert tree_flow(graphs[0], [0.0]).shape == (0,)
    assert tree_flow(SINGLE, [-1.0, 1.0]) == pytest.approx([1.0])
    assert tree_flow(graphs[2], [-1.0, 1.0]) == pytest.approx([1.0])
    assert tree_flow(DirectedGraph(("0", "1"), ((1, 0),)), [-1.0, 1.0]) == pytest.approx(
        [-1.0]
    )
    for bad in (np.zeros(3), np.zeros((2, 1, 2))):
        with pytest.raises(ValidationError, match="delta has shape"):
            tree_flow(SINGLE, bad)


def test_dense_views_are_built_on_first_access_only():
    rng = np.random.default_rng(902)
    graph = random_connected_graph(rng, 30, 8)
    decomp = spanning_tree_decomposition(graph)
    constant_speed_solution_graph(
        decomp, random_distribution(rng, 30), random_distribution(rng, 30)
    )
    assert "right_inverse" not in vars(decomp)
    assert "cycle_basis" not in vars(decomp)
    assert decomp.nullity == graph.n_edges - graph.n_vertices + 1
    for name in ("right_inverse", "cycle_basis"):
        view = getattr(decomp, name)
        assert getattr(decomp, name) is view
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


@pytest.mark.parametrize("seed", range(6))
def test_metric_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(2, 40))
    graph = random_connected_graph(rng, n, int(rng.integers(0, 2 * n)))
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(graph.edges)
    lengths = dict(nx.shortest_path_length(reference))
    expected = np.array([[lengths[x][y] for y in range(n)] for x in range(n)])
    assert np.array_equal(shortest_path_metric(graph), expected)


@pytest.mark.parametrize("seed", range(5))
def test_random_tree_is_outward(seed):
    rng = np.random.default_rng(300 + seed)
    tree = random_tree(rng, 9)
    assert tree.is_tree()
    assert is_outward_tree(tree)


def test_graph_json_round_trip():
    payload = graph_to_json(CYCLE4)
    again = graph_from_json(payload)
    assert again.labels == CYCLE4.labels
    assert again.edges == CYCLE4.edges
    assert again.root == CYCLE4.root


def test_graph_json_errors():
    with pytest.raises(ValidationError):
        graph_from_json({"edges": []})
    with pytest.raises(ValidationError, match="unknown vertex"):
        graph_from_json({"vertices": ["0"], "edges": [{"tail": "0", "head": "9"}]})
    with pytest.raises(ValidationError, match="root"):
        graph_from_json({"vertices": ["0", "1"],
                         "edges": [{"tail": "0", "head": "1"}], "root": "9"})
