import numpy as np
import pytest

from got.errors import ValidationError
from got.generators import (
    random_connected_graph,
    random_distribution,
    random_tree,
)
from got.graphs import DirectedGraph, build_incidence, shortest_path_metric
from got.measures import integrate_pair, tv_distance
from got.transport import (
    beckmann_flow,
    flow_to_constant_pair,
    w1_auto,
    w1_beckmann,
    w1_difference,
    w1_kantorovich,
    w1_tree,
)
from got.worked_examples import binomial_example, path_graph
from helpers import grid_graph, moved_mass_lp

STAR3 = DirectedGraph(("0", "1", "2", "3"), ((0, 1), (0, 2), (0, 3)), root=0)
CYCLE4 = DirectedGraph(("0", "1", "2", "3"), ((0, 1), (1, 2), (3, 2), (0, 3)), root=0)
F0_CYCLE = np.array([0.25, 0.25, 0.25, 0.25])
F1_CYCLE = np.array([0.09, 0.01, 0.09, 0.81])


def test_w1_tree_examples():
    path = path_graph(3)
    uniform = np.ones(3) / 3
    assert w1_tree(path, uniform, uniform) == 0.0
    assert w1_tree(path, [1, 0, 0], [0, 0, 1]) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        w1_tree(CYCLE4, F0_CYCLE, F1_CYCLE)


def test_w1_tree_binomial():
    example = binomial_example()
    tree_value = w1_tree(example.graph, example.f0, example.f1)
    oracle, _ = w1_kantorovich(example.graph, example.f0, example.f1)
    assert tree_value == pytest.approx(2.5, abs=1e-12)
    assert abs(tree_value - oracle) <= 1e-8


def test_kantorovich_examples():
    uniform = np.ones(4) / 4
    value, plan = w1_kantorovich(STAR3, uniform, uniform)
    assert value <= 1e-9
    value, _ = w1_kantorovich(STAR3, [0, 1, 0, 0], [0, 0, 1, 0])
    assert value == pytest.approx(2.0)
    value, plan = w1_kantorovich(CYCLE4, F0_CYCLE, F1_CYCLE)
    assert value == pytest.approx(0.8, abs=1e-9)
    assert np.abs(plan.sum(axis=1) - F0_CYCLE).max() <= 1e-8
    assert np.abs(plan.sum(axis=0) - F1_CYCLE).max() <= 1e-8


def test_beckmann_examples():
    single = DirectedGraph(("0", "1"), ((0, 1),))
    value, J = w1_beckmann(single, [1, 0], [1, 0])
    assert value == pytest.approx(0.0, abs=1e-12)
    value, J = w1_beckmann(single, [1, 0], [0, 1])
    assert value == pytest.approx(1.0)
    assert J == pytest.approx([1.0])
    value, J = w1_beckmann(CYCLE4, F0_CYCLE, F1_CYCLE)
    oracle, _ = w1_kantorovich(CYCLE4, F0_CYCLE, F1_CYCLE)
    assert abs(value - oracle) <= 1e-8
    omega = build_incidence(CYCLE4)
    assert np.abs(omega @ J - (F1_CYCLE - F0_CYCLE)).max() <= 1e-8


def test_beckmann_rejects_unbalanced():
    with pytest.raises(ValidationError, match="sum to zero"):
        beckmann_flow(CYCLE4, np.array([1.0, 0, 0, 0]))


def test_flow_to_constant_pair():
    pair = flow_to_constant_pair(np.array([1.0]))
    assert pair.v[0] == pytest.approx([1.0])
    assert pair.g[0] == pytest.approx([1.0])

    pair = flow_to_constant_pair(np.array([0.3, -0.5]))
    assert pair.v[0] == pytest.approx([0.8, -0.8])
    assert pair.g[0] == pytest.approx([0.375, 0.625])

    degenerate = flow_to_constant_pair(np.zeros(3))
    assert np.abs(degenerate.v).max() == 0.0
    assert degenerate.g[0] == pytest.approx([1 / 3] * 3)


def test_flow_pair_energy_matches_total_flow():
    from got.dynamics import energy

    _, J = w1_beckmann(CYCLE4, F0_CYCLE, F1_CYCLE)
    pair = flow_to_constant_pair(J)
    total = np.abs(J).sum()
    for q in (1.0, 2.0, 3.0):
        assert energy(pair, q).value == pytest.approx(total, abs=1e-12)


def test_flow_pair_drives_the_difference():
    rng = np.random.default_rng(0)
    for _ in range(10):
        graph = random_connected_graph(rng, int(rng.integers(2, 9)), 2)
        f0 = random_distribution(rng, graph.n_vertices)
        f1 = random_distribution(rng, graph.n_vertices)
        _, J = w1_beckmann(graph, f0, f1)
        path = integrate_pair(f0, flow_to_constant_pair(J), build_incidence(graph))
        assert np.abs(path.samples[-1] - f1).max() <= 1e-9


def test_w1_auto_dispatch():
    example = binomial_example()
    assert w1_auto(example.graph, example.f0, example.f1) == pytest.approx(
        w1_tree(example.graph, example.f0, example.f1)
    )
    value, _ = w1_beckmann(CYCLE4, F0_CYCLE, F1_CYCLE)
    assert w1_auto(CYCLE4, F0_CYCLE, F1_CYCLE) == pytest.approx(value)


@pytest.mark.parametrize("seed", range(10))
def test_w1_auto_matches_oracle(seed):
    rng = np.random.default_rng(600 + seed)
    if seed % 2:
        graph = random_tree(rng, int(rng.integers(2, 10)))
    else:
        graph = random_connected_graph(rng, int(rng.integers(2, 9)), 3)
    f0 = random_distribution(rng, graph.n_vertices)
    f1 = random_distribution(rng, graph.n_vertices)
    oracle, _ = w1_kantorovich(graph, f0, f1)
    assert abs(w1_auto(graph, f0, f1) - oracle) <= 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_metric_axioms(seed):
    rng = np.random.default_rng(700 + seed)
    graph = random_connected_graph(rng, 7, 2)
    n = graph.n_vertices
    a = random_distribution(rng, n)
    b = random_distribution(rng, n)
    c = random_distribution(rng, n)
    w = lambda x, y: w1_kantorovich(graph, x, y)[0]
    assert abs(w(a, b) - w(b, a)) <= 1e-8
    assert w(a, c) <= w(a, b) + w(b, c) + 1e-8
    assert w(a, a) <= 1e-9
    metric = shortest_path_metric(graph)
    x, y = rng.integers(0, n, size=2)
    dx = np.zeros(n)
    dx[x] = 1.0
    dy = np.zeros(n)
    dy[y] = 1.0
    assert abs(w(dx, dy) - metric[x, y]) <= 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_tv_lower_bound(seed):
    rng = np.random.default_rng(800 + seed)
    graph = random_connected_graph(rng, 8, 2)
    f0 = random_distribution(rng, 8)
    f1 = random_distribution(rng, 8)
    value, _ = w1_beckmann(graph, f0, f1)
    assert tv_distance(f0, f1) <= value + 1e-8


def test_w1_difference_matches_kantorovich():
    rng = np.random.default_rng(5)
    for _ in range(5):
        graph = random_connected_graph(rng, 6, 2)
        f0 = random_distribution(rng, 6)
        f1 = random_distribution(rng, 6)
        direct, _ = w1_kantorovich(graph, f0, f1)
        assert abs(w1_difference(graph, f1 - f0) - direct) <= 1e-8
    # signed vector beyond any distribution pair: scale invariance
    delta = np.array([3.0, -1.0, -1.0, -1.0])
    star_value = w1_difference(STAR3, delta)
    assert star_value == pytest.approx(3.0)


PATH3 = path_graph(3)


@pytest.mark.parametrize(
    "delta, expected",
    [
        # gain parts heavier than the loss parts within the zero-sum tolerance
        ([-1e-6, 0.0, 1e-6 + 1e-10], 2e-6),
        ([-0.5, 0.0, 0.5 + 5e-10], 1.0),
        ([-1e-3, 0.0, 1e-3], 2e-3),
    ],
)
def test_w1_difference_couples_unnormalized_parts(delta, expected):
    assert w1_difference(PATH3, delta) == pytest.approx(expected, rel=1e-9)


def test_equal_endpoints_move_nothing():
    rng = np.random.default_rng(21)
    graph = random_connected_graph(rng, 7, 2)
    f = random_distribution(rng, 7)
    value, plan = w1_kantorovich(graph, f, f)
    assert value == 0.0
    assert np.array_equal(plan, np.diag(f))
    assert w1_difference(graph, np.zeros(7)) == 0.0


def test_point_masses_give_the_hop_distance():
    rng = np.random.default_rng(22)
    graph = random_connected_graph(rng, 9, 3)
    metric = shortest_path_metric(graph)
    point = np.eye(9)
    for x, y in ((0, 8), (3, 5), (7, 1), (4, 4)):
        value, plan = w1_kantorovich(graph, point[x], point[y])
        assert value == metric[x, y]
        assert plan[x, y] == 1.0 and plan.sum() == 1.0


def test_disjoint_supports_move_everything():
    f0 = np.array([0.5, 0.5, 0.0, 0.0])
    f1 = np.array([0.0, 0.0, 0.25, 0.75])
    value, plan = w1_kantorovich(CYCLE4, f0, f1)
    metric = shortest_path_metric(CYCLE4)
    assert value == pytest.approx(1.25, abs=1e-12)
    assert not np.diag(plan).any()
    assert abs(float((plan * metric).sum()) - value) <= 1e-12


def _round_off(rng, f0):
    """f0 with a few positive entries moved by a few ulps, all one way."""
    f1 = f0.copy()
    where = np.flatnonzero(f0 > 0.0)
    where = rng.choice(where, size=int(rng.integers(1, where.size + 1)), replace=False)
    ulps = rng.integers(1, 100, size=where.size) * 2.0**-52
    f1[where] *= 1.0 + (ulps if rng.random() < 0.5 else -ulps)
    return f1


@pytest.mark.parametrize("seed, kind", [(2410, "distinct"), (2411, "equal"), (2412, "round-off")])
def test_kantorovich_plan_is_a_coupling_of_the_inputs(seed, kind):
    # only the moved block is certified: the diagonal min(f0, f1) and the rows
    # and columns outside S and T must complete it to a coupling by themselves
    rng = np.random.default_rng(seed)
    for _ in range(25):
        n = int(rng.integers(2, 61))
        graph = random_connected_graph(rng, n, int(rng.integers(0, n // 5 + 2)))
        f0 = random_distribution(rng, n)
        if kind == "distinct":
            f1 = random_distribution(rng, n)
        else:
            f1 = f0.copy() if kind == "equal" else _round_off(rng, f0)
        delta = f1 - f0
        if kind == "round-off":
            assert delta.any() and ((delta >= 0.0).all() or (delta <= 0.0).all())
        value, plan = w1_kantorovich(graph, f0, f1)
        assert plan.min() >= 0.0
        assert np.abs(plan.sum(axis=1) - f0).max() <= 1e-8
        assert np.abs(plan.sum(axis=0) - f1).max() <= 1e-8
        assert abs(float((plan * shortest_path_metric(graph)).sum()) - value) <= 1e-12
        if kind != "distinct":
            assert value == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_w1_difference_scales_with_delta(seed):
    rng = np.random.default_rng(900 + seed)
    graph = random_connected_graph(rng, 8, 2)
    f0 = random_distribution(rng, 8)
    f1 = random_distribution(rng, 8)
    value, _ = w1_kantorovich(graph, f0, f1)
    assert abs(w1_difference(graph, 3 * (f1 - f0)) - 3 * value) <= 1e-12


def test_balance_checks_scale_with_the_difference():
    # a balanced difference of size 1e8 sums to round-off of about 1e-8 and
    # leaves residuals of that size in both engines; the checks scale with
    # its largest entry, so both routes value every instance
    rng = np.random.default_rng(0)
    for _ in range(40):
        graph = random_connected_graph(rng, 40, 4)
        delta = random_distribution(rng, 40) - random_distribution(rng, 40)
        delta[-1] = -delta[:-1].sum()
        delta *= 1e8
        reference = 1e8 * w1_difference(graph, delta / 1e8)
        coupled = w1_difference(graph, delta)
        flow_value, _ = beckmann_flow(graph, delta)
        assert abs(coupled - reference) <= 1e-12 * reference
        assert abs(flow_value - reference) <= 1e-12 * reference
        assert abs(coupled - flow_value) <= 1e-12 * coupled


def test_coupling_lp_is_on_the_moved_mass_only(monkeypatch):
    import got.graphs
    import got.transport

    shapes = []
    solve = got.transport.network_simplex

    def recording(n_nodes, tail, head, cost, supply):
        shapes.append((n_nodes, len(tail)))
        return solve(n_nodes, tail, head, cost, supply)

    def forbidden(*args):
        raise AssertionError("the coupling built the full metric or a dense LP")

    monkeypatch.setattr(got.transport, "network_simplex", recording)
    monkeypatch.setattr(got.transport, "solve_lp", forbidden)
    monkeypatch.setattr(got.graphs, "shortest_path_metric", forbidden)
    monkeypatch.setattr(got.transport, "shortest_path_metric", forbidden, raising=False)
    f0 = np.array([0.25, 0.25, 0.25, 0.25])
    f1 = np.array([0.05, 0.45, 0.0, 0.5])  # S = {0, 2}, T = {1, 3}
    value, _ = w1_kantorovich(CYCLE4, f0, f1)
    assert w1_difference(CYCLE4, f1 - f0) == value
    assert shapes == [(4, 4), (4, 4)]
    f1 = np.array([0.0, 0.0, 0.0, 1.0])  # S = {0, 1, 2}, T = {3}
    w1_kantorovich(CYCLE4, f0, f1)
    assert shapes[-1] == (4, 3)


def _highs_coupling(graph, f0, f1):
    """The full |V|^2 coupling LP by HiGHS, with networkx hop costs."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    nx = pytest.importorskip("networkx")
    n = graph.n_vertices
    hops = dict(nx.shortest_path_length(nx.Graph(list(graph.edges))))
    cost = np.array([[hops[x][y] for y in range(n)] for x in range(n)], dtype=float)
    rows = np.vstack([np.kron(np.eye(n), np.ones(n)), np.tile(np.eye(n), n)])
    # HiGHS's default 1e-7 feasibility tolerances leave the optimum off by ~1e-7
    res = linprog(cost.ravel(), A_eq=rows, b_eq=np.concatenate([f0, f1]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.fun), cost


@pytest.mark.parametrize("pool", ["small", "large"])
def test_coupling_matches_highs_full_lp(pool):
    pytest.importorskip("scipy")
    pytest.importorskip("networkx")
    rng = np.random.default_rng(1000 if pool == "small" else 1001)
    sizes = rng.integers(2, 31, size=30) if pool == "small" else [60, 60]
    for n in sizes:
        n = int(n)
        graph = random_connected_graph(rng, n, int(rng.integers(0, n // 5 + 2)))
        f0 = random_distribution(rng, n)
        f1 = random_distribution(rng, n)
        reference, cost = _highs_coupling(graph, f0, f1)
        value, plan = w1_kantorovich(graph, f0, f1)
        assert abs(value - reference) <= 1e-9
        assert abs(float((plan * cost).sum()) - value) <= 1e-12


def test_coupling_solver_error_names_the_parts(monkeypatch):
    import got.transport
    from got.errors import SolverError

    # a plan that moves nothing: the engine's result fails the certificate
    monkeypatch.setattr(
        got.transport,
        "network_simplex",
        lambda n, tail, head, cost, supply: (np.zeros(len(tail)), np.zeros(n, np.int64), 0),
    )
    message = r"ended infeasible on the moved mass \(\|S\|=2, \|T\|=1\); the parts carry 0.5 and 0.5"
    with pytest.raises(SolverError, match=message):
        w1_difference(PATH3, [-0.25, -0.25, 0.5])


def _dense_moved_mass(graph, delta):
    """The moved-mass transportation LP through the dense two-phase simplex."""
    from got.simplex import solve_lp

    if not ((delta < 0).any() and (delta > 0).any()):
        return 0.0
    solution = solve_lp(moved_mass_lp(graph, delta))
    assert solution.status == "optimal"
    return solution.objective_value


def _pool_pair(rng, family, n):
    """Endpoint distributions of one differential pool."""
    if family == "random":
        return random_distribution(rng, n), random_distribution(rng, n)
    if family == "equal":
        f = random_distribution(rng, n)
        return f, f.copy()
    if family == "points":
        point = np.eye(n)
        return point[int(rng.integers(n))], point[int(rng.integers(n))]
    if family == "disjoint":
        side = rng.permutation(n) < max(1, n // 2)
        f0, f1 = np.where(side, rng.random(n), 0.0), np.where(side, 0.0, rng.random(n))
        return f0 / f0.sum(), f1 / f1.sum()
    # uniform masses on random supports: many tied, degenerate pivots
    f0 = (rng.random(n) < 0.6).astype(float)
    f0[int(rng.integers(n))] = 1.0
    f1 = np.ones(n)
    return f0 / f0.sum(), f1 / f1.sum()


@pytest.mark.parametrize(
    "seed, family", enumerate(["random", "equal", "points", "disjoint", "uniform"])
)
def test_network_simplex_matches_the_dense_simplex(seed, family):
    rng = np.random.default_rng(1600 + seed)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        graph = random_connected_graph(rng, n, int(rng.integers(0, 4)))
        f0, f1 = _pool_pair(rng, family, n)
        value, plan = w1_kantorovich(graph, f0, f1)
        assert abs(value - _dense_moved_mass(graph, f1 - f0)) <= 1e-12
        metric = shortest_path_metric(graph)
        assert abs(float((plan * metric).sum()) - value) <= 1e-12


@pytest.mark.parametrize(
    "delta, expected", [([-0.5, 0.0, 0.5 + 5e-10], 1.0), ([-1e-6, 0.0, 1e-6 + 1e-10], 2e-6)]
)
def test_network_simplex_leaves_only_the_imbalance(delta, expected):
    from got._network import network_simplex
    from got.errors import SolverError

    assert w1_difference(PATH3, delta) == expected
    supply = np.array([-delta[0], -delta[2]])
    arc = np.array([0]), np.array([1]), np.array([2])  # tail, head, cost
    flow, potential, pivots = network_simplex(2, *arc, supply)
    assert flow[0] == -delta[0] and pivots == 1
    assert potential[1] - potential[0] == 2
    with pytest.raises(SolverError, match="artificial arcs"):
        network_simplex(2, *arc, supply + [0, -2e-9])


def test_network_simplex_rejects_a_negative_cycle():
    from got._network import network_simplex
    from got.errors import SolverError

    with pytest.raises(SolverError, match="negative-cost cycle"):
        network_simplex(2, np.array([0, 1]), np.array([1, 0]), np.array([-1, 0]), np.zeros(2))


PATH4 = path_graph(4)


@pytest.mark.parametrize("broken", ["plan", "potentials"])
def test_coupling_certificate_rejects_a_non_optimal_result(monkeypatch, broken):
    import got.transport
    from got.errors import SolverError

    solve = got.transport.network_simplex

    def non_optimal(n_nodes, tail, head, cost, supply):
        flow, potential, pivots = solve(n_nodes, tail, head, cost, supply)
        if broken == "plan":
            # S = {0, 2}, T = {1, 3}: 0 -> 3 and 2 -> 1 is feasible and costs 2, not 1
            return np.array([0.0, 0.5, 0.5, 0.0]), potential, pivots
        return flow, potential + np.arange(n_nodes), pivots

    monkeypatch.setattr(got.transport, "network_simplex", non_optimal)
    message = r"cost 0, duality gap 1\.000e\+00" if broken == "plan" else "min reduced cost -2"
    with pytest.raises(SolverError, match=rf"ended unproven on the moved mass .*{message}"):
        w1_difference(PATH4, [-0.5, 0.5, -0.5, 0.5])


def _highs_beckmann(graph, delta):
    """Beckmann's minimal flow by HiGHS, on the edge list alone."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    tail, head = np.array(graph.edges).T
    m = graph.n_edges
    omega = np.zeros((graph.n_vertices, m))
    omega[head, np.arange(m)] = 1.0
    omega[tail, np.arange(m)] = -1.0
    res = linprog(np.ones(2 * m), A_eq=np.hstack([omega, -omega]), b_eq=delta,
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.fun)


def test_coupling_at_scale_matches_highs_and_repeats_bit_for_bit(monkeypatch):
    import got.transport

    pytest.importorskip("scipy")
    rng = np.random.default_rng(1700)
    graphs = [random_connected_graph(rng, n, n // 10) for n in (120, 200)] + [grid_graph(12)]
    instances = [
        (g, random_distribution(rng, g.n_vertices), random_distribution(rng, g.n_vertices))
        for g in graphs
    ]
    for graph, f0, f1 in instances:
        value, _ = w1_kantorovich(graph, f0, f1)
        assert abs(value - _highs_beckmann(graph, f1 - f0)) <= 1e-9

    solve, results = got.transport.network_simplex, []

    def recording(*args):
        results.append(solve(*args))
        return results[-1]

    monkeypatch.setattr(got.transport, "network_simplex", recording)
    graph, f0, f1 = instances[0]
    (first, plan), (second, again) = w1_kantorovich(graph, f0, f1), w1_kantorovich(graph, f0, f1)
    assert first == second and np.array_equal(plan, again)
    (flow, potential, pivots), (flow2, potential2, pivots2) = results
    assert np.array_equal(flow, flow2) and np.array_equal(potential, potential2)
    assert pivots == pivots2 > 0


@pytest.mark.parametrize("family", ["tree", "sparse", "grid"])
def test_beckmann_at_scale(family):
    # hundreds of vertices, beyond the 2-12-vertex pools; the flow LP of
    # the 1000-vertex tree has 1000 rows and 2998 columns
    from got.graphs import _net_inflow
    from got.transport import BALANCE_TOL

    rng = np.random.default_rng(1800)
    if family == "tree":
        graph = random_tree(rng, 1000)
    elif family == "sparse":
        graph = random_connected_graph(rng, 400, 40)
    else:
        graph = grid_graph(20)
    f0 = random_distribution(rng, graph.n_vertices)
    f1 = random_distribution(rng, graph.n_vertices)
    if family == "tree":
        reference = w1_tree(graph, f0, f1)
    else:
        reference = _highs_beckmann(graph, f1 - f0)
    value, flow = w1_beckmann(graph, f0, f1)
    assert abs(value - reference) <= (1e-12 * reference if family == "tree" else 1e-9)
    assert np.abs(_net_inflow(graph, flow) - (f1 - f0)).max() <= BALANCE_TOL
