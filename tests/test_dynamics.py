import numpy as np
import pytest

from got import graphs
from got.dynamics import (
    ResidualReport,
    TailResidualReport,
    benamou_distance,
    concatenate_pairs,
    constant_speed_norm,
    constant_speed_solution_graph,
    constant_speed_solution_tree,
    energy,
    geodesic,
    reduced_constraint_check,
    reverse_pair,
    tail_pde_check,
    transport_residual,
)
from got.errors import ValidationError
from got.generators import (
    random_connected_graph,
    random_distribution,
    random_tree,
)
from got.graphs import (
    DirectedGraph,
    build_incidence,
    spanning_tree_decomposition,
)
from got.measures import (
    EdgePairPath,
    TimeGrid,
    Triple,
    VertexPath,
    convex_interpolation,
    integrate_pair,
    tails,
    zero_pair,
)
from got.transport import (
    flow_to_constant_pair,
    w1_auto,
    w1_beckmann,
    w1_kantorovich,
    w1_tree,
)
from got.worked_examples import binomial_example, path_graph, star_graph
from helpers import random_admissible_pair, random_epsilon, reoriented, tails_reference

CYCLE4 = DirectedGraph(("0", "1", "2", "3"), ((0, 1), (1, 2), (3, 2), (0, 3)), root=0)
F0_CYCLE = np.array([0.25, 0.25, 0.25, 0.25])
F1_CYCLE = np.array([0.09, 0.01, 0.09, 0.81])


def _tree_instance(seed, n_max=10):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, int(rng.integers(2, n_max)))
    f0 = random_distribution(rng, tree.n_vertices)
    f1 = random_distribution(rng, tree.n_vertices)
    return rng, tree, f0, f1


def test_transport_residual_of_integrated_pair_is_zero():
    rng = np.random.default_rng(1)
    graph = random_connected_graph(rng, 7, 3)
    f0 = random_distribution(rng, 7)
    f1 = random_distribution(rng, 7)
    pair = random_admissible_pair(rng, graph, f0, f1)
    omega = build_incidence(graph)
    path = integrate_pair(f0, pair, omega)
    report = transport_residual(Triple(path, pair), omega)
    assert report.max_abs_residual <= 1e-13


def test_transport_residual_of_stationary_path_reads_the_flux():
    omega = build_incidence(CYCLE4)
    pair = EdgePairPath.constant([1.0, 1.0, 1.0, 1.0], [0.25] * 4, steps=3)
    path = convex_interpolation(F0_CYCLE, F0_CYCLE, TimeGrid(3))
    report = transport_residual(Triple(path, pair), omega)
    flux = omega @ (pair.v[0] * pair.g[0])
    assert report.max_abs_residual == pytest.approx(np.abs(flux).max())


def test_transport_residual_binomial_is_second_order():
    for steps, bound in ((100, 5e-5), (200, 1.3e-5)):
        example = binomial_example(steps=steps)
        report = transport_residual(example.triple, example.graph.incidence)
        assert report.max_abs_residual <= bound


def test_residuals_with_nothing_to_compare_are_zero():
    # no vertices: transport_residual's gap has no entries, like the others'
    pair = EdgePairPath.constant([1.0, -1.0], [0.5, 0.5], steps=2)
    empty = Triple(VertexPath(TimeGrid(2).knots, np.zeros((3, 0))), pair)
    assert transport_residual(empty, np.zeros((0, 2))) == ResidualReport(0.0, 0, 0)
    assert reduced_constraint_check(pair, np.zeros((0, 2)), [], []) == 0.0
    # no edges
    point = DirectedGraph(("a",), ())
    still = Triple(VertexPath(TimeGrid(2).knots, np.ones((3, 1))), zero_pair(0, 2))
    assert tail_pde_check(still, point) == TailResidualReport(0.0, 0, 0)


def test_energy_examples():
    assert energy(zero_pair(3, steps=2), 2.0).value == 0.0
    for q in (0.5, np.nan, np.inf):
        with pytest.raises(ValidationError):
            energy(zero_pair(3), q)
    example = binomial_example(steps=50)
    assert energy(example.triple.pair, 2.0).value == pytest.approx(2.5, abs=1e-9)


@pytest.mark.parametrize("speed", [1e200, 1e-120, 2.0, 0.0])
@pytest.mark.parametrize("q", [1.0, 3.0, 1100.0, 1e308])
def test_energy_neither_overflows_nor_underflows(speed, q):
    # a constant pair of speed |v| has energy |v| for every q
    pair = EdgePairPath.constant([speed, -speed], [0.25, 0.75], steps=2)
    report = energy(pair, q)
    assert report.value == pytest.approx(speed, rel=1e-15)
    assert report.per_knot_speed == pytest.approx([speed, speed], rel=1e-15)


def test_tail_pde_examples():
    path3 = path_graph(3)
    f0 = np.array([1.0, 0.0, 0.0])
    f1 = np.array([0.0, 0.0, 1.0])
    fpath = convex_interpolation(f0, f1, TimeGrid(4))
    pair = constant_speed_solution_tree(path3, fpath)
    report = tail_pde_check(Triple(fpath, pair), path3)
    assert report.max_abs_residual <= 1e-13

    example = binomial_example(steps=200)
    report = tail_pde_check(example.triple, example.graph)
    assert report.max_abs_residual <= 1e-3

    star = star_graph(3)
    sf0 = np.array([0.7, 0.1, 0.1, 0.1])
    sf1 = np.array([0.1, 0.3, 0.3, 0.3])
    spath = convex_interpolation(sf0, sf1, TimeGrid(5))
    spair = constant_speed_solution_tree(star, spath)
    report = tail_pde_check(Triple(spath, spair), star)
    assert report.max_abs_residual <= 1e-13
    with pytest.raises(ValidationError):
        tail_pde_check(Triple(spath, spair), CYCLE4)


@pytest.mark.parametrize("n_edges", [1, 3])
def test_tail_pde_check_rejects_a_pair_on_other_edges(n_edges):
    path3 = path_graph(3)
    fpath = convex_interpolation([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], TimeGrid(2))
    pair = EdgePairPath.constant(np.ones(n_edges), np.full(n_edges, 1.0 / n_edges), 2)
    with pytest.raises(ValidationError, match=f"pair has {n_edges} edges, expected 2"):
        tail_pde_check(Triple(fpath, pair), path3)


@pytest.mark.parametrize("seed", range(8))
def test_constant_speed_tree_solution(seed):
    _, tree, f0, f1 = _tree_instance(seed)
    fpath = convex_interpolation(f0, f1, TimeGrid(6))
    pair = constant_speed_solution_tree(tree, fpath)
    omega = build_incidence(tree)
    assert transport_residual(Triple(fpath, pair), omega).max_abs_residual <= 1e-13
    w1 = w1_tree(tree, f0, f1)
    speeds = energy(pair, 1.0).per_knot_speed
    assert np.abs(speeds - w1).max() <= 1e-12  # constant speed along the path
    for q in (1.0, 2.0, 3.0):
        assert energy(pair, q).value == pytest.approx(w1, abs=1e-12)
    assert np.abs(pair.g.sum(axis=1) - 1.0).max() <= 1e-12


def test_constant_speed_tree_stationary():
    tree = path_graph(4)
    f0 = np.full(4, 0.25)
    fpath = convex_interpolation(f0, f0, TimeGrid(3))
    pair = constant_speed_solution_tree(tree, fpath)
    assert np.abs(pair.v).max() == 0.0
    assert np.allclose(pair.g, 1.0 / 3.0)


def test_constant_speed_tree_rejects_non_finite_samples():
    samples = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, np.nan]])
    # the path refuses the samples before any pair can be built
    with pytest.raises(ValidationError, match="non-finite"):
        fpath = VertexPath(np.array([0.0, 1.0]), samples)
        constant_speed_solution_tree(path_graph(3), fpath)


def test_tree_pipeline_traverses_the_tree_once(monkeypatch):
    # construction, tree structure and decomposition share one traversal
    rng, tree, f0, f1 = _tree_instance(42, n_max=30)
    cyclic = random_connected_graph(rng, tree.n_vertices, 6)
    calls = []
    traverse = graphs._bfs

    def counting(graph, source):
        calls.append(source)
        return traverse(graph, source)

    monkeypatch.setattr(graphs, "_bfs", counting)
    for shape, root in ((tree, 0), (cyclic, int(rng.integers(1, tree.n_vertices)))):
        calls.clear()
        graph = DirectedGraph(shape.labels, shape.edges, root=root)
        is_tree = graph.is_tree()
        assert is_tree == (shape is tree)
        decomp = spanning_tree_decomposition(graph)
        assert decomp.dropped_vertex == root
        constant_speed_solution_graph(decomp, f0, f1)
        if is_tree:
            w1_tree(graph, f0, f1)
            path = geodesic(graph, f0, f1, TimeGrid(5))
            pair = constant_speed_solution_tree(graph, path)
            tail_pde_check(Triple(path, pair), graph)
        assert calls == [root]


def test_tree_functions_take_any_orientation_and_root():
    rng = np.random.default_rng(630)
    for _ in range(120):
        tree = reoriented(rng, random_tree(rng, int(rng.integers(2, 13))))
        f0 = random_distribution(rng, tree.n_vertices)
        f1 = random_distribution(rng, tree.n_vertices)
        oracle, _ = w1_kantorovich(tree, f0, f1)
        assert abs(w1_tree(tree, f0, f1) - oracle) <= 1e-12
        assert abs(w1_auto(tree, f0, f1) - oracle) <= 1e-12
        path = convex_interpolation(f0, f1, TimeGrid(int(rng.integers(1, 6))))
        triple = Triple(path, constant_speed_solution_tree(tree, path))
        assert tail_pde_check(triple, tree).max_abs_residual <= 1e-12
        assert transport_residual(triple, tree.incidence).max_abs_residual <= 1e-12
        assert abs(energy(triple.pair, 2.0).value - oracle) <= 1e-12
        mass = rng.normal(size=(3, tree.n_vertices))
        assert tails(tree, mass).tobytes() == tails_reference(tree, mass).tobytes()
    cyclic = reoriented(rng, random_connected_graph(rng, 8, 3))
    f = random_distribution(rng, 8)
    path = convex_interpolation(f, f, TimeGrid(2))
    pair = zero_pair(cyclic.n_edges, steps=2)
    for call in (
        lambda: w1_tree(cyclic, f, f),
        lambda: tails(cyclic, f),
        lambda: constant_speed_solution_tree(cyclic, path),
        lambda: tail_pde_check(Triple(path, pair), cyclic),
    ):
        with pytest.raises(ValidationError, match=r"not a tree: edge \d+ .* closes a cycle"):
            call()


def test_constant_speed_tree_binomial_speed():
    example = binomial_example(steps=100)
    pair = constant_speed_solution_tree(example.graph, example.triple.path)
    speeds = energy(pair, 1.0).per_knot_speed
    assert np.abs(speeds - 2.5).max() <= 1e-6


def test_speed_identity_on_trees():
    # per-interval speed equals the static distance between knots over dt
    _, tree, f0, f1 = _tree_instance(123)
    fpath = convex_interpolation(f0, f1, TimeGrid(5))
    pair = constant_speed_solution_tree(tree, fpath)
    speeds = energy(pair, 1.0).per_knot_speed
    dt = 1.0 / 5.0
    for i in range(5):
        step = w1_tree(tree, fpath.samples[i], fpath.samples[i + 1]) / dt
        assert abs(speeds[i] - step) <= 1e-8


def test_constant_speed_graph_matches_tree_on_trees():
    _, tree, f0, f1 = _tree_instance(7)
    decomp = spanning_tree_decomposition(tree)
    pair = constant_speed_solution_graph(decomp, f0, f1)
    fpath = convex_interpolation(f0, f1, TimeGrid(1))
    tree_pair = constant_speed_solution_tree(tree, fpath)
    assert np.abs(pair.flux() - tree_pair.flux()).max() <= 1e-12


def test_constant_speed_graph_epsilon_scan_minimum_is_w1():
    decomp = spanning_tree_decomposition(CYCLE4)
    base = constant_speed_solution_graph(decomp, F0_CYCLE, F1_CYCLE).flux()[0]
    direction = decomp.cycle_basis[0]
    # |v|(c) is piecewise linear in c; its minimum sits at a kink
    kinks = sorted(
        -base[k] / direction[k] for k in range(4) if direction[k] != 0.0
    )
    values = [
        constant_speed_norm(decomp, F0_CYCLE, F1_CYCLE, c * direction)
        for c in kinks
    ]
    best, _ = w1_beckmann(CYCLE4, F0_CYCLE, F1_CYCLE)
    assert min(values) == pytest.approx(best, abs=1e-10)
    # convexity along the scan
    mid = 0.5 * (kinks[0] + kinks[-1])
    assert constant_speed_norm(
        decomp, F0_CYCLE, F1_CYCLE, mid * direction
    ) <= 0.5 * (values[0] + values[-1]) + 1e-12


def test_constant_speed_graph_rejects_non_circulation():
    decomp = spanning_tree_decomposition(CYCLE4)
    with pytest.raises(ValidationError, match="circulation"):
        constant_speed_solution_graph(
            decomp, F0_CYCLE, F1_CYCLE, np.array([1.0, 0.0, 0.0, 0.0])
        )
    # nan > CIRCULATION_TOL is False: non-finite entries get their own message
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="cycle vector contains non-finite"):
            constant_speed_solution_graph(
                decomp, F0_CYCLE, F1_CYCLE, np.array([bad, 0.0, 0.0, 0.0])
            )


def test_circulation_check_scales_with_epsilon():
    # a true circulation of size 1e7 drifts by round-off of that size; a
    # unit change on one edge at the same scale is still no circulation
    for seed in range(10):
        rng = np.random.default_rng(seed)
        graph = random_connected_graph(rng, 30, 6)
        decomp = spanning_tree_decomposition(graph)
        epsilon = (rng.normal(size=decomp.nullity) * 1e7) @ decomp.cycle_basis
        f0 = random_distribution(rng, 30)
        f1 = random_distribution(rng, 30)
        constant_speed_solution_graph(decomp, f0, f1, epsilon)
        epsilon[0] += 1.0
        with pytest.raises(ValidationError, match="not a circulation"):
            constant_speed_solution_graph(decomp, f0, f1, epsilon)


def test_reduced_constraint_examples():
    omega = build_incidence(CYCLE4)
    _, J = w1_beckmann(CYCLE4, F0_CYCLE, F1_CYCLE)
    pair = flow_to_constant_pair(J)
    assert reduced_constraint_check(pair, omega, F0_CYCLE, F1_CYCLE) <= 1e-9
    still = zero_pair(4)
    gap = reduced_constraint_check(still, omega, F0_CYCLE, F1_CYCLE)
    assert gap == pytest.approx(np.abs(F1_CYCLE - F0_CYCLE).max())
    tree = path_graph(4)
    f0 = np.array([0.4, 0.3, 0.2, 0.1])
    f1 = np.array([0.1, 0.2, 0.3, 0.4])
    tree_pair = constant_speed_solution_tree(
        tree, convex_interpolation(f0, f1, TimeGrid(4))
    )
    assert reduced_constraint_check(
        tree_pair, build_incidence(tree), f0, f1
    ) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_benamou_distance(seed):
    rng, tree, f0, f1 = _tree_instance(seed)
    expected = w1_tree(tree, f0, f1)
    values = [benamou_distance(tree, f0, f1, q)[0] for q in (1.0, 2.0, 3.0)]
    for value in values:
        assert abs(value - expected) <= 1e-8
    assert max(values) - min(values) <= 1e-9


def test_benamou_distance_cycle():
    value, pair = benamou_distance(CYCLE4, F0_CYCLE, F1_CYCLE, 2.0)
    assert value == pytest.approx(0.8, abs=1e-9)
    assert reduced_constraint_check(
        pair, build_incidence(CYCLE4), F0_CYCLE, F1_CYCLE
    ) <= 1e-9


def test_geodesic_endpoints_and_modes():
    grid = TimeGrid(4)
    convex = geodesic(CYCLE4, F0_CYCLE, F1_CYCLE, grid, mode="convex")
    assert np.abs(convex.samples[0] - F0_CYCLE).max() <= 1e-12
    assert np.abs(convex.samples[-1] - F1_CYCLE).max() <= 1e-12
    # the minimal flow's constant pair integrates to the same path
    _, flow = w1_beckmann(CYCLE4, F0_CYCLE, F1_CYCLE)
    pair = flow_to_constant_pair(flow, grid.steps)
    integrated = integrate_pair(F0_CYCLE, pair, CYCLE4.incidence)
    assert np.abs(convex.samples - integrated.samples).max() <= 1e-9
    for mode in ("line", "beckmann_flow"):
        with pytest.raises(ValidationError, match="unknown geodesic mode"):
            geodesic(CYCLE4, F0_CYCLE, F1_CYCLE, grid, mode=mode)


@pytest.mark.parametrize("seed", range(4))
def test_geodesic_constant_speed_property(seed):
    rng = np.random.default_rng(900 + seed)
    graph = random_connected_graph(rng, 7, 2)
    f0 = random_distribution(rng, 7)
    f1 = random_distribution(rng, 7)
    grid = TimeGrid(5)
    path = geodesic(graph, f0, f1, grid)
    total, _ = w1_beckmann(graph, f0, f1)
    knots = grid.knots
    for i in range(6):
        for j in range(i + 1, 6):
            part, _ = w1_beckmann(graph, path.samples[i], path.samples[j])
            assert abs(part - (knots[j] - knots[i]) * total) <= 1e-7


def test_reverse_pair():
    rng, tree, f0, f1 = _tree_instance(17)
    pair = random_admissible_pair(rng, tree, f0, f1)
    back = reverse_pair(pair)
    twice = reverse_pair(back)
    assert np.array_equal(twice.v, pair.v)
    assert np.array_equal(twice.g, pair.g)
    assert np.allclose(twice.knots, pair.knots, atol=1e-15)
    for q in (1.0, 2.0, 3.0):
        assert abs(energy(back, q).value - energy(pair, q).value) <= 1e-12
    omega = build_incidence(tree)
    fwd = integrate_pair(f0, pair, omega)
    assert np.abs(fwd.samples[-1] - f1).max() <= 1e-12
    bwd = integrate_pair(f1, back, omega)
    assert np.abs(bwd.samples[-1] - f0).max() <= 1e-12


def test_concatenate_degenerate_cases():
    still = zero_pair(4, steps=2)
    assert energy(concatenate_pairs(still, still, 2.0), 2.0).value == 0.0
    _, pair = benamou_distance(CYCLE4, F0_CYCLE, F1_CYCLE, 2.0)
    assert concatenate_pairs(pair, still, 2.0) is pair
    assert concatenate_pairs(still, pair, 2.0) is pair


def test_concatenate_equal_energies():
    _, pair = benamou_distance(CYCLE4, F0_CYCLE, F1_CYCLE, 2.0)
    a = energy(pair, 2.0).value
    glued = concatenate_pairs(pair, pair, 2.0)
    assert energy(glued, 2.0).value == pytest.approx(2 * a, abs=1e-12)
    assert glued.knots[pair.steps] == pytest.approx(0.5)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_concatenate_additivity_and_triangle(q):
    rng = np.random.default_rng(31)
    for _ in range(5):
        graph = random_connected_graph(rng, 6, 2)
        f0 = random_distribution(rng, 6)
        f1 = random_distribution(rng, 6)
        mid = random_distribution(rng, 6)
        total, _ = benamou_distance(graph, f0, f1, q)
        a_val, first = benamou_distance(graph, f0, mid, q)
        b_val, second = benamou_distance(graph, mid, f1, q)
        glued = concatenate_pairs(first, second, q)
        assert abs(energy(glued, q).value - (a_val + b_val)) <= 1e-9
        assert total <= a_val + b_val + 1e-8
        omega = build_incidence(graph)
        assert reduced_constraint_check(glued, omega, f0, f1) <= 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_lower_bound_chain(seed):
    rng = np.random.default_rng(1000 + seed)
    graph = random_connected_graph(rng, int(rng.integers(3, 8)), 2)
    f0 = random_distribution(rng, graph.n_vertices)
    f1 = random_distribution(rng, graph.n_vertices)
    w1, _ = w1_beckmann(graph, f0, f1)
    omega = build_incidence(graph)
    for _ in range(5):
        pair = random_admissible_pair(rng, graph, f0, f1)
        assert reduced_constraint_check(pair, omega, f0, f1) <= 1e-8
        for q in (1.0, 2.0, 3.0):
            assert energy(pair, q).value >= w1 - 1e-7


@pytest.mark.parametrize("seed", range(5))
def test_minimality_for_fixed_flux_integral(seed):
    # among pairs with the same flux integral, constant speed wins
    rng = np.random.default_rng(1100 + seed)
    graph = random_connected_graph(rng, 6, 2)
    f0 = random_distribution(rng, 6)
    f1 = random_distribution(rng, 6)
    decomp = spanning_tree_decomposition(graph)
    eps = random_epsilon(rng, decomp)
    best = constant_speed_solution_graph(decomp, f0, f1, eps)
    target = best.flux()[0]
    for q in (1.0, 2.0, 3.0):
        floor = energy(best, q).value
        for _ in range(5):
            steps = int(rng.integers(1, 4))
            durations = rng.dirichlet(np.ones(steps))
            intensity = rng.random(steps) + 0.1
            intensity /= intensity @ durations
            knots = np.concatenate([[0.0], np.cumsum(durations)])
            v = np.zeros((steps, graph.n_edges))
            g = np.zeros((steps, graph.n_edges))
            for i in range(steps):
                mix = rng.dirichlet(np.ones(graph.n_edges))
                g[i] = mix
                v[i] = intensity[i] * target / mix
            rival = EdgePairPath(knots, v, g)
            assert energy(rival, q).value >= floor - 1e-8


def test_constant_speed_certificate_across_q():
    # flow pairs and graph solutions report the same speed on every
    # interval and for every exponent
    _, pair = benamou_distance(CYCLE4, F0_CYCLE, F1_CYCLE, 2.0)
    fine = flow_to_constant_pair(pair.flux()[0], steps=7)
    decomp = spanning_tree_decomposition(CYCLE4)
    graph_pair = constant_speed_solution_graph(decomp, F0_CYCLE, F1_CYCLE)
    for candidate in (fine, graph_pair):
        reference = energy(candidate, 1.0).per_knot_speed[0]
        for q in (1.0, 2.0, 3.0):
            speeds = energy(candidate, q).per_knot_speed
            assert np.abs(speeds - reference).max() <= 1e-12


def test_geodesic_restriction_scales_linearly():
    # restricting an optimal pair to a window and rescaling time
    # costs the window fraction of the full distance
    value, pair = benamou_distance(CYCLE4, F0_CYCLE, F1_CYCLE, 1.0)
    fine = flow_to_constant_pair(pair.flux()[0], steps=10)
    for i, j in ((0, 4), (2, 9), (3, 7)):
        span = (j - i) / 10.0
        knots = (fine.knots[i : j + 1] - fine.knots[i]) / span
        window = EdgePairPath(knots, fine.v[i:j] * span, fine.g[i:j])
        assert abs(energy(window, 1.0).value - span * value) <= 1e-7
