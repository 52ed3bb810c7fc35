"""Acceptance suite: ten oracle- and property-based criteria.

Each test prints one pass/fail line (visible under ``pytest -s``) and
asserts its stated tolerance. The instance pools are seeded, so reruns
exercise identical graphs and distributions.
"""

import time

import numpy as np
import pytest

from got.dynamics import (
    benamou_distance,
    concatenate_pairs,
    energy,
    geodesic,
    reduced_constraint_check,
    reverse_pair,
    tail_pde_check,
    transport_residual,
)
from got.generators import (
    random_connected_graph,
    random_distribution,
    random_tree,
)
from got.graphs import (
    build_incidence,
    divergence,
    gradient,
    spanning_tree_decomposition,
)
from got.measures import (
    TimeGrid,
    Triple,
    convex_interpolation,
    integrate_pair,
    tv_distance,
)
from got.transport import w1_beckmann, w1_kantorovich, w1_tree
from got.worked_examples import binomial_example, evaluate_example, poisson_example
from helpers import laplacian, random_admissible_pair, reoriented, row_reduction_rank

N_TREES = 100
N_GRAPHS = 100


def _line(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


@pytest.fixture(scope="module")
def tree_pool():
    rng = np.random.default_rng(617)
    pool = []
    for _ in range(N_TREES):
        tree = random_tree(rng, int(rng.integers(2, 13)))
        f0 = random_distribution(rng, tree.n_vertices)
        f1 = random_distribution(rng, tree.n_vertices)
        pool.append((tree, f0, f1))
    return pool


@pytest.fixture(scope="module")
def mixed_tree_pool():
    # edges in random orientation, root at a random vertex
    rng = np.random.default_rng(619)
    pool = []
    for _ in range(N_TREES):
        tree = reoriented(rng, random_tree(rng, int(rng.integers(2, 13))))
        f0 = random_distribution(rng, tree.n_vertices)
        f1 = random_distribution(rng, tree.n_vertices)
        pool.append((tree, f0, f1))
    return pool


@pytest.fixture(scope="module")
def graph_pool():
    rng = np.random.default_rng(618)
    pool = []
    for _ in range(N_GRAPHS):
        n = int(rng.integers(2, 11))
        graph = random_connected_graph(rng, n, int(rng.integers(0, 5)))
        f0 = random_distribution(rng, n)
        f1 = random_distribution(rng, n)
        oracle, _ = w1_kantorovich(graph, f0, f1)
        pool.append((graph, f0, f1, oracle))
    return pool


def test_criterion_1_tree_equivalence(tree_pool, mixed_tree_pool):
    start = time.perf_counter()
    worst = 0.0
    for tree, f0, f1 in tree_pool + mixed_tree_pool:
        closed = w1_tree(tree, f0, f1)
        oracle, _ = w1_kantorovich(tree, f0, f1)
        worst = max(worst, abs(closed - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _line(1, ok, f"tree formula vs coupling LP on {2 * N_TREES} trees, "
                 f"max gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_beckmann_equivalence(graph_pool):
    worst = 0.0
    for graph, f0, f1, oracle in graph_pool:
        value, _ = w1_beckmann(graph, f0, f1)
        worst = max(worst, abs(value - oracle))
    ok = worst <= 1e-8
    _line(2, ok, f"minimal flow vs coupling LP on {N_GRAPHS} graphs, "
                 f"max gap {worst:.2e}")
    assert ok


def test_criterion_3_dynamic_formulation(graph_pool):
    worst_oracle = 0.0
    worst_spread = 0.0
    for graph, f0, f1, oracle in graph_pool:
        values = [benamou_distance(graph, f0, f1, q)[0] for q in (1.0, 2.0, 3.0)]
        worst_oracle = max(worst_oracle, max(abs(v - oracle) for v in values))
        worst_spread = max(worst_spread, max(values) - min(values))
    ok = worst_oracle <= 1e-8 and worst_spread <= 1e-9
    _line(3, ok, f"dynamic value vs oracle {worst_oracle:.2e}, "
                 f"spread across q {worst_spread:.2e}")
    assert worst_oracle <= 1e-8
    assert worst_spread <= 1e-9


def test_criterion_4_lower_bound_chain(graph_pool):
    rng = np.random.default_rng(619)
    checked = 0
    worst_gap = 0.0  # most negative margin of I_q - W1
    worst_admissible = 0.0
    instances = graph_pool[:50]
    while checked < 500:
        graph, f0, f1, oracle = instances[checked % len(instances)]
        pair = random_admissible_pair(rng, graph, f0, f1)
        omega = build_incidence(graph)
        worst_admissible = max(
            worst_admissible, reduced_constraint_check(pair, omega, f0, f1)
        )
        for q in (1.0, 2.0, 3.0):
            worst_gap = min(worst_gap, energy(pair, q).value - oracle)
        checked += 1
    ok = worst_gap >= -1e-7 and worst_admissible <= 1e-8
    _line(4, ok, f"{checked} admissible pairs, worst energy margin "
                 f"{worst_gap:.2e}, worst constraint gap {worst_admissible:.2e}")
    assert worst_admissible <= 1e-8
    assert worst_gap >= -1e-7


def test_criterion_5_constant_speed_geodesics(graph_pool):
    grid = TimeGrid(20)
    knots = grid.knots
    worst = 0.0
    for graph, f0, f1, _ in graph_pool[:50]:
        total, _ = w1_beckmann(graph, f0, f1)
        path = geodesic(graph, f0, f1, grid)
        for i in range(21):
            for j in range(i + 1, 21):
                part, _ = w1_beckmann(graph, path.samples[i], path.samples[j])
                worst = max(worst, abs(part - (knots[j] - knots[i]) * total))
    ok = worst <= 1e-7
    _line(5, ok, f"50 geodesics at 20 steps, all knot pairs, "
                 f"max speed defect {worst:.2e}")
    assert ok


def test_criterion_6_worked_examples():
    def star_expected():
        def s(t):
            return -(1.0 + 1.0 / (-2.0 * t - 3.0)) / 3.0

        return abs(1.0 / (1.0 + 3.0 * s(1.0)) - 1.0 / (1.0 + 3.0 * s(0.0)))

    expected = {
        "binomial": 2.5,
        "square": 0.8,
        "star": star_expected(),
        "poisson": 2.0,
    }
    assert expected["star"] == pytest.approx(2.0, abs=1e-12)
    worst = 0.0
    for name, target in expected.items():
        report = evaluate_example(name, steps=1000)
        for value in (
            report.analytic_value,
            report.kantorovich_value,
            report.beckmann_value,
        ):
            worst = max(worst, abs(value - target))
    ok = worst <= 1e-6
    _line(6, ok, f"four worked examples at 1000 steps, max deviation {worst:.2e}")
    assert ok


def test_criterion_7_tv_lower_bound(tree_pool, graph_pool):
    worst = 0.0  # most positive excess of TV over W1
    for tree, f0, f1 in tree_pool:
        worst = max(worst, tv_distance(f0, f1) - w1_tree(tree, f0, f1))
    for graph, f0, f1, oracle in graph_pool:
        worst = max(worst, tv_distance(f0, f1) - oracle)
    ok = worst <= 1e-8
    _line(7, ok, f"TV <= W1 on {N_TREES + N_GRAPHS} instances, "
                 f"worst excess {worst:.2e}")
    assert ok


def test_criterion_8_metric_axioms(graph_pool):
    rng = np.random.default_rng(620)
    worst_symmetry = 0.0
    worst_reversed_drive = 0.0
    worst_additivity = 0.0
    worst_triangle = 0.0
    worst_identity = 0.0
    indistinct = 0
    for graph, f0, f1, oracle in graph_pool[:30]:
        omega = build_incidence(graph)
        value, pair = benamou_distance(graph, f0, f1, 2.0)
        back = reverse_pair(pair)
        worst_symmetry = max(
            worst_symmetry, abs(energy(back, 2.0).value - value)
        )
        fwd_gap = reduced_constraint_check(pair, omega, f0, f1)
        rev_gap = reduced_constraint_check(back, omega, f1, f0)
        worst_reversed_drive = max(worst_reversed_drive, rev_gap - fwd_gap)
        mid = random_distribution(rng, graph.n_vertices)
        a_val, first = benamou_distance(graph, f0, mid, 2.0)
        b_val, second = benamou_distance(graph, mid, f1, 2.0)
        glued = concatenate_pairs(first, second, 2.0)
        worst_additivity = max(
            worst_additivity, abs(energy(glued, 2.0).value - (a_val + b_val))
        )
        worst_triangle = max(worst_triangle, value - (a_val + b_val))
        same, _ = benamou_distance(graph, f0, f0, 2.0)
        worst_identity = max(worst_identity, same)
        if tv_distance(f0, f1) > 1e-12 and oracle <= 1e-9:
            indistinct += 1
    ok = (
        worst_symmetry <= 1e-12
        and worst_reversed_drive <= 1e-12
        and worst_additivity <= 1e-9
        and worst_triangle <= 1e-8
        and worst_identity <= 1e-9
        and indistinct == 0
    )
    _line(8, ok, f"symmetry {worst_symmetry:.2e}, reversal drive "
                 f"{worst_reversed_drive:.2e}, additivity {worst_additivity:.2e}, "
                 f"triangle {worst_triangle:.2e}, identity {worst_identity:.2e}")
    assert worst_symmetry <= 1e-12
    assert worst_reversed_drive <= 1e-12
    assert worst_additivity <= 1e-9
    assert worst_triangle <= 1e-8
    assert worst_identity <= 1e-9
    assert indistinct == 0


def test_criterion_9_operator_algebra(tree_pool, graph_pool):
    rng = np.random.default_rng(621)
    worst = 0.0
    graphs = [tree for tree, _, _ in tree_pool]
    graphs += [graph for graph, _, _, _ in graph_pool]
    for graph in graphs:
        omega = build_incidence(graph)
        n, m = omega.shape
        f = rng.normal(size=n)
        g = rng.normal(size=m)
        worst = max(worst, abs(gradient(omega, f) @ g - f @ divergence(omega, g)))
        worst = max(worst, abs(divergence(omega, g).sum()))
        worst = max(worst, float(np.abs(laplacian(omega) - omega @ omega.T).max()))
        assert row_reduction_rank(omega) == n - 1
        decomp = spanning_tree_decomposition(graph)
        reduced = np.delete(omega, decomp.dropped_vertex, axis=0)
        worst = max(
            worst,
            float(np.abs(reduced @ decomp.right_inverse - np.eye(n - 1)).max()),
        )
        if decomp.nullity:
            worst = max(worst, float(np.abs(omega @ decomp.cycle_basis.T).max()))
    ok = worst <= 1e-10
    _line(9, ok, f"operator identities on {len(graphs)} graphs, "
                 f"worst defect {worst:.2e}")
    assert ok


def test_criterion_10_tail_equation(tree_pool, mixed_tree_pool):
    from got.dynamics import constant_speed_solution_tree

    worst_discrete = 0.0
    for index, (tree, f0, f1) in enumerate(tree_pool[:40] + mixed_tree_pool[:40]):
        path = convex_interpolation(f0, f1, TimeGrid(5))
        pair = constant_speed_solution_tree(tree, path)
        report = tail_pde_check(Triple(path, pair), tree)
        worst_discrete = max(worst_discrete, report.max_abs_residual)
        # a second family: integrate an arbitrary admissible pair
        rng = np.random.default_rng(622 + index)
        pair2 = random_admissible_pair(rng, tree, f0, f1)
        path2 = integrate_pair(f0, pair2, build_incidence(tree))
        report2 = tail_pde_check(Triple(path2, pair2), tree)
        worst_discrete = max(worst_discrete, report2.max_abs_residual)

    worst_analytic = 0.0
    for example in (binomial_example(steps=200), poisson_example(steps=200)):
        report = tail_pde_check(example.triple, example.graph)
        worst_analytic = max(worst_analytic, report.max_abs_residual)
        residual = transport_residual(example.triple, example.graph.incidence)
        worst_analytic = max(worst_analytic, residual.max_abs_residual)
    ok = worst_discrete <= 1e-12 and worst_analytic <= 1e-3
    _line(10, ok, f"tail equation: discrete {worst_discrete:.2e}, "
                  f"analytic at 200 steps {worst_analytic:.2e}")
    assert worst_discrete <= 1e-12
    assert worst_analytic <= 1e-3
