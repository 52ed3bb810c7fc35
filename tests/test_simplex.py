import ast
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from got import _kernels
from got.errors import SolverError, ValidationError
from got.generators import random_connected_graph, random_distribution, random_tree
from got.graphs import DirectedGraph, shortest_path_metric
from got.simplex import LinearProgram, solve_lp
from got.transport import w1_kantorovich
from helpers import dense_pivot_reference, grid_graph, moved_mass_lp


def test_trivial_lp():
    sol = solve_lp(LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


def test_infeasible():
    sol = solve_lp(LinearProgram([0.0], [[1.0]], [-1.0]))
    assert sol.status == "infeasible"
    assert sol.x is None


def test_unbounded():
    sol = solve_lp(LinearProgram([-1.0, 0.0], [[0.0, 1.0]], [1.0]))
    assert sol.status == "unbounded"


def test_point_mass_transport_on_path():
    # marginals are point masses, so the only coupling pairs them directly
    path4 = DirectedGraph(tuple("0123"), ((0, 1), (1, 2), (2, 3)), root=0)
    f0 = np.array([1.0, 0, 0, 0])
    f1 = np.array([0, 0, 0, 1.0])
    value, plan = w1_kantorovich(path4, f0, f1)
    assert value == pytest.approx(shortest_path_metric(path4)[0, 3])
    assert value == pytest.approx(3.0)
    assert plan[0, 3] == pytest.approx(1.0)


def test_redundant_rows_are_handled():
    # duplicated constraint: rank-deficient but feasible
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


def test_validation():
    with pytest.raises(ValidationError):
        LinearProgram([1.0], [[1.0, 2.0]], [1.0])
    with pytest.raises(ValidationError):
        LinearProgram([np.inf, 1.0], [[1.0, 1.0]], [1.0])


def _random_lp(rng, m=6, n=14):
    A = rng.normal(size=(m, n))
    x_feasible = rng.random(n)
    b = A @ x_feasible
    c = rng.normal(size=n)
    return LinearProgram(c, A, b)


@pytest.mark.parametrize("seed", range(10))
def test_solution_certificates(seed):
    rng = np.random.default_rng(seed)
    lp = _random_lp(rng)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        assert sol.status == "unbounded"
        return
    assert np.abs(lp.eq_matrix @ sol.x - lp.eq_rhs).max() <= 1e-8
    assert sol.x.min() >= 0.0
    assert sol.objective_value == pytest.approx(lp.objective @ sol.x)


def test_determinism():
    rng = np.random.default_rng(3)
    lp = _random_lp(rng)
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.status == second.status
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


@pytest.mark.parametrize("seed", range(5))
def test_objective_invariant_under_permutation(seed):
    rng = np.random.default_rng(50 + seed)
    lp = _random_lp(rng, m=5, n=10)
    base = solve_lp(lp)
    if base.status != "optimal":
        return
    rows = rng.permutation(5)
    cols = rng.permutation(10)
    permuted = LinearProgram(
        lp.objective[cols], lp.eq_matrix[np.ix_(rows, cols)], lp.eq_rhs[rows]
    )
    again = solve_lp(permuted)
    assert again.status == "optimal"
    assert abs(again.objective_value - base.objective_value) <= 1e-9


def test_numpy_is_the_only_dependency():
    # no module of the package imports, or probes for, anything else
    package = Path(_kernels.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"got", "numpy"}
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name.partition(".")[0] for alias in node.names}
                assert names <= allowed, (source.name, names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                assert node.module.partition(".")[0] in allowed, source.name
    probe = (
        f"import sys; sys.path.insert(0, {str(package.parent)!r}); "
        "before = set(sys.modules); import got; "
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}))"
    )
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True).stdout
    assert set(ast.literal_eval(loaded)) <= allowed
    kernels = sorted(name for name, value in vars(_kernels).items() if callable(value))
    assert kernels == ["pivot", "simplex_iterate"]


def _seeded_lp(rng, family):
    """One LP of a family that the pivot-equivalence test solves."""
    if family == "dense":
        # b = A x for x >= 0 and normal A: right-hand sides of both signs
        m, n = int(rng.integers(2, 9)), int(rng.integers(4, 19))
        A = rng.normal(size=(m, n))
        return LinearProgram(rng.normal(size=n), A, A @ rng.random(n))
    if family in ("degenerate", "redundant"):
        # small integers and a mostly-zero feasible point: tied ratios
        m, n = int(rng.integers(2, 6)), int(rng.integers(3, 10))
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        if family == "redundant":
            # exact copies, negations and sums of rows: the artificial
            # drive-out finds rows that cannot pivot
            mix = rng.integers(-1, 2, size=(int(rng.integers(1, 4)), m)).astype(float)
            A = np.vstack([A, mix @ A])[rng.permutation(m + mix.shape[0])]
        b = A @ (rng.random(n) < 0.3).astype(float)
        return LinearProgram(rng.integers(-3, 4, size=A.shape[1]).astype(float), A, b)
    n = int(rng.integers(3, 13))
    if family == "moved":
        # a random distribution against a point mass
        graph = random_connected_graph(rng, n, int(rng.integers(0, 4)))
        f1 = random_distribution(rng, n)
        return moved_mass_lp(graph, f1 - np.eye(n)[int(rng.integers(n))])
    # Beckmann's flow LP on a tree, a sparse graph or a grid
    if family == "tree":
        graph = random_tree(rng, n)
    elif family == "sparse":
        graph = random_connected_graph(rng, n, n // 4 + 1)
    else:
        graph = grid_graph(int(rng.integers(2, 5)))
    omega = graph.incidence
    f0, f1 = (random_distribution(rng, graph.n_vertices) for _ in range(2))
    return LinearProgram(np.ones(2 * graph.n_edges), np.hstack([omega, -omega]), f1 - f0)


def _outcome(lp):
    try:
        sol = solve_lp(lp)
    except SolverError as exc:
        return "error", str(exc)
    x = None if sol.x is None else (sol.x + 0.0).tobytes()
    return sol.status, sol.iterations, np.float64(sol.objective_value).tobytes(), x


@pytest.mark.parametrize(
    "family", ["dense", "degenerate", "redundant", "moved", "tree", "sparse", "grid"]
)
def test_pivot_takes_the_same_path_as_the_dense_update(monkeypatch, family):
    # Rows that the pivot skips hold a zero in the entering column; the
    # dense update subtracts 0.0 times the pivot row from them, which can
    # only turn a -0.0 into +0.0. Every pivot choice compares with <, <=,
    # > or !=, which treat the two zeros alike, and the arithmetic that
    # follows changes only the sign of a zero result (a + (+-0) = a for
    # a != 0, a * (+-0) = +-0). So both take the same pivots and reach
    # the same values; x is compared after adding 0.0, which drops the
    # sign of its zeros.
    rng = np.random.default_rng(1900 + sum(map(ord, family)))
    lps = [_seeded_lp(rng, family) for _ in range(43)]
    sparse = [_outcome(lp) for lp in lps]
    monkeypatch.setattr(_kernels, "pivot", dense_pivot_reference)
    dense = [_outcome(lp) for lp in lps]
    assert sparse == dense
    assert sum(outcome[0] == "optimal" for outcome in sparse) >= 20
    assert sum(outcome[1] for outcome in sparse if outcome[0] != "error") > 43


def test_pivot_leaves_rows_with_a_zero_factor_as_they_are():
    rng = np.random.default_rng(1950)
    tableau = rng.normal(size=(7, 9))
    tableau[[1, 4, 6], 3] = 0.0
    tableau[1, [0, 5]] = -0.0
    tableau[4, 7] = -0.0
    tableau[0, [0, 5, 7]] = [-2.0, 1.5, -0.5]  # the pivot row, with both signs
    tableau[0, 3] = 2.0
    basis = np.arange(6, dtype=np.int64)
    reference, basis_ref = tableau.copy(), basis.copy()
    before = tableau.copy()
    _kernels.pivot(tableau, basis, 0, 3)
    dense_pivot_reference(reference, basis_ref, 0, 3)
    untouched = [1, 4, 6]
    assert tableau[untouched].tobytes() == before[untouched].tobytes()
    touched = [0, 2, 3, 5]
    assert tableau[touched].tobytes() == reference[touched].tobytes()
    assert np.array_equal(basis, basis_ref) and basis[0] == 3
    # the dense update turned the -0.0 under the negative pivot-row entries
    # into +0.0; nothing else differs
    assert np.signbit(tableau[1, [0, 5]]).tolist() == [True, True]
    assert np.signbit(reference[1, [0, 5]]).tolist() == [False, True]
    assert np.array_equal(tableau, reference)


def test_pivot_allocates_only_for_the_rows_it_touches():
    # the dense update built a tableau-sized outer product on every pivot
    tableau = np.zeros((301, 901))
    tableau[[0, 150, 300], 450] = [2.0, 1.0, -1.0]
    tableau[0] = np.linspace(1.0, 2.0, 901)
    basis = np.arange(300, dtype=np.int64)
    tracemalloc.start()
    try:
        _kernels.pivot(tableau, basis, 0, 450)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tableau.nbytes / 4
    assert tableau[150, 450] == 0.0 and tableau[300, 450] == 0.0
