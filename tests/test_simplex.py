import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from got import _kernels
from got.errors import ValidationError
from got.graphs import DirectedGraph, shortest_path_metric
from got.simplex import LinearProgram, solve_lp
from got.transport import w1_kantorovich


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
