"""Every vector argument is read by one rule: shape, numbers, finiteness.

One row per reader: the call with the vector under test, a valid value
for it, and the name the error must carry. Each row is fed a wrong
length, a 2-D array with the right entry count, nan, inf, an integer
beyond the float range and a string.
"""

import numpy as np
import pytest

from got import (
    DirectedGraph,
    EdgePairPath,
    LinearProgram,
    ValidationError,
    beckmann_flow,
    constant_speed_solution_graph,
    divergence,
    edge_distribution,
    flow_to_constant_pair,
    gradient,
    integrate_pair,
    reduced_constraint_check,
    spanning_tree_decomposition,
    tails,
    tree_flow,
    tv_distance,
    vertex_distribution,
    w1_difference,
)
from got.measures import TimeGrid, convex_interpolation

PATH3 = DirectedGraph(("0", "1", "2"), ((0, 1), (1, 2)), root=0)
OMEGA = PATH3.incidence
PAIR = EdgePairPath.constant([0.0, 0.0], [0.5, 0.5])
F = [1.0, 0.0, 0.0]
DELTA = [-1.0, 0.0, 1.0]
A = np.ones((1, 2))

# (reader, call with the vector, valid vector, name in the message, fixed length)
READERS = [
    ("gradient", lambda x: gradient(OMEGA, x), F, "vertex function", True),
    ("divergence", lambda x: divergence(OMEGA, x), [1.0, 1.0], "edge function", True),
    ("tree_flow", lambda x: tree_flow(PATH3, x), DELTA, "delta", True),
    ("vertex_distribution", lambda x: vertex_distribution(x, 3), F,
     "vertex distribution", True),
    ("edge_distribution", lambda x: edge_distribution(x, 2), [0.5, 0.5],
     "edge distribution", True),
    ("tails", lambda x: tails(PATH3, x), F, "mass", True),
    ("integrate_pair", lambda x: integrate_pair(x, PAIR, OMEGA), F, "f0", True),
    ("convex_interpolation f0",
     lambda x: convex_interpolation(x, F, TimeGrid(1)), F, "f0", False),
    ("convex_interpolation f1",
     lambda x: convex_interpolation(F, x, TimeGrid(1)), F, "f1", True),
    ("tv_distance f0", lambda x: tv_distance(x, F), F, "f0", False),
    ("tv_distance f1", lambda x: tv_distance(F, x), F, "f1", True),
    ("beckmann_flow", lambda x: beckmann_flow(PATH3, x), DELTA,
     "difference vector", True),
    ("w1_difference", lambda x: w1_difference(PATH3, x), DELTA,
     "difference vector", True),
    ("flow_to_constant_pair", flow_to_constant_pair, [1.0, 1.0], "flow", False),
    ("constant_speed_solution_graph", lambda x: constant_speed_solution_graph(
        spanning_tree_decomposition(PATH3), F, F, x), [0.0, 0.0], "cycle vector", True),
    ("reduced_constraint_check f0",
     lambda x: reduced_constraint_check(PAIR, OMEGA, x, F), F, "f0", True),
    ("reduced_constraint_check f1",
     lambda x: reduced_constraint_check(PAIR, OMEGA, F, x), F, "f1", True),
    ("LinearProgram objective", lambda x: LinearProgram(x, A, [1.0]), [1.0, 1.0],
     "objective", True),
    ("LinearProgram rhs", lambda x: LinearProgram([1.0, 1.0], A, x), [1.0], "rhs", True),
]


def _bad_values(valid, fixed_length):
    """(case, value, expected message) for each kind of wrong input."""
    with_entry = lambda entry: [entry] + list(valid[1:])  # noqa: E731
    cases = [
        ("2-D", np.array(valid)[:, None], "has shape"),
        ("nan", with_entry(np.nan), "contains non-finite entries"),
        ("inf", with_entry(np.inf), "contains non-finite entries"),
        ("huge", with_entry(10**400), "has an entry beyond the float range"),
        ("string", "x", "is not an array of numbers"),
    ]
    if fixed_length:
        cases.append(("length", list(valid) + [0.0], "has shape"))
    return cases


@pytest.mark.parametrize(
    "call, valid, what, fixed_length",
    [row[1:] for row in READERS],
    ids=[row[0] for row in READERS],
)
def test_every_reader_rejects_malformed_vectors(call, valid, what, fixed_length):
    call(valid)
    for case, value, message in _bad_values(valid, fixed_length):
        with pytest.raises(ValidationError) as info:
            call(value)
        assert str(info.value).startswith(f"{what} {message}"), (case, str(info.value))


def test_inputs_that_once_passed_in_silence_are_rejected():
    cases = [
        (lambda: vertex_distribution([[0.5, 0.5], [0, 0]], 4),
         "vertex distribution has shape (2, 2), expected length 4"),
        (lambda: beckmann_flow(PATH3, [[-1], [0], [1]]),
         "difference vector has shape (3, 1), expected length 3"),
        (lambda: beckmann_flow(PATH3, [np.inf, 0, -np.inf]),
         "difference vector contains non-finite entries"),
        (lambda: w1_difference(PATH3, [-1.0, 1.0]),
         "difference vector has shape (2,), expected length 3"),
        (lambda: tree_flow(PATH3, [np.nan, 0, 0]), "delta contains non-finite entries"),
        (lambda: tv_distance([np.nan, 1], [0, 1]), "f0 contains non-finite entries"),
        (lambda: reduced_constraint_check(PAIR, OMEGA, [np.nan, 0, 1], F),
         "f0 contains non-finite entries"),
        (lambda: reduced_constraint_check(PAIR, OMEGA, F, [0.0, 1.0]),
         "f1 has shape (2,), expected length 3"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message
