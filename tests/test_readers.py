"""Every outside array is read by one rule: shape, numbers, finiteness.

One row per reader: the call with the array under test, a valid value
for it, and the name the error must carry. Each vector row is fed a
wrong length, a 2-D array with the right entry count, nan, inf, an
integer beyond the float range and a string; each 2-D row is fed wrong
shapes, ragged rows, nan, an integer beyond the float range and a string.
"""

from pathlib import Path

import numpy as np
import pytest

import got
from got import (
    DirectedGraph,
    EdgePairPath,
    ValidationError,
    VertexPath,
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
    triple_from_json,
    tv_distance,
    vertex_distribution,
    w1_difference,
)
from got.measures import TimeGrid, convex_interpolation
from got.simplex import LinearProgram

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


SAMPLES = [[1.0, 0.0], [0.0, 1.0]]
TRIPLE = {"steps": 1, "f": [F, [0.0, 0.0, 1.0]], "v": [[2.0, 2.0]], "g": [[0.5, 0.5]]}

# (reader, call with the array, valid array, name in the message, wrong shapes)
ARRAY_READERS = [
    ("VertexPath samples", lambda x: VertexPath([0.0, 1.0], x), SAMPLES,
     "vertex samples", [[[1.0, 0.0]], [1.0, 0.0]]),
    ("VertexPath knots", lambda x: VertexPath(x, SAMPLES), [0.0, 1.0], "knots",
     [[[0.0, 1.0]]]),
    ("EdgePairPath v", lambda x: EdgePairPath([0.0, 1.0], x, [[0.5, 0.5]]),
     [[1.0, 1.0]], "velocity", [[[1.0, 1.0]] * 2, [1.0, 1.0]]),
    ("EdgePairPath g", lambda x: EdgePairPath([0.0, 1.0], [[1.0, 1.0]], x),
     [[0.5, 0.5]], "edge distribution", [[[0.5, 0.5, 0.0]], [[0.5, 0.5]] * 2]),
    ("EdgePairPath.constant v", lambda x: EdgePairPath.constant(x, [0.5, 0.5]),
     [1.0, 1.0], "velocity", [[[1.0, 1.0]], [[1.0], [1.0]]]),
    ("EdgePairPath.constant g", lambda x: EdgePairPath.constant([1.0, 1.0], x),
     [0.5, 0.5], "edge distribution", [[[0.5, 0.5]], [[0.5], [0.5]], [1.0]]),
    ("triple_from_json f", lambda x: triple_from_json({**TRIPLE, "f": x}, PATH3),
     TRIPLE["f"], "triple JSON is malformed: 'f'", [[F], [F, F, F], F, None]),
    ("triple_from_json v", lambda x: triple_from_json({**TRIPLE, "v": x}, PATH3),
     TRIPLE["v"], "triple JSON is malformed: 'v'", [[[2.0, 2.0, 2.0]], [2.0, 2.0]]),
    ("triple_from_json g", lambda x: triple_from_json({**TRIPLE, "g": x}, PATH3),
     TRIPLE["g"], "triple JSON is malformed: 'g'", [[[0.5, 0.5]] * 2, [0.5, 0.5]]),
    ("LinearProgram eq_matrix", lambda x: LinearProgram([1.0, 1.0], x, [1.0]),
     A.tolist(), "constraint matrix", [[1.0, 1.0], [[[1.0, 1.0]]]]),
]


def _bad_arrays(valid, wrong_shapes):
    """(case, value, expected message) for each kind of malformed array."""
    def with_first(entry):
        value = np.array(valid, dtype=object)
        value.flat[0] = entry
        return value.tolist()

    # a row one entry longer than the rest, or a vector beside a shorter one
    if isinstance(valid[0], list):
        ragged = list(valid) + [list(valid[0]) + [0.0]]
    else:
        ragged = [valid, valid[:1]]
    cases = [(f"shape {shape!r}", shape, "has shape") for shape in wrong_shapes]
    return cases + [
        ("ragged", ragged, "is not an array of numbers"),
        ("nan", with_first(np.nan), "contains non-finite entries"),
        ("huge", with_first(10**400), "has an entry beyond the float range"),
        ("string", "x", "is not an array of numbers"),
    ]


@pytest.mark.parametrize(
    "call, valid, what, wrong_shapes",
    [row[1:] for row in ARRAY_READERS],
    ids=[row[0] for row in ARRAY_READERS],
)
def test_every_array_reader_rejects_malformed_arrays(call, valid, what, wrong_shapes):
    call(valid)
    for case, value, message in _bad_arrays(valid, wrong_shapes):
        with pytest.raises(ValidationError) as info:
            call(value)
        assert str(info.value).startswith(f"{what} {message}"), (case, str(info.value))


def test_arrays_that_once_escaped_the_checks_are_rejected():
    cases = [
        (lambda: VertexPath([0, 1], [[10**400, 0], [0, 1]]),
         "vertex samples has an entry beyond the float range"),
        (lambda: VertexPath([0, 1], [[1.0, 0.0]]),
         "vertex samples has shape (1, 2), expected (2, any)"),
        (lambda: VertexPath([[0, 1]], SAMPLES), "knots has shape (1, 2), expected length 2"),
        (lambda: LinearProgram([1.0], [[10**400]], [1.0]),
         "constraint matrix has an entry beyond the float range"),
        (lambda: LinearProgram([1.0], [1.0], [1.0]),
         "constraint matrix has shape (1,), expected (any, any)"),
        (lambda: EdgePairPath([0, 1], [[1.0]], [["x"]]),
         "edge distribution is not an array of numbers"),
        (lambda: EdgePairPath([0, 1], [[1.0, 1.0], [1.0]], [[0.5, 0.5]]),
         "velocity is not an array of numbers"),
        (lambda: EdgePairPath([0, 1], [[1.0, 1.0]], [[0.5]]),
         "edge distribution has shape (1, 1), expected (1, 2)"),
        (lambda: EdgePairPath.constant([[1, 1], [1, 1]], [[0.25, 0.25], [0.25, 0.25]]),
         "velocity has shape (2, 2), expected length 4"),
        (lambda: EdgePairPath.constant([1.0, 1.0], [0.5]),
         "edge distribution has shape (1,), expected length 2"),
        (lambda: triple_from_json({**TRIPLE, "g": [[0.5, 0.5], [0.5, 0.5]]}, PATH3),
         "triple JSON is malformed: 'g' has shape (2, 2), expected (1, 2)"),
        # a non-finite edge mass is named before another row's mass error
        (lambda: EdgePairPath(TimeGrid(2).knots, [[1.0]] * 2, [[0.5], [np.nan]]),
         "edge distribution contains non-finite entries"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message


def test_no_module_reads_floats_beside_the_reader():
    # a hand-written reader converts with dtype=float, checks isfinite or
    # flattens; outside errors._floats none may
    patterns = ("dtype=float", "isfinite", "reshape(-1)", "reshape(1, -1)")
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(got.__file__).parent.glob("*.py"))
        if path.name != "errors.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if any(pattern in line for pattern in patterns)
    ]
    assert offenders == []
