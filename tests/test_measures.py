import numpy as np
import pytest

from got.errors import IMBALANCE_TOL, ValidationError
from got.generators import random_distribution, random_tree
from got.graphs import DirectedGraph, build_incidence, spanning_tree_decomposition
from got.measures import (
    SUM_TOL,
    EdgePairPath,
    TimeGrid,
    Triple,
    VertexPath,
    _constant_speed_pair,
    convex_interpolation,
    differentiate_path,
    distribution_from_json,
    integrate_pair,
    tails,
    triple_from_json,
    triple_to_json,
    tv_distance,
    vertex_distribution,
    zero_pair,
)
from got.transport import w1_beckmann
from got.worked_examples import _binomial_pmf, binomial_example
from helpers import constant_speed_rows_reference, tails_reference

PATH3 = DirectedGraph(("0", "1", "2"), ((0, 1), (1, 2)), root=0)
STAR3 = DirectedGraph(("0", "1", "2", "3"), ((0, 1), (0, 2), (0, 3)), root=0)
CYCLE4 = DirectedGraph(("0", "1", "2", "3"), ((0, 1), (1, 2), (3, 2), (0, 3)), root=0)


def test_two_accepted_masses_balance_within_the_imbalance_bound():
    # two accepted distributions differ in mass by at most 2 * SUM_TOL; the
    # zero-sum check and both simplex engines allow IMBALANCE_TOL
    assert 2 * SUM_TOL < IMBALANCE_TOL


def test_distribution_validation():
    clean = vertex_distribution([0.5, 0.5, -1e-13], 3)
    assert clean[2] == 0.0
    with pytest.raises(ValidationError, match="negative mass"):
        vertex_distribution([0.5, 0.6, -0.1], 3)
    with pytest.raises(ValidationError, match="sums to"):
        vertex_distribution([0.5, 0.6], 2)
    with pytest.raises(ValidationError, match="length"):
        vertex_distribution([1.0], 2)
    with pytest.raises(ValidationError, match="non-finite"):
        vertex_distribution([np.nan, 1.0], 2)


def test_tails_examples():
    assert tails(PATH3, [0.5, 0.3, 0.2]) == pytest.approx([1.0, 0.5, 0.2])
    delta_root = np.zeros(4)
    delta_root[0] = 1.0
    assert tails(STAR3, delta_root) == pytest.approx([1, 0, 0, 0])
    assert tails(STAR3, [0.25] * 4) == pytest.approx([1, 0.25, 0.25, 0.25])
    with pytest.raises(ValidationError):
        tails(CYCLE4, [0.25] * 4)


@pytest.mark.parametrize("seed", range(10))
def test_tail_monotonicity_and_linearity(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, int(rng.integers(2, 12)))
    f = random_distribution(rng, tree.n_vertices)
    h = random_distribution(rng, tree.n_vertices)
    F = tails(tree, f)
    assert F[tree.effective_root] == pytest.approx(1.0)
    for tail, head in tree.edges:
        assert F[head] <= F[tail] + 1e-12
    alpha = rng.random()
    mixed = tails(tree, alpha * f + (1 - alpha) * h)
    assert np.abs(mixed - (alpha * F + (1 - alpha) * tails(tree, h))).max() <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_tails_of_a_stack_match_each_row_bitwise(seed):
    rng = np.random.default_rng(500 + seed)
    tree = random_tree(rng, int(rng.integers(1, 40)))
    stack = rng.random((int(rng.integers(1, 9)), tree.n_vertices))
    stacked = tails(tree, stack)
    rows = np.stack([tails(tree, row) for row in stack])
    assert stacked.shape == stack.shape
    assert stacked.tobytes() == rows.tobytes()
    for bad in (np.zeros(tree.n_vertices + 1), np.zeros((2, 1, tree.n_vertices))):
        with pytest.raises(ValidationError, match="mass has shape"):
            tails(tree, bad)


def test_tails_match_the_one_vertex_loop_bitwise():
    star = DirectedGraph(
        tuple(str(i) for i in range(60)), tuple((0, i) for i in range(59, 0, -1)), root=0
    )
    path = DirectedGraph(
        tuple(str(i) for i in range(400)), tuple((i, i + 1) for i in range(399)), root=0
    )
    rng = np.random.default_rng(510)
    trees = [star, path] + [random_tree(rng, int(rng.integers(1, 300))) for _ in range(12)]
    for tree in trees:
        n = tree.n_vertices
        for mass in (rng.random(n), rng.normal(size=(int(rng.integers(1, 20)), n))):
            assert tails(tree, mass).tobytes() == tails_reference(tree, mass).tobytes()
        fortran = np.asfortranarray(rng.normal(size=(5, n)))
        assert tails(tree, fortran).tobytes() == tails_reference(tree, fortran).tobytes()


def test_integrate_zero_pair_is_constant():
    f0 = np.array([0.2, 0.3, 0.5])
    path = integrate_pair(f0, zero_pair(2, steps=4), build_incidence(PATH3))
    assert np.array_equal(path.samples, np.tile(f0, (5, 1)))
    assert path.flagged is None


def test_integrate_single_edge_telescopes():
    single = DirectedGraph(("0", "1"), ((0, 1),))
    c = 0.07
    pair = EdgePairPath.constant([c], [1.0], steps=10)  # v*g = c
    f0 = np.array([0.9, 0.1])
    path = integrate_pair(f0, pair, build_incidence(single))
    assert path.samples[-1] == pytest.approx([0.9 - c, 0.1 + c])
    assert path.samples[5, 1] == pytest.approx(0.1 + c / 2)


def test_integrate_beckmann_flow_on_cycle():
    f0 = np.array([0.25, 0.25, 0.25, 0.25])
    f1 = np.array([0.09, 0.01, 0.09, 0.81])
    _, J = w1_beckmann(CYCLE4, f0, f1)
    # uniform g with v scaled so that v*g = J on every edge
    pair = EdgePairPath.constant(4.0 * J, np.full(4, 0.25))
    path = integrate_pair(f0, pair, build_incidence(CYCLE4))
    omega = build_incidence(CYCLE4)
    assert np.abs(path.samples[-1] - (f0 + omega @ J)).max() <= 1e-12
    assert np.abs(path.samples[-1] - f1).max() <= 1e-8


def test_integrate_flags_negative_mass():
    single = DirectedGraph(("0", "1"), ((0, 1),))
    pair = EdgePairPath.constant([2.0], [1.0], steps=2)  # moves mass 1 per half step
    f0 = np.array([0.3, 0.7])
    path = integrate_pair(f0, pair, build_incidence(single))
    assert path.flagged == (1, 0)


@pytest.mark.parametrize("seed", range(5))
def test_integrate_conserves_mass(seed):
    rng = np.random.default_rng(400 + seed)
    graph = CYCLE4
    steps = 6
    knots = TimeGrid(steps).knots.copy()
    v = rng.normal(size=(steps, 4))
    g = rng.dirichlet(np.ones(4), size=steps)
    pair = EdgePairPath(knots, v, g)
    path = integrate_pair(random_distribution(rng, 4), pair, build_incidence(graph))
    assert np.abs(path.samples.sum(axis=1) - 1.0).max() <= 1e-9


def test_differentiate_examples():
    f0 = np.array([0.2, 0.3, 0.5])
    const = convex_interpolation(f0, f0, TimeGrid(4))
    assert np.abs(differentiate_path(const)).max() == 0.0
    f1 = np.array([0.5, 0.25, 0.25])
    line = convex_interpolation(f0, f1, TimeGrid(4))
    d = differentiate_path(line)
    assert np.abs(d - (f1 - f0)).max() <= 1e-12


def test_differentiate_binomial_first_order():
    errors = {}
    for steps in (100, 200):
        example = binomial_example(steps=steps)
        d = differentiate_path(example.triple.path)
        n, p0, p1 = 5, 0.8, 0.3
        dp = p1 - p0
        worst = 0.0
        for i, t in enumerate(example.triple.path.knots[:-1]):
            inner = n * dp * _binomial_pmf((1 - t) * p0 + t * p1, n)
            analytic = np.zeros(n + 1)
            analytic[:-1] -= inner
            analytic[1:] += inner
            worst = max(worst, float(np.abs(d[i] - analytic).max()))
        errors[steps] = worst
    assert errors[100] <= 3.0 / 100  # first-order in the step size
    assert errors[200] <= 0.65 * errors[100]


def test_round_trip_integrate_differentiate():
    rng = np.random.default_rng(42)
    graph = CYCLE4
    decomp = spanning_tree_decomposition(graph)
    steps = 5
    knots = TimeGrid(steps).knots.copy()
    samples = np.stack([random_distribution(rng, 4) for _ in range(steps + 1)])
    path = VertexPath(knots, samples)
    dfdt = differentiate_path(path)
    # solve for v*g on each interval, embed with uniform g
    m = graph.n_edges
    v = np.zeros((steps, m))
    for i in range(steps):
        flux = decomp.right_inverse @ dfdt[i][list(decomp.kept_vertices)]
        v[i] = flux * m
    pair = EdgePairPath(knots.copy(), v, np.full((steps, m), 1.0 / m))
    rebuilt = integrate_pair(samples[0], pair, build_incidence(graph))
    assert np.abs(rebuilt.samples - samples).max() <= 1e-12


def test_convex_interpolation_examples():
    f0 = np.zeros(3)
    f0[0] = 1.0
    f1 = np.zeros(3)
    f1[2] = 1.0
    path = convex_interpolation(f0, f1, TimeGrid(2))
    assert np.array_equal(path.samples[0], f0)
    assert np.array_equal(path.samples[-1], f1)
    assert path.samples[1] == pytest.approx([0.5, 0.0, 0.5])


def test_tv_examples():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1, 0, 0], [0, 0, 1]) == 1.0
    assert tv_distance([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.4)


@pytest.mark.parametrize("steps", [None, [2], "3", True, np.nan, np.inf])
def test_time_grid_rejects_what_is_not_a_real_integer(steps):
    with pytest.raises(ValidationError, match="time grid steps must be an integer"):
        TimeGrid(steps)


@pytest.mark.parametrize(
    "steps", [10**400, 2**63, np.iinfo(np.intp).max, 1e300],
    ids=["10**400", "2**63", "intp_max", "1e300"],
)
def test_time_grid_rejects_more_knots_than_an_array_holds(steps):
    # rejected at construction; the knots are never built
    with pytest.raises(ValidationError) as info:
        TimeGrid(steps)
    assert str(info.value) == f"time grid needs fewer than {np.iinfo(np.intp).max} steps"


def test_grid_and_pair_validation():
    with pytest.raises(ValidationError):
        TimeGrid(0)
    with pytest.raises(ValidationError, match="integer"):
        TimeGrid(2.7)
    assert TimeGrid(np.int64(3)).steps == 3
    assert TimeGrid(2.0).steps == 2
    with pytest.raises(ValidationError, match="non-finite"):
        VertexPath([0.0, 1.0], [[1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(ValidationError, match="knots contains non-finite entries"):
        VertexPath([0.0, np.nan, 1.0], [[1.0, 0.0]] * 3)
    with pytest.raises(ValidationError, match="knots contains non-finite entries"):
        EdgePairPath([0.0, np.nan, 1.0], [[1.0]] * 2, [[1.0]] * 2)
    with pytest.raises(ValidationError, match="edge distribution"):
        EdgePairPath(TimeGrid(1).knots.copy(), [[1.0, 1.0]], [[0.9, 0.9]])
    # the first failing row is reported, with the message for that row alone
    knots = TimeGrid(4).knots.copy()
    ok = [0.5, 0.5]
    rows = [
        ([ok, [0.7, 0.7], [-0.5, 1.5], ok], "edge distribution sums to 1.4, expected 1"),
        ([ok, [-0.5, 1.5], [0.7, 0.7], ok],
         "edge distribution has negative mass -5.000e-01 at index 0"),
        ([ok, ok, ok, [np.inf, -np.inf]], "edge distribution contains non-finite entries"),
        ([ok, [1.0, np.nan], [0.7, 0.7], ok], "edge distribution contains non-finite entries"),
    ]
    for g, message in rows:
        with pytest.raises(ValidationError) as info:
            EdgePairPath(knots, np.ones((4, 2)), g)
        assert str(info.value) == message
    cleaned = EdgePairPath(knots, np.ones((4, 2)), [[-1e-13, 1.0], ok, [1.0, -0.0], ok])
    assert cleaned.g[0, 0] == 0.0 and np.signbit(cleaned.g[2, 1])
    with pytest.raises(ValidationError, match="grids"):
        Triple(
            convex_interpolation(np.ones(2) / 2, np.ones(2) / 2, TimeGrid(2)),
            zero_pair(1, steps=3),
        )


def test_distribution_json():
    labels = ("a", "b")
    mass = distribution_from_json({"values": {"a": 0.25, "b": 0.75}}, labels)
    assert mass == pytest.approx([0.25, 0.75])
    with pytest.raises(ValidationError, match="missing labels"):
        distribution_from_json({"values": {"a": 1.0}}, labels)
    with pytest.raises(ValidationError, match="unknown labels"):
        distribution_from_json({"values": {"a": 0.5, "b": 0.25, "c": 0.25}}, labels)
    for bad in ("0.25", True, None, [0.25]):
        with pytest.raises(ValidationError, match="values must be numbers"):
            distribution_from_json({"values": {"a": bad, "b": 0.75}}, labels)
    with pytest.raises(ValidationError, match="beyond the float range"):
        distribution_from_json({"values": {"a": 10**400, "b": 0}}, labels)
    assert distribution_from_json({"values": {"a": 0, "b": 1}}, labels) == pytest.approx(
        [0.0, 1.0]
    )


def test_triple_json_round_trip():
    f0 = np.array([1.0, 0.0, 0.0])
    f1 = np.array([0.0, 0.0, 1.0])
    path = convex_interpolation(f0, f1, TimeGrid(3))
    pair = EdgePairPath.constant([2.0, 2.0], [0.5, 0.5], steps=3)
    triple = Triple(path, pair)
    payload = triple_to_json(triple)
    again = triple_from_json(payload, PATH3)
    assert np.allclose(again.path.samples, triple.path.samples)
    assert np.allclose(again.pair.v, triple.pair.v)
    with pytest.raises(ValidationError):
        triple_from_json({"steps": 2, "f": [[1, 0, 0]], "v": [], "g": []}, PATH3)
    one_step = {"f": [[1, 0, 0], [0, 0, 1]], "v": [[2, 2]], "g": [[0.5, 0.5]]}
    assert triple_from_json({"steps": 1, **one_step}, PATH3).pair.steps == 1
    for bad in (True, 1.0, "1", 0):
        with pytest.raises(ValidationError, match="positive integer 'steps'"):
            triple_from_json({"steps": bad, **one_step}, PATH3)
    with pytest.raises(ValidationError, match="malformed"):
        triple_from_json({**one_step, "steps": 1, "v": [[10**400, 2]]}, PATH3)
    # JSON numbers only: a string, a boolean or null is no real
    for key in ("f", "v", "g"):
        for bad in ("1", True, None):
            rows = [list(row) for row in one_step[key]]
            rows[-1][-1] = bad
            message = f"triple JSON is malformed: '{key}' holds"
            with pytest.raises(ValidationError, match=message):
                triple_from_json({**one_step, "steps": 1, key: rows}, PATH3)


def test_triple_json_reports_first_failing_vertex_row():
    ok = [0.5, 0.0, 0.5]
    rows = [
        ([ok, [0.7, 0.0, 0.7], [-0.5, 0.0, 1.5], ok],
         "vertex distribution sums to 1.4, expected 1"),
        ([ok, [-0.5, 0.0, 1.5], [0.7, 0.0, 0.7], ok],
         "vertex distribution has negative mass -5.000e-01 at index 0"),
        ([ok, ok, ok, [1e308, 1e308, -1e308]],
         "vertex distribution has negative mass -1.000e+308 at index 2"),
        ([ok, ok, [1e308, 1e308, 0.0], ok],
         "vertex distribution sums to inf, expected 1"),
    ]
    pair = {"v": [[1.0, 1.0]] * 3, "g": [[0.5, 0.5]] * 3}
    for f, message in rows:
        with pytest.raises(ValidationError) as info:
            triple_from_json({"steps": 3, "f": f, **pair}, PATH3)
        assert str(info.value) == message
    cleaned = triple_from_json(
        {"steps": 3, "f": [[-1e-13, 0.0, 1.0], ok, [1.0, -0.0, 0.0], ok], **pair}, PATH3
    )
    assert cleaned.path.samples[0, 0] == 0.0 and np.signbit(cleaned.path.samples[2, 1])


@pytest.mark.parametrize("m", [0, 1, 5])
def test_zero_pair_is_zero_velocity_uniform_mass(m):
    for steps in (1, 3):
        pair = zero_pair(m, steps)
        # the stationary pair as spelled out directly
        g = np.full(m, 1.0 / m) if m else np.zeros(0)
        expected = EdgePairPath.constant(np.zeros(m), g, steps)
        for name in ("knots", "v", "g"):
            actual, want = getattr(pair, name), getattr(expected, name)
            assert actual.shape == want.shape and actual.tobytes() == want.tobytes()


def _flux_stacks():
    """Seeded (steps x edges) fluxes with still rows, -0.0 entries, exact
    zeros and row scales from 1e-12 to 1e8."""
    rng = np.random.default_rng(2401)
    shapes = [(1, 0), (4, 0), (1, 1), (200, 1), (1, 2500), (35, 282), (200, 2500)]
    shapes += [(int(rng.integers(1, 201)), int(rng.integers(0, 2501))) for _ in range(8)]
    for steps, m in shapes:
        flux = rng.normal(size=(steps, m)) * 10.0 ** rng.uniform(-12, 8, size=(steps, 1))
        flux[rng.random((steps, m)) < 0.1] = 0.0
        flux[rng.random((steps, m)) < 0.1] = -0.0
        flux[rng.random(steps) < 0.2] = 0.0
        flux[rng.random(steps) < 0.1] = -0.0
        yield flux


def test_constant_speed_pair_matches_the_row_loop_bit_for_bit():
    # the F-ordered stack is what the tail flux returns; its speeds must be
    # summed along each row as a lone row's would be
    for flux in _flux_stacks():
        v, g = constant_speed_rows_reference(flux)
        knots = TimeGrid(flux.shape[0]).knots
        for stack in (np.ascontiguousarray(flux), np.asfortranarray(flux)):
            pair = _constant_speed_pair(knots, stack)
            assert pair.v.tobytes() == v.tobytes(), flux.shape
            assert pair.g.tobytes() == g.tobytes(), flux.shape


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "overflow"])
def test_constant_speed_pair_rejects_a_non_finite_row(bad):
    flux = np.ones((3, 4))
    if bad == "overflow":
        flux[1] = 1e308  # finite entries whose speed is beyond the float range
    else:
        flux[1, 2] = bad
    with pytest.raises(ValidationError, match="velocity contains non-finite entries"):
        _constant_speed_pair(TimeGrid(3).knots, flux)
