import numpy as np
import pytest

from got.dynamics import energy, transport_residual
from got.errors import ValidationError
from got.measures import vertex_distribution
from got.transport import beckmann_flow, w1_difference
from got.worked_examples import (
    build_example,
    evaluate_example,
    poisson_example,
    square_example,
    star_example,
)


def test_unknown_example_rejected():
    with pytest.raises(ValidationError, match="unknown example"):
        build_example("pareto")


@pytest.mark.parametrize(
    "name, expected",
    [("binomial", 2.5), ("square", 0.8), ("star", 2.0), ("poisson", 2.0)],
)
def test_examples_agree_with_closed_forms(name, expected):
    report = evaluate_example(name, steps=200)
    assert report.closed_form == pytest.approx(expected, abs=1e-9)
    for value in (
        report.analytic_value,
        report.kantorovich_value,
        report.beckmann_value,
    ):
        assert value == pytest.approx(expected, abs=1e-6)
    assert report.max_gap <= 1e-6


@pytest.mark.parametrize("name", ["binomial", "poisson", "square"])
def test_analytic_triples_nearly_solve_the_transport_equation(name):
    example = build_example(name, steps=200)
    residual = transport_residual(example.triple, example.graph.incidence)
    assert residual.max_abs_residual <= 1e-3
    for sample in example.triple.path.samples:
        vertex_distribution(sample, example.graph.n_vertices)


def test_star_is_signed_but_affine():
    example = star_example(steps=50)
    assert example.f0[1] < 0  # the stated coefficients leave the simplex
    knots = example.triple.path.knots[:, None]
    straight = (1.0 - knots) * example.f0 + knots * example.f1
    assert np.abs(example.triple.path.samples - straight).max() <= 1e-9
    assert energy(example.triple.pair, 2.0).value == pytest.approx(2.0, abs=1e-12)
    # residual of the edge-invariant pair on the signed path
    residual = transport_residual(example.triple, example.graph.incidence)
    assert residual.max_abs_residual <= 1e-12


@pytest.mark.parametrize(
    "example",
    [square_example(steps=4, p1=0.5, q1=0.5), star_example(steps=4, a=0.0)],
    ids=["square", "star"],
)
def test_stationary_examples_factor_to_the_zero_pair(example):
    pair = example.triple.pair
    assert not pair.v.any()
    assert np.array_equal(pair.g, np.full(pair.g.shape, 1.0 / pair.n_edges))
    delta = example.f1 - example.f0
    assert example.closed_form == 0.0
    assert energy(pair, 2.0).value == 0.0
    assert w1_difference(example.graph, delta) == 0.0
    assert beckmann_flow(example.graph, delta)[0] == 0.0


def test_square_is_discretization_exact():
    for steps in (3, 50):
        example = square_example(steps=steps)
        assert energy(example.triple.pair, 2.0).value == pytest.approx(
            0.8, abs=1e-12
        )


def test_poisson_truncation_mass_is_negligible():
    example = poisson_example(steps=10, truncation=30)
    # raw tail beyond the cap for the larger rate
    from math import exp, lgamma, log

    tail = sum(
        exp(k * log(4.0) - 4.0 - lgamma(k + 1)) for k in range(31, 80)
    )
    assert tail < 1e-9
    assert abs(example.closed_form - 2.0) == 0.0
    with pytest.raises(ValidationError):
        poisson_example(truncation=3)
