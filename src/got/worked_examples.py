"""Four canonical transport problems with closed-form answers.

Each builds a graph, a pair of endpoint vectors, and an analytic triple
(f, v, g) sampled on a grid: f at the knots and the flux at interval
midpoints, factored at constant speed, which keeps the discretization
error of the transport equation at second order. The analytic energy,
the coupling-LP value, and the minimal-flow value can then be compared
against the closed form. Both solvers are valued on the endpoint
difference f1 - f0; the coupling LP sends its negative part to its
positive part.

* binomial -- Bin(n, p(t)) on a path graph with p interpolated linearly;
  v*g on edge k is n p'(t) Bin_k(n-1, p(t)) and the distance is n |dp|.
* poisson -- Poi(rate(t)) truncated to {0..N} and renormalized; the
  distance is the rate difference up to the (tiny) truncated mass.
* star -- a three-leaf star whose center mass Z(t) moves linearly; the
  stated coefficients make Z(t) = -(a t + b), which leaves [0, 1], so
  the "distributions" are signed. All identities are linear in the
  endpoint difference and still hold.
* square -- a product of two independent bits on a 4-cycle; the distance
  splits into the two marginal moves |dp| + |dq|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import energy
from .errors import ValidationError
from .graphs import DirectedGraph
from .measures import TimeGrid, Triple, VertexPath
from .measures import _constant_speed_pair, convex_interpolation
from .transport import beckmann_flow, w1_difference

EXAMPLE_NAMES = ("binomial", "poisson", "star", "square")


@dataclass(frozen=True)
class WorkedExample:
    name: str
    graph: DirectedGraph
    f0: np.ndarray
    f1: np.ndarray
    triple: Triple
    closed_form: float


@dataclass(frozen=True)
class ExampleReport:
    name: str
    closed_form: float
    analytic_value: float
    kantorovich_value: float
    beckmann_value: float
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def max_gap(self) -> float:
        values = (self.analytic_value, self.kantorovich_value, self.beckmann_value)
        return max(abs(x - y) for x in values for y in values)


def path_graph(n_vertices: int) -> DirectedGraph:
    """0 -> 1 -> ... -> n-1, rooted at 0."""
    labels = tuple(str(i) for i in range(n_vertices))
    edges = tuple((i, i + 1) for i in range(n_vertices - 1))
    return DirectedGraph(labels=labels, edges=edges, root=0)


def star_graph(leaves: int = 3) -> DirectedGraph:
    labels = tuple(str(i) for i in range(leaves + 1))
    edges = tuple((0, i) for i in range(1, leaves + 1))
    return DirectedGraph(labels=labels, edges=edges, root=0)


def cycle_graph_4() -> DirectedGraph:
    """The 4-cycle oriented 0->1, 1->2, 3->2, 0->3."""
    return DirectedGraph(
        labels=("0", "1", "2", "3"),
        edges=((0, 1), (1, 2), (3, 2), (0, 3)),
        root=0,
    )


def _sampled_example(
    name: str, graph: DirectedGraph, f_of_t, flux_of_t, steps: int, closed_form: float
) -> WorkedExample:
    """The example whose triple samples f at the knots and the flux v*g at
    the interval midpoints, factored at constant speed."""
    grid = TimeGrid(steps)
    knots = grid.knots
    mids = 0.5 * (knots[:-1] + knots[1:])
    f = np.stack([f_of_t(t) for t in knots])
    pair = _constant_speed_pair(knots, np.stack([flux_of_t(t) for t in mids]))
    triple = Triple(VertexPath(knots, f), pair)
    return WorkedExample(name, graph, f_of_t(0.0), f_of_t(1.0), triple, closed_form)


def _path_example(
    name: str, pmf, size: int, a: float, b: float, speed: float, steps: int
) -> WorkedExample:
    """pmf(theta(t), size) on the path of ``size`` vertices, theta linear in t.

    theta runs from a to b; the flux is speed * pmf(theta, size - 1) on
    the edges, and the distance is |speed|.
    """
    graph = path_graph(size)

    def theta(t: float) -> float:
        return (1.0 - t) * a + t * b

    def f_of_t(t: float) -> np.ndarray:
        return pmf(theta(t), size)

    def flux_of_t(t: float) -> np.ndarray:
        return speed * pmf(theta(t), size - 1)

    return _sampled_example(name, graph, f_of_t, flux_of_t, steps, abs(speed))


def _binomial_pmf(p: float, size: int) -> np.ndarray:
    """Bin(size - 1, p) on {0..size-1}."""
    n = size - 1
    ks = np.arange(size)
    out = np.array(
        [math.comb(n, int(k)) * p**k * (1.0 - p) ** (n - k) for k in ks]
    )
    return out / out.sum()


def binomial_example(
    steps: int = 100, n: int = 5, p0: float = 0.8, p1: float = 0.3
) -> WorkedExample:
    """Bin(n, p(t)) on the path of n+1 vertices; distance n |p1 - p0|."""
    return _path_example("binomial", _binomial_pmf, n + 1, p0, p1, n * (p1 - p0), steps)


def _poisson_pmf(rate: float, size: int) -> np.ndarray:
    ks = np.arange(size)
    out = np.exp(ks * math.log(rate) - rate - np.array(
        [math.lgamma(int(k) + 1) for k in ks]
    ))
    return out / out.sum()


def poisson_example(
    steps: int = 100,
    rate0: float = 4.0,
    rate1: float = 2.0,
    truncation: int = 30,
) -> WorkedExample:
    """Poi(rate(t)) truncated to {0..N}; distance |rate0 - rate1|."""
    if truncation < 5:
        raise ValidationError("poisson truncation must be at least 5")
    return _path_example(
        "poisson", _poisson_pmf, truncation + 1, rate0, rate1, rate1 - rate0, steps
    )


def star_example(steps: int = 100, a: float = -2.0, b: float = -3.0) -> WorkedExample:
    """Three-leaf star with center mass Z(t) = 1/(1 + 3 s(t)).

    With s(t) = -(1 + 1/(a t + b))/3 the algebra collapses to
    Z(t) = -(a t + b), linear in t, so the path is the straight-line
    interpolation of its endpoints and the flux -Z'/3 = a/3 on each leaf
    edge drives it exactly. The distance is |a|, which equals
    |Z(1) - Z(0)|. Note the stated coefficients push Z outside [0, 1]:
    the endpoint vectors are signed, not distributions.
    """
    graph = star_graph(3)

    def s(t: float) -> float:
        return -(1.0 + 1.0 / (a * t + b)) / 3.0

    def f_of_t(t: float) -> np.ndarray:
        z = 1.0 / (1.0 + 3.0 * s(t))
        return z * np.array([1.0, s(t), s(t), s(t)])

    def flux_of_t(t: float) -> np.ndarray:
        return np.full(3, a / 3.0)  # -Z'(t)/3 with Z = -(a t + b)

    return _sampled_example("star", graph, f_of_t, flux_of_t, steps, abs(a))


def square_example(
    steps: int = 100,
    p0: float = 0.5,
    q0: float = 0.5,
    p1: float = 0.9,
    q1: float = 0.1,
) -> WorkedExample:
    """Product of two bits on a 4-cycle; distance |p1 - p0| + |q1 - q0|.

    Vertices carry (pq, q(1-p), (1-p)(1-q), p(1-q)); edges 0->1 and 3->2
    flip the first bit, 0->3 and 1->2 the second. The two marginal moves
    ride their own edge pair, giving the constant-speed solution with
    |v| = |dp| + |dq|.
    """
    graph = cycle_graph_4()
    dp, dq = p1 - p0, q1 - q0

    def pq(t: float) -> tuple[float, float]:
        return (1.0 - t) * p0 + t * p1, (1.0 - t) * q0 + t * q1

    def f_of_t(t: float) -> np.ndarray:
        p, q = pq(t)
        return np.array(
            [p * q, q * (1.0 - p), (1.0 - p) * (1.0 - q), p * (1.0 - q)]
        )

    def flux_of_t(t: float) -> np.ndarray:
        p, q = pq(t)
        return np.array(
            [-dp * q, -dq * (1.0 - p), -dp * (1.0 - q), -p * dq]
        )

    return _sampled_example(
        "square", graph, f_of_t, flux_of_t, steps, abs(dp) + abs(dq)
    )


def build_example(name: str, steps: int = 100, truncation: int = 30) -> WorkedExample:
    if name == "binomial":
        return binomial_example(steps)
    if name == "poisson":
        return poisson_example(steps, truncation=truncation)
    if name == "star":
        return star_example(steps)
    if name == "square":
        return square_example(steps)
    raise ValidationError(
        f"unknown example {name!r}; choose one of {', '.join(EXAMPLE_NAMES)}"
    )


def evaluate_example(
    name: str, steps: int = 100, truncation: int = 30
) -> ExampleReport:
    """Compare the analytic energy with the two static solvers."""
    example = build_example(name, steps=steps, truncation=truncation)
    graph = example.graph
    analytic = energy(example.triple.pair, 2.0).value
    delta = example.f1 - example.f0
    kant = w1_difference(graph, delta)
    beck, _ = beckmann_flow(graph, delta)
    extras: dict[str, float] = {}
    if name == "star":
        path = example.triple.path
        straight = convex_interpolation(example.f0, example.f1, TimeGrid(path.steps))
        extras["convexity_gap"] = float(np.abs(path.samples - straight.samples).max())
    return ExampleReport(
        name=name,
        closed_form=example.closed_form,
        analytic_value=analytic,
        kantorovich_value=kant,
        beckmann_value=beck,
        extras=extras,
    )
