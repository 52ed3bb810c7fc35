"""Distributions on vertices and edges, time grids, and piecewise-constant paths.

Time is handled on [0, 1]: vertex distributions are sampled at knots,
velocity/edge-distribution pairs are constant on the intervals between
consecutive knots. Knots are uniform everywhere except for pairs produced
by concatenation, which place their split point exactly; durations always
sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, _floats, _is_json_number
from .graphs import (
    DirectedGraph,
    _frozen,
    _read_json,
    _require_tree,
    _subtree_sums,
)

NEG_TOL = 1e-12
SUM_TOL = 4e-10


def _clean_rows(rows: np.ndarray, what: str) -> np.ndarray:
    """Check and clean in place a (rows x size) stack read by _floats.

    Every row must have no entry below -NEG_TOL and, with negative
    round-off clipped to zero, sum to one within SUM_TOL. On failure the
    message names the first failing row's first failed check. The reader
    has already made the stack C-ordered and every entry finite.
    """
    if rows.shape[1] == 0:
        return rows
    low_at = rows.argmin(axis=1)
    low = rows[np.arange(rows.shape[0]), low_at]
    rows[rows < 0.0] = 0.0
    # summed along C-ordered rows, each total is pairwise like a lone row's;
    # a total beyond the float range is inf and fails the check below
    with np.errstate(over="ignore"):
        totals = rows.sum(axis=1)
    bad = (low < -NEG_TOL) | (np.abs(totals - 1.0) > SUM_TOL)
    if bad.any():
        i = int(bad.argmax())
        if low[i] < -NEG_TOL:
            raise ValidationError(
                f"{what} has negative mass {low[i]:.3e} at index {low_at[i]}"
            )
        raise ValidationError(f"{what} sums to {totals[i]:.12g}, expected 1")
    return rows


def _clean_mass(values, size: int, what: str) -> np.ndarray:
    return _clean_rows(_floats(values, size, what)[None], what)[0]


def vertex_distribution(values, n_vertices: int) -> np.ndarray:
    """Validate and clean a probability vector over vertices."""
    return _clean_mass(values, n_vertices, "vertex distribution")


def edge_distribution(values, n_edges: int) -> np.ndarray:
    """Validate and clean a probability vector over edges."""
    return _clean_mass(values, n_edges, "edge distribution")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of M intervals on [0, 1]."""

    steps: int

    def __post_init__(self):
        # compared as an int, not a float: an int beyond the float range must
        # reach the bound below, and infinite or NaN floats fail int()
        try:
            whole = _is_json_number(self.steps) and int(self.steps) == self.steps
        except (OverflowError, ValueError):
            whole = False
        if not whole:
            raise ValidationError(f"time grid steps must be an integer, got {self.steps}")
        steps = int(self.steps)
        if steps < 1:
            raise ValidationError("time grid needs at least one step")
        # steps + 1 knots must be a numpy array length
        if steps >= np.iinfo(np.intp).max:
            raise ValidationError(
                f"time grid needs fewer than {np.iinfo(np.intp).max} steps"
            )
        object.__setattr__(self, "steps", steps)

    @cached_property
    def knots(self) -> np.ndarray:
        return _frozen(np.linspace(0.0, 1.0, self.steps + 1))


def _check_knots(knots: np.ndarray) -> np.ndarray:
    knots = _floats(knots, None, "knots")
    if knots.shape[0] < 2:
        raise ValidationError("a path needs at least two knots")
    if abs(knots[0]) > 1e-12 or abs(knots[-1] - 1.0) > 1e-12:
        raise ValidationError("knots must run from 0 to 1")
    knots[0], knots[-1] = 0.0, 1.0
    if np.any(np.diff(knots) <= 0):
        raise ValidationError("knots must be strictly increasing")
    return knots


@dataclass(frozen=True)
class VertexPath:
    """Vertex distributions sampled at knots.

    ``flagged`` is set by integrate_pair to the first (knot, vertex) whose
    mass fell below -1e-9, meaning the integrated pair does not induce a
    valid distribution path; it is None for clean paths.
    """

    knots: np.ndarray
    samples: np.ndarray
    flagged: tuple[int, int] | None = None

    def __post_init__(self):
        knots = _check_knots(self.knots)
        samples = _floats(self.samples, (knots.shape[0], None), "vertex samples")
        object.__setattr__(self, "knots", _frozen(knots))
        object.__setattr__(self, "samples", _frozen(samples))

    @property
    def steps(self) -> int:
        return self.knots.shape[0] - 1

    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.knots)


@dataclass(frozen=True)
class EdgePairPath:
    """A velocity and an edge distribution, constant on each interval."""

    knots: np.ndarray
    v: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        knots = _check_knots(self.knots)
        v = _floats(self.v, (knots.shape[0] - 1, None), "velocity")
        g = _floats(self.g, v.shape, "edge distribution")
        _clean_rows(g, "edge distribution")
        object.__setattr__(self, "knots", _frozen(knots))
        object.__setattr__(self, "v", _frozen(v))
        object.__setattr__(self, "g", _frozen(g))

    @property
    def steps(self) -> int:
        return self.knots.shape[0] - 1

    @property
    def n_edges(self) -> int:
        return self.v.shape[1]

    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.knots)

    def flux(self) -> np.ndarray:
        """Componentwise v*g per interval, shape (steps, n_edges)."""
        return self.v * self.g

    def time_integral(self) -> np.ndarray:
        """Integral of v*g over [0, 1], a vector on edges."""
        return self.durations @ self.flux()

    @staticmethod
    def constant(v, g, steps: int = 1) -> "EdgePairPath":
        """Tile a single (v, g) sample over a uniform grid."""
        grid = TimeGrid(steps)
        v = _floats(v, None, "velocity")
        g = _floats(g, v.shape, "edge distribution")
        return EdgePairPath(
            grid.knots.copy(), np.tile(v, (grid.steps, 1)), np.tile(g, (grid.steps, 1))
        )


def zero_pair(n_edges: int, steps: int = 1) -> EdgePairPath:
    """Zero velocity with uniform edge mass: the stationary pair, the
    constant-speed factorization of a zero flux."""
    grid = TimeGrid(steps)
    return _constant_speed_pair(grid.knots, np.zeros((grid.steps, n_edges)))


def _constant_speed_pair(knots, flux: np.ndarray) -> EdgePairPath:
    """The pair on ``knots`` whose interval i factors row h of the
    (steps x edges) ``flux`` at constant speed: v = sign(h) |h|_1 and
    g = |h| / |h|_1, the sign of zero (-0.0 too) taken as +1, so v*g = h.

    The one place a flux is split into a velocity and an edge distribution;
    the whole stack goes at once. Rows with zero total mass become the
    stationary v = 0, g = uniform.
    """
    # summed along C-ordered rows, each speed is pairwise like a lone row's
    g = np.abs(flux, order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        speed = g.sum(axis=1, keepdims=True)
        # a NaN or infinite row moves, and EdgePairPath rejects it as non-finite
        moving = ~(speed <= 0.0)
        v = np.where(moving, np.where(flux >= 0.0, speed, -speed), 0.0)
        uniform = np.full(g.shape, 1.0 / max(g.shape[1], 1))
        g = np.divide(g, speed, out=uniform, where=moving)
    return EdgePairPath(knots, v, g)


@dataclass(frozen=True)
class Triple:
    """A vertex path together with a pair path on the same grid."""

    path: VertexPath
    pair: EdgePairPath

    def __post_init__(self):
        if self.path.knots.shape != self.pair.knots.shape or not np.allclose(
            self.path.knots, self.pair.knots, atol=1e-12, rtol=0.0
        ):
            raise ValidationError("vertex path and pair path use different grids")


def tails(tree: DirectedGraph, mass) -> np.ndarray:
    """Tail masses on a tree rooted at ``tree.root`` (vertex 0 when unset).

    Entry x is the total mass on x and all its descendants, so the root
    entry equals the total mass; edge orientation plays no part. Linear
    in ``mass``, which is one vector over the vertices or a stack of
    them, one row per knot; all rows go through the tree's cached
    leaves-to-root sweep together, and each is summed in the order of a
    one-vertex-at-a-time pass over the reversed visiting order.
    """
    _require_tree(tree)
    return _subtree_sums(tree, _floats(mass, tree.n_vertices, "mass", rows=True))


def _check_edges(pair: EdgePairPath, m: int) -> None:
    """Raise unless the pair lives on ``m`` edges."""
    if pair.n_edges != m:
        raise ValidationError(f"pair has {pair.n_edges} edges, expected {m}")


def integrate_pair(
    f0: np.ndarray, pair: EdgePairPath, omega: np.ndarray
) -> VertexPath:
    """Integrate the discrete transport equation from f0 along the pair.

    Sample j is f0 plus the accumulated incidence-weighted flux of the
    first j intervals, an exact telescoping sum. The result is flagged at
    the first (knot, vertex) where mass drops below -1e-9.
    """
    n, m = omega.shape
    f0 = _floats(f0, n, "f0")
    _check_edges(pair, m)
    increments = (pair.flux() @ omega.T) * pair.durations[:, None]
    samples = np.empty((pair.steps + 1, n))
    samples[0] = f0
    samples[1:] = f0 + np.cumsum(increments, axis=0)
    flagged = None
    bad = np.argwhere(samples < -1e-9)
    if bad.size:
        flagged = (int(bad[0, 0]), int(bad[0, 1]))
    return VertexPath(pair.knots.copy(), samples, flagged)


def differentiate_path(path: VertexPath) -> np.ndarray:
    """Forward differences of the samples divided by interval lengths."""
    return np.diff(path.samples, axis=0) / path.durations[:, None]


def convex_interpolation(
    f0: np.ndarray, f1: np.ndarray, grid: TimeGrid
) -> VertexPath:
    """Straight-line path (1-t) f0 + t f1 sampled on the grid."""
    f0 = _floats(f0, None, "f0")
    f1 = _floats(f1, f0.shape[0], "f1")
    t = grid.knots[:, None]
    return VertexPath(grid.knots.copy(), (1.0 - t) * f0 + t * f1)


def tv_distance(f0: np.ndarray, f1: np.ndarray) -> float:
    """Total variation distance, half the l1 distance."""
    f0 = _floats(f0, None, "f0")
    f1 = _floats(f1, f0.shape[0], "f1")
    return 0.5 * float(np.abs(f0 - f1).sum())


def distribution_from_json(payload: dict, labels: tuple[str, ...]) -> np.ndarray:
    """Read ``{"values": {label: mass}}``; keys must cover the labels exactly."""
    if not isinstance(payload, dict) or not isinstance(payload.get("values"), dict):
        raise ValidationError("distribution JSON must be {'values': {label: mass}}")
    values = payload["values"]
    keys = set(values)
    expected = set(labels)
    if keys != expected:
        missing = sorted(expected - keys)
        extra = sorted(keys - expected)
        detail = []
        if missing:
            detail.append(f"missing labels {missing}")
        if extra:
            detail.append(f"unknown labels {extra}")
        raise ValidationError("distribution keys do not match the graph: "
                              + "; ".join(detail))
    for label in labels:
        value = values[label]
        if not _is_json_number(value):
            raise ValidationError(
                f"distribution values must be numbers: {label!r} has {value!r}"
            )
    return vertex_distribution([values[label] for label in labels], len(labels))


def load_distribution(path, graph: DirectedGraph) -> np.ndarray:
    return distribution_from_json(_read_json(path, "distribution"), graph.labels)


def triple_from_json(payload: dict, graph: DirectedGraph) -> Triple:
    """Read ``{"steps": M, "f": [...], "v": [...], "g": [...]}``."""
    if not isinstance(payload, dict):
        raise ValidationError("triple JSON must be an object")
    steps = payload.get("steps")
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ValidationError("triple JSON needs a positive integer 'steps'")
    n, m = graph.n_vertices, graph.n_edges
    for key in ("f", "v", "g"):
        rows = payload.get(key)
        for row in rows if isinstance(rows, list) else ():
            for value in row if isinstance(row, list) else (row,):
                if not _is_json_number(value):
                    raise ValidationError(
                        f"triple JSON is malformed: {key!r} holds {value!r}, "
                        "not a number"
                    )
    f, v, g = (
        _floats(payload.get(key), shape, f"triple JSON is malformed: {key!r}")
        for key, shape in (("f", (steps + 1, n)), ("v", (steps, m)), ("g", (steps, m)))
    )
    grid = TimeGrid(steps)
    _clean_rows(f, "vertex distribution")
    path = VertexPath(grid.knots.copy(), f)
    pair = EdgePairPath(grid.knots.copy(), v, g)
    return Triple(path, pair)


def triple_to_json(triple: Triple) -> dict:
    return {
        "steps": triple.pair.steps,
        "f": triple.path.samples.tolist(),
        "v": triple.pair.v.tolist(),
        "g": triple.pair.g.tolist(),
    }
