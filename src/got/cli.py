"""Command-line front end.

Exit codes: 0 success, 1 validation failure (bad files, bad flags,
inconsistent inputs), 2 solver failure, 3 verification FAIL.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .dynamics import (
    _check_exponent,
    benamou_distance,
    energy,
    geodesic,
    reduced_constraint_check,
    tail_pde_check,
    transport_residual,
)
from .errors import SolverError, ValidationError
from .graphs import _read_json, load_graph
from .measures import TimeGrid, load_distribution, triple_from_json
from .transport import w1_auto, w1_beckmann, w1_kantorovich, w1_tree
from .worked_examples import evaluate_example

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_VERIFY_FAIL = 3

METHODS = ("tree", "beckmann", "kantorovich", "benamou", "auto")
MODES = ("convex",)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the exit-code contract
    # reserves 2 for solver failures, so route usage errors to 1 instead.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="got",
        description="Wasserstein-1 distances, flows, and geodesics on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    dist = sub.add_parser("distance", help="distance between two distributions")
    dist.add_argument("--graph", required=True)
    dist.add_argument("--from", dest="from_path", required=True)
    dist.add_argument("--to", dest="to_path", required=True)
    dist.add_argument("--method", default="auto")
    dist.add_argument("--q", type=float, default=2.0)

    geo = sub.add_parser("geodesic", help="sample a constant-speed path to CSV")
    geo.add_argument("--graph", required=True)
    geo.add_argument("--from", dest="from_path", required=True)
    geo.add_argument("--to", dest="to_path", required=True)
    geo.add_argument("--steps", type=int, default=100)
    geo.add_argument("--mode", default="convex")
    geo.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="check a stored (f, v, g) triple")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--triple", required=True)
    ver.add_argument("--q", type=float, default=2.0)
    ver.add_argument("--analytic", action="store_true",
                     help="relax thresholds for midpoint-sampled closed forms")

    exa = sub.add_parser("examples", help="run a built-in worked example")
    exa.add_argument("name")
    exa.add_argument("--steps", type=int, default=100)
    exa.add_argument("--truncation", type=int, default=30)

    return parser


def _fmt(value: float) -> str:
    return repr(float(value))


def cmd_distance(args) -> int:
    if args.method not in METHODS:
        raise ValidationError(
            f"unknown method {args.method!r}; choose one of {', '.join(METHODS)}"
        )
    _check_exponent(args.q)
    graph = load_graph(args.graph)
    f0 = load_distribution(args.from_path, graph)
    f1 = load_distribution(args.to_path, graph)

    extra_lines: list[str] = []
    if args.method == "tree":
        value = w1_tree(graph, f0, f1)
    elif args.method == "kantorovich":
        value, _ = w1_kantorovich(graph, f0, f1)
    elif args.method == "beckmann":
        value, _ = w1_beckmann(graph, f0, f1)
    elif args.method == "benamou":
        value, pair = benamou_distance(graph, f0, f1, args.q)
        speed = energy(pair, args.q).per_knot_speed.max()
        flow_l1 = np.abs(pair.flux()[0]).sum()
        extra_lines = [
            f"q: {_fmt(args.q)}",
            f"speed: {_fmt(speed)}",
            f"flow_l1: {_fmt(flow_l1)}",
        ]
    else:
        value = w1_auto(graph, f0, f1)
    print(f"method: {args.method}")
    for line in extra_lines:
        print(line)
    print(f"distance: {_fmt(value)}")
    return EXIT_OK


def cmd_geodesic(args) -> int:
    if args.mode not in MODES:
        raise ValidationError(
            f"unknown mode {args.mode!r}; choose one of {', '.join(MODES)}"
        )
    graph = load_graph(args.graph)
    f0 = load_distribution(args.from_path, graph)
    f1 = load_distribution(args.to_path, graph)
    path = geodesic(graph, f0, f1, TimeGrid(args.steps), mode=args.mode)
    try:
        with open(args.out, "w") as fh:
            fh.write("t,vertex,mass\n")
            for i, t in enumerate(path.knots):
                for x, label in enumerate(graph.labels):
                    fh.write(f"{_fmt(t)},{label},{_fmt(path.samples[i, x])}\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {(path.steps + 1) * graph.n_vertices} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_exponent(args.q)
    graph = load_graph(args.graph)
    triple = triple_from_json(_read_json(args.triple, "triple"), graph)
    omega = graph.incidence
    threshold = 1e-3 if args.analytic else 1e-8

    report = transport_residual(triple, omega)
    print(
        f"transport_residual: {_fmt(report.max_abs_residual)} "
        f"(knot {report.worst_knot}, vertex {graph.labels[report.worst_vertex]})"
    )
    worst = report.max_abs_residual
    if graph.is_tree():
        tail = tail_pde_check(triple, graph)
        print(
            f"tail_residual: {_fmt(tail.max_abs_residual)} "
            f"(knot {tail.worst_knot}, edge {tail.worst_edge})"
        )
        worst = max(worst, tail.max_abs_residual)
    value = energy(triple.pair, args.q).value
    print(f"I_q: {_fmt(value)} (q={_fmt(args.q)})")
    gap = reduced_constraint_check(
        triple.pair, omega, triple.path.samples[0], triple.path.samples[-1]
    )
    print(f"reduced_constraint_gap: {_fmt(gap)}")
    worst = max(worst, gap)

    if worst <= threshold:
        print(f"PASS (threshold {threshold:g})")
        return EXIT_OK
    print(f"FAIL (threshold {threshold:g})")
    return EXIT_VERIFY_FAIL


def cmd_examples(args) -> int:
    if args.truncation < 5:
        raise ValidationError(f"truncation must be >= 5, got {args.truncation}")
    report = evaluate_example(args.name, steps=args.steps, truncation=args.truncation)
    print(f"example: {report.name}")
    print(f"closed_form: {_fmt(report.closed_form)}")
    print(f"analytic_I2: {_fmt(report.analytic_value)}")
    print(f"kantorovich: {_fmt(report.kantorovich_value)}")
    print(f"beckmann: {_fmt(report.beckmann_value)}")
    print(f"max_gap: {_fmt(report.max_gap)}")
    for key in sorted(report.extras):
        print(f"{key}: {_fmt(report.extras[key])}")
    return EXIT_OK


_COMMANDS = {
    "distance": cmd_distance,
    "geodesic": cmd_geodesic,
    "verify": cmd_verify,
    "examples": cmd_examples,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
