"""In-memory span tracer that wraps got's layer functions from the outside.

Nothing in the package is edited. Each layer function is replaced, for the
duration of a traced run, in every ``got`` module namespace that binds it,
so a caller that did ``from .simplex import solve_lp`` reaches the wrapper
too and child spans nest inside their parents. A span is
``[name, start, end, parent, op, counts]``; spans stay in a list until the
run ends. Layers the package no longer has are reported as absent.

Standard library only: the traced CLI child imports this module before
``got`` so that the import it measures is the package's own.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, module, attribute); "Class.method" patches the class. Several
# rows may share a span name.
LAYERS = (
    ("kernels.iterate", "got._kernels", "simplex_iterate"),
    ("simplex.solve_lp", "got.simplex", "solve_lp"),
    ("transport.kantorovich", "got.transport", "w1_kantorovich"),
    ("transport.beckmann", "got.transport", "w1_beckmann"),
    ("transport.beckmann", "got.transport", "beckmann_flow"),
    ("transport.tree", "got.transport", "w1_tree"),
    ("graphs.construct", "got.graphs", "DirectedGraph.__post_init__"),
    ("graphs.incidence", "got.graphs", "build_incidence"),
    ("graphs.metric", "got.graphs", "shortest_path_metric"),
    ("graphs.tree_structure", "got.graphs", "outward_tree_structure"),
    ("graphs.decomp", "got.graphs", "spanning_tree_decomposition"),
    ("measures.tails", "got.measures", "tails"),
    ("measures.pair_build", "got.measures", "EdgePairPath.__post_init__"),
    ("measures.integrate", "got.measures", "integrate_pair"),
    ("measures.interp", "got.measures", "convex_interpolation"),
    ("dynamics.cs_tree", "got.dynamics", "constant_speed_solution_tree"),
    ("dynamics.tail_check", "got.dynamics", "tail_pde_check"),
    ("dynamics.residual", "got.dynamics", "transport_residual"),
    ("dynamics.energy", "got.dynamics", "energy"),
    ("dynamics.cs_graph", "got.dynamics", "constant_speed_solution_graph"),
    ("dynamics.benamou", "got.dynamics", "benamou_distance"),
    ("dynamics.geodesic", "got.dynamics", "geodesic"),
    ("cli.load", "got.graphs", "load_graph"),
    ("cli.load", "got.measures", "load_distribution"),
    ("cli.load", "got.measures", "triple_from_json"),
    ("worked_examples.build", "got.worked_examples", "build_example"),
    ("worked_examples.evaluate", "got.worked_examples", "evaluate_example"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))
# the span the benchmark opens around each timed op; its self time is the
# op time no layer span covers
OP_SPAN = "op"


def _count_kernel(tracer, idx, args, result):
    tableau = args[0]
    pivots = int(result[1])
    parent = tracer.spans[idx][3]
    phase = 1 + tracer.kernel_calls.get(parent, 0)
    tracer.kernel_calls[parent] = phase
    tracer.spans[idx][5] = {
        "pivots": pivots,
        f"pivots_phase{min(phase, 2)}": pivots,
        # each pivot reads and rewrites the whole tableau once
        "bytes_computed": pivots * int(tableau.nbytes) * 2,
    }


def _count_lp(tracer, idx, args, result):
    rows, cols = args[0].eq_matrix.shape
    tracer.spans[idx][5] = {"lp_rows": int(rows), "lp_cols": int(cols)}


def _count_incidence(tracer, idx, args, result):
    tracer.spans[idx][5] = {"dense_bytes": int(result.nbytes)}


def _count_decomp(tracer, idx, args, result):
    dense = result.right_inverse.nbytes + result.cycle_basis.nbytes
    tracer.spans[idx][5] = {"dense_bytes": int(dense)}


COUNTERS = {
    "kernels.iterate": _count_kernel,
    "simplex.solve_lp": _count_lp,
    "graphs.incidence": _count_incidence,
    "graphs.decomp": _count_decomp,
}


class Tracer:
    """Collects spans; ``install`` wraps the layers, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.kernel_calls: dict[int, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name, start, end, parent=-1, counts=None) -> None:
        """Record a finished span measured elsewhere (e.g. in a child process)."""
        self.spans.append([name, start, end, parent, self.op, counts])

    def graft(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another tracer under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _, counts in spans:
            self.add(name, start, end, parent if par < 0 else base + par, counts)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(tracer, idx, args, result)
            return result

        return traced

    def install(self) -> None:
        # import every layer module first: one imported while wrappers are in
        # place would bind a wrapper by name and keep it after uninstall
        modules = {}
        for _, module_name, _ in LAYERS:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "got" or key.startswith("got."))]
        wrapped_names = set()
        for name, module_name, attr in LAYERS:
            module = modules.get(module_name)
            if module is None:
                continue
            owner, _, member = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                if cls is None or member not in vars(cls):
                    continue
                self._undo.append((cls, member, vars(cls)[member]))
                setattr(cls, member, self.wrap(name, vars(cls)[member]))
                wrapped_names.add(name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, value))
                        setattr(ns, key, self.wrap(name, original))
            wrapped_names.add(name)
        self.absent = [n for n in LAYER_NAMES if n not in wrapped_names]

    def uninstall(self) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    selfs = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs
