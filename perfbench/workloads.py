"""The four workloads: input generation, the timed operation and its check.

Inputs are plain data made from the seed with numpy (labels, edge lists,
mass vectors, and JSON files for the CLI); every timed operation builds its
``DirectedGraph`` from them and calls the public API the way a user does.
A workload runs in rounds: one round is one operation per slot, in slot
order, and round ``r`` uses input set ``r`` modulo the pool size. Checks
run after the timed window and return an error string or None.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import got

# fixed tolerances of the correctness checks
VALUE_TOL = 1e-8  # W1 values of two solvers, or of got and scipy's HiGHS
BALANCE_TOL = 1e-9  # |incidence @ flow - (f1 - f0)|_inf
RESIDUAL_TOL = 1e-8  # transport and tail residuals, replayed endpoint
CLI_TIMEOUT_S = 60.0

# One round per workload. A round's slots are chosen so that the median op
# falls inside one class of similar ops, not on the jump between two (on
# coupling_lp, flow_mixed and tree_dynamics as many slots lie below that
# class as above it, so the median is that class's own), and so that the
# slowest class alone holds the 11 slowest ops of a run, where op_tail_ms
# is read. In a 25 s run that needs a round shorter than 12.5 s on
# coupling_lp (4 V50 slots in 12, 3 rounds), 5 s on cli (2 kantorovich
# slots in 11, 6 rounds) and 2.5 s on flow_mixed and tree_dynamics (11
# rounds); on 2 Xeon vCPUs their rounds take about 9, 4, 0.7 and 1.5 s.
FULL = {
    "coupling_lp": {"sizes": (20, 40, 50, 30, 40, 50) * 2, "pool": 16},
    "flow_mixed": {"vertices": 200, "grid": 14, "pool": 48},
    "tree_dynamics": {"sizes": (500, 2000, 2000), "steps": (200, 100, 150), "pool": 16},
    "cli": {"tree": 200, "graph": 30, "steps": 100, "triple_steps": 20, "pool": 8},
}
TINY = {
    "coupling_lp": {"sizes": (6, 10, 12, 8, 10, 12) * 2, "pool": 4},
    "flow_mixed": {"vertices": 24, "grid": 4, "pool": 4},
    "tree_dynamics": {"sizes": (30, 60, 60), "steps": (16, 8, 12), "pool": 4},
    "cli": {"tree": 12, "graph": 8, "steps": 5, "triple_steps": 4, "pool": 2},
}
FLOW_SLOTS = ("tree", "sparse", "grid", "sparse")
EXAMPLES = ("binomial", "poisson", "star", "square")
EXAMPLE_VALUES = ("analytic_I2", "kantorovich", "beckmann")


@dataclass
class Workload:
    name: str
    slots: tuple[str, ...]
    rounds: list[list[dict]]
    op: Callable[[dict], dict]
    check: Callable[[dict, dict, float], str | None]
    # how a traced run calls the op; None means "op under the installed tracer"
    traced_op: Callable | None = None
    files: list[Path] = field(default_factory=list)

    def instance(self, round_index: int, slot: int) -> dict:
        return self.rounds[round_index % len(self.rounds)][slot]


# --------------------------------------------------------------- generators


def tree_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Random recursive tree rooted at 0, edges pointing away from the root,
    in shuffled order."""
    children = np.arange(1, n)
    parents = (rng.random(n - 1) * children).astype(np.int64)
    order = rng.permutation(n - 1)
    return [(int(parents[i]), int(children[i])) for i in order]


def sparse_edges(rng: np.random.Generator, n: int, chords: int) -> list[tuple[int, int]]:
    """A random tree plus ``chords`` extra edges of random orientation."""
    edges = tree_edges(rng, n)
    used = {(min(t, h), max(t, h)) for t, h in edges}
    while len(edges) < n - 1 + chords:
        x, y = (int(v) for v in rng.integers(0, n, size=2))
        if x != y and (min(x, y), max(x, y)) not in used:
            used.add((min(x, y), max(x, y)))
            edges.append((x, y))
    order = rng.permutation(len(edges))
    return [edges[i] for i in order]


def grid_edges(rng: np.random.Generator, k: int) -> list[tuple[int, int]]:
    """k x k grid, each edge oriented at random, in shuffled order."""
    edges = []
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                edges.append((v, v + 1))
            if i + 1 < k:
                edges.append((v, v + k))
    flip = rng.random(len(edges)) < 0.5
    edges = [(h, t) if f else (t, h) for (t, h), f in zip(edges, flip)]
    order = rng.permutation(len(edges))
    return [edges[i] for i in order]


def distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random probability vector; three in ten have 40% of vertices empty."""
    weights = rng.random(n)
    if rng.random() < 0.3:
        dead = rng.random(n) < 0.4
        dead[int(rng.integers(0, n))] = False
        weights[dead] = 0.0
    return weights / weights.sum()


def labels_for(n: int, cache: dict) -> tuple[str, ...]:
    if n not in cache:
        cache[n] = tuple(str(i) for i in range(n))
    return cache[n]


def incidence_times(edges, n: int, flow: np.ndarray) -> np.ndarray:
    """incidence @ flow from the edge list: +flow at heads, -flow at tails."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    out = np.zeros(n)
    np.add.at(out, arr[:, 1], flow)
    np.add.at(out, arr[:, 0], -flow)
    return out


def tails_of(edges, n: int, mass: np.ndarray) -> np.ndarray:
    """Tail masses on an outward tree made by ``tree_edges``, where every
    parent index is below its child's."""
    parent = np.empty(n, dtype=np.int64)
    for t, h in edges:
        parent[h] = t
    F = np.array(mass, dtype=float)
    for v in range(n - 1, 0, -1):
        F[parent[v]] += F[v]
    return F


def inputs_digest(wl: Workload) -> str:
    digest = hashlib.sha256()
    for rnd in wl.rounds:
        for inst in rnd:
            for key in sorted(inst):
                value = inst[key]
                if isinstance(value, np.ndarray):
                    digest.update(value.tobytes())
                elif key != "labels":
                    digest.update(repr(value).encode())
    for path in wl.files:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _graph(inst: dict, edges_key: str = "edges") -> got.DirectedGraph:
    return got.DirectedGraph(inst["labels"], inst[edges_key], inst["root"])


def _value_error(what: str, got_value: float, ref: float) -> str | None:
    if abs(got_value - ref) <= VALUE_TOL * max(1.0, abs(ref)):
        return None
    return f"{what}: {got_value!r} vs reference {ref!r}"


# ---------------------------------------------------------------- coupling_lp


def build_coupling(rng, cfg) -> Workload:
    cache: dict = {}
    rounds = []
    for _ in range(cfg["pool"]):
        rnd = []
        for n in cfg["sizes"]:
            rnd.append({
                "labels": labels_for(n, cache),
                "edges": tuple(sparse_edges(rng, n, max(1, n // 10))),
                "root": 0,
                "f0": distribution(rng, n),
                "f1": distribution(rng, n),
            })
        rounds.append(rnd)

    def op(inst):
        value, _ = got.w1_kantorovich(_graph(inst), inst["f0"], inst["f1"])
        return {"value": value}

    def check(inst, out, bias):
        ref, _ = got.w1_beckmann(_graph(inst), inst["f0"], inst["f1"])
        return _value_error("coupling LP vs Beckmann", out["value"], ref + bias)

    slots = tuple(f"V{n}" for n in cfg["sizes"])
    return Workload("coupling_lp", slots, rounds, op, check)


# ----------------------------------------------------------------- flow_mixed


def _highs_beckmann(edges, n: int, delta: np.ndarray) -> float:
    from scipy.optimize import linprog

    arr = np.asarray(edges, dtype=np.int64)
    m = arr.shape[0]
    omega = np.zeros((n, m))
    omega[arr[:, 1], np.arange(m)] = 1.0
    omega[arr[:, 0], np.arange(m)] = -1.0
    # HiGHS's default 1e-7 feasibility tolerances can leave the optimum off
    # by ~1e-7, above VALUE_TOL; tightened, it agrees with got to ~1e-15
    res = linprog(np.ones(2 * m), A_eq=np.hstack([omega, -omega]), b_eq=delta,
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return float(res.fun)


def build_flow(rng, cfg) -> Workload:
    cache: dict = {}
    n, k = cfg["vertices"], cfg["grid"]
    rounds = []
    for _ in range(cfg["pool"]):
        rnd = []
        for family in FLOW_SLOTS:
            if family == "tree":
                edges, size = tree_edges(rng, n), n
            elif family == "sparse":
                edges, size = sparse_edges(rng, n, n // 10), n
            else:
                edges, size = grid_edges(rng, k), k * k
            rnd.append({
                "family": family,
                "labels": labels_for(size, cache),
                "edges": tuple(edges),
                "root": 0,
                "f0": distribution(rng, size),
                "f1": distribution(rng, size),
            })
        rounds.append(rnd)

    def op(inst):
        value, pair = got.benamou_distance(_graph(inst), inst["f0"], inst["f1"], 2.0)
        return {"value": value, "flow": pair.flux()[0]}

    def check(inst, out, bias):
        delta = inst["f1"] - inst["f0"]
        size = len(inst["labels"])
        balance = np.abs(incidence_times(inst["edges"], size, out["flow"]) - delta).max()
        if not balance <= BALANCE_TOL:
            return f"flow misses its balance equation by {balance:.3e}"
        if inst["family"] == "tree":
            ref = got.w1_tree(_graph(inst), inst["f0"], inst["f1"])
        else:
            ref = _highs_beckmann(inst["edges"], size, delta)
        return _value_error(f"benamou on {inst['family']}", out["value"], ref + bias)

    return Workload("flow_mixed", FLOW_SLOTS, rounds, op, check)


# -------------------------------------------------------------- tree_dynamics


def build_tree_dynamics(rng, cfg) -> Workload:
    cache: dict = {}
    rounds = []
    for _ in range(cfg["pool"]):
        rnd = []
        for n, steps in zip(cfg["sizes"], cfg["steps"]):
            rnd.append({
                "labels": labels_for(n, cache),
                "tree": tuple(tree_edges(rng, n)),
                "graph": tuple(sparse_edges(rng, n, n // 10)),
                "root": 0,
                "steps": steps,
                "f0": distribution(rng, n),
                "f1": distribution(rng, n),
            })
        rounds.append(rnd)

    def op(inst):
        f0, f1 = inst["f0"], inst["f1"]
        tree = _graph(inst, "tree")
        w1 = got.w1_tree(tree, f0, f1)
        path = got.geodesic(tree, f0, f1, got.TimeGrid(inst["steps"]), mode="convex")
        pair = got.constant_speed_solution_tree(tree, path)
        triple = got.Triple(path, pair)
        tail = got.tail_pde_check(triple, tree)
        residual = got.transport_residual(triple, tree.incidence)
        replay = got.integrate_pair(f0, pair, tree.incidence)
        value = got.energy(pair, 2.0).value
        graph = _graph(inst, "graph")
        decomp = got.spanning_tree_decomposition(graph)
        graph_pair = got.constant_speed_solution_graph(decomp, f0, f1)
        return {
            "w1": w1,
            "energy": value,
            "tail_residual": tail.max_abs_residual,
            "transport_residual": residual.max_abs_residual,
            "replay_end": replay.samples[-1].copy(),
            "graph_flux": graph_pair.time_integral(),
        }

    def check(inst, out, bias):
        n = len(inst["labels"])
        delta = inst["f1"] - inst["f0"]
        for key in ("tail_residual", "transport_residual"):
            if not out[key] <= RESIDUAL_TOL:
                return f"{key} {out[key]:.3e} above {RESIDUAL_TOL:g}"
        replay = np.abs(out["replay_end"] - inst["f1"]).max()
        if not replay <= RESIDUAL_TOL:
            return f"integrated pair ends {replay:.3e} away from f1"
        balance = np.abs(incidence_times(inst["graph"], n, out["graph_flux"]) - delta).max()
        if not balance <= BALANCE_TOL:
            return f"graph pair misses its balance equation by {balance:.3e}"
        return _value_error("energy vs w1_tree", out["energy"], out["w1"] + bias)

    slots = tuple(f"V{n}_M{m}" for n, m in zip(cfg["sizes"], cfg["steps"]))
    return Workload("tree_dynamics", slots, rounds, op, check)


# ------------------------------------------------------------------------ cli


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload))
    return path


def _graph_json(n: int, edges) -> dict:
    return {"vertices": [str(i) for i in range(n)],
            "edges": [{"tail": str(t), "head": str(h)} for t, h in edges],
            "root": "0"}


def _dist_json(f: np.ndarray) -> dict:
    return {"values": {str(i): float(x) for i, x in enumerate(f)}}


def _triple_json(edges, n: int, f0, f1, steps: int) -> dict:
    """Convex path on an outward tree with its constant-speed pair."""
    heads = np.array([v for _, v in edges], dtype=np.int64)
    h = (tails_of(edges, n, f1) - tails_of(edges, n, f0))[heads]
    speed = float(np.abs(h).sum())
    v = np.where(h >= 0.0, 1.0, -1.0) * speed
    g = np.abs(h) / speed
    t = np.linspace(0.0, 1.0, steps + 1)[:, None]
    return {"steps": steps, "f": ((1.0 - t) * f0 + t * f1).tolist(),
            "v": [v.tolist()] * steps, "g": [g.tolist()] * steps}


def _last_value(stdout: str, key: str) -> float | None:
    for line in reversed(stdout.splitlines()):
        if line.startswith(key + ": "):
            return float(line.split(": ", 1)[1].split()[0])
    return None


def build_cli(rng, cfg, root: Path, workdir: Path) -> Workload:
    files: list[Path] = []
    rounds = []
    n_tree, n_graph = cfg["tree"], cfg["graph"]
    csv = str(workdir / "geodesic.csv")
    for r in range(cfg["pool"]):
        def write(stem, payload):
            files.append(_write_json(workdir / f"r{r}_{stem}.json", payload))
            return str(files[-1])

        t_edges = tree_edges(rng, n_tree)
        t0, t1 = distribution(rng, n_tree), distribution(rng, n_tree)
        g_edges = sparse_edges(rng, n_graph, max(1, n_graph // 10))
        tree = write("tree", _graph_json(n_tree, t_edges))
        tf0, tf1 = write("tree_f0", _dist_json(t0)), write("tree_f1", _dist_json(t1))
        graph = write("graph", _graph_json(n_graph, g_edges))
        gf0 = write("graph_f0", _dist_json(distribution(rng, n_graph)))
        gf1 = write("graph_f1", _dist_json(distribution(rng, n_graph)))
        triple = write("triple", _triple_json(t_edges, n_tree, t0, t1, cfg["triple_steps"]))
        tree_io = ["--graph", tree, "--from", tf0, "--to", tf1]
        graph_io = ["--graph", graph, "--from", gf0, "--to", gf1]
        auto = {"kind": "distance", "method": "auto",
                "argv": ["distance", *tree_io, "--method", "auto"]}
        kantorovich = {"kind": "distance", "method": "kantorovich",
                       "argv": ["distance", *graph_io, "--method", "kantorovich"]}
        # kantorovich, the slowest command, and auto, among the fastest,
        # run twice a round: see FULL
        rnd = [
            auto,
            {"kind": "distance", "method": "beckmann",
             "argv": ["distance", *graph_io, "--method", "beckmann"]},
            kantorovich,
            {"kind": "geodesic", "rows": (cfg["steps"] + 1) * n_tree,
             "argv": ["geodesic", *tree_io, "--steps", str(cfg["steps"]), "--out", csv]},
            auto,
            {"kind": "verify", "argv": ["verify", "--graph", tree, "--triple", triple]},
            kantorovich,
        ]
        rnd += [{"kind": "examples", "name": name, "argv": ["examples", name]}
                for name in EXAMPLES]
        rounds.append(rnd)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def run(cmd):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=root, timeout=CLI_TIMEOUT_S)
        return {"rc": proc.returncode, "stdout": proc.stdout}

    def op(inst):
        return run([sys.executable, "-m", "got.cli", *inst["argv"]])

    def traced_op(inst, spans_path: Path):
        child = Path(__file__).with_name("clichild.py")
        return run([sys.executable, str(child), str(spans_path), *inst["argv"]])

    references: dict = {}

    def reference(inst) -> float:
        """In-process value of a distance command, computed once."""
        key = tuple(inst["argv"])
        if key not in references:
            argv = inst["argv"]
            graph = got.load_graph(argv[2])
            f0 = got.load_distribution(argv[4], graph)
            f1 = got.load_distribution(argv[6], graph)
            method = inst["method"]
            if method == "auto":
                references[key] = got.w1_auto(graph, f0, f1)
            elif method == "beckmann":
                references[key] = got.w1_beckmann(graph, f0, f1)[0]
            else:
                references[key] = got.w1_kantorovich(graph, f0, f1)[0]
        return references[key]

    def check(inst, out, bias):
        if out["rc"] != 0:
            return f"`got {inst['argv'][0]}` exited {out['rc']}"
        stdout = out["stdout"]
        kind = inst["kind"]
        if kind == "geodesic":
            expected = f"wrote {inst['rows']} rows"
            return None if stdout.startswith(expected) else f"geodesic printed {stdout!r}"
        if kind == "verify":
            return None if "PASS" in stdout else f"verify printed {stdout!r}"
        if kind == "distance":
            printed = _last_value(stdout, "distance")
            if printed is None:
                return "distance printed no distance"
            return _value_error("cli distance", printed, reference(inst) + bias)
        # the three computed values against the example's closed form
        closed = _last_value(stdout, "closed_form")
        if closed is None:
            return "examples printed no closed_form"
        for key in EXAMPLE_VALUES:
            printed = _last_value(stdout, key)
            if printed is None:
                return f"examples printed no {key}"
            err = _value_error(f"cli examples {key}", printed, closed + bias)
            if err is not None:
                return err
        return None

    slots = ("distance_auto", "distance_beckmann", "distance_kantorovich", "geodesic",
             "distance_auto", "verify", "distance_kantorovich") + tuple(
                 f"examples_{n}" for n in EXAMPLES)
    return Workload("cli", slots, rounds, op, check, traced_op, files)


NAMES = ("coupling_lp", "flow_mixed", "tree_dynamics", "cli")


def build(name: str, seed: int, tiny: bool, root: Path, workdir: Path) -> Workload:
    cfg = (TINY if tiny else FULL)[name]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "coupling_lp":
        return build_coupling(rng, cfg)
    if name == "flow_mixed":
        return build_flow(rng, cfg)
    if name == "tree_dynamics":
        return build_tree_dynamics(rng, cfg)
    return build_cli(rng, cfg, root, workdir)
