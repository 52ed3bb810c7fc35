"""One workload in one process: a closed loop with one client.

Started by run.py. Builds the inputs from the seed, runs one untimed
warm-up operation, then runs whole rounds of operations, each starting
after the previous one ends, until ``--seconds`` have passed. Outputs are
checked after the timed window. Prints one JSON line for run.py.

With ``--trace 1`` the first half of the time is an untraced loop and the
second half a traced one. The traced loop opens with a fixed number of
rounds whose exact counts (ops, pivots, calls) form the fingerprint; the
per-layer times average over every traced op.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import OP_SPAN, Tracer, self_times  # noqa: E402

FINGERPRINT_ROUNDS = 1
MIN_TAIL_BEYOND = 10

# per-layer self time per op, by span name
TIME_METRICS = {
    "kernels.iterate": "kernels.iterate_ms",
    "simplex.solve_lp": "simplex.self_ms",
    "transport.kantorovich": "transport.kantorovich_self_ms",
    "transport.beckmann": "transport.beckmann_self_ms",
    "transport.tree": "transport.tree_ms",
    "graphs.construct": "graphs.construct_ms",
    "graphs.incidence": "graphs.incidence_ms",
    "graphs.metric": "graphs.metric_ms",
    "graphs.tree_structure": "graphs.tree_structure_ms",
    "graphs.decomp": "graphs.decomp_ms",
    "measures.tails": "measures.tails_ms",
    "measures.pair_build": "measures.pair_build_ms",
    "measures.integrate": "measures.integrate_ms",
    "measures.interp": "measures.interp_ms",
    "dynamics.cs_tree": "dynamics.cs_tree_self_ms",
    "dynamics.tail_check": "dynamics.tail_check_self_ms",
    "dynamics.residual": "dynamics.residual_ms",
    "dynamics.energy": "dynamics.energy_ms",
    "dynamics.cs_graph": "dynamics.cs_graph_ms",
    "dynamics.benamou": "dynamics.benamou_self_ms",
    "dynamics.geodesic": "dynamics.geodesic_self_ms",
    "cli.import": "cli.import_ms",
    "cli.load": "cli.load_ms",
    "cli.command": "cli.command_ms",
    "worked_examples.build": "worked_examples.build_ms",
    "worked_examples.evaluate": "worked_examples.evaluate_self_ms",
    OP_SPAN: "trace.uncovered_ms",
}


def tail_index(n: int) -> int:
    """Index, in sorted order, of the highest sample with at least
    MIN_TAIL_BEYOND samples above it, but never below the median."""
    return max(n - 1 - MIN_TAIL_BEYOND, n // 2)


def same(a, b) -> bool:
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


class Loop:
    """Runs whole rounds of a workload and keeps (round, slot, seconds, output)."""

    def __init__(self, wl: workloads.Workload, tracer: Tracer | None = None,
                 workdir: Path | None = None):
        self.wl = wl
        self.tracer = tracer
        self.workdir = workdir
        self.records: list[tuple[int, int, float, dict | None, str | None]] = []
        self.elapsed = 0.0

    def call(self, inst: dict) -> dict:
        tracer = self.tracer
        if tracer is None:
            return self.wl.op(inst)
        idx = tracer.open(OP_SPAN)
        try:
            if self.wl.traced_op is None:
                return self.wl.op(inst)
            spans_path = self.workdir / "child_spans.json"
            out = self.wl.traced_op(inst, spans_path)
            tracer.graft(json.loads(spans_path.read_text()), idx)
            spans_path.unlink()
            return out
        finally:
            tracer.close(idx)

    def run(self, seconds: float, min_rounds: int = 1) -> None:
        start = time.perf_counter()
        r = 0
        while r < min_rounds or time.perf_counter() - start < seconds:
            for s in range(len(self.wl.slots)):
                inst = self.wl.instance(r, s)
                if self.tracer is not None:
                    self.tracer.op += 1
                t0 = time.perf_counter()
                try:
                    out, err = self.call(inst), None
                except Exception as exc:  # a failed op is counted, not fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                self.records.append((r, s, time.perf_counter() - t0, out, err))
            r += 1
        self.elapsed = time.perf_counter() - start

    def check(self, bias: float, expected: Loop | None = None) -> list[str]:
        """One error per failed op. With ``expected``, an op must also
        reproduce that loop's output for the same input bit for bit."""
        earlier = {(r, s): out for r, s, _, out, _ in expected.records} if expected else {}
        errors = []
        for r, s, _, out, err in self.records:
            if err is None:
                try:
                    err = self.wl.check(self.wl.instance(r, s), out, bias)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is None and earlier.get((r, s)) is not None and not same(earlier[(r, s)], out):
                err = "traced output differs from the untraced one"
            if err is not None:
                errors.append(f"round {r} {self.wl.slots[s]}: {err}")
        return errors

    def times(self) -> list[float]:
        return [dt for _, _, dt, _, _ in self.records]


def latency_stats(loop: Loop) -> dict:
    samples = sorted(loop.times())
    k = tail_index(len(samples))
    slot_times = defaultdict(list)
    for _, s, dt, _, _ in loop.records:
        slot_times[loop.wl.slots[s]].append(dt)
    return {
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": samples[k] * 1e3,
        "op_tail_pct": 100.0 * (k + 1) / len(samples),
        "samples": len(samples),
        "ops_per_s": len(samples) / loop.elapsed,
        "measured_s": loop.elapsed,
        "slot_p50_ms": {name: statistics.median(v) * 1e3 for name, v in slot_times.items()},
    }


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def provenance(seed: int) -> dict:
    """Machine, interpreter, BLAS and kernel facts recorded with every result."""
    import ctypes
    import hashlib
    import os
    import platform
    import subprocess

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh
                             if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas_threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                blas_threads = int(getattr(handle, symbol)())
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from got import _kernels
    except ImportError:
        kernel = "absent"
    else:
        kernel = "numba" if _kernels.simplex_iterate is getattr(
            _kernels, "simplex_iterate_numba", None) else "numpy"
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "simplex_kernel": kernel,
    }


def check_nesting(spans: list[list]) -> None:
    """Every span closed, inside its parent, and every layer span inside an
    op: then the self times of one op add up to its duration."""
    for name, start, end, parent, _, _ in spans:
        if end is None:
            raise RuntimeError(f"span {name} never closed")
        if parent < 0 and name != OP_SPAN:
            raise RuntimeError(f"span {name} lies outside every op")
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start - 1e-6 or end > p_end + 1e-6:
                raise RuntimeError(f"span {name} escapes its parent {spans[parent][0]}")


def layer_metrics(tracer: Tracer, fp_ops: int, untraced_p50: float,
                  traced: Loop) -> tuple[dict, dict]:
    spans = tracer.spans
    check_nesting(spans)
    selfs = self_times(spans)
    n_ops = len(traced.records)
    total_self = defaultdict(float)
    for span, own in zip(spans, selfs):
        total_self[span[0]] += own
    metrics = {metric: total_self.get(name, 0.0) / n_ops * 1e3
               for name, metric in TIME_METRICS.items()}

    calls = defaultdict(int)
    counts = defaultdict(int)
    for name, _, _, _, op, extra in spans:
        if op < fp_ops:
            calls[name] += 1
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] += value
    lp_calls = calls["simplex.solve_lp"]
    metrics.update({
        "kernels.pivots_phase1": counts["kernels.iterate.pivots_phase1"] / fp_ops,
        "kernels.pivots_phase2": counts["kernels.iterate.pivots_phase2"] / fp_ops,
        "kernels.bytes_computed": counts["kernels.iterate.bytes_computed"] / fp_ops,
        "simplex.calls": lp_calls / fp_ops,
        "simplex.lp_rows": counts["simplex.solve_lp.lp_rows"] / lp_calls if lp_calls else 0.0,
        "simplex.lp_cols": counts["simplex.solve_lp.lp_cols"] / lp_calls if lp_calls else 0.0,
        "graphs.tree_structure_calls": calls["graphs.tree_structure"] / fp_ops,
        "graphs.dense_mib": (counts["graphs.incidence.dense_bytes"]
                             + counts["graphs.decomp.dense_bytes"]) / fp_ops / 2**20,
        "measures.tails_calls": calls["measures.tails"] / fp_ops,
        "fp.ops": float(fp_ops),
        "fp.pivots": float(counts["kernels.iterate.pivots"]),
        "fp.tree_structure_calls": float(calls["graphs.tree_structure"]),
        "fp.tails_calls": float(calls["measures.tails"]),
    })
    traced_p50 = statistics.median(traced.times())
    metrics["trace.op_ms"] = statistics.fmean(traced.times()) * 1e3
    metrics["trace_overhead_frac"] = traced_p50 / untraced_p50 - 1.0

    # where the traced op time goes, by self time, biggest first
    shares = sorted(((own / sum(selfs), TIME_METRICS[name]) for name, own in total_self.items()),
                    reverse=True)
    detail = {
        "absent_layers": tracer.absent,
        "top_self_share": {name: round(share, 4) for share, name in shares[:5]},
        "dominant_layer": shares[0][1],
        "fingerprint": {k: metrics[k] for k in
                        ("fp.ops", "fp.pivots", "fp.tree_structure_calls", "fp.tails_calls")},
        "traced_ops": n_ops,
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--bias", type=float, default=0.0)
    args = parser.parse_args()

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.tiny, ROOT, workdir)
    wl.op(wl.instance(0, 0))  # untimed warm-up
    first_op_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op_at": first_op_at}))
        return 0

    is_cli = args.workload == "cli"
    if args.trace == 0:
        loop = Loop(wl)
        loop.run(args.seconds)
        rss = peak_rss_mib(children=is_cli)
        errors = loop.check(args.bias)
        attempted = len(loop.records)
        stats = latency_stats(loop)
        metrics = {
            "op_p50_ms": stats.pop("op_p50_ms"),
            "op_tail_ms": stats.pop("op_tail_ms"),
            "ops_per_s": stats.pop("ops_per_s"),
            "ok_frac": 1.0 - len(errors) / attempted,
            "peak_rss_mib": rss,
        }
        detail = dict(stats, failed_frac=len(errors) / attempted)
    else:
        plain = Loop(wl)
        plain.run(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = Loop(wl, tracer, workdir)
        try:
            traced.run(args.seconds / 2, min_rounds=FINGERPRINT_ROUNDS)
        finally:
            tracer.uninstall()
        errors = plain.check(args.bias) + traced.check(args.bias, expected=plain)
        attempted = len(plain.records) + len(traced.records)
        fp_ops = FINGERPRINT_ROUNDS * len(wl.slots)
        metrics, detail = layer_metrics(tracer, fp_ops, statistics.median(plain.times()), traced)
        detail["failed_frac"] = len(errors) / attempted
        spans_file = HERE / "_work" / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps({"absent": tracer.absent, "spans": tracer.spans}))
        detail["spans_file"] = str(spans_file.relative_to(ROOT))

    detail.update(inputs_sha256=workloads.inputs_digest(wl), errors=errors[:5],
                  input_sets=len(wl.rounds), slots=list(wl.slots),
                  provenance=provenance(args.seed))
    print(json.dumps({
        "first_op_at": first_op_at,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
