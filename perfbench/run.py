"""Layered benchmark for got.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: coupling_lp, flow_mixed, tree_dynamics, cli (see BENCHMARK.json
for why each exists). The workload runs in its own process (worker.py) as a
closed loop with one client; this script only starts processes one after
another and reports. Its last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the detail: provenance, latency percentile and sample count, per-slot
medians, the inputs' digest, the first errors, and for traced runs the
fingerprint and the layers that dominate.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of BENCHMARK.json. ``setup_s`` is the median of several set-ups:
SETUP_RUNS processes that stop at their first timed op, plus the
measuring process itself.

Self-test at tiny sizes: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_RUNS = 2  # extra processes timed up to their first op, with --trace 0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the self-test")
    parser.add_argument("--bias", type=float, default=0.0,
                        help="added to every reference value; nonzero makes "
                             "the correctness gate fail (self-test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "got" / "__init__.py").is_file():
        return fail(f"no got sources under {ROOT / 'src'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    started = time.monotonic()
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--bias", repr(args.bias)]
    if args.tiny:
        worker.append("--tiny")

    def launch(extra: list[str]) -> tuple[float, dict]:
        spawned = time.monotonic()
        budget = DEADLINE_S - (spawned - started)
        # own session, so a timeout also ends the CLI processes it started
        proc = subprocess.Popen(worker + extra, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            sys.stderr.write(stderr)
            raise RuntimeError(f"worker exited {proc.returncode}")
        report = json.loads(stdout.strip().splitlines()[-1])
        return report["first_op_at"] - spawned, report

    try:
        setups = []
        if args.trace == 0:
            setups = [launch(["--setup-only"])[0] for _ in range(SETUP_RUNS)]
        setup, report = launch([])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))
    setups.append(setup)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(report["metrics"], setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    detail = dict(report["detail"], workload=args.workload, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
