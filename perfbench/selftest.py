"""Smoke self-test of the benchmark at tiny sizes (about a minute).

Usage (from the repository root): python3 perfbench/selftest.py

Checks that
  1. every metric named in BENCHMARK.json prints, with its unit, for every
     workload with tracing off and on, and the tiny runs are correct;
  2. a deliberately wrong reference value makes the correctness gate fail
     (``failed`` above 0, ``ok_frac`` below 1) on every workload;
  3. another seed changes the inputs but not the metric names.
Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, trace: int, bias: float = 0.0) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny", "--bias", repr(bias)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results: list[tuple[str, bool, str]] = []

    def record(label: str, ok: bool, why: str = "") -> None:
        results.append((label, ok, why))
        print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + why if why and not ok else ''}",
              flush=True)

    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        expected = {m["name"]: m["unit"] for m in declared}
        for workload in names:
            _, result = bench(workload, 1, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            numeric = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            ok = printed == expected and numeric and result["correct"]
            record(f"metrics and units, {workload}, trace {trace}", ok,
                   f"printed {printed}, correct={result['correct']}")

    for workload in names:
        detail, result = bench(workload, 1, 0, bias=1.0)
        ok = (result["failed"] > 0 and not result["correct"]
              and result["metrics"]["ok_frac"]["value"] < 1.0)
        record(f"wrong reference fails the gate, {workload}", ok,
               f"failed={result['failed']} of {result['attempted']}")

    first, one = bench(names[0], 1, 0)
    second, two = bench(names[0], 2, 0)
    ok = (first["inputs_sha256"] != second["inputs_sha256"]
          and one["metrics"].keys() == two["metrics"].keys())
    record("another seed changes inputs, not metric names", ok)

    failed = [label for label, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
