"""The benchmark's workloads, at tiny sizes, run on this package and pass their checks.

perfbench pins public names and signatures; a change that breaks one
shows here as a failed op or check, not only in the benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["coupling_lp", "flow_mixed", "tree_dynamics", "cli"])
def test_workload_round_passes_its_checks(name, tmp_path):
    pytest.importorskip("scipy")
    workloads = _workloads()
    wl = workloads.build(name, 1, True, ROOT, tmp_path)
    for slot, label in enumerate(wl.slots):
        inst = wl.instance(0, slot)
        error = wl.check(inst, wl.op(inst), 0.0)
        assert error is None, f"{label}: {error}"
