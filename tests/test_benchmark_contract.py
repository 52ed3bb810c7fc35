"""The benchmark's workloads, at tiny sizes, run on this package and pass their checks.

perfbench pins public names and signatures; a change that breaks one
shows here as a failed op or check, not only in the benchmark run. Its
tracer wraps named layer functions, so a renamed one shows here too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["coupling_lp", "flow_mixed", "tree_dynamics", "cli"])
def test_workload_round_passes_its_checks(name, tmp_path):
    pytest.importorskip("scipy")
    workloads = _perfbench("workloads")
    wl = workloads.build(name, 1, True, ROOT, tmp_path)
    for slot, label in enumerate(wl.slots):
        inst = wl.instance(0, slot)
        error = wl.check(inst, wl.op(inst), 0.0)
        assert error is None, f"{label}: {error}"


@pytest.mark.parametrize("name", ["coupling_lp", "flow_mixed", "tree_dynamics"])
def test_traced_round_passes_its_checks(name, tmp_path):
    pytest.importorskip("scipy")
    workloads, tracing = _perfbench("workloads"), _perfbench("tracer")
    wl = workloads.build(name, 1, True, ROOT, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = [wl.op(wl.instance(0, slot)) for slot in range(len(wl.slots))]
    finally:
        tracer.uninstall()
    # the tree-structure layer is gone: trees need no orientation check, so
    # that layer's metrics read 0
    assert tracer.absent == ["graphs.tree_structure"]
    assert tracer.spans and all(span[2] is not None for span in tracer.spans)
    for slot, label in enumerate(wl.slots):
        error = wl.check(wl.instance(0, slot), outputs[slot], 0.0)
        assert error is None, f"{label}: {error}"
