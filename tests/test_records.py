"""The record rule: every stored benchmark record is reproduced within the
benchmark's relative tolerance (``perfbench/workloads.py``, REL_TOL = 1e-9),
checked here on the first pool index and the held-out index of each
workload, through the benchmark's own ``check_op``."""
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_records_match_references(workloads, tmp_path):
    for name in ("noise-sweep", "attack-long"):
        workload = workloads.WORKLOADS[name]
        refs = workloads.load_references(workload)
        for index in (0, workload.held_out):
            result = workloads.run_op(workload, index, tmp_path / name / str(index))
            assert workloads.check_op(workload, result, refs) == [], (name, index)
