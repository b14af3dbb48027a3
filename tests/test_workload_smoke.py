"""Every benchmark workload, built at its tiny size, runs each operation of
its schedule once, so the benchmark's output checks run with the tests:
the bit-equal re-forward of a checkpointed network, the same-seed
`train()` and `evaluate` agreement, and the audit's no-flip check.

A failed check raises the workloads module's `CheckFailed`.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    # by file path: the module imports only the standard library, numpy and brolip
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_its_schedule(name, tmp_path):
    workload = WORKLOADS[name](1, tmp_path, tiny=True)
    ops = {op.slot: op for op in workload.ops}
    for slot in dict.fromkeys(workload.schedule):
        assert ops[slot].run() > 0  # samples processed: every check saw some
