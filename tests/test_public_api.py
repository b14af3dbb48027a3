"""The names the benchmark harness reads from `brolip` stay importable."""

import importlib.util
import re
from pathlib import Path

import pytest

import brolip

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FILES = ("workloads.py", "harness.py")


def _used_names():
    names = set()
    for name in FILES:
        names.update(re.findall(r"\bbl\.(\w+)", (PERFBENCH / name).read_text()))
    return sorted(names)


def test_benchmark_reads_the_package_through_bl():
    # guards the scan below against a harness that renamed its alias
    assert {"build_model", "train", "pgd_attack", "alloc_stats"} <= set(_used_names())


@pytest.mark.parametrize("name", _used_names())
def test_benchmark_name_resolves_on_brolip(name):
    assert hasattr(brolip, name), f"perfbench uses bl.{name}, which brolip lacks"


def _tracer():
    # by file path: the tracer imports only the standard library and numpy
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("layer, path", [(layer, path) for layer, path, _ in TRACER.TARGETS])
def test_tracer_target_resolves(layer, path):
    assert TRACER._resolve(layer, path) is not None, \
        f"perfbench traces {layer}.{path}, which brolip lacks"
