"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import brolip as bl  # noqa: E402
from perfbench import harness, tracer, workloads  # noqa: E402

# `brolip.train` the attribute is the function; the module is in sys.modules.
certify, fft, models, tape, train = (importlib.import_module(f"brolip.{m}") for m in
                                     ("certify", "fft", "models", "tape", "train"))

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace, tmp_path):
    result, report = harness.run(name, 1, 0.05, trace, tmp_path, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert report["failed_ratio"] == 0
    expected = PER_LAYER if trace else E2E
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for k, v in result["metrics"].items():
        assert math.isfinite(v["value"]), k
        if not trace:
            assert v["value"] > 0, k
    env = report["environment"]
    assert {"python", "numpy", "blas", "blas_threads", "nproc"} <= set(env)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > g [2, 3];  root > b [5, 9]
    spans = [["root", "other", 0.0, 10.0, None, None, True, None],
             ["a", "fft", 1.0, 4.0, 0, None, True, None],
             ["g", "linalg", 2.0, 3.0, 1, None, True, None],
             ["b", "fft", 5.0, 9.0, 0, None, True, None]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = tracer.Totals()
    totals.add(spans)
    assert totals.layer_self == {"other": 3.0, "fft": 6.0, "linalg": 1.0}
    assert totals.seconds["a"] == 3.0 and totals.self_seconds["a"] == 2.0


def test_injected_wrong_output_raises_failed_ratio(tmp_path, monkeypatch):
    real = bl.bro_conv_forward
    monkeypatch.setattr(bl, "bro_conv_forward",
                        lambda k, x, g: bl.Tensor(1.001 * real(k, x, g).array))
    result, report = harness.run("bench_scale", 1, 0.05, False, tmp_path, tiny=True)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert report["failed_ratio"] == result["failed"] / result["attempted"]


def test_end_to_end_times_are_raw_medians_at_the_reference_speed(tmp_path):
    result, report = harness.run("toy_train", 1, 0.05, False, tmp_path, tiny=True)
    speed = harness.REFERENCE_S / report["reference_s"]["median"]
    metrics = result["metrics"]
    assert metrics["setup_s"]["value"] == pytest.approx(report["setup_s_raw"] * speed)
    for slot in harness.SLOTS:
        raw = report["ops"][slot]["seconds"]["median"]
        assert metrics[f"{slot}_s"]["value"] == pytest.approx(raw * speed)


INPUTS = {
    "bench_scale": lambda w: w.x,
    "toy_train": lambda w: w.models["bronet"][1][0],
    "certify_audit": lambda w: w.train_data[0],
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_second_seed_changes_inputs_not_metric_names(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first, again, second = (INPUTS[name](cls(s, tmp_path, tiny=True)) for s in (1, 1, 2))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, second)
    names = [set(harness.run(name, s, 0.05, False, tmp_path, tiny=True)[0]["metrics"])
             for s in (1, 2)]
    assert names[0] == names[1]


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (certify.build_report, train.build_report, train.LOSS_KINDS["la"],
                 models.conv_apply, models.Network.forward, tape.t_fft2)
    t = tracer.Tracer()
    with t.active():
        assert train.build_report is certify.build_report is bl.build_report
        assert certify.build_report is not originals[0]
        assert train.LOSS_KINDS["la"] is not originals[2]
        assert models.conv_apply is not originals[3]
        assert models.Network.forward is not originals[4]
        assert tape.t_fft2 is not originals[5]
        net = bl.build_model(bl.lipconvnet_mini(2, 4), 0)
        bl.evaluate(net, np.ones((3, 32)), np.zeros(3, dtype=int), (0.1,))
    assert (certify.build_report, train.build_report, train.LOSS_KINDS["la"],
            models.conv_apply, models.Network.forward, tape.t_fft2) == originals
    names = {span[tracer.NAME] for span in t.spans}
    assert {"certify.build_report", "models.Network.forward", "ortho.conv_apply",
            "fft.fft2", "linalg.cholesky"} <= names


def test_tracer_reports_missing_targets_as_absent():
    extra = (("fft", "no_such_fft", None), ("tape", "EagerOps.no_such_op", None),
             ("no_such_module", "f", None))
    t = tracer.Tracer(targets=tracer.TARGETS + extra)
    with t.active():
        fft.fft2(np.ones((2, 2)))
    assert t.absent == ["fft.no_such_fft", "tape.EagerOps.no_such_op", "no_such_module.f"]
    assert [span[tracer.NAME] for span in t.spans] == ["fft.fft2.work", "fft.fft2"]


def test_vjp_usefulness_skips_branches_without_grad_leaves():
    tp = bl.Tape()
    frozen = tp.leaf(np.ones(3), requires_grad=False)
    param = tp.leaf(np.ones(3), requires_grad=True)
    scaled = tape.t_scale(frozen, 2.0)            # reaches no grad leaf
    out = tape.t_sum(tape.t_mul(scaled, param))
    assert tracer.vjp_usefulness(tp.nodes, out.idx) == (3, 2)


def test_run_without_program_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy_train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
