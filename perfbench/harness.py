"""Runs one workload for a fixed time and assembles its result.

Untraced (`trace=False`), the result's metrics are the end-to-end ones:
`setup_s`, `peak_rss_mb` and `op1_s`..`op3_s`, the median seconds of each
operation slot, times scaled to the reference host speed. Traced, the same
operations run in rounds of one untraced and one traced call per slot, and
the metrics are the per-layer ones, per traced round, plus the tracing
overhead.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import brolip as bl

from perfbench.tracer import END, LAYERS, START, Totals, Tracer
from perfbench.workloads import WORKLOADS

SETUP_REPS = 5
# End-to-end times are reported at a fixed host speed. On a shared VM the
# speed of every operation drifts together, by up to 1.6x within minutes
# (2-vCPU Xeon VM), and no run length averages that out. So each run times
# `reference()` before every operation and scales its times by REFERENCE_S
# over the run's median reference time; the raw medians stay in the report.
REFERENCE_S = 0.015
_REF_M = np.random.default_rng(0).standard_normal((32, 32))
_REF_Z = np.random.default_rng(1).standard_normal((8, 16, 16))
IMPORT_PROBE = ("import time; start = time.perf_counter(); import brolip; "
                "print(time.perf_counter() - start)")
SLOTS = ("op1", "op2", "op3")
LOSSES = ("losses.la_loss_mean", "losses.ce_loss_mean", "losses.ce_cr_loss_mean")


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Counts attempts and failures; an op fails if it raises."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, op) -> tuple[float, int]:
        self.attempted += 1
        start = time.perf_counter()
        try:
            samples = op.run()
        except Exception:  # any failure is counted and the loop goes on
            print(f"{op.slot} ({op.label}) failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            samples = 0
        return time.perf_counter() - start, samples


def _timing(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    tail = int(100 * (1 - 10 / len(values))) if len(values) >= 20 else 0
    if tail > 50:
        out[f"p{tail}"] = float(np.percentile(values, tail))
    return out


def reference() -> float:
    """Fixed work that calls no brolip code: small FFTs, a matmul,
    elementwise numpy and dict building, the kinds of work the operations mix."""
    total = 0.0
    for i in range(200):
        f = np.fft.fft2(_REF_Z)
        total += float((_REF_M @ _REF_M).trace()) + float(np.maximum(f.real, f.imag).sum())
        total += sum({j: i * j for j in range(32)}.values())
    return total


def import_seconds(src) -> list[float]:
    """Time `import brolip` in fresh interpreters, as a user's first import."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(SETUP_REPS)]


def _setup(cls, seed, workdir, tiny) -> tuple[object, list[float]]:
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload = cls(seed, workdir, tiny)
        times.append(time.perf_counter() - start)
    return workload, times


def run(name: str, seed: int, seconds: float, trace: bool, workdir,
        tiny: bool = False) -> tuple[dict, dict]:
    """(result, report): the machine-read result and a detailed report."""
    cls = WORKLOADS[name]
    runner = Runner()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    if trace:
        metrics = _run_traced(cls, seed, seconds, workdir, tiny, runner, report)
    else:
        metrics = _run_untraced(cls, seed, seconds, workdir, tiny, runner, report)
    report["attempted"], report["failed"] = runner.attempted, runner.failed
    report["failed_ratio"] = runner.failed / runner.attempted
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, report


def _run_untraced(cls, seed, seconds, workdir, tiny, runner, report) -> dict:
    imports = import_seconds(Path(bl.__file__).parent.parent)
    workload, setup_times = _setup(cls, seed, workdir, tiny)
    ops = {op.slot: op for op in workload.ops}
    for slot in workload.schedule:  # warm-up round, checked but not timed
        reference()
        runner(ops[slot])
    samples: dict[str, list[tuple[float, int]]] = {slot: [] for slot in SLOTS}
    refs = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or not all(samples.values()):
        slot = workload.schedule[i % len(workload.schedule)]
        start = time.perf_counter()
        reference()
        refs.append(time.perf_counter() - start)
        samples[slot].append(runner(ops[slot]))
        i += 1
    speed = REFERENCE_S / statistics.median(refs)
    setup = statistics.median(imports) + statistics.median(setup_times)
    metrics = {"setup_s": (setup * speed, "s")}
    detail = {}
    for slot in SLOTS:
        op = ops[slot]
        secs = [s for s, _ in samples[slot]]
        metrics[f"{slot}_s"] = (statistics.median(secs) * speed, "s")
        named = secs if op.unit == "s" else [n / s for s, n in samples[slot]]
        detail[slot] = {"label": op.label, "unit": op.unit, "seconds": _timing(secs),
                        op.label: _timing(named)}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    report["import_times"] = imports
    report["setup_times"] = setup_times
    report["setup_s_raw"] = setup
    report["reference_s"] = _timing(refs)
    report["ops"] = detail
    return metrics


def _run_traced(cls, seed, seconds, workdir, tiny, runner, report) -> dict:
    tracer = Tracer()
    setup = Totals()
    with tracer.active(), tracer.span("setup"):
        workload = cls(seed, workdir, tiny)
    setup.add(tracer.spans)
    ops = {op.slot: op for op in workload.ops}
    for slot in workload.schedule:
        runner(ops[slot])
    total, per_slot = Totals(), {slot: Totals() for slot in SLOTS}
    wall = {slot: 0.0 for slot in SLOTS}
    plain = traced = 0.0
    alloc = [0, 0]
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for slot in SLOTS:
            plain += runner(ops[slot])[0]
            tracer.spans = []
            before = bl.alloc_stats()
            with tracer.active(), tracer.span(slot):
                took = runner(ops[slot])[0]
            after = bl.alloc_stats()
            alloc[0] += after.count - before.count
            alloc[1] += after.elements - before.elements
            traced += took
            wall[slot] += tracer.spans[0][END] - tracer.spans[0][START]
            total.add(tracer.spans)
            per_slot[slot].add(tracer.spans)
        rounds += 1
    report["rounds"] = rounds
    report["absent"] = tracer.absent
    return layer_metrics(total, per_slot, wall, rounds, traced / plain,
                         len(tracer.absent), alloc, setup)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Totals, per_slot: dict, wall: dict, rounds: int, overhead: float,
                  absent: int, alloc, setup: Totals) -> dict:
    """Per-layer metrics, per traced round (one traced op of each slot)."""
    r = float(rounds)
    giga = 1e9
    fft_flop = t.counts["fft.fft2"]["flop"]
    chol_flop = t.counts["linalg.cholesky"]["flop"]
    solves = ("linalg.solve_lower", "linalg.solve_upper_conj")
    solve_flop = sum(t.counts[n]["flop"] for n in solves)
    solve_busy = sum(t.work_seconds[n] for n in solves)
    linalg_byte = sum(t.counts[n]["byte"] for n in ("linalg.cholesky",) + solves)
    vjp_evaluated = t.counts["tape.Tape.backward"]["vjp_evaluated"]
    record = [n for n in t.self_seconds if n.startswith("tape.t_")]
    m = {
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.absent_targets": (absent, "count"),
        "tensor.alloc_count": (alloc[0] / r, "count"),
        "tensor.alloc_elements": (alloc[1] / r, "count"),
        "fft.fft2.calls": (t.calls["fft.fft2"] / r, "count"),
        "fft.fft2.s": (t.seconds["fft.fft2"] / r, "s"),
        "fft.fft2.elements": (t.counts["fft.fft2"]["elements"] / r, "count"),
        "fft.ifft2.calls": (t.calls["fft.ifft2"] / r, "count"),
        "fft.ifft2.s": (t.seconds["fft.ifft2"] / r, "s"),
        "fft.gflop_computed": (fft_flop / r / giga, "GFLOP"),
        "fft.gbyte_computed": (t.counts["fft.fft2"]["byte"] / r / giga, "GB"),
        "fft.gflops": (_ratio(fft_flop, t.work_seconds["fft.fft2"]) / giga, "GFLOP/s"),
        "linalg.cholesky.calls": (t.calls["linalg.cholesky"] / r, "count"),
        "linalg.cholesky.s": (t.seconds["linalg.cholesky"] / r, "s"),
        "linalg.cholesky.matrices": (t.counts["linalg.cholesky"]["matrices"] / r, "count"),
        "linalg.cholesky.gflop_computed": (chol_flop / r / giga, "GFLOP"),
        "linalg.cholesky.gflops": (
            _ratio(chol_flop, t.work_seconds["linalg.cholesky"]) / giga, "GFLOP/s"),
        "linalg.solve_lower.s": (t.seconds["linalg.solve_lower"] / r, "s"),
        "linalg.solve_upper_conj.s": (t.seconds["linalg.solve_upper_conj"] / r, "s"),
        "linalg.solve_hpd.s": (t.seconds["linalg.solve_hpd"] / r, "s"),
        "linalg.solve.gflop_computed": (solve_flop / r / giga, "GFLOP"),
        "linalg.solve.gflops": (_ratio(solve_flop, solve_busy) / giga, "GFLOP/s"),
        "linalg.gbyte_computed": (linalg_byte / r / giga, "GB"),
        "linalg.singular": (t.raised[("linalg.cholesky", "SingularParameter")], "count"),
        "tape.nodes": (t.counts["tape.Tape.backward"]["nodes"] / r, "count"),
        "tape.record.self_s": (sum(t.self_seconds[n] for n in record) / r, "s"),
        "tape.backward.calls": (t.calls["tape.Tape.backward"] / r, "count"),
        "tape.backward.s": (t.seconds["tape.Tape.backward"] / r, "s"),
        "tape.useful_vjp_ratio": (
            _ratio(t.counts["tape.Tape.backward"]["vjp_useful"], vjp_evaluated), "ratio"),
        "ortho.conv_apply.calls": (t.calls["ortho.conv_apply"] / r, "count"),
        "ortho.conv_apply.self_s": (t.self_seconds["ortho.conv_apply"] / r, "s"),
        "models.forward.calls": (t.calls["models.Network.forward"] / r, "count"),
        "models.forward.s": (t.seconds["models.Network.forward"] / r, "s"),
        "models.forward_tape.s": (t.seconds["models.Network.forward_tape"] / r, "s"),
        "losses.loss.calls": (sum(t.calls[n] for n in LOSSES) / r, "count"),
        "losses.loss.s": (sum(t.seconds[n] for n in LOSSES) / r, "s"),
        "certify.build_report.calls": (t.calls["certify.build_report"] / r, "count"),
        "certify.build_report.s": (t.seconds["certify.build_report"] / r, "s"),
        "certify.lln_radius.calls_per_sample": (
            _ratio(t.calls["certify.lln_certified_radius"],
                   t.counts["certify.build_report"]["samples"]), "ratio"),
        "certify.margin.calls": (t.calls["certify.margin"] / r, "count"),
        "train.evaluate.calls": (t.calls["train.evaluate"] / r, "count"),
        "train.evaluate.s": (t.seconds["train.evaluate"] / r, "s"),
        "train.evaluate.share_of_train": (
            _ratio(t.evaluate_in_train, t.seconds["train.train"]), "ratio"),
        "train.pgd_attack.calls": (t.calls["train.pgd_attack"] / r, "count"),
        "train.pgd_attack.s": (t.seconds["train.pgd_attack"] / r, "s"),
        "data.toy_dataset.s": (setup.seconds["data.toy_dataset"], "s"),
        "checkpoint.save.s": (setup.seconds["checkpoint.save_checkpoint"], "s"),
        "checkpoint.load.s": (t.seconds["checkpoint.load_checkpoint"] / r, "s"),
    }
    for slot in SLOTS:
        for layer in LAYERS + ("other",):
            share = _ratio(per_slot[slot].layer_self[layer], wall[slot])
            m[f"{slot}.{layer}.self_share"] = (share, "ratio")
    for name, (value, _) in m.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is {value}")
    return m
