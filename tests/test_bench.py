"""Benchmark harness: result plumbing and transform-kernel correctness."""

import time

import numpy as np
import pytest

from brolip.bench import (CSV_HEADER, MIN_REPS, BenchResult, bench_conv,
                          bench_dense, bro_conv_param_transform,
                          cayley_conv_param_transform, lot_conv_param_transform,
                          medians_non_decreasing, rank_sweep)
from brolip import bench as benchmod
from brolip.errors import ContractError
from brolip.fft import fft2, half_plane
from brolip import linalg
from brolip.ortho import ConvGeometry, conv_prepare, lot_orthogonalize
from brolip.tape import EagerOps


def _full_plane_reflectors(v, s):
    c, n, k, _ = v.shape
    size = s + 2 * (k // 2)
    pad = np.zeros((c, n, size, size))
    pad[:, :, :k, :k] = v
    vf = fft2(pad).transpose(2, 3, 0, 1).reshape(size * size, c, n)
    vh = np.conj(np.swapaxes(vf, -1, -2))
    sol = linalg.solve_hpd(vh @ vf, vh)
    return np.eye(c)[None] - 2.0 * (vf @ sol)


def test_half_plane_transform_matches_full_plane():
    rng = np.random.default_rng(0)
    for c, s, k, n in [(3, 5, 1, 1), (4, 6, 3, 2), (2, 4, 3, 2)]:
        v = rng.standard_normal((c, n, k, k))
        np.testing.assert_allclose(bro_conv_param_transform(v, s),
                                   _full_plane_reflectors(v, s), atol=1e-11)


@pytest.mark.parametrize("c, n, k, s", [(4, 2, 1, 5), (6, 3, 3, 4), (3, 2, 5, 3)])
def test_bro_param_transform_is_the_models_operator(c, n, k, s):
    # the benchmark times what the conv layers run: the reflectors of
    # conv_prepare's operator, bit for bit
    v = np.random.default_rng(c + n + k + s).standard_normal((c, n, k, k))
    op = conv_prepare(EagerOps, v, ConvGeometry(c, c, s, k))
    wf, _ = linalg.reflect(op.vf, op.factor, np.eye(c))
    want = half_plane(s + 2 * (k // 2)).mirror(wf)
    np.testing.assert_array_equal(bro_conv_param_transform(v, s), want)


def test_param_transforms_are_unitary_per_frequency():
    rng = np.random.default_rng(1)
    c, s = 4, 5
    eye = np.eye(c)
    for wf in (bro_conv_param_transform(rng.standard_normal((c, 2, 3, 3)), s),
               cayley_conv_param_transform(rng.standard_normal((c, c, 3, 3)), s),
               lot_conv_param_transform(rng.standard_normal((c, c, 3, 3)) + eye[:, :, None, None] * 2, s, 25)):
        for f in range(wf.shape[0]):
            err = np.linalg.norm(wf[f] @ wf[f].conj().T - eye)
            assert err < 1e-6


@pytest.mark.parametrize("c, s, iters", [(4, 3, 7), (6, 4, 12)])
def test_k1_lot_conv_is_dense_newton_at_every_frequency(c, s, iters):
    # a k = 1 kernel has the spectrum V / s at every frequency, and the
    # Frobenius scaling removes the 1 / s
    v = np.random.default_rng(c * s).standard_normal((c, c))
    want = lot_orthogonalize(v, iters)[0].array
    wf = lot_conv_param_transform(v[:, :, None, None], s, iters)
    assert wf.shape == (s * s, c, c)
    assert np.max(np.abs(wf - want)) < 1e-12


def test_min_reps_contract():
    with pytest.raises(ContractError):
        bench_dense("bro", 16, 4, reps=MIN_REPS - 1)
    with pytest.raises(ContractError):
        bench_conv("bro", 16, 8, 1, 4, reps=1)


def test_desk_scale_caps():
    with pytest.raises(ContractError):
        bench_conv("bro", 1024, 8, 1, 4, reps=10)
    with pytest.raises(ContractError):
        bench_conv("bro", 16, 64, 1, 4, reps=10)


@pytest.mark.parametrize("method", ["cayley", "lot"])
def test_full_kernel_methods_record_rank_c(method):
    assert bench_conv(method, 8, 4, 1, 2, reps=10).shape["n"] == 8


@pytest.mark.parametrize("method, n", [("bro", 2), ("cayley", 8), ("lot", 8)])
def test_conv_method_times_the_one_kernel_it_draws(method, n, monkeypatch):
    # each method draws only the kernel it transforms, as the seed's first draw
    seen = []
    name = f"{method}_conv_param_transform"
    monkeypatch.setattr(benchmod, name, lambda v, *rest: seen.append(v))
    bench_conv(method, 8, 4, 3, 2, reps=10, seed=5)
    want = np.random.default_rng(5).standard_normal((8, n, 3, 3)) / np.sqrt(8)
    assert all(np.array_equal(v, want) for v in seen) and len(seen) == 11


def test_unknown_method_rejected():
    with pytest.raises(ContractError):
        bench_dense("qr", 16, 4, reps=10)
    with pytest.raises(ContractError, match="unknown method"):
        bench_conv("qr", 8, 4, 1, 2, reps=10)


def test_result_row_shape_and_summary():
    res = bench_dense("bro", 24, 6, reps=10)
    assert res.reps == 10
    assert res.min_s <= res.median_s <= res.max_s
    assert res.timer_resolution_s > 0
    row = res.csv_row()
    assert len(row.split(",")) == len(CSV_HEADER.split(","))

    fake = [BenchResult("bro", "param_transform", {}, 10, t, t, t, 1e-9, 0, 0)
            for t in (1.0, 1.0, 2.0)]
    assert medians_non_decreasing(fake)
    assert not medians_non_decreasing(list(reversed(fake)))


def test_small_rank_sweep_monotone():
    sweep = rank_sweep(32, 8, 1, [0.25, 0.75], reps=10, seed=0)
    assert [r.shape["n"] for r in sweep] == [8, 24]
    assert medians_non_decreasing(sweep)
    assert all(r.alloc_elements > 0 for r in sweep)


@pytest.fixture(scope="module")
def warm_blas():
    """About 1 s of GEMMs before the first timed sweep.

    On a host that has idled, the first second or so of BLAS work runs
    paced: a fresh process read a 32 ms median at m = 128, n = 64 against
    1.5 ms on every later run, which breaks the ordinal check.
    """
    a = np.random.default_rng(0).standard_normal((256, 256))
    stop = time.perf_counter() + 1.0
    while time.perf_counter() < stop:
        a @ a


@pytest.mark.usefixtures("warm_blas")
@pytest.mark.parametrize("m", [128, 256])
def test_dense_rank_scaling_monotone(m):
    res = [bench_dense("bro", m, n, reps=30, seed=0)
           for n in (m // 16, m // 2, 15 * m // 16)]
    assert medians_non_decreasing(res)


def test_newton_param_transform_slower_than_reflector():
    # iterative orthogonalization pays for its inner iterations; ordinal
    # relation only, absolute times are hardware-bound
    lot = bench_conv("lot", 128, 16, 3, 128, reps=10, iters=10, seed=0)
    bro = bench_conv("bro", 128, 16, 3, 64, reps=10, seed=0)
    assert lot.median_s > bro.median_s
