"""Benchmark harness: result plumbing and transform-kernel correctness."""

import numpy as np
import pytest

from brolip.bench import (CSV_HEADER, MIN_REPS, BenchResult, bench_conv,
                          bench_dense, bro_conv_param_transform,
                          cayley_conv_param_transform, conv_input_transform,
                          lot_conv_param_transform, medians_non_decreasing,
                          rank_sweep)
from brolip.errors import ContractError
from brolip.fft import fft2
from brolip import linalg
from brolip.ortho import BroConvKernel, ConvGeometry, bro_conv_forward


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


def test_input_transform_matches_library_convolution():
    rng = np.random.default_rng(2)
    c, s, k, n = 3, 6, 3, 2
    v = rng.standard_normal((c, n, k, k))
    kern = BroConvKernel(v)
    x = rng.standard_normal((4, c, s, s))
    want = bro_conv_forward(kern, x, ConvGeometry(c, c, s, k, keep_padding=True)).array
    wf = bro_conv_param_transform(v, s)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    got = conv_input_transform(wf, xp)
    np.testing.assert_allclose(got, want, atol=1e-11)


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


def test_unknown_method_rejected():
    with pytest.raises(ContractError):
        bench_dense("qr", 16, 4, reps=10)


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
    assert not medians_non_decreasing(fake, strict=True)
    assert not medians_non_decreasing(list(reversed(fake)))


def test_small_rank_sweep_monotone():
    sweep = rank_sweep(32, 8, 1, [0.25, 0.75], reps=10, seed=0)
    assert [r.shape["n"] for r in sweep] == [8, 24]
    assert medians_non_decreasing(sweep)
    assert all(r.alloc_elements > 0 for r in sweep)


def test_input_transform_phase_runs():
    res = bench_conv("bro", 8, 6, 3, 4, reps=10, batch=2,
                     phase="input_transform")
    assert res.phase == "input_transform"
    assert res.median_s > 0


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
