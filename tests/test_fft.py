"""2D transform contracts: unitarity, inversion, symmetry, linearity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brolip.errors import ShapeError
from brolip.fft import (fft2, half_plane, half_tap_dft, half_tap_pairs, ifft2,
                        imag_residue, real_half, real_window, tap_dft)


def dft2_oracle(x):
    """Direct O(s^4) double-loop 2D DFT with unitary scaling."""
    x = np.asarray(x, dtype=np.complex128)
    s = x.shape[-1]
    out = np.zeros_like(x)
    for k1 in range(s):
        for k2 in range(s):
            acc = np.zeros(x.shape[:-2], dtype=np.complex128)
            for j1 in range(s):
                for j2 in range(s):
                    acc = acc + x[..., j1, j2] * np.exp(
                        -2j * np.pi * (j1 * k1 + j2 * k2) / s)
            out[..., k1, k2] = acc
    return out / s


def test_scalar_identity():
    out = fft2(np.array([[5.0]]))
    np.testing.assert_allclose(out, [[5.0 + 0.0j]])


def test_zeros_fixed_point():
    out = fft2(np.zeros((4, 4)))
    assert np.all(out == 0)


def test_matches_direct_dft_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 8))
    got = fft2(x)
    want = dft2_oracle(x)
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert abs(np.linalg.norm(got) - np.linalg.norm(x)) < 1e-12


@pytest.mark.parametrize("s", [2, 3, 5, 7, 12, 16])
def test_oracle_agreement_various_sizes(s):
    rng = np.random.default_rng(s)
    x = rng.standard_normal((2, s, s)) + 1j * rng.standard_normal((2, s, s))
    np.testing.assert_allclose(fft2(x), dft2_oracle(x), atol=1e-11)


@pytest.mark.parametrize("s", [66, 96, 128])
def test_mixed_radix_path_cross_checked(s):
    # large sizes keep the unitary 1/s scaling of the library transform
    rng = np.random.default_rng(s)
    x = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    np.testing.assert_allclose(fft2(x), np.fft.fft2(x) / s, atol=1e-10)


def test_parseval_property():
    rng = np.random.default_rng(1)
    for trial in range(20):
        x = rng.standard_normal((3, 6, 6))
        nx = np.linalg.norm(x)
        assert abs(np.linalg.norm(fft2(x)) - nx) <= 1e-12 * nx


def test_linearity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 5))
    y = rng.standard_normal((5, 5))
    lhs = fft2(2.5 * x - 1.25 * y)
    rhs = 2.5 * fft2(x) - 1.25 * fft2(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_round_trip_zeros():
    z = ifft2(fft2(np.zeros((4, 4))))
    assert np.all(z == 0)


def test_round_trip_random():
    rng = np.random.default_rng(3)
    for seed in range(5):
        x = rng.uniform(-1.0, 1.0, size=(8, 8))
        back = ifft2(fft2(x))
        assert np.max(np.abs(back - x)) < 1e-10


def test_conjugate_symmetry_of_real_input():
    rng = np.random.default_rng(4)
    s = 6
    xf = fft2(rng.standard_normal((s, s)))
    for i in range(s):
        for j in range(s):
            assert abs(xf[i, j] - np.conj(xf[(-i) % s, (-j) % s])) < 1e-12


def test_non_square_rejected():
    with pytest.raises(ShapeError):
        fft2(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        ifft2(np.zeros((2, 4, 3), dtype=complex))
    with pytest.raises(ShapeError):
        fft2(np.zeros(5))


@settings(max_examples=40)
@given(p=st.integers(min_value=1, max_value=24))
def test_half_plane_tables_cover_the_grid(p):
    tables = half_plane(p)
    rows = np.arange(p * p)
    i, j = np.divmod(rows, p)
    partner = ((-i) % p) * p + ((-j) % p)
    self_conjugate = int(np.sum(rows == partner))
    assert self_conjugate == (1 if p % 2 else 4)
    assert tables.rep.size == (p * p + self_conjugate) // 2
    # every grid row is a representative or the conjugate of exactly one
    is_rep = np.zeros(p * p, bool)
    is_rep[tables.rep] = True
    assert np.array_equal(np.sort(np.concatenate([tables.rep, tables.mirrored])), rows)
    assert np.array_equal(tables.rep[tables.source[tables.rep]], tables.rep)
    assert np.array_equal(tables.rep[tables.source[tables.mirrored]],
                          partner[tables.mirrored])
    assert not is_rep[tables.mirrored].any()
    assert np.unique(tables.source[tables.mirrored]).size == tables.mirrored.size


@pytest.mark.parametrize("p", [1, 2, 5, 6])
def test_half_plane_mirror_rebuilds_a_real_spectrum(p):
    x = np.random.default_rng(p).standard_normal((3, p, p))
    spec = fft2(x).reshape(3, p * p)
    tables = half_plane(p)
    rebuilt = tables.mirror(spec[:, tables.rep], axis=1)
    np.testing.assert_allclose(rebuilt, spec, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(half_tap_dft(p, 1), tap_dft(p, 1)[tables.rep])
    assert not half_tap_dft(p, 1).flags.writeable
    assert not any(a.flags.writeable for a in tables)


@pytest.mark.parametrize("build, args", [
    (tap_dft, (5, 3)), (tap_dft, (1, 1)), (half_plane, (6,)), (half_plane, (7,)),
    (half_tap_dft, (6, 3)), (half_tap_pairs, (1, 1)), (half_tap_pairs, (7, 5)),
    (real_half, (1,)), (real_half, (16,)), (real_window, (7, 5)), (real_window, (6, 6))])
def test_grid_tables_are_built_once_and_read_only(build, args):
    tables = build(*args)
    assert build(*args) is tables
    arrays = (tables,) if isinstance(tables, np.ndarray) else tuple(tables)
    assert arrays and all(isinstance(a, np.ndarray) and not a.flags.writeable
                          for a in arrays)


@pytest.mark.parametrize("p, k", [(1, 1), (6, 1), (5, 3), (6, 3), (7, 5)])
def test_half_tap_pairs_are_the_cached_products_of_tap_dft_entries(p, k):
    dft = half_tap_dft(p, k)
    pairs = half_tap_pairs(p, k)
    assert pairs.shape == (dft.shape[0], k ** 4)
    for t in range(k * k):
        for u in range(k * k):
            np.testing.assert_array_equal(pairs[:, t * k * k + u],
                                          np.conj(dft[:, t]) * dft[:, u])


@pytest.mark.parametrize("p", [1, 2, 5, 6, 7, 16])
def test_real_half_tables_are_the_half_plane_dft_and_its_real_inverse(p):
    tables = real_half(p)
    rep = half_plane(p).rep
    x = np.random.default_rng(40 + p).standard_normal((6, p * p))
    spec = (x @ tables.forward).view(np.complex128)
    oracle = np.fft.fft2(x.reshape(6, p, p), norm="ortho").reshape(6, p * p)[:, rep]
    assert spec.shape == (6, rep.size)
    np.testing.assert_allclose(spec, oracle, rtol=0, atol=1e-14)
    np.testing.assert_allclose((x @ tables.forward) @ tables.inverse, x, rtol=0, atol=1e-14)
    assert tables.self_conjugate.size == (1 if p % 2 else 4)
    assert not any(a.flags.writeable for a in tables)


@pytest.mark.parametrize("p", [5, 6])
def test_full_window_is_the_real_half_tables_themselves(p):
    forward, inverse = real_window(p, p)
    assert forward is real_half(p).forward and inverse is real_half(p).inverse
    with pytest.raises(ShapeError):
        real_window(p, p - 1)


@pytest.mark.parametrize("p", [4, 5, 6, 7, 16])
def test_imag_residue_matches_the_full_inverse_of_the_mirror(p):
    # spikes at the self-conjugate rows of random spectra: the residue read
    # from those rows equals max|Im| of the inverse transform of the mirror
    rng = np.random.default_rng(50 + p)
    tables = half_plane(p)
    rows = real_half(p).self_conjugate
    m = tables.rep.size
    for spike in (0.0, 1e-9, 1.0, 1e3):
        spec = rng.standard_normal((m, 3, 2)) + 1j * rng.standard_normal((m, 3, 2))
        spec[rows] = spec[rows].real + 1e-12j * rng.standard_normal((rows.size, 3, 2))
        spec[rng.choice(rows), rng.integers(3), rng.integers(2)] += 1j * spike
        full = tables.mirror(spec).reshape(p, p, 3, 2)
        oracle = np.abs(np.fft.ifft2(full, axes=(0, 1), norm="ortho").imag).max()
        got = imag_residue(spec, p)
        assert abs(got - oracle) <= 1e-12 * oracle + 1e-14  # the inverse's round-off
