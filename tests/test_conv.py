"""Orthogonal convolution: norm behavior, circulant oracle, gradients."""

import numpy as np
import pytest

from brolip.errors import ContractError, DivergedError, ShapeError, SingularParameter
from brolip.fft import fft2, half_plane, real_half
from brolip.ortho import (BroConvKernel, ConvGeometry, bro_conv_forward,
                          conv_apply, conv_prepare, materialize_conv_matrix,
                          tap_spectrum)
from brolip.tape import (EagerOps, Tape, TapeOps, grad_check, t_irdft_half,
                         t_mul, t_rdft_half, t_sum)
from tape_helpers import columns, crop_last2, images, pad_last2


def _kernel(c, n, k, seed):
    rng = np.random.default_rng(seed)
    return BroConvKernel(rng.standard_normal((c, n, k, k)))


def test_keep_padding_preserves_norm():
    kern = _kernel(4, 2, 3, 0)
    geom = ConvGeometry(4, 4, 6, 3, keep_padding=True)
    rng = np.random.default_rng(1)
    for trial in range(10):
        x = rng.standard_normal((4, 6, 6))
        y = bro_conv_forward(kern, x, geom).array
        assert y.shape == (4, 8, 8)  # padded to s + 2*(k // 2)
        assert abs(np.linalg.norm(y) / np.linalg.norm(x) - 1.0) < 1e-9


def test_cropping_never_expands_norm():
    kern = _kernel(4, 2, 3, 2)
    geom = ConvGeometry(4, 4, 6, 3, keep_padding=False)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4, 6, 6))
    y = bro_conv_forward(kern, x, geom).array
    assert y.shape == (50, 4, 6, 6)
    nx = np.linalg.norm(x.reshape(50, -1), axis=1)
    ny = np.linalg.norm(y.reshape(50, -1), axis=1)
    assert np.all(ny <= nx * (1.0 + 1e-12))


def test_no_pad_path_matches_materialized_matrix():
    c, s, n = 4, 6, 2
    kern = _kernel(c, n, 1, 4)
    geom = ConvGeometry(c, c, s, 1, keep_padding=True)
    mat = materialize_conv_matrix(kern, s).array
    rng = np.random.default_rng(5)
    x = rng.standard_normal((c, s, s))
    y_fft = bro_conv_forward(kern, x, geom).array.reshape(-1)
    y_mat = mat @ x.reshape(-1)
    assert np.linalg.norm(y_fft - y_mat) / np.linalg.norm(y_mat) < 1e-8


def test_materialized_matrix_is_orthogonal():
    kern = _kernel(2, 1, 1, 6)
    mat = materialize_conv_matrix(kern, 3).array
    assert np.linalg.norm(mat.T @ mat - np.eye(18)) < 1e-8


def test_materialized_columns_match_basis_vectors():
    c, s = 2, 3
    kern = _kernel(c, 2, 1, 7)
    geom = ConvGeometry(c, c, s, 1, keep_padding=True)
    mat = materialize_conv_matrix(kern, s).array
    for col in range(c * s * s):
        e = np.zeros(c * s * s)
        e[col] = 1.0
        y = bro_conv_forward(kern, e.reshape(c, s, s), geom).array.reshape(-1)
        assert np.max(np.abs(y - mat[:, col])) < 1e-8


@pytest.mark.parametrize("c, n, s", [(1, 1, 3), (2, 1, 4), (3, 2, 5), (4, 4, 2)])
def test_materialized_matrix_commutes_with_every_pixel_shift(c, n, s):
    # doubly circulant blocks: shifting every channel's pixels by (a, b)
    # on both the output and the input side leaves the matrix unchanged
    mat = materialize_conv_matrix(_kernel(c, n, 1, 20 + c), s).array
    blocks = mat.reshape(c, s, s, c, s, s)
    for a in range(s):
        for b in range(s):
            shifted = np.roll(blocks, (a, b, a, b), axis=(1, 2, 4, 5))
            np.testing.assert_array_equal(shifted, blocks)


def test_smallest_materialization():
    kern = _kernel(1, 1, 1, 8)
    mat = materialize_conv_matrix(kern, 2).array
    assert mat.shape == (4, 4)
    np.testing.assert_allclose(mat @ mat.T, np.eye(4), atol=1e-10)


def test_materialization_caps_and_contract():
    with pytest.raises(ContractError):
        materialize_conv_matrix(_kernel(2, 1, 3, 9), 4)  # k != 1
    with pytest.raises(ContractError):
        materialize_conv_matrix(_kernel(8, 1, 1, 10), 16)  # 8*256 > 1024


def test_rank_deficient_frequency_slice():
    v = np.zeros((3, 2, 1, 1))
    with pytest.raises(SingularParameter):
        bro_conv_forward(BroConvKernel(v), np.zeros((3, 4, 4)),
                         ConvGeometry(3, 3, 4, 1))


def _zero(v):
    v[:] = 0.0


def _nan_tap(v):
    v[1, 0, -1, 0] = np.nan


def _duplicate_column(v):
    v[:, 1] = v[:, 0]


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("corrupt, error", [(_nan_tap, DivergedError),
                                            (_zero, SingularParameter),
                                            (_duplicate_column, SingularParameter)])
def test_prepare_rejects_a_bad_kernel(corrupt, error, k, taped):
    v = np.random.default_rng(38).standard_normal((5, 3, k, k))
    corrupt(v)
    geom = ConvGeometry(5, 5, 4, k)
    if taped:
        tape = Tape()
        ops, v = TapeOps(tape), tape.leaf(v)
    else:
        ops = EagerOps
    with pytest.raises(error):
        conv_prepare(ops, v, geom)


def test_shape_and_geometry_errors():
    kern = _kernel(4, 2, 3, 11)
    with pytest.raises(ShapeError):
        bro_conv_forward(kern, np.zeros((3, 6, 6)), ConvGeometry(4, 4, 6, 3))
    with pytest.raises(ShapeError):
        bro_conv_forward(kern, np.zeros((4, 5, 6)), ConvGeometry(4, 4, 6, 3))
    with pytest.raises(ContractError):
        bro_conv_forward(kern, np.zeros((4, 6, 6)), ConvGeometry(4, 2, 6, 3))
    with pytest.raises(ContractError):
        BroConvKernel(np.zeros((2, 3, 1, 1)))  # n > c
    with pytest.raises(ContractError):
        BroConvKernel(np.zeros((2, 1, 2, 2)))  # even kernel


def test_kernel_one_keep_padding_equivalence():
    kern = _kernel(3, 1, 1, 12)
    x = np.random.default_rng(13).standard_normal((3, 5, 5))
    a = bro_conv_forward(kern, x, ConvGeometry(3, 3, 5, 1, keep_padding=True)).array
    b = bro_conv_forward(kern, x, ConvGeometry(3, 3, 5, 1, keep_padding=False)).array
    np.testing.assert_array_equal(a, b)


def _kernel_grad_error(c, s, k, n, batch, seed):
    geom = ConvGeometry(c, c, s, k, keep_padding=False)
    rng = np.random.default_rng(seed)
    x = columns(rng.standard_normal((batch, c, s, s)))
    readout = columns(rng.standard_normal((batch, c, s, s)))

    def f(v):
        tape = v.tape
        ops = TapeOps(tape)
        xv = tape.leaf(x, requires_grad=False)
        y = conv_apply(ops, conv_prepare(ops, v, geom), xv, geom)
        r = tape.leaf(readout, requires_grad=False)
        return t_sum(t_mul(y, r))

    v0 = rng.standard_normal((c, n, k, k))
    return grad_check(f, v0, h=1e-6)


def test_gradient_matches_finite_differences():
    assert _kernel_grad_error(c=2, s=3, k=3, n=1, batch=1, seed=14) < 1e-5


def test_gradient_matches_finite_differences_at_kernel_size_five():
    assert _kernel_grad_error(c=3, s=4, k=5, n=2, batch=2, seed=32) < 1e-5


def _padded_fft_spectrum(v, size):
    # the zero-pad + fft2 + transpose construction the tap DFT replaces
    c, n, k, _ = v.shape
    vp = np.zeros((c, n, size, size), dtype=v.dtype)
    vp[:, :, :k, :k] = v
    return fft2(vp).transpose(2, 3, 0, 1).reshape(size * size, c, n)


@pytest.mark.parametrize("c, n, k, s, complex_kernel", [
    (3, 2, 1, 4, False), (3, 2, 1, 5, False), (4, 2, 3, 4, False),
    (4, 3, 3, 5, False), (3, 2, 5, 3, False), (3, 1, 5, 4, False),
    (4, 2, 3, 5, True)])
def test_tap_spectrum_matches_the_padded_fft(c, n, k, s, complex_kernel):
    rng = np.random.default_rng(30 + k + s)
    v = rng.standard_normal((c, n, k, k))
    if complex_kernel:
        v = v + 1j * rng.standard_normal((c, n, k, k))
    geom = ConvGeometry(c, c, s, k)
    size = geom.padded_size
    # conv_prepare refuses a complex kernel, whose spectrum is still defined
    vf = tap_spectrum(EagerOps, v, size) if complex_kernel else \
        conv_prepare(EagerOps, v, geom).vf
    oracle = _padded_fft_spectrum(v, size)[half_plane(size).rep]
    assert vf.shape == oracle.shape
    np.testing.assert_allclose(vf, oracle, rtol=0, atol=1e-14)


def test_gradient_wrt_input_matches_finite_differences():
    c, s, k, n = 2, 4, 3, 2
    geom = ConvGeometry(c, c, s, k, keep_padding=True)
    rng = np.random.default_rng(15)
    kern = rng.standard_normal((c, n, k, k))

    def f(x):
        tape = x.tape
        ops = TapeOps(tape)
        vv = tape.leaf(kern, requires_grad=False)
        y = conv_apply(ops, conv_prepare(ops, vv, geom), x, geom)
        return t_sum(t_mul(y, y))

    x0 = columns(rng.standard_normal((1, c, s, s)))
    assert grad_check(f, x0, h=1e-6) < 1e-6


def test_output_imaginary_residue_small():
    # reconstruct the pre-discard inverse transform and inspect its
    # imaginary part directly
    from brolip import linalg
    from brolip.fft import fft2, ifft2
    c, s, k, n = 3, 5, 3, 2
    rng = np.random.default_rng(20)
    v = rng.standard_normal((c, n, k, k))
    x = rng.standard_normal((c, s, s))
    size = s + 2 * (k // 2)
    vp = np.zeros((c, n, size, size))
    vp[:, :, :k, :k] = v
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    vf = fft2(vp).transpose(2, 3, 0, 1).reshape(size * size, c, n)
    xf = fft2(xp).transpose(1, 2, 0).reshape(size * size, c, 1)
    vh = np.conj(np.swapaxes(vf, -1, -2))
    sol = linalg.solve_hpd(vh @ vf, vh @ xf)
    yf = xf - 2.0 * (vf @ sol)
    y = ifft2(yf.reshape(size, size, c).transpose(2, 0, 1))
    assert float(np.max(np.abs(y.imag))) < 1e-9


def test_tape_and_eager_paths_agree():
    kern = _kernel(3, 2, 3, 16)
    geom = ConvGeometry(3, 3, 4, 3, keep_padding=False)
    x = np.random.default_rng(17).standard_normal((2, 3, 4, 4))
    eager = bro_conv_forward(kern, x, geom).array
    tape = Tape()
    ops = TapeOps(tape)
    taped = conv_apply(ops, conv_prepare(ops, tape.leaf(kern.v), geom), tape.leaf(columns(x)),
                       geom)
    np.testing.assert_array_equal(columns(eager), taped.value)


def test_imaginary_residue_gate_scales_with_the_input():
    # the residue is linear in x: about 3e-9 at 1e6 and 3e-7 at 1e8 here,
    # which an absolute 1e-9 gate rejected although the conv is orthogonal
    rng = np.random.default_rng(21)
    v = rng.standard_normal((8, 2, 3, 3)) / np.sqrt(8)
    x = columns(1e8 * rng.standard_normal((2, 8, 8, 8)))
    geom = ConvGeometry(8, 8, 8, 3, keep_padding=True)
    y = conv_apply(EagerOps, conv_prepare(EagerOps, v, geom), x, geom)
    ratio = np.linalg.norm(y, axis=0) / np.linalg.norm(x, axis=0)
    np.testing.assert_allclose(ratio, 1.0, rtol=1e-12)


def test_complex_kernel_still_fails_the_residue_gate():
    rng = np.random.default_rng(22)
    v = rng.standard_normal((4, 2, 3, 3)) + 1j * rng.standard_normal((4, 2, 3, 3))
    x = columns(rng.standard_normal((2, 4, 4, 4)))
    geom = ConvGeometry(4, 4, 4, 3, keep_padding=True)
    with pytest.raises(ContractError, match="imaginary residue"):
        conv_apply(EagerOps, conv_prepare(EagerOps, v, geom), x, geom)


@pytest.mark.parametrize("s", [4, 5])
def test_kernel_with_cancelling_imaginary_taps_is_rejected(s):
    # +1j at tap (0, 0) and -1j at tap (2, 2) cancel at every self-conjugate
    # frequency of the padded grid (p = 6 and 7), so the mirrored spectrum
    # would come out real and wrong instead of failing the output gate
    v = np.random.default_rng(23).standard_normal((4, 2, 3, 3)).astype(complex)
    v[0, 0, 0, 0] += 1j
    v[0, 0, 2, 2] -= 1j
    with pytest.raises(ContractError, match="kernel has imaginary residue"):
        conv_prepare(EagerOps, v, ConvGeometry(4, 4, s, 3, keep_padding=True))


def test_complex_input_is_rejected():
    v = np.random.default_rng(25).standard_normal((4, 2, 3, 3))
    x = columns(np.random.default_rng(26).standard_normal((2, 4, 5, 5)) + 1e-3j)
    geom = ConvGeometry(4, 4, 5, 3)
    with pytest.raises(ContractError, match="input has imaginary residue"):
        conv_apply(EagerOps, conv_prepare(EagerOps, v, geom), x, geom)


def _adjoint_gap(primitive, u, w):
    # Re<J u, w> against Re<u, J^T w>, with J^T w from the tape's VJP
    tape = Tape()
    leaf = tape.leaf(u)
    out = primitive(leaf)
    ju = out.value
    jtw = tape.backward(out, seed=w)[leaf.idx]
    lhs = np.real(np.vdot(ju, w))
    rhs = np.real(np.vdot(u, jtw))
    return abs(lhs - rhs) / max(1.0, abs(lhs))


@pytest.mark.parametrize("p", [6, 7])
def test_half_plane_primitives_satisfy_the_adjoint_identity(p):
    rng = np.random.default_rng(27 + p)
    m = half_plane(p).rep.size

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    real = rng.standard_normal
    for s in (p, p - 2, p - 4):  # the full grid and two centred windows
        assert _adjoint_gap(lambda a: t_rdft_half(a, p, s), real((3 * s * s, 2)),
                            cplx(m, 3, 2)) < 1e-13
        assert _adjoint_gap(lambda a: t_irdft_half(a, p, s), cplx(m, 3, 2),
                            real((3 * s * s, 2))) < 1e-13


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("k", [3, 5])
def test_windowed_tables_are_the_pad_and_the_crop(k, keep):
    # the window's rows transform x as the full grid transforms its zero
    # pad; the window's columns invert to the crop of the full inverse
    s, kp = 5, k // 2
    geom = ConvGeometry(4, 4, s, k, keep_padding=keep)
    p, size = geom.padded_size, geom.output_size
    rng = np.random.default_rng(60 + k)
    x = rng.standard_normal((3, 4, s, s))
    xf = EagerOps.rdft_half(columns(x), p, s)
    full = EagerOps.rdft_half(columns(pad_last2(x, kp, kp)), p, p)
    np.testing.assert_allclose(xf, full, rtol=1e-13, atol=1e-13 * np.abs(full).max())
    yf = xf + 1j * rng.standard_normal(xf.shape)
    y = EagerOps.irdft_half(yf, p, size)
    cropped = columns(crop_last2(images(EagerOps.irdft_half(yf, p, p), (4, p, p)),
                                 (p - size) // 2))
    assert y.shape == (4 * size * size, 3)
    np.testing.assert_allclose(y, cropped, rtol=1e-13, atol=1e-13 * np.abs(cropped).max())


def test_gradients_match_finite_differences_at_an_odd_padded_grid():
    # s = 5, k = 3: p = 7, one self-conjugate frequency
    assert _kernel_grad_error(c=2, s=5, k=3, n=1, batch=2, seed=33) < 1e-5
    c, s, k = 2, 5, 3
    geom = ConvGeometry(c, c, s, k, keep_padding=False)
    rng = np.random.default_rng(34)
    kern = rng.standard_normal((c, 1, k, k))
    readout = columns(rng.standard_normal((2, c, s, s)))

    def f(x):
        tape = x.tape
        ops = TapeOps(tape)
        y = conv_apply(ops, conv_prepare(ops, tape.leaf(kern, requires_grad=False), geom), x,
                       geom)
        return t_sum(t_mul(y, tape.leaf(readout, requires_grad=False)))

    assert grad_check(f, columns(rng.standard_normal((2, c, s, s))), h=1e-6) < 1e-6


def test_operator_holds_only_the_half_plane_rows():
    # 16 x 16 grid: (256 + 4) / 2 = 130 representatives
    v = np.random.default_rng(35).standard_normal((4, 2, 1, 1))
    op = conv_prepare(EagerOps, v, ConvGeometry(4, 4, 16, 1))
    assert op.vf.shape == (130, 4, 2)
    assert op.factor.shape == (130, 2, 2)
    gram = np.conj(np.swapaxes(op.vf, -1, -2)) @ op.vf
    np.testing.assert_allclose(op.factor @ np.conj(np.swapaxes(op.factor, -1, -2)), gram,
                               atol=1e-13)


@pytest.mark.parametrize("s", [4, 5])
def test_perturbed_self_conjugate_row_fails_the_output_gate(s):
    # a complex entry of `vf` at a self-conjugate frequency (p = 6 and 7)
    # comes from no complex kernel, so only the output residue gate can see it
    rng = np.random.default_rng(36 + s)
    geom = ConvGeometry(4, 4, s, 3, keep_padding=True)
    op = conv_prepare(EagerOps, rng.standard_normal((4, 2, 3, 3)), geom)
    x = columns(rng.standard_normal((2, 4, s, s)))
    conv_apply(EagerOps, op, x, geom)
    for row in real_half(geom.padded_size).self_conjugate:
        vf = op.vf.copy()
        vf[row, 1, 0] += 1j
        with pytest.raises(ContractError, match="imaginary residue"):
            conv_apply(EagerOps, op._replace(vf=vf), x, geom)


@pytest.mark.parametrize("k, nodes", [(1, 10), (3, 10)])
def test_taped_conv_records_a_fixed_node_count(k, nodes):
    # two leaves, five prepare nodes (taps, spectrum; the Gram's factor is
    # plain data) and the apply: rdft_half, reflect and irdft_half, whose
    # tables hold the zero pad and the crop for every k
    rng = np.random.default_rng(37 + k)
    tape = Tape()
    v = tape.leaf(rng.standard_normal((4, 2, k, k)))
    x = tape.leaf(columns(rng.standard_normal((2, 4, 5, 5))))
    ops, geom = TapeOps(tape), ConvGeometry(4, 4, 5, k)
    conv_apply(ops, conv_prepare(ops, v, geom), x, geom)
    assert len(tape.nodes) == nodes, [node.op for node in tape.nodes]
