"""A frozen desk-scale conv as one dense matrix: agreement with the spectral
path, orthogonality, its residue gate, and when a conv layer takes it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brolip.errors import ContractError
from brolip.fft import half_plane, imag_residue, real_half
from brolip.models import DENSE_CONV_MAX, BroConvLayer, build_model, lipconvnet_mini
from brolip.ortho import (CONV_IMAG_TOL, BroConvKernel, ConvGeometry, ConvOperator,
                          _reflected_spectrum, conv_apply, conv_matrix, conv_prepare,
                          materialize_conv_matrix)
from brolip.tape import EagerOps, Tape, TapeOps
from tape_helpers import columns, spectral_operator


def _basis_bound(op, geom):
    """max over pixel and channel of sum_j |Im y_j| over the identity basis
    inputs e_j, from the full inverse transform of each mirrored spectrum."""
    c, s, p = geom.channels_in, geom.spatial, geom.padded_size
    dim = c * s * s
    yf = _reflected_spectrum(EagerOps, op, np.eye(dim), geom)
    full = half_plane(p).mirror(yf).reshape(p, p, c, dim)
    return np.abs(np.fft.ifft2(full, axes=(0, 1), norm="ortho").imag).sum(axis=-1).max()


def _layer(c, n, k, s, keep, seed, residual=False):
    v = np.random.default_rng(seed).standard_normal((c, n, k, k)) / np.sqrt(c)
    return BroConvLayer(v, 1.0, ConvGeometry(c, c, s, k, keep_padding=keep), residual, 1.0)


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_dense_path_is_the_conv(k, keep):
    c, n, s = 4, 2, 5  # c s^2 = 100
    layer = _layer(c, n, k, s, keep, seed=40 + k)
    m = layer.prepare(EagerOps, layer.params())
    size = layer.geom.output_size
    assert isinstance(m, np.ndarray) and m.shape == (c * size * size, c * s * s)

    x = columns(np.random.default_rng(50 + k).standard_normal((7, c, s, s)))
    dense = layer.forward(EagerOps, layer.params(), x)
    spectral = conv_apply(EagerOps, conv_prepare(EagerOps, layer.v, layer.geom), x, layer.geom)
    assert np.linalg.norm(dense - spectral) <= 1e-12 * np.linalg.norm(spectral)

    if keep:
        assert np.linalg.norm(m.T @ m - np.eye(c * s * s), 2) <= 1e-13
    else:
        assert np.linalg.norm(m, 2) <= 1.0 + 1e-13
    if k == 1:
        # the dense path maps column vectors, y = A x, as the oracle does
        oracle = materialize_conv_matrix(BroConvKernel(layer.v), s).array
        assert np.max(np.abs(m - oracle)) <= 1e-12


def test_dense_apply_rejects_a_complex_input():
    layer = _layer(4, 2, 3, 4, False, seed=60)
    x = columns(np.random.default_rng(61).standard_normal((2, 4, 4, 4)) + 1e-3j)
    with pytest.raises(ContractError, match="input has imaginary residue"):
        layer.forward(EagerOps, layer.params(), x)


@pytest.mark.parametrize("s", [4, 5])
def test_perturbed_self_conjugate_row_fails_the_basis_gate(s):
    # the construction of test_conv's output-gate test, on the dense path
    rng = np.random.default_rng(36 + s)
    geom = ConvGeometry(4, 4, s, 3, keep_padding=True)
    op = conv_prepare(EagerOps, rng.standard_normal((4, 2, 3, 3)), geom)
    conv_matrix(EagerOps, op, geom)
    for row in real_half(geom.padded_size).self_conjugate:
        vf = op.vf.copy()
        vf[row, 1, 0] += 1j
        with pytest.raises(ContractError, match="imaginary residue"):
            conv_matrix(EagerOps, op._replace(vf=vf), geom)


@pytest.mark.parametrize("imag, passes", [(1e-10, True), (3e-10, False)])
def test_basis_gate_is_stricter_than_the_per_call_gate(imag, passes):
    # an imaginary part on the self-conjugate rows small enough that every
    # basis input passes the per-call gate; summed over the basis, the
    # residues stay below CONV_IMAG_TOL at 1e-10 and exceed it at 3e-10
    rng = np.random.default_rng(62)
    geom = ConvGeometry(4, 4, 4, 3, keep_padding=True)
    op = conv_prepare(EagerOps, rng.standard_normal((4, 2, 3, 3)), geom)
    vf = op.vf.copy()
    vf[real_half(geom.padded_size).self_conjugate] += 1j * imag
    op = op._replace(vf=vf)
    dim = 4 * 4 * 4
    conv_apply(EagerOps, op, np.eye(dim), geom)
    assert (_basis_bound(op, geom) <= CONV_IMAG_TOL) == passes
    if passes:
        conv_matrix(EagerOps, op, geom)
    else:
        with pytest.raises(ContractError, match="over the basis"):
            conv_matrix(EagerOps, op, geom)


@settings(max_examples=30)
@given(st.integers(2, 4), st.integers(2, 5), st.sampled_from([1, 3]), st.booleans(),
       st.sampled_from([1e-8, 1e-6, 1e-4]), st.data())
def test_basis_bound_dominates_every_input_residue(c, s, k, keep, imag, data):
    # an imaginary part on the self-conjugate rows of a rank n < c spectrum
    # makes the residue a linear map of the input; without it the residue
    # is rounding noise, which no linear bound holds exactly
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    geom = ConvGeometry(c, c, s, k, keep_padding=keep)
    n = data.draw(st.integers(1, c - 1))
    # by hand, so that k = 1 also takes the spectral path
    op = spectral_operator(EagerOps, rng.standard_normal((c, n, k, k)), geom)
    vf = op.vf.copy()
    vf[real_half(geom.padded_size).self_conjugate] += 1j * imag
    op = op._replace(vf=vf)
    bound = _basis_bound(op, geom)
    x = rng.standard_normal((5, c, s, s)) * 10.0 ** rng.uniform(-3, 3)
    for xi in x:
        worst = imag_residue(_reflected_spectrum(EagerOps, op, xi.reshape(-1, 1), geom),
                             geom.padded_size)
        assert worst <= bound * np.abs(xi).max() * (1 + 1e-6)


def test_prepare_is_dense_only_for_a_frozen_kernel_within_the_cap():
    layer = _layer(4, 2, 3, 4, False, seed=63, residual=True)
    eager = layer.prepare(EagerOps, layer.params())
    assert isinstance(eager, np.ndarray)

    def taped(layer, requires_grad):
        tape = Tape()
        bound = {name: tape.leaf(arr, requires_grad=requires_grad)
                 for name, arr in layer.params().items()}
        return layer.prepare(TapeOps(tape), bound)

    assert isinstance(taped(layer, True), ConvOperator)
    frozen = taped(layer, False)
    assert not isinstance(frozen, ConvOperator) and not frozen.requires_grad
    assert np.array_equal(frozen.value, eager)

    # c s^2 = 2 * 8^2 = 128 is the largest dense size, 2 * 9^2 = 162 spectral
    # on either backend, though conv_matrix still builds its matrix
    edge = _layer(2, 1, 3, 8, False, seed=65)
    assert DENSE_CONV_MAX == 128 and isinstance(edge.prepare(EagerOps, edge.params()), np.ndarray)
    above = _layer(2, 1, 3, 9, False, seed=66)
    op = above.prepare(EagerOps, above.params())
    assert isinstance(op, ConvOperator) and isinstance(taped(above, False), ConvOperator)
    assert conv_matrix(EagerOps, op, above.geom).shape == (162, 162)

    # c s^2 = 4 * 17^2 = 1156 > 1024: no matrix at all
    big = _layer(4, 2, 3, 17, False, seed=64)
    with pytest.raises(ContractError, match="size cap"):
        conv_matrix(EagerOps, big.prepare(EagerOps, big.params()), big.geom)


def test_dense_path_takes_an_empty_batch():
    layer = _layer(4, 2, 3, 4, True, seed=67)
    assert isinstance(layer.prepare(EagerOps, layer.params()), np.ndarray)
    y = layer.forward(EagerOps, layer.params(), np.zeros((64, 0)))
    assert y.shape == (4 * 6 * 6, 0)
    net = build_model(lipconvnet_mini(2, 4), seed=1)
    assert net.forward(np.zeros((0,) + net.input_shape)).shape == (0, net.classes())


def test_network_prepare_holds_the_dense_conv_matrices():
    net = build_model(lipconvnet_mini(2, 4), seed=1)
    prepared = net.prepare()
    for layer, operator in zip(net.layers, prepared):
        if layer.kind == "bro_conv":
            assert isinstance(operator, np.ndarray) and operator.shape == (32, 32)
