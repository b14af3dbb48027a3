"""The primitives' flat (B, c s^2) forms against their image forms.

A flat batch is a reshape of the image batch, so every output and
cotangent must equal the image form's, reshaped, bit for bit.
"""

import math

import numpy as np
import pytest

from brolip.errors import ContractError
from brolip.fft import half_plane
from brolip.ortho import ConvGeometry, conv_apply, conv_matrix, conv_matrix_apply, conv_prepare
from brolip.tape import EagerOps, Tape, TapeOps


def _taped(fn, x, seed):
    tape = Tape()
    leaf = tape.leaf(x)
    out = fn(TapeOps(tape), leaf)
    return out.value, tape.backward(out, seed=seed)[leaf.idx]


def _same_as_image(image_fn, flat_fn, x, seed=3):
    """`flat_fn` on flat `x` equals `image_fn` on image `x`, eagerly and
    taped, value and cotangent; returns the flat form's eager output."""
    rng = np.random.default_rng(seed)
    flat = x.reshape(x.shape[0], math.prod(x.shape[1:]))
    ref = image_fn(EagerOps, x)
    out = flat_fn(EagerOps, flat)
    assert np.array_equal(out, ref.reshape(out.shape))
    g = rng.standard_normal(ref.shape)
    ref_value, ref_grad = _taped(image_fn, x, g)
    value, grad = _taped(flat_fn, flat, g.reshape(out.shape))
    assert np.array_equal(value, ref_value.reshape(value.shape))
    assert grad.shape == flat.shape and np.array_equal(grad, ref_grad.reshape(flat.shape))
    return out


@pytest.mark.parametrize("c, s", [(2, 4), (4, 3), (6, 1)])
def test_maxmin_pairs_runs_of_a_flat_image(c, s):
    x = np.random.default_rng(c + s).standard_normal((5, c, s, s))
    x[:, 1] = x[:, 0]  # ties keep their slots on both forms
    out = _same_as_image(lambda ops, a: ops.maxmin(a, 1),
                         lambda ops, a: ops.maxmin(a, 1, s * s), x)
    assert out.shape == (5, c * s * s)


def test_maxmin_rejects_runs_that_do_not_tile():
    with pytest.raises(ContractError, match="runs of 3"):
        EagerOps.maxmin(np.zeros((2, 8)), 1, 3)
    with pytest.raises(ContractError, match="even size"):
        EagerOps.maxmin(np.zeros((2, 12)), 1, 4)


@pytest.mark.parametrize("b", [0, 3])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_l2_pool_views_a_flat_image(p, b):
    x = np.random.default_rng(p).standard_normal((b, 3, 4, 4))
    if b:
        x[0, 1] = 0.0  # a zero patch
    out = _same_as_image(lambda ops, a: ops.l2_pool(a, p),
                         lambda ops, a: ops.l2_pool(a, p, 4), x)
    assert out.shape == (b, 3 * (4 // p) ** 2)


@pytest.mark.parametrize("s, p", [(4, 6), (5, 7), (6, 6)])
def test_half_plane_transforms_take_and_give_the_flat_layout(s, p):
    rng = np.random.default_rng(s + p)
    x = rng.standard_normal((3, 2, s, s))
    _same_as_image(lambda ops, a: ops.rdft_half(a, p),
                   lambda ops, a: ops.rdft_half(a, p, s), x)
    m = half_plane(p).rep.size
    yf = rng.standard_normal((m, 2, 3)) + 1j * rng.standard_normal((m, 2, 3))
    image = EagerOps.irdft_half(yf, p, s)
    flat = EagerOps.irdft_half(yf, p, s, True)
    assert flat.shape == (3, 2 * s * s) and np.array_equal(flat, image.reshape(3, -1))


@pytest.mark.parametrize("keep", [False, True])
def test_conv_keeps_the_input_layout(keep):
    rng = np.random.default_rng(9)
    geom = ConvGeometry(4, 4, 4, 3, keep_padding=keep)
    v = rng.standard_normal((4, 2, 3, 3)) / 2.0
    x = rng.standard_normal((5, 4, 4, 4))
    op = conv_prepare(EagerOps, v, geom)
    m = conv_matrix(EagerOps, op, geom)

    def spectral(ops, a):
        return conv_apply(ops, op._replace(vf=ops.constant(op.vf)), a, geom)

    def dense(ops, a):
        return conv_matrix_apply(ops, ops.constant(m), a, geom)

    # each function keeps its input's layout, so it serves as both forms
    _same_as_image(spectral, spectral, x)
    _same_as_image(dense, dense, x)
