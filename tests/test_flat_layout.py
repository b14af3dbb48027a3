"""The primitives' feature-major (c s^2, B) forms against their image forms.

A feature-major batch is the transpose of the flattened image batch, so
every output and cotangent must equal the image form's, transposed the same
way, bit for bit. A network on a batch as large as its input width, where a
transposition would keep every shape, must give each sample what it gives
that sample alone.
"""

import math

import numpy as np
import pytest

from brolip.errors import ContractError
from brolip.fft import half_plane
from brolip.models import build_model, lipconvnet_mini
from brolip.ortho import ConvGeometry, conv_apply, conv_matrix, conv_matrix_apply, conv_prepare
from brolip.tape import EagerOps, Tape, TapeOps
from brolip.train import pgd_attack


def _taped(fn, x, seed):
    tape = Tape()
    leaf = tape.leaf(x)
    out = fn(TapeOps(tape), leaf)
    return out.value, tape.backward(out, seed=seed)[leaf.idx]


def _columns(a):
    """A (B, ...) batch as its contiguous feature-major (d, B) form."""
    return np.ascontiguousarray(a.reshape(a.shape[0], math.prod(a.shape[1:])).T)


def _same_as_image(image_fn, fm_fn, x, seed=3, batch_in=True, batch_out=True):
    """`fm_fn` on feature-major `x` equals `image_fn` on image `x`, eagerly
    and taped, value and cotangent; returns the feature-major form's eager
    output. `batch_in` and `batch_out` say whether the image form takes and
    returns a (B, ...) batch, which the feature-major form takes or returns
    transposed; otherwise both forms share that layout."""
    rng = np.random.default_rng(seed)
    fm_in = _columns if batch_in else np.asarray
    fm_out = _columns if batch_out else np.asarray
    cols = fm_in(x)
    ref = image_fn(EagerOps, x)
    out = fm_fn(EagerOps, cols)
    assert np.array_equal(out, fm_out(ref))
    g = rng.standard_normal(ref.shape)
    ref_value, ref_grad = _taped(image_fn, x, g)
    value, grad = _taped(fm_fn, cols, fm_out(g))
    assert np.array_equal(value, fm_out(ref_value))
    assert grad.shape == cols.shape and np.array_equal(grad, fm_in(ref_grad))
    return out


@pytest.mark.parametrize("c, s", [(2, 4), (4, 3), (6, 1)])
def test_maxmin_pairs_runs_of_a_flat_image(c, s):
    x = np.random.default_rng(c + s).standard_normal((5, c, s, s))
    x[:, 1] = x[:, 0]  # ties keep their slots on both forms
    out = _same_as_image(lambda ops, a: ops.maxmin(a, 1),
                         lambda ops, a: ops.maxmin(a, 0, s * s * 5), x)
    assert out.shape == (c * s * s, 5)


def test_maxmin_takes_an_empty_feature_major_batch():
    out = EagerOps.maxmin(np.zeros((8, 0)), 0, 0)
    assert out.shape == (8, 0)
    with pytest.raises(ContractError, match="runs of 0"):
        EagerOps.maxmin(np.zeros((8, 2)), 0, 0)


def test_maxmin_rejects_runs_that_do_not_tile():
    with pytest.raises(ContractError, match="runs of 3"):
        EagerOps.maxmin(np.zeros((2, 8)), 1, 3)
    with pytest.raises(ContractError, match="even size"):
        EagerOps.maxmin(np.zeros((2, 12)), 1, 4)


# 500 samples of 48 features make the batch's image copy in several blocks
@pytest.mark.parametrize("b", [0, 3, 500])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_l2_pool_views_a_flat_image(p, b):
    x = np.random.default_rng(p).standard_normal((b, 3, 4, 4))
    if b:
        x[0, 1] = 0.0  # a zero patch
    out = _same_as_image(lambda ops, a: ops.l2_pool(a, p),
                         lambda ops, a: ops.l2_pool(a, p, 4), x)
    assert out.shape == (3 * (4 // p) ** 2, b)


@pytest.mark.parametrize("s, p", [(4, 6), (5, 7), (6, 6)])
def test_half_plane_transforms_take_and_give_the_flat_layout(s, p):
    rng = np.random.default_rng(s + p)
    x = rng.standard_normal((3, 2, s, s))
    _same_as_image(lambda ops, a: ops.rdft_half(a, p),
                   lambda ops, a: ops.rdft_half(a, p, s), x, batch_out=False)
    m = half_plane(p).rep.size
    yf = rng.standard_normal((m, 2, 3)) + 1j * rng.standard_normal((m, 2, 3))
    out = _same_as_image(lambda ops, a: ops.irdft_half(a, p, s),
                         lambda ops, a: ops.irdft_half(a, p, s, True), yf, batch_in=False)
    assert out.shape == (2 * s * s, 3)


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


def test_a_batch_as_wide_as_the_input_gives_each_sample_its_own_result():
    # lipconvnet_mini(2, 4) takes d = 32 inputs, toy_train's batch size: at
    # B = d every activation of its conv stack is square, so a layer that
    # mixed samples instead of features would pass every shape check. The
    # batch runs its GEMMs as matrix products and one sample as
    # matrix-vector products, which may round differently.
    net = build_model(lipconvnet_mini(2, 4), seed=1)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((32,) + net.input_shape)
    labels = rng.integers(0, net.classes(), size=32)
    assert math.prod(net.input_shape) == len(x)
    logits = net.forward(x)
    assert logits.shape == (32, net.classes()) and logits.flags["C_CONTIGUOUS"]
    alone = np.concatenate([net.forward(xi) for xi in x])
    np.testing.assert_allclose(logits, alone, rtol=0, atol=1e-13)
    adv = pgd_attack(net, x, labels, 0.3, 3)
    assert adv.shape == x.shape
    alone = np.stack([pgd_attack(net, xi, ti, 0.3, 3) for xi, ti in zip(x, labels)])
    np.testing.assert_allclose(adv, alone, rtol=0, atol=1e-13)
