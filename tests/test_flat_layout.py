"""Feature-major primitives against the image oracle.

The spatial primitives and the conv functions take only feature-major
(c s^2, B) batches, the transpose of the flattened image batch. Each is
checked against an oracle on the (B, c, s, s) image form (`tape_helpers`),
whose outputs and cotangents, transposed the same way, they must equal
bit for bit. A network on a batch as large as its input width, where a
transposition would keep every shape, must give each sample what it gives
that sample alone.
"""

import math

import numpy as np
import pytest

from brolip import linalg, ortho
from brolip.errors import ContractError
from brolip.fft import half_plane
from brolip.models import build_model, lipconvnet_mini
from brolip.ortho import (BroConvKernel, ConvGeometry, bro_conv_forward, conv_apply, conv_matrix,
                          conv_matrix_apply, conv_prepare)
from brolip.tape import _SAMPLES_BLOCK, EagerOps, Tape, TapeOps, _samples
from brolip.train import pgd_attack
from tape_helpers import (columns, irdft_half_reference, irdft_half_vjp_reference,
                          l2_pool_reference, l2_pool_vjp_reference, maxmin_reference,
                          maxmin_vjp_reference, rdft_half_reference,
                          rdft_half_vjp_reference)


def _taped(fn, x, seed):
    tape = Tape()
    leaf = tape.leaf(x)
    out = fn(TapeOps(tape), leaf)
    return out.value, tape.backward(out, seed=seed)[leaf.idx]


def _matches(fn, x, ref, g, ref_grad):
    """`fn` on `x`, eagerly and taped, gives `ref`, and the cotangent `g`
    pulls back to `ref_grad`, all bit for bit."""
    assert np.array_equal(fn(EagerOps, x), ref)
    value, grad = _taped(fn, x, g)
    assert np.array_equal(value, ref)
    assert grad.shape == x.shape and np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("c, s", [(2, 4), (4, 3), (6, 1)])
def test_maxmin_pairs_runs_of_a_flat_image(c, s):
    rng = np.random.default_rng(c + s)
    x = rng.standard_normal((5, c, s, s))
    x[:, 1] = x[:, 0]  # ties keep their slots
    g = rng.standard_normal(x.shape)
    ref, take_e = maxmin_reference(x, 1)
    _matches(lambda ops, a: ops.maxmin(a, s * s * 5), columns(x), columns(ref),
             columns(g), columns(maxmin_vjp_reference(g, take_e, 1)))


def test_maxmin_takes_an_empty_feature_major_batch():
    out = EagerOps.maxmin(np.zeros((8, 0)), 0)
    assert out.shape == (8, 0)
    with pytest.raises(ContractError, match="runs of 0"):
        EagerOps.maxmin(np.zeros((8, 2)), 0)


def test_maxmin_rejects_runs_that_do_not_tile():
    with pytest.raises(ContractError, match="runs of 3"):
        EagerOps.maxmin(np.zeros((8, 2)), 3)
    with pytest.raises(ContractError, match="even number of runs"):
        EagerOps.maxmin(np.zeros((3, 4)), 4)


# 500 samples of 48 features make the batch's image copy in several blocks
@pytest.mark.parametrize("b", [0, 3, 500])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_l2_pool_views_a_flat_image(p, b):
    rng = np.random.default_rng(p)
    x = rng.standard_normal((b, 3, 4, 4))
    if b:
        x[0, 1] = 0.0  # a zero patch
    norms, blocks = l2_pool_reference(x, p)
    g = rng.standard_normal(norms.shape)
    _matches(lambda ops, a: ops.l2_pool(a, p, 4), columns(x), columns(norms),
             columns(g), columns(l2_pool_vjp_reference(g, norms, blocks, p)))
    assert EagerOps.l2_pool(columns(x), p, 4).shape == (3 * (4 // p) ** 2, b)


@pytest.mark.parametrize("s, p", [(4, 6), (5, 7), (6, 6)])
def test_half_plane_transforms_take_and_give_the_flat_layout(s, p):
    rng = np.random.default_rng(s + p)
    x = rng.standard_normal((3, 2, s, s))
    m = half_plane(p).rep.size
    yf = rng.standard_normal((m, 2, 3)) + 1j * rng.standard_normal((m, 2, 3))
    _matches(lambda ops, a: ops.rdft_half(a, p, s), columns(x), rdft_half_reference(x, p),
             yf, columns(rdft_half_vjp_reference(yf, p, s)))
    g = rng.standard_normal(x.shape)
    _matches(lambda ops, a: ops.irdft_half(a, p, s), yf, columns(irdft_half_reference(yf, p, s)),
             columns(g), irdft_half_vjp_reference(g, p))


@pytest.mark.parametrize("keep", [False, True])
def test_conv_keeps_the_input_layout(keep):
    # both conv functions return the feature-major layout they take: the
    # spectral one gives the image oracle's bits, transposed, and the dense
    # one is the product with its matrix
    rng = np.random.default_rng(9)
    geom = ConvGeometry(4, 4, 4, 3, keep_padding=keep)
    p, size = geom.padded_size, geom.output_size
    v = rng.standard_normal((4, 2, 3, 3)) / 2.0
    x = rng.standard_normal((5, 4, 4, 4))
    op = conv_prepare(EagerOps, v, geom)
    m = conv_matrix(EagerOps, op, geom)
    g = rng.standard_normal((5, 4, size, size))

    def spectral(ops, a):
        return conv_apply(ops, op._replace(vf=ops.constant(op.vf)), a, geom)

    yf = linalg.reflect(op.vf, op.factor, rdft_half_reference(x, p))[0]
    gf = linalg.reflect(op.vf, op.factor, irdft_half_vjp_reference(g, p))[0]
    _matches(spectral, columns(x), columns(irdft_half_reference(yf, p, size)),
             columns(g), columns(rdft_half_vjp_reference(gf, p, 4)))

    def dense(ops, a):
        return conv_matrix_apply(ops, ops.constant(m), a, geom)

    _matches(dense, columns(x), m @ columns(x), columns(g), m.T @ columns(g))


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


def test_samples_of_contiguous_samples_are_a_view(monkeypatch):
    # the network's input and bro_conv_forward's both enter as the
    # transposed view of the contiguous samples, which `_samples` reads in place
    x = np.random.default_rng(14).standard_normal((6, 2, 4, 4))
    net = build_model(lipconvnet_mini(2, 4), seed=1)
    rows = _samples(net._coerce_batch(x))
    assert rows.flags["C_CONTIGUOUS"] and np.shares_memory(rows, x)
    assert np.array_equal(rows, x.reshape(6, 32))

    seen = []

    def spy(ops, op, cols, geom):
        seen.append(_samples(cols))
        return conv_apply(ops, op, cols, geom)

    monkeypatch.setattr(ortho, "conv_apply", spy)
    kernel = BroConvKernel(np.random.default_rng(15).standard_normal((2, 1, 3, 3)))
    bro_conv_forward(kernel, x, ConvGeometry(2, 2, 4, 3))
    assert np.shares_memory(seen[0], x) and np.array_equal(seen[0], x.reshape(6, 32))


# one block, several blocks with a partial last one, and one row per block
@pytest.mark.parametrize("d, b, blocks", [(3, 7, 1), (1000, 16, 4), (37, 5000, 37)])
def test_samples_copies_a_contiguous_batch_in_blocks(d, b, blocks):
    assert math.ceil(d / max(1, _SAMPLES_BLOCK // b)) == blocks
    a = np.random.default_rng(d).standard_normal((d, b))
    rows = _samples(a)
    assert rows.flags["C_CONTIGUOUS"] and not np.shares_memory(rows, a)
    assert np.array_equal(rows, np.ascontiguousarray(a.T))
