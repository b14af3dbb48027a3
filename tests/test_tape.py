"""Reverse-mode tape: primitive gradients and the grad-check oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from brolip import linalg
from brolip.errors import ContractError
from brolip.fft import real_half
from brolip.tape import (EagerOps, Tape, TapeOps, grad_check, t_custom_scalar,
                         t_l2_pool, t_matmul, t_maxmin, t_mul, t_reflect,
                         t_row_normalize, t_scale_by, t_slice2d, t_sum)
from tape_helpers import t_conj, t_real


def test_leaf_keeps_any_complex_input_complex():
    value = Tape().leaf(np.array([1 + 2j], dtype=np.complex64)).value
    assert value.dtype == np.complex128
    np.testing.assert_array_equal(value, [1 + 2j])


def test_square_gradient():
    tape = Tape()
    x = tape.leaf(np.asarray(3.0))
    y = t_mul(x, x)
    grads = tape.backward(y)
    assert grads[x.idx] == pytest.approx(6.0)


def test_matmul_sum_gradient_is_column_sums():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 4))
    tape = Tape()
    wv = tape.leaf(w, requires_grad=False)
    x = tape.leaf(rng.standard_normal((4, 1)))
    out = t_sum(t_matmul(wv, x))
    g = tape.backward(out)[x.idx]
    np.testing.assert_allclose(g[:, 0], w.sum(axis=0), atol=1e-12)


@pytest.mark.parametrize("real_on_left", [False, True])
def test_matmul_gives_a_real_operand_a_real_cotangent(real_on_left):
    rng = np.random.default_rng(4)
    k = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    if real_on_left:
        k = k.T.copy()

    def f(x):
        kv = x.tape.constant(k)
        y = t_matmul(x, kv) if real_on_left else t_matmul(kv, x)
        return t_sum(t_real(t_mul(y, t_conj(y))))

    x0 = rng.standard_normal((2, 3) if real_on_left else (3, 2))
    assert grad_check(f, x0, h=1e-6) < 1e-8
    tape = Tape()
    leaf = tape.leaf(x0)
    g = tape.backward(f(leaf))[leaf.idx]
    assert g.dtype == np.float64 and g.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("grad_on_left", [False, True])
def test_a_real_matmul_vjp_copies_no_operand(grad_on_left):
    # the cotangent of W x is W^T g, and of x W it is g W^T; for a real W
    # the conjugate transpose is a view, so the backward allocates about one
    # cotangent and no 2 MB copy of W, and the values equal the product with
    # the conjugated copy bit for bit
    rng = np.random.default_rng(6)
    w = rng.standard_normal((512, 512))
    tape = Tape()
    x = tape.leaf(rng.standard_normal((1, 512) if grad_on_left else (512, 1)))
    wv = tape.constant(w)
    y = t_matmul(x, wv) if grad_on_left else t_matmul(wv, x)
    seed = rng.standard_normal(y.value.shape)
    tracemalloc.start()
    try:
        grad = tape.backward(y, seed=seed)[x.idx]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes // 8, peak
    copied = np.conj(w.T)
    np.testing.assert_array_equal(grad, seed @ copied if grad_on_left else copied @ seed)


def test_non_scalar_output_rejected():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        tape.backward(x)


def test_composite_matches_finite_differences():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((4, 4))

    def f(x):
        tape = x.tape
        wv = tape.leaf(w, requires_grad=False)
        h = t_maxmin(t_matmul(wv, x), 3)
        return t_sum(t_mul(h, h))

    assert grad_check(f, rng.standard_normal((4, 3)), h=1e-5) < 1e-7


def _reflect_readout(v, x, r):
    """sum(r * y * y) for y = reflect(v, x): nonlinear in both operands
    (|y| alone is |x|, whatever v is)."""
    y = t_reflect(v, linalg.gram_factor(v.value), x)
    return t_sum(t_real(t_mul(t_mul(y, y), v.tape.constant(r))))


@pytest.mark.parametrize("wrt", ["v", "x"])
@pytest.mark.parametrize("identity", [True, False])
def test_reflect_gradient_matches_finite_differences(wrt, identity):
    rng = np.random.default_rng(2)
    v0 = rng.standard_normal((6, 2))
    x0 = np.eye(6) if identity else rng.standard_normal((6, 3))
    r = rng.standard_normal(x0.shape)
    if wrt == "v":
        f = lambda v: _reflect_readout(v, v.tape.constant(x0), r)
    else:
        f = lambda x: _reflect_readout(x.tape.constant(v0), x, r)
    assert grad_check(f, v0 if wrt == "v" else x0, h=1e-6) < 1e-8


def _complex_grad_error(f, z0, h=1e-6):
    """grad_check for a complex leaf: central differences along the real and
    the imaginary part of each entry, combined as d/d re + i d/d im."""
    tape = Tape()
    leaf = tape.leaf(z0)
    analytic = tape.backward(f(leaf))[leaf.idx]
    numeric = np.zeros_like(z0)
    for idx in np.ndindex(z0.shape):
        for unit in (1.0, 1j):
            up, down = z0.copy(), z0.copy()
            up[idx] += h * unit
            down[idx] -= h * unit
            numeric[idx] += unit * (float(f(Tape().leaf(up)).value)
                                    - float(f(Tape().leaf(down)).value)) / (2 * h)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))))


@pytest.mark.parametrize("wrt", ["v", "x"])
def test_reflect_gradient_for_complex_per_frequency_operands(wrt):
    # four frequencies of a c = 6, rank-2 spectrum applied to a batch of 3
    rng = np.random.default_rng(8)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v0, x0, r = cplx(4, 6, 2), cplx(4, 6, 3), cplx(4, 6, 3)
    if wrt == "v":
        err = _complex_grad_error(lambda v: _reflect_readout(v, v.tape.constant(x0), r), v0)
    else:
        err = _complex_grad_error(lambda x: _reflect_readout(x.tape.constant(v0), x, r), x0)
    assert err < 1e-7


@pytest.mark.parametrize("wrt", ["v", "x"])
@pytest.mark.parametrize("complex_data", [False, True])
def test_reflect_gradient_through_b(wrt, complex_data):
    # c = 6 < 2b = 8: the forward forms B = L^{-1} V^H and the adjoint reuses it
    rng = np.random.default_rng(12)

    def draw(*shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_data else a

    v0, x0, r = draw(4, 6, 2), draw(4, 6, 4), draw(4, 6, 4)
    assert linalg.reflect(v0, linalg.gram_factor(v0), x0)[1][0] is not None
    if wrt == "v":
        f, z0 = lambda v: _reflect_readout(v, v.tape.constant(x0), r), v0
    else:
        f, z0 = lambda x: _reflect_readout(x.tape.constant(v0), x, r), x0
    err = _complex_grad_error(f, z0) if complex_data else grad_check(f, z0, h=1e-6)
    assert err < 1e-7


@pytest.mark.parametrize("b, forward, x_only, with_v", [(4, 1, 0, 1), (3, 2, 2, 2)])
def test_reflect_adjoint_solves_only_where_its_association_needs(
        monkeypatch, b, forward, x_only, with_v):
    """Triangular solves: through B (c < 2b) the x adjoint needs none and V
    one right-side solve; otherwise every application takes two."""
    rng = np.random.default_rng(13)
    v0 = rng.standard_normal((3, 6, 2)) + 1j * rng.standard_normal((3, 6, 2))
    x0, r = rng.standard_normal((3, 6, b)), rng.standard_normal((3, 6, b))
    factor = linalg.gram_factor(v0)
    calls = []
    substitute = linalg._substitute
    monkeypatch.setattr(linalg, "_substitute",
                        lambda *args, **kw: calls.append(args) or substitute(*args, **kw))

    def solves(fn):
        calls.clear()
        return fn(), len(calls)

    for v_grad, backward in ((False, x_only), (True, with_v)):
        tape = Tape()
        y, n = solves(lambda: t_reflect(tape.leaf(v0, requires_grad=v_grad), factor,
                                        tape.leaf(x0)))
        assert n == forward
        out = t_sum(t_real(t_mul(y, tape.constant(r))))
        assert solves(lambda: tape.backward(out))[1] == backward


@pytest.mark.parametrize("dtype", [float, complex])
def test_taped_reflect_value_equals_the_eager_form(dtype):
    rng = np.random.default_rng(9)
    v0 = rng.standard_normal((5, 7, 3)).astype(dtype)
    x0 = rng.standard_normal((5, 7, 4)).astype(dtype)
    if dtype is complex:
        v0 += 1j * rng.standard_normal(v0.shape)
    factor = linalg.gram_factor(v0)
    tape = Tape()
    taped = TapeOps(tape).reflect(tape.leaf(v0), factor, tape.leaf(x0))
    assert np.array_equal(taped.value, EagerOps.reflect(v0, factor, x0))


def test_slice_row_normalize_scale_by():
    rng = np.random.default_rng(3)

    def f(w):
        tape = w.tape
        s = tape.leaf(np.asarray(1.3))
        y = t_row_normalize(t_slice2d(t_scale_by(w, s), 2, 3))
        return t_sum(t_mul(y, y))

    assert grad_check(f, rng.standard_normal((3, 4)), h=1e-6) < 1e-6


def test_l2_pool_gradient_off_zero_patches():
    rng = np.random.default_rng(4)
    x0 = (rng.standard_normal((1, 4, 4)) + 3.0).reshape(16, 1)

    def f(x):
        y = t_l2_pool(x, 2, 4)
        return t_sum(t_mul(y, y))

    assert grad_check(f, x0, h=1e-6) < 1e-7


def test_custom_scalar_seeds_analytic_gradient():
    def fn(z):
        return float(np.sum(z ** 2)), 2.0 * z

    tape = Tape()
    z = tape.leaf(np.asarray([1.0, -2.0, 0.5]))
    out = t_custom_scalar(z, fn)
    g = tape.backward(out)[z.idx]
    np.testing.assert_allclose(g, [2.0, -4.0, 1.0])


def test_grad_check_propagates_nan():
    def f(x):
        return t_custom_scalar(x, lambda z: (float("nan"), np.zeros_like(z)))

    assert math.isnan(grad_check(f, np.ones(2)))


def test_backward_deterministic():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((6, 6))
    x0 = rng.standard_normal((6, 2))

    def run():
        tape = Tape()
        x = tape.leaf(x0)
        wv = tape.leaf(w, requires_grad=False)
        out = t_sum(t_maxmin(t_matmul(wv, x), 2))
        return tape.backward(out)[x.idx]

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_distinct_tapes_do_not_mix():
    t1, t2 = Tape(), Tape()
    x1 = t1.leaf(np.asarray(1.0))
    with pytest.raises(ContractError):
        t2.backward(x1)


def test_vjp_on_a_branch_without_grad_leaves_is_never_called():
    def boom(g):
        raise AssertionError("VJP of a frozen branch was called")

    tape = Tape()
    frozen = tape.leaf(np.ones(3), requires_grad=False)
    param = tape.leaf(np.full(3, 2.0))
    branch = tape._append("frozen_branch", 3.0 * frozen.value, (frozen.idx,), boom)
    assert not branch.requires_grad and param.requires_grad
    out = t_sum(t_mul(branch, param))
    grads = tape.backward(out)
    assert set(grads) == {param.idx}
    np.testing.assert_array_equal(grads[param.idx], np.full(3, 3.0))


class _Var:
    """Marks a backend-value argument of a parity case; the rest is plain data."""

    def __init__(self, array):
        self.array = array


def _parity_cases():
    rng = np.random.default_rng(11)
    real = lambda *shape: rng.standard_normal(shape)
    cplx = lambda *shape: real(*shape) + 1j * real(*shape)
    v, vc = real(5, 7, 3), cplx(5, 7, 3)
    image = real(2, 3, 6, 6)
    flat = real(3 * 6 * 6, 2)  # two 3 x 6 x 6 images, feature-major
    view = image.reshape(2, 3 * 6 * 6).T  # the same, as a view of contiguous samples
    p = 6
    m = real_half(p).forward.shape[1] // 2
    return {
        "constant": [(real(3, 4),), (real(4, 3).T,)],  # plain data in, a value out
        "add": [(_Var(real(3, 4)), _Var(real(3, 4)))],
        "scale": [(_Var(real(3, 4)), 0.3)],
        "scale_by": [(_Var(real(3, 4)), _Var(np.asarray(1.7)))],
        "matmul": [(_Var(real(2, 3, 4)), _Var(real(2, 4, 5))),
                   (_Var(cplx(2, 3, 4)), _Var(cplx(2, 4, 5))),
                   (_Var(real(2, 3, 4)), _Var(cplx(2, 4, 5)))],
        "transpose": [(_Var(image), (2, 3, 0, 1))],
        "reshape": [(_Var(image), (6, 36))],
        # the full p x p grid, and the centred 6 x 6 window of an 8 x 8 one
        "rdft_half": [(_Var(flat), p, 6), (_Var(flat), p + 2, 6), (_Var(view), p + 2, 6)],
        "irdft_half": [(_Var(cplx(m, 3, 2)), p, p), (_Var(cplx(m, 3, 2)), p, p - 2)],
        "reflect": [(_Var(v), linalg.gram_factor(v), _Var(real(5, 7, 4))),
                    (_Var(vc), linalg.gram_factor(vc), _Var(cplx(5, 7, 4)))],
        "maxmin": [(_Var(real(4, 6)), 6), (_Var(real(4, 6)), 1), (_Var(flat), 6 * 2)],
        "l2_pool": [(_Var(flat), 2, 6), (_Var(flat), 3, 6), (_Var(view), 3, 6)],
        "row_normalize": [(_Var(real(3, 5)),)],
        "slice2d": [(_Var(real(4, 6)), 2, 3)],
    }


def _public_names(obj):
    return {name for name in dir(obj) if not name.startswith("_")}


def test_backends_expose_the_same_primitives():
    names = _public_names(EagerOps)
    assert names == _public_names(TapeOps(Tape()))
    assert names == set(_parity_cases()) | {"value"}


@pytest.mark.parametrize("name", sorted(_parity_cases()))
def test_eager_and_taped_primitives_agree_bit_for_bit(name):
    for args in _parity_cases()[name]:
        tape = Tape()
        eager = getattr(EagerOps, name)(
            *(a.array if isinstance(a, _Var) else a for a in args))
        taped = getattr(TapeOps(tape), name)(
            *(tape.constant(a.array) if isinstance(a, _Var) else a for a in args)).value
        assert eager.dtype == taped.dtype and np.array_equal(eager, taped)
        assert eager.flags["C_CONTIGUOUS"] == taped.flags["C_CONTIGUOUS"]


def test_value_reads_each_backends_array():
    a = np.arange(6.0).reshape(2, 3)
    tape = Tape()
    assert EagerOps.value(a) is a
    assert TapeOps(tape).value(tape.constant(a)) is a
