"""Reverse-mode tape: primitive gradients and the grad-check oracle."""

import math

import numpy as np
import pytest

from brolip import linalg
from brolip.errors import ContractError
from brolip.tape import (Tape, grad_check, t_conj, t_custom_scalar, t_l2_pool,
                         t_matmul, t_maxmin, t_mul, t_real, t_row_normalize,
                         t_scale_by, t_slice2d, t_solve_h, t_sum, t_transpose,
                         tape_backward)


def test_square_gradient():
    tape = Tape()
    x = tape.leaf(np.asarray(3.0))
    y = t_mul(x, x)
    grads = tape_backward(tape, y)
    assert grads[x.idx].array == pytest.approx(6.0)


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


def test_non_scalar_output_rejected():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        tape_backward(tape, x)


def test_composite_matches_finite_differences():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((4, 4))

    def f(x):
        tape = x.tape
        wv = tape.leaf(w, requires_grad=False)
        h = t_maxmin(t_matmul(wv, x), axis=0)
        return t_sum(t_mul(h, h))

    assert grad_check(f, rng.standard_normal((4, 3)), h=1e-5) < 1e-7


def test_solve_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal((5, 2))

    def f(v):
        tape = v.tape
        b = tape.leaf(rhs, requires_grad=False)
        vt = t_transpose(v, (1, 0))
        x = t_solve_h(t_matmul(vt, v), t_matmul(vt, b))
        return t_sum(t_mul(x, x))

    assert grad_check(f, rng.standard_normal((5, 3)), h=1e-6) < 1e-6


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
    x0 = rng.standard_normal((1, 4, 4)) + 3.0

    def f(x):
        y = t_l2_pool(x, 2)
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
        out = t_sum(t_maxmin(t_matmul(wv, x), axis=0))
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


def test_solve_h_reuses_a_frozen_factor_and_rejects_it_for_a_grad_matrix():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 3))
    a0, b0 = m.T @ m, rng.standard_normal((3, 2))
    tape = Tape()
    a = tape.leaf(a0, requires_grad=False)
    b = tape.leaf(b0)
    factor = tape.constant(linalg.cholesky(a0))
    reused, fresh = t_solve_h(a, b, factor), t_solve_h(a, b)
    assert np.array_equal(reused.value, fresh.value)
    g_reused = tape.backward(t_sum(reused))[b.idx]
    assert np.array_equal(g_reused, tape.backward(t_sum(fresh))[b.idx])
    with pytest.raises(ContractError):
        t_solve_h(tape.leaf(a0), b, factor)
