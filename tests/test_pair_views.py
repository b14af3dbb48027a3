"""maxmin and l2_pool on reshape views against their `moveaxis` forms.

The views change only how the pairs and patches are addressed, so every
output and cotangent must equal the reference bit for bit, signed zeros
included. The one intended difference is a NaN in a pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brolip.errors import ContractError
from brolip.tape import EagerOps, Tape, t_l2_pool, t_maxmin
from tape_helpers import (l2_pool_reference, l2_pool_vjp_reference,
                          maxmin_reference, maxmin_vjp_reference)


def _identical(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def _taped(op, x, arg, seed):
    tape = Tape()
    leaf = tape.leaf(x)
    out = op(leaf, arg)
    return out.value, tape.backward(out, seed=seed)[leaf.idx]


def _check_maxmin(x, axis, g):
    ref, take_e = maxmin_reference(x, axis)
    _identical(EagerOps.maxmin(x, axis=axis), ref)
    value, grad = _taped(t_maxmin, x, axis, g)
    _identical(value, ref)
    _identical(grad, maxmin_vjp_reference(g, take_e, axis))


def _check_l2_pool(x, p, g):
    norms, blocks = l2_pool_reference(x, p)
    _identical(EagerOps.l2_pool(x, p), norms)
    value, grad = _taped(t_l2_pool, x, p, g)
    _identical(value, norms)
    _identical(grad, l2_pool_vjp_reference(g, norms, blocks, p))


def _with_ties(x, axis):
    """Copy of `x` whose every third pair along `axis` is tied, and whose
    pairs 5 and 6 of every seven hold +0/-0 and -0/+0."""
    x = x.copy()
    m = np.moveaxis(x, axis, 0)
    m[1::2][::3] = m[0::2][::3]
    m[0::2][5::7], m[1::2][5::7] = 0.0, -0.0
    m[0::2][6::7], m[1::2][6::7] = -0.0, 0.0
    return x


@pytest.mark.parametrize("shape", [(5, 2, 4, 4), (5, 32), (3, 64, 16, 16)])
@pytest.mark.parametrize("ties", [False, True])
def test_maxmin_model_shapes(shape, ties):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape)
    if ties:
        x = _with_ties(x, 1)
    _check_maxmin(x, 1, rng.standard_normal(shape))


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_maxmin_any_axis(axis):
    rng = np.random.default_rng(axis + 5)
    x = _with_ties(rng.standard_normal((6, 4, 8)), axis)
    _check_maxmin(x, axis, rng.standard_normal(x.shape))


def test_maxmin_signed_zero_ties_keep_slots():
    # +0/-0 and -0/+0 compare equal: the even slot keeps the first entry
    x = np.array([0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 3.0, 3.0])
    _check_maxmin(x, 0, np.arange(8.0))
    np.testing.assert_array_equal(np.signbit(EagerOps.maxmin(x, axis=0)),
                                  [False, True, True, False, True, True, False, False])


@pytest.mark.parametrize("shape", [(0, 2, 4, 4), (0, 32), (0, 6)])
def test_maxmin_empty_batch(shape):
    x = np.zeros(shape)
    _check_maxmin(x, 1, np.zeros(shape))


def test_maxmin_odd_size_message_unchanged():
    with pytest.raises(ContractError, match="maxmin needs an even size along axis 1"):
        EagerOps.maxmin(np.zeros((2, 3)), axis=1)
    with pytest.raises(ContractError, match="along axis -1"):
        t_maxmin(Tape().leaf(np.zeros((2, 5))), axis=-1)


def test_maxmin_nan_reaches_both_slots():
    # each ufunc propagates a NaN operand; the `where` form put it in one
    # slot only, chosen by the failed comparison
    x = np.array([[np.nan, 1.0, 2.0, 5.0], [1.0, np.nan, 4.0, 3.0]])
    expected = np.array([[np.nan, np.nan, 5.0, 2.0], [np.nan, np.nan, 4.0, 3.0]])
    np.testing.assert_array_equal(EagerOps.maxmin(x, axis=1), expected)
    np.testing.assert_array_equal(t_maxmin(Tape().leaf(x), 1).value, expected)


@pytest.mark.parametrize("p", [1, 2, 3, 6])
def test_l2_pool_patch_sizes(p):
    rng = np.random.default_rng(p)
    x = rng.standard_normal((4, 3, 6, 6))
    x[0, 1] = 0.0                     # zero patches take the zero-cotangent branch
    x[1, 2, :p, :p] = -0.0
    _check_l2_pool(x, p, rng.standard_normal(x.shape[:-2] + (6 // p, 6 // p)))


@pytest.mark.parametrize("p", [4, 16])
def test_l2_pool_model_shapes(p):
    rng = np.random.default_rng(p)
    x = rng.standard_normal((3, 8, 16, 16))
    _check_l2_pool(x, p, rng.standard_normal((3, 8, 16 // p, 16 // p)))


def test_l2_pool_empty_batch():
    _check_l2_pool(np.zeros((0, 2, 4, 4)), 2, np.zeros((0, 2, 2, 2)))


@st.composite
def _pair_inputs(draw):
    ndim = draw(st.integers(1, 4))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape = draw(st.lists(st.integers(0, 4), min_size=ndim, max_size=ndim))
    shape[axis] = 2 * draw(st.integers(1, 3))
    size = int(np.prod(shape))
    # a small value set makes ties and signed-zero pairs common
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300])
    x = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float)
    g = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float)
    return x.reshape(shape), axis, g.reshape(shape)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(_pair_inputs())
def test_maxmin_matches_reference_on_random_shapes(case):
    x, axis, g = case
    _check_maxmin(x, axis, g)
