"""maxmin and l2_pool on reshape views against their `moveaxis` forms.

The primitives take a feature-major (d, B) batch; the references take
its (B, ...) sample form and pair or pool along a sample axis. The views
change only how the pairs and patches are addressed, so every output and
cotangent must equal the reference's, transposed, bit for bit, signed
zeros included. The one intended difference is a NaN in a pair.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brolip.errors import ContractError
from brolip.tape import EagerOps, Tape, t_l2_pool, t_maxmin
from tape_helpers import (columns, l2_pool_reference, l2_pool_vjp_reference,
                          maxmin_reference, maxmin_vjp_reference)


def _identical(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def _taped(op, x, args, seed):
    tape = Tape()
    leaf = tape.leaf(x)
    out = op(leaf, *args)
    return out.value, tape.backward(out, seed=seed)[leaf.idx]


def _check_maxmin(x, axis, g):
    """Samples `x` (B, ...) paired along their `axis`, a sample axis of
    even size: in the feature-major batch, runs of the entries after that
    axis times B."""
    axis %= x.ndim
    run = math.prod(x.shape[axis + 1:]) * x.shape[0]
    ref, take_e = maxmin_reference(x, axis)
    _identical(EagerOps.maxmin(columns(x), run), columns(ref))
    value, grad = _taped(t_maxmin, columns(x), (run,), columns(g))
    _identical(value, columns(ref))
    _identical(grad, columns(maxmin_vjp_reference(g, take_e, axis)))


def _check_l2_pool(x, p, g):
    norms, blocks = l2_pool_reference(x, p)
    s = x.shape[-1]
    _identical(EagerOps.l2_pool(columns(x), p, s), columns(norms))
    value, grad = _taped(t_l2_pool, columns(x), (p, s), columns(g))
    _identical(value, columns(norms))
    _identical(grad, columns(l2_pool_vjp_reference(g, norms, blocks, p)))


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
    # `axis` of a (6, 4, 8) sample, paired in runs of 32 B, 8 B or B entries
    rng = np.random.default_rng(axis + 5)
    sample_axis = axis + 1 if axis >= 0 else axis
    x = _with_ties(rng.standard_normal((3, 6, 4, 8)), sample_axis)
    _check_maxmin(x, sample_axis, rng.standard_normal(x.shape))


def test_maxmin_signed_zero_ties_keep_slots():
    # +0/-0 and -0/+0 compare equal: the even slot keeps the first entry
    x = np.array([[0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 3.0, 3.0]])
    _check_maxmin(x, 1, np.arange(8.0)[None])
    np.testing.assert_array_equal(np.signbit(EagerOps.maxmin(columns(x), 1)).ravel(),
                                  [False, True, True, False, True, True, False, False])


@pytest.mark.parametrize("shape", [(0, 2, 4, 4), (0, 32), (0, 6)])
def test_maxmin_empty_batch(shape):
    x = np.zeros(shape)
    _check_maxmin(x, 1, np.zeros(shape))


def test_maxmin_odd_run_count_rejected():
    with pytest.raises(ContractError, match="maxmin needs an even number of runs, got 3"):
        EagerOps.maxmin(np.zeros((3, 2)), 2)
    with pytest.raises(ContractError, match="even number of runs, got 5"):
        t_maxmin(Tape().leaf(np.zeros((5, 2))), 2)


def test_maxmin_nan_reaches_both_slots():
    # each ufunc propagates a NaN operand; the `where` form put it in one
    # slot only, chosen by the failed comparison
    x = columns(np.array([[np.nan, 1.0, 2.0, 5.0], [1.0, np.nan, 4.0, 3.0]]))
    expected = columns(np.array([[np.nan, np.nan, 5.0, 2.0], [np.nan, np.nan, 4.0, 3.0]]))
    np.testing.assert_array_equal(EagerOps.maxmin(x, 2), expected)
    np.testing.assert_array_equal(t_maxmin(Tape().leaf(x), 2).value, expected)


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
    # B samples of c channels, each a run of `run` entries
    c = 2 * draw(st.integers(1, 3))
    run, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    size = b * c * run
    # a small value set makes ties and signed-zero pairs common
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300])
    x = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float)
    g = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float)
    return x.reshape(b, c, run), g.reshape(b, c, run)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(_pair_inputs())
def test_maxmin_matches_reference_on_random_shapes(case):
    x, g = case
    _check_maxmin(x, 1, g)
