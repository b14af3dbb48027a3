"""Value-type invariants and the allocation counters."""

import numpy as np

from brolip.fft import fft2
from brolip.tensor import Tensor, alloc_stats, record_alloc, reset_alloc_stats


def test_data_length_matches_shape_product():
    t = Tensor(np.arange(12.0).reshape(3, 4))
    assert t.shape == (3, 4)
    assert t.array.size == 12
    np.testing.assert_array_equal(t.array.reshape(-1), np.arange(12.0))


def test_scalar_tensor_has_one_entry():
    t = Tensor(np.asarray(2.5))
    assert t.shape == ()
    assert t.array.size == 1  # empty shape product is 1


def test_row_major_layout():
    t = Tensor(np.array([[1.0, 3.0], [2.0, 4.0]]).T)
    assert t.array.dtype == np.float64 and t.array.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(t.array.reshape(-1), [1.0, 2.0, 3.0, 4.0])
    assert Tensor([[1, 2]]).array.dtype == np.float64


def test_alloc_counters():
    reset_alloc_stats()
    Tensor(np.zeros(10))
    fft2(np.zeros((2, 2), dtype=complex))
    record_alloc(6)
    stats = alloc_stats()
    assert stats.count == 3
    assert stats.elements == 20
    reset_alloc_stats()
    assert alloc_stats().count == 0
