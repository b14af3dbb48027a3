"""The real value type `Tensor`, array coercion, and the allocation counters.

Everything in the library computes on float64/complex128 numpy arrays.
`Tensor` wraps the contiguous float64 array that the public forward calls
(`bro_conv_forward`, the dense orthogonalizers) return in `.array`.
`as_real_array` coerces every array-like input at the API boundary and
rejects complex input rather than dropping its imaginary part. The
allocation counters tally `Tensor` construction and the sites that call
`record_alloc` (`fft2`/`ifft2`, `cholesky`, the triangular solves and each
tape node); `brolip bench` and the benchmark harness read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class AllocStats:
    """Running totals of arrays handed out by the op layer."""

    count: int = 0
    elements: int = 0

    def copy(self) -> "AllocStats":
        return AllocStats(self.count, self.elements)


_STATS = AllocStats()


def record_alloc(n_elements: int) -> None:
    _STATS.count += 1
    _STATS.elements += int(n_elements)


def alloc_stats() -> AllocStats:
    """Snapshot of the allocation counters."""
    return _STATS.copy()


def reset_alloc_stats() -> None:
    _STATS.count = 0
    _STATS.elements = 0


def _contiguous(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.asarray(arr).astype(dtype, copy=False)
    if out.ndim and not out.flags["C_CONTIGUOUS"]:
        out = np.ascontiguousarray(out)
    return out


def as_real_array(x) -> np.ndarray:
    """Coerce a Tensor or real array-like to a contiguous float64 ndarray.

    Complex input raises `ContractError` instead of losing its imaginary part.
    """
    if isinstance(x, Tensor):
        return x.array
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise ContractError(f"expected real input, got dtype {arr.dtype}; "
                            "casting would drop the imaginary part")
    return _contiguous(arr, np.float64)


# kept as a benchmark tracer target (perfbench/tracer.py TARGETS)
def as_complex_array(x) -> np.ndarray:
    """Coerce a Tensor or array-like to a contiguous complex128 ndarray."""
    if isinstance(x, Tensor):
        return x.array.astype(np.complex128)
    return _contiguous(x, np.complex128)


class Tensor:
    """Real tensor: row-major float64 data with an explicit shape."""

    __slots__ = ("array",)

    def __init__(self, values):
        arr = as_real_array(values)
        record_alloc(arr.size)
        self.array = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"
