"""Unitary 2D discrete Fourier transforms.

The 1D core is a recursive mixed-radix Cooley-Tukey decomposition with a
direct matrix-product DFT as the base case. Any length up to 64, and any
prime length, takes the direct path: at desk scale the O(n^2) base case is
both fast (one BLAS call) and the easiest to trust. The 2D wrappers apply
the unitary normalization 1/s per axis so that transforms preserve the
l2 norm exactly in exact arithmetic. `half_plane` holds the cached index
tables of the conjugate pairing f <-> -f that lets real-signal spectra be
kept at half the frequencies.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .tensor import CTensor, Tensor, as_complex_array, as_real_array, record_alloc

_DIRECT_CUTOFF = 64

_dft_cache: dict[int, np.ndarray] = {}


def _dft_matrix(n: int) -> np.ndarray:
    """Unnormalized DFT matrix F[j, k] = exp(-2i*pi*j*k/n)."""
    mat = _dft_cache.get(n)
    if mat is None:
        j = np.arange(n)
        mat = np.exp((-2j * np.pi / n) * np.outer(j, j))
        _dft_cache[n] = mat
    return mat


_tap_dft_cache: dict[tuple[int, int], np.ndarray] = {}


def tap_dft(p: int, k: int) -> np.ndarray:
    """Unitary p x p 2D DFT restricted to a top-left k x k support.

    A (p^2, k^2) read-only matrix: row u*p + v, column a*k + b holds
    exp(-2i*pi*(u*a + v*b)/p) / p. For x of shape (k, k, ...),
    `tap_dft(p, k) @ x.reshape(k*k, -1)` is the `fft2` of x zero-padded to
    p x p over its leading two axes, laid out frequency-major (p^2, ...).
    """
    key = (p, k)
    mat = _tap_dft_cache.get(key)
    if mat is None:
        j = np.arange(p)
        cols = np.exp((-2j * np.pi / p) * (np.outer(j, j[:k]) % p))
        mat = np.kron(cols, cols) / p
        mat.flags.writeable = False
        _tap_dft_cache[key] = mat
    return mat


class HalfPlane(NamedTuple):
    """Index tables of the p x p frequency grid under the pairing f <-> -f.

    The spectrum of a real signal has X(-f) = conj X(f), so it is fixed by
    its values at the representatives `rep`, the flat indices g with
    g <= partner(g): (p^2 + s0) / 2 rows, where s0 counts the self-conjugate
    frequencies (1 for odd p, 4 for even p). `source` (p^2,) is the position
    in `rep` of each grid row or of its partner; the rows `mirrored` are the
    partners that are not representatives themselves, each the conjugate of
    row `rep[source[mirrored]]`, and no two share a representative.
    """

    rep: np.ndarray
    source: np.ndarray
    mirrored: np.ndarray

    def mirror(self, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """Representative rows along `axis` -> the full grid, conjugating partners."""
        out = np.take(values, self.source, axis=axis)
        np.moveaxis(out, axis, 0).imag[self.mirrored] *= -1
        return out

    def fold(self, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """Adjoint of `mirror` under the real pairing Re<a, b>."""
        out = np.take(values, self.rep, axis=axis)
        np.moveaxis(out, axis, 0)[self.source[self.mirrored]] += np.conj(
            np.moveaxis(values, axis, 0)[self.mirrored])
        return out


_half_plane_cache: dict[int, HalfPlane] = {}


def half_plane(p: int) -> HalfPlane:
    """The cached, read-only `HalfPlane` tables of a p x p grid."""
    tables = _half_plane_cache.get(p)
    if tables is None:
        i, j = np.divmod(np.arange(p * p), p)
        partner = ((-i) % p) * p + ((-j) % p)
        is_rep = np.arange(p * p) <= partner
        position = np.cumsum(is_rep) - 1
        mirrored = np.flatnonzero(~is_rep)
        source = position.copy()
        source[mirrored] = position[partner[mirrored]]
        tables = HalfPlane(np.flatnonzero(is_rep), source, mirrored)
        for arr in tables:
            arr.flags.writeable = False
        _half_plane_cache[p] = tables
    return tables


_half_tap_dft_cache: dict[tuple[int, int], np.ndarray] = {}


def half_tap_dft(p: int, k: int) -> np.ndarray:
    """The representative rows `tap_dft(p, k)[half_plane(p).rep]`, cached read-only."""
    key = (p, k)
    mat = _half_tap_dft_cache.get(key)
    if mat is None:
        mat = tap_dft(p, k)[half_plane(p).rep]
        mat.flags.writeable = False
        _half_tap_dft_cache[key] = mat
    return mat


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


def _fft1_last(a: np.ndarray) -> np.ndarray:
    """Unnormalized DFT along the last axis (complex in, complex out)."""
    n = a.shape[-1]
    p = _smallest_prime_factor(n)
    if n <= _DIRECT_CUTOFF or p == n:
        return a @ _dft_matrix(n)
    m = n // p
    # Decimation in time: column r holds the subsequence a[..., r::p].
    sub = a.reshape(a.shape[:-1] + (m, p))
    sub = _fft1_last(np.swapaxes(sub, -1, -2))  # (..., p, m) transformed
    sub = np.swapaxes(sub, -1, -2)              # (..., m, p): S[k2, r]
    k2 = np.arange(m).reshape(m, 1)
    r = np.arange(p).reshape(1, p)
    twiddle = np.exp((-2j * np.pi / n) * (k2 * r))
    combined = (sub * twiddle) @ _dft_matrix(p)  # (..., m, p): X[k1*m + k2]
    return np.swapaxes(combined, -1, -2).reshape(a.shape)


def _check_square_trailing(shape: tuple[int, ...]) -> int:
    if len(shape) < 2:
        raise ShapeError(f"need at least 2 dims for a 2D transform, got shape {shape}")
    if shape[-1] != shape[-2]:
        raise ShapeError(f"trailing dims must be square, got {shape[-2]}x{shape[-1]}")
    if shape[-1] < 1:
        raise ShapeError("spatial size must be at least 1")
    return shape[-1]


def fft2(a: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT over the trailing two axes of an ndarray."""
    s = _check_square_trailing(a.shape)
    out = np.ascontiguousarray(a, dtype=np.complex128)
    out = _fft1_last(out)
    out = _fft1_last(np.swapaxes(out, -1, -2))
    out = np.swapaxes(out, -1, -2)
    record_alloc(out.size)
    return out / s


def ifft2(a: np.ndarray) -> np.ndarray:
    """Unitary inverse 2D DFT; exact inverse of :func:`fft2`."""
    return np.conj(fft2(np.conj(a)))


def fft2d(x) -> CTensor:
    """Unitary 2D DFT of a real tensor, applied to each leading slice."""
    arr = as_real_array(x)
    return CTensor(fft2(arr))


def ifft2d(x) -> CTensor:
    """Unitary inverse 2D DFT of a complex tensor."""
    arr = as_complex_array(x)
    return CTensor(ifft2(arr))


def ifft2d_real(x, imag_tol: float | None = None) -> Tensor:
    """Inverse transform expected to land on a real tensor.

    When `imag_tol` is given, the discarded imaginary magnitude is checked
    against it.
    """
    arr = ifft2(as_complex_array(x))
    if imag_tol is not None:
        worst = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
        if worst > imag_tol:
            raise ShapeError(
                f"imaginary residue {worst:.3e} exceeds tolerance {imag_tol:.1e}")
    return Tensor(arr.real)
