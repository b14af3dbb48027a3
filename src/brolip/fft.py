"""Unitary 2D discrete Fourier transforms.

`fft2`/`ifft2` are numpy's pocketfft on ndarrays with the unitary
("ortho") normalization 1/s per axis, so transforms preserve the l2 norm
exactly in exact arithmetic. No model path calls them: they are the
independent oracle of the cached matrix forms below. `half_plane` holds
the cached index tables of the conjugate pairing f <-> -f that lets
real-signal spectra be kept at half the frequencies. `tap_dft` and
`half_tap_dft` are the DFT as a matrix on a kernel's k x k taps,
`half_tap_pairs` the products of its entries that turn the taps' pairwise
products into each frequency's Gram, and `real_half` the real GEMM tables
that take a real p x p signal to its half-plane spectrum and back.
`real_window` restricts those tables to the centred s x s window of the
grid: zero-padding a signal and then transforming it is the transform's
rows at the signal's pixels, and cropping the inverse is its columns
there, so a conv needs no pad or crop. Each table is built once per grid
(`functools.cache`) and made read-only, since every caller shares it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .tensor import record_alloc


def _read_only(tables):
    """`tables`, an array or a tuple of arrays, with every array made read-only."""
    for arr in (tables,) if isinstance(tables, np.ndarray) else tables:
        arr.flags.writeable = False
    return tables


@functools.cache
def tap_dft(p: int, k: int) -> np.ndarray:
    """Unitary p x p 2D DFT restricted to a top-left k x k support.

    A (p^2, k^2) read-only matrix: row u*p + v, column a*k + b holds
    exp(-2i*pi*(u*a + v*b)/p) / p. For x of shape (k, k, ...),
    `tap_dft(p, k) @ x.reshape(k*k, -1)` is the `fft2` of x zero-padded to
    p x p over its leading two axes, laid out frequency-major (p^2, ...).
    """
    j = np.arange(p)
    cols = np.exp((-2j * np.pi / p) * (np.outer(j, j[:k]) % p))
    return _read_only(np.kron(cols, cols) / p)


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


@functools.cache
def half_plane(p: int) -> HalfPlane:
    """The cached, read-only `HalfPlane` tables of a p x p grid."""
    i, j = np.divmod(np.arange(p * p), p)
    partner = ((-i) % p) * p + ((-j) % p)
    is_rep = np.arange(p * p) <= partner
    position = np.cumsum(is_rep) - 1
    mirrored = np.flatnonzero(~is_rep)
    source = position.copy()
    source[mirrored] = position[partner[mirrored]]
    return _read_only(HalfPlane(np.flatnonzero(is_rep), source, mirrored))


@functools.cache
def half_tap_dft(p: int, k: int) -> np.ndarray:
    """The representative rows `tap_dft(p, k)[half_plane(p).rep]`, cached read-only."""
    return _read_only(tap_dft(p, k)[half_plane(p).rep])


@functools.cache
def half_tap_pairs(p: int, k: int) -> np.ndarray:
    """Tap-pair weights of each half-plane frequency, (m, k^4), cached read-only.

    With F = `half_tap_dft(p, k)`, row f, column t*k^2 + t' holds
    conj(F[f, t]) F[f, t']. The spectrum at f of taps V_t is
    sum_t F[f, t] V_t, so its Gram is this row times the tap products
    V_t^H V_t' stacked in the same (t, t') order.
    """
    dft = half_tap_dft(p, k)
    return _read_only((np.conj(dft)[:, :, None] * dft[:, None, :]).reshape(dft.shape[0], -1))


class RealHalf(NamedTuple):
    """Real GEMM tables of the half-plane DFT of a real p x p signal.

    `forward` (p^2, 2m) interleaves the real and imaginary parts of
    `half_tap_dft(p, p).T`: for real x, `x.reshape(-1, p*p) @ forward`
    viewed as complex (-1, m) is the unitary `fft2` of x at the m
    `half_plane(p).rep` rows. `inverse` (2m, p^2) holds the same rows,
    weighted 2 for a representative whose partner is mirrored and 1 for a
    self-conjugate one: the interleaved float view of representative rows
    times `inverse` is the real part of the inverse transform of their
    mirror. `self_conjugate` (s0,) are the positions in `rep` of the
    self-conjugate frequencies, where the DFT is real (+-1/p), and
    `residue` (classes, s0) its values at one pixel of each class on which
    they agree: the pixel parities for even p, the origin for odd p.
    """

    forward: np.ndarray
    inverse: np.ndarray
    self_conjugate: np.ndarray
    residue: np.ndarray


@functools.cache
def real_half(p: int) -> RealHalf:
    """The cached, read-only `RealHalf` tables of a p x p grid."""
    dft = half_tap_dft(p, p)
    m = dft.shape[0]
    forward = np.empty((p * p, 2 * m))
    forward[:, 0::2] = dft.real.T
    forward[:, 1::2] = dft.imag.T
    grid = half_plane(p)
    weight = np.ones(m)
    weight[grid.source[grid.mirrored]] = 2.0
    self_conjugate = np.flatnonzero(weight == 1.0)
    inverse = np.ascontiguousarray(forward.T * np.repeat(weight, 2)[:, None])
    pixels = [0] if p % 2 else [0, 1, p, p + 1]
    residue = np.ascontiguousarray(dft[np.ix_(self_conjugate, pixels)].real.T)
    return _read_only(RealHalf(forward, inverse, self_conjugate, residue))


@functools.cache
def real_window(p: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """`real_half(p)`'s forward rows and inverse columns at the centred s x s window.

    The rows, (s^2, 2m), take a real s x s signal to the half-plane
    spectrum of its zero-padding to p x p, `x.reshape(-1, s*s) @ forward`;
    the columns, (2m, s^2), take representative rows to the window of the
    real inverse. Cached read-only; for s == p they are the `real_half(p)`
    arrays themselves.
    """
    tables = real_half(p)
    if s == p:
        return tables.forward, tables.inverse
    if not 0 < s < p or (p - s) % 2:
        raise ShapeError(f"no centred {s}x{s} window in a {p}x{p} grid")
    pixels = np.arange((p - s) // 2, (p + s) // 2)
    window = (pixels[:, None] * p + pixels).reshape(-1)
    return _read_only((tables.forward[window],
                       np.ascontiguousarray(tables.inverse[:, window])))


def pixel_residue(rows: np.ndarray, p: int) -> np.ndarray:
    """Imaginary part of the inverse transform of a mirrored spectrum, per pixel class.

    `rows` (m, ...) holds representative rows of a p x p spectrum. Their
    mirror conjugates every partner exactly, so the imaginary part of its
    unitary inverse comes only from the self-conjugate rows: at each pixel
    it is the sum of their imaginary parts times the real, +-1/p DFT
    entries, one value per pixel class. Returns those values, (classes, ...),
    computed from the s0 rows without the inverse transform.
    """
    tables = real_half(p)
    imag = rows[tables.self_conjugate].imag
    flat = tables.residue @ imag.reshape(tables.self_conjugate.size, -1)
    return flat.reshape((len(tables.residue),) + rows.shape[1:])


def imag_residue(rows: np.ndarray, p: int) -> float:
    """Largest imaginary magnitude of the inverse transform of a mirrored
    spectrum: the maximum of `pixel_residue`."""
    residue = pixel_residue(rows, p)
    return float(np.abs(residue).max()) if residue.size else 0.0


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
    _check_square_trailing(a.shape)
    out = np.fft.fft2(a, axes=(-2, -1), norm="ortho")
    record_alloc(out.size)
    return out


def ifft2(a: np.ndarray) -> np.ndarray:
    """Unitary inverse 2D DFT; exact inverse of :func:`fft2`."""
    _check_square_trailing(a.shape)
    out = np.fft.ifft2(a, axes=(-2, -1), norm="ortho")
    record_alloc(out.size)
    return out
