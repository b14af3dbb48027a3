"""Taped primitives that only the tests use: readouts of complex nodes, the
`moveaxis` forms of maxmin and l2_pool that the pair and patch views are
checked against, the eager zero pad and crop that the windowed DFT
tables are checked against, and the image forms of the half-plane
transforms. The oracles take and return (B, c, s, s) image batches;
`columns` turns one into the feature-major (c s^2, B) batch that the
primitives take, and `images` turns it back. `spectral_operator` builds
the per-frequency conv operator at any k, k = 1 included, where
`conv_prepare` builds the per-pixel one."""

import math

import numpy as np

from brolip.errors import ContractError
from brolip.fft import real_window
from brolip.linalg import gram_factor_taps
from brolip.ortho import ConvOperator, tap_spectrum
from brolip.tape import Var


def columns(a: np.ndarray) -> np.ndarray:
    """A (B, ...) batch as its contiguous feature-major (d, B) form."""
    return np.ascontiguousarray(a.reshape(a.shape[0], math.prod(a.shape[1:])).T)


def images(a: np.ndarray, shape) -> np.ndarray:
    """A feature-major (d, B) batch as its contiguous (B,) + `shape` form."""
    return np.ascontiguousarray(a.T).reshape((a.shape[1],) + tuple(shape))


def spectral_operator(ops, v, geom) -> ConvOperator:
    """The per-frequency `ConvOperator` of the kernel `v` on `geom`'s padded
    grid, built by hand as `conv_prepare` builds it for k >= 3."""
    p = geom.padded_size
    return ConvOperator(tap_spectrum(ops, v, p), gram_factor_taps(ops.value(v), p))


def t_conj(a: Var) -> Var:
    return a.tape._append("conj", np.conj(a.value), (a.idx,),
                          lambda g: (np.conj(g),))


def t_real(a: Var) -> Var:
    return a.tape._append("real", np.ascontiguousarray(a.value.real), (a.idx,),
                          lambda g: (g.astype(np.complex128),))


def pad_last2(a: np.ndarray, before: int, after: int) -> np.ndarray:
    rows, cols = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (rows + before + after, cols + before + after), a.dtype)
    out[..., before:before + rows, before:before + cols] = a
    return out


def crop_last2(a: np.ndarray, border: int) -> np.ndarray:
    rows, cols = a.shape[-2:]
    return np.ascontiguousarray(a[..., border:rows - border, border:cols - border])


def maxmin_reference(a: np.ndarray, axis: int):
    """Pair sort with the pair axis moved to the front; returns the routing mask too."""
    m = np.moveaxis(a, axis, 0)
    if m.shape[0] % 2:
        raise ContractError(f"maxmin needs an even size along axis {axis}")
    e, o = m[0::2], m[1::2]
    take_e = e >= o
    out = np.empty_like(m)
    out[0::2] = np.where(take_e, e, o)
    out[1::2] = np.where(take_e, o, e)
    return np.moveaxis(out, 0, axis), take_e


def maxmin_vjp_reference(g: np.ndarray, take_e: np.ndarray, axis: int) -> np.ndarray:
    gm = np.moveaxis(g, axis, 0)
    ge, go = gm[0::2], gm[1::2]
    out = np.empty_like(gm)
    out[0::2] = np.where(take_e, ge, go)
    out[1::2] = np.where(take_e, go, ge)
    return np.moveaxis(out, 0, axis)


def l2_pool_reference(a: np.ndarray, p: int):
    """Patch norms over (..., q, q, p, p) blocks; returns the blocks too."""
    s = a.shape[-1]
    if a.shape[-2] != s or s % p:
        raise ContractError(f"l2_pool needs square spatial dims divisible by {p}")
    q = s // p
    blocks = np.moveaxis(a.reshape(a.shape[:-2] + (q, p, q, p)), -3, -2)
    norms = np.sqrt(np.sum(blocks * blocks, axis=(-1, -2)))
    return norms, blocks


def l2_pool_vjp_reference(g: np.ndarray, norms: np.ndarray, blocks: np.ndarray,
                          p: int) -> np.ndarray:
    safe = np.where(norms > 0, norms, 1.0)
    coeff = (g / safe)[..., None, None]
    grad_blocks = np.where(norms[..., None, None] > 0, coeff * blocks, 0.0)
    grad_blocks = np.moveaxis(grad_blocks, -2, -3)
    q = norms.shape[-1]
    return grad_blocks.reshape(norms.shape[:-2] + (q * p, q * p))


def _freq_major(rows: np.ndarray, b: int, c: int) -> np.ndarray:
    return np.ascontiguousarray(rows.view(np.complex128).reshape(b, c, -1).transpose(2, 1, 0))


def _image_rows(a: np.ndarray) -> np.ndarray:
    m, c, b = a.shape
    rows = np.ascontiguousarray(a.transpose(2, 1, 0), dtype=np.complex128)
    return rows.view(np.float64).reshape(b * c, 2 * m)


def rdft_half_reference(x: np.ndarray, p: int) -> np.ndarray:
    """The half-plane rows (m, c, B) of images (B, c, s, s): one GEMM of
    their (B c, s^2) rows, read in place, with the window's forward table."""
    b, c, s, _ = x.shape
    return _freq_major(x.reshape(b * c, s * s) @ real_window(p, s)[0], b, c)


def rdft_half_vjp_reference(g: np.ndarray, p: int, s: int) -> np.ndarray:
    _, c, b = g.shape
    return (_image_rows(g) @ real_window(p, s)[0].T).reshape(b, c, s, s)


def irdft_half_reference(a: np.ndarray, p: int, s: int) -> np.ndarray:
    """The centred s x s window (B, c, s, s) of the real image of half-plane
    rows (m, c, B)."""
    _, c, b = a.shape
    return (_image_rows(a) @ real_window(p, s)[1]).reshape(b, c, s, s)


def irdft_half_vjp_reference(g: np.ndarray, p: int) -> np.ndarray:
    b, c, s, _ = g.shape
    return _freq_major(g.reshape(b * c, s * s) @ real_window(p, s)[1].T, b, c)
