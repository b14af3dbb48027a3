"""Taped primitives that only the tests use: readouts of complex nodes, the
`moveaxis` forms of maxmin and l2_pool that the pair and patch views are
checked against, and the eager zero pad and crop that the windowed DFT
tables are checked against."""

import numpy as np

from brolip.errors import ContractError
from brolip.tape import Var


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
